"""Span tracer for the benchmark's traced runs.

``Tracer`` wraps public functions of the ``shidcone`` modules in place,
including the names other modules re-bind on import (``shidcone.verify.divides``,
``shidcone.verify.det_minor_expansion``, ``shidcone.saito_verify``, ...), and a
few methods (``Poly.__mul__``, ``Poly.from_terms``, ``DictPoly.fma``, ...).
Each call records one span: name, start, end and the parent span, all under
one run id.  Counts are taken at the same boundaries.  Spans stay in memory
and are written out by :meth:`Tracer.write` at the end of the run.

Nothing under ``src/`` knows about the tracer: it is installed on entry to a
``with Tracer(...)`` block and every patched name is restored on exit.

Each span stores two intervals.  The inner one covers only the wrapped call;
the outer one adds the tracer's own counting hooks.  A span's self time is
its inner duration minus the outer durations of its children, so the hooks'
cost is charged to no layer.  It shows up only in ``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

# The package's modules.  All are imported before patching, so that every
# re-binding of a traced name is found.
MODULES = (
    "exactpoly",
    "bernoulli",
    "arrangement",
    "shi_basis",
    "detkernel",
    "verify",
    "oracle",
    "cli",
)

# Highest determinant-DP level reported: rank-5 ``expand`` expands a 6 x 6 determinant.
MAX_LEVEL = 6

# Per-layer metrics of a traced run, with their units.
PER_LAYER_UNITS = {
    "exactpoly.division_calls": "count",
    "exactpoly.division_dividend_terms": "count",
    "exactpoly.division_self_s": "s",
    "exactpoly.mul_calls": "count",
    "exactpoly.mul_term_pairs": "count",
    "exactpoly.mul_self_s": "s",
    "exactpoly.from_terms_terms": "count",
    "exactpoly.from_terms_self_s": "s",
    "exactpoly.evaluate_self_s": "s",
    "exactpoly.substitute_self_s": "s",
    "bernoulli.make_bernoulli_calls": "count",
    "bernoulli.make_bernoulli_self_s": "s",
    "shi_basis.basis_self_s": "s",
    "shi_basis.apply_self_s": "s",
    "shi_basis.phi_terms_max": "count",
    "shi_basis.phi_terms_total": "count",
    "detkernel.det_minor_expansion_self_s": "s",
    "detkernel.fma_calls": "count",
    "detkernel.fma_term_pairs": "count",
    "detkernel.fma_self_s": "s",
    "detkernel.peak_minor_nnz": "count",
    **{f"detkernel.level{r}_s": "s" for r in range(1, MAX_LEVEL + 1)},
    **{f"detkernel.level{r}_nnz": "count" for r in range(1, MAX_LEVEL + 1)},
    "detkernel.int_dict_to_poly_self_s": "s",
    "detkernel.poly_to_int_dict_self_s": "s",
    "verify.check_membership_self_s": "s",
    "verify.membership_pairs": "count",
    "verify.det_phi_self_s": "s",
    "verify.saito_verify_self_s": "s",
    "oracle.derivation_dim_self_s": "s",
    "oracle.charpoly_count_self_s": "s",
    "oracle.unknowns": "count",
    "oracle.points_enumerated": "count",
    "cli.main_self_s": "s",
    "cli.emit_json_self_s": "s",
    "cli.output_bytes": "count",
}

# Span record fields.
_NAME, _OUTER_START, _START, _END, _OUTER_END, _PARENT = range(6)


class _DPFrame:
    """Bookkeeping for one ``det_minor_expansion`` call.

    The DP processes rows in order and every ``fma`` pairs a minor with an
    entry of the row being added, so the entry passed to ``fma`` tells the
    level: a call with an entry of row r builds an (r + 1) x (r + 1) minor.
    """

    def __init__(self, span: int, rows):
        self.span = span
        self.rows_of: dict[int, list[int]] = defaultdict(list)
        for r, row in enumerate(rows):
            for entry in row:
                self.rows_of[id(entry)].append(r)
        self.row = 0
        self.window: dict[int, list[float]] = {}
        self.nnz: dict[tuple[int, int], int] = {}

    def level_of(self, entry) -> int | None:
        rows = [r for r in self.rows_of.get(id(entry), ()) if r >= self.row]
        if not rows:
            return None
        self.row = rows[0]
        return self.row + 1


class Tracer:
    """Records spans and counts for one traced operation (see module doc)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._dp: list[_DPFrame] = []
        self._undo: list[tuple] = []
        self._t0 = perf_counter()

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span.

        ``before(args)`` runs before the span starts and ``after(args,
        result, record)`` after it ends; both count work for the metrics.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_outer = perf_counter()
            if before is not None:
                before(args)
            rec = [name, t_outer, 0.0, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = rec[_OUTER_END] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, rec)
                rec[_OUTER_END] = perf_counter()
            return result

        return traced

    def _patch_function(self, module, attr, name, before=None, after=None):
        """Replace ``module.attr`` and every re-binding of it in the package."""
        original = getattr(module, attr)
        traced = self._wrap(name, original, before, after)
        for modname, mod in list(sys.modules.items()):
            if modname != "shidcone" and not modname.startswith("shidcone."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))

    def _patch_attr(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def __enter__(self) -> "Tracer":
        mods = {m: importlib.import_module(f"shidcone.{m}") for m in MODULES}
        ep, dk, vf = mods["exactpoly"], mods["detkernel"], mods["verify"]
        count = self.counts

        def dividend(index):
            def before(args):
                count["exactpoly.division_calls"] += 1
                count["exactpoly.division_dividend_terms"] += len(args[index])

            return before

        self._patch_function(ep, "divides", "exactpoly.division", dividend(1))
        self._patch_function(ep, "exact_div", "exactpoly.division", dividend(0))

        def mul_before(args):
            count["exactpoly.mul_calls"] += 1
            count["exactpoly.mul_term_pairs"] += len(args[0]) * len(args[1])

        poly_mul = ep.Poly.__dict__["__mul__"]
        traced_mul = self._wrap("exactpoly.mul", poly_mul, mul_before)

        def mul(a, b):
            # Only polynomial products are spans; scalings pass straight through.
            if isinstance(b, ep.Poly):
                return traced_mul(a, b)
            return poly_mul(a, b)

        self._patch_attr(ep.Poly, "__mul__", mul)
        self._patch_attr(ep.Poly, "__rmul__", mul)

        def from_terms_before(args):
            count["exactpoly.from_terms_terms"] += len(args[2])

        from_terms = ep.Poly.__dict__["from_terms"].__func__
        self._patch_attr(
            ep.Poly,
            "from_terms",
            classmethod(self._wrap("exactpoly.from_terms", from_terms, from_terms_before)),
        )
        for method in ("evaluate", "substitute"):
            fn = ep.Poly.__dict__[method]
            self._patch_attr(ep.Poly, method, self._wrap(f"exactpoly.{method}", fn))

        def bernoulli_before(args):
            count["bernoulli.make_bernoulli_calls"] += 1

        self._patch_function(
            mods["bernoulli"], "make_bernoulli", "bernoulli.make_bernoulli", bernoulli_before
        )

        def basis_after(args, derivs, rec):
            for phi in derivs[1:]:
                for c in phi.coefficients():
                    n = len(c)
                    count["shi_basis.phi_terms_total"] += n
                    if n > count["shi_basis.phi_terms_max"]:
                        count["shi_basis.phi_terms_max"] = n

        self._patch_function(mods["shi_basis"], "basis", "shi_basis.basis", after=basis_after)
        self._patch_function(mods["shi_basis"], "apply", "shi_basis.apply")

        self._patch_kernel(dk)
        self._patch_function(dk, "int_dict_to_poly", "detkernel.int_dict_to_poly")
        self._patch_function(dk, "poly_to_int_dict", "detkernel.poly_to_int_dict")

        def membership_after(args, result, rec):
            count["verify.membership_pairs"] += len(result)

        self._patch_function(
            vf, "check_membership", "verify.check_membership", after=membership_after
        )
        self._patch_function(vf, "saito_verify", "verify.saito_verify")
        det_phi = vf.VerificationReport.__dict__["det_phi"]
        self._patch_attr(
            vf.VerificationReport,
            "det_phi",
            property(self._wrap("verify.det_phi", det_phi.fget)),
        )

        def dims_after(args, result, rec):
            ell, d = args
            count["oracle.unknowns"] += (ell + 1) * comb(d + ell, ell)

        def points_after(args, result, rec):
            ell, q = args
            count["oracle.points_enumerated"] += (q - 1) * q**ell

        orc = mods["oracle"]
        self._patch_function(orc, "derivation_dim", "oracle.derivation_dim", after=dims_after)
        self._patch_function(orc, "charpoly_count", "oracle.charpoly_count", after=points_after)

        def emit_after(args, text, rec):
            count["cli.output_bytes"] += len(text.encode("utf-8"))

        self._patch_function(mods["cli"], "main", "cli.main")
        self._patch_function(mods["cli"], "emit_json", "cli.emit_json", after=emit_after)
        return self

    def _patch_kernel(self, dk) -> None:
        """Trace the determinant DP and the kernel's ``fma``, with the
        per-level time and size of the DP."""
        count, spans, dp = self.counts, self.spans, self._dp

        def dp_before(args):
            # The wrapper appends this call's span right after this hook.
            dp.append(_DPFrame(len(spans), args[0]))

        def dp_after(args, result, rec):
            frame = dp.pop()
            for level, (start, end) in frame.window.items():
                count[f"detkernel.level{level}_s"] += end - start
            for (level, _), nnz in frame.nnz.items():
                count[f"detkernel.level{level}_nnz"] += nnz
                if nnz > count["detkernel.peak_minor_nnz"]:
                    count["detkernel.peak_minor_nnz"] = nnz

        self._patch_function(
            dk, "det_minor_expansion", "detkernel.det_minor_expansion", dp_before, dp_after
        )

        def fma_before(args):
            acc, a, b, _ = args
            count["detkernel.fma_calls"] += 1
            count["detkernel.fma_term_pairs"] += a.nnz() * b.nnz()

        def fma_after(args, result, rec):
            if not dp or rec[_PARENT] != dp[-1].span:
                return
            frame = dp[-1]
            acc, _, entry, _ = args
            level = frame.level_of(entry)
            if level is None:
                return
            window = frame.window.setdefault(level, [rec[_START], rec[_END]])
            window[1] = rec[_END]
            # The last fma into an accumulator leaves the finished minor.
            frame.nnz[(level, id(acc))] = acc.nnz()

        impl = dk.get_impl()
        self._patch_attr(
            impl, "fma", self._wrap("detkernel.fma", impl.__dict__["fma"], fma_before, fma_after)
        )

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name: each span's duration minus its children's."""
        own = [rec[_END] - rec[_START] for rec in self.spans]
        for rec in self.spans:
            if rec[_PARENT] is not None:
                own[rec[_PARENT]] -= rec[_OUTER_END] - rec[_OUTER_START]
        out: dict[str, float] = defaultdict(float)
        for rec, t in zip(self.spans, own):
            out[rec[_NAME]] += t
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of PER_LAYER_UNITS (zero where unused)."""
        values = dict(self.counts)
        for name, t in self.self_times().items():
            values[f"{name}_self_s"] = t
        return {name: values.get(name, 0) for name in PER_LAYER_UNITS}

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from tracer start."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": i,
                            "name": rec[_NAME],
                            "start": rec[_START] - self._t0,
                            "end": rec[_END] - self._t0,
                            "parent": rec[_PARENT],
                        }
                    )
                    + "\n"
                )
