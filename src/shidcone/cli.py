"""Command-line front end.

Subcommands: basis, bernoulli, verify, det, lemmas, oracle dims,
oracle charpoly.  Exit status: 0 when the requested checks pass, 1 when a
verification fails, 2 on usage errors (invalid arguments, among them a rank
or degree whose exponents would pass 255, or an ``--out`` file that cannot
be written; both are found before the command does any work), 3 on
an internal error (any other exception, reported on stderr as
``internal error: <type>: <message>``).

JSON output is canonical: stable field order, big integers rendered as
decimal strings, monomials as exponent arrays; byte-identical across runs
for identical inputs (timings are only included on request, since they
vary run to run).  One writer, ``emit_json``, lays every payload out as
``json.dumps(indent=2, ensure_ascii=False)`` would.  Handlers pass each
polynomial as its ``Poly``, and ``shi_basis.poly_terms_text`` writes its
terms straight from the stored integers, one %-template per term, so the
nested term lists of ``poly_terms_json`` are never built.  The writer does
not call ``json.dumps(indent=2)`` on the whole payload because CPython's
C encoder only runs with ``indent=None``: with any indent the pure-Python
encoder takes over, and it took about twice as long as building the
201,865-term list of the rank-5 determinant.

To add a subcommand, add one ``add_parser`` and pass it to ``add_common``
with its ``_run_x``, which ``set_defaults(handler=_run_x)`` attaches.  The
handler reads the parsed ``argparse.Namespace`` (``args.ell``,
``args.format``, ...) directly, so each flag and its default are declared
once, in its ``add_argument``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Sequence

from .bernoulli import make_bernoulli
from .exactpoly import Poly, default_names
from .oracle import charpoly_count, expected_count, graded_dims
from .shi_basis import basis, poly_terms_text
from .verify import (
    bareiss_det,
    coefficient_matrix,
    lemma_identity_checks,
    minor_expansion_det,
    saito_verify,
)

USAGE_ERROR = 2
CHECK_FAILED = 1
INTERNAL_ERROR = 3


def emit_json(obj) -> str:
    """Canonical JSON serialization (stable order, trailing newline): the
    text of ``json.dumps(obj, indent=2, ensure_ascii=False) + "\\n"``, where
    each ``Poly`` in obj stands for its ``poly_terms_json`` term list."""
    out: list[str] = []
    _write_json(out, obj, 0)
    out.append("\n")
    return "".join(out)


def _write_json(out: list[str], value, depth: int) -> None:
    """Append value, nested ``depth`` levels deep, as json.dumps(indent=2)
    lays it out."""
    if isinstance(value, Poly):
        out.append(poly_terms_text(value, depth))
    elif isinstance(value, dict) and value:
        inner = "\n" + "  " * (depth + 1)
        for n, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            out.append(("," if n else "{") + inner + json.dumps(key, ensure_ascii=False) + ": ")
            _write_json(out, item, depth + 1)
        out.append("\n" + "  " * depth + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = "\n" + "  " * (depth + 1)
        for n, item in enumerate(value):
            out.append(("," if n else "[") + inner)
            _write_json(out, item, depth + 1)
        out.append("\n" + "  " * depth + "]")
    else:
        # scalars, {} and []
        out.append(json.dumps(value, ensure_ascii=False))


class OutputPathError(Exception):
    """The --out file could not be written: a usage error, not a crash."""


def _write(args: argparse.Namespace, text: str, mode: str = "w") -> None:
    if args.out:
        try:
            with open(args.out, mode, encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputPathError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# -- command implementations ---------------------------------------------------


def _run_basis(args: argparse.Namespace) -> int:
    derivs = basis(args.ell)
    if args.format == "json":
        # derivation_to_dict's keys, with each coefficient left a Poly
        payload = [
            {
                "ell": d.ell,
                "name": d.name,
                "coeffs": dict(zip(default_names(d.nvars), d.coefficients())),
            }
            for d in derivs
        ]
        _write(args, emit_json(payload))
        return 0
    lines = []
    for d in derivs:
        lines.append(f"{d.name}:")
        for var, coeff in zip(default_names(d.nvars), d.coefficients()):
            lines.append(f"  d/d{var}: {coeff.render()}")
    _write(args, "\n".join(lines) + "\n")
    return 0


def _run_bernoulli(args: argparse.Namespace) -> int:
    br = make_bernoulli(args.p, args.q)
    label = f"({args.p},{args.q})"
    if br.is_negative_one_zero:
        if args.format == "json":
            payload = {"p": br.p, "q": br.q, "is_negative_one_zero": True}
            _write(args, emit_json(payload))
        else:
            _write(args, f"B_{label}(x) = -1/x (rational function, flagged)\n")
        return 0
    univariate = br.univariate.render(["x"])
    if args.format == "json":
        payload = {
            "p": br.p,
            "q": br.q,
            "is_negative_one_zero": False,
            "univariate": univariate,
            "homogenized": br.homogenized,
        }
        _write(args, emit_json(payload))
        return 0
    homog = br.homogenized.render(names=["x", "z"])
    _write(args, f"B_{label}(x) = {univariate}\nBbar_{label}(x,z) = {homog}\n")
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    report = saito_verify(args.ell, method=args.method)
    if args.format == "json":
        payload = report.summary_dict(include_timing=args.timings)
        if args.include_det:
            payload["det_phi"] = report.det_phi
        _write(args, emit_json(payload))
    else:
        lines = [
            f"ell = {report.ell} (method: {report.method})",
            f"membership_ok: {report.membership_ok}",
            f"degrees_ok: {report.degrees_ok}",
            f"initials_ok: {report.initials_ok}",
            f"det_matches_corollary: {report.det_matches_corollary}",
            f"full_det_consistent: {report.full_det_consistent}",
            f"det_constant: {report.det_constant}",
            f"saito_ok: {report.saito_ok}",
        ]
        if args.timings:
            for phase, secs in report.timing.items():
                lines.append(f"  time[{phase}]: {secs:.3f}s")
        _write(args, "\n".join(lines) + "\n")
    return 0 if report.saito_ok else CHECK_FAILED


def _run_det(args: argparse.Namespace) -> int:
    # rows x1..xl of the phi columns: the z row is dropped
    matrix = coefficient_matrix(basis(args.ell)[1:])[:-1]
    if args.algorithm == "bareiss":
        det = bareiss_det(matrix)
    else:
        det = minor_expansion_det(matrix)
    if args.format == "json":
        _write(args, emit_json({"ell": args.ell, "det": det}))
    else:
        _write(args, det.render() + "\n")
    return 0


def _run_lemmas(args: argparse.Namespace) -> int:
    report = lemma_identity_checks(args.ell)
    if args.format == "json":
        _write(args, emit_json(report.summary_dict()))
    else:
        d = report.summary_dict()
        lines = [f"ell = {report.ell}"]
        for section in (
            "subset_expansion",
            "sigma_tau_expansion",
            "odd_reflection_divisibility",
            "shifted_form_divisibility",
        ):
            n_ok = sum(1 for item in d[section] if item["ok"])
            lines.append(f"{section}: {n_ok}/{len(d[section])} ok")
        lines.append(f"all_ok: {report.all_ok}")
        _write(args, "\n".join(lines) + "\n")
    return 0 if report.all_ok else CHECK_FAILED


def _run_oracle_dims(args: argparse.Namespace) -> int:
    reports = graded_dims(args.ell, args.max_degree)
    ok = all(r.ok for r in reports)
    if args.format == "json":
        _write(args, emit_json([{**asdict(r), "ok": r.ok} for r in reports]))
    else:
        lines = [
            f"d={r.degree}: computed={r.computed_dim} expected={r.expected_dim}"
            f" {'ok' if r.ok else 'MISMATCH'}"
            for r in reports
        ]
        _write(args, "\n".join(lines) + "\n")
    return 0 if ok else CHECK_FAILED


def _run_oracle_charpoly(args: argparse.Namespace) -> int:
    count = charpoly_count(args.ell, args.q)
    expected = expected_count(args.ell, args.q)
    ok = count == expected
    if args.format == "json":
        payload = {
            "ell": args.ell,
            "q": args.q,
            "count": count,
            "expected": expected,
            "ok": ok,
        }
        _write(args, emit_json(payload))
    else:
        _write(
            args,
            f"count={count} expected={expected} {'ok' if ok else 'MISMATCH'}\n",
        )
    return 0 if ok else CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shidcone",
        description=(
            "Exact construction and verification of the derivation-module "
            "basis for the cone over the type-D Shi arrangement."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, handler, ell=True):
        if ell:
            p.add_argument("--ell", type=int, required=True, help="rank (>= 2)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output to a file")
        p.set_defaults(handler=handler)

    add_common(sub.add_parser("basis", help="emit the basis derivations"), _run_basis)

    p_bern = sub.add_parser("bernoulli", help="print B_{p,q} and its homogenization")
    p_bern.add_argument("--p", type=int, required=True)
    p_bern.add_argument("--q", type=int, required=True)
    add_common(p_bern, _run_bernoulli, ell=False)

    p_verify = sub.add_parser("verify", help="run the full Saito verification")
    p_verify.add_argument("--method", choices=("auto", "expand", "certify"), default="auto")
    p_verify.add_argument("--include-det", action="store_true",
                          help="include the determinant terms in JSON output")
    p_verify.add_argument("--timings", action="store_true",
                          help="include per-phase timings (non-deterministic)")
    add_common(p_verify, _run_verify)

    p_det = sub.add_parser("det", help="print det[phi_j(x_i)]")
    p_det.add_argument("--algorithm", choices=("minors", "bareiss"), default="minors")
    add_common(p_det, _run_det)

    add_common(sub.add_parser("lemmas", help="check the divisibility identities"), _run_lemmas)

    p_oracle = sub.add_parser("oracle", help="independent brute-force checks")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p_dims = oracle_sub.add_parser("dims", help="graded dimension comparison")
    p_dims.add_argument("--max-degree", type=int, required=True)
    add_common(p_dims, _run_oracle_dims)
    p_char = oracle_sub.add_parser("charpoly", help="finite-field point count")
    p_char.add_argument("--q", type=int, required=True, help="odd prime modulus")
    add_common(p_char, _run_oracle_charpoly)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Parse argv and run its subcommand; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    try:
        if args.out:
            # appending nothing fails on a path that cannot be written, as
            # a shell redirection does, before any work; it creates a
            # missing file and leaves an existing one as it is
            _write(args, "", mode="a")
        return args.handler(args)
    except (ValueError, IndexError, OutputPathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
