"""Command-line front end.

Subcommands: basis, bernoulli, verify, det, lemmas, oracle dims,
oracle charpoly.  Exit status: 0 when the requested checks pass, 1 when a
verification fails, 2 on usage errors (invalid arguments, among them a rank
or degree whose exponents would pass 255, or an ``--out`` file that cannot
be written; both are found before the command does any work), 3 on
an internal error (any other exception, reported on stderr as
``internal error: <type>: <message>``).  JSON goes out as it is laid out,
so after status 3 an ``--out`` file (or stdout) may hold a truncated
payload.

JSON output is canonical: stable field order, big integers rendered as
decimal strings, monomials as exponent arrays; byte-identical across runs
for identical inputs (timings are only included on request, since they
vary run to run).  One writer, ``_write_json``, lays every payload out as
``json.dumps(indent=2, ensure_ascii=False)`` would and hands the text in
pieces to a ``write`` callable: the handlers pass that of the ``--out``
file or of stdout (``_write_payload``), and ``emit_json`` joins the
pieces into a string.  Handlers pass each polynomial as its ``Poly``, and
``_write_terms`` writes its terms straight from the stored integers, one
batch per run of keys that share their high half, so neither a nested
term list nor the text of a whole polynomial is ever built: each term
joins the text of the high and the low half of its key's exponent fields
and of its reduced denominator with its numerator.  With the kernel's
table freed before the determinant's dict is built, that took the peak
RSS of ``verify --ell 5 --method certify --format json --include-det``
(24.35 MB of text) from 130.2 MB to 58.2 MB, lower in 10 of 10 pairs,
and its time from 0.53 s to 0.44 s (the ``emit-det-r5`` workload, medians
of 10 alternating pairs on a shared 2-vCPU VM, ``BENCH_pr30.json``).  The
writer does not call ``json.dumps(indent=2)`` on the whole payload
because CPython's C encoder only runs with ``indent=None``: with any
indent the pure-Python encoder takes over, and it took about twice as
long as building the 201,865-term list of the rank-5 determinant.

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
from contextlib import contextmanager
from dataclasses import asdict
from math import gcd
from typing import Sequence

from .bernoulli import make_bernoulli
from .exactpoly import Poly, default_names
from .oracle import PREFIX_CAP, charpoly_count, expected_count, graded_dims
from .shi_basis import basis
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
    each ``Poly`` in obj stands for its term list (``_write_terms``).  The
    handlers stream the same text to their output (``_write_payload``)."""
    out: list[str] = []
    _write_json(out.append, obj, 0)
    out.append("\n")
    return "".join(out)


def _write_json(write, value, depth: int) -> None:
    """Pass value, nested ``depth`` levels deep, to ``write`` in pieces, as
    json.dumps(indent=2) lays it out."""
    if isinstance(value, Poly):
        _write_terms(write, value, depth)
    elif isinstance(value, dict) and value:
        inner = "\n" + "  " * (depth + 1)
        for n, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            write(("," if n else "{") + inner + json.dumps(key, ensure_ascii=False) + ": ")
            _write_json(write, item, depth + 1)
        write("\n" + "  " * depth + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = "\n" + "  " * (depth + 1)
        for n, item in enumerate(value):
            write(("," if n else "[") + inner)
            _write_json(write, item, depth + 1)
        write("\n" + "  " * depth + "]")
    else:
        # scalars, {} and []
        write(json.dumps(value, ensure_ascii=False))


def _write_terms(write, poly: Poly, depth: int) -> None:
    """Pass poly's terms to ``write`` as json.dumps(indent=2) lays out a
    list at nesting depth ``depth``: [exponent array, "num", "den"] in
    descending pure-lex order, integers as decimal strings, each
    coefficient reduced by the gcd of its numerator and the denominator.
    Written from the stored integers, one batch per run of keys that share
    their high half, so no term list and no text of the whole polynomial
    is built."""
    terms, den, nvars = poly._terms, poly._den, poly.nvars
    if not terms:
        write("[]")
        return
    i0, i1, i2, i3 = ("\n" + "  " * (depth + k) for k in range(4))
    # A term is the text of its key's high nvars - nvars // 2 exponent
    # fields, of its low nvars // 2 fields, its numerator and its reduced
    # denominator.  The terms of one polynomial share few distinct halves
    # and denominators (4,017, 2,114 and 8 over the 201,865 terms of the
    # rank-5 determinant).  In descending key order the keys with one high
    # half form one run, so its text is made when the run starts and the
    # run's terms go to ``write`` when it ends (50 terms on average at rank
    # 5); the low halves and the denominators are cached per call.
    nlow = nvars // 2
    shift = 8 * nlow  # one byte per exponent field (exactpoly._unpack)
    mask = (1 << shift) - 1
    lows: dict[int, str] = {}
    dens: dict[int, str] = {}
    run, sep, batch = None, "[", []
    for key in sorted(terms, reverse=True):
        c = terms[key]
        g = gcd(c, den)
        hi, lo = key >> shift, key & mask
        if hi != run:
            if batch:
                write(sep + ",".join(batch))
                sep, batch = ",", []
            run = hi
            exps = hi.to_bytes(nvars - nlow, "big")
            high = f"{i1}[{i2}[" + ",".join(i3 + str(e) for e in exps)
        low = lows.get(lo)
        if low is None:
            exps = lo.to_bytes(nlow, "big")
            low = lows[lo] = "".join("," + i3 + str(e) for e in exps) + f'{i2}],{i2}"'
        tail = dens.get(g)
        if tail is None:
            tail = dens[g] = f'",{i2}"{den // g}"{i1}]'
        batch.append(f"{high}{low}{c // g}{tail}")
    write(sep + ",".join(batch) + i0 + "]")


class OutputPathError(Exception):
    """The --out file could not be written: a usage error, not a crash."""


@contextmanager
def _output(args: argparse.Namespace, mode: str = "w"):
    """The ``write`` of the --out file, opened with ``mode``, or of stdout
    without one.  An OSError while the file is open is an OutputPathError."""
    if not args.out:
        yield sys.stdout.write
        return
    try:
        with open(args.out, mode, encoding="utf-8") as fh:
            yield fh.write
    except OSError as exc:
        raise OutputPathError(f"cannot write {args.out}: {exc.strerror or exc}") from exc


def _write(args: argparse.Namespace, text: str) -> None:
    with _output(args) as write:
        write(text)


def _write_payload(args: argparse.Namespace, payload) -> None:
    """Write emit_json(payload) to the output as it is laid out, so that
    neither the text nor the term list of a polynomial is held whole."""
    with _output(args) as write:
        _write_json(write, payload, 0)
        write("\n")


# -- command implementations ---------------------------------------------------


def _run_basis(args: argparse.Namespace) -> int:
    derivs = basis(args.ell)
    if args.format == "json":
        # the layout shi_basis.derivation_from_dict reads back
        payload = [
            {
                "ell": d.ell,
                "name": d.name,
                "coeffs": dict(zip(default_names(d.nvars), d.coefficients())),
            }
            for d in derivs
        ]
        _write_payload(args, payload)
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
            _write_payload(args, payload)
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
        _write_payload(args, payload)
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
        _write_payload(args, payload)
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
        _write_payload(args, {"ell": args.ell, "det": det})
    else:
        _write(args, det.render() + "\n")
    return 0


def _run_lemmas(args: argparse.Namespace) -> int:
    report = lemma_identity_checks(args.ell)
    if args.format == "json":
        _write_payload(args, report.summary_dict())
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
        _write_payload(args, [{**asdict(r), "ok": r.ok} for r in reports])
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
        _write_payload(args, payload)
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
    p_char = oracle_sub.add_parser(
        "charpoly",
        help=f"finite-field point count, refused past {PREFIX_CAP:,} visited prefixes",
    )
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
            with _output(args, "a"):
                pass
        return args.handler(args)
    except (ValueError, IndexError, OutputPathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
