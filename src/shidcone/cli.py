"""Command-line front end.

Subcommands: basis, bernoulli, verify, det, lemmas, oracle dims,
oracle charpoly.  Exit status: 0 when the requested checks pass, 1 when a
verification fails, 2 on usage errors (invalid arguments, or an ``--out``
file that cannot be written, which is found before the command runs), 3 on
an internal error (any other exception, reported on stderr as
``internal error: <type>: <message>``).

JSON output is canonical: stable field order, big integers rendered as
decimal strings, monomials as exponent arrays; byte-identical across runs
for identical inputs (timings are only included on request, since they
vary run to run).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Sequence

from .bernoulli import make_bernoulli
from .exactpoly import default_names
from .oracle import charpoly_count, expected_count, graded_dims
from .shi_basis import basis, derivation_to_dict, poly_terms_json
from .verify import (
    bareiss_det,
    lemma_identity_checks,
    minor_expansion_det,
    saito_verify,
)

USAGE_ERROR = 2
CHECK_FAILED = 1
INTERNAL_ERROR = 3


@dataclass
class RunConfig:
    """Parsed invocation; commands use the normalized names
    basis | bernoulli | verify | det | lemmas | oracle-dims | oracle-charpoly."""

    command: str
    ell: int | None = None
    p: int | None = None
    q: int | None = None
    d: int | None = None
    prime: int | None = None
    method: str = "auto"
    algorithm: str = "minors"
    format: str = "text"
    out: str | None = None
    include_det: bool = False
    include_timing: bool = False


def emit_json(obj) -> str:
    """Canonical JSON serialization (stable order, trailing newline)."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


class OutputPathError(Exception):
    """The --out file could not be written: a usage error, not a crash."""


def _write(config: RunConfig, text: str, mode: str = "w") -> None:
    if config.out:
        try:
            with open(config.out, mode, encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputPathError(f"cannot write {config.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# -- command implementations ---------------------------------------------------


def _run_basis(config: RunConfig) -> int:
    derivs = basis(config.ell)
    if config.format == "json":
        _write(config, emit_json([derivation_to_dict(d) for d in derivs]))
        return 0
    lines = []
    for d in derivs:
        lines.append(f"{d.name}:")
        for var, coeff in zip(default_names(d.nvars), d.coefficients()):
            lines.append(f"  d/d{var}: {coeff.render()}")
    _write(config, "\n".join(lines) + "\n")
    return 0


def _run_bernoulli(config: RunConfig) -> int:
    br = make_bernoulli(config.p, config.q)
    label = f"({config.p},{config.q})"
    if br.is_negative_one_zero:
        if config.format == "json":
            payload = {"p": br.p, "q": br.q, "is_negative_one_zero": True}
            _write(config, emit_json(payload))
        else:
            _write(config, f"B_{label}(x) = -1/x (rational function, flagged)\n")
        return 0
    univariate = br.univariate.render(["x"])
    if config.format == "json":
        payload = {
            "p": br.p,
            "q": br.q,
            "is_negative_one_zero": False,
            "univariate": univariate,
            "homogenized": poly_terms_json(br.homogenized),
        }
        _write(config, emit_json(payload))
        return 0
    homog = br.homogenized.render(names=["x", "z"])
    _write(config, f"B_{label}(x) = {univariate}\nBbar_{label}(x,z) = {homog}\n")
    return 0


def _run_verify(config: RunConfig) -> int:
    report = saito_verify(config.ell, method=config.method)
    if config.format == "json":
        payload = report.summary_dict(include_timing=config.include_timing)
        if config.include_det:
            payload["det_phi"] = poly_terms_json(report.det_phi)
        _write(config, emit_json(payload))
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
        if config.include_timing:
            for phase, secs in report.timing.items():
                lines.append(f"  time[{phase}]: {secs:.3f}s")
        _write(config, "\n".join(lines) + "\n")
    return 0 if report.saito_ok else CHECK_FAILED


def _run_det(config: RunConfig) -> int:
    derivs = basis(config.ell)
    matrix = [
        [phi.coeff_x[i] for phi in derivs[1:]] for i in range(config.ell)
    ]
    if config.algorithm == "bareiss":
        det = bareiss_det(matrix)
    else:
        det = minor_expansion_det(matrix)
    if config.format == "json":
        _write(config, emit_json({"ell": config.ell, "det": poly_terms_json(det)}))
    else:
        _write(config, det.render() + "\n")
    return 0


def _run_lemmas(config: RunConfig) -> int:
    report = lemma_identity_checks(config.ell)
    if config.format == "json":
        _write(config, emit_json(report.summary_dict()))
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
        _write(config, "\n".join(lines) + "\n")
    return 0 if report.all_ok else CHECK_FAILED


def _run_oracle_dims(config: RunConfig) -> int:
    reports = graded_dims(config.ell, config.d)
    ok = all(r.ok for r in reports)
    if config.format == "json":
        payload = [
            {
                "ell": r.ell,
                "degree": r.degree,
                "computed_dim": r.computed_dim,
                "expected_dim": r.expected_dim,
                "ok": r.ok,
            }
            for r in reports
        ]
        _write(config, emit_json(payload))
    else:
        lines = [
            f"d={r.degree}: computed={r.computed_dim} expected={r.expected_dim}"
            f" {'ok' if r.ok else 'MISMATCH'}"
            for r in reports
        ]
        _write(config, "\n".join(lines) + "\n")
    return 0 if ok else CHECK_FAILED


def _run_oracle_charpoly(config: RunConfig) -> int:
    count = charpoly_count(config.ell, config.prime)
    expected = expected_count(config.ell, config.prime)
    ok = count == expected
    if config.format == "json":
        payload = {
            "ell": config.ell,
            "q": config.prime,
            "count": count,
            "expected": expected,
            "ok": ok,
        }
        _write(config, emit_json(payload))
    else:
        _write(
            config,
            f"count={count} expected={expected} {'ok' if ok else 'MISMATCH'}\n",
        )
    return 0 if ok else CHECK_FAILED


_DISPATCH = {
    "basis": _run_basis,
    "bernoulli": _run_bernoulli,
    "verify": _run_verify,
    "det": _run_det,
    "lemmas": _run_lemmas,
    "oracle-dims": _run_oracle_dims,
    "oracle-charpoly": _run_oracle_charpoly,
}


def run(config: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit status."""
    handler = _DISPATCH.get(config.command)
    if handler is None:
        print(f"unknown command: {config.command}", file=sys.stderr)
        return USAGE_ERROR
    try:
        if config.out:
            # appending nothing fails on a path that cannot be written, as
            # a shell redirection does, before any work; it creates a
            # missing file and leaves an existing one as it is
            _write(config, "", mode="a")
        return handler(config)
    except (ValueError, IndexError, OutputPathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shidcone",
        description=(
            "Exact construction and verification of the derivation-module "
            "basis for the cone over the type-D Shi arrangement."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, ell=True):
        if ell:
            p.add_argument("--ell", type=int, required=True, help="rank (>= 2)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output to a file")

    add_common(sub.add_parser("basis", help="emit the basis derivations"))

    p_bern = sub.add_parser("bernoulli", help="print B_{p,q} and its homogenization")
    p_bern.add_argument("--p", type=int, required=True)
    p_bern.add_argument("--q", type=int, required=True)
    add_common(p_bern, ell=False)

    p_verify = sub.add_parser("verify", help="run the full Saito verification")
    p_verify.add_argument("--method", choices=("auto", "expand", "certify"), default="auto")
    p_verify.add_argument("--include-det", action="store_true",
                          help="include the determinant terms in JSON output")
    p_verify.add_argument("--timings", action="store_true",
                          help="include per-phase timings (non-deterministic)")
    add_common(p_verify)

    p_det = sub.add_parser("det", help="print det[phi_j(x_i)]")
    p_det.add_argument("--algorithm", choices=("minors", "bareiss"), default="minors")
    add_common(p_det)

    add_common(sub.add_parser("lemmas", help="check the divisibility identities"))

    p_oracle = sub.add_parser("oracle", help="independent brute-force checks")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p_dims = oracle_sub.add_parser("dims", help="graded dimension comparison")
    p_dims.add_argument("--max-degree", type=int, required=True)
    add_common(p_dims)
    p_char = oracle_sub.add_parser("charpoly", help="finite-field point count")
    p_char.add_argument("--q", type=int, required=True, help="odd prime modulus")
    add_common(p_char)

    return parser


def parse_args(argv: Sequence[str] | None = None) -> RunConfig:
    args = _build_parser().parse_args(argv)
    command = args.command
    if command == "oracle":
        command = f"oracle-{args.oracle_command}"
    return RunConfig(
        command=command,
        ell=getattr(args, "ell", None),
        p=getattr(args, "p", None),
        q=getattr(args, "q", None) if command == "bernoulli" else None,
        d=getattr(args, "max_degree", None),
        prime=getattr(args, "q", None) if command == "oracle-charpoly" else None,
        method=getattr(args, "method", "auto"),
        algorithm=getattr(args, "algorithm", "minors"),
        format=getattr(args, "format", "text"),
        out=getattr(args, "out", None),
        include_det=getattr(args, "include_det", False),
        include_timing=getattr(args, "timings", False),
    )


def main(argv: Sequence[str] | None = None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
