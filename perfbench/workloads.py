"""The benchmark's workloads and the correctness gate for each.

Every workload is one operation against the public ``shidcone`` API, run in
a fresh interpreter so the ``lru_cache``s of ``bernoulli`` and ``shi_basis``
start empty, as they do for a command-line user.  ``run`` returns what the
gate needs, and ``check`` returns the list of failed checks (empty when the
operation's result is correct).  A wrong result fails its operation however
fast it was.
"""

from __future__ import annotations

import hashlib
import os
from fractions import Fraction
from pathlib import Path

import shidcone
from shidcone import cli

OUT_DIR = Path(__file__).resolve().parent / "out"

# sha256 of `shidcone verify --ell 5 --method certify --format json
# --include-det`, recorded from the seed commit (24,351,117 bytes).
EMIT_DET_R5_SHA256 = "967f1aec00575ed067d1f1fbe3245ccbcb9112ae29fb4dd5062c9d4c8b66dd2a"

# Graded dimensions of the rank-3 derivation module in degrees 0..6, and the
# number of points of F_17^5 off the rank-4 arrangement, (17 - 1)(17 - 6)^4.
ORACLE_R3_DIMS = (0, 1, 4, 10, 23, 47, 86)
ORACLE_R4_COUNT_Q17 = 234256


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def expected_det_initial(ell: int) -> tuple:
    """in(det[phi_j(x_i)]): the product of the forms' initial monomials.

    Each x_s with s < l leads 4(l - s) forms: x_s +- x_t and x_s +- x_t - z
    for t > s.
    """
    return tuple(4 * (ell - s) for s in range(1, ell)) + (0, 0)


def verify_gate(report, ell: int) -> list[str]:
    """Checks on a ``saito_verify`` report at rank ``ell``.

    The expected values are computed here rather than imported from
    ``shidcone.verify``, so the gate does not depend on the code it checks.
    """
    errors = []
    if not report.saito_ok:
        errors.append("saito_ok is false")
    if report.det_constant != Fraction(1, double_factorial(2 * ell - 3)):
        errors.append(f"det_constant is {report.det_constant}")
    memberships = [v for row in report.membership.values() for v in row.values()]
    n_pairs = (ell + 1) * (2 * ell * (ell - 1) + 1)
    if len(memberships) != n_pairs or not all(memberships):
        errors.append(
            f"{sum(memberships)} of {len(memberships)} memberships true, "
            f"expected {n_pairs}"
        )
    if report.det_initial != expected_det_initial(ell):
        errors.append(f"det_initial is {report.det_initial}")
    return errors


class Verify:
    """``saito_verify(ell, method=method)``."""

    def __init__(self, ell: int, method: str):
        self.ell, self.method = ell, method

    def run(self):
        return shidcone.saito_verify(self.ell, method=self.method)

    def check(self, report) -> list[str]:
        return verify_gate(report, self.ell)


class EmitDet:
    """``shidcone verify --format json --include-det`` written to a file."""

    def __init__(self, ell: int, sha256: str):
        self.ell, self.sha256 = ell, sha256
        self.path = OUT_DIR / f"emit-det-r{ell}-{os.getpid()}.json"

    def run(self):
        OUT_DIR.mkdir(exist_ok=True)
        return cli.main(
            [
                "verify",
                "--ell",
                str(self.ell),
                "--method",
                "certify",
                "--format",
                "json",
                "--include-det",
                "--out",
                str(self.path),
            ]
        )

    def check(self, status) -> list[str]:
        errors = [] if status == 0 else [f"exit status {status}"]
        digest = hashlib.sha256()
        with open(self.path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        self.path.unlink()
        if digest.hexdigest() != self.sha256:
            errors.append(f"output sha256 {digest.hexdigest()}")
        return errors


class Oracles:
    """``derivation_dim(3, d)`` for d = 0..6 and ``charpoly_count(4, 17)``."""

    def run(self):
        dims = tuple(shidcone.derivation_dim(3, d) for d in range(len(ORACLE_R3_DIMS)))
        return dims, shidcone.charpoly_count(4, 17)

    def check(self, result) -> list[str]:
        dims, count = result
        errors = []
        if dims != ORACLE_R3_DIMS:
            errors.append(f"dimensions {dims}")
        if count != ORACLE_R4_COUNT_Q17:
            errors.append(f"point count {count}")
        return errors


WORKLOADS = {
    "certify-r6": Verify(6, "certify"),
    "expand-r5": Verify(5, "expand"),
    "emit-det-r5": EmitDet(5, EMIT_DET_R5_SHA256),
    "oracle-r3": Oracles(),
}
