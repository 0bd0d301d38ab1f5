"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated wall-clock budget.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines on success.
"""

import time
from fractions import Fraction
from math import comb

from shidcone import cli
from shidcone.bernoulli import make_bernoulli, rhs_poly
from shidcone.exactpoly import Poly
from shidcone.oracle import charpoly_count, derivation_dim, expected_count, expected_dim
from shidcone.shi_basis import basis
from shidcone.verify import (
    bareiss_det,
    double_factorial,
    lemma_identity_checks,
    minor_expansion_det,
    saito_verify,
)

_reports: dict[int, object] = {}


def report(ell):
    if ell not in _reports:
        _reports[ell] = saito_verify(ell)
    return _reports[ell]


def _record(num: int, label: str, ok: bool, elapsed: float, budget: float) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num} [{label}]: {verdict} ({elapsed:.2f}s < {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {label}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.2f}s"


def test_criterion_1_rank2_golden():
    t0 = time.perf_counter()
    derivs = basis(2)
    n = 3
    x1, x2, z = (Poly.variable(n, i) for i in range(n))
    pref = (x1 - x2 - z) * (x1 - x2)
    ok = (
        derivs[1].coeff_x[0] == pref
        and derivs[1].coeff_x[1] == -pref
        and derivs[2].coeff_x[0] == 2 * x1 * x2 - x2 * z
        and derivs[2].coeff_x[1] == x1**2 + x2**2 - x1 * z
    )
    rep = saito_verify(2)
    expected_det = (x1 + x2) * (x1 - x2) * (x1 + x2 - z) * (x1 - x2 - z)
    ok = ok and rep.det_phi == expected_det and rep.det_constant == Fraction(1)
    _record(1, "rank-2 golden basis and determinant", ok, time.perf_counter() - t0, 1.0)


def test_criterion_2_saito_ranks_2_to_6():
    t0 = time.perf_counter()
    ok = True
    for ell in (2, 3, 4, 5, 6):
        rep = report(ell)
        n_forms = 2 * ell * (ell - 1) + 1
        memberships = [v for row in rep.membership.values() for v in row.values()]
        ok = ok and rep.saito_ok
        ok = ok and len(memberships) == (ell + 1) * n_forms and all(memberships)
        ok = ok and rep.det_constant == Fraction(1, double_factorial(2 * ell - 3))
        ok = ok and rep.det_matches_corollary and rep.full_det_consistent
    _record(2, "saito_verify ranks 2..6", ok, time.perf_counter() - t0, 60.0)


def test_criterion_3_degrees_and_initial_monomials():
    t0 = time.perf_counter()
    ok = True
    for ell in (2, 3, 4, 5, 6):
        rep = report(ell)
        derivs = basis(ell)
        target = 2 * (ell - 1)
        for phi in derivs[1:]:
            for c in phi.coeff_x:
                if c:
                    ok = ok and c.is_homogeneous(target)
        for i in range(1, ell + 1):
            bound = tuple(
                [2] * (i - 1) + [2 * ell - 2 * i] + [0] * (ell + 1 - i)
            )
            for j in range(1, ell + 1):
                entry = derivs[j].coeff_x[i - 1]
                if entry.is_zero():
                    continue
                init = entry.initial_monomial()
                ok = ok and init <= bound
                if i < j:
                    ok = ok and init < bound
            diag = derivs[i].coeff_x[i - 1]
            lc_expected = Fraction(1) if i == ell else Fraction(1, 2 * ell - 2 * i - 1)
            ok = ok and diag.initial_monomial() == bound
            ok = ok and diag.leading_coefficient() == lc_expected
        det_init_expected = tuple([4 * (ell - i) for i in range(1, ell)] + [0, 0])
        ok = ok and rep.det_initial == det_init_expected
        ok = ok and rep.det_leading_coefficient == Fraction(
            1, double_factorial(2 * ell - 3)
        )
    _record(3, "degree and initial-monomial suite", ok, time.perf_counter() - t0, 10.0)


def test_criterion_4_bernoulli_suite():
    t0 = time.perf_counter()
    ok = True

    x = Poly.variable(1, 0)

    def uni(*coeffs) -> Poly:
        return Poly.from_terms(1, {(e,): c for e, c in enumerate(coeffs)})

    def shift1(p: Poly) -> Poly:
        out = Poly.zero(1)
        for (e,), c in p.terms():
            out = out + (x + 1) ** e * c
        return out

    for p in range(-1, 10):
        for q in range(0, 5):
            if (p, q) == (-1, 0):
                continue
            br = make_bernoulli(p, q)
            b = br.univariate
            ok = ok and shift1(b) - b == rhs_poly(p, q)
            ok = ok and b.substitute(0, -x) == -b
            if p == 0:
                ok = ok and br.homogenized.is_zero()
            else:
                ok = ok and br.homogenized.is_homogeneous(p + 2 * q)
    third = Fraction(1, 3)
    pinned = {
        (1, 0): uni(0, 1),
        (2, 0): uni(0, 1),
        (3, 0): uni(0, 2 * third, 0, third),
        (-1, 1): uni(0, -1),
        (1, 1): uni(0, third, 0, -third),
    }
    for (p, q), expected in pinned.items():
        ok = ok and make_bernoulli(p, q).univariate == expected
    _record(4, "bernoulli functional equation suite", ok, time.perf_counter() - t0, 1.0)


def test_criterion_5_lemma_identities():
    t0 = time.perf_counter()
    ok = all(lemma_identity_checks(ell).all_ok for ell in (2, 3, 4))
    _record(5, "lemma identity suite ranks 2..4", ok, time.perf_counter() - t0, 30.0)


def test_criterion_6_oracle_dimensions():
    t0 = time.perf_counter()
    ok = True
    for ell in (2, 3):
        h = 2 * ell - 2
        for d in sorted({0, 1, h - 1, h, h + 1}):
            ok = ok and derivation_dim(ell, d) == expected_dim(ell, d)
        ok = ok and derivation_dim(ell, 1) == 1
        # the h-exponents first contribute at degree h: a jump of ell
        ok = ok and expected_dim(ell, h) == comb(h - 1 + ell, ell) + ell
        if h - 1 >= 1:
            ok = ok and expected_dim(ell, h - 1) == comb(h - 2 + ell, ell)
    _record(6, "oracle graded dimensions", ok, time.perf_counter() - t0, 120.0)


def test_criterion_7_finite_field_counts():
    t0 = time.perf_counter()
    ok = True
    for ell, q in [(2, 5), (2, 7), (2, 11), (3, 7), (3, 11)]:
        h = 2 * ell - 2
        ok = ok and charpoly_count(ell, q) == (q - 1) * (q - h) ** ell
    ok = ok and charpoly_count(3, 7) == 162
    _record(7, "finite-field point counts", ok, time.perf_counter() - t0, 60.0)


def test_criterion_8_rank7_certify():
    t0 = time.perf_counter()
    ell = 7
    rep = saito_verify(ell, method="certify")
    memberships = [v for row in rep.membership.values() for v in row.values()]
    ok = rep.saito_ok
    ok = ok and rep.det_constant == Fraction(1, double_factorial(2 * ell - 3))
    ok = ok and len(memberships) == (ell + 1) * (2 * ell * (ell - 1) + 1) and all(memberships)
    _record(8, "saito_verify rank 7 (certify)", ok, time.perf_counter() - t0, 30.0)


def test_criterion_9_rank4_oracles():
    t0 = time.perf_counter()
    ell, h = 4, 6
    ok = all(derivation_dim(ell, d) == expected_dim(ell, d) for d in (0, 1, h - 1, h, h + 1))
    for ell, q in [(4, 11), (4, 13), (5, 11), (5, 13), (6, 13)]:
        ok = ok and charpoly_count(ell, q) == expected_count(ell, q)
    _record(9, "oracles at rank 4, point counts at ranks 4..6", ok, time.perf_counter() - t0, 60.0)


def test_criterion_10_rank8_certify():
    t0 = time.perf_counter()
    ell = 8
    rep = saito_verify(ell, method="certify")
    memberships = [v for row in rep.membership.values() for v in row.values()]
    ok = rep.saito_ok
    ok = ok and rep.det_constant == Fraction(1, double_factorial(2 * ell - 3))
    ok = ok and len(memberships) == (ell + 1) * (2 * ell * (ell - 1) + 1) and all(memberships)
    _record(10, "saito_verify rank 8 (certify)", ok, time.perf_counter() - t0, 45.0)


def test_criterion_11_rank4_bareiss(monkeypatch, tmp_path):
    t0 = time.perf_counter()
    # the CLI's own bareiss_det call, recorded so that it runs once
    calls = []

    def recorded(matrix):
        calls.append((matrix, bareiss_det(matrix)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "bareiss_det", recorded)
    outputs = []
    for algorithm in ("minors", "bareiss"):
        path = tmp_path / f"det-{algorithm}.json"
        args = ["det", "--ell", "4", "--algorithm", algorithm, "--format", "json"]
        status = cli.main(args + ["--out", str(path)])
        outputs.append((status, path.read_bytes()))
    (matrix, det), = calls
    ok = outputs[0] == outputs[1] and outputs[0][0] == 0
    ok = ok and det == minor_expansion_det(matrix)
    _record(11, "rank-4 bareiss_det equals minor expansion", ok, time.perf_counter() - t0, 30.0)


def test_criterion_12_point_counts_at_ranks_7_and_8():
    t0 = time.perf_counter()
    # the smallest admissible prime, q > 2l - 1, at each rank
    ok = all(charpoly_count(ell, 17) == expected_count(ell, 17) for ell in (7, 8))
    _record(12, "point counts at ranks 7 and 8", ok, time.perf_counter() - t0, 20.0)
