import dataclasses
import math
from fractions import Fraction

import pytest

from shidcone import detkernel, verify
from shidcone.arrangement import Arrangement, LinearForm, shi_d_cone
from shidcone.exactpoly import ExponentOverflowError, Poly, divides, exact_div
from shidcone.shi_basis import Derivation, apply, basis
from shidcone.verify import (
    _NO_DET,
    VerificationReport,
    _column_reduced_int_matrix,
    _det_certify,
    _det_expand,
    bareiss_det,
    check_membership,
    coefficient_matrix,
    double_factorial,
    lemma_identity_checks,
    minor_expansion_det,
    saito_verify,
)


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(3) == 3
    assert double_factorial(5) == 15
    assert double_factorial(9) == 945


def test_check_membership_euler(cached_basis):
    arr = shi_d_cone(3)
    euler = cached_basis(3)[0]
    assert all(check_membership(euler, arr).values())


def test_check_membership_phi2_form(cached_basis):
    arr = shi_d_cone(2)
    phi2 = cached_basis(2)[2]
    table = check_membership(phi2, arr)
    assert table["x1 - x2 - z"] is True
    # and the underlying identity
    n = 3
    x1, x2, z = (Poly.variable(n, i) for i in range(n))
    assert apply(phi2, x1 - x2 - z) == -(x1 - x2) * (x1 - x2 - z)


def test_check_membership_z_form(cached_basis):
    arr = shi_d_cone(2)
    phi1 = cached_basis(2)[1]
    assert check_membership(phi1, arr)["z"] is True


def test_membership_all_true_small_ranks(cached_basis):
    for ell in (2, 3):
        arr = shi_d_cone(ell)
        for d in cached_basis(ell):
            assert all(check_membership(d, arr).values())


def _with_phi(derivs, j, coeff_x):
    """derivs with phi_j's x-coefficients replaced."""
    phi = derivs[j]
    out = list(derivs)
    out[j] = Derivation(phi.ell, phi.name, tuple(coeff_x), phi.coeff_z)
    return out


def _membership_mutants(derivs):
    """Three broken bases: one phi coefficient perturbed, the prefactor
    (x_1 - x_2 - z) dropped from phi_1, and phi_1, phi_2 swapping their
    x_1 coefficients."""
    ell = derivs[0].ell
    n = ell + 1
    x = [Poly.variable(n, i) for i in range(n)]
    phi1, phi2 = derivs[1], derivs[2]
    perturbed = list(phi1.coeff_x)
    perturbed[0] = perturbed[0] + Fraction(1, 7) * x[-1] ** (2 * ell - 2)
    prefactor = x[0] - x[1] - x[-1]
    dropped = [exact_div(c, prefactor) for c in phi1.coeff_x]
    swapped1 = (phi2.coeff_x[0],) + phi1.coeff_x[1:]
    swapped2 = (phi1.coeff_x[0],) + phi2.coeff_x[1:]
    return {
        "perturbed": _with_phi(derivs, 1, perturbed),
        "prefactor dropped": _with_phi(derivs, 1, dropped),
        "swapped": _with_phi(_with_phi(derivs, 1, swapped1), 2, swapped2),
    }


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_membership_matches_apply_then_divide(cached_basis, ell):
    # the integer membership check answers as divides(alpha, theta(alpha))
    arr = shi_d_cone(ell)
    derivs = cached_basis(ell)
    cases = {"basis": derivs, **_membership_mutants(derivs)}
    for label, ds in cases.items():
        verdicts = []
        for d in ds:
            got = check_membership(d, arr)
            expected = {f.text(): divides(f.poly(), apply(d, f.poly())) for f in arr.forms}
            assert got == expected, (label, d.name)
            verdicts.extend(got.values())
        if label == "basis":
            assert all(verdicts)
        else:
            assert not all(verdicts), label


# the kernel polynomial classes check_membership can sum on here
_IMPLS = [detkernel.DictPoly] + ([detkernel.IntPoly] if detkernel.HAS_FAST_KERNEL else [])


def _verdicts_on(monkeypatch, impl, derivs, arr):
    """check_membership of each derivation, its sums on ``impl``."""
    monkeypatch.setattr(verify, "get_impl", lambda: impl)
    return [check_membership(d, arr) for d in derivs]


@pytest.mark.skipif(not detkernel.HAS_FAST_KERNEL, reason="compiled kernel only")
@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
def test_membership_verdicts_agree_on_both_backends(monkeypatch, cached_basis, ell):
    arr = shi_d_cone(ell)
    derivs = cached_basis(ell)
    for label, ds in {"basis": derivs, **_membership_mutants(derivs)}.items():
        fast = _verdicts_on(monkeypatch, detkernel.IntPoly, ds, arr)
        assert fast == _verdicts_on(monkeypatch, detkernel.DictPoly, ds, arr), label
        assert all(all(row.values()) for row in fast) == (label == "basis")


def test_membership_matches_apply_then_divide_on_other_forms(monkeypatch):
    # forms the Shi cone never uses: z, and two with leads 3 and 2 (one of
    # them led by x2), so the restriction runs scaled by a non-unit lead,
    # and the coefficients 3, 2 and 6 are folded into the kernel's tables
    n = 4
    forms = (
        LinearForm((0, 0, 0, 1)),
        LinearForm((0, 3, 2, -3)),
        LinearForm((2, -1, 0, -6)),
    )
    arr = Arrangement(ell=3, forms=forms)
    x = [Poly.variable(n, i) for i in range(n)]
    q = x[0] * x[1] ** 2 * Fraction(1, 5) - x[2] ** 3
    for f in forms:
        q = q * f.poly()
    passing = Derivation(3, "q", (q, q * x[1], q * Fraction(-7, 2)), q * x[3])
    failing = Derivation(3, "f", (x[0] ** 2, x[1] * x[3], x[2] ** 2 * Fraction(1, 3)), x[0] * x[1])
    # the Euler field maps each form to itself, though no form divides any
    # of its coefficients: it passes only with each coefficient's own scale
    euler = Derivation(3, "E", tuple(x[:3]), x[3])
    derivs = (passing, failing, euler)
    for impl in _IMPLS:
        got = _verdicts_on(monkeypatch, impl, derivs, arr)
        for d, row in zip(derivs, got):
            assert row == {f.text(): divides(f.poly(), apply(d, f.poly())) for f in forms}, impl
        assert all(got[0].values()) and all(got[2].values())
        assert not any(got[1].values())


def test_membership_raises_on_a_degree_past_the_exponent_field():
    # x1^200 x2^100 restricted to x1 + x2 = 0 would give x2^300, which
    # would carry out of its 8-bit field: an error, never a verdict
    x1, x2, z = (Poly.variable(3, i) for i in range(3))
    big = Derivation(2, "big", (x1**200 * x2**100, Poly.zero(3)), Poly.zero(3))
    with pytest.raises(ExponentOverflowError, match="total degree 300"):
        check_membership(big, shi_d_cone(2))


def test_membership_past_the_kernel_range_is_checked_on_dict_poly(monkeypatch, cached_basis):
    # scaled by 2^130, the cleared coefficients leave the compiled kernel's
    # 128-bit range; the verdicts must still be DictPoly's
    arr = shi_d_cone(3)
    derivs = cached_basis(3)
    big = 1 << 130
    passing = Derivation(3, "big", tuple(c * big for c in derivs[1].coeff_x), derivs[1].coeff_z)
    failing = _membership_mutants(derivs)["perturbed"][1]
    failing = Derivation(3, "bad", tuple(c * big for c in failing.coeff_x), failing.coeff_z)
    got = [check_membership(d, arr) for d in (passing, failing)]
    assert got == _verdicts_on(monkeypatch, detkernel.DictPoly, [passing, failing], arr)
    assert all(got[0].values()) and not all(got[1].values())


@pytest.mark.skipif(not detkernel.HAS_FAST_KERNEL, reason="compiled kernel only")
def test_membership_sums_on_the_compiled_kernel(monkeypatch, cached_basis):
    def refuse(*args):
        raise AssertionError("DictPoly.fma called")

    derivs = cached_basis(5)
    monkeypatch.setattr(detkernel.DictPoly, "fma", refuse)
    arr = shi_d_cone(5)
    assert all(all(check_membership(d, arr).values()) for d in derivs)


def _membership_work(arr, derivs):
    """For each derivation, its cleared columns and the number of (form,
    column) pairs with a nonzero form coefficient and a nonzero column."""
    from shidcone.exactpoly import clear_denominators

    out = []
    for d in derivs:
        columns, _ = clear_denominators(d.coefficients())
        pairs = sum(1 for f in arr.forms for a, c in zip(f.coeffs, columns) if a and c)
        out.append((columns, pairs))
    return out


@pytest.mark.skipif(not detkernel.HAS_FAST_KERNEL, reason="compiled kernel only")
def test_membership_loads_each_column_once_and_pairs_by_field(monkeypatch, cached_basis):
    # on the compiled kernel one membership loads each nonzero column once,
    # no part of one, and makes one field-paired fma per form coefficient
    # and nonzero column; its tables are loaded once per process, before
    arr = shi_d_cone(5)
    derivs = cached_basis(5)
    impl = detkernel.IntPoly
    monkeypatch.setattr(verify, "get_impl", lambda: impl)
    for d in derivs:
        check_membership(d, arr)
    loads, fields = [], []
    from_dict, fma = impl.from_dict, impl.fma

    def load(d):
        loads.append(d)
        return from_dict(d)

    def counted(self, a, b, sign, *, field=None):
        fields.append(field)
        fma(self, a, b, sign, field=field)

    monkeypatch.setattr(impl, "from_dict", staticmethod(load))
    monkeypatch.setattr(impl, "fma", counted)
    for d, (columns, pairs) in zip(derivs, _membership_work(arr, derivs)):
        loads.clear()
        fields.clear()
        assert all(check_membership(d, arr).values())
        # one empty accumulator per form, and each nonzero column once
        assert sorted(sorted(t.items()) for t in loads if t) == sorted(
            sorted(c.items()) for c in columns if c
        )
        assert len(loads) == len(arr.forms) + sum(1 for c in columns if c)
        assert len(fields) == pairs and None not in fields


def test_membership_splits_each_column_once_a_lead_on_dict_poly(monkeypatch, cached_basis):
    arr = shi_d_cone(5)
    derivs = cached_basis(5)
    monkeypatch.setattr(verify, "get_impl", lambda: detkernel.DictPoly)
    for d in derivs:
        check_membership(d, arr)
    leads = len({next(i for i, a in enumerate(f.coeffs) if a) for f in arr.forms})
    splits = []
    split = detkernel.split_by_field

    def counted(terms, field):
        splits.append((terms, field))
        return split(terms, field)

    monkeypatch.setattr(detkernel, "split_by_field", counted)
    for d, (columns, _) in zip(derivs, _membership_work(arr, derivs)):
        splits.clear()
        assert all(check_membership(d, arr).values())
        # only columns are split (the tables keep theirs), each once a field
        split_columns = [(columns.index(t), field) for t, field in splits]
        assert len(set(split_columns)) == len(split_columns)
        assert len(split_columns) <= leads * sum(1 for c in columns if c)


def test_basis_and_membership_divide_nothing(monkeypatch):
    # phi coefficients are summed over the integers and membership restricts;
    # neither reaches the polynomial division loop
    from shidcone import exactpoly

    def refuse(*args, **kwargs):
        raise AssertionError("division called")

    monkeypatch.setattr(exactpoly, "_divide", refuse)
    derivs = basis(4)
    arr = shi_d_cone(4)
    assert all(all(check_membership(d, arr).values()) for d in derivs)


def test_coefficient_matrix_layout(cached_basis):
    derivs = cached_basis(2)
    m = coefficient_matrix(derivs)
    n = 3
    x1, x2, z = (Poly.variable(n, i) for i in range(n))
    # row z = (z, 0, ..., 0)
    assert m[2][0] == z
    assert m[2][1].is_zero() and m[2][2].is_zero()
    # column theta_E = (x1, x2, z)
    assert [m[r][0] for r in range(3)] == [x1, x2, z]
    # entry (x1, phi_2)
    assert m[0][2] == 2 * x1 * x2 - x2 * z


def test_bareiss_identity():
    n = 3
    ident = [
        [Poly.one(n) if i == j else Poly.zero(n) for j in range(3)]
        for i in range(3)
    ]
    assert bareiss_det(ident) == Poly.one(n)


def test_bareiss_diagonal():
    n = 3
    x1, x2 = Poly.variable(n, 0), Poly.variable(n, 1)
    m = [[x1, Poly.zero(n)], [Poly.zero(n), x2]]
    assert bareiss_det(m) == x1 * x2


def test_bareiss_row_swap_and_sign():
    n = 3
    x1, x2 = Poly.variable(n, 0), Poly.variable(n, 1)
    m = [[Poly.zero(n), x1], [x2, Poly.zero(n)]]
    assert bareiss_det(m) == -x1 * x2


def test_bareiss_singular():
    n = 3
    x1 = Poly.variable(n, 0)
    m = [[x1, x1], [x1, x1]]
    assert bareiss_det(m).is_zero()


def test_bareiss_golden_ell2(cached_basis):
    derivs = cached_basis(2)
    m = [[phi.coeff_x[i] for phi in derivs[1:]] for i in range(2)]
    n = 3
    x1, x2, z = (Poly.variable(n, i) for i in range(n))
    expected = (x1 - x2 - z) * (x1 - x2) * (x1 + x2) * (x1 + x2 - z)
    assert bareiss_det(m) == expected
    assert minor_expansion_det(m) == expected


@pytest.mark.parametrize("det", [bareiss_det, minor_expansion_det])
def test_determinants_reject_a_non_square_matrix(det):
    x1, z = Poly.variable(2, 0), Poly.variable(2, 1)
    for matrix in ([[x1, z], [z]], [[x1, z], [z, x1, z]]):
        with pytest.raises(ValueError, match="matrix must be square"):
            det(matrix)


def test_full_det_is_z_times_phi_det(cached_basis):
    for ell in (2, 3):
        derivs = cached_basis(ell)
        n = ell + 1
        full = bareiss_det(coefficient_matrix(derivs))
        small = bareiss_det(
            [[phi.coeff_x[i] for phi in derivs[1:]] for i in range(ell)]
        )
        z = Poly.variable(n, n - 1)
        assert full == Fraction(-1) ** ell * z * small


def test_det_divisible_by_each_form_once(cached_basis):
    for ell in (2, 3):
        derivs = cached_basis(ell)
        det = minor_expansion_det(
            [[phi.coeff_x[i] for phi in derivs[1:]] for i in range(ell)]
        )
        arr = shi_d_cone(ell)
        assert det.is_homogeneous(2 * ell * (ell - 1))
        for form in arr.forms[1:]:
            fp = form.poly()
            q = exact_div(det, fp)
            assert not divides(fp, q)


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_saito_verify_expand(ell):
    report = saito_verify(ell, method="expand")
    assert report.saito_ok
    assert report.membership_ok and report.degrees_ok and report.initials_ok
    assert report.det_constant == Fraction(1, double_factorial(2 * ell - 3))
    expected_init = tuple(
        [4 * (ell - i) for i in range(1, ell)] + [0, 0]
    )
    assert report.det_initial == expected_init
    assert report.det_leading_coefficient == report.det_constant


_BACKENDS = [
    False,
    pytest.param(
        True,
        marks=pytest.mark.skipif(not detkernel.HAS_FAST_KERNEL, reason="compiled kernel only"),
    ),
]


@pytest.mark.parametrize("fast", _BACKENDS)
@pytest.mark.parametrize("ell", [2, 3, 4])
def test_expand_head_is_the_row_order_determinant(cached_basis, ell, fast):
    # expand runs the DP over the columns phi_l..phi_1 and folds the sign of
    # that reversal, (-1)^(l(l-1)/2), into the denominator it hands back
    impl = detkernel.get_impl(fast)
    derivs = cached_basis(ell)
    head, den, _, _ = _det_expand(ell, derivs, impl)[3]
    rows, scale_prod, _ = _column_reduced_int_matrix(ell, derivs[1:], impl)
    det, _ = detkernel.det_minor_expansion(rows, impl)
    in_row_order = det.to_dict()
    sign = {2: -1, 3: -1, 4: 1}[ell]
    assert den == sign * scale_prod
    assert head.to_dict() == {k: sign * v for k, v in in_row_order.items()}


@pytest.mark.parametrize("fast", _BACKENDS)
@pytest.mark.parametrize("ell", [2, 3, 4])
def test_expand_runs_the_minor_dp_once(monkeypatch, ell, fast):
    # the reduced determinant is the cofactor that the full determinant's DP
    # hands back, so no minor is expanded twice
    calls = []
    dp = verify.det_minor_expansion

    def counted(rows, impl):
        calls.append(impl)
        return dp(rows, impl)

    monkeypatch.setattr(verify, "det_minor_expansion", counted)
    monkeypatch.setattr(detkernel, "HAS_FAST_KERNEL", fast)
    assert saito_verify(ell, method="expand").saito_ok
    assert calls == [detkernel.get_impl(fast)]


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_saito_verify_certify_agrees(ell):
    expand = saito_verify(ell, method="expand")
    certify = saito_verify(ell, method="certify")
    assert certify.saito_ok
    assert certify.det_constant == expand.det_constant
    assert certify.det_initial == expand.det_initial
    assert certify.det_leading_coefficient == expand.det_leading_coefficient
    assert certify.full_det_consistent and expand.full_det_consistent


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
def test_certify_det_initial_from_forms(cached_basis, ell):
    # in(det) is the sum of the forms' initial monomials: each normalized
    # form's initial variable is its first nonzero coefficient
    expected = [0] * (ell + 1)
    for form in shi_d_cone(ell).forms[1:]:
        expected[next(i for i, c in enumerate(form.coeffs) if c)] += 1
    report = saito_verify(ell, method="certify", derivs=cached_basis(ell))
    assert report.det_initial == tuple(expected)
    assert report.det_leading_coefficient == report.det_constant


def test_certify_det_initial_none_on_wrong_constant(cached_basis):
    # 2 * phi_1 still passes membership, but the constant doubles
    doubled = _column_mutants(cached_basis(3))["doubled phi_1"]
    report = saito_verify(3, method="certify", derivs=doubled)
    assert report.membership_ok and not report.det_matches_corollary
    assert report.det_initial is None
    assert report.det_leading_coefficient is None


def test_certify_checks_its_arrangement_premises(cached_basis):
    # the certificate needs pairwise distinct forms and a point off every
    # form; x_i = 2 * t^(i+1) at t = 3 puts (6, 18, 54, 1) on 3*x1 - x2, so
    # the point moves on to t = 4, where the extra form breaks the constant
    forms = shi_d_cone(3).forms
    assert forms[1].text() == "x1 + x2"
    repeated = Arrangement(3, forms + (forms[1],))
    assert _det_certify(3, cached_basis(3), repeated, True, True) == _NO_DET
    through_point = Arrangement(3, forms + (LinearForm((3, -1, 0, 0)),))
    assert _det_certify(3, cached_basis(3), through_point, True, True) == (
        False, True, None, None
    )


def test_certify_chain_multiplies_grouped_forms(monkeypatch):
    # det_phi multiplies out the four forms of each pair s < t first: at
    # rank 4 its chain is 6 fma calls over at most 14,322 term pairs, where
    # one form at a time took 24 calls and 55,108 pairs
    monkeypatch.setattr(detkernel, "HAS_FAST_KERNEL", False)
    report = saito_verify(4, method="certify")
    pairs = []
    fma = detkernel.DictPoly.fma

    def counted(self, a, b, sign):
        pairs.append(a.nnz() * b.nnz())
        fma(self, a, b, sign)

    monkeypatch.setattr(detkernel.DictPoly, "fma", counted)
    assert not report.det_phi.is_zero()
    assert len(pairs) == 6
    assert sum(pairs) <= 14_322


def _z_row_mutants(derivs):
    """Two broken bases that differ only in the z row: phi_1(z) = z^(2l-2)
    and theta_E(z) = 2z."""
    ell = derivs[0].ell
    z = Poly.variable(ell + 1, ell)
    euler, phi1 = derivs[0], derivs[1]
    phi1_z = list(derivs)
    phi1_z[1] = Derivation(ell, phi1.name, phi1.coeff_x, z ** (2 * ell - 2))
    euler_z = list(derivs)
    euler_z[0] = Derivation(ell, euler.name, euler.coeff_x, 2 * z)
    return {"phi_1(z) = z^(2l-2)": phi1_z, "theta_E(z) = 2z": euler_z}


@pytest.mark.parametrize("method", ["expand", "certify"])
@pytest.mark.parametrize("mutant", ["phi_1(z) = z^(2l-2)", "theta_E(z) = 2z"])
def test_full_det_rejects_wrong_z_row(cached_basis, method, mutant):
    derivs = _z_row_mutants(cached_basis(3))[mutant]
    report = saito_verify(3, method=method, derivs=derivs)
    assert not report.full_det_consistent
    assert not report.saito_ok


def _column_mutants(derivs):
    """Broken bases that change whole columns.  Every derivation passes
    membership in the first three, whose determinant is wrong: phi_1 and
    phi_2 exchanged, phi_2 replaced by a copy of phi_1, and phi_1 doubled.
    The last two fail membership: x1^4 added to phi_1(x1), and
    theta_E(x1) = 2 x1."""
    ell = derivs[0].ell
    x1 = Poly.variable(ell + 1, 0)
    euler, phi1 = derivs[0], derivs[1]
    swapped = list(derivs)
    swapped[1], swapped[2] = derivs[2], derivs[1]
    duplicated = list(derivs)
    duplicated[2] = derivs[1]
    euler_x1 = list(derivs)
    euler_x1[0] = Derivation(ell, euler.name, (2 * x1,) + euler.coeff_x[1:], euler.coeff_z)
    return {
        "swapped": swapped,
        "duplicated": duplicated,
        "doubled phi_1": _with_phi(derivs, 1, [2 * c for c in phi1.coeff_x]),
        "phi_1 + x1^4": _with_phi(derivs, 1, (phi1.coeff_x[0] + x1**4,) + phi1.coeff_x[1:]),
        "theta_E(x1) = 2x1": euler_x1,
    }


@pytest.mark.parametrize("method", ["expand", "certify"])
@pytest.mark.parametrize("mutant", ["swapped", "duplicated"])
def test_det_rejects_wrong_columns(cached_basis, method, mutant):
    # (x_j - x_{j+1} - z) does not divide these columns; expand must report
    # that as a failed check, as certify does, not raise
    derivs = _column_mutants(cached_basis(3))[mutant]
    report = saito_verify(3, method=method, derivs=derivs)
    assert report.membership_ok
    assert not report.det_matches_corollary
    assert report.det_constant is None
    assert not report.saito_ok


_THIRD = Fraction(1, 3)
# (det_matches_corollary, full_det_consistent, det_constant, det_initial,
#  det_leading_coefficient, saito_ok) of each broken rank-3 basis.  The
# routes differ on failing input: expand reports in(det) and lc(det)
# whenever the forms (x_j - x_{j+1} - z) divide its columns, certify only
# once the constant matches; and certify judges the full determinant only
# where its own premises hold.
_FAILING_DET_FIELDS = {
    ("expand", "phi_1(z) = z^(2l-2)"): (True, False, _THIRD, (8, 4, 0, 0), _THIRD, False),
    ("expand", "theta_E(z) = 2z"): (True, False, _THIRD, (8, 4, 0, 0), _THIRD, False),
    ("expand", "swapped"): (False, False, None, None, None, False),
    ("expand", "duplicated"): (False, False, None, None, None, False),
    ("expand", "doubled phi_1"): (False, True, None, (8, 4, 0, 0), 2 * _THIRD, False),
    ("expand", "phi_1 + x1^4"): (False, False, None, None, None, False),
    ("expand", "theta_E(x1) = 2x1"): (True, True, _THIRD, (8, 4, 0, 0), _THIRD, False),
    ("certify", "phi_1(z) = z^(2l-2)"): (False, False, None, None, None, False),
    ("certify", "theta_E(z) = 2z"): (False, False, None, None, None, False),
    ("certify", "swapped"): (False, True, None, None, None, False),
    ("certify", "duplicated"): (False, False, None, None, None, False),
    ("certify", "doubled phi_1"): (False, True, None, None, None, False),
    ("certify", "phi_1 + x1^4"): (False, False, None, None, None, False),
    ("certify", "theta_E(x1) = 2x1"): (False, False, None, None, None, False),
}


def _failing_det_fields(cached_basis, method, mutant):
    derivs = cached_basis(3)
    derivs = {**_z_row_mutants(derivs), **_column_mutants(derivs)}[mutant]
    r = saito_verify(3, method=method, derivs=derivs)
    got = (
        r.det_matches_corollary,
        r.full_det_consistent,
        r.det_constant,
        r.det_initial,
        r.det_leading_coefficient,
        r.saito_ok,
    )
    assert got == _FAILING_DET_FIELDS[(method, mutant)]


@pytest.mark.parametrize("method,mutant", list(_FAILING_DET_FIELDS))
def test_failing_det_fields_are_pinned(cached_basis, method, mutant):
    _failing_det_fields(cached_basis, method, mutant)


@pytest.mark.parametrize("method,mutant", list(_FAILING_DET_FIELDS))
def test_failing_det_fields_are_pinned_on_the_pure_python_kernel(
    monkeypatch, cached_basis, method, mutant
):
    # expand compares tables by an fma that must cancel, and the backends
    # cancel differently: DictPoly deletes cancelled keys, where IntPoly
    # keeps the slot and counts it out of nnz
    monkeypatch.setattr(detkernel, "HAS_FAST_KERNEL", False)
    _failing_det_fields(cached_basis, method, mutant)


@pytest.mark.parametrize("method", ["expand", "certify"])
def test_membership_failure_cannot_hide_behind_a_namesake(cached_basis, method):
    # phi_1 gains x1^4 in its first coefficient, then phi_2 is renamed
    # "phi_1": the report keeps one row per name, the verdict covers both
    derivs = cached_basis(3)
    phi1, phi2 = derivs[1], derivs[2]
    bad = _column_mutants(derivs)["phi_1 + x1^4"]
    bad[2] = Derivation(phi2.ell, phi1.name, phi2.coeff_x, phi2.coeff_z)
    assert not all(check_membership(bad[1], shi_d_cone(3)).values())
    report = saito_verify(3, method=method, derivs=bad)
    assert not report.membership_ok
    assert not report.saito_ok


def test_report_copy_keeps_its_determinant():
    # under expand the report holds a kernel polynomial; a copy must not
    # share (and later free) its table
    import copy

    report = saito_verify(3, method="expand")
    clone = copy.deepcopy(report)
    expected = report.det_phi
    del report
    assert clone.det_phi == expected


@pytest.mark.parametrize("method", ["expand", "certify"])
def test_saito_verify_on_the_pure_python_kernel(monkeypatch, method):
    # default.det_phi is read below too, so it must stay on its own backend
    default = saito_verify(3, method=method)
    monkeypatch.setattr(detkernel, "HAS_FAST_KERNEL", False)
    report = saito_verify(3, method=method)
    assert isinstance(report._det_data[0], detkernel.DictPoly)
    assert report.summary_dict() == default.summary_dict()
    assert report.det_phi == default.det_phi


def test_det_phi_property(cached_basis):
    report = saito_verify(2)
    n = 3
    x1, x2, z = (Poly.variable(n, i) for i in range(n))
    expected = (x1 + x2) * (x1 - x2) * (x1 + x2 - z) * (x1 - x2 - z)
    assert report.det_phi == expected
    # certify reconstruction agrees with the expanded determinant
    certify = saito_verify(3, method="certify")
    expand = saito_verify(3, method="expand")
    assert certify.det_phi == expand.det_phi


@pytest.mark.parametrize("fast", _BACKENDS)
def test_det_phi_never_dumps_its_head(monkeypatch, fast):
    # the chain's exponents are checked from the head's field peaks and the
    # product, not the head, hands its terms over, so the reduced
    # determinant is neither copied to a dict nor consumed
    monkeypatch.setattr(detkernel, "HAS_FAST_KERNEL", fast)
    report = saito_verify(3, method="expand")
    head = report._det_data[0]
    dumps = []
    for name in ("to_dict", "take_dict"):
        real = getattr(type(head), name)

        def counted(self, real=real, name=name):
            if self is head:
                dumps.append(name)
            return real(self)

        monkeypatch.setattr(type(head), name, counted)
    first = report.det_phi
    assert report.det_phi == first
    assert dumps == []
    assert len(first) > 100


def test_det_phi_folds_factor_denominators():
    report = saito_verify(2, method="certify")
    head, den, factors, nvars = report._det_data
    halved = [f * Fraction(1, 2) for f in factors]
    scaled = dataclasses.replace(report, _det_data=(head, den, halved, nvars))
    assert scaled.det_phi == report.det_phi * Fraction(1, 2 ** len(factors))


def test_det_equals_scaled_defining_poly(cached_basis, monkeypatch):
    # both routes' det_phi, on the default kernel and then on DictPoly
    for kernel in ("default", "pure Python"):
        if kernel == "pure Python":
            monkeypatch.setattr(detkernel, "HAS_FAST_KERNEL", False)
        for ell in (2, 3, 4):
            arr = shi_d_cone(ell)
            q = math.prod((f.poly() for f in arr.forms), start=Poly.one(arr.nvars))
            z = Poly.variable(ell + 1, ell)
            for method in ("expand", "certify"):
                report = saito_verify(ell, method=method, derivs=cached_basis(ell))
                assert report.det_phi * z == q * report.det_constant, (kernel, ell, method)


def test_saito_verify_validates_input():
    with pytest.raises(ValueError):
        saito_verify(1)
    with pytest.raises(ValueError):
        saito_verify(3, method="nope")


def test_saito_verify_with_supplied_derivations(cached_basis):
    derivs = cached_basis(3)
    report = saito_verify(3, derivs=derivs)
    assert report.saito_ok
    with pytest.raises(ValueError):
        saito_verify(3, derivs=derivs[:2])


def test_verification_report_summary_shape():
    report = saito_verify(2)
    d = report.summary_dict()
    assert d["ell"] == 2
    assert d["saito_ok"] is True
    assert d["det_constant"] == {"num": "1", "den": "1"}
    assert "timing" not in d
    assert "timing" in report.summary_dict(include_timing=True)


# -- lemma identities ------------------------------------------------------------


@pytest.mark.parametrize("ell", [2, 3])
def test_lemma_identities_hold(ell):
    report = lemma_identity_checks(ell)
    assert report.all_ok


def test_lemma_specific_tuples():
    report = lemma_identity_checks(3)
    # subset expansion for J = {x1, x2} (j = 3) at eps = 1
    assert (3, 1, True) in report.subset_expansion
    # (k, k0) = (1, 0): s*s - t*t divisible by s^2 - t^2
    assert ((1, 0), True) in report.odd_reflection_divisibility
    # (k, k0) = (-1, 1) at eps = -1 for the shifted-form divisibility
    assert ((-1, 1), -1, True) in report.shifted_form_divisibility


def test_lemma_parameter_coverage():
    report = lemma_identity_checks(2)
    ks = {pair for pair, _ in report.odd_reflection_divisibility}
    assert (-1, 0) in ks and (1, 0) in ks
    assert report.all_ok
