from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shidcone.exactpoly import Poly
from shidcone.shi_basis import (
    apply,
    basis,
    build_euler,
    build_phi,
    enumerate_k1_k2,
    term_indices,
)


def vars_for(ell):
    n = ell + 1
    return [Poly.variable(n, i) for i in range(n)]


def test_enumerate_k1_k2_empty():
    assert list(enumerate_k1_k2([])) == [((), ())]


def test_enumerate_k1_k2_singleton_order():
    assert list(enumerate_k1_k2([0])) == [((), ()), ((0,), ()), ((), (0,))]


def test_enumerate_k1_k2_cardinality():
    pairs = list(enumerate_k1_k2([0, 1, 2]))
    assert len(pairs) == 27
    assert len(set(pairs)) == 27
    for k1, k2 in pairs:
        assert not set(k1) & set(k2)


def test_term_indices_invariants():
    for ell in (2, 3, 4):
        for j in range(1, ell + 1):
            for t in term_indices(j, ell):
                assert t.k >= -1
                assert t.k0 >= 0
                assert t.k0 == len(t.J) - len(t.K1) - len(t.K2)
                if j < ell:
                    assert t.J == tuple(range(j - 1))
                    assert t.J1 == (j - 1, j)
                    assert t.J2 == tuple(range(j + 1, ell))
                else:
                    assert t.J == tuple(range(ell - 1))


def test_phi1_golden_ell2():
    x1, x2, z = vars_for(2)
    phi1 = build_phi(1, 2)
    pref = (x1 - x2 - z) * (x1 - x2)
    assert phi1.coeff_x[0] == pref
    assert phi1.coeff_x[1] == -pref
    assert phi1.coeff_z.is_zero()


def test_phi2_golden_ell2():
    x1, x2, z = vars_for(2)
    phi2 = build_phi(2, 2)
    assert phi2.coeff_x[0] == 2 * x1 * x2 - x2 * z
    assert phi2.coeff_x[1] == x1**2 + x2**2 - x1 * z
    assert phi2.coeff_z.is_zero()


def test_phi2_sends_x1_plus_x2_to_product_of_forms():
    x1, x2, z = vars_for(2)
    phi2 = build_phi(2, 2)
    assert apply(phi2, x1 + x2) == (x1 + x2) * (x1 + x2 - z)


def test_phi2_applied_to_difference():
    x1, x2, z = vars_for(2)
    phi2 = build_phi(2, 2)
    assert apply(phi2, x1 - x2) == -(x1 - x2) * (x1 - x2 - z)


def test_phi1_annihilates_z():
    _, _, z = vars_for(2)
    phi1 = build_phi(1, 2)
    assert apply(phi1, z).is_zero()


def test_euler():
    derivs = basis(3)
    euler = derivs[0]
    x = vars_for(3)
    assert apply(euler, x[2]) == x[2]  # theta_E(x3) = x3
    assert apply(euler, x[3]) == x[3]  # theta_E(z) = z
    assert apply(euler, x[0] ** 2 * x[3]) == 3 * x[0] ** 2 * x[3]


def test_apply_euler_degree_counts():
    x1, x2, z = vars_for(2)
    euler = build_euler(2)
    assert apply(euler, x1 * x2 * z) == 3 * x1 * x2 * z


def test_basis_shapes():
    derivs = basis(2)
    assert [d.name for d in derivs] == ["euler", "phi_1", "phi_2"]
    degrees = [d.coeff_x[0].total_degree() for d in derivs]
    assert degrees == [1, 2, 2]

    derivs3 = basis(3)
    assert len(derivs3) == 4
    for phi in derivs3[1:]:
        for c in phi.coeff_x:
            assert c.is_homogeneous(4)


def test_basis_invalid_rank():
    with pytest.raises(ValueError):
        basis(1)
    with pytest.raises(ValueError):
        build_phi(3, 2)  # j must be <= ell
    with pytest.raises(ValueError):
        build_phi(0, 3)


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_build_phi_ell_is_last_basis_field(ell, cached_basis):
    assert build_phi(ell, ell) == cached_basis(ell)[-1]


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_homogeneity_and_z_annihilation(ell, cached_basis):
    target = 2 * (ell - 1)
    for phi in cached_basis(ell)[1:]:
        assert phi.coeff_z.is_zero()
        for c in phi.coeff_x:
            assert c  # no identically-zero coefficient occurs here
            assert c.is_homogeneous(target)


def expected_initial(i, ell):
    exps = [0] * (ell + 1)
    for p in range(i - 1):
        exps[p] = 2
    exps[i - 1] = 2 * ell - 2 * i
    return tuple(exps)


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_initial_monomials(ell, cached_basis):
    phis = cached_basis(ell)[1:]
    for i in range(1, ell + 1):
        bound = expected_initial(i, ell)
        for j in range(1, ell + 1):
            entry = phis[j - 1].coeff_x[i - 1]
            init = entry.initial_monomial()
            assert init <= bound
            if i < j:
                assert init < bound
        diag = phis[i - 1].coeff_x[i - 1]
        assert diag.initial_monomial() == bound
        expected_lc = (
            Fraction(1) if i == ell else Fraction(1, 2 * ell - 2 * i - 1)
        )
        assert diag.leading_coefficient() == expected_lc


def test_phi_ell_last_coefficient_initial(cached_basis):
    # in(phi_l(x_l)) = x1^2 ... x_{l-1}^2
    for ell in (2, 3, 4):
        phi_l = cached_basis(ell)[-1]
        init = phi_l.coeff_x[ell - 1].initial_monomial()
        assert init == expected_initial(ell, ell)


def test_determinism():
    a = basis(3)
    b = basis(3)
    for da, db in zip(a, b):
        assert da == db


# -- Leibniz rule property test -------------------------------------------------

N = 3
coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool)
monos = st.tuples(*[st.integers(min_value=0, max_value=3)] * N)
polys = st.dictionaries(monos, coeffs, max_size=4).map(
    lambda d: Poly.from_terms(N, d)
)


@settings(max_examples=40, deadline=None)
@given(polys, polys, st.sampled_from([0, 1, 2]))
def test_leibniz_rule(f, g, which):
    theta = basis(2)[which]
    assert apply(theta, f * g) == f * apply(theta, g) + g * apply(theta, f)
