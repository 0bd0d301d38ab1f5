from fractions import Fraction

import pytest

from shidcone.bernoulli import (
    antisymmetrize,
    discrete_antiderivative,
    make_bernoulli,
    rhs_poly,
)
from shidcone.exactpoly import Poly

X = Poly.variable(1, 0)


def uni(*coeffs) -> Poly:
    """The polynomial in x with the given coefficients, lowest degree first."""
    return Poly.from_terms(1, {(e,): c for e, c in enumerate(coeffs)})


def shift_by_one(p: Poly) -> Poly:
    """p(x + 1), via binomial expansion."""
    out = Poly.zero(1)
    for (e,), c in p.terms():
        out = out + (X + 1) ** e * c
    return out


def test_rhs_poly_pinned():
    assert rhs_poly(1, 0) == uni(1)
    assert rhs_poly(3, 0) == uni(1, 1, 1)
    assert rhs_poly(1, 1) == uni(0, -1, -1)


@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_rhs_poly_times_the_divisor(q):
    # (x+1) - (-x) = 2x + 1 times the quotient gives back the difference
    xp1, mx = X + 1, -X
    for p in range(41):
        expected = (xp1**p - mx**p) * xp1**q * mx**q
        assert rhs_poly(p, q) * uni(1, 2) == expected, p


def test_rhs_poly_p_zero():
    assert rhs_poly(0, 2).is_zero()


def test_rhs_poly_negative_p_pole_cancels():
    # (-1)^q x^(q-1) (x+1)^(q-1)
    assert rhs_poly(-1, 1) == uni(-1)
    assert rhs_poly(-1, 2) == uni(0, 1, 1)


def test_rhs_poly_invalid():
    with pytest.raises(ValueError):
        rhs_poly(-1, 0)
    with pytest.raises(ValueError):
        rhs_poly(-2, 0)


def test_discrete_antiderivative_constant():
    assert discrete_antiderivative(uni(1)) == uni(0, 1)


def test_discrete_antiderivative_quadratic():
    p = discrete_antiderivative(uni(1, 1, 1))
    assert p == uni(0, Fraction(2, 3), 0, Fraction(1, 3))
    assert shift_by_one(p) - p == uni(1, 1, 1)


def test_discrete_antiderivative_zero():
    assert discrete_antiderivative(Poly.zero(1)).is_zero()


def test_antisymmetrize_identity_on_odd():
    assert antisymmetrize(X) == X
    b30 = uni(0, Fraction(2, 3), 0, Fraction(1, 3))
    assert antisymmetrize(b30) == b30


def test_antisymmetrize_rejects_invalid():
    with pytest.raises(ValueError):
        antisymmetrize(uni(0, 1, 1))  # x^2 + x: F(x) = 2x^2


def test_make_bernoulli_negative_one_zero_flag():
    br = make_bernoulli(-1, 0)
    assert br.is_negative_one_zero
    assert br.univariate is None and br.homogenized is None


def test_make_bernoulli_zero_for_p_zero():
    for q in range(5):
        br = make_bernoulli(0, q)
        assert br.univariate.is_zero()
        assert br.homogenized.is_zero()


def test_make_bernoulli_pinned_values():
    assert make_bernoulli(1, 0).univariate == uni(0, 1)
    b20 = make_bernoulli(2, 0)
    assert b20.univariate == uni(0, 1)
    assert b20.homogenized.render(["x", "z"]) == "x*z"
    assert make_bernoulli(-1, 1).univariate == uni(0, -1)
    b30 = make_bernoulli(3, 0)
    assert b30.univariate == uni(0, Fraction(2, 3), 0, Fraction(1, 3))
    b11 = make_bernoulli(1, 1)
    assert b11.univariate == uni(0, Fraction(1, 3), 0, Fraction(-1, 3))
    assert b11.homogenized.render(["x", "z"]) == "-1/3*x^3 + 1/3*x*z^2"


def test_make_bernoulli_invalid_args():
    with pytest.raises(ValueError):
        make_bernoulli(-2, 0)
    with pytest.raises(ValueError):
        make_bernoulli(1, -1)


@pytest.mark.parametrize("p", range(-1, 10))
@pytest.mark.parametrize("q", range(0, 5))
def test_functional_equation_and_oddness(p, q):
    if (p, q) == (-1, 0):
        return
    br = make_bernoulli(p, q)
    b = br.univariate
    assert shift_by_one(b) - b == rhs_poly(p, q)
    assert b.substitute(0, -X) == -b
    # homogenization: homogeneous of degree p + 2q, or zero when p = 0
    if p == 0:
        assert br.homogenized.is_zero()
    else:
        assert br.homogenized.is_homogeneous(p + 2 * q)


@pytest.mark.parametrize("p", [1, 3, 5, 7, 9])
def test_leading_coefficient_odd_p(p):
    b = make_bernoulli(p, 0).univariate
    assert b.total_degree() == p
    assert b.leading_coefficient() == Fraction(1, p)


def test_memoized_and_idempotent():
    a = make_bernoulli(3, 2)
    b = make_bernoulli(3, 2)
    assert a is b
    assert antisymmetrize(a.univariate) == a.univariate


def test_univariate_render():
    assert uni(0, Fraction(2, 3), 0, Fraction(1, 3)).render(["x"]) == "1/3*x^3 + 2/3*x"
    assert Poly.zero(1).render(["x"]) == "0"
    assert uni(0, -1).render(["x"]) == "-x"
