from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shidcone import detkernel, exactpoly
from shidcone.detkernel import int_dict_to_poly, poly_to_int_dict
from shidcone.shi_basis import basis
from shidcone.exactpoly import (
    FIELD_MASK,
    DivisionNotExactError,
    ExponentOverflowError,
    Poly,
    _pack,
    _unpack,
    clear_denominators,
    divides,
    elementary_symmetric,
    exact_div,
    remap_variables,
)


def division_with_remainder(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Single-divisor division under pure lex: (q, r) with a = q*b + r and
    no monomial of r divisible by in(b), so r == 0 iff b divides a.

    The reference for divides and exact_div, written apart from their loop:
    on exponent tuples (tuple order is pure lex) and Fractions.
    """
    rest = dict(b.terms())
    lead = max(rest)
    lc = rest.pop(lead)
    work = dict(a.terms())
    quo, rem = {}, {}
    while work:
        mono = max(work)
        c = work.pop(mono)
        if any(m < e for m, e in zip(mono, lead)):
            rem[mono] = c
            continue
        step = tuple(m - e for m, e in zip(mono, lead))
        quo[step] = c / lc
        for bm, bc in rest.items():
            nm = tuple(s + e for s, e in zip(step, bm))
            v = work.pop(nm, 0) - quo[step] * bc
            if v:
                work[nm] = v
    return Poly.from_terms(a.nvars, quo), Poly.from_terms(a.nvars, rem)


N = 3  # x1, x2, z
X1 = Poly.variable(N, 0)
X2 = Poly.variable(N, 1)
Z = Poly.variable(N, 2)


def test_add_additive_inverse():
    assert (X1 + (-X1)).is_zero()


def test_add_like_terms():
    assert (X1 + Z) + X1 == 2 * X1 + Z


def test_add_canonicalizes_monomials():
    assert X1 * X2 + X2 * X1 == 2 * X1 * X2


def test_mul_difference_of_squares():
    assert (X1 - X2) * (X1 + X2) == X1**2 - X2**2


def test_mul_identity():
    p = X1**2 + 3 * X2 * Z
    assert Poly.one(N) * p == p


def test_mul_hand_expansion():
    got = (X1 + X2) * (X1 + X2 - Z)
    assert got == X1**2 + 2 * X1 * X2 + X2**2 - X1 * Z - X2 * Z


def test_mul_mismatched_nvars():
    with pytest.raises(ValueError):
        X1 * Poly.variable(4, 0)


def test_exact_div_linear():
    assert exact_div(X1**2 - X2**2, X1 - X2) == X1 + X2


def test_exact_div_shifted_form():
    prod = (X1 + X2) * (X1 + X2 - Z)
    assert exact_div(prod, X1 + X2 - Z) == X1 + X2


def test_exact_div_not_exact_raises():
    with pytest.raises(DivisionNotExactError):
        exact_div(X1**2 - X2**2, X1 + X2 - Z)


def test_divides_true():
    assert divides(X1 + X2, (X1 + X2) * (X1 + X2 - Z))


def test_divides_false():
    a = -(X1 - X2) * (X1 - X2 + Z)
    assert not divides(X1 - X2 - Z, a)


def test_divides_zero_dividend():
    assert divides(Z, Poly.zero(N))


def test_divides_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divides(Poly.zero(N), X1)


# Division runs over the integers with the divisor scaled to a primitive
# integer polynomial; these divisors are non-monic, fractional, or carry an
# integer content.


def test_division_non_monic_divisor():
    b = 3 * X1 - 2 * Z
    # exact: every step coefficient is a multiple of 3
    assert divides(b, b * (X1 + X2))
    assert exact_div(b * (X1 - Z), b) == X1 - Z
    # Gauss's lemma exit: the first step coefficient 1 is not a multiple of 3
    assert not divides(b, X1 * Z)
    with pytest.raises(DivisionNotExactError):
        exact_div(X1 * Z, b)
    # general division still takes the fractional step
    q, r = division_with_remainder(X1**2, b)
    assert q == Fraction(1, 3) * X1 + Fraction(2, 9) * Z
    assert r == Fraction(4, 9) * Z**2
    assert q * b + r == X1**2


def test_division_fractional_divisor():
    b = X1 + Fraction(1, 2) * Z
    assert divides(b, X1**2 - Fraction(1, 4) * Z**2)
    assert exact_div(X1**2 - Fraction(1, 4) * Z**2, b) == X1 - Fraction(1, 2) * Z
    assert not divides(b, X1 * Z)
    # 2*x1 + z is the primitive divisor: x1^2 gives the non-integral step 1/2
    assert not divides(b, X1**2)
    q, r = division_with_remainder(X1**2, b)
    assert q == X1 - Fraction(1, 2) * Z
    assert r == Fraction(1, 4) * Z**2


def test_division_divisor_with_content():
    b = 2 * X1 + 4 * Z
    assert divides(b, X1 + 2 * Z)
    assert exact_div(X1 + 2 * Z, b) == Poly.constant(N, Fraction(1, 2))
    assert exact_div(b * (X2 - Z), b) == X2 - Z
    assert not divides(b, X1 + Z)
    q, r = division_with_remainder(X1 * X2 + Z, b)
    assert q == Fraction(1, 2) * X2
    assert r == Z - 2 * X2 * Z
    assert q * b + r == X1 * X2 + Z


def test_initial_monomial_prefers_x1():
    f = X1**2 + X1 * X2**3 + Z**5
    assert f.initial_monomial() == (2, 0, 0)


def test_initial_monomial_phi2_entry():
    assert (X2 * Z + 2 * X1 * X2).initial_monomial() == (1, 1, 0)


def test_initial_monomial_x2_beats_z():
    assert (X1 * X2 - X1 * Z).initial_monomial() == (1, 1, 0)


def test_initial_monomial_of_zero_raises():
    with pytest.raises(ValueError):
        Poly.zero(N).initial_monomial()


def test_partial_derivative_basic():
    assert (X1**2 * X2).partial_derivative(0) == 2 * X1 * X2
    assert (Z**3).partial_derivative(0).is_zero()
    assert (X1 + X2 - Z).partial_derivative(2) == Poly.constant(N, -1)


def test_partial_derivative_bad_index():
    with pytest.raises(IndexError):
        X1.partial_derivative(3)


def test_elementary_symmetric():
    assert elementary_symmetric(N, [X1, X2], 1) == X1 + X2
    assert elementary_symmetric(N, [X1, X2], 2) == X1 * X2
    assert elementary_symmetric(N, [], 0) == Poly.one(N)
    assert elementary_symmetric(N, [X1, X2], 3).is_zero()
    assert elementary_symmetric(N, [X1, X2], -1).is_zero()


def test_tau_via_squares():
    n = 5  # x1..x4, z
    x3 = Poly.variable(n, 2)
    x4 = Poly.variable(n, 3)
    tau2 = elementary_symmetric(n, [x3**2, x4**2], 1)
    assert tau2 == x3**2 + x4**2


def test_substitute():
    assert (X1**2 - X2**2).substitute(0, X2).is_zero()
    assert (X1 + X2 - Z).substitute(0, Z - X2).is_zero()
    assert (X1**2).substitute(0, X2 + Z) == X2**2 + 2 * X2 * Z + Z**2


def test_substitute_sparse_exponents():
    f = X1**5 + X1**2 * X2 + 7
    g = X2 - Z
    expected = g**5 + g**2 * X2 + 7
    assert f.substitute(0, g) == expected


def test_render_canonical():
    f = Fraction(1, 3) * X1**3 + Fraction(2, 3) * X1
    assert f.render() == "1/3*x1^3 + 2/3*x1"
    assert (X1 - X2).render() == "x1 - x2"
    assert Poly.zero(N).render() == "0"
    assert Poly.constant(N, Fraction(-5, 2)).render() == "-5/2"
    assert (X1 * X2**2 * Z).render() == "x1*x2^2*z"


def test_float_rejection():
    with pytest.raises(TypeError):
        Poly.constant(N, 0.5)
    with pytest.raises(TypeError):
        Poly.from_terms(N, {(1, 0, 0): 1.25})


def test_remap_variables():
    wide = remap_variables(X1 * X2, 5, (0, 4, 2))
    x1w = Poly.variable(5, 0)
    x5w = Poly.variable(5, 4)
    assert wide == x1w * x5w
    with pytest.raises(ValueError):
        remap_variables(X1, 5, (0, 0, 1))  # not injective
    with pytest.raises(ValueError):
        remap_variables(X1, 5, (0, 1))  # wrong length


def test_terms_descending_lex():
    f = Z**2 + X1 + X2**3
    monos = [m for m, _ in f.terms()]
    assert monos == sorted(monos, reverse=True)
    assert monos[0] == (1, 0, 0)


# -- packed keys and their overflow guards -------------------------------------


def test_pack_accepts_the_field_range_only():
    assert FIELD_MASK == 255
    assert _unpack(_pack((255, 0, 255)), 3) == (255, 0, 255)
    for e in (256, -1):
        with pytest.raises(ExponentOverflowError):
            _pack((0, e, 0))


def test_key_packing_round_trip():
    for exps in [(0, 0, 0), (1, 2, 3), (20, 0, 30), (255, 255, 255)]:
        assert _unpack(_pack(exps), len(exps)) == exps


def test_packed_keys_preserve_lex_order():
    monos = [(2, 0, 0), (1, 3, 0), (1, 2, 5), (1, 0, 255), (0, 255, 255), (0, 9, 9), (0, 0, 1)]
    keys = [_pack(m) for m in monos]
    assert sorted(keys, reverse=True) == keys


def test_mul_guard_is_per_variable():
    x1, z = Poly.variable(2, 0), Poly.variable(2, 1)
    # total degree 300, but no single exponent passes 255
    assert (x1**200 * z**100).initial_monomial() == (200, 100)
    assert x1**200 * x1**55 == Poly.from_terms(2, {(255, 0): 1})
    with pytest.raises(ExponentOverflowError):
        x1**200 * x1**56
    assert len((x1**200 + z**200) * (x1**55 + z**55)) == 4
    with pytest.raises(ExponentOverflowError):
        (x1**200 + z) * (z + x1**56)


def test_division_guard_catches_a_growing_smaller_variable():
    # under lex, x1^k reduces by x1 - z^2 to the remainder z^(2k)
    x1, z = Poly.variable(2, 0), Poly.variable(2, 1)
    assert division_with_remainder(x1**127, x1 - z**2)[1] == z**254
    with pytest.raises(ExponentOverflowError):
        division_with_remainder(x1**128, x1 - z**2)
    with pytest.raises(ExponentOverflowError):
        divides(x1 - z**2, x1**128)
    with pytest.raises(ExponentOverflowError):
        exact_div(x1**128, x1 - z**2)


# -- property tests ------------------------------------------------------------

coeffs = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
).filter(lambda c: c != 0)
monos = st.tuples(*[st.integers(min_value=0, max_value=4)] * N)
polys = st.dictionaries(monos, coeffs, max_size=5).map(
    lambda d: Poly.from_terms(N, d)
)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_mul_div_roundtrip(a, b):
    assert exact_div(a * b, b) == a


@settings(max_examples=60, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_initial_monomial_multiplicative(a, b):
    prod_init = (a * b).initial_monomial()
    combined = tuple(
        x + y for x, y in zip(a.initial_monomial(), b.initial_monomial())
    )
    assert prod_init == combined


@settings(max_examples=60, deadline=None)
@given(
    polys,
    st.sampled_from([1, -1]),
    st.sampled_from([0, 1]),
)
def test_divides_agrees_with_substitution(a, eps, shift):
    # linear form b = x1 + eps*x2 - shift*z; its zero is x1 = -eps*x2 + shift*z
    b = X1 + eps * X2 - shift * Z
    expected = a.substitute(0, -eps * X2 + shift * Z).is_zero()
    assert divides(b, a) == expected


@settings(max_examples=40, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_division_with_remainder_invariant(a, b):
    q, r = division_with_remainder(a, b)
    assert q * b + r == a
    # no monomial of r is divisible by in(b)
    bexp = b.initial_monomial()
    for mono, _ in r.terms():
        assert any(me < be for me, be in zip(mono, bexp))


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_all_coefficients_stay_rational(a, b):
    for _, c in (a * b + a - b).terms():
        assert isinstance(c, Fraction)


@settings(max_examples=60, deadline=None)
@given(polys, nonzero_polys, nonzero_polys)
def test_divides_agrees_with_remainder(a, b, c):
    # the early exits of divides and exact_div answer as the full division does
    for dividend in (a, a * b + c):
        exact = division_with_remainder(dividend, b)[1].is_zero()
        assert divides(b, dividend) == exact
        if not exact:
            with pytest.raises(DivisionNotExactError):
                exact_div(dividend, b)
    assert divides(b, a * b)


@settings(max_examples=60, deadline=None)
@given(polys, st.lists(coeffs, min_size=N, max_size=N))
def test_evaluate_matches_termwise_sum(a, point):
    expected = Fraction(0)
    for mono, c in a.terms():
        for v, e in zip(point, mono):
            c *= v**e
        expected += c
    got = a.evaluate(point)
    assert got == expected and isinstance(got, Fraction)


def _termwise_product(a: Poly, b: Poly) -> dict:
    """a * b by a double loop over Fraction terms, cancelled terms dropped."""
    out: dict[tuple, Fraction] = {}
    for ma, ca in a.terms():
        for mb, cb in b.terms():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_mul_matches_termwise_fraction_product(a, b, c):
    # (a + c) * (a - c) cancels its cross terms
    for x, y in ((a, b), (a + c, a - c), (a * c, b - c)):
        assert dict((x * y).terms()) == _termwise_product(x, y)


# -- the stored form: integer coefficients over one denominator ------------------


def _assert_reduced(p: Poly) -> None:
    """The stored-form invariant: positive denominator, no zero coefficient,
    and no factor shared by the denominator and every coefficient."""
    assert isinstance(p._den, int) and p._den > 0
    assert all(isinstance(c, int) and c for c in p._terms.values())
    assert gcd(p._den, *p._terms.values()) == 1


def test_equal_values_by_different_routes_compare_equal():
    half = Fraction(1, 2)
    assert X1 * half + X1 * half == X1
    assert (X1 * half + X1 * half)._den == 1
    key = _pack((1, 0, 0))
    assert int_dict_to_poly({key: 2}, 4, N) == Poly.from_terms(N, {(1, 0, 0): half})
    assert int_dict_to_poly({key: 2}, -4, N) == -half * X1
    assert (X1**2 * Fraction(1, 6)).partial_derivative(0) == Fraction(1, 3) * X1
    assert (2 * X1) * (half * X2) == X1 * X2


@settings(max_examples=60, deadline=None)
@given(polys, nonzero_polys, coeffs, st.integers(0, 3), st.integers(-6, 6).filter(bool))
def test_every_operation_returns_the_reduced_form(a, b, c, n, m):
    terms, den = poly_to_int_dict(a)
    # the same value as a over a scaled, possibly negative, denominator
    rescaled = int_dict_to_poly({k: v * m for k, v in terms.items()}, den * m, N)
    results = [
        a + b,
        a - b,
        a + c,
        a * b,
        a * c,
        c * a,
        a**n,
        a.partial_derivative(0),
        a.substitute(1, b),
        exact_div(a * b, b),
        remap_variables(a, 4, (3, 0, 2)),
        Poly.from_terms(N, dict(a.terms())),
        Poly.constant(N, c),
        rescaled,
    ]
    for p in results:
        _assert_reduced(p)
    # one value, one stored form, whatever the route
    assert rescaled == a
    assert (a + b) - b == a
    assert a * c * (1 / c) == a
    assert (a * c) * b == a * (b * c)


class _NoFraction(Fraction):
    """Stands in for ``Fraction`` in a module: building one fails."""

    def __new__(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built on an integer path")


def test_integer_paths_build_no_fraction(monkeypatch):
    a = Fraction(1, 2) * X1**2 - Fraction(2, 3) * X2 * Z + 5
    b = Fraction(3, 4) * X1 - Fraction(1, 6) * Z
    expected_product = Poly.from_terms(N, dict(a.terms())) * b
    # fills the caches of the Bernoulli relatives, which are built over Fraction
    expected_basis = basis(3)
    monkeypatch.setattr(exactpoly, "Fraction", _NoFraction)
    monkeypatch.setattr(detkernel, "Fraction", _NoFraction, raising=False)
    s = a + b - b
    p = a * b
    assert s == a and p == expected_product
    assert exact_div(p, b) == a
    assert divides(b, p) and not divides(b, a)
    terms, den = clear_denominators([a, b])
    assert den == 12 and terms[1] == {_pack((1, 0, 0)): 9, _pack((0, 0, 1)): -2}
    d, den = poly_to_int_dict(p)
    assert int_dict_to_poly(d, den, N) == p
    # the phi coefficients are summed over the integers and reduced once
    assert [t.coefficients() for t in basis(3)] == [t.coefficients() for t in expected_basis]
