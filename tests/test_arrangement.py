import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shidcone.arrangement import (
    LinearForm,
    restriction_table,
    shi_d_cone,
)
from shidcone.detkernel import int_dict_to_poly
from shidcone.exactpoly import FIELD_MASK, ExponentOverflowError, Poly, divides, exact_div


def test_ell2_forms():
    arr = shi_d_cone(2)
    assert len(arr.forms) == 5
    texts = [f.text() for f in arr.forms]
    assert texts == ["z", "x1 + x2", "x1 + x2 - z", "x1 - x2", "x1 - x2 - z"]


def test_ell3_count():
    assert len(shi_d_cone(3).forms) == 13


def test_form_count_formula():
    for ell in (2, 3, 4, 5, 6):
        assert len(shi_d_cone(ell).forms) == 2 * ell * (ell - 1) + 1


def test_invalid_rank():
    with pytest.raises(ValueError):
        shi_d_cone(1)


def test_forms_pairwise_nonproportional():
    for ell in (2, 3, 4):
        arr = shi_d_cone(ell)
        assert len({f.coeffs for f in arr.forms}) == len(arr.forms)


def test_linear_form_validation():
    with pytest.raises(ValueError):
        LinearForm((0, 0, 0))
    with pytest.raises(ValueError):
        LinearForm((2, 0, 0))  # not primitive
    with pytest.raises(ValueError):
        LinearForm((0, -1, 1))  # negative lead
    with pytest.raises(TypeError):
        LinearForm((1, Fraction(1, 2), 0))  # not an integer normal


def defining_poly(arr):
    """Q, the product of the hyperplane forms."""
    return math.prod((f.poly() for f in arr.forms), start=Poly.one(arr.nvars))


def test_defining_poly_ell2():
    arr = shi_d_cone(2)
    q = defining_poly(arr)
    n = 3
    x1, x2, z = (Poly.variable(n, i) for i in range(3))
    expected = z * (x1 + x2) * (x1 - x2) * (x1 + x2 - z) * (x1 - x2 - z)
    assert q == expected
    assert q.is_homogeneous(5)


def test_defining_poly_degree_ell3():
    arr = shi_d_cone(3)
    q = defining_poly(arr)
    assert q.total_degree() == 13
    assert q.is_homogeneous(13)


def test_q_over_z_degree():
    for ell in (2, 3):
        arr = shi_d_cone(ell)
        q = defining_poly(arr)
        z = Poly.variable(arr.nvars, arr.nvars - 1)
        assert exact_div(q, z).total_degree() == 2 * ell * (ell - 1)


def test_q_squarefree():
    for ell in (2, 3):
        arr = shi_d_cone(ell)
        q = defining_poly(arr)
        for form in arr.forms:
            fp = form.poly()
            quotient = exact_div(q, fp)
            assert not divides(fp, quotient)


def test_every_form_vanishes_somewhere():
    arr = shi_d_cone(3)
    for form in arr.forms:
        fp = form.poly()
        # the point with the lex-leading variable solved is a nonzero zero
        s = next(i for i, c in enumerate(form.coeffs) if c)
        point = [1] * arr.nvars
        point[s] = -sum(c for i, c in enumerate(form.coeffs) if i != s)
        assert fp.evaluate(point) == 0
        assert any(point)


_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
_polys = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _coeffs, max_size=6).map(
    lambda d: Poly.from_terms(3, d)
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2),
    st.integers(2, 6),
    st.lists(st.integers(-6, 6), min_size=2, max_size=2),
    _polys,
    st.integers(0, 2),
)
def test_restriction_table_restricts(s, lead, rest, f, extra):
    # the integer form lead * x_s + B, B on the variables after x_s
    ints = [0] * s + [lead] + rest[: 2 - s]
    form = LinearForm(tuple(a // math.gcd(*ints) for a in ints))
    degree = max(f.total_degree(), 0) + extra
    s2, table = restriction_table(form, degree)
    assert s2 == s
    L = form.coeffs[s]
    assume(L != 1)
    total = Poly.zero(3)
    for mono, c in f.terms():
        rest_mono = mono[:s] + (0,) + mono[s + 1 :]
        part = Poly.from_terms(3, {rest_mono: c})
        total = total + part * int_dict_to_poly(table[mono[s]], 1, 3)
    b_over_l = [0 if i == s else Fraction(a, L) for i, a in enumerate(form.coeffs)]
    assert total == f.substitute(s, -Poly.linear_form(3, b_over_l)) * L**degree


def test_restriction_table_refuses_a_degree_past_the_field():
    form = shi_d_cone(2).forms[1]
    assert len(restriction_table(form, FIELD_MASK)[1]) == FIELD_MASK + 1
    with pytest.raises(ExponentOverflowError, match="total degree 256"):
        restriction_table(form, FIELD_MASK + 1)
