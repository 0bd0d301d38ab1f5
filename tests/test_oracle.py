import re
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shidcone import oracle
from shidcone.arrangement import Arrangement, LinearForm, shi_d_cone
from shidcone.oracle import (
    _derivation_vector,
    _membership_rows,
    _pivot_rows,
    _search_slice,
    _sparse_rank,
    basis_span_rank_at_h,
    charpoly_count,
    derivation_dim,
    expected_count,
    expected_dim,
    graded_dims,
    monomials_of_degree,
)
from shidcone.shi_basis import basis


def test_monomials_of_degree():
    monos = list(monomials_of_degree(3, 2))
    assert len(monos) == 6  # C(2+2, 2)
    assert all(sum(m) == 2 for m in monos)
    assert len(set(monos)) == len(monos)


def test_expected_dim_pinned():
    assert expected_dim(3, 0) == 0
    assert expected_dim(3, 1) == 1
    assert expected_dim(3, 4) == 23  # C(6,3) + 3*C(3,3) = 20 + 3
    assert expected_dim(2, 2) == 5  # C(3,2) + 2*C(2,2) = 3 + 2


def test_derivation_dim_ell2_low_degrees():
    assert derivation_dim(2, 0) == 0
    assert derivation_dim(2, 1) == 1  # only the Euler field, up to scale
    assert derivation_dim(2, 2) == 5


def test_derivation_dim_matches_expected_ell2():
    h = 2
    for d in (0, 1, h - 1, h, h + 1):
        assert derivation_dim(2, d) == expected_dim(2, d)


def test_graded_dims_report():
    reports = graded_dims(2, 3)
    assert [r.degree for r in reports] == [0, 1, 2, 3]
    assert all(r.ok for r in reports)


@pytest.mark.parametrize("ell,max_degree", [(1, -1), (2, -1), (1, 0)])
def test_graded_dims_rejects_invalid_input(ell, max_degree):
    # an empty list of reports would pass as "every degree ok"
    with pytest.raises(ValueError):
        graded_dims(ell, max_degree)


def test_basis_spans_at_coxeter_degree():
    for ell in (2, 3):
        rank, expected = basis_span_rank_at_h(ell)
        assert rank == expected
        assert rank == derivation_dim(ell, 2 * ell - 2)


def test_invalid_args():
    with pytest.raises(ValueError):
        derivation_dim(1, 2)
    with pytest.raises(ValueError):
        expected_dim(2, -1)


def test_charpoly_counts_pinned():
    assert charpoly_count(2, 5) == 36  # (5-1)(5-2)^2
    assert expected_count(2, 5) == 36
    assert charpoly_count(3, 7) == 162  # (7-1)(7-4)^3
    assert expected_count(3, 7) == 162


def test_charpoly_preconditions():
    with pytest.raises(ValueError):
        charpoly_count(2, 3)  # boundary excluded: q <= 2*ell - 1
    with pytest.raises(ValueError):
        charpoly_count(2, 4)  # not prime
    with pytest.raises(ValueError):
        charpoly_count(2, 2)  # even
    with pytest.raises(ValueError, match="cap"):
        charpoly_count(300, 601)  # tables past the prefix cap, refused before any work


def _fraction_rank(rows: list[dict[int, Fraction]]) -> int:
    """Reference rank: forward elimination over Fraction with normalized
    pivot rows, keyed on each row's smallest column index."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = 1 / row[c]
                pivots[c] = {k: v * inv for k, v in row.items()}
                break
            factor = row[c]
            for k, v in piv.items():
                cur = row.get(k, 0) - factor * v
                if cur:
                    row[k] = cur
                else:
                    row.pop(k, None)
    return len(pivots)


@st.composite
def _sparse_rational_rows(draw):
    """Up to 8 sparse rows over 8 columns with rational entries.  Some rows
    are multiplied by a large content, and entries such as 2, 3 and 6 make
    pivots that are not units; a few rows are combinations of earlier ones,
    so that elimination has dependent rows to cancel."""
    ncols = 8
    entry = st.fractions(min_value=-12, max_value=12, max_denominator=6)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        if rows and draw(st.booleans()):
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            a, b = draw(entry), draw(entry)
            row = {c: a * rows[i].get(c, 0) + b * rows[j].get(c, 0) for c in rows[i].keys() | rows[j].keys()}
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1), max_size=4))
            row = {c: draw(entry) for c in cols}
        if draw(st.booleans()):
            content = draw(st.sampled_from([2**61 - 1, 10**30, 6**40]))
            row = {c: content * v for c, v in row.items()}
        rows.append(row)
    return rows


def _cleared(row: dict[int, Fraction]) -> dict[int, int]:
    den = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in row.items()}


@settings(max_examples=100, deadline=None)
@given(_sparse_rational_rows())
def test_integer_rank_matches_fraction_elimination(rows):
    cleared = [_cleared(r) for r in rows]
    assert _sparse_rank(cleared) == _fraction_rank(rows)
    for c, row in _pivot_rows(cleared).items():
        assert min(row) == c and all(row.values())
        assert gcd(*row.values()) == 1  # content divided out


def test_derivation_vectors_scale_fractional_coefficients():
    ell, h = 3, 4
    monos = list(monomials_of_degree(ell + 1, h))
    index = {m: i for i, m in enumerate(monos)}
    for phi in basis(ell)[1:]:
        vec = _derivation_vector(phi, (0,) * (ell + 1), index, len(monos))
        coeffs = {
            v * len(monos) + index[m]: c
            for v, poly in enumerate(phi.coefficients())
            for m, c in poly.terms()
        }
        assert any(c.denominator > 1 for c in coeffs.values())
        assert vec.keys() == coeffs.keys()
        assert len({vec[u] / c for u, c in coeffs.items()}) == 1  # one common scale


def test_membership_rows_scale_non_unit_leads():
    # two planes through the z axis, 2*x1 = x2 and x1 = x2, one of them led
    # by 2: a free arrangement with exponents (0, 1, 1)
    arr = Arrangement(2, (LinearForm((2, -1, 0)), LinearForm((1, -1, 0))))
    for d in range(4):
        n_unknowns, rows = _membership_rows(arr, d)
        assert n_unknowns - _sparse_rank(rows) == comb(d + 2, 2) + 2 * comb(d + 1, 2)
    # every equation holds for the Euler field, whose coefficient in slot v
    # is x_v: unknown (v, x_v) is v * 3 + v in degree 1
    _, rows = _membership_rows(arr, 1)
    for row in rows:
        assert sum(row.get(4 * v, 0) for v in range(3)) == 0


def _full_count(ell: int, q: int) -> int:
    """Points of F_q^(l+1), over every z and x, on none of the hyperplanes."""
    forms = [form.coeffs for form in shi_d_cone(ell).forms]
    return sum(
        all(sum(a * x for a, x in zip(form, point)) % q for form in forms)
        for point in product(range(q), repeat=ell + 1)
    )


@pytest.mark.parametrize("ell,q", [(2, 5), (2, 7), (3, 7)])
def test_sliced_count_matches_full_enumeration(ell, q):
    assert charpoly_count(ell, q) == _full_count(ell, q) == expected_count(ell, q)


def test_charpoly_cap_applies_to_the_slice(monkeypatch):
    # the cap counts prefixes of the slice z = 1: (2, 3163) visits 3,164 and
    # (4, 17) visits 1 + 17 + 15^2 + 13^3 = 2,440
    assert charpoly_count(2, 223) == expected_count(2, 223)
    assert charpoly_count(2, 3163) == expected_count(2, 3163)
    monkeypatch.setattr(oracle, "PREFIX_CAP", 2440)
    assert charpoly_count(4, 17) == expected_count(4, 17)
    monkeypatch.setattr(oracle, "PREFIX_CAP", 2439)
    with pytest.raises(ValueError, match="cap"):
        charpoly_count(4, 17)


def _slice_count(ell: int, q: int) -> int:
    """(q - 1) times the points of the slice z = 1 on none of the hyperplanes:
    all q^ell points of the slice, as the columns of one array, tested
    against one form at a time."""
    points = np.vstack([np.indices((q,) * ell).reshape(ell, -1), np.ones(q**ell, dtype=np.int64)])
    off = np.ones(q**ell, dtype=bool)
    for form in shi_d_cone(ell).forms:
        off &= np.asarray(form.coeffs) @ points % q != 0
    return (q - 1) * int(np.count_nonzero(off))


_ADMISSIBLE = {ell: [q for q in (5, 7, 11, 13, 17, 19, 23) if q > 2 * ell - 1] for ell in (2, 3, 4)}


@settings(max_examples=5, deadline=None)
@given(
    st.sampled_from(sorted(_ADMISSIBLE)).flatmap(
        lambda ell: st.tuples(st.just(ell), st.sampled_from(_ADMISSIBLE[ell]))
    )
)
@example((2, 5))
@example((3, 7))
@example((4, 11))
def test_backtracking_count_matches_slice_enumeration(case):
    ell, q = case
    assert charpoly_count(ell, q) == _slice_count(ell, q) == expected_count(ell, q)


def _drop_first_shifted_form(ell: int) -> Arrangement:
    arr = shi_d_cone(ell)
    assert arr.forms[2].text() == "x1 + x2 - z"
    return Arrangement(ell, arr.forms[:2] + arr.forms[3:])


def _add_form(ell: int) -> Arrangement:
    extra = LinearForm((1, 1) + (0,) * (ell - 2) + (-2,))
    assert extra.text() == "x1 + x2 - 2*z"
    return Arrangement(ell, shi_d_cone(ell).forms + (extra,))


@pytest.mark.parametrize("ell,q", [(3, 7), (4, 11)])
def test_charpoly_count_reads_the_forms(ell, q):
    # the count says no to an arrangement with one form fewer or one more
    expected = expected_count(ell, q)
    assert charpoly_count(ell, q) == expected == (q - 1) * _search_slice(shi_d_cone(ell), q)
    for mutant in (_drop_first_shifted_form, _add_form):
        assert (q - 1) * _search_slice(mutant(ell), q) != expected


@pytest.mark.parametrize(
    "coeffs,q,text",
    [((1, 0, -1), 7, "x1 - z"), ((1, 1, 1, 0), 7, "x1 + x2 + x3"), ((1, 5, 0), 5, "x1 + 5*x2")],
)
def test_search_slice_names_a_form_outside_its_shape(coeffs, q, text):
    # one x-variable, three, or a later coefficient that q divides
    form = LinearForm(coeffs)
    assert form.text() == text
    z = LinearForm((0,) * (len(coeffs) - 1) + (1,))
    with pytest.raises(ValueError, match=re.escape(text)):
        _search_slice(Arrangement(len(coeffs) - 1, (z, form)), q)


@pytest.mark.parametrize(
    "mutant,ell,degree,dim",
    [
        (_drop_first_shifted_form, 2, 1, 2),
        (_drop_first_shifted_form, 3, 5, 48),
        (_add_form, 2, 2, 4),
        (_add_form, 3, 4, 22),
    ],
)
def test_derivation_dim_reads_the_forms(mutant, ell, degree, dim):
    # the dimension system says no to an arrangement with one form fewer or
    # one more: its nullity first leaves the prediction at this degree
    arr, dims = mutant(ell), []
    for d in range(2 * ell + 1):
        n_unknowns, rows = _membership_rows(arr, d)
        dims.append(n_unknowns - _sparse_rank(rows))
    first = next(d for d, n in enumerate(dims) if n != expected_dim(ell, d))
    assert (first, dims[first]) == (degree, dim)
