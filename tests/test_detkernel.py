import ctypes
import os
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shidcone import detkernel
from shidcone.detkernel import (
    HAS_FAST_KERNEL,
    DictPoly,
    det_minor_expansion,
    get_impl,
    int_dict_to_poly,
    int_product,
    poly_to_int_dict,
)
from shidcone.exactpoly import FIELD_MASK, ExponentOverflowError, Poly, _pack

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.mark.skipif(detkernel._find_compiler() is None, reason="no C compiler on PATH")
def test_fast_kernel_present():
    # the package is functional without it, but this environment builds it
    assert HAS_FAST_KERNEL


def test_poly_conversion_round_trip():
    n = 3
    x1, x2, z = (Poly.variable(n, i) for i in range(n))
    from fractions import Fraction

    f = Fraction(1, 3) * x1**2 - Fraction(5, 2) * x2 * z + 7
    d, den = poly_to_int_dict(f)
    assert den == 6
    assert int_dict_to_poly(d, den, n) == f


def test_dict_kernel_takes_any_number_of_variables():
    # keys pass through unchanged, so only the compiled kernel's int64 keys
    # (below 2^56: at most 7 variables) limit the ring
    from shidcone.verify import minor_expansion_det

    x = [Poly.variable(9, i) for i in range(9)]
    matrix = [[x[0], x[8]], [x[4], x[0] + x[1]]]
    assert minor_expansion_det(matrix, fast=False) == x[0] * (x[0] + x[1]) - x[8] * x[4]
    if HAS_FAST_KERNEL:
        with pytest.raises(ValueError, match="kernel range"):
            minor_expansion_det(matrix, fast=True)


def _random_dict(rng, nterms=6, bound=50):
    out = {}
    for _ in range(nterms):
        key = _pack([rng.randrange(0, 6) for _ in range(3)])
        out[key] = rng.randrange(-bound, bound + 1)
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("seed", range(5))
def test_backends_agree_on_fma(seed):
    rng = random.Random(seed)
    a, b, c = (_random_dict(rng) for _ in range(3))
    results = []
    for impl in {DictPoly, get_impl()}:
        acc = impl.from_dict(c)
        acc.fma(impl.from_dict(a), impl.from_dict(b), -1)
        acc.fma(impl.from_dict(a), impl.from_dict({0: 3}), 1)
        results.append(acc.to_dict())
    assert all(r == results[0] for r in results)


def test_backend_equal_scaled():
    for impl in {DictPoly, get_impl()}:
        a = impl.from_dict({1: 2, 256: -4})
        b = impl.from_dict({1: 3, 256: -6})
        assert a.equal_scaled(3, b, 2)
        assert not a.equal_scaled(1, b, 1)
        c = impl.from_dict({1: 3})
        assert not a.equal_scaled(3, c, 2)


def test_backend_max_key_and_zero():
    for impl in {DictPoly, get_impl()}:
        p = impl.from_dict({5: 1, 700: 2})
        assert p.max_key() == 700
        q = impl.from_dict({})
        assert q.is_zero()
        assert q.max_key() is None
        # cancellation to zero
        acc = impl.from_dict({3: 1})
        acc.fma(impl.from_dict({3: 1}), impl.from_dict({0: 1}), -1)
        assert acc.is_zero()
        assert acc.nnz() == 0


def test_fma_aliasing_rejected():
    for impl in {DictPoly, get_impl()}:
        a = impl.from_dict({1: 1})
        with pytest.raises(ValueError):
            a.fma(a, a, 1)
        with pytest.raises(ValueError):
            a.fma(impl.from_dict({0: 2}), a, 1)


def test_kernel_falls_back_without_compiler(monkeypatch, tmp_path):
    monkeypatch.setattr(detkernel, "_find_compiler", lambda: None)
    monkeypatch.setattr(detkernel, "_cache_dir", lambda: str(tmp_path))
    with pytest.warns(RuntimeWarning) as record:
        lib, reason = detkernel._load()
    assert lib is None
    assert len(record) == 1
    assert "no C compiler" in str(record[0].message)
    monkeypatch.setattr(detkernel, "HAS_FAST_KERNEL", False)
    monkeypatch.setattr(detkernel, "_UNAVAILABLE", reason)
    assert get_impl() is DictPoly
    with pytest.raises(RuntimeError, match="_detkernel.c .*no C compiler"):
        get_impl(fast=True)


@pytest.mark.skipif(detkernel._find_compiler() is None, reason="no C compiler on PATH")
def test_build_removes_stale_kernels(monkeypatch, tmp_path):
    monkeypatch.setattr(detkernel, "_cache_dir", lambda: str(tmp_path))
    other = tmp_path / "detkernel-00000000.so"
    other.write_bytes(b"another source's build")
    detkernel._open_kernel()  # the current build is absent here, so it is built
    (current,) = {p.name for p in tmp_path.iterdir()} - {other.name}
    assert current.startswith("detkernel-")
    assert other.exists()  # a checkout of another version keeps its build
    # past the bound, the oldest builds go: the new build, the other source's
    # (modified just now) and the newest of the stale ones stay
    kept = detkernel._KEPT_BUILDS
    for i in range(1, 2 * kept):
        stale = tmp_path / f"detkernel-{i:08x}.so"
        stale.write_bytes(b"stale")
        os.utime(stale, (i, i))
    (tmp_path / current).unlink()
    detkernel._open_kernel()
    newest_stale = {f"detkernel-{i:08x}.so" for i in range(kept + 2, 2 * kept)}
    assert {p.name for p in tmp_path.iterdir()} == {current, other.name} | newest_stale


@pytest.mark.skipif(detkernel._find_compiler() is None, reason="no C compiler on PATH")
def test_kernel_rebuilt_when_its_build_vanishes(monkeypatch, tmp_path):
    monkeypatch.setattr(detkernel, "_cache_dir", lambda: str(tmp_path))
    load = ctypes.CDLL
    loaded = []

    def evicted_first(path, *args, **kwargs):
        if not loaded:
            os.unlink(path)  # another version's build evicts it after the check
        loaded.append(path)
        return load(path, *args, **kwargs)

    monkeypatch.setattr(detkernel.ctypes, "CDLL", evicted_first)
    lib = detkernel._open_kernel()
    assert len(loaded) == 2 and loaded[0] == loaded[1]
    assert os.path.exists(loaded[0])
    assert lib.sdc_nnz.restype is ctypes.c_int64


_COMPILED = pytest.mark.skipif(not HAS_FAST_KERNEL, reason="compiled kernel only")


@pytest.mark.parametrize("fast", [False, pytest.param(True, marks=_COMPILED)])
def test_minor_expansion_exponent_carry_raises(fast):
    # z^300 does not fit an 8-bit field; the packed key sum would carry into
    # x1 and read x1*z^44
    from shidcone.verify import minor_expansion_det

    x1, z, zero = Poly.variable(2, 0), Poly.variable(2, 1), Poly.zero(2)
    with pytest.raises(ExponentOverflowError):
        minor_expansion_det([[z**200, zero], [zero, z**100]], fast=fast)
    # the guard is per variable: x1^200 * z^100 fits
    assert minor_expansion_det([[x1**200, zero], [zero, z**100]], fast=fast) == x1**200 * z**100


@pytest.mark.parametrize("fast", [False, pytest.param(True, marks=_COMPILED)])
def test_int_product_exponent_carry_raises(fast):
    # z^200 * z^100 at two variables: the key sum 300 would read x1*z^44
    impl = get_impl(fast)
    with pytest.raises(ExponentOverflowError):
        int_product([{_pack((0, 200)): 1}, {_pack((0, 100)): 1}], impl)
    # per variable, as in a minor: x1^200 * z^100 fits
    product = int_product([{_pack((200, 0)): 1}, {_pack((0, 100)): 1}], impl)
    assert product.to_dict() == {_pack((200, 100)): 1}


@st.composite
def _near_limit_matrices(draw):
    """n x n matrices (n <= 3) over 2 or 3 variables whose exponents cluster
    around FIELD_MASK / n, so that for n >= 2 the per-variable sum over rows
    of each row's largest exponent falls on both sides of the 8-bit limit.
    No exponent passes FIELD_MASK: such an entry cannot be built (the
    bounds of ``_pack`` are tested in test_exactpoly)."""
    n = draw(st.integers(1, 3))
    nvars = draw(st.integers(2, 3))
    centre = FIELD_MASK // n
    exponent = st.integers(centre - 6, min(centre + 6, FIELD_MASK)) | st.integers(0, 2)
    coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    terms = st.dictionaries(st.tuples(*[exponent] * nvars), coeff, max_size=2)
    return [[Poly.from_terms(nvars, draw(terms)) for _ in range(n)] for _ in range(n)]


def _leibniz_det(matrix):
    """Sum over permutations of signed products of one entry per row.  A
    partial product's exponent of each variable is at most the sum over rows
    of the row's largest, so every product fits whenever the minors do
    (unlike Bareiss, whose undivided intermediates pass the limit first)."""
    n, nvars = len(matrix), matrix[0][0].nvars
    det = Poly.zero(nvars)
    for perm in permutations(range(n)):
        term = Poly.one(nvars)
        for r, c in enumerate(perm):
            term = term * matrix[r][c]
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        det = det - term if inversions % 2 else det + term
    return det


@settings(max_examples=60, deadline=None)
@given(_near_limit_matrices())
def test_minor_expansion_near_the_field_limit(matrix):
    from shidcone.verify import minor_expansion_det

    nvars = matrix[0][0].nvars
    need = max(
        sum(max((mono[v] for e in row for mono, _ in e.terms()), default=0) for row in matrix)
        for v in range(nvars)
    )
    fasts = [False, True] if HAS_FAST_KERNEL else [False]
    if need > FIELD_MASK:
        for fast in fasts:
            with pytest.raises(ExponentOverflowError):
                minor_expansion_det(matrix, fast=fast)
    else:
        expected = _leibniz_det(matrix)
        for fast in fasts:
            assert minor_expansion_det(matrix, fast=fast) == expected


@st.composite
def _growing_fma_operands(draw):
    """(acc, a, b, sign) for ``acc += sign * a * b``.  The keys of a use x1
    and x2 and those of b only z, so the 45 to 70 terms of each give at
    least 2,025 distinct sums, and the accumulator grows several times
    within one call.  acc holds the negated products of some pairs, which
    cancel to zero during the call, and further terms of either sign."""
    coeff = st.integers(-(1 << 40), 1 << 40).filter(bool)
    a_key = st.tuples(st.integers(0, 60), st.integers(0, 60)).map(lambda e: _pack((*e, 0)))
    b_key = st.integers(0, 100).map(lambda e: _pack((0, 0, e)))
    a = draw(st.dictionaries(a_key, coeff, min_size=45, max_size=70))
    b = draw(st.dictionaries(b_key, coeff, min_size=45, max_size=70))
    sign = draw(st.sampled_from((1, -1)))
    pairs = draw(st.lists(st.tuples(st.sampled_from(list(a)), st.sampled_from(list(b)))))
    acc = {ka + kb: -sign * a[ka] * b[kb] for ka, kb in pairs}
    sum_key = st.builds(lambda ka, kb: ka + kb, a_key, b_key)
    acc.update(draw(st.dictionaries(sum_key, coeff, max_size=40)))
    return acc, a, b, sign


@_COMPILED
@settings(max_examples=25, deadline=None)
@given(_growing_fma_operands())
def test_compiled_fma_matches_dict_fma_while_growing(operands):
    # the compiled loop prefetches slots of a table that may grow before
    # the insert; that must never change a sum or the count of nonzeros
    acc, a, b, sign = operands
    fast, slow = get_impl(fast=True), DictPoly
    results = []
    for impl in (slow, fast):
        out = impl.from_dict(acc)
        out.fma(impl.from_dict(a), impl.from_dict(b), sign)
        results.append(out)
    expected = results[0].to_dict()
    assert len({ka + kb for ka in a for kb in b}) >= 2000
    assert results[1].to_dict() == expected
    assert results[1].nnz() == len(expected)
    # the opposite sign takes every product back out, to zero where acc had none
    results[1].fma(fast.from_dict(a), fast.from_dict(b), -sign)
    start = {k: v for k, v in acc.items() if v}
    assert results[1].to_dict() == start
    assert results[1].nnz() == len(start)


@_COMPILED
def test_backends_agree_on_a_product_chain():
    # the rank-4 reduced right-hand product, then times z (key 1): the
    # tables grow under load and terms cancel on the way
    from shidcone.verify import _reduced_rhs_factors

    factors = _reduced_rhs_factors(4) + [{1: 1}]
    slow = int_product(factors, DictPoly).to_dict()
    fast = int_product(factors, get_impl(fast=True)).to_dict()
    assert len(slow) > 1000
    assert fast == slow


@_COMPILED
def test_backends_agree_on_the_rank4_minor_expansion(cached_basis):
    from shidcone.verify import _column_reduced_int_matrix

    dets = []
    for impl in (DictPoly, get_impl(fast=True)):
        rows, _, _ = _column_reduced_int_matrix(4, cached_basis(4)[1:], impl)
        dets.append(det_minor_expansion(rows, impl).to_dict())
    assert len(dets[0]) > 1000
    assert dets[1] == dets[0]


@pytest.mark.skipif(not HAS_FAST_KERNEL, reason="compiled kernel only")
def test_fast_kernel_overflow_guard():
    impl = get_impl(fast=True)
    big = impl.from_dict({0: 1 << 99})
    other = impl.from_dict({0: 1 << 99})
    acc = impl.from_dict({})
    with pytest.raises(OverflowError):
        acc.fma(big, other, 1)
    with pytest.raises(OverflowError):
        impl.from_dict({0: 1 << 120})


@pytest.mark.skipif(not HAS_FAST_KERNEL, reason="compiled kernel only")
def test_fast_kernel_large_values_survive_round_trip():
    impl = get_impl(fast=True)
    vals = {0: (1 << 99) - 1, 1: -(1 << 98) + 7, 2: 12345}
    assert impl.from_dict(vals).to_dict() == vals


def test_det_minor_expansion_small():
    impl = get_impl()
    one = {0: 1}
    zero = {}
    ident = [
        [impl.from_dict(one if i == j else zero) for j in range(3)]
        for i in range(3)
    ]
    assert det_minor_expansion(ident, impl).to_dict() == {0: 1}

    # [[0, 1], [1, 0]] has determinant -1 (needs the Laplace row sign)
    swap = [
        [impl.from_dict(zero), impl.from_dict(one)],
        [impl.from_dict(one), impl.from_dict(zero)],
    ]
    assert det_minor_expansion(swap, impl).to_dict() == {0: -1}


def test_det_minor_expansion_matches_bareiss_random():
    from shidcone.verify import bareiss_det, minor_expansion_det

    rng = random.Random(7)
    n = 3
    nv = 3
    for _ in range(4):
        matrix = []
        for i in range(n):
            row = []
            for j in range(n):
                terms = {}
                for _ in range(3):
                    exps = tuple(rng.randrange(0, 3) for _ in range(nv))
                    terms[exps] = rng.randrange(-4, 5)
                row.append(Poly.from_terms(nv, terms))
            matrix.append(row)
        assert bareiss_det(matrix) == minor_expansion_det(matrix)
        if HAS_FAST_KERNEL:
            assert minor_expansion_det(matrix, fast=False) == minor_expansion_det(
                matrix, fast=True
            )
