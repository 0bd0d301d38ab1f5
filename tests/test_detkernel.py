import copy
import ctypes
import os
import random
import re
import subprocess
import sys
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
from shidcone.exactpoly import (
    FIELD_MASK,
    ExponentOverflowError,
    Poly,
    _pack,
    _unpack,
    variable_field,
)

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


def test_backend_fma_cancels_to_zero():
    # tables are compared as expand compares them: 3a - 2b by two fmas; a
    # cancelled term leaves to_dict too, which int_dict_to_poly relies on
    for impl in {DictPoly, get_impl()}:
        for b, left in [({1: 3, 256: -6}, {}), ({1: 3, 256: -5}, {256: -2}), ({1: 3}, {256: -12})]:
            diff = impl.from_dict({})
            diff.fma(impl.from_dict({1: 2, 256: -4}), impl.from_dict({0: 3}), 1)
            diff.fma(impl.from_dict(b), impl.from_dict({0: 2}), -1)
            assert diff.is_zero() == (not left)
            assert diff.nnz() == len(left)
            assert diff.to_dict() == left


# values at the ends of the kernel's range and next to its 64-bit word
# boundary, on keys of three variables, given smallest key first
_DUMPED = {
    _pack((0, 0, 0)): 2**64,
    _pack((0, 255, 1)): -(2**64),
    _pack((3, 0, 9)): -(2**127),
    _pack((7, 7, 7)): -1,
    _pack((255, 0, 0)): 2**127 - 1,
}


def check_dumps(impl):
    """``to_dict`` and ``take_dict`` of ``impl`` at the range ends (a
    function, so that a sanitizer build can run it).  ``take_dict`` leaves
    a zero polynomial that stays usable."""
    p = impl.from_dict(_DUMPED)
    assert p.field_peaks() == DictPoly(dict(_DUMPED)).field_peaks() == {16: 255, 8: 255, 0: 9}
    got = p.to_dict()
    assert got == _DUMPED
    assert p.take_dict() == got
    assert p.is_zero() and p.nnz() == 0 and p.lead() is None
    assert p.to_dict() == p.take_dict() == {} and p.field_peaks() == {}
    p.fma(impl.from_dict({1: 2}), impl.from_dict({2: -3}), 1)
    assert p.to_dict() == {3: -6}
    return got


def check_json(impl):
    """``write_terms`` of the compiled kernel ``impl`` at the range ends of
    the values and of the denominator, against the ``Poly`` writer (a
    function, so that a sanitizer build can run it): the C writer reduces
    on magnitudes, so it never negates -2**127."""
    from shidcone import cli

    for den in (1, -1, 3, 2**63 - 1, 2**127 - 1, -(2**127)):
        poly = int_dict_to_poly(dict(_DUMPED), den, 3)
        for depth in (0, 2):
            got, expected = [], []
            impl.from_dict(_DUMPED).write_terms(got.append, den, 3, depth)
            cli._write_terms(expected.append, poly, depth)
            assert "".join(got) == "".join(expected), (den, depth)


def test_backend_dumps_at_the_range_ends():
    for impl in {DictPoly, get_impl()}:
        got = check_dumps(impl)
        if impl is not DictPoly:
            assert list(got) == sorted(_DUMPED, reverse=True)


def test_kernel_entry_points_are_the_signatures():
    # every C entry point has a ctypes signature, so none outlives its last
    # caller in detkernel
    with open(detkernel._SOURCE) as f:
        source = f.read()
    defined = re.findall(r"^(?!static\b)[A-Za-z][^(;]*\b(sdc_\w+)\(", source, re.M)
    assert sorted(defined) == sorted(detkernel._SIGNATURES)


def test_backend_lead_and_zero():
    for impl in {DictPoly, get_impl()}:
        p = impl.from_dict({5: 1, 700: 2})
        assert p.lead() == (700, 2)
        q = impl.from_dict({})
        assert q.is_zero()
        assert q.lead() is None
        # cancellation to zero
        acc = impl.from_dict({3: 1})
        acc.fma(impl.from_dict({3: 1}), impl.from_dict({0: 1}), -1)
        assert acc.is_zero()
        assert acc.nnz() == 0
        assert acc.lead() is None


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
    # kernel factors are checked from their field peaks: z^255 fits, z^256
    # does not
    head = impl.from_dict({_pack((1, 200)): 3, _pack((0, 1)): 1})
    with pytest.raises(ExponentOverflowError):
        int_product([head, {_pack((0, 56)): 1}], impl)
    with pytest.raises(ExponentOverflowError):
        int_product([head, impl.from_dict({_pack((0, 56)): 1})], impl)
    product = int_product([head, impl.from_dict({_pack((0, 55)): 1})], impl)
    assert product.to_dict() == {_pack((1, 255)): 3, _pack((0, 56)): 1}


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


@st.composite
def _homogeneous_fma_operands(draw):
    """(acc, a, b, sign) with a and b homogeneous in 3 to 7 variables, as
    the compiled kernel sums them on slabs.  One variable other than x1
    (whose field is the top one, so a carry from it would leave the keys'
    range) reaches exponents in a and b that sum to 254, 255 or 256 over
    their largest terms: the products fit the slab, fill its field to the
    last value, or carry and take the hash path.  The other exponents stay
    small.  acc is empty, holds the negated products of some pairs, which
    cancel, or also terms of another degree."""
    nvars = draw(st.integers(3, 7))
    hot = draw(st.integers(1, nvars - 1))
    peak_sum = draw(st.sampled_from((254, 255, 256)))
    peak_a = draw(st.integers(max(0, peak_sum - 255), min(255, peak_sum)))
    coeff = st.integers(-(1 << 40), 1 << 40).filter(bool)

    def terms(peak):
        rest = draw(st.integers(0, 12))  # the degree is peak + rest

        def key(drop):
            h = max(peak - drop, 0)
            exps = [0] * nvars
            for _ in range(peak + rest - h):
                exps[draw(st.sampled_from([v for v in range(nvars) if v != hot]))] += 1
            exps[hot] = h
            return _pack(exps)

        size = draw(st.integers(0, 25))
        out = {key(0): draw(coeff)}
        out.update({key(draw(st.integers(0, 3))): draw(coeff) for _ in range(size)})
        return out

    a, b = terms(peak_a), terms(peak_sum - peak_a)
    sign = draw(st.sampled_from((1, -1)))
    pairs = draw(st.lists(st.tuples(st.sampled_from(list(a)), st.sampled_from(list(b)))))
    acc = {ka + kb: -sign * a[ka] * b[kb] for ka, kb in pairs}
    if draw(st.booleans()):
        # a term of one degree more than the products
        acc[max(a) + max(b) + 1] = draw(coeff)
    return acc, a, b, sign


@settings(max_examples=150, deadline=None)
@given(_homogeneous_fma_operands())
def test_homogeneous_fma_matches_dict_fma(operands):
    # the slab path of the compiled kernel, and the hash path it falls back
    # to, against DictPoly; the opposite sign takes every product back out
    acc, a, b, sign = operands
    expected = _fma(DictPoly, acc, a, b, sign).to_dict()
    for impl in {DictPoly, get_impl()}:
        out = _fma(impl, acc, a, b, sign)
        got = out.to_dict()
        assert got == expected and out.nnz() == len(expected)
        if impl is not DictPoly:
            assert list(got) == sorted(got, reverse=True)
        out.fma(impl.from_dict(a), impl.from_dict(b), -sign)
        assert out.to_dict() == {k: v for k, v in acc.items() if v}


@st.composite
def _field_fma_operands(draw):
    """(nvars, var, acc, a, b, sign) over 2 to 7 variables.  x_var's
    exponents come from a few values that include 0 and 255, so some
    exponents are shared by a and b and some are not (empty buckets); the
    other exponents stay below 128, so no sum carries."""
    nvars = draw(st.integers(2, 7))
    var = draw(st.integers(0, nvars - 1))
    lead = st.sampled_from((0, 1, 2, 254, 255))

    def key(e):
        return _pack([e if v == var else draw(st.integers(0, 127)) for v in range(nvars)])

    def terms(exponent, max_size):
        size = draw(st.integers(0, max_size))
        coeff = st.integers(-(1 << 40), 1 << 40).filter(bool)
        return {key(draw(exponent)): draw(coeff) for _ in range(size)}

    acc = terms(st.just(0), 4)
    return nvars, var, acc, terms(lead, 12), terms(lead, 12), draw(st.sampled_from((1, -1)))


def _split_by_exponent(terms, var, nvars):
    """{e: terms with x_var^e, x_var taken out}, through exponent tuples."""
    out = {}
    for k, c in terms.items():
        exps = list(_unpack(k, nvars))
        e, exps[var] = exps[var], 0
        out.setdefault(e, {})[_pack(exps)] = c
    return out


@settings(max_examples=80, deadline=None)
@given(_field_fma_operands())
def test_field_fma_is_one_plain_fma_per_shared_exponent(operands):
    # fma(a, b, field=x_var's field) equals splitting both operands by their
    # power of x_var and one plain fma of the two parts per shared power
    nvars, var, acc, a, b, sign = operands
    field = variable_field(var, nvars)
    parts_a, parts_b = (_split_by_exponent(t, var, nvars) for t in (a, b))
    for impl in {DictPoly, get_impl()}:
        expected = impl.from_dict(acc)
        for e in parts_a.keys() & parts_b.keys():
            expected.fma(impl.from_dict(parts_a[e]), impl.from_dict(parts_b[e]), sign)
        got = _fma(impl, acc, a, b, sign, field=field)
        assert got.to_dict() == expected.to_dict()
        assert got.nnz() == expected.nnz()


def test_field_must_be_an_exponent_field():
    # the compiled kernel's keys have no field at bit 56, DictPoly's may
    for impl in {DictPoly, get_impl()}:
        a, b = impl.from_dict({1: 1}), impl.from_dict({1: 2})
        bad = (-8, 3, 56) if impl is not DictPoly else (-8, 3)
        for field in bad:
            with pytest.raises(ValueError, match="field"):
                impl.from_dict({}).fma(a, b, 1, field=field)


def test_dict_poly_keeps_one_split_until_its_dict_changes(monkeypatch):
    splits = []
    split = detkernel.split_by_field

    def counted(terms, field):
        splits.append(field)
        return split(terms, field)

    monkeypatch.setattr(detkernel, "split_by_field", counted)
    # 3 x1 x2 times 5 x1 + x2, paired by x1 (field 8) or by x2 (field 0)
    a, b = DictPoly({_pack((1, 1)): 3}), DictPoly({_pack((1, 0)): 5, _pack((0, 1)): 1})
    acc = DictPoly()
    acc.fma(a, b, 1, field=8)
    assert acc.to_dict() == {_pack((0, 1)): 15}
    acc.fma(a, b, -1, field=8)
    assert acc.is_zero() and splits == [8, 8]
    acc.fma(a, b, 1, field=0)
    assert acc.to_dict() == {_pack((1, 0)): 3}
    assert splits == [8, 8, 0, 0]
    # b is split again for field 8; acc's split goes when its dict changes
    other = DictPoly()
    other.fma(acc, b, 1, field=8)
    acc.fma(a, b, 1)
    other.fma(acc, b, 1, field=8)
    assert splits == [8, 8, 0, 0, 8, 8, 8]
    assert other.to_dict() == {0: 30, _pack((0, 2)): 15}


@_COMPILED
def test_compiled_to_dict_lists_keys_largest_first():
    # 6,000 products grow the table from 16 slots to 16,384, ten rehashes
    a = {_pack((e, 0, 0)): e + 1 for e in range(100)}
    b = {_pack((0, e, f)): 1 - 2 * (e % 2) for e in range(20) for f in range(3)}
    tables = []
    for impl in (DictPoly, get_impl(fast=True)):
        acc = impl.from_dict({})
        acc.fma(impl.from_dict(a), impl.from_dict(b), 1)
        tables.append(acc.to_dict())
        taken = acc.take_dict()
        assert list(taken.items()) == list(tables[-1].items())
        assert acc.is_zero()
    keys = list(tables[1])
    assert len(keys) == 6000
    assert keys == sorted(keys, reverse=True)
    assert tables[1] == tables[0]


@_COMPILED
def test_compiled_dump_sorts_keys_of_seven_fields():
    # the radix sort reads all 7 bytes of a key; keys that agree in some
    # bytes, and tables of one and of two terms, come out largest first too
    rng = random.Random(3)
    impl = get_impl(fast=True)
    tables = [
        {rng.randrange(1 << 56): rng.randrange(-(2**127), 2**127) or 1 for _ in range(5000)},
        {_pack((rng.randrange(256), 7, 0, 9, rng.randrange(3), 0, 255)): 1 for _ in range(300)},
        {_pack((0,) * 6 + (3,)): -1},
        {5: 2, 1 << 55: 3},
    ]
    for terms in tables:
        got = impl.from_dict(terms).to_dict()
        assert list(got.items()) == sorted(terms.items(), reverse=True)


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
        det, _ = det_minor_expansion(rows, impl)
        dets.append(det.to_dict())
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
    # the value range is exactly [-2**127, 2**127)
    for v in (2**127, -(2**127) - 1):
        with pytest.raises(OverflowError, match=r"\[-2\*\*127, 2\*\*127\)"):
            impl.from_dict({0: v})


# (acc, a, b, sign) for acc += sign * a * b at the ends of the compiled
# kernel's value range: the exact results of the first fit it, those of the
# second do not
_FMA_FITS = [
    ({}, {0: 2**62}, {1: 2**62}, 1),
    ({1: 2**126 - 1}, {0: 2**63}, {1: 2**63}, 1),
    ({1: -(2**126)}, {0: 2**63}, {1: 2**63}, -1),
]
_FMA_OVERFLOWS = [
    ({0: 2**126}, {0: 2**126}, {0: 1}, 1),
    ({}, {0: 2**99}, {0: 2**99}, 1),
    ({}, {0: -(2**127)}, {0: 1}, -1),
]


# the same for the field-paired fma, paired by the exponent of x1 in keys of
# two variables (field 8): the pair with x1^1 meets the range end, while the
# x1^2 term of a (-2^127, which sign -1 could not negate) and the x1^3 term
# of b find no partner and are never multiplied
_X1 = 1 << 8
_FIELD_FITS = [
    ({1: 2**126 - 1}, {_X1: 2**63, 2 * _X1: -(2**127)}, {_X1 + 1: 2**63, 3 * _X1: 7}, -1),
    ({1: -(2**126)}, {_X1: 2**63, 2 * _X1: 5}, {_X1 + 1: 2**63}, -1),
    ({}, {2 * _X1: -(2**127)}, {_X1: 3}, -1),
]
_FIELD_OVERFLOWS = [
    ({1: 2**126}, {_X1: 2**63}, {_X1 + 1: 2**63, 3 * _X1: 7}, 1),
    ({}, {_X1: -(2**127), 2 * _X1: 1}, {_X1: 1}, -1),
]


# the same for homogeneous operands in four variables, which the compiled
# kernel sums on its slab path: 2^63 x1 x3^255 times 2^63 x1 meets the range
# end at x1^2 x3^255 (_SLAB_KEY), while the product of a's second term,
# x2^255 x3, lies in another slab (x2 and x3 take 256 values each, which
# fill a slab, so x1's exponent names it)
_SLAB_A, _SLAB_A2, _SLAB_B = _pack((1, 0, 255, 0)), _pack((0, 255, 1, 0)), _pack((1, 0, 0, 0))
_SLAB_KEY = _SLAB_A + _SLAB_B
_SLAB_OTHER_DEGREE_257 = _pack((2, 0, 0, 255))
_SLAB_FITS = [
    ({_SLAB_KEY: 2**126 - 1}, {_SLAB_A: 2**63, _SLAB_A2: 3}, {_SLAB_B: 2**63}, 1),
    ({_SLAB_KEY: -(2**126)}, {_SLAB_A: 2**63, _SLAB_A2: -5}, {_SLAB_B: 2**63, 1: -5}, -1),
    ({_SLAB_OTHER_DEGREE_257: 1}, {_SLAB_A: -(2**127)}, {_SLAB_B: 1}, 1),
]
_SLAB_OVERFLOWS = [
    ({_SLAB_KEY: 2**126}, {_SLAB_A: 2**63}, {_SLAB_B: 2**63}, 1),
    ({}, {_SLAB_A: 2**99, _SLAB_A2: 1}, {_SLAB_B: -(2**99)}, -1),
    ({_SLAB_OTHER_DEGREE_257: 1}, {_SLAB_A: 1}, {_SLAB_B: -(2**127)}, -1),
]

# -1 * -1 * -2^127 fits, whichever operand holds -2^127: the sign goes into
# the other one, on the slab path (acc empty) and on the hash path (acc of
# degree 1, not the products' 257)
_SIGN_FITS = [
    (acc, a, b, -1)
    for acc in ({}, {1: 1})
    for a, b in [({_SLAB_A: -1}, {_SLAB_B: -(2**127)}), ({_SLAB_A: -(2**127)}, {_SLAB_B: -1})]
]


def _fma(impl, acc, a, b, sign, field=None):
    out = impl.from_dict(acc)
    out.fma(impl.from_dict(a), impl.from_dict(b), sign, field=field)
    return out


def check_range_ends(impl):
    """The named cases at the ends of the value range, on the compiled
    kernel ``impl``, without and with a field (a function, so that a
    sanitizer build can run it).  A refused fma leaves its accumulator as
    it was."""
    plain = _FMA_FITS + _SLAB_FITS + _SIGN_FITS
    for operands, field in [(o, None) for o in plain] + [(o, 8) for o in _FIELD_FITS]:
        got = _fma(impl, *operands, field=field).to_dict()
        assert got == _fma(DictPoly, *operands, field=field).to_dict()
    for operands in _SIGN_FITS:
        assert _fma(impl, *operands).to_dict()[_SLAB_KEY] == -(2**127)
    assert _fma(impl, *_FIELD_FITS[0], field=8).to_dict() == {1: -1}
    assert _fma(impl, *_SLAB_FITS[0]).to_dict()[_SLAB_KEY] == 2**127 - 1
    assert _fma(impl, *_SLAB_FITS[1]).to_dict()[_SLAB_KEY] == -(2**127)
    overflows = [(o, None) for o in _FMA_OVERFLOWS + _SLAB_OVERFLOWS]
    for (acc, a, b, sign), field in overflows + [(o, 8) for o in _FIELD_OVERFLOWS]:
        out = impl.from_dict(acc)
        with pytest.raises(OverflowError):
            out.fma(impl.from_dict(a), impl.from_dict(b), sign, field=field)
        assert out.to_dict() == acc


# (acc, products) for acc += the sum of sign * a * b over the (a, b, sign)
# products in one call.  The compiled kernel sums on int64 slabs when
# max|acc| + the sum of min(nnz a, nnz b) * max|a| * max|b| is below 2^63.
# With m = 2^30, (m x + m y)^2 holds 2 m^2 x y, two pairs at one key, and
# 2m x * 2m y adds 4 m^2 there: 3 * 2^61 in all, so acc = +-(2^61 - 1)
# puts the bound and the sum at x y at 2^63 - 1, and acc = +-2^61 at 2^63
_X, _Y = _pack((1, 0, 0)), _pack((0, 1, 0))


def _crossed(acc, sign):
    square = {_X: 2**30, _Y: 2**30}
    return {_X + _Y: acc}, [(square, square, sign), ({_X: 2**31}, {_Y: 2**31}, sign)]


_SUM_AT_THE_INT64_BOUND = [_crossed(2**61 - 1, 1), _crossed(-(2**61 - 1), -1)]
_SUM_PAST_THE_INT64_BOUND = [_crossed(2**61, 1), _crossed(-(2**61), -1)]
# where no one slab pass takes every product: none, one, products of two
# degrees, an operand that is not homogeneous, an exponent sum past 255
# (which carries into the next field, as DictPoly's key sums do)
_SUM_FALLBACKS = [
    ({_X: 3}, []),
    ({}, [({_X: 2}, {_Y: 3}, 1)]),
    ({_X: 1}, [({_X: 2}, {_Y: 3}, 1), ({0: 5}, {_X: 7}, -1)]),
    ({}, [({_X: 1, 0: 2}, {_Y: 3}, 1), ({_Y: 1}, {_X: 1}, -1)]),
    (
        {},
        [({_pack((0, 0, 200)): 3}, {_pack((0, 0, 100)): 5}, 1),
         ({_pack((0, 1, 199)): 1}, {_pack((0, 0, 100)): 2}, 1)],
    ),
]
# past the value range, though each product alone fits: on one slab pass,
# and one fma after another (the first operand is not homogeneous)
_SUM_OVERFLOWS = [
    ({_SLAB_KEY: 2**126}, [({_SLAB_A: 2**63}, {_SLAB_B: 2**62}, 1)] * 2),
    ({_X: 5}, [({_X: 1, 0: 1}, {0: 1}, 1), ({0: 2**126}, {_X: 2}, 1), ({0: 2**126}, {_X: 2}, 1)]),
]


def _fma_sum(impl, acc, products):
    out = impl.from_dict(acc)
    out.fma_sum([(impl.from_dict(a), impl.from_dict(b), sign) for a, b, sign in products])
    return out


def check_sums(impl):
    """The named fma_sum cases on the compiled kernel ``impl``, against
    DictPoly (a function, so that a sanitizer build can run it): at the
    int64 bound, just past it, where the sum falls back to one fma after
    another, and past the value range, where it leaves acc as it was."""
    cases = _SUM_AT_THE_INT64_BOUND + _SUM_PAST_THE_INT64_BOUND + _SUM_FALLBACKS
    for acc, products in cases:
        got = _fma_sum(impl, acc, products).to_dict()
        assert got == _fma_sum(DictPoly, acc, products).to_dict()
    for cases, total in [(_SUM_AT_THE_INT64_BOUND, 2**63 - 1), (_SUM_PAST_THE_INT64_BOUND, 2**63)]:
        for (acc, products), sign in zip(cases, (1, -1)):
            assert _fma_sum(impl, acc, products).to_dict()[_X + _Y] == sign * total
    for acc, products in _SUM_OVERFLOWS:
        out = impl.from_dict(acc)
        loaded = [(impl.from_dict(a), impl.from_dict(b), sign) for a, b, sign in products]
        with pytest.raises(OverflowError):
            out.fma_sum(loaded)
        assert out.to_dict() == acc


@_COMPILED
def test_compiled_fma_sum_at_the_int64_bound_and_past_the_range():
    check_sums(get_impl(fast=True))


def test_fma_sum_aliasing_rejected():
    for impl in {DictPoly, get_impl()}:
        acc, a = impl.from_dict({_X: 1}), impl.from_dict({_Y: 2})
        for products in ([(a, a, 1), (acc, a, 1)], [(a, acc, -1)], [(a, a, 2)]):
            with pytest.raises(ValueError):
                acc.fma_sum(products)
            assert acc.to_dict() == {_X: 1}


@st.composite
def _fma_sum_operands(draw):
    """(acc, products) in 3 variables: up to 5 products whose operands are
    homogeneous and whose products share one degree, as a minor of the DP
    is summed, except that an operand now and then has a term of another
    degree.  Coefficients are small, near 2^31 or up to 2^60, so that the
    int64 bound falls on either side and no sum leaves the value range."""
    deg = draw(st.integers(0, 6))
    coeff = st.integers(-50, 50) | st.integers(-(2**32), 2**32) | st.integers(-(2**60), 2**60)

    def key(d):
        e1 = draw(st.integers(0, d))
        e2 = draw(st.integers(0, d - e1))
        return _pack((e1, e2, d - e1 - e2))

    def terms(d, max_size=6):
        size = draw(st.integers(0, max_size))
        stray = draw(st.integers(0, 9)) == 0
        return {key(draw(st.integers(0, 6)) if stray else d): draw(coeff) for _ in range(size)}

    products = []
    for _ in range(draw(st.integers(0, 5))):
        da = draw(st.integers(0, deg))
        products.append((terms(da), terms(deg - da), draw(st.sampled_from((1, -1)))))
    acc = terms(draw(st.sampled_from((deg, deg, deg + 1))), 8)
    return acc, products


@settings(max_examples=150, deadline=None)
@given(_fma_sum_operands())
def test_fma_sum_matches_dict_fma_sum(operands):
    acc, products = operands
    expected = _fma_sum(DictPoly, acc, products).to_dict()
    assert _fma_sum(get_impl(), acc, products).to_dict() == expected


@pytest.mark.parametrize("operands", _FMA_FITS)
def test_fma_at_the_range_ends(operands):
    acc, a, b, sign = operands
    expected = acc.get(1, 0) + sign * a[0] * b[1]
    assert -(2**127) <= expected < 2**127
    for impl in {DictPoly, get_impl()}:
        assert _fma(impl, *operands).to_dict() == {1: expected}


@_COMPILED
def test_compiled_kernel_refuses_past_the_range_ends():
    check_range_ends(get_impl(fast=True))


@_COMPILED
def test_compiled_json_at_the_range_ends():
    check_json(get_impl(fast=True))


@_COMPILED
def test_compiled_tables_copy_at_the_range_ends():
    # every value an exact fma can leave loads back: copies and pickles
    # go through to_dict and from_dict
    impl = get_impl(fast=True)
    a = impl.from_dict({i: 2**45 for i in range(1024)})
    b = impl.from_dict({1023 - i: 2**45 for i in range(1024)})
    wide = impl.from_dict({})
    wide.fma(a, b, 1)
    assert wide.to_dict()[1023] == 2**100
    lowest = _fma(impl, *_FMA_FITS[2])
    assert lowest.to_dict() == {1: -(2**127)}
    for p in (wide, lowest, impl.from_dict({1: -(2**127), 2: 2**127 - 1})):
        d = p.to_dict()
        assert impl.from_dict(d).to_dict() == d
        assert copy.deepcopy(p).to_dict() == d


# +-(2^e + d) for e <= 126 and |d| <= 2, with extra weight on the exponents
# next to the int64 and 128-bit ends
_WIDE = st.builds(
    lambda sign, e, d: sign * ((1 << e) + d),
    st.sampled_from((1, -1)),
    st.integers(0, 126) | st.sampled_from((0, 1, 62, 63, 64, 125, 126)),
    st.integers(-2, 2),
)
_WIDE_TERMS = st.dictionaries(st.integers(0, 2), _WIDE, max_size=2)


def _wrapped(v):
    """v reduced modulo 2**128 into [-2**127, 2**127), as a kernel that
    wraps would hold it."""
    return (v + 2**127) % 2**128 - 2**127


@st.composite
def _fma_near_the_range_ends(draw):
    """(acc, a, b, sign) with coefficients as large as _WIDE.  In half of
    them a and b have one term each and acc holds, at the key of their
    product, what takes the sum to within 2 of an end of the range, inside
    or outside it."""
    sign = draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        return draw(_WIDE_TERMS), draw(_WIDE_TERMS), draw(_WIDE_TERMS), sign
    va, vb = draw(_WIDE), draw(_WIDE)
    total = draw(st.sampled_from((2**127, -(2**127)))) + draw(st.integers(-2, 2))
    return {1: _wrapped(total - sign * va * vb)}, {0: va}, {1: vb}, sign


@_COMPILED
@settings(max_examples=200, deadline=None)
@given(_fma_near_the_range_ends())
def test_compiled_results_are_exact_or_refused(operands):
    try:
        got = _fma(get_impl(fast=True), *operands).to_dict()
    except OverflowError:
        return
    assert got == _fma(DictPoly, *operands).to_dict()


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
    det, _ = det_minor_expansion(ident, impl)
    assert det.to_dict() == {0: 1}

    # [[0, 1], [1, 0]] has determinant -1 (needs the Laplace row sign)
    swap = [
        [impl.from_dict(zero), impl.from_dict(one)],
        [impl.from_dict(one), impl.from_dict(zero)],
    ]
    det, _ = det_minor_expansion(swap, impl)
    assert det.to_dict() == {0: -1}


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


def _sparse_entry(rng, nv):
    """A random integer polynomial, zero about a third of the time."""
    if rng.random() < 0.35:
        return Poly.zero(nv)
    exps = [tuple(rng.randrange(3) for _ in range(nv)) for _ in range(3)]
    return Poly.from_terms(nv, {e: rng.randrange(-4, 5) for e in exps})


@pytest.mark.parametrize("fast", [False, pytest.param(True, marks=_COMPILED)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_det_minor_expansion_cofactor(n, fast):
    # the minor of rows 0..n-2 without column 0, which verify's expand route
    # reads as its reduced determinant
    from shidcone.verify import bareiss_det

    impl = get_impl(fast)
    rng = random.Random(n)
    nv = 3
    for _ in range(6):
        matrix = [[_sparse_entry(rng, nv) for _ in range(n)] for _ in range(n)]
        rows = [[impl.from_dict(poly_to_int_dict(p)[0]) for p in row] for row in matrix]
        det, cofactor = det_minor_expansion(rows, impl)
        minor = bareiss_det([row[1:] for row in matrix[:-1]]) if n > 1 else Poly.one(nv)
        assert int_dict_to_poly(cofactor.to_dict(), 1, nv) == minor
        assert int_dict_to_poly(det.to_dict(), 1, nv) == bareiss_det(matrix)


_SANITIZED_RUN = """
import sys
from shidcone import detkernel

detkernel._CFLAGS += tuple(sys.argv[3].split())
detkernel._cache_dir = lambda: sys.argv[1]
try:
    detkernel._lib = detkernel._open_kernel()
except (OSError, detkernel._BuildError) as exc:
    print(exc)
    sys.exit(77)
sys.path.insert(0, sys.argv[2])
import test_detkernel
from shidcone import cli
from shidcone.verify import saito_verify

test_detkernel.check_range_ends(detkernel.IntPoly)
test_detkernel.check_sums(detkernel.IntPoly)
test_detkernel.check_dumps(detkernel.IntPoly)
test_detkernel.check_json(detkernel.IntPoly)
for ell in range(3, int(sys.argv[4]) + 1):
    assert saito_verify(ell, method="expand").saito_ok
assert saito_verify(3, method="certify").det_phi
out = sys.argv[1] + "/det.json"
argv = ["verify", "--ell", "3", "--format", "json", "--include-det", "--out", out]
assert cli.main(argv) == 0 and '"det_phi": [' in open(out).read()
"""


def _run_sanitized(tmp_path, flags, top_rank, env=None):
    """Run _SANITIZED_RUN on a kernel built with the sanitizer flags into
    tmp_path, with rank-3 to rank-top_rank expand; skip if the build or
    its load fails."""
    src = os.path.dirname(os.path.dirname(detkernel.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SANITIZED_RUN, str(tmp_path), os.path.dirname(__file__),
         flags, str(top_rank)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path, **(env or {})},
        timeout=120,
    )
    if proc.returncode == 77:
        pytest.skip(f"no sanitizer build of the kernel: {proc.stdout.strip()}")
    assert "runtime error" not in proc.stderr
    assert "AddressSanitizer" not in proc.stderr
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(detkernel._find_compiler() is None, reason="no C compiler on PATH")
def test_kernel_under_the_undefined_behaviour_sanitizer(tmp_path):
    # a sanitizer build aborts on any signed overflow the checked arithmetic
    # misses, such as negating -2**127, or that the int64 bound lets through
    _run_sanitized(tmp_path, "-fsanitize=undefined -fno-sanitize-recover=all", 3)


def _libasan() -> str | None:
    """Path of the C compiler's libasan.so, or None."""
    cc = detkernel._find_compiler()
    if cc is None:
        return None
    proc = subprocess.run([cc, "-print-file-name=libasan.so"], capture_output=True, text=True)
    path = proc.stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


def test_kernel_under_the_address_sanitizer(tmp_path):
    # an ASan build aborts on a read or write past an array the kernel
    # sized (offsets, runs, the slab, the output it reserved), a use after
    # free or a double free; Python is not instrumented, so the runtime is
    # preloaded, and it leaks by design
    libasan = _libasan()
    if libasan is None:
        pytest.skip("no C compiler with libasan.so")
    env = {"LD_PRELOAD": libasan, "ASAN_OPTIONS": "detect_leaks=0"}
    _run_sanitized(tmp_path, "-fsanitize=address,undefined -fno-sanitize-recover=all", 4, env)


@_COMPILED
def test_compiled_json_refuses_what_it_cannot_write():
    p = get_impl(fast=True).from_dict({_pack((1, 2)): 3})
    with pytest.raises(ZeroDivisionError):
        p.write_terms(print, 0, 2, 0)
    with pytest.raises(OverflowError):
        p.write_terms(print, 2**127, 2, 0)
    # x1 sits in field 1, past the one field of a single variable
    with pytest.raises(ValueError, match="1 variables"):
        p.write_terms(print, 1, 1, 0)
    out = []
    get_impl(fast=True).from_dict({}).write_terms(out.append, 1, 2, 3)
    assert out == ["[]"]
