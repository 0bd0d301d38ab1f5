"""cli.emit_json writes exactly what json.dumps(indent=2) would write.

The reference is ``json.dumps(obj, indent=2, ensure_ascii=False) + "\\n"``,
applied to the same payload with each ``Poly`` replaced by its
``poly_terms_json`` term list.  A ``KernelQuotient`` is written as its
``Poly``: on the compiled kernel by the C writer, which must give the bytes
of the Python loop.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shidcone import cli
from shidcone.cli import emit_json
from shidcone.detkernel import HAS_FAST_KERNEL, IntPoly, KernelQuotient, int_dict_to_poly
from shidcone.exactpoly import FIELD_MASK, Poly, _pack


def reference(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def poly_terms_json(poly: Poly) -> list:
    """[[exponent array, "num", "den"], ...] in descending pure-lex order,
    each coefficient in lowest terms, integers as decimal strings."""
    return [[list(mono), str(c.numerator), str(c.denominator)] for mono, c in poly.terms()]


def decoded(obj):
    """obj with each Poly replaced by its term list."""
    if isinstance(obj, Poly):
        return poly_terms_json(obj)
    if isinstance(obj, dict):
        return {key: decoded(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [decoded(value) for value in obj]
    return obj


texts = st.text() | st.sampled_from(['"', "\\", 'a "quoted" \\ path', "é", "Δ→∞", " ", "\x00"])
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    # --timings gives perf_counter differences
    | st.floats(min_value=0, max_value=1e4)
    | st.floats()
    | texts
)
payloads = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(texts, children, max_size=4),
    max_leaves=24,
)


@st.composite
def polys(draw):
    nvars = draw(st.integers(1, 8))
    exps = st.tuples(*[st.integers(0, FIELD_MASK)] * nvars)
    coeffs = st.builds(
        Fraction,
        st.integers(-(10**30), 10**30),
        st.integers(1, 10**6) | st.just(1),
    )
    return Poly.from_terms(nvars, draw(st.dictionaries(exps, coeffs, max_size=6)))


@st.composite
def payloads_with_polys(draw):
    """A Poly nested 0 to 3 levels deep, beside scalars and other Polys."""
    value = draw(polys())
    for _ in range(draw(st.integers(0, 3))):
        siblings = draw(st.lists(scalars | polys(), max_size=2))
        siblings.insert(draw(st.integers(0, len(siblings))), value)
        if draw(st.booleans()):
            value = siblings
        else:
            keys = draw(st.lists(texts, min_size=len(siblings), max_size=len(siblings), unique=True))
            value = dict(zip(keys, siblings))
    return value


@settings(max_examples=100, deadline=None)
@given(payloads)
def test_plain_payloads_match_json_dumps(obj):
    assert emit_json(obj) == reference(obj)


@settings(max_examples=100, deadline=None)
@given(payloads_with_polys())
def test_polys_are_written_as_their_term_lists(obj):
    assert emit_json(obj) == reference(decoded(obj))


@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("nvars", range(1, 8))
def test_dense_polys_match_json_dumps(nvars, depth):
    # (x1 + ... + x_{n-1} + 2z - 3)^5 / 7: its terms share the text of
    # each half of their keys and of each reduced denominator
    xs = [Poly.variable(nvars, i) for i in range(nvars)]
    base = sum(xs[:-1], Poly.zero(nvars)) + 2 * xs[-1] - 3
    for poly in (base**5 * Fraction(1, 7), Poly.zero(nvars)):
        value = poly
        for _ in range(depth):
            value = [value]
        assert emit_json(value) == reference(decoded(value))


def test_zero_poly_is_an_empty_list():
    payload = {"det": Poly.zero(3), "rows": [Poly.zero(1)]}
    assert emit_json(payload) == reference({"det": [], "rows": [[]]})


def test_non_string_keys_are_refused():
    # json.dumps would turn 1 into "1"; no payload has such a key
    with pytest.raises(TypeError):
        emit_json({1: True})


# -(2**127) and 2**127 - 1 are the ends of the compiled kernel's values
_ENDS = st.sampled_from((1, -1, 2**127 - 1, -(2**127)))
_VALUES = _ENDS | st.integers(-(2**127), 2**127 - 1).filter(bool)
# a denominator that shares a factor with every coefficient: 6 divides each
# coefficient but -2**127, which 2 divides
_SHARED = 2**60 * 3**30
_SHARING = st.integers(-(2**124), 2**124).filter(bool).map(lambda c: 6 * c) | st.just(-(2**127))


@st.composite
def kernel_terms(draw):
    """(terms, den, nvars): 1 to 7 variables, exponents 0..255."""
    nvars = draw(st.integers(1, 7))
    den = draw(st.sampled_from((1, -1, 1_000_003, -105, 2**63 - 1, _SHARED)))
    keys = st.tuples(*[st.integers(0, FIELD_MASK)] * nvars).map(_pack)
    values = _SHARING if den == _SHARED else _VALUES
    return draw(st.dictionaries(keys, values, min_size=1, max_size=8)), den, nvars


@pytest.mark.skipif(not HAS_FAST_KERNEL, reason="compiled kernel only")
@settings(max_examples=200, deadline=None)
@given(kernel_terms(), st.integers(0, 3), st.integers(1, 1200))
def test_c_writer_writes_what_the_python_loop_writes(operands, depth, chunk):
    # chunks of at most ``chunk`` bytes, the buffer grown when one term does
    # not fit: each chunk ends at a term's closing bracket
    terms, den, nvars = operands
    expected = []
    cli._write_terms(expected.append, int_dict_to_poly(terms, den, nvars), depth)
    got = []
    IntPoly.from_dict(terms).write_terms(got.append, den, nvars, depth, chunk=chunk)
    assert "".join(got) == "".join(expected)
    *chunks, closing = got
    assert closing == "\n" + "  " * depth + "]"
    assert all(piece.endswith("\n" + "  " * (depth + 1) + "]") for piece in chunks)


@pytest.mark.skipif(not HAS_FAST_KERNEL, reason="compiled kernel only")
@pytest.mark.parametrize("den", [2**127, -(2**127) - 1, 3**200])
def test_den_past_the_kernel_values_takes_the_python_loop(monkeypatch, den):
    terms = {_pack((2, 1)): -(2**127), _pack((0, 3)): 3**80}
    expected = emit_json([int_dict_to_poly(terms, den, 2)])

    def refused(*args, **kwargs):
        raise AssertionError("the C writer holds no such denominator")

    monkeypatch.setattr(IntPoly, "write_terms", refused)
    assert emit_json([KernelQuotient(IntPoly.from_dict(terms), den, 2)]) == expected
