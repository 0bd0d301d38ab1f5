"""cli.emit_json writes exactly what json.dumps(indent=2) would write.

The reference is ``json.dumps(obj, indent=2, ensure_ascii=False) + "\\n"``,
applied to the same payload with each ``Poly`` replaced by its
``poly_terms_json`` term list.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shidcone.cli import emit_json
from shidcone.exactpoly import FIELD_MASK, Poly
from shidcone.shi_basis import poly_terms_json


def reference(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


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


def test_zero_poly_is_an_empty_list():
    payload = {"det": Poly.zero(3), "rows": [Poly.zero(1)]}
    assert emit_json(payload) == reference({"det": [], "rows": [[]]})


def test_non_string_keys_are_refused():
    # json.dumps would turn 1 into "1"; no payload has such a key
    with pytest.raises(TypeError):
        emit_json({1: True})
