"""The CLI's JSON writer: the bytes of ``json.dumps(obj, indent=2)``, and no NaN or infinity."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loadcomp.cli import PayloadError, _json_payload

# keys and strings that JSON must escape: quotes, backslashes, control characters,
# non-ASCII and astral text, and "%", which a row template must not read as a placeholder
texts = st.text(alphabet='az%"\\/\x00\x01\t\n\x1f\x7fü€ 🧊', max_size=6)
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 0.0, 5e-324, 1e300])
scalars = st.none() | st.booleans() | st.integers() | finite_floats | texts
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts | st.integers(), inner, max_size=3),
    max_leaves=4,
)
# cells of one type per key, as payload rows have, or of any kind, which the writer must tell apart
cell_kinds = [texts, st.integers(), finite_floats, st.booleans(), scalars, values]


@st.composite
def row_shapes(draw, depth=0):
    """A strategy for dicts of one shape: the same keys in one order, some holding rows of one shape themselves."""
    keys = draw(st.lists(texts, min_size=1, max_size=3, unique=True))
    kinds = st.sampled_from(cell_kinds) | (row_shapes(depth + 1) if depth < 1 else st.nothing())
    return st.fixed_dictionaries({key: draw(kinds) for key in keys})


def row_lists(min_size=0):
    return row_shapes().flatmap(lambda row: st.lists(row, min_size=min_size, max_size=4))


payloads = st.dictionaries(texts, row_lists() | row_shapes().flatmap(lambda row: row) | values, max_size=4)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def containing(draw, bad):
    """A value that holds ``bad`` somewhere: in a row, in a nested container, or as itself."""
    where = draw(st.sampled_from(["itself", "row", "list", "dict"]))
    if where == "row":
        rows = draw(row_lists(min_size=1))
        draw(st.sampled_from(rows))[draw(st.sampled_from(list(rows[0])))] = bad
        return rows
    if where == "list":
        items = draw(st.lists(values, max_size=3))
        items.insert(draw(st.integers(min_value=0, max_value=len(items))), draw(containing(bad)))
        return items
    if where == "dict":
        return {**draw(st.dictionaries(texts, values, max_size=3)), draw(texts): draw(containing(bad))}
    return bad


@settings(max_examples=60)
@given(payloads)
@example({"rows": [{"a": 1, "b": 2}, {"b": 3, "a": 4}]})  # same keys, another order: not one template
def test_writes_the_bytes_of_the_indenting_encoder(payload):
    assert _json_payload(payload) == json.dumps(payload, indent=2) + "\n"


@settings(max_examples=30)
@given(payloads, texts, NON_FINITE.flatmap(containing))
def test_a_non_finite_float_anywhere_is_refused(payload, key, value):
    payload[key] = value
    with pytest.raises(PayloadError, match="not a finite number"):
        _json_payload(payload)
