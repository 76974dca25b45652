"""The payload writers: the bytes of ``json.dumps(obj, indent=2)`` and of ``csv.writer``; no NaN or infinity in either."""

import csv
import io
import json
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loadcomp._sourceio import ColumnLengthError, PayloadError, Rows, csv_text, json_text

# keys and strings that JSON must escape: quotes, backslashes, control characters,
# non-ASCII and astral text, and "%", which a row template must not read as a placeholder
texts = st.text(alphabet='az%"\\/\x00\x01\t\n\x1f\x7fü€ 🧊', max_size=6)
# printable ASCII, which a row template writes in quotes as it is, now and then with a '"' or '\' that it cannot
ascii_texts = st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=6)
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 0.0, 5e-324, 1e300])
scalars = st.none() | st.booleans() | st.integers() | finite_floats | texts
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts | scalars, inner, max_size=3),
    max_leaves=4,
)
# cells of one type per key, as payload rows have, or of any kind, which the writer must tell apart
cell_kinds = [texts, ascii_texts, st.integers(), finite_floats, st.booleans(), scalars, values]


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
BIG = sys.float_info.max  # two of them sum to inf, so each cell is checked on its own


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
@example({"big": [BIG, BIG]})  # finite cells whose sum overflows
def test_writes_the_bytes_of_the_indenting_encoder(payload):
    assert json_text(payload) == json.dumps(payload, indent=2) + "\n"


@settings(max_examples=30)
@given(payloads, texts, NON_FINITE.flatmap(containing))
@example({}, "big", [BIG, BIG, math.nan])  # the overflowing columns below, a NaN appended
@example({}, "big", Rows(x=[BIG, BIG, math.nan]))
@example({}, "big", Rows(hour=[0, 1, 2], kw=Rows(x=[BIG, BIG, math.nan])))
def test_a_non_finite_float_anywhere_is_refused(payload, key, value):
    payload[key] = value
    with pytest.raises(PayloadError, match="not a finite number"):
        json_text(payload)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_float_key_is_refused(bad):
    with pytest.raises(PayloadError, match="not a finite number"):
        json_text({"a": {1: 2, bad: 3}})


@st.composite
def rows_and_lists(draw, size=None, depth=0):
    """A ``Rows`` and the list of dicts it stands for; a column holds cells of one kind, or is a ``Rows`` itself.

    A ``Rows`` nests two deep at most; the columns of all its levels fill one row template.
    """
    size = draw(st.integers(0, 4)) if size is None else size
    columns, plain = {}, {}
    for key in draw(st.lists(texts, min_size=1, max_size=3, unique=True)):
        if depth < 2 and draw(st.booleans()):
            columns[key], plain[key] = draw(rows_and_lists(size, depth + 1))
        else:
            cells = draw(st.lists(draw(st.sampled_from(cell_kinds)), min_size=size, max_size=size))
            columns[key] = plain[key] = draw(st.sampled_from([list, tuple]))(cells)
    return Rows(columns), [dict(zip(plain, cells)) for cells in zip(*plain.values())]


@st.composite
def payloads_with_rows(draw):
    """A payload that holds ``Rows`` (as a value, in a list, in an object), and the same payload with lists of dicts."""
    with_rows, plain = {}, {}
    for key in draw(st.lists(texts, max_size=4, unique=True)):
        where = draw(st.sampled_from(["rows", "list", "object", "value"]))
        if where == "rows":
            with_rows[key], plain[key] = draw(rows_and_lists() | st.just((Rows(), [])))
        elif where == "list":
            items = draw(st.lists(rows_and_lists() | values.map(lambda value: (value, value)), max_size=3))
            with_rows[key], plain[key] = [item for item, _ in items], [item for _, item in items]
        elif where == "object":
            inner = {name: draw(rows_and_lists()) for name in draw(st.lists(texts, max_size=2, unique=True))}
            with_rows[key] = {name: rows for name, (rows, _) in inner.items()}
            plain[key] = {name: dicts for name, (_, dicts) in inner.items()}
        else:
            with_rows[key] = plain[key] = draw(values)
    return with_rows, plain


@settings(max_examples=60)
@given(payloads_with_rows())
@example((
    {"attribution": Rows(hour=[0, 1], kw=Rows({'A, "b"': [1.5, 0.0], "ü%s": [2.0, 3.0]}))},
    {"attribution": [{"hour": 0, "kw": {'A, "b"': 1.5, "ü%s": 2.0}}, {"hour": 1, "kw": {'A, "b"': 0.0, "ü%s": 3.0}}]},
))
@example((  # a Rows in a Rows in a Rows, and str columns with and without a character to escape
    {"r": Rows(id=["a-1", "b 2"], m=Rows(n=[1, 2], k=Rows({"q": ['x"y', "z"], "%d": ["50%", "\\"]})))},
    {"r": [{"id": "a-1", "m": {"n": 1, "k": {"q": 'x"y', "%d": "50%"}}},
           {"id": "b 2", "m": {"n": 2, "k": {"q": "z", "%d": "\\"}}}]},
))
@example(({"r": Rows(s=["plain", "ü"], t=["~ ", "\x7f"])},
          {"r": [{"s": "plain", "t": "~ "}, {"s": "ü", "t": "\x7f"}]}))
@example(({"r": Rows(a=[1, 2], b=[3, 2.5])},  # the first row's cells share a type, a later row's do not
          {"r": [{"a": 1, "b": 3}, {"a": 2, "b": 2.5}]}))
@example(({"r": Rows(hour=[], kw=Rows(a=[])), "s": [Rows(b=Rows(c=()))]}, {"r": [], "s": [[]]}))  # no rows
@example(({"r": Rows(a=[1], b=Rows())}, {"r": [{"a": 1, "b": {}}]}))  # a nested Rows of no keys is an empty object
@example((  # finite cells whose sum overflows, in a column and in a nested column
    {"r": Rows(x=[BIG, BIG]), "n": Rows(hour=[0, 1], kw=Rows(x=[BIG, BIG]))},
    {"r": [{"x": BIG}, {"x": BIG}], "n": [{"hour": 0, "kw": {"x": BIG}}, {"hour": 1, "kw": {"x": BIG}}]},
))
@example((  # two Rows of two columns each under other keys, one of them escaped: each has its own pieces
    {"a": Rows(x=[1, 2], y=["p", "q"]), "b": Rows({"x\nü": [3, 4], "y": ["r", "s"]})},
    {"a": [{"x": 1, "y": "p"}, {"x": 2, "y": "q"}], "b": [{"x\nü": 3, "y": "r"}, {"x\nü": 4, "y": "s"}]},
))
def test_rows_are_written_as_the_lists_of_dicts_they_stand_for(pair):
    with_rows, plain = pair
    assert json_text(with_rows) == json.dumps(plain, indent=2) + "\n"


@settings(max_examples=30)
@given(st.lists(finite_floats, min_size=1, max_size=4), st.data(), NON_FINITE, st.booleans())
def test_a_non_finite_float_in_a_rows_column_is_refused(column, data, bad, nested):
    column[data.draw(st.integers(0, len(column) - 1))] = bad
    rows = Rows(hour=list(range(len(column))), kw=Rows(x=column)) if nested else Rows(x=column)
    with pytest.raises(PayloadError, match="not a finite number"):
        json_text({"rows": rows})


UNEQUAL = {"ints": Rows(a=[1, 2], b=[1]), "empty": Rows(a=[1.5], b=[]), "quoted": Rows(a=["z", "x,y"], b=[1])}


@pytest.mark.parametrize("write, rows", [
    *[(lambda rows: json_text({"r": rows}), rows) for rows in UNEQUAL.values()],
    (lambda rows: json_text({"r": rows}), Rows(hour=[0, 1], kw=Rows(x=[1.0]))),
    *[(csv_text, rows) for rows in UNEQUAL.values()],
], ids=[*map("json-{}".format, UNEQUAL), "json-nested", *map("csv-{}".format, UNEQUAL)])
def test_columns_of_unequal_length_are_named_as_such(write, rows):
    with pytest.raises(ColumnLengthError, match=r"^columns differ in length: \d+, \d+$") as raised:
        write(rows)
    assert not isinstance(raised.value, (PayloadError, ValueError))


# text cells that csv.writer quotes, or leaves alone: separators, quotes, line breaks, NUL, non-ASCII and ""
csv_texts = st.text(alphabet=',"\r\n\x00 az%ü€🧊', max_size=5)
csv_scalars = [csv_texts, st.integers(), finite_floats, st.none(), st.booleans()]
# a column of one kind of scalar, of lists (whose str holds ", "), or of mixed finite cells
csv_cells = [*csv_scalars, st.lists(csv_texts | st.integers(), max_size=3), st.one_of(csv_scalars)]


@st.composite
def csv_rows(draw):
    size = draw(st.integers(0, 5))
    keys = draw(st.lists(csv_texts, min_size=1, max_size=4, unique=True))
    return Rows({key: draw(st.lists(draw(st.sampled_from(csv_cells)), min_size=size, max_size=size)) for key in keys})


@settings(max_examples=80)
@given(csv_rows())
@example(Rows(a=["", "x"]))  # one empty cell alone on a line is written as ""
@example(Rows({"a": ["1,2", ""], "b": [0, 1]}))
@example(Rows(x=[BIG, BIG]))  # finite cells whose sum overflows are written
@example(Rows(a=[None, None], b=[1, 2]))  # None is an empty field
@example(Rows(a=[[1, 2], [3]], b=[1, 2]))  # a cell whose str holds ", " is quoted
@example(Rows(hour=list(range(61)), activity=["TV"] * 30 + ['Fan, "ceiling"'] + ["TV"] * 30, kw=[0.5, 0.25] * 30 + [1.0]))
def test_csv_text_writes_the_bytes_of_csv_writer(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows)
    writer.writerows(zip(*rows.values()))
    assert csv_text(rows) == buf.getvalue()


@settings(max_examples=30)
@given(st.lists(finite_floats, min_size=1, max_size=40), st.integers(0, 39), NON_FINITE, st.booleans())
@example([1.5], 0, math.nan, True)
@example([1.0] * 30, 29, -math.inf, False)  # a long column of repeated cells, whose texts would be shared
@example([BIG, BIG, 1.0], 2, math.inf, True)  # finite cells whose sum overflows, then an infinity
def test_csv_text_refuses_a_non_finite_float_column(column, index, bad, beside):
    """The column rule of JSON: a float column holding a NaN or an infinity is refused, never written as ``nan``."""
    column[index % len(column)] = bad
    others = {"hour": [*range(len(column))], "activity": ["TV"] * len(column)} if beside else {}
    with pytest.raises(PayloadError, match="not a finite number"):
        csv_text(Rows(others, kw=column))


@st.composite
def repeated_columns(draw):
    """Columns longer than one day of hours, drawn from a few values as a metered series repeats them.

    The pool holds both zero signs, the smallest subnormal, a huge value and one ordinary float, and in some
    columns ``1`` and ``True``, which hash equal to ``1.0`` but are written otherwise.
    """
    size = draw(st.integers(25, 60))
    columns = {}
    for key in draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True)):
        pool = [0.0, -0.0, 5e-324, 1e300, 1.0, draw(finite_floats)] + ([1, True] if draw(st.booleans()) else [])
        columns[key] = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    return columns


@settings(max_examples=60)
@given(repeated_columns())
@example({"a": [0.0, -0.0] * 13})  # one dict key, two texts
@example({"a": [-0.0] + [0.0] * 24 + [-0.0], "b": [1.0] * 13 + [1] * 6 + [True] * 7})
def test_repeated_floats_are_written_as_the_encoders_write_each_cell(columns):
    rows = [dict(zip(columns, cells)) for cells in zip(*columns.values())]
    payload = {"rows": Rows(columns), "lists": dict(columns)}
    assert json_text(payload) == json.dumps({"rows": rows, "lists": columns}, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*columns.values()))
    assert csv_text(Rows(columns)) == buf.getvalue()
