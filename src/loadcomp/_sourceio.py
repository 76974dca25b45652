"""Text I/O shared by the parsers and the commands: one way to read an input, one to write each payload format."""

from __future__ import annotations

import csv
import io
import math
from itertools import filterfalse, repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Mapping, Sequence


def read_text(path: Path | str, what: str, error: type[Exception]) -> str:
    """The content of the file at ``path`` read as UTF-8; a file that cannot be read or decoded raises ``error``.

    ``what`` names the input in the message: ``cannot read <what> file <path>: <reason>``.
    """
    try:  # a str is read as a Path, whose OSError text names the path in its normal form
        with open(path if isinstance(path, Path) else Path(path), encoding="utf-8") as file:
            return file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from exc


class PayloadError(ValueError):
    """A result cannot be written: it is NaN or infinite, or an int with more digits than ``str`` writes."""

    def __str__(self) -> str:  # one message, whichever writer refused the value
        return "a result is not a finite number; an input value is out of range"


class Rows(dict):
    """A list of same-key dicts given as its columns: row ``i`` is ``{key: column[i] for key, column in items()}``.

    A column is a sequence, or a ``Rows`` whose rows are the column's dicts. :func:`json_text` writes
    a ``Rows`` as that list wherever it is, and :func:`csv_text` writes its keys as the header and then its rows.
    """


_CELL = {str: _quote, int: repr, float: repr,  # scalars written as json.dumps writes them
         bool: {True: "true", False: "false"}.get, type(None): {None: "null"}.get}


def float_texts(column: Sequence[float]) -> Sequence[str]:
    """The ``repr`` texts of ``column``'s cells, made once per distinct value when the cells repeat.

    ``column`` holds only ``float`` cells (``1``, ``1.0`` and ``True`` are one dict key). The texts are shared only
    for a column longer than one day of hours whose cells repeat, as a metered series' do: at most 3/4 of a sample
    of up to 1,024 cells spread along it are distinct, so a mostly distinct column is never read whole here.
    """
    if len(column) <= 24 or 4 * len(dict.fromkeys(sample := column[::len(column) // 1024 + 1])) > 3 * len(sample):
        return [*map(repr, column)]  # short or mostly distinct
    memo = dict.fromkeys(column)
    memo = dict(zip(memo, map(repr, memo)))
    texts = list(map(memo.__getitem__, column))
    if 0.0 in memo:  # 0.0 and -0.0 are one key with two texts
        for index in filterfalse(column.__getitem__, range(len(column))):
            texts[index] = repr(column[index])
    return texts


class ColumnLengthError(Exception):
    """Columns written as one set of rows differ in length: a ``Rows`` was built wrong, no input value is at fault."""


def row_count(columns: Sequence[Sequence]) -> int:
    """The one length of all ``columns`` (0 for none); columns of several lengths raise :class:`ColumnLengthError`."""
    lengths = [*map(len, columns)]
    if len(set(lengths)) > 1:
        raise ColumnLengthError(f"columns differ in length: {', '.join(map(str, lengths))}")
    return lengths[0] if lengths else 0


def interleave(pieces: Sequence[str], columns: Sequence[Sequence[str]], between="") -> str:
    """Row ``i`` as ``pieces[0] + columns[0][i] + pieces[1] + … + pieces[-1]``, with ``between`` after all but the last.

    One list holds the rows, a column set per slice, joined once.
    """
    rows, width = row_count(columns), 2 * len(columns) + 1
    row = [None] * width  # a slot for each cell between the pieces
    row[::2] = pieces
    row[-1] += between
    out = row * rows
    for at, column in enumerate(columns):
        out[2 * at + 1::width] = column
    if rows:
        out[-1] = pieces[-1]
    return "".join(out)


def _kind(values) -> type | None:
    """The one type of all of ``values``, or None; a float column must be finite. The column rule of both formats."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    # a finite sum has finite terms; a sum of finite terms can overflow, so only then is each term checked
    if kind is float and not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise PayloadError(values)
    return kind


def json_text(obj: dict) -> str:
    """``json.dumps(obj, indent=2) + "\\n"`` with each :class:`Rows` written as its list, refusing NaN and infinities.

    The indenting encoder is pure Python. Here the rows of a ``Rows`` are one :func:`interleave` of its columns'
    texts, and a list of cells of one type is converted in one pass.
    """
    try:
        return _text(obj, "\n") + "\n"
    except ValueError as exc:  # a NaN or an infinity, or an int with more digits than str() writes
        raise PayloadError(*exc.args) from None


def _text(value, indent: str) -> str:
    """``value`` as json.dumps writes it, ``indent`` starting each later line.

    Each text is built by one f-string, which copies a long item once; a chain of ``+`` would copy it at each step.
    """
    inner = indent + "  "
    if type(value) is dict:  # one key at a time
        items = (f"{inner}{_key(key)}: {_text(item, inner)}" for key, item in value.items())
        return f"{{{','.join(items)}{indent}}}" if value else "{}"
    if type(value) is Rows:
        rows = interleave(*_row_columns(value, inner), "," + inner)
        return f"[{inner}{rows}{indent}]" if rows else "[]"
    if type(value) in (list, tuple):  # one item on each line
        items = _texts(value, _kind(value), inner)
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    if type(value) is float and not -math.inf < value < math.inf:
        raise PayloadError(value)
    return _CELL[type(value)](value)


def _key(key) -> str:
    """An object key as json.dumps writes it: a str quoted, an int, float, bool or None written and then quoted."""
    return _quote(key) if type(key) is str else _quote(_text(key, ""))


def _texts(values, kind: type | None, indent: str) -> Sequence[str]:
    """The texts of ``values``, whose one type is ``kind`` (None for several), ``indent`` starting each later line."""
    if kind is float:
        return float_texts(values)
    return [*map(_CELL[kind], values)] if kind in _CELL else [*map(_text, values, repeat(indent))]


def _row_columns(rows: Rows, indent: str) -> tuple[list[str], list]:
    """The pieces of every row of ``rows``, ``indent`` starting its last line, and the text columns between them.

    Each key's text joins the last piece, and a nested ``Rows`` splices its own pieces in; a str column that ``_quote``
    would only put in quotes is used as it is, between pieces that hold the quotes."""
    inner = indent + "  "
    pieces, columns, separator = ["{"], [], ""
    for key, column in rows.items():
        if type(column) is Rows:
            (first, *rest), texts = _row_columns(column, inner)
        else:
            quote = '"' if (kind := _kind(column)) is str and _quotes_only("".join(column)) else ""
            (first, *rest), texts = (quote, quote), [column if quote else _texts(column, kind, inner)]
        pieces[-1] += f"{separator}{inner}{_key(key)}: {first}"
        pieces += rest
        columns += texts
        separator = ","
    pieces[-1] += indent + "}" if rows else "}"  # no key: "{}", as json.dumps writes an empty object
    return pieces, columns


def _quotes_only(text: str) -> bool:
    """True if ``_quote(text)`` is ``text`` in quotes: it is printable ASCII without ``"`` or ``\\``."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def csv_text(rows: Mapping[str, Sequence]) -> str:
    """The header ``rows.keys()`` and then the rows, as ``csv.writer`` writes them with ``\\n`` line endings.

    ``rows`` maps each key to its column: row ``i`` holds each column's cell ``i``. Each column is classified by
    :func:`_kind`, as in JSON, so a float column holding a NaN or an infinity is refused. A table of str, int and
    float columns is written as one :func:`interleave` of the cells' ``str`` (a float column's via ``float_texts``),
    unless a text cell may need quoting. That table, and any table with another column, is written whole by
    ``csv.writer``, which writes ``None`` as an empty field and quotes the text of any other cell as it needs.
    """
    columns = list(rows.values())
    row_count(columns)  # before zip drops the cells of a longer column
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows)
    kinds = [*map(_kind, columns)]
    # a text cell with a separator, a quote or a line break may need quotes, as does "" alone on a line
    joined = ["".join(column) for column, kind in zip(columns, kinds) if kind is str]
    if (not {str, int, float}.issuperset(kinds) or any(mark in text for text in joined for mark in ',"\r\n')
            or (len(columns) == 1 and "" in columns[0])):
        writer.writerows(zip(*columns))
        return buf.getvalue()
    texts = [float_texts(column) if kind is float else column if kind is str else [*map(str, column)]
             for column, kind in zip(columns, kinds)]
    pieces = ["", *[","] * (len(columns) - 1), "\n"] if columns else [""]
    return buf.getvalue() + interleave(pieces, texts)


def render_value(value: float) -> str:
    """``value`` rounded half up at one decimal place on the digits of its ``repr``, with no '.0'."""
    text = repr(value)
    mantissa, _, exponent = text.lstrip("-").partition("e")
    whole, _, fraction = mantissa.partition(".")
    shift = int(exponent or 0) - len(fraction) + 1  # |value| is the digits times 10**shift tenths
    digits = int(whole + fraction)
    if shift < 0:  # dividing by scale drops the digits below the tenths; adding half of it first rounds up
        scale = 10 ** -shift
        digits = (digits + scale // 2) // scale
    elif shift:
        digits *= 10 ** shift
    units, tenths = divmod(digits, 10)
    rounded = f"{units}.{tenths}" if tenths else str(units)
    return "-" + rounded if text[0] == "-" else rounded
