"""Text I/O shared by the parsers and writers: one way to read an input, one to render CSV."""

from __future__ import annotations

import csv
import io
from itertools import filterfalse
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


class ColumnLengthError(ValueError):
    """Columns written as one set of rows differ in length."""


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


def csv_text(rows: Mapping[str, Sequence]) -> str:
    """The header ``rows.keys()`` and then the rows, as ``csv.writer`` writes them with ``\\n`` line endings.

    ``rows`` maps each key to its column: row ``i`` holds each column's cell ``i``. Cells are written
    with ``str``, so floats keep their shortest round-trip form (a float column's via ``float_texts``). A table with
    a text cell that may need quoting is written whole by ``csv.writer``, any other as one :func:`interleave`.
    """
    columns = list(rows.values())
    row_count(columns)  # before zip drops the cells of a longer column
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows)
    kinds = [set(map(type, column)) for column in columns]
    texts = [float_texts(column) if kind == {float} else column if kind == {str} else [*map(str, column)]
             for column, kind in zip(columns, kinds)]
    # a text cell with a separator, a quote or a line break may need quotes, as does "" alone on a line
    joined = ["".join(column) for column, kind in zip(texts, kinds) if str in kind]
    if any(mark in text for text in joined for mark in ',"\r\n') or (len(columns) == 1 and "" in columns[0]):
        writer.writerows(zip(*texts))
        return buf.getvalue()
    pieces = ["", *[","] * (len(columns) - 1), "\n"] if columns else [""]
    return buf.getvalue() + interleave(pieces, texts)
