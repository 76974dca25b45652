"""Text I/O shared by the parsers and writers: one way to read an input, one to render CSV."""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Mapping, Sequence


def read_text(path: Path | str, what: str, error: type[Exception]) -> str:
    """The content of the file at ``path`` read as UTF-8; a file that cannot be read or decoded raises ``error``.

    ``what`` names the input in the message: ``cannot read <what> file <path>: <reason>``.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from exc


def csv_text(rows: Mapping[str, Sequence]) -> str:
    """The header ``rows.keys()`` and then the rows, as ``csv.writer`` writes them with ``\\n`` line endings.

    ``rows`` maps each key to its column: row ``i`` holds each column's cell ``i``. Cells are written
    with ``str``, so floats keep their shortest round-trip form. Rows fill one ``%``-template; a row
    with a text cell that needs quoting goes through ``csv.writer`` instead.
    """

    def written(row) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(row)
        return buf.getvalue()

    quoted = (",", '"', "\r", "\n")  # a cell that holds one of these may need quotes: csv.writer decides
    columns = list(rows.values())
    lines = list(map((",".join(["%s"] * len(columns)) + "\n").__mod__, zip(*columns)))
    for column in columns:
        text = "".join(map(str, column)) if str in set(map(type, column)) else ""
        if any(mark in text for mark in quoted) or (len(columns) == 1 and "" in column):  # "" alone is quoted
            for index, cell in enumerate(column):
                if not cell or any(mark in str(cell) for mark in quoted):
                    lines[index] = written([other[index] for other in columns])
    return written(rows) + "".join(lines)
