"""Text I/O shared by the parsers and writers: reading input sources and rendering CSV."""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Any, Iterable


def read_text(source: Any) -> str:
    """Return text content from bytes, str, a Path, or a readable stream.

    A plain ``str`` is treated as content, not as a file name; use a
    ``pathlib.Path`` (or the ``load_*`` helpers) to read from disk.
    """
    if isinstance(source, Path):
        return source.read_text(encoding="utf-8")
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    data = source.read()
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def csv_text(header: Iterable, rows: Iterable[Iterable]) -> str:
    """Render a header and rows as CSV with ``\\n`` line endings.

    Cells are written with ``str``, so floats keep their shortest round-trip form.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
