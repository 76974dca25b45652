"""Text I/O shared by the parsers and writers: one way to read an input, one to render CSV."""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable


def read_text(source: Path | str) -> str:
    """The content of ``source``: a file read as UTF-8, or a ``str`` taken as content."""
    return source.read_text(encoding="utf-8") if isinstance(source, Path) else source


def csv_text(header: Iterable, rows: Iterable[Iterable]) -> str:
    """Render a header and rows as CSV with ``\\n`` line endings.

    Cells are written with ``str``, so floats keep their shortest round-trip form.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
