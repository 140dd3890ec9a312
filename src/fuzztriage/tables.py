"""The CSV table format shared by every input file and every artifact.

A table is UTF-8 text, optionally starting with a byte order mark. Blank rows
and rows whose first field starts with ``#`` (such as the artifact stamp) are
skipped; the first remaining row is the header and every later row must have
as many fields as the header. Rows are numbered with the header as row 1 and
skipped rows not counted, and every reader names rows by that number.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterator, Sequence, TextIO

from .errors import ParseError


def read_table(
    path: str | Path, header: Sequence[str] | None = None
) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """Open a table and read its header; return the stripped header names
    and a stream of ``(row number, fields)`` for the data rows.

    When ``header`` is given the file's header must equal it, ignoring case.
    A file with no rows at all has an empty header and no data rows. The
    file stays open until the stream is exhausted or dropped.
    """
    rows = _table(Path(path), header)
    return next(rows), rows


def _table(path: Path, header: Sequence[str] | None) -> Iterator:
    try:
        fh = path.open(newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise ParseError(f"{path}: file not found") from None
    with fh:
        try:
            rows = (row for row in csv.reader(fh) if row and not row[0].startswith("#"))
            names = [name.strip() for name in next(rows, ())]
            if header is not None and names and (
                [n.lower() for n in names] != [h.lower() for h in header]
            ):
                expected, got = ",".join(header), ",".join(names)
                raise ParseError(f"{path}: expected header {expected}, got {got}")
            yield names
            width = len(names)
            for n, row in enumerate(rows, start=2):
                if len(row) != width:
                    raise ParseError(f"{path}: row {n} has {len(row)} fields, expected {width}")
                yield n, row
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text") from exc


def write_artifact(path: str | Path, stamp: str | None) -> TextIO:
    """Open an artifact for writing as UTF-8, creating its directory, and
    write the ``# stamp`` line. Lines are written as given (``newline=""``):
    ``csv.writer`` rows end in ``\\r\\n``, text written by hand in ``\\n``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = path.open("w", newline="", encoding="utf-8")
    if stamp is not None:
        fh.write(f"# {stamp}\n")
    return fh
