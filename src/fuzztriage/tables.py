"""The CSV table format shared by every input file and every artifact.

A table is UTF-8 text, optionally starting with a byte order mark. Blank rows
and rows whose first field starts with ``#`` (such as the artifact stamp) are
skipped; the first remaining row is the header and every later row must have
as many fields as the header. Rows are numbered with the header as row 1 and
skipped rows not counted, and every reader names rows by that number.

A text column read from a table, or built for one, is held as a :class:`Coded`
column: its distinct texts once, and one integer code per row. Per-row work
(mapping, grouping, counting, quoting) then runs on the codes, and each
distinct text is handled once.

Writers that hold their rows as arrays write them with :func:`write_rows`:
each column brings its cells and its own row index, and row i of the artifact
holds ``cells[index[i]]`` of each column. A cell is the UTF-8 bytes of one or
more fields padded with :data:`PAD`; a row's cells are laid out with ``,``
between them and ``\r\n`` after the last, one mask drops the padding, and
the bytes that are left go to the file as they are.
"""

from __future__ import annotations

import csv
import io
import operator
from pathlib import Path
from typing import BinaryIO, Callable, Hashable, Iterable, Iterator, Sequence, TextIO

import numpy as np

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


def table_lines(path: str | Path) -> tuple[list[str], Iterator[str]]:
    """Open a table and read its header as :func:`read_table` does; return
    the stripped header names and the file's later lines as they are, line
    endings kept (a line ends at LF, CRLF or a bare CR, so a quoted field
    may span lines). Text that is not UTF-8 raises ``UnicodeDecodeError``."""
    lines = _lines(Path(path))
    return next(lines), lines


def _lines(path: Path) -> Iterator:
    try:
        fh = path.open(newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise ParseError(f"{path}: file not found") from None
    with fh:
        yield [name.strip() for name in next(table_rows(fh), ())]
        yield from fh


def table_rows(lines: Iterable[str], stop: int | None = None) -> Iterator[list[str]]:
    """The rows of the table lines ``lines``, blank and comment rows skipped:
    all of them, or those that start in the first ``stop`` lines. csv.reader
    takes only the lines a row needs, so an iterator ``lines`` goes on at the
    line after the last row read."""
    reader = csv.reader(lines)
    for row in reader:
        if row and not row[0].startswith("#"):
            yield row
        if stop is not None and reader.line_num >= stop:
            return


def _table(path: Path, header: Sequence[str] | None) -> Iterator:
    try:
        names, lines = table_lines(path)
        if header is not None and names and (
            [n.lower() for n in names] != [h.lower() for h in header]
        ):
            expected, got = ",".join(header), ",".join(names)
            raise ParseError(f"{path}: expected header {expected}, got {got}")
        yield names
        width = len(names)
        for n, row in enumerate(table_rows(lines), start=2):
            if len(row) != width:
                raise ParseError(f"{path}: row {n} has {len(row)} fields, expected {width}")
            yield n, row
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text") from exc


def read_keyed(
    path: str | Path, header: Sequence[str], what: str,
    parse: Callable[[list[str]], tuple[Hashable, object]],
) -> dict:
    """The values of a table with a fixed header, keyed, in file order:
    ``parse`` turns a row's stripped fields into its ``(key, value)`` or
    raises ``ValueError``. Every keyed input words its two row faults here."""
    values, first_row = {}, {}
    for n, row in read_table(path, header)[1]:
        try:
            key, value = parse([field.strip() for field in row])
        except ValueError as exc:
            raise ParseError(f"{path}: bad {what} row {n}: {exc}") from exc
        if key in first_row:
            raise ParseError(f"{path}: {what} {key!r} at row {n} repeats row {first_row[key]}")
        values[key], first_row[key] = value, n
    return values


class Coded(Sequence):
    """A column of texts (or other hashable values) held as its distinct
    ``names`` and one ``intp`` code per row: row i is ``names[codes[i]]``.

    It reads as the sequence of its rows and equals any sequence of the same
    values. The names are distinct and may include some that no row holds.
    """

    __slots__ = ("names", "codes")
    __hash__ = None

    def __init__(self, names: Sequence, codes: Sequence[int] | np.ndarray) -> None:
        self.names = tuple(names)
        self.codes = np.asarray(codes, dtype=np.intp)

    @classmethod
    def of(cls, values: Sequence | Coded) -> Coded:
        """The values coded by first appearance; a Coded column as it is."""
        if isinstance(values, Coded):
            return values
        values = values if isinstance(values, Sequence) else list(values)
        index = {value: n for n, value in enumerate(dict.fromkeys(values))}
        return cls(index, np.fromiter(map(index.__getitem__, values), np.intp, len(values)))

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int | slice):
        if isinstance(i, slice):
            return self.take(i)
        return self.names[self.codes[i]]

    def __iter__(self) -> Iterator:
        return map(self.names.__getitem__, self.codes.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def take(self, rows: Sequence[int] | np.ndarray) -> Coded:
        """The rows ``rows``, in that order."""
        return Coded(self.names, self.codes[rows])

    def map(self, fn: Callable) -> Coded:
        """``fn`` of each row, called once per name; names it makes equal merge."""
        mapped = Coded.of([fn(name) for name in self.names])
        return Coded(mapped.names, mapped.codes[self.codes])

    def present(self) -> np.ndarray:
        """The codes that some row holds, ascending."""
        return np.flatnonzero(np.bincount(self.codes, minlength=len(self.names)))


def _open_artifact(path: str | Path, stamp: str | None) -> BinaryIO:
    """Open an artifact for writing bytes, creating its directory, and write
    the ``# stamp`` line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = path.open("wb")
    if stamp is not None:
        fh.write(f"# {stamp}\n".encode())
    return fh


def write_artifact(path: str | Path, stamp: str | None) -> TextIO:
    """Open an artifact for writing as UTF-8, creating its directory, and
    write the ``# stamp`` line. Lines are written as given (``newline=""``):
    ``csv.writer`` rows end in ``\\r\\n``, text written by hand in ``\\n``."""
    return io.TextIOWrapper(_open_artifact(path, stamp), encoding="utf-8", newline="")


def csv_row(fields: Sequence[object]) -> str:
    """One row as ``csv.writer`` writes it, ``\\r\\n`` included."""
    out = io.StringIO()
    csv.writer(out).writerow(fields)
    return out.getvalue()


# --- the text of many rows at once ---------------------------------------------

ROWS_PER_WRITE = 1024  # rows gathered, joined and written at a time
FORMAT_BLOCK = 16384  # values formatted at a time: a block's temporaries fit in L2
PAD = 0xFF  # pads every cell; never a byte of UTF-8 text


_POW10 = np.array([float(10**k) for k in range(23)])  # exact: 10**22 is the last exact double
_SPLITTER = 2.0**27 + 1  # splits a double into two halves whose products are exact
_LEAD = 6  # character rows before the first digit, room for "-0.000"
# The text before the digits, right-aligned after PADs in the first _LEAD
# bytes of one 8-byte word: word 5 * negative + z holds the sign and, for
# z > 0, "0." and z - 1 zeros.
_PREFIXES = np.array(
    [(sign + (b"0." + b"0" * (z - 1) if z else b"")).rjust(_LEAD, pad).ljust(8, pad)
     for pad in [bytes([PAD])] for sign in (b"", b"-") for z in range(5)]
).view(np.uint64)


def _product_error(a: np.ndarray, b: np.ndarray, product: np.ndarray) -> np.ndarray:
    """``a * b - product`` exactly, where ``product`` is ``a * b`` rounded
    (Dekker's two-product: numpy has no fused multiply-add)."""
    halves = []
    for v in (a, b):
        c = _SPLITTER * v
        high = c - (c - v)
        halves.append((high, v - high))
    (ah, al), (bh, bl) = halves
    return ((ah * bh - product) + ah * bl + al * bh) + al * bl


def format_g(values: np.ndarray, precision: int) -> np.ndarray:
    """The bytes of ``"%.*g" % (precision, v)`` for each float64 ``v`` of
    ``values`` in C order, for precision 1 to 15: a ``uint8`` matrix of
    shape ``(width, n)`` whose column i holds value i's text between PADs.

    A finite nonzero ``|v|`` is scaled by an exact power of ten, at most
    1e22, into ``[10**(p-1), 10**p)``. That one rounding leaves the scaled
    value less than half an ulp from the exact product, and the scaled value
    and ``.5`` are both whole multiples of that ulp (at most 1/8 for 15
    digits). So rounding it to an integer gives the correctly rounded digits
    unless it ends in exactly ``.5``; there the sign of the exact product's
    error (Dekker's two-product) decides, and an exact tie goes to the even
    digit as ``%`` does. Zeros, inf, nan and values whose scale is not an
    exact power of ten, or whose scaled value misses the range (log10 may be
    one off next to a power of ten), are formatted by ``%``, once per
    distinct value of a block. The width depends only on the precision, so
    blocks of :data:`FORMAT_BLOCK` values are formatted into one matrix.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    out = np.full((_LEAD + precision + 7, x.size), PAD, np.uint8)
    for start in range(0, x.size, FORMAT_BLOCK):
        _format_block(x[start:start + FORMAT_BLOCK], precision, out[:, start:start + FORMAT_BLOCK])
    return out


def _format_block(x: np.ndarray, precision: int, out: np.ndarray) -> None:
    """:func:`format_g` of the values ``x`` into the PAD-filled columns ``out``."""
    n = x.size
    low, high = _POW10[precision - 1], _POW10[precision]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = np.abs(x)
        shift = (precision - 1) - np.floor(np.log10(a))
        fast = np.abs(shift) <= 22
        shift = np.where(fast, shift, 0).astype(np.intp)
        scale = _POW10[np.abs(shift)]
        up = shift >= 0
        y = np.where(up, a * scale, a / scale)
        fast &= (y >= low) & (y < high)
        whole = np.floor(y)
        frac = y - whole
        whole += frac > 0.5
    tie = np.flatnonzero(fast & (frac == 0.5))
    if tie.size:
        at, st, yt, wt = a[tie], scale[tie], y[tie], whole[tie]
        back = yt * st
        # The sign of the exact scaled value minus yt: of a * st - yt, or of
        # a - yt * st, where a - back is exact (the two are within 2 ulps).
        excess = np.where(
            up[tie], _product_error(at, st, yt), (at - back) - _product_error(yt, st, back)
        )
        whole[tie] += (excess > 0) | ((excess == 0) & (wt % 2 == 1))
    carry = whole == high  # rounded up to the next power of ten
    exp = (precision - 1) - shift + carry
    whole = np.where(fast & ~carry, whole, low)
    # The digits, one row each; every quotient is a whole number below 2**53,
    # so floor(whole / place) is exact. One spare row for the shift below.
    digits = np.zeros((precision + 1, n), np.uint8)
    for k in range(precision):
        place = _POW10[precision - 1 - k]
        digit = np.floor(whole / place)
        whole -= digit * place
        digits[k] = digit
    nonzero = np.not_equal(digits[:precision], 0)
    significant = (nonzero * np.arange(1, precision + 1, dtype=np.uint8)[:, None]).max(axis=0)
    digits += ord("0")

    fixed = (exp >= -4) & (exp < precision)
    point = np.where(fixed, exp + 1, 1)  # digits before the point; <= 0 for "0.000ddd"
    negative = np.signbit(x)
    # Rows: the prefix right-aligned before _LEAD, then the digits with the
    # point after the first `point` of them, then "e+dd". A text from `%`
    # starts at _LEAD and is at most precision + 7 long ("-2.22507e-308").
    prefixes = _PREFIXES.take(5 * negative + np.maximum(1 - point, 0))
    out[:_LEAD] = prefixes.view(np.uint8).reshape(n, 8)[:, :_LEAD].T
    at_point = np.where(point > 0, point, precision + 1).astype(np.uint8)
    # Row _LEAD + c holds digits[c] before the point, the point, and
    # digits[c - 1] after it: picked by uint8 arithmetic (which wraps), as
    # np.where is slow on uint8.
    column = np.arange(1, precision + 1, dtype=np.uint8)[:, None]
    zone = digits[1:] + (column >= at_point) * (digits[:-1] - digits[1:])
    zone += (column == at_point) * (ord(".") - digits[:-1])
    out[_LEAD] = digits[0]
    out[_LEAD + 1:_LEAD + precision + 1] = zone
    shown = np.maximum(significant, point)
    end = _LEAD + shown + (shown > at_point)
    past_end = np.arange(_LEAD, _LEAD + precision + 1)[:, None] >= end
    out[_LEAD:_LEAD + precision + 1] |= past_end * np.uint8(PAD)

    sci = np.flatnonzero(fast & ~fixed)
    if sci.size:
        e = exp[sci]
        tail = np.stack([np.full(sci.size, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                         np.abs(e) // 10 + ord("0"), np.abs(e) % 10 + ord("0")])
        out[end[sci] + np.arange(4)[:, None], sci] = tail
    slow = np.flatnonzero(~fast)
    if slow.size:
        bits = x[slow].view(np.uint64)  # -0.0 and nan payloads stay apart
        distinct, which = _distinct(bits)
        texts = text_cells(["%.*g" % (precision, v) for v in distinct.view(np.float64).tolist()])
        out[:, slow] = PAD  # the fast path's bytes for these columns are not their text
        out[_LEAD:_LEAD + texts.shape[1], slow] = texts[which].T


def text_cells(texts: Sequence[str]) -> np.ndarray:
    """The UTF-8 bytes of each text as one row of a ``uint8`` matrix,
    padded with :data:`PAD` to the longest text."""
    encoded = [text.encode() for text in texts]
    length = np.fromiter(map(len, encoded), np.intp, len(encoded))
    cells = np.full((len(encoded), length.max(initial=0)), PAD, np.uint8)
    cells[np.arange(cells.shape[1]) < length[:, None]] = np.frombuffer(b"".join(encoded), np.uint8)
    return cells


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct integers of ``values``, ascending, and each value's index
    among them; by sort and search, which page in less of numpy than
    ``np.unique`` with its index outputs."""
    ascending = np.sort(values)
    first = np.ones(ascending.size, bool)
    first[1:] = ascending[1:] != ascending[:-1]
    distinct = ascending[first]
    return distinct, np.searchsorted(distinct, values)


def quoted_cells(columns: Sequence[Coded]) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`text_cells` of each distinct row of the equally long coded
    ``columns`` (its fields as ``csv.writer`` writes them after a row's first
    field) and each row's index among them. Rows are told apart by code."""
    sizes = [len(column.names) for column in columns]
    key = np.ravel_multi_index([column.codes for column in columns], sizes)
    distinct, which = _distinct(key)
    parts = np.unravel_index(distinct, sizes)
    rows = zip(*(map(c.names.__getitem__, part.tolist()) for c, part in zip(columns, parts)))
    cells = text_cells([csv_row(("", *row))[1:-2] for row in rows])  # drop "," and "\r\n"
    return cells, which


def g_cells(values: np.ndarray, precision: int) -> np.ndarray:
    """One cell for each row of the 2-D ``values``: the :func:`format_g`
    texts of its values, separated by ``,``."""
    (n, k), chars = values.shape, format_g(values, precision)
    used = chars[(chars != PAD).any(axis=1)]  # the character rows some text reaches
    chars = np.vstack([used, np.full((1, n * k), ord(","), np.uint8)])  # and a "," after each
    return chars.T.reshape(n, k * len(chars))[:, :-1]


def write_rows(
    path: str | Path, stamp: str | None, header: Sequence[str],
    columns: Sequence[tuple[np.ndarray | tuple[np.ndarray, int], np.ndarray]],
) -> None:
    """Write the data rows as ``csv.writer`` would, :data:`ROWS_PER_WRITE` at a time. A
    column ``(cells, index)`` puts ``cells[index[i]]`` in row i; its cells are a matrix of
    cells or a 2-D float array and its precision, formatted per chunk by :func:`g_cells`."""
    with _open_artifact(path, stamp) as fh:
        fh.write(csv_row(header).encode())
        for start in range(0, len(columns[0][1]), ROWS_PER_WRITE):
            chunks = [(c, index[start:start + ROWS_PER_WRITE]) for c, index in columns]
            comma = np.full((len(chunks[0][1]), 1), ord(","), np.uint8)
            cells = (g_cells(c[0][i], c[1]) if isinstance(c, tuple) else c[i] for c, i in chunks)
            line = np.concatenate([*(x for cell in cells for x in (cell, comma)), comma], axis=1)
            line[:, -2:] = np.frombuffer(b"\r\n", np.uint8)  # in place of the last ","
            fh.write(np.compress((line != PAD).ravel(), line))
            del line  # freed before the next chunk's floats are formatted
