"""The CSV table format shared by every input file and every artifact.

A table is UTF-8 text, optionally starting with a byte order mark. Blank rows
and rows whose first field starts with ``#`` (such as the artifact stamp) are
skipped; the first remaining row is the header and every later row must have
as many fields as the header. Rows are numbered with the header as row 1 and
skipped rows not counted, and every reader names rows by that number.

Writers that hold their rows as arrays build the text of many rows at once,
:data:`ROWS_PER_WRITE` rows at a time: :func:`format_g` gives the ``%g``
text of many floats, :func:`encode_texts` and :func:`csv_tails` that of
strings, and :func:`join_rows` puts them together into rows (:func:`g_rows`
into one string per row).
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Hashable, Iterator, NamedTuple, Sequence, TextIO

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


def csv_row(fields: Sequence[object]) -> str:
    """One row as ``csv.writer`` writes it, ``\\r\\n`` included."""
    out = io.StringIO()
    csv.writer(out).writerow(fields)
    return out.getvalue()


# --- the text of many values at once -------------------------------------------

ROWS_PER_WRITE = 2048  # rows formatted, joined and written at a time


class Texts(NamedTuple):
    """The text of n values, one column each: value i is the bytes
    ``chars[begin[i]:end[i], i]``."""

    chars: np.ndarray  # uint8, (width, n)
    begin: np.ndarray
    end: np.ndarray

    def take(self, indices: np.ndarray) -> "Texts":
        # np.take copies in C order; chars[:, indices] would be in Fortran
        # order, which makes the scatter in join_rows several times slower
        return Texts(self.chars.take(indices, 1), self.begin[indices], self.end[indices])


def encode_texts(strings: Sequence[str]) -> Texts:
    """The UTF-8 bytes of each string, trailing NULs included."""
    encoded = [s.encode() for s in strings]
    end = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
    width = max(int(end.max(initial=0)), 1)
    # An S array drops trailing NULs only when read back as bytes; its
    # buffer keeps them, and ``end`` says where each text stops.
    chars = np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(len(encoded), width)
    return Texts(np.ascontiguousarray(chars.T), np.zeros_like(end), end)


def csv_tails(keys: Sequence[tuple[Hashable, ...]]) -> Texts:
    """The last fields of each row as ``csv.writer`` writes them after a
    ``,``, ``\\r\\n`` included; each distinct key is written once."""
    index = {key: n for n, key in enumerate(dict.fromkeys(keys))}
    rows = np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys))
    return encode_texts([csv_row(("",) + key)[1:] for key in index]).take(rows)


_POW10 = np.array([float(10**k) for k in range(23)])  # exact: 10**22 is the last exact double
_SPLITTER = 2.0**27 + 1  # splits a double into two halves whose products are exact
_LEAD = 6  # character rows before the first digit, room for "-0.000"
# The text before the digits, right-aligned: column 5 * negative + z holds
# the sign and, for z > 0, "0." and z - 1 zeros.
_PREFIXES = np.array(
    [(sign + (b"0." + b"0" * (z - 1) if z else b"")).rjust(_LEAD) for sign in (b"", b"-") for z in range(5)]
).view(np.uint8).reshape(10, _LEAD).T.copy()
_SCATTER_SIZE = 1 << 16  # index entries join_rows builds at a time


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


def format_g(values: np.ndarray, precision: int) -> Texts:
    """The bytes of ``"%.*g" % (precision, v)`` for each float64 ``v`` of
    ``values`` in C order, for precision 1 to 15.

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
    distinct value.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
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
    out = np.empty((_LEAD + precision + 7, n), np.uint8)
    out[:_LEAD] = _PREFIXES.take(5 * negative + np.maximum(1 - point, 0), axis=1)
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
    begin = _LEAD - negative - (point <= 0) * (2 - point)
    end = _LEAD + shown + (shown > at_point)

    sci = np.flatnonzero(fast & ~fixed)
    if sci.size:
        e = exp[sci]
        tail = np.stack([np.full(sci.size, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                         np.abs(e) // 10 + ord("0"), np.abs(e) % 10 + ord("0")])
        out[end[sci] + np.arange(4)[:, None], sci] = tail
        end[sci] += 4
    slow = np.flatnonzero(~fast)
    if slow.size:
        bits = x[slow].view(np.uint64)  # -0.0 and nan payloads stay apart
        distinct = np.sort(bits)
        distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
        texts = encode_texts(["%.*g" % (precision, v) for v in distinct.view(np.float64).tolist()])
        which = np.searchsorted(distinct, bits)
        out[_LEAD:_LEAD + texts.chars.shape[0], slow] = texts.chars[:, which]
        begin[slow] = _LEAD
        end[slow] = _LEAD + texts.end[which]
    return Texts(out, begin.astype(np.uint8), end.astype(np.uint8))


def g_rows(values: np.ndarray, precision: int) -> list[str]:
    """Each row of a 2-D array as the :func:`format_g` texts of its values,
    each followed by ``,``; ``[[1.5, 2.0]]`` gives ``["1.5,2,"]``."""
    rows: list[str] = []
    newline = encode_texts(["\n"])  # never in a %g text
    for start in range(0, len(values), ROWS_PER_WRITE):
        part = values[start:start + ROWS_PER_WRITE]
        ends = newline.take(np.zeros(len(part), np.intp))
        rows += join_rows([format_g(part, precision)], ends).split("\n")[:-1]
    return rows


def join_rows(fields: Sequence[Texts], tails: Texts) -> str:
    """CSV rows, one per tail: the values of each field in turn, each
    followed by ``,``, then the row's tail. A field with k values a row
    holds them row by row, ``rows * k`` in all."""
    rows = len(tails.end)
    if not rows:
        return ""
    blocks = [*fields, tails]
    widths = np.concatenate([(b.end - b.begin).reshape(rows, -1) for b in blocks], axis=1)
    widths = widths.astype(np.intp)
    widths[:, :-1] += 1  # the separator after each value
    ends = np.cumsum(widths)
    size = int(ends[-1])
    starts = (ends - widths.ravel()).reshape(rows, -1)
    # Every byte no text covers is a separator; byte `size` takes the
    # writes of each column a text does not use.
    buf = np.full(size + 1, ord(","), np.uint8)
    first = 0
    for block in blocks:
        k = len(block.end) // rows
        if not k:
            continue
        base = starts[:, first:first + k].ravel() - block.begin - size
        # as many columns at a time as keep `at` to _SCATTER_SIZE entries
        step = max(_SCATTER_SIZE // len(block.end), 1)
        stop = int(block.end.max())
        for lo in range(int(block.begin.min()), stop, step):
            hi = min(lo + step, stop)
            c = np.arange(lo, hi, dtype=block.begin.dtype)[:, None]
            # where each byte of columns lo:hi goes, or the dump byte where
            # a text has none (masked copies and np.where are slower)
            at = base + c
            at *= (block.begin <= c) & (c < block.end)
            at += size
            buf[at] = block.chars[lo:hi]
        first += k
    return buf[:size].tobytes().decode("utf-8")
