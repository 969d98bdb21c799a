"""The file conventions shared by every file the package reads and writes.

Floats are written with 17 significant digits, which round-trips any
float64 exactly: ``fmt`` defines the text. ``write_csv`` writes the bytes
of a per-value ``fmt`` join, a block of rows at a time: a block of fewer
than ``_NUMPY_CELLS`` cells by that join, a larger one formatted in numpy
(``_format_block``), where a value it cannot decide exactly (zero, inf,
nan, a magnitude outside [1e-280, 1e280], a rounding within 1e-9 of a
tie) is written by ``fmt``. An unreadable file or malformed CSV or JSON
content raises ParseError naming the file and, where known, the 1-based
line.
Every numeric CSV cell is read by ``parse_number``, and every JSON field,
of a config or of ``model.json``, by ``_typed``.
"""

import functools
import json
import math
from types import UnionType
from typing import NamedTuple

import numpy as np

from .exceptions import ParseError

_FLOAT = ".17g"

# Rows formatted at a time by write_csv: a block's temporaries stay small.
_ROW_BLOCK = 256

# Cells from which _format_block is faster than the per-value fmt join:
# its fixed cost is about 110 us, and the join takes about 1 us a cell.
_NUMPY_CELLS = 120

# Magnitudes whose digits write_csv finds in numpy, and how near .5 the
# scaled fraction may come (its error is below 1e-14) before fmt decides.
_LOW, _HIGH = 1e-280, 1e280
_TIE = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into 26-bit halves
_POW = 300            # the power tables run from 10**-_POW to 10**_POW


def fmt(v) -> str:
    return format(float(v), _FLOAT)


def write_csv(path, header, rows) -> None:
    """Header line, then one line per row of as many floats as the
    header has cells, each written as ``fmt`` writes it."""
    rows = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows),
                      dtype=float)
    rows = rows.reshape(len(rows), len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, len(rows), _ROW_BLOCK):
            block = rows[start:start + _ROW_BLOCK]
            if block.size >= _NUMPY_CELLS:
                fh.write(_format_block(block))
            else:
                fh.write("".join(",".join(map(fmt, row)) + "\n"
                                 for row in block.tolist()).encode("utf-8"))


class _Tables(NamedTuple):
    """Read-only lookup tables of ``_format_block``. The 8-byte words
    are byte strings, combined by & and | alone, so byte order is moot."""
    hi: np.ndarray        # at e + _POW: 10**e, nearest double,
    lo: np.ndarray        # the nearest double to 10**e - hi,
    hi_high: np.ndarray   # hi's high and low 26-bit halves,
    hi_low: np.ndarray
    least: np.ndarray     # the least double not below 10**e,
    exponent: np.ndarray  # and the word "e+XX[X]"; the last word is empty
    head: np.ndarray      # word of sign, "0.000"[:k], lead digit, point
    four: np.ndarray      # word of g's 4 digits, a NUL after each
    zeros: np.ndarray     # count of g's trailing zeros, 4 for g = 0
    keep: np.ndarray      # [c, i]: digits 4i+1..4i+4 up to digit c
    point: np.ndarray     # [j + 1, i]: a point after digit j in word i


def _words(texts) -> np.ndarray:
    """Each byte string NUL-padded to one 8-byte word."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), "u8")


@functools.cache
def _tables() -> _Tables:
    """Built on first use, with integer arithmetic."""
    hi, lo, least = [], [], []
    for e in range(-_POW, _POW + 1):
        num, den = 10 ** max(e, 0), 10 ** max(-e, 0)
        h = num / den
        hn, hd = h.as_integer_ratio()
        rest = num * hd - hn * den
        hi.append(h)
        lo.append(rest / (den * hd))
        least.append(math.nextafter(h, math.inf) if rest > 0 else h)
    hi = np.array(hi)
    c = hi * _SPLIT
    hi_high = c - (c - hi)
    g = np.arange(10 ** 4)
    zeros = sum((g % 10 ** j == 0).astype(np.uint8) for j in (1, 2, 3, 4))
    zeros[0] = 4
    four = np.zeros((10 ** 4, 8), np.uint8)
    four[:, ::2] = g[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    tables = _Tables(
        hi, np.array(lo), hi_high, hi - hi_high, np.array(least),
        _words([b"e%+03d" % e for e in range(-_POW, _POW + 1)] + [b""]),
        # index ((sign * 6 + k) * 10 + lead) * 2 + point
        _words([b"\0-"[sign:sign + 1] + b"0.000"[:k].ljust(5, b"\0")
                + b"%d" % lead + b"."[:point]
                for sign in (0, 1) for k in range(6) for lead in range(10)
                for point in (0, 1)]),
        four.view(np.uint64).ravel(),
        zeros,
        _words([b"\xff\0" * min(max(c - 4 * i, 0), 4)
                for c in range(17) for i in range(4)]).reshape(17, 4),
        _words([b"\0\0" * (j - 1 - 4 * i) + b"\0."
                if 0 <= j - 1 - 4 * i < 4 else b""
                for j in range(-1, 17) for i in range(4)]).reshape(18, 4))
    for table in tables:
        table.flags.writeable = False
    return tables


def _format_block(block) -> np.ndarray:
    """The bytes of ``block``'s rows as the per-value ``fmt`` join writes
    them, a comma after each cell but the last of a row, which ends in a
    newline.

    a = |v| gets e = floor(log10 a), and q, a * 10**(16 - e) rounded to
    an integer, from Dekker's exact two-product with 10**(16 - e) as
    hi + lo. Six 8-byte words per cell lay out ``%.17g`` in fixed slots:
    sign, "0.000", the lead digit and a point; the other 16 digits, each
    with a point slot; the exponent and the separator. Unused bytes are
    NUL, and one compress drops them. ``fmt`` writes the values this
    cannot decide exactly: zero, inf, nan, magnitudes outside [_LOW,
    _HIGH], and scaled fractions within _TIE of .5.
    """
    tab = _tables()
    v = block.ravel()
    n = len(v)
    a = np.abs(v)
    decided = (a >= _LOW) & (a <= _HIGH)
    a[~decided] = 1.0
    # log10 may put e one off next to a power of ten
    e = np.floor(np.log10(a)).astype(np.intp)
    e -= a < tab.least[e + _POW]
    e += a >= tab.least[e + _POW + 1]
    k = 16 - e + _POW
    hi_high, hi_low = tab.hi_high[k], tab.hi_low[k]
    p = a * tab.hi[k]
    c = a * _SPLIT
    a_high = c - (c - a)
    a_low = a - a_high
    t = (((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high)
         + a_low * hi_low) + a * tab.lo[k]   # a * 10**(16 - e) == p + t
    whole = np.floor(t)
    t -= whole
    decided &= np.abs(t - 0.5) >= _TIE
    q = p.astype(np.int64) + whole.astype(np.int64) + (t > 0.5)
    top = q == 10 ** 17  # rounded up into the next decade
    q[top] = 10 ** 16
    e += top
    # q's digits: the lead one, then four groups of four, split in floats
    # once each part is below 2**53
    halves = np.empty((2, n))
    halves[0] = q // 10 ** 8
    halves[1] = q % 10 ** 8
    lead = np.floor(halves[0] / 1e8)
    halves[0] -= lead * 1e8
    high = np.floor(halves / 1e4)
    groups = np.stack([high[0], halves[0] - high[0] * 1e4,
                       high[1], halves[1] - high[1] * 1e4]).astype(np.intp)
    z = np.take(tab.zeros, groups)
    last = 16 - (z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (
        z[1] + (z[1] == 4) * z[0])))
    # fixed notation puts the point after digit e, or e < 0 in "0.000"
    fixed = (e >= -4) & (e < 17)
    dot = np.where(fixed, e, 0)
    point = np.where((last > dot) & (dot >= 0), dot, -1)
    out = np.empty((n, 6), np.uint64)
    out[:, 0] = np.take(tab.head, (
        (np.signbit(v) * 6 + np.where(dot < 0, 1 - dot, 0)) * 10
        + lead.astype(np.intp)) * 2 + (point == 0))
    out[:, 1:5] = (np.take(tab.four, groups.T)
                   & np.take(tab.keep, np.maximum(dot, last), axis=0)
                   | np.take(tab.point, point + 1, axis=0))
    out[:, 5] = np.take(tab.exponent, np.where(fixed, -1, e + _POW))
    chars = out.view(np.uint8)
    cells = chars.reshape(block.shape + (48,))
    cells[:, :-1, 45] = ord(",")
    cells[:, -1, 45] = ord("\n")
    undecided = np.flatnonzero(~decided)
    if undecided.size:
        text = b"".join(fmt(x).encode().ljust(45, b"\0")
                        for x in v[undecided].tolist())
        chars[undecided, :45] = np.frombuffer(text, np.uint8).reshape(-1, 45)
    flat = chars.ravel()
    return np.compress(flat != 0, flat)


def read_csv(path):
    """(header cells, [(lineno, line), ...]) with blank lines skipped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not lines:
        raise ParseError(f"{path}:1: empty file, expected a header row")
    header = [c.strip() for c in lines[0].split(",")]
    body = [(lineno, line) for lineno, line in enumerate(lines[1:], start=2)
            if line.strip()]
    return header, body


def read_json(path, error=ParseError):
    """The JSON object in a file; other JSON content raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            content = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if type(content) is not dict:
        raise error(f"{path}: content must be a JSON object")
    return content


_TYPE_NAMES = {int: "an integer", bool: "true or false", float: "a number",
               str: "a string", dict: "an object",
               list[int]: "a list of integers", list[float]: "a list of numbers",
               list[list[float]]: "a list of lists of numbers",
               list[dict]: "a list of objects", str | None: "a string or null",
               list[float] | None: "a list of numbers or null"}

_REQUIRED = object()


def _is_a(value, kind) -> bool:
    """JSON types read exactly: true is no integer and 1 no bool; a
    number (float) is an integer or a float; ``kind | None`` takes null."""
    if isinstance(kind, UnionType):
        return any(_is_a(value, k) for k in kind.__args__)
    if getattr(kind, "__origin__", None) is list:
        return type(value) is list and all(
            _is_a(v, kind.__args__[0]) for v in value)
    return type(value) in ((int, float) if kind is float else (kind,))


def _typed(obj, key, kind, default=_REQUIRED, owner="", error=ValueError):
    """obj[key], of the JSON type ``kind`` (a key of ``_TYPE_NAMES``),
    or ``default`` when the key is absent; with no default the key is
    required. Errors are ``error``s naming the key after ``owner``."""
    if key not in obj:
        if default is _REQUIRED:
            raise error(f"{owner or 'config '}needs {key!r}")
        return default
    value = obj[key]
    if not _is_a(value, kind):
        raise error(
            f"{owner}{key!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def parse_number(cell, kind=float):
    """``kind(cell)``, for ``kind`` float or int, of a CSV cell in ASCII
    without underscores: Python's own parsers read "1_5" as 15 and an
    Arabic-Indic two as 2, and such a cell raises ValueError here."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(f"invalid {kind.__name__} {cell!r}")
    return kind(cell)


def parse_row(path, lineno, line, width, parse):
    """``parse(cells)`` on a line of exactly ``width`` cells.

    A wrong cell count or a ValueError from ``parse`` becomes a
    ParseError naming ``path:lineno``.
    """
    cells = line.split(",")
    if len(cells) != width:
        raise ParseError(
            f"{path}:{lineno}: expected {width} columns, got {len(cells)}")
    try:
        return parse(cells)
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc
