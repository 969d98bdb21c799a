"""The file conventions shared by every file the package reads and writes.

Floats are written with 17 significant digits, which round-trips any
float64 exactly. An unreadable file or malformed CSV or JSON content
raises ParseError naming the file and, where known, the 1-based line.
Every JSON field, of a config or of ``model.json``, is read by ``_typed``.
"""

import json
from types import UnionType

import numpy as np

from .exceptions import ParseError

_FLOAT = ".17g"

# Rows converted to Python floats at a time by write_csv.
_ROW_BLOCK = 1024


def fmt(v) -> str:
    return format(float(v), _FLOAT)


def write_csv(path, header, rows) -> None:
    """Header line, then one line per row of as many floats as the
    header has cells, each written as ``fmt`` writes it."""
    # "%" + _FLOAT applied to float(v) gives fmt(v); one template per
    # line spares a call per value, and converting rows to Python floats
    # a block at a time spares a float() per value without holding every
    # row's floats at once
    line = ",".join(["%" + _FLOAT] * len(header)) + "\n"
    rows = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows),
                      dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), _ROW_BLOCK):
            fh.writelines(line % tuple(row) for row
                          in rows[start:start + _ROW_BLOCK].tolist())


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
