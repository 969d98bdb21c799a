"""The file conventions shared by every file the package reads and writes.

Floats are written with 17 significant digits, which round-trips any
float64 exactly. An unreadable file or malformed CSV or JSON content
raises ParseError naming the file and, where known, the 1-based line.
"""

import json

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


def read_json(path):
    """The parsed content of a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc


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
