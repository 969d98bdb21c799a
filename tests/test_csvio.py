"""``csvio.write_csv`` writes the bytes of a per-value ``fmt`` join, for
every kind of cell and every shape of rows its callers pass: prediction
and design arrays, one-value response rows, the IMSE curve's tuples and
the level histogram's int pairs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkrig.csvio import fmt, write_csv

_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
          1e308, -1e308, 1.7976931348623157e308, float("inf"),
          float("-inf"), float("nan"), 0.1, 1 / 3]

_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from(_EDGES))
_cells = st.one_of(
    _floats,
    st.integers(-2**63, 2**63),
    _floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
)


def _reference(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(fmt(v) for v in row)
                                  for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _written(tmp_path, header, rows) -> bytes:
    path = tmp_path / "out.csv"
    write_csv(path, header, rows)
    return path.read_bytes()


@st.composite
def _tables(draw):
    """(header, rows) in one of the shapes the library writes."""
    width = draw(st.integers(1, 8))
    header = [f"c_{j}" for j in range(width)]
    shape = draw(st.sampled_from(["cells", "array", "responses", "curve",
                                  "histogram"]))
    n = draw(st.integers(0, 12))
    if shape == "cells":
        return header, draw(st.lists(
            st.lists(_cells, min_size=width, max_size=width),
            min_size=n, max_size=n))
    if shape == "array":
        values = draw(st.lists(_floats, min_size=n * width,
                               max_size=n * width))
        return header, np.array(values, dtype=float).reshape(n, width)
    if shape == "responses":
        values = np.array(draw(st.lists(_floats, min_size=n, max_size=n)))
        return ["value"], [[v] for v in values]
    if shape == "curve":
        rows = [(0, draw(_floats))] if n else []
        rows += draw(st.lists(st.tuples(_floats, _floats), max_size=n))
        return ["cum_cost", "imse"], rows
    counts = {t: draw(st.integers(0, 10**6)) for t in range(1, n + 2)}
    return ["level", "count"], counts.items()


@settings(max_examples=300, deadline=None)
@given(table=_tables())
def test_write_csv_bytes_equal_the_per_value_fmt_join(tmp_path_factory,
                                                      table):
    header, rows = table
    tmp_path = tmp_path_factory.getbasetemp()
    assert _written(tmp_path, header, rows) == _reference(header, rows)
