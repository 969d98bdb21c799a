"""``csvio.write_csv`` writes the bytes of a per-value ``fmt`` join, for
every kind of cell and every shape of rows its callers pass: prediction
and design arrays, one-value response rows, the IMSE curve's tuples and
the level histogram's int pairs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkrig.csvio import _format_block, fmt, write_csv

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
    # write_csv joins blocks this small; the numpy path gives the same bytes
    block = np.array(rows if isinstance(rows, np.ndarray) else list(rows),
                     dtype=float).reshape(-1, len(header))
    assert (bytes(_format_block(block))
            == _reference(header, rows).partition(b"\n")[2])


def _powers_of_ten():
    """Every 1e-310 ... 1e308 with both neighbours, and their negatives."""
    values = []
    for k in range(-310, 309):
        x = float(f"1e{k}")
        values += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    return values + [-x for x in values]


def _below_its_power(x, k) -> bool:
    """x < 10**k exactly."""
    num, den = x.as_integer_ratio()
    return num * 10 ** max(-k, 0) < den * 10 ** max(k, 0)


def test_write_csv_matches_fmt_on_random_bits_and_edge_lists(tmp_path):
    bits = np.random.default_rng(26).integers(0, 2**64, 200_000,
                                              dtype=np.uint64)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]
    # doubles just below a power of ten that round up to it at 17 digits
    decade_ups = [1e-14, 1e-70, 1e-305]
    assert all(_below_its_power(x, int(fmt(x)[2:])) for x in decade_ups)
    # exact and near decimal ties at the 18th significant digit
    ties = ([j / 4 + 1234567890123456.0 for j in range(-400, 400)]
            + [j / 8 + 2.0**52 for j in range(-400, 400)])
    # both edges of the range whose digits are found in numpy
    edges = [y for x in (1e-280, 1e280) for y in
             (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]
    values = np.concatenate([
        bits.view(np.float64), specials, decade_ups, ties, edges,
        np.negative(edges), _powers_of_ten()])
    values = np.concatenate([values, np.zeros(-len(values) % 8)])
    header = [f"c_{j}" for j in range(8)]
    rows = values.reshape(-1, 8)
    assert _written(tmp_path, header, rows) == _reference(header, rows)


def test_write_csv_writes_rows_without_cells_as_empty_lines(tmp_path):
    rows = np.empty((2, 0))
    assert _written(tmp_path, [], rows) == _reference([], rows) == b"\n" * 3
