import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import mfkrig.kernels as kernels
from mfkrig.cokriging import MultiFidelityData, validate_nesting
from mfkrig.exceptions import DuplicateDesignPointError
from mfkrig.kernels import (
    NUGGET,
    BasisSpec,
    KernelSpec,
    PointIndex,
    add_matched_nugget,
    basis_matrix,
    correlation_matrix,
    cross_correlation,
    probe_correlation,
    _scaled_correlation,
    _squared_distances,
)

from helpers import add_nugget, reference_key, reference_same_points


def test_squared_exponential_identity():
    spec = KernelSpec("squared-exponential", [1.0])
    assert cross_correlation(spec, [0.0], [0.0])[0, 0] == 1.0


def test_squared_exponential_analytic_value():
    spec = KernelSpec("squared-exponential", [1.0])
    assert cross_correlation(spec, [0.0], [1.0])[0, 0] == pytest.approx(
        np.exp(-1.0), rel=1e-12)


def test_matern_identity():
    for theta in ([0.3], [2.5]):
        spec = KernelSpec("matern-5/2", theta)
        assert cross_correlation(spec, [0.7], [0.7])[0, 0] == 1.0


def test_matern_analytic_value():
    # h = |x-y|/theta = 2; closed form (1 + sqrt5*h + 5h^2/3) exp(-sqrt5*h)
    spec = KernelSpec("matern-5/2", [0.5])
    h = 2.0
    expected = (1 + np.sqrt(5) * h + 5 * h**2 / 3) * np.exp(-np.sqrt(5) * h)
    assert cross_correlation(spec, [0.0], [1.0])[0, 0] == pytest.approx(
        expected, rel=1e-12)


def test_dimension_mismatch_rejected():
    spec = KernelSpec("squared-exponential", [1.0, 1.0])
    with pytest.raises(ValueError):
        cross_correlation(spec, [0.0], [0.0, 0.0])[0, 0]
    with pytest.raises(ValueError):
        cross_correlation(spec, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])[0, 0]


def test_nonpositive_lengthscale_rejected():
    with pytest.raises(ValueError):
        KernelSpec("squared-exponential", [1.0, 0.0])
    with pytest.raises(ValueError):
        KernelSpec("matern-5/2", [-1.0])


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        KernelSpec("cubic", [1.0])


@pytest.mark.parametrize("family", ["squared-exponential", "matern-5/2"])
def test_symmetry_and_bounds(family):
    rng = np.random.default_rng(3)
    spec = KernelSpec(family, [0.4, 1.3])
    for _ in range(50):
        x, y = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
        rxy = cross_correlation(spec, x, y)[0, 0]
        assert rxy == cross_correlation(spec, y, x)[0, 0]
        assert 0.0 < rxy <= 1.0
        assert (rxy == 1.0) == bool(np.all(x == y))


def test_single_point_matrix():
    spec = KernelSpec("squared-exponential", [1.0])
    np.testing.assert_array_equal(correlation_matrix(spec, [[0.3]]), [[1.0]])


def test_two_identical_points_rank_deficient():
    spec = KernelSpec("matern-5/2", [1.0, 1.0])
    r = correlation_matrix(spec, [[0.3, 0.1], [0.3, 0.1]])
    np.testing.assert_allclose(r, np.ones((2, 2)))
    # the nugget restores positive definiteness
    assert np.all(np.linalg.eigvalsh(add_nugget(r)) > 0)


@pytest.mark.parametrize("family", ["squared-exponential", "matern-5/2"])
def test_matrix_matches_entrywise_correlation(family):
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, size=(5, 2))
    spec = KernelSpec(family, [0.25, 0.7])
    r = correlation_matrix(spec, pts)
    assert np.array_equal(r, r.T)
    np.testing.assert_array_equal(np.diag(r), np.ones(5))
    for i in range(5):
        for j in range(5):
            assert r[i, j] == pytest.approx(
                cross_correlation(spec, pts[i], pts[j])[0, 0], abs=1e-15)


@pytest.mark.parametrize("family", ["squared-exponential", "matern-5/2"])
def test_kernel_of_a_point_with_itself_is_exactly_one(family):
    # the likelihood's solve writes no unit diagonal into R: it relies on this
    rng = np.random.default_rng(31)
    for _ in range(200):
        n, d = rng.integers(1, 30), rng.integers(1, 4)
        scale = 10.0 ** rng.uniform(-8, 8)
        theta = 10.0 ** rng.uniform(-6, 6, d)
        scaled = rng.uniform(-1.0, 1.0, size=(n, d)) * scale / theta
        r = _scaled_correlation(family, scaled, scaled)
        r_weighted, _ = _scaled_correlation(family, scaled, scaled, weight=True)
        assert (np.diag(r) == 1.0).all() and (np.diag(r_weighted) == 1.0).all()


@pytest.mark.parametrize("family", ["squared-exponential", "matern-5/2"])
@pytest.mark.parametrize("seed", range(6))
def test_psd_after_nugget(family, seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 9)
    pts = rng.uniform(0, 1, size=(n, 3))
    spec = KernelSpec(family, rng.uniform(0.1, 2.0, 3))
    r = correlation_matrix(spec, pts)
    assert np.linalg.eigvalsh(r).min() >= -1e-10
    assert np.linalg.eigvalsh(add_nugget(r)).min() >= 0


def test_cross_correlation_block():
    rng = np.random.default_rng(5)
    a, b = rng.uniform(0, 1, (4, 2)), rng.uniform(0, 1, (3, 2))
    spec = KernelSpec("matern-5/2", [0.5, 0.5])
    c = cross_correlation(spec, a, b)
    assert c.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            assert c[i, j] == pytest.approx(
                cross_correlation(spec, a[i], b[j])[0, 0], abs=1e-15)


def test_constant_basis_is_ones():
    spec = BasisSpec("constant", 3)
    rng = np.random.default_rng(0)
    f = basis_matrix(spec, rng.normal(size=(7, 3)))
    np.testing.assert_array_equal(f, np.ones((7, 1)))
    assert spec.size == 1


def test_linear_basis_1d():
    spec = BasisSpec("linear", 1)
    f = basis_matrix(spec, [[0.2], [0.5]])
    np.testing.assert_allclose(f, [[1.0, 0.2], [1.0, 0.5]])


def test_linear_basis_2d_entrywise():
    spec = BasisSpec("linear", 2)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1, 1, size=(4, 2))
    f = basis_matrix(spec, pts)
    assert f.shape == (4, 3)
    for i in range(4):
        assert f[i, 0] == 1.0
        np.testing.assert_array_equal(f[i, 1:], pts[i])


@pytest.mark.parametrize("dimension", [2.5, 2.0, True, "2", None, 0])
def test_basis_rejects_a_dimension_that_is_not_a_positive_integer(dimension):
    with pytest.raises(ValueError, match=re.escape(
            f"basis dimension must be a positive integer, got {dimension!r}")):
        BasisSpec("linear", dimension)


def test_basis_takes_a_numpy_integer_dimension():
    assert BasisSpec("linear", np.int64(2)).size == 3


def test_nugget_value_and_copy():
    # the nugget of the test oracles (helpers.add_nugget)
    r = np.eye(2)
    out = add_nugget(r)
    assert out[0, 0] == 1.0 + NUGGET
    assert r[0, 0] == 1.0


def test_matched_nugget_hits_identical_rows_only():
    a = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    b = np.vstack([a[1], [[0.1, 0.200000001]]])
    c = np.zeros((3, 2))
    out = add_matched_nugget(c, a, b)
    expected = np.zeros((3, 2))
    expected[1, 0] = NUGGET
    np.testing.assert_array_equal(out, expected)
    assert c[1, 0] == 0.0  # input untouched


def test_matched_nugget_shape_mismatch():
    with pytest.raises(ValueError):
        add_matched_nugget(np.zeros((2, 2)), [[0.0], [1.0], [2.0]], [[0.0], [1.0]])


@pytest.mark.parametrize("family", ["squared-exponential", "matern-5/2"])
def test_probe_correlation_is_the_matched_nugget_on_the_correlations(family):
    design = np.random.default_rng(2).uniform(size=(7, 2))
    points = np.vstack([design[[4, 0]], [[0.3, 0.9]], [-0.0, 0.5]])
    spec = KernelSpec(family, [0.4, 0.7])
    for probe in (points, points[0]):
        expected = add_matched_nugget(cross_correlation(spec, design, probe),
                                      design, probe)
        assert probe_correlation(spec, PointIndex(design), probe).tobytes() \
            == expected.tobytes()


# ---------------------------------------------------------------------------
# distances

@st.composite
def _distance_inputs(draw):
    # Up to 8 coordinates and up to 6 rows a set, from none or one row up,
    # of either sign at one magnitude from 1e-150 to 1e150, so the sums
    # round, and either zero; b is a itself, or another set. The
    # difference buffer holds all rows of a, or a few at a time.
    d = draw(st.integers(1, 8))
    scale = 10.0 ** draw(st.integers(-150, 150))
    coordinate = st.one_of(st.sampled_from([0.0, -0.0]),
                           st.floats(-10.0, 10.0).map(lambda m: m * scale))
    row = st.lists(coordinate, min_size=d, max_size=d)
    points = st.lists(row, max_size=6).map(
        lambda rows: np.array(rows, dtype=float).reshape(-1, d))
    a = draw(points)
    b = a if draw(st.booleans()) else draw(points)
    return a, b, draw(st.sampled_from([1, 6, 17, kernels._BLOCK]))


@settings(max_examples=400, deadline=None)
@given(_distance_inputs())
def test_squared_distances_are_the_bytes_of_scipys_cdist(inputs):
    # every correlation is formed from these: scipy's cdist is the oracle
    a, b, block = inputs
    with mock.patch.object(kernels, "_BLOCK", block):
        r = _squared_distances(a, b)
    assert r.shape == (len(a), len(b))
    assert r.tobytes() == cdist(a, b, "sqeuclidean").tobytes()
    assert np.sqrt(r).tobytes() == cdist(a, b, "euclidean").tobytes()


# ---------------------------------------------------------------------------
# point identity

# Few distinct values, so generated sets repeat rows and mix 0.0 with -0.0.
_VALUES = [0.0, -0.0, 0.5, 1.0, -1.0, np.inf, np.nan]
_FINITE = _VALUES[:5]


@st.composite
def _point_sets(draw):
    # Up to 4 coordinates and up to 40 indexed rows drawn from at most 4,
    # so indexes repeat points and rows share leading coordinates; finite
    # sets reach the data rules.
    d = draw(st.integers(1, 4))
    values = draw(st.sampled_from([_VALUES, _FINITE]))
    row = st.lists(st.sampled_from(values), min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    index = st.integers(0, len(rows) - 1)
    a = np.array([rows[i] for i in draw(st.lists(index, max_size=6))],
                 dtype=float).reshape(-1, d)
    b = np.array([rows[i] for i in draw(st.lists(index, max_size=40))],
                 dtype=float).reshape(-1, d)
    return a, b


def _first_repeat(points):
    same = reference_same_points(points, points)
    return next((i for i in range(len(points)) if same[i, :i].any()), None)


@settings(max_examples=300, deadline=None)
@given(_point_sets())
def test_point_index_matches_bytes_reference(sets):
    a, b = sets
    expected = reference_same_points(a, b)
    index = PointIndex(b)
    rows, found = index.matches(a)
    # every equal pair once, in row order
    assert len(rows) == expected.sum() and (np.diff(rows) >= 0).all()
    got = np.zeros_like(expected)
    got[rows, found] = True
    np.testing.assert_array_equal(got, expected)
    assert index.distinct == (reference_same_points(b, b).sum() == len(b))
    for i in range(len(a)):  # a bare (d,) vector is one point
        rows, found = index.matches(a[i])
        assert (rows == 0).all()
        np.testing.assert_array_equal(np.sort(found),
                                      np.flatnonzero(expected[i]))
    c = np.arange(float(len(a) * len(b))).reshape(len(a), len(b))
    np.testing.assert_array_equal(add_matched_nugget(c, a, b),
                                  c + NUGGET * expected)
    # column-major point sets and queries are read as their row-major copies
    fa, fb = np.asfortranarray(a), np.asfortranarray(b)
    for index_of, query in ((index, fa), (PointIndex(fb), a),
                            (PointIndex(fb), fa)):
        np.testing.assert_array_equal(np.vstack(index_of.matches(query)),
                                      np.vstack(index.matches(a)))
    np.testing.assert_array_equal(add_matched_nugget(c, fa, fb),
                                  c + NUGGET * expected)
    # nesting: the first point of a that is no point of b
    missing = np.flatnonzero(~expected.any(axis=1))
    assert validate_nesting([b, a]) == ((2, missing[0]) if missing.size
                                        else None)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return
    # the duplicate rule: the first row equal to an earlier row
    for points in (a, b):
        repeat = _first_repeat(points)
        if repeat is None:
            MultiFidelityData([points], [np.zeros(len(points))])
        else:
            with pytest.raises(DuplicateDesignPointError, match=re.escape(
                    f"level 1: design point {points[repeat]} duplicates")):
                MultiFidelityData([points], [np.zeros(len(points))])
    # lower_level_values: the row of each nested point in the level below
    lower = b[[i for i in range(len(b))
               if not reference_same_points(b[i:i + 1], b[:i]).any()]]
    upper = a[expected.any(axis=1)]
    upper = upper[[i for i in range(len(upper))
                   if not reference_same_points(upper[i:i + 1],
                                                upper[:i]).any()]]
    data = MultiFidelityData([lower, upper],
                             [np.arange(len(lower)), np.zeros(len(upper))])
    assert data.lower_level_values(2).tolist() == [
        np.flatnonzero(same)[0] for same in reference_same_points(upper, lower)]


def _pairs(index, points):
    return [pair.tolist() for pair in index.matches(points)]


def test_point_index_is_bitwise():
    assert _pairs(PointIndex([[-0.0, 1.0]]), [0.0, 1.0]) == [[], []]
    assert _pairs(PointIndex([[0.0, 1.0]]), [0.0, 1.0]) == [[0], [0]]
    assert _pairs(PointIndex([0.1]), [[np.nextafter(0.1, 1.0)]]) == [[], []]
    # an empty set, indexed or queried
    assert _pairs(PointIndex(np.empty((0, 2))), [[0.0, 1.0]]) == [[], []]
    assert _pairs(PointIndex([[0.0, 1.0]]), np.empty((0, 2))) == [[], []]
    # sets of different dimension share no points
    assert _pairs(PointIndex([[0.0, 1.0]]), [[0.0, 1.0, 2.0]]) == [[], []]
    assert _pairs(PointIndex([[0.0, 1.0, 2.0]]), [[0.0, 1.0]]) == [[], []]
    column = np.arange(6.0).reshape(3, 2)[:, 1:]  # not C-contiguous
    assert _pairs(PointIndex(column), [[3.0]]) == [[0], [1]]
    assert _pairs(PointIndex([[3.0]]), column) == [[1], [0]]
    # a long run of points sharing a first coordinate, before or after
    # the others, next to a query row that matches no point
    run = [[1.0, float(k)] for k in range(17)]
    for points in (run + [[0.0, 0.0], [0.0, 1.0]],
                   run + [[0.0, 0.0], [0.0, 1.0], [2.0, 0.0]],
                   [[0.0, 1.0], [2.0, 0.0]] + run):
        index = PointIndex(points)
        want = points.index([0.0, 1.0])
        assert _pairs(index, [[1.0, 99.0], [0.0, 1.0]]) == [[1], [want]]
        assert _pairs(index, [[0.0, 1.0], [1.0, 99.0]]) == [[0], [want]]
        assert _pairs(index, [[1.0, 16.0], [1.0, 99.0], [1.0, 3.0]]) == [
            [0, 2], [points.index([1.0, 16.0]), points.index([1.0, 3.0])]]
    # a repeated point is found at each of its rows, in row order
    index = PointIndex([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [-0.0, 0.0]])
    assert not index.distinct and PointIndex([[0.0], [-0.0]]).distinct
    assert _pairs(index, [[1.0, 0.0], [2.0, 2.0], [0.0, 0.0]]) == [
        [0, 0, 2], [0, 2, 1]]
    # a point has at least one coordinate
    for points in (np.empty((2, 0)), np.empty((0, 0)), []):
        with pytest.raises(ValueError, match="at least one coordinate"):
            PointIndex(points)
    # -0.0 sorts just below 0.0, whatever the rows' order
    assert PointIndex([[0.0], [-0.0]]).order.tolist() == [1, 0]
    assert PointIndex([[-0.0], [0.0]]).order is None


# Both zeros, subnormals, +-1e300 and +-inf, each sign of each magnitude.
_ORDERED = [0.0, -0.0, 5e-324, -5e-324, 2.5e-308, -2.5e-308, 0.5, -0.5,
            1.0, -1.0, 1e300, -1e300, np.inf, -np.inf]


@st.composite
def _ordered_sets(draw):
    # Up to 30 rows of up to 3 coordinates from at most 5 values, so rows
    # repeat and share leading coordinates.
    d = draw(st.integers(1, 3))
    values = draw(st.lists(st.sampled_from(_ORDERED), min_size=1, max_size=5))
    row = st.lists(st.sampled_from(values), min_size=d, max_size=d)
    return np.array(draw(st.lists(row, max_size=30)), dtype=float).reshape(-1, d)


@settings(max_examples=300, deadline=None)
@given(_ordered_sets())
def test_point_index_sorts_once_in_coordinate_order(points):
    index = PointIndex(points)
    order = np.arange(len(points)) if index.order is None else index.order
    # one stable sort by key: coordinate order, -0.0 just below 0.0
    assert order.tolist() == sorted(range(len(points)),
                                    key=lambda i: reference_key(points[i]))
    if not (points == 0.0).any():
        np.testing.assert_array_equal(order, np.lexsort(points.T[::-1]))
    keys = [key.tobytes() for key in index._keys]
    assert keys == sorted(keys)
    assert index.distinct == all(a < b for a, b in zip(keys, keys[1:]))
    # the sorted keys find every bitwise-equal pair, the twin of a zero none
    queries = np.vstack([points[::2], -points[:3]])
    rows, found = index.matches(queries)
    expected = reference_same_points(queries, points)
    got = np.zeros_like(expected)
    got[rows, found] = True
    assert len(rows) == expected.sum() and (got == expected).all()
