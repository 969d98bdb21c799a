import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkrig.kernels import (
    NUGGET,
    BasisSpec,
    KernelSpec,
    add_matched_nugget,
    basis_matrix,
    correlation_matrix,
    cross_correlation,
    first_repeat,
    probe_correlation,
    same_points,
)

from helpers import add_nugget


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
        assert probe_correlation(spec, design, probe).tobytes() == \
            expected.tobytes()


# ---------------------------------------------------------------------------
# point identity

# Few distinct values, so generated sets repeat rows and mix 0.0 with -0.0.
_VALUES = [0.0, -0.0, 0.5, 1.0, np.inf, np.nan]


@st.composite
def _point_sets(draw):
    d = draw(st.integers(1, 3))
    row = st.lists(st.sampled_from(_VALUES), min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    pick = st.lists(st.integers(0, len(rows) - 1), max_size=6)
    a = np.array([rows[i] for i in draw(pick)], dtype=float).reshape(-1, d)
    b = np.array([rows[i] for i in draw(pick)], dtype=float).reshape(-1, d)
    return a, b


def _bytes_reference(a, b):
    """Row identity through a tobytes() dict, one row at a time."""
    index = {}
    for j, row in enumerate(b):
        index.setdefault(row.tobytes(), []).append(j)
    out = np.zeros((len(a), len(b)), dtype=bool)
    for i, row in enumerate(a):
        out[i, index.get(row.tobytes(), [])] = True
    return out


@settings(max_examples=300, deadline=None)
@given(_point_sets())
def test_same_points_matches_bytes_reference(sets):
    a, b = sets
    expected = _bytes_reference(a, b)
    np.testing.assert_array_equal(same_points(a, b), expected)
    for i in range(len(a)):  # a bare (d,) vector is one point
        np.testing.assert_array_equal(same_points(a[i], b), expected[i:i + 1])
    c = np.arange(float(len(a) * len(b))).reshape(len(a), len(b))
    np.testing.assert_array_equal(add_matched_nugget(c, a, b),
                                  c + NUGGET * expected)
    for points in (a, b):
        same = _bytes_reference(points, points)
        repeats = [i for i in range(len(points)) if same[i, :i].any()]
        assert first_repeat(points) == (repeats[0] if repeats else None)


def test_same_points_is_bitwise():
    assert not same_points([0.0, 1.0], [[-0.0, 1.0]]).any()
    assert same_points([0.0, 1.0], [[0.0, 1.0]]).all()
    assert not same_points([0.1], [[np.nextafter(0.1, 1.0)]]).any()
    assert same_points(np.empty((0, 2)), [[0.0, 1.0]]).shape == (0, 1)
    assert not same_points([[0.0, 1.0]], [[0.0, 1.0, 2.0]]).any()
    assert same_points(np.empty((2, 0)), np.empty((3, 0))).all()
    column = np.arange(6.0).reshape(3, 2)[:, 1:]  # not C-contiguous
    assert same_points(column, [[3.0]]).tolist() == [[False], [True], [False]]
