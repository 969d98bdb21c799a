"""Stationary correlation kernels and regression basis functions.

Two kernel families are supported, both positive-valued with r(x, x) = 1:

* ``squared-exponential``:  r(x, y) = exp(-sum_i ((x_i - y_i) / theta_i)^2)
* ``matern-5/2``:           r(x, y) = (1 + sqrt(5) h + 5 h^2 / 3) exp(-sqrt(5) h),
  with h the Euclidean norm of the lengthscale-scaled difference.

Lengthscales are anisotropic (one per input dimension). Correlation
matrices are exactly symmetric with unit diagonal; ``NUGGET`` is the
diagonal term added wherever one is factorized. Each formula is written
once, in ``_scaled_correlation``, which also gives the gradient weight,
on the squared distances of ``_squared_distances``: numpy sums with the
bytes of scipy's cdist, so that no correlation imports scipy.spatial.
Point identity (bitwise equal coordinates), on which nesting, the
duplicate rule, the matched nugget and the search's tie order rest, lives
in ``PointIndex``: one sort of keys that order as the coordinates do.
"""

from dataclasses import dataclass

import numpy as np

# Additive jitter applied to correlation-matrix diagonals before Cholesky.
# Deterministic codes are noise-free: this is numerical regularization only.
NUGGET = 1e-10

SQUARED_EXPONENTIAL = "squared-exponential"
MATERN52 = "matern-5/2"
KERNEL_FAMILIES = (SQUARED_EXPONENTIAL, MATERN52)

CONSTANT = "constant"
LINEAR = "linear"
BASIS_KINDS = (CONSTANT, LINEAR)


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _check_level(level, levels, lowest=1) -> None:
    """The one rule of a level index: a Python or numpy integer, not a
    bool, in [lowest, levels]."""
    if not (_is_integer(level) and lowest <= level <= levels):
        raise ValueError(
            f"level must be an integer in [{lowest}, {levels}], got {level!r}")


@dataclass
class KernelSpec:
    """Stationary correlation kernel: family name plus per-dimension lengthscales.

    ``lengthscales`` may be None for a not-yet-fitted kernel; every
    evaluation routine requires it to be set, strictly positive and finite.
    Instances are treated as immutable.
    """

    family: str
    lengthscales: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.lengthscales is not None:
            ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
            if ls.ndim != 1:
                raise ValueError("lengthscales must be a 1-d array")
            if not 0 < ls.min() <= ls.max() < np.inf:
                raise ValueError("lengthscales must be strictly positive "
                                 "and finite")
            self.lengthscales = ls

    def with_lengthscales(self, theta) -> "KernelSpec":
        return KernelSpec(self.family, np.asarray(theta, dtype=float))


@dataclass
class BasisSpec:
    """Regression basis: ``constant`` is (1,), ``linear`` is (1, x_1, ..., x_d)."""

    kind: str
    dimension: int

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if not (_is_integer(self.dimension) and self.dimension >= 1):
            raise ValueError("basis dimension must be a positive integer, "
                             f"got {self.dimension!r}")

    @property
    def size(self) -> int:
        return 1 if self.kind == CONSTANT else self.dimension + 1


def _as_points(x, d=None) -> np.ndarray:
    """Coerce to an (n, d) float array; a bare (d,) vector becomes one row."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2:
        raise ValueError("points must form a 2-d array")
    if d is not None and pts.shape[1] != d:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {d}")
    if pts.shape[1] == 0:
        raise ValueError("points need at least one coordinate")
    return pts


def cross_correlation(spec: KernelSpec, xa, xb) -> np.ndarray:
    """Correlation matrix between two point sets, shape (na, nb).

    Parameters
    ----------
    spec : KernelSpec
        Kernel with lengthscales set.
    xa, xb : array_like
        Point sets of shape (na, d) and (nb, d); a single point may be
        passed as a (d,) vector.
    """
    return _scaled_correlation(spec.family, *_scaled(spec, xa, xb))


def _scaled(spec: KernelSpec, *point_sets) -> list:
    """Each point set as (n, d) points divided by the kernel's lengthscales."""
    if spec.lengthscales is None:
        raise ValueError("kernel lengthscales are not set")
    theta = spec.lengthscales
    return [_as_points(x, theta.size) / theta for x in point_sets]


# Elements of the difference buffer of ``_squared_distances`` (256 KB):
# it holds a block of rows small enough to stay in cache.
_BLOCK = 1 << 15


def _squared_distances(a, b) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and ``b``,
    shape (na, nb): (a_0 - b_0)^2, then (a_k - b_k)^2 added for each
    further dimension k in order, the sum and order of scipy's cdist
    "sqeuclidean", so the bytes are cdist's; ``np.sqrt`` of them are its
    "euclidean" bytes. Numpy alone, because importing scipy.spatial takes
    about 0.1 s and 8 MB. The further dimensions go through one buffer,
    reused across row blocks that keep it in cache."""
    r = np.subtract(a[:, :1], b[:, 0])
    r *= r
    if a.shape[1] == 1:
        return r
    rows = _BLOCK // max(1, len(b)) or 1
    buffer = np.empty((min(rows, len(a)), len(b)))
    for i in range(0, len(a), rows):
        block = r[i:i + rows]
        diff = buffer[:len(block)]
        for k in range(1, a.shape[1]):
            np.subtract(a[i:i + rows, k:k + 1], b[:, k], out=diff)
            block += np.multiply(diff, diff, out=diff)
    return r


def _scaled_correlation(family, a, b, weight=False):
    """The kernel formula of ``family`` between point sets already divided
    by their lengthscales: the one place it is written. With ``weight``,
    ``b`` is ``a`` and the result is (R, W), dR/d(log theta_k) = W * D_k
    for D_k the squared differences in dimension k (Rasmussen & Williams
    2006, 5.4.1): 2 R, or (5/3)(1 + u) exp(-u) for Matern-5/2.

    Each step writes over an array made here, in the operation order of
    exp(-d2), (1 + u + (5/3) h h) exp(-u) and W's formula, so the values
    are those of the plain expressions without their large temporaries,
    whose allocation cost more than the arithmetic at a few hundred points.
    """
    if family == SQUARED_EXPONENTIAL:
        r = _squared_distances(a, b)
        np.negative(r, out=r)
        np.exp(r, out=r)
        return (r, 2.0 * r) if weight else r
    h = _squared_distances(a, b)
    np.sqrt(h, out=h)
    u = np.sqrt(5.0) * h
    r = (5.0 / 3.0) * h
    r *= h
    r += np.add(1.0, u, out=h)
    np.negative(u, out=u)
    r *= np.exp(u, out=u)
    if weight:  # h holds 1 + u and u holds exp(-u)
        np.multiply(5.0 / 3.0, h, out=h)
        return r, np.multiply(h, u, out=h)
    return r


def correlation_matrix(spec: KernelSpec, points) -> np.ndarray:
    """Symmetric correlation matrix of a point set, unit diagonal, no nugget."""
    pts = _as_points(points)
    if pts.shape[0] < 1:
        raise ValueError("need at least one point")
    r = cross_correlation(spec, pts, pts)
    np.fill_diagonal(r, 1.0)
    return r


def _keys(points) -> np.ndarray:
    """One bytes key per point, its coordinates' float64 bits as big-endian
    integers with the sign bit flipped when clear and every bit when set:
    keys compare as the points do in lexicographic coordinate order (-0.0
    just below 0.0) and are equal only for bitwise-equal points."""
    keys = np.array(points, float, order="C").view(np.int64)  # to write over
    keys ^= (keys >> 63) | (-1 << 63)
    return keys.astype(">i8").view((np.void, 8 * keys.shape[1])).ravel()


class PointIndex:
    """The library's one point identity, built once per (n, d) point set:
    points are the same when their float64 coordinates are bitwise equal
    (-0.0 is not 0.0; no tolerance). Holds the points, their ``_keys``
    sorted once, stably, by ``order`` (None when already sorted, as a
    product grid is) and whether no point repeats (``distinct``: no two
    sorted keys side by side equal)."""

    def __init__(self, points):
        self.points = points = np.ascontiguousarray(_as_points(points))
        keys = _keys(points)
        order = keys.argsort(kind="stable")
        self.order = None if (order == np.arange(len(order))).all() else order
        self._keys = keys if self.order is None else keys[order]
        self.distinct = not (self._keys[1:] == self._keys[:-1]).any()

    def matches(self, points):
        """(rows, found): the index pairs of each row of ``points`` and each
        indexed point bitwise equal to it, in row order; points of another
        dimension match none. One bisection of the sorted keys finds, for
        every row at once, the run of points equal to it."""
        x = _as_points(points)
        keys = _keys(x if x.shape[1] == self.points.shape[1] else self.points[:0])
        lo = self._keys.searchsorted(keys)
        count = self._keys.searchsorted(keys, "right") - lo
        if self.distinct:  # a row equals one point at most
            rows = count.nonzero()[0]
            found = lo[rows]
        else:
            rows = np.repeat(np.arange(len(count)), count)
            found = (lo - (count.cumsum() - count))[rows] + np.arange(len(rows))
        return rows, found if self.order is None else self.order[found]


def extends(points, prefix) -> bool:
    """True when the rows of ``prefix`` are the leading rows of ``points``,
    bit for bit (the identity of ``PointIndex``, row by row)."""
    n = len(prefix)
    return (len(points) >= n and points.shape[1:] == prefix.shape[1:]
            and points[:n].tobytes() == prefix.tobytes())


def add_matched_nugget(c: np.ndarray, xa, xb) -> np.ndarray:
    """Return a copy of ``c`` with NUGGET added where xa[i] equals xb[j] exactly.

    The nugget acts as a white-noise component of the process: it is
    carried by a point, not a location, so only rows ``PointIndex`` finds
    identical (the same stored point in both sets) pick up the term.
    Keeps predictors evaluated at design points consistent with the
    nugget-regularized training matrix, so they interpolate exactly.
    """
    a = _as_points(xa)
    b = _as_points(xb, a.shape[1])
    out = np.array(c, dtype=float, copy=True)
    if out.shape != (a.shape[0], b.shape[0]):
        raise ValueError("matrix shape does not match the point sets")
    out[PointIndex(a).matches(b)[::-1]] += NUGGET
    return out


def probe_correlation(spec: KernelSpec, index, points) -> np.ndarray:
    """R(design, points) with the nugget where a point is a design point,
    shape (n, m), for the design held by the ``PointIndex`` ``index``:
    the correlations every posterior in the library is formed from."""
    return _probe_rows(spec.family, *_scaled(spec, index.points, points),
                       index.matches(points)[::-1])


def _probe_rows(family, design, points, pairs) -> np.ndarray:
    """R(design, points) with NUGGET added at the (design row, point)
    index ``pairs`` of equal points, from point sets already divided by
    the lengthscales: ``probe_correlation`` and a kept node set
    (``sequential._Solve``) build their rows here."""
    out = _scaled_correlation(family, design, points)
    if len(pairs[0]):  # most probes are no design point
        out[pairs] += NUGGET
    return out


def basis_matrix(spec: BasisSpec, points) -> np.ndarray:
    """Evaluate the basis at each point: (n, p) matrix, row i = basis(points_i)."""
    pts = _as_points(points, spec.dimension)
    n = pts.shape[0]
    if spec.kind == CONSTANT:
        return np.ones((n, 1))
    return np.hstack([np.ones((n, 1)), pts])
