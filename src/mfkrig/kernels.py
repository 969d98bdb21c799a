"""Stationary correlation kernels and regression basis functions.

Two kernel families are supported, both positive-valued with r(x, x) = 1:

* ``squared-exponential``:  r(x, y) = exp(-sum_i ((x_i - y_i) / theta_i)^2)
* ``matern-5/2``:           r(x, y) = (1 + sqrt(5) h + 5 h^2 / 3) exp(-sqrt(5) h),
  with h the Euclidean norm of the lengthscale-scaled difference.

Lengthscales are anisotropic (one per input dimension). Correlation
matrices are exactly symmetric with unit diagonal; ``NUGGET`` is the
diagonal term added wherever one is factorized. Each formula is written
once, in ``_scaled_correlation``, which also gives the gradient weight.
"""

from dataclasses import dataclass
from functools import cache

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
    if spec.lengthscales is None:
        raise ValueError("kernel lengthscales are not set")
    theta = spec.lengthscales
    a = _as_points(xa, theta.size)
    b = _as_points(xb, theta.size)
    return _scaled_correlation(spec.family, a / theta, b / theta)


@cache
def _cdist():
    """``scipy.spatial.distance.cdist``, imported on first use: importing
    scipy.spatial takes about 0.1 s and 8 MB, which a process that
    computes no correlation never needs."""
    from scipy.spatial.distance import cdist

    return cdist


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
        r = _cdist()(a, b, "sqeuclidean")
        np.negative(r, out=r)
        np.exp(r, out=r)
        return (r, 2.0 * r) if weight else r
    h = _cdist()(a, b, "euclidean")
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


def same_points(xa, xb) -> np.ndarray:
    """(na, nb) boolean matrix, True where xa[i] and xb[j] are the same point.

    Point identity is bitwise equality of the float64 rows: -0.0 and 0.0
    are different points and no tolerance applies. A (d,) vector is one
    point; sets of different dimension share no points, and all rows of
    dimension 0 are the same point.
    """
    a, b = (np.ascontiguousarray(_as_points(x)) for x in (xa, xb))
    if a.shape[1] != b.shape[1] or a.shape[1] == 0:
        return np.full((a.shape[0], b.shape[0]), a.shape[1] == b.shape[1])
    key = np.dtype((np.void, a.itemsize * a.shape[1]))
    return a.view(key) == b.view(key).T


def extends(points, prefix) -> bool:
    """True when the rows of ``prefix`` are the leading rows of ``points``,
    bit for bit (the identity of ``same_points``, row by row)."""
    n = len(prefix)
    return (len(points) >= n and points.shape[1:] == prefix.shape[1:]
            and points[:n].tobytes() == prefix.tobytes())


def first_repeat(points) -> int | None:
    """Index of the first row that is the same point as an earlier row, or None."""
    dup = np.flatnonzero(np.tril(same_points(points, points), -1).any(axis=1))
    return int(dup[0]) if dup.size else None


def add_matched_nugget(c: np.ndarray, xa, xb) -> np.ndarray:
    """Return a copy of ``c`` with NUGGET added where xa[i] equals xb[j] exactly.

    The nugget acts as a white-noise component of the process: it is
    carried by a point, not a location, so only bitwise-identical rows
    (the same stored point appearing in both sets) pick up the term.
    Keeps predictors evaluated at design points consistent with the
    nugget-regularized training matrix, so they interpolate exactly.
    """
    a = _as_points(xa)
    b = _as_points(xb, a.shape[1])
    out = np.array(c, dtype=float, copy=True)
    if out.shape != (a.shape[0], b.shape[0]):
        raise ValueError("matrix shape does not match the point sets")
    return _match_nugget(out, a, b)


def _match_nugget(out, xa, xb) -> np.ndarray:
    """``out`` with NUGGET added in place where xa[i] equals xb[j] exactly."""
    out[same_points(xa, xb)] += NUGGET
    return out


def probe_correlation(spec: KernelSpec, design, points) -> np.ndarray:
    """R(design, points) with the matched nugget, shape (n, m): the
    correlations every posterior in the library is formed from."""
    return _match_nugget(cross_correlation(spec, design, points),
                         design, points)


def basis_matrix(spec: BasisSpec, points) -> np.ndarray:
    """Evaluate the basis at each point: (n, p) matrix, row i = basis(points_i)."""
    pts = _as_points(points, spec.dimension)
    n = pts.shape[0]
    if spec.kind == CONSTANT:
        return np.ones((n, 1))
    return np.hstack([np.ones((n, 1)), pts])
