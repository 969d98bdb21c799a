"""Per-level numerical engine of the co-kriging model.

Each level of a ``MultiFidelityModel`` is a universal-kriging fit on its
own design; this module holds the numerics that fit and predict one
such level. Trend coefficients and process variance come from
generalized least squares; lengthscales from multi-start minimization
of the concentrated negative log-likelihood

    (n - p) * log(sigma2_hat(theta)) + log det R(theta)

over log-lengthscales inside a box (``_ml_fit``), by L-BFGS-B on its
analytic gradient (``_nll_gradient``): one matrix-vector product of the
design's squared differences, built once per search, against the
weighted lower triangle of R^{-1}. A sigma2_hat below 1e6 times its
floor is round-off of a zero residual and counts as the floor, so a
round-off level has the smooth objective (n - p) log(floor) + log det R.

``_solve_level`` is the one solve of a level, read from its
``_Likelihood`` record: the factor of R + nugget, then the GLS estimate
(or given coefficients), sigma2, the NLL and alpha = R^{-1}(y - H beta).
The factor is fresh, from a kernel evaluation that also gives the
gradient weight, or, for a frozen refit, the old factor grown by the
appended rows (``_append_rows``), whose leading block stays bit for bit.
Every search evaluation is one fresh solve, and the best is the fitted
level. The nugget joins a factored diagonal in ``_factor_in_place``
alone. ``variance_factor`` gives the 1 - r(x)' R^{-1} r(x) of the
plug-in posterior variance (no trend-estimation inflation term) by the
row recursion ``_solve_rows``, so a solve kept on fixed nodes and
continued over appended rows equals a fresh one bit for bit. The level
posteriors are formed in ``cokriging``; a single-level model is a
1-level ``fit_multifidelity``.

These and the public ``chol_nugget`` and ``gls_fit`` call dpotrf, dtrtrs
and dgelsd (with the arguments ``scipy.linalg.lstsq`` passes) directly,
skipping scipy's finite re-scans and work-size queries, because inputs
are checked where they enter the library: data by ``MultiFidelityData``,
lengthscales by ``KernelSpec`` or the search box, matrices by the public
functions. Results are bit for bit those of the scipy wrappers
(``tests/helpers.py`` keeps that path as the oracle).
"""

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import _compute_lwork, get_lapack_funcs

from .exceptions import (
    FitFailedError,
    IllConditionedError,
    InternalConsistencyError,
    SingularTrendError,
)
from .kernels import (
    NUGGET,
    BasisSpec,
    KernelSpec,
    basis_matrix,
    _as_points,
    _is_integer,
    _scaled_correlation,
)

# (this * data scale)^2 is the sigma2 of an exactly-zero residual: the
# fitted variance stays positive and the concentrated NLL finite on
# degenerate (exact-relation) datasets.
_SIGMA2_FLOOR_REL = 1e-12

# Variance factors in [-1e-9, 0) are round-off and clamp to 0; anything
# more negative indicates a bug, not noise.
_VARIANCE_SLACK = 1e-9

# Columns per block of the variance row recursion: the rows of V a
# block reads (n * 1024 * 8 bytes) stay in cache up to n of a few
# hundred.
_COLUMN_BLOCK = 1024

_DEFAULT_RESTARTS = 5

# sigma2_hat below this times the floor is round-off of a zero residual
# and is taken as the floor itself.
_WELL_POSED = 1e6

# The farthest an L-BFGS-B run's first step moves, in log-lengthscale.
_FIRST_STEP = 0.25

_log = logging.getLogger(__name__)

# The LAPACK routines of the likelihood, bound once for float64, and
# dgelsd's rcond: singular values below this times the largest count as
# zero, the default of scipy.linalg.lstsq.
_potrf, _potri, _trtrs, _gelsd, _gelsd_lwork = get_lapack_funcs(
    ("potrf", "potri", "trtrs", "gelsd", "gelsd_lwork"), dtype=np.float64)
_RCOND = np.finfo(float).eps


@dataclass
class KrigingProblem:
    """Design points, responses, and the trend/kernel structure of one level.

    The design and responses must make valid 1-level
    ``MultiFidelityData``, and the trend must be estimable on the design
    as a level-1 regression (``cokriging._check_estimable``).
    """

    design: np.ndarray
    y: np.ndarray
    trend: BasisSpec
    kernel: KernelSpec

    def __post_init__(self):
        from .cokriging import MultiFidelityData, _check_estimable

        data = MultiFidelityData([self.design], [self.y])
        self.design, self.y = data.designs[0], data.observations[0]
        _check_estimable(1, basis_matrix(self.trend, self.design), 0)


def _factor_in_place(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the Fortran-ordered ``a`` + nugget, written
    over ``a``; or IllConditionedError. The one place the nugget joins a
    diagonal that is factored."""
    a.flat[::len(a) + 1] += NUGGET
    lo, info = _potrf(a, lower=1, clean=1, overwrite_a=1)
    if info > 0:
        raise IllConditionedError(
            f"correlation matrix of size {a.shape[0]} is not positive definite "
            "even after the nugget"
        )
    return lo


def chol_nugget(r: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``r`` + nugget, or IllConditionedError."""
    a = np.array(r, dtype=float, order="F")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("correlation matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("correlation matrix must be finite")
    return _factor_in_place(a)


def _append_rows(family, design, theta, chol_lower) -> np.ndarray:
    """Lower Cholesky factor of R(theta) + nugget on ``design``, grown from
    ``chol_lower``, the factor on its leading rows, one row at a time.

    Row i is l = L[:i, :i]^{-1} r(design[:i], design[i]) (one dtrtrs)
    and the pivot sqrt(1 + nugget - l'l), so the leading block stays bit
    for bit the given factor. A non-positive pivot raises
    IllConditionedError.
    """
    n, m = len(chol_lower), len(design)
    if m == n:
        return chol_lower
    scaled = design / theta
    r = _scaled_correlation(family, scaled[n:], scaled)
    lo = np.zeros((m, m), order="F")
    lo[:n, :n] = chol_lower
    for i in range(n, m):
        l, _ = _trtrs(lo[:i, :i], r[i - n, :i], lower=1)
        pivot = 1.0 + NUGGET - l @ l
        if not pivot > 0.0:
            raise IllConditionedError(
                f"correlation matrix of size {i + 1} is not positive definite "
                "even after the nugget")
        lo[i, :i] = l
        lo[i, i] = np.sqrt(pivot)
    return lo


def _solve_rows(chol_lower, c, v, s, start) -> None:
    """Continue V = L^{-1} C from row ``start`` by the row recursion.

    ``c`` holds the rows of C from ``start`` on; rows of ``v`` below
    ``start`` hold V already and the rest are written here, each as
    v_i = (c_i - L[i, :i] V[:i]) * (1 / L_ii). ``s`` is the running sum
    of the squared rows, updated in place. A fresh solve and one
    continued after appended rows run the same operations, so they agree
    bit for bit. The factor's rows are copied contiguous first: BLAS
    sums a strided vector in another order than a contiguous one, and
    the result must not depend on the factor's memory order. The
    columns run in blocks of ``_COLUMN_BLOCK``, fixed by the column
    count alone, so the rows of V a block reads stay in cache.
    """
    stop = start + len(c)
    rows = np.ascontiguousarray(chol_lower[start:stop])
    inverses = 1.0 / chol_lower.diagonal()[start:stop]
    for j in range(0, c.shape[1], _COLUMN_BLOCK):
        block = slice(j, j + _COLUMN_BLOCK)
        v_block, s_block = v[:, block], s[block]
        for i, c_i, l_i, inverse in zip(range(start, stop), c[:, block],
                                        rows, inverses):
            v_i = v_block[i]
            np.subtract(c_i, l_i[:i] @ v_block[:i], out=v_i)
            v_i *= inverse
            s_block += v_i * v_i


def _clamped_factor(s) -> np.ndarray:
    """1 - s clamped at 0; a factor below the round-off slack is a bug."""
    factor = 1.0 - s
    bad = factor < -_VARIANCE_SLACK
    if np.any(bad):
        raise InternalConsistencyError(
            f"predicted variance factor {factor[bad].min():.3e} is below "
            f"-{_VARIANCE_SLACK:g}; round-off alone cannot explain this"
        )
    return np.maximum(factor, 0.0)


def variance_factor(chol_lower: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Clamped 1 - r' R^{-1} r for each column of the cross-correlation ``c``.

    r' R^{-1} r is the sum of squares of the columns of V = L^{-1} C.
    One column is solved by one dtrtrs: a single point is never kept,
    and the row recursion would pay one Python step per design row for
    it. More columns are solved afresh by ``_solve_rows``.
    """
    c = np.asarray(c, dtype=float)
    if c.shape[1] == 1:
        v, _ = _trtrs(chol_lower, c, lower=1)
        return _clamped_factor(np.einsum("ij,ij->j", v, v))
    s = np.zeros(c.shape[1])
    _solve_rows(chol_lower, c, np.empty(c.shape), s, 0)
    return _clamped_factor(s)


@lru_cache(maxsize=128)
def _gelsd_work(n, p):
    """(lwork, iwork) of dgelsd on an (n, p) system with one right-hand
    side, queried as ``scipy.linalg.lstsq`` queries it."""
    return _compute_lwork(_gelsd_lwork, n, p, 1, _RCOND)


def _gls(chol_lower, f, y):
    """GLS on a pre-factored correlation matrix.

    Whitens both sides by the Cholesky factor and solves the resulting
    least-squares problem with dgelsd as ``scipy.linalg.lstsq`` calls it.
    Returns (beta, sigma2), sigma2 the whitened residual sum of squares
    over n - p. A factor from dpotrf has a positive diagonal, so the
    triangular solves cannot fail.
    """
    n, p = f.shape
    fw, _ = _trtrs(chol_lower, f, lower=1)
    yw, _ = _trtrs(chol_lower, y, lower=1)
    x, _, rank, info = _gelsd(fw, yw, *_gelsd_work(n, p), _RCOND, 0, 0)
    if info > 0:
        raise LinAlgError("SVD did not converge in Linear Least Squares")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgelsd")
    if rank < p:
        raise SingularTrendError(
            f"trend matrix has rank {rank} < {p}; columns are collinear"
        )
    beta = x[:p]
    resid = yw - fw @ beta
    sigma2 = float(resid @ resid) / (n - p)
    return beta, sigma2


def gls_fit(r: np.ndarray, f: np.ndarray, y: np.ndarray):
    """Generalized least squares under correlation matrix ``r``.

    beta_hat = (F' R^{-1} F)^{-1} F' R^{-1} y and
    sigma2_hat = (y - F beta)' R^{-1} (y - F beta) / (n - p), computed
    through the nugget-regularized Cholesky factor of ``r``.

    Parameters
    ----------
    r : (n, n) correlation matrix (without nugget).
    f : (n, p) trend matrix, full column rank.
    y : (n,) responses.

    Returns
    -------
    (beta, sigma2) : ((p,) ndarray, float). sigma2 is exactly as
    estimated and may be 0 for exact-fit data.

    Raises
    ------
    SingularTrendError, IllConditionedError
    """
    r = np.asarray(r, dtype=float)
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if f.ndim != 2 or f.shape[0] != r.shape[0] or y.size != r.shape[0]:
        raise ValueError("shapes of R, F, y are inconsistent")
    if r.shape[0] <= f.shape[1]:
        raise ValueError("need n > p residual degrees of freedom")
    if not (np.isfinite(f).all() and np.isfinite(y).all()):
        raise ValueError("trend matrix and responses must be finite")
    return _gls(chol_nugget(r), f, y)


def _sigma2_floor(y):
    scale = max(1.0, float(np.max(np.abs(y))) if y.size else 1.0)
    return (_SIGMA2_FLOOR_REL * scale) ** 2


class _Likelihood(NamedTuple):
    """One level's likelihood record: what its search and solve read."""

    family: str
    design: np.ndarray
    trend: np.ndarray
    y: np.ndarray
    sigma2_floor: float


def _likelihood(family, design, trend_matrix, y) -> _Likelihood:
    return _Likelihood(family, design, trend_matrix, y, _sigma2_floor(y))


def _solve_level(lik: _Likelihood, theta, coef=None, grown_from=None):
    """(nll, coef, sigma2, chol, alpha, w): the one solve of a level at
    lengthscales ``theta``.

    The factor of R + nugget is fresh, from one kernel evaluation that
    also gives the gradient weight W, or, with ``grown_from`` (the
    factor on the leading rows), grown by the appended rows
    (``_append_rows``) with w None. ``coef`` defaults to the GLS
    estimate, under the one rule for sigma2: a sigma2_hat below
    ``_WELL_POSED`` times the floor is round-off of a zero residual and
    is taken as exactly the floor. With ``coef`` given, nll and sigma2
    are nan. alpha = R^{-1}(y - H coef).
    """
    if not np.isfinite(theta).all():
        raise ValueError("lengthscales must be strictly positive and finite")
    w = None
    if grown_from is None:
        scaled = lik.design / theta
        r, w = _scaled_correlation(lik.family, scaled, scaled, weight=True)
        np.fill_diagonal(r, 1.0)
        # R is exactly symmetric, so its transpose is the same matrix in
        # the Fortran order dpotrf works on in place
        lo = _factor_in_place(r.T)
    else:
        lo = _append_rows(lik.family, lik.design, theta, grown_from)
    nll = sigma2 = float("nan")
    if coef is None:
        coef, sigma2 = _gls(lo, lik.trend, lik.y)
        if sigma2 < _WELL_POSED * lik.sigma2_floor:
            sigma2 = lik.sigma2_floor
        logdet = 2.0 * float(np.log(lo.diagonal()).sum())
        n, p = lik.trend.shape
        nll = float((n - p) * np.log(sigma2) + logdet)
    v, _ = _trtrs(lo, lik.y - lik.trend @ coef, lower=1)
    alpha, _ = _trtrs(lo, v, lower=1, trans=1)
    return nll, coef, sigma2, lo, alpha, w


def _squared_differences(design) -> np.ndarray:
    """(d, n^2) array whose row k is the n x n matrix D_k of squared
    differences (x_ik - x_jk)^2 of the (n, d) ``design`` in dimension k,
    flattened. The gradient's one input from the design, built once per
    search."""
    x = np.ascontiguousarray(design.T)
    diff = x[:, :, None] - x[:, None, :]
    diff *= diff
    return diff.reshape(len(x), -1)


def _nll_gradient(lik: _Likelihood, theta, terms, sq_diff) -> np.ndarray:
    """d nll / d(log theta) at ``theta`` from its fresh ``_solve_level``
    ``terms`` and the design's ``_squared_differences`` D.

    Component k is tr(R^{-1} dR_k) - alpha' dR_k alpha / sigma2, with
    alpha = R^{-1}(y - H beta) and dR_k = W * D_k / theta_k^2; beta and
    sigma2 are concentrated out, so their own change does not enter
    (Rasmussen & Williams 2006, 5.4.1). A sigma2 taken as the floor does
    not move with theta, so the second term is dropped there. W * D_k is
    symmetric with a zero diagonal, so the trace term is twice its sum
    against M_lower, dpotri's lower triangle of R^{-1} with zeros above
    it (the factor is cleaned). All d components are one gemv,
    g = D vec(2 M_lower * W - (alpha alpha' / sigma2) * W) / theta^2,
    here with the exact factor 2 taken out of the vector.
    """
    _, _, sigma2, lo, alpha, w = terms
    m, _ = _potri(lo, lower=1)
    if sigma2 > lik.sigma2_floor:
        m -= np.outer(alpha / (2.0 * sigma2), alpha)
    m *= w
    return 2.0 * (sq_diff @ m.ravel()) / (theta * theta)


def concentrated_nll(problem: KrigingProblem, theta) -> float:
    """Concentrated (profile) negative log-likelihood at lengthscales theta.

    beta and sigma2 are concentrated out in closed form; the returned
    value is (n - p) log sigma2_hat(theta) + log det R(theta), where a
    sigma2_hat below 1e6 times the floor (1e-12 * max(1, max |y|))^2 is
    round-off and counts as the floor.

    Raises IllConditionedError when R(theta) cannot be factored or the
    result is not finite.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    kernel = KernelSpec(problem.kernel.family, theta)
    design = _as_points(problem.design, kernel.lengthscales.size)
    f = basis_matrix(problem.trend, design)
    nll = _solve_level(_likelihood(kernel.family, design, f, problem.y),
                       kernel.lengthscales)[0]
    if not np.isfinite(nll):
        raise IllConditionedError(f"non-finite likelihood at theta={theta}")
    return nll


def default_theta_bounds(design) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension lengthscale box [1e-2, 10] * (design side length)."""
    pts = _as_points(design)
    side = pts.max(axis=0) - pts.min(axis=0)
    side[side <= 0] = 1.0
    return 1e-2 * side, 10.0 * side


def _search_box(design, bounds):
    """(log_lo, log_hi), the checked log-lengthscale box of a search on
    the (n, d) ``design``: ``bounds`` (lo, hi) or, if None, the default."""
    if bounds is None:
        lo, hi = default_theta_bounds(design)
    else:
        d = design.shape[1]
        lo = np.broadcast_to(np.asarray(bounds[0], dtype=float), (d,))
        hi = np.broadcast_to(np.asarray(bounds[1], dtype=float), (d,))
    if not (np.all(lo > 0) and np.all(lo <= hi) and np.all(hi < np.inf)):
        raise ValueError("bounds must satisfy 0 < lower <= upper < inf")
    return np.log(lo), np.log(hi)


def _draw_starts(log_lo, log_hi, restarts, rng) -> list:
    """The starts of a search: the box midpoint, then ``restarts - 1``
    uniform draws from the box with ``rng``; ``restarts`` is checked first."""
    if not (_is_integer(restarts) and restarts >= 1):
        raise ValueError("restarts must be a positive integer")
    return [0.5 * (log_lo + log_hi)] + [rng.uniform(log_lo, log_hi)
                                        for _ in range(restarts - 1)]


def _ml_fit(lik: _Likelihood, box, starts):
    """Multi-start concentrated-ML search for the lengthscales of ``lik``.

    Minimizes the concentrated NLL over log-lengthscales inside ``box``,
    the checked (log_lo, log_hi) of ``_search_box``, by L-BFGS-B on the
    analytic gradient (``_nll_gradient``), one run per start of
    ``starts`` (``_draw_starts``). It draws nothing, so its result
    depends on its arguments alone. The gradient's input from the design,
    its ``_squared_differences``, is built here once per search, so no
    solve outside a search pays for it. Each distinct start is evaluated
    once and each run answers its first call from that evaluation.
    scipy's first step on a boxed problem is the full projected -g, so
    each run divides objective and gradient by max(1, |g(z0)| /
    ``_FIRST_STEP``): its first step moves at most that far.

    Returns the kernel and the ``_solve_level`` of the best point the
    runs evaluated, never worse than the best start, and logs one DEBUG
    record of the search to the ``mfkrig.kriging`` logger: its start
    count, evaluations (``_solve_level`` calls), best NLL, whether
    sigma2 there is the floor, and the dimensions on a bound of the box.
    """
    from scipy.optimize import minimize

    log_lo, log_hi = box
    sq_diff = _squared_differences(lik.design)
    evaluations = 0
    best = [np.inf, None, None]  # nll, z and terms of the best point

    def evaluate(z):
        """(nll, gradient) at ``z``, or None; records a new best point."""
        nonlocal evaluations
        evaluations += 1
        theta = np.exp(z)
        try:
            terms = _solve_level(lik, theta)
        except (IllConditionedError, SingularTrendError):
            return None
        nll = terms[0]
        if not np.isfinite(nll):
            return None
        if nll < best[0]:
            best[:] = nll, z.copy(), terms
        return nll, _nll_gradient(lik, theta, terms, sq_diff)

    at_start = {}  # (z, evaluation) by the bytes of the clipped start z
    for z0 in starts:
        z = np.clip(z0, log_lo, log_hi)
        if z.tobytes() not in at_start:
            at_start[z.tobytes()] = (z, evaluate(z))
    if best[1] is None:
        raise FitFailedError(
            f"all {len(starts)} likelihood starts were ill-conditioned"
        )
    for z0, first in at_start.values():
        if first is None:
            continue
        scale = max(1.0, float(np.linalg.norm(first[1])) / _FIRST_STEP)

        def objective(z, z0=z0, first=first, scale=scale):
            value = first if z.tobytes() == z0.tobytes() else evaluate(z)
            if value is None:
                return np.inf, np.zeros_like(z)
            return value[0] / scale, value[1] / scale

        minimize(objective, z0, jac=True, method="L-BFGS-B",
                 bounds=list(zip(log_lo, log_hi)))

    nll, z, terms = best
    # L-BFGS-B's line search can stop a round-off away from a bound
    on_bound = np.minimum(z - log_lo, log_hi - z) < 1e-8
    _log.debug("search: %d starts, %d evaluations, best nll %.17g, "
               "sigma2 floored %s, on a bound in dimensions %s", len(starts),
               evaluations, nll, terms[2] == lik.sigma2_floor,
               np.flatnonzero(on_bound).tolist())
    return KernelSpec(lik.family, np.exp(z)), terms
