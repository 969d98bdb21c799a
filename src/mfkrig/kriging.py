"""Per-level numerical engine of the co-kriging model.

Each level of a ``MultiFidelityModel`` is a universal-kriging fit on its
own design; this module holds the numerics that fit and predict one
such level. Trend coefficients and process variance come from
generalized least squares; lengthscales from multi-start Nelder-Mead
minimization of the concentrated negative log-likelihood

    (n - p) * log(sigma2_hat(theta)) + log det R(theta)

over log-lengthscales (``_ml_fit``). ``_solve_level`` factors a level
and stores its residual solve; ``variance_factor`` gives the
1 - r(x)' R^{-1} r(x) of its plug-in posterior variance (no
trend-estimation inflation term). The level posteriors themselves are
formed in ``cokriging``. A single-level model is a 1-level
``fit_multifidelity``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular, lstsq, LinAlgError

from .exceptions import (
    FitFailedError,
    IllConditionedError,
    InternalConsistencyError,
    SingularTrendError,
)
from .kernels import (
    BasisSpec,
    KernelSpec,
    add_nugget,
    basis_matrix,
    correlation_matrix,
    _as_points,
)

# sigma2_hat below (this * data scale)^2 is treated as an exactly-zero
# residual: it is floored so the fitted variance stays positive and the
# concentrated NLL finite on degenerate (exact-relation) datasets.
_SIGMA2_FLOOR_REL = 1e-12

# Variance factors in [-1e-9, 0) are round-off and clamp to 0; anything
# more negative indicates a bug, not noise.
_VARIANCE_SLACK = 1e-9

_DEFAULT_RESTARTS = 5


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


def chol_nugget(r: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``r`` + nugget, or IllConditionedError."""
    try:
        return cholesky(add_nugget(r), lower=True)
    except LinAlgError as exc:
        raise IllConditionedError(
            f"correlation matrix of size {r.shape[0]} is not positive definite "
            "even after the nugget"
        ) from exc


def variance_factor(chol_lower: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Clamped 1 - r' R^{-1} r for each column of the cross-correlation ``c``."""
    v = solve_triangular(chol_lower, c, lower=True, check_finite=False)
    factor = 1.0 - np.einsum("ij,ij->j", v, v)
    bad = factor < -_VARIANCE_SLACK
    if np.any(bad):
        raise InternalConsistencyError(
            f"predicted variance factor {factor[bad].min():.3e} is below "
            f"-{_VARIANCE_SLACK:g}; round-off alone cannot explain this"
        )
    return np.maximum(factor, 0.0)


def _gls(chol_lower, f, y):
    """GLS on a pre-factored correlation matrix.

    Whitens both sides by the Cholesky factor and solves the resulting
    ordinary least-squares problem. Returns (beta, sigma2, whitened
    residual sum of squares is folded into sigma2 with the n - p divisor).
    """
    n, p = f.shape
    fw = solve_triangular(chol_lower, f, lower=True)
    yw = solve_triangular(chol_lower, y, lower=True)
    beta, _, rank, _ = lstsq(fw, yw)
    if rank < p:
        raise SingularTrendError(
            f"trend matrix has rank {rank} < {p}; columns are collinear"
        )
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
    return _gls(chol_nugget(r), f, y)


def _sigma2_floor(y):
    scale = max(1.0, float(np.max(np.abs(y))) if y.size else 1.0)
    return (_SIGMA2_FLOOR_REL * scale) ** 2


def _nll_terms(design, trend_matrix, y, kernel):
    """(nll, beta, sigma2_floored, chol) for fixed lengthscales."""
    lo = chol_nugget(correlation_matrix(kernel, design))
    beta, sigma2 = _gls(lo, trend_matrix, y)
    sigma2 = max(sigma2, _sigma2_floor(y))
    logdet = 2.0 * float(np.sum(np.log(np.diag(lo))))
    n, p = trend_matrix.shape
    nll = (n - p) * np.log(sigma2) + logdet
    return nll, beta, sigma2, lo


def _solve_level(kernel, design, trend_matrix, y, coef=None):
    """Factor a level and store its residual solve; the one place this is done.

    Factors R + nugget for ``kernel`` on ``design`` and stores
    alpha = R^{-1}(y - H coef). Without ``coef`` the coefficients are
    GLS estimates, returned with the floored sigma2 and the concentrated
    NLL; with ``coef`` given both of those are nan.

    Returns (chol, coef, sigma2, nll, alpha).
    """
    if coef is None:
        nll, coef, sigma2, lo = _nll_terms(design, trend_matrix, y, kernel)
    else:
        lo = chol_nugget(correlation_matrix(kernel, design))
        nll = sigma2 = float("nan")
    resid = y - trend_matrix @ coef
    alpha = solve_triangular(
        lo.T, solve_triangular(lo, resid, lower=True), lower=False
    )
    return lo, coef, sigma2, float(nll), alpha


def concentrated_nll(problem: KrigingProblem, theta) -> float:
    """Concentrated (profile) negative log-likelihood at lengthscales theta.

    beta and sigma2 are concentrated out in closed form; the returned
    value is (n - p) log sigma2_hat(theta) + log det R(theta).

    Raises IllConditionedError when R(theta) cannot be factored or the
    result is not finite.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    f = basis_matrix(problem.trend, problem.design)
    kernel = KernelSpec(problem.kernel.family, theta)
    nll, _, _, _ = _nll_terms(problem.design, f, problem.y, kernel)
    if not np.isfinite(nll):
        raise IllConditionedError(f"non-finite likelihood at theta={theta}")
    return float(nll)


def default_theta_bounds(design) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension lengthscale box [1e-2, 10] * (design side length)."""
    pts = _as_points(design)
    side = pts.max(axis=0) - pts.min(axis=0)
    side[side <= 0] = 1.0
    return 1e-2 * side, 10.0 * side


def _normalize_bounds(bounds, design, d):
    if bounds is None:
        lo, hi = default_theta_bounds(design)
    else:
        lo = np.broadcast_to(np.asarray(bounds[0], dtype=float), (d,)).copy()
        hi = np.broadcast_to(np.asarray(bounds[1], dtype=float), (d,)).copy()
    if not (np.all(lo > 0) and np.all(lo <= hi) and np.all(hi < np.inf)):
        raise ValueError("bounds must satisfy 0 < lower <= upper < inf")
    return lo, hi


def _ml_fit(design, trend_matrix, y, family, bounds, restarts, rng):
    """Multi-start concentrated-ML search for one level's lengthscales.

    Minimizes the concentrated NLL over log-lengthscales with
    Nelder-Mead, one run per start (start 0 is the log-box midpoint,
    the rest are drawn uniformly from the box with ``rng``). Returns the
    kernel at the best lengthscales found.
    """
    from scipy.optimize import minimize

    if not (isinstance(restarts, (int, np.integer)) and restarts >= 1):
        raise ValueError("restarts must be a positive integer")
    design = _as_points(design)
    y = np.asarray(y, dtype=float).ravel()
    n, d = design.shape
    lo, hi = _normalize_bounds(bounds, design, d)
    log_lo, log_hi = np.log(lo), np.log(hi)

    def objective(z):
        theta = np.exp(np.clip(z, log_lo, log_hi))
        try:
            nll, _, _, _ = _nll_terms(design, trend_matrix, y, KernelSpec(family, theta))
        except (IllConditionedError, SingularTrendError):
            return np.inf
        return nll if np.isfinite(nll) else np.inf

    starts = [0.5 * (log_lo + log_hi)]
    for _ in range(restarts - 1):
        starts.append(rng.uniform(log_lo, log_hi))

    best = None
    for idx, z0 in enumerate(starts):
        f0 = objective(z0)
        if not np.isfinite(f0):
            continue
        res = minimize(objective, z0, method="Nelder-Mead",
                       options={"xatol": 1e-6, "fatol": 1e-9, "maxiter": 400 * d})
        fun, z = (res.fun, res.x) if res.fun <= f0 else (f0, z0)
        if best is None or fun < best[0]:
            best = (fun, np.clip(z, log_lo, log_hi))
    if best is None:
        raise FitFailedError(
            f"all {len(starts)} likelihood starts were ill-conditioned"
        )

    return KernelSpec(family, np.exp(best[1]))
