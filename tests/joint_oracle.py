"""Joint-covariance co-kriging evaluated directly, as a small-scale cross-check.

Instead of the level-by-level recursion, build the covariance matrix V of
the full stacked observation vector z = (z^1', ..., z^s')' together with
the stacked trend H and predict with one dense solve:

    mean(x) = h'(x)' beta + t(x)' V^{-1} (z - H beta)
    var(x)  = prior(x) - t(x)' V^{-1} t(x)

Covariances follow the autoregressive chain: for t >= t',

    cov(Z_t(x), Z_{t'}(x')) = (prod_{i=t'}^{t-1} rho_i(x))
                              * sum_{j<=t'} sigma_j^2 (prod_{i=j}^{t'-1} rho_i(x)^2) r_j(x, x'),

with every rho factor evaluated at the first argument, and the t < t'
case resolved by swapping arguments. For non-constant rho this
row-point convention makes same-level blocks of V asymmetric; the
factorization reads the lower triangle, and ``asymmetry`` measures the
effect so tests can record it. With constant scaling the construction
is exactly the covariance of the generative model and matches the
recursive predictor to solver precision.

Each r_j carries the nugget at bitwise-identical point pairs (the
white-noise reading of the nugget, shared across levels through the
chain), keeping this path consistent with the per-level factorizations.

Everything here is O(N^3) in the total observation count and guarded by
a cap; the module exists to validate the recursive model, not to serve
predictions.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular, LinAlgError

from mfkrig.cokriging import _check_levels
from mfkrig.exceptions import IllConditionedError, MfkrigError
from mfkrig.kernels import (
    add_matched_nugget,
    basis_matrix,
    cross_correlation,
    _as_points,
)
from mfkrig.kriging import _VARIANCE_SLACK

DEFAULT_MAX_POINTS = 200


class OracleTooLargeError(MfkrigError):
    """Joint-model oracle asked to factor more points than its cap allows."""


@dataclass
class _Level:
    design: np.ndarray
    y: np.ndarray
    trend: object
    scaling: object
    kernel: object
    beta: np.ndarray
    rho_beta: np.ndarray | None
    sigma2: float


class JointModel:
    """Stacked-covariance model over all levels, parameters supplied.

    Nothing is estimated here: the constructor takes the same data,
    configs, and per-level parameters as
    ``MultiFidelityModel.from_parameters`` and assembles V, H, and the
    stored solve V^{-1}(z - H beta).

    Parameters
    ----------
    data : MultiFidelityData
    configs : sequence of LevelConfig
    parameters : sequence of LevelParameters

    ``DEFAULT_MAX_POINTS`` caps the total observation count (cubic cost
    guard).
    """

    def __init__(self, data, configs, parameters):
        _check_levels(data, configs, parameters)
        total = sum(len(dd) for dd in data.designs)
        if total > DEFAULT_MAX_POINTS:
            raise OracleTooLargeError(
                f"{total} stacked observations exceed the oracle cap "
                f"{DEFAULT_MAX_POINTS}"
            )
        self.data = data
        self.levels = []
        for t, (config, par) in enumerate(zip(configs, parameters), start=1):
            self.levels.append(_Level(
                design=data.designs[t - 1], y=data.observations[t - 1],
                trend=config.trend, scaling=config.scaling,
                kernel=config.kernel.with_lengthscales(par.lengthscales),
                beta=par.beta, rho_beta=par.rho_beta,
                sigma2=float(par.sigma2)))
        s = len(self.levels)
        self.beta = np.concatenate([lev.beta for lev in self.levels])
        self.v = np.vstack([
            np.hstack([self._pair_block(t, tp, self.levels[t - 1].design,
                                        self.levels[tp - 1].design)
                       for tp in range(1, s + 1)])
            for t in range(1, s + 1)
        ])
        # level t's rows are h'(D_t) at level t, zero under the higher
        # levels' coefficients
        rows = [self.h_prime(lev.design, level=t)
                for t, lev in enumerate(self.levels, start=1)]
        self.trend_matrix = np.vstack([
            np.pad(h, ((0, 0), (0, rows[-1].shape[1] - h.shape[1])))
            for h in rows])
        self._z = np.concatenate([lev.y for lev in self.levels])
        # factored lazily: an asymmetric V (non-constant rho) can still
        # be inspected even when its lower triangle is not factorable
        self._chol = None
        self._alpha = None

    @property
    def level_count(self) -> int:
        return len(self.levels)

    @property
    def dimension(self) -> int:
        return self.levels[0].design.shape[1]

    # ------------------------------------------------------------ pieces

    def _rho_prod(self, j, t, X):
        """prod_{i=j}^{t-1} rho_i(X), rho_i the scaling stored on level
        i+1; empty products are 1."""
        out = np.ones(len(X))
        for lev in self.levels[j:t]:
            out = out * (basis_matrix(lev.scaling, X) @ lev.rho_beta)
        return out

    def _pair_block(self, t, tp, a, b, nugget=True):
        """cov(Z_t on points a, Z_{t'} on points b), shape (len(a), len(b)).

        Each r_j carries the matched nugget unless ``nugget`` is False.
        """
        if t < tp:
            return self._pair_block(tp, t, b, a, nugget).T
        lead = self._rho_prod(tp, t, a)
        out = np.zeros((len(a), len(b)))
        for j in range(1, tp + 1):
            lev = self.levels[j - 1]
            w = lead * self._rho_prod(j, tp, a) ** 2
            r = cross_correlation(lev.kernel, a, b)
            if nugget:
                r = add_matched_nugget(r, a, b)
            out += lev.sigma2 * w[:, None] * r
        return out

    # ------------------------------------------------------------ public

    def cross_covariance(self, t, tp, x, x_prime) -> float:
        """Scalar cov(Z_t(x), Z_{t'}(x')) by the displayed chain formula.

        Pure formula value: no nugget term even at coinciding points.
        """
        s = self.level_count
        if not (1 <= t <= s and 1 <= tp <= s):
            raise ValueError(f"levels must be in [1, {s}]")
        a = _as_points(np.asarray(x, dtype=float), self.dimension)
        b = _as_points(np.asarray(x_prime, dtype=float), self.dimension)
        return float(self._pair_block(t, tp, a, b, nugget=False)[0, 0])

    def h_prime(self, x, level=None) -> np.ndarray:
        """Regression vector of the joint mean at ``x`` for the given level.

        Concatenates each lower level's trend basis scaled by the chain
        of rho factors up to ``level`` (default: the top level); the last
        block is unscaled. Returns (k,) for one point, (m, k) for a batch.
        """
        t = self.level_count if level is None else level
        if not 1 <= t <= self.level_count:
            raise ValueError(f"level must be in [1, {self.level_count}]")
        xa = np.asarray(x, dtype=float)
        single = xa.ndim == 1
        X = _as_points(xa, self.dimension)
        blocks = [
            self._rho_prod(j, t, X)[:, None]
            * basis_matrix(self.levels[j - 1].trend, X)
            for j in range(1, t + 1)
        ]
        out = np.hstack(blocks)
        return out[0] if single else out

    def t_vector(self, x) -> np.ndarray:
        """Covariances of Z_s(x) with every stacked observation, (m, N)."""
        X = _as_points(np.asarray(x, dtype=float), self.dimension)
        s = self.level_count
        return np.hstack([
            self._pair_block(s, t, X, self.levels[t - 1].design)
            for t in range(1, s + 1)
        ])

    def prior_variance(self, x) -> np.ndarray:
        """var Z_s(x) before conditioning, (m,)."""
        X = _as_points(np.asarray(x, dtype=float), self.dimension)
        s = self.level_count
        out = np.zeros(len(X))
        for j in range(1, s + 1):
            out += self.levels[j - 1].sigma2 * self._rho_prod(j, s, X) ** 2
        return out

    def asymmetry(self) -> float:
        """max |V - V'|, nonzero when a non-constant rho is in play."""
        return float(np.max(np.abs(self.v - self.v.T)))

    def _factor(self):
        if self._chol is None:
            try:
                self._chol = cholesky(self.v, lower=True)
            except LinAlgError as exc:
                raise IllConditionedError(
                    "stacked covariance matrix is not positive definite"
                ) from exc
            resid = self._z - self.trend_matrix @ self.beta
            self._alpha = solve_triangular(
                self._chol.T, solve_triangular(self._chol, resid, lower=True),
                lower=False)
        return self._chol, self._alpha

    def predict(self, x):
        """Top-level posterior mean and variance at one point or a batch."""
        xa = np.asarray(x, dtype=float)
        single = xa.ndim == 1
        X = _as_points(xa, self.dimension)
        chol, alpha = self._factor()
        tv = self.t_vector(X)
        mean = self.h_prime(X) @ self.beta + tv @ alpha
        w = solve_triangular(chol, tv.T, lower=True)
        prior = self.prior_variance(X)
        var = prior - np.einsum("ij,ij->j", w, w)
        # round-off in the subtraction scales with the prior magnitude,
        # which grows with the number of levels and the scaling factors
        bad = var < -_VARIANCE_SLACK * (1.0 + prior)
        if np.any(bad):
            raise IllConditionedError(
                f"joint predictive variance {var[bad].min():.3e} is below "
                "the round-off allowance"
            )
        var = np.maximum(var, 0.0)
        if single:
            return float(mean[0]), float(var[0])
        return mean, var
