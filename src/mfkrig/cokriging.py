"""Recursive multi-fidelity co-kriging over nested designs.

Levels 1..s model codes of increasing accuracy through the
autoregressive link

    Z_t(x) = rho_{t-1}(x) Z_{t-1}(x) + delta_t(x),
    rho_{t-1}(x) = g_{t-1}(x)' beta_rho,

with delta_t a Gaussian process independent of the levels below. When
every design is a subset of the one below it, the model splits into s
independent single-level kriging fits: level t >= 2 regresses z^t on
the extended trend matrix [G . z_{t-1}(D_t) | F_t] (scaling-basis
columns multiplied elementwise by the lower-level responses), whose
leading coefficient block is beta_rho. Prediction recurses bottom-up:

    mean_t(x) = rho_{t-1}(x) mean_{t-1}(x) + f_t(x)' beta_t + r_t(x)' R_t^{-1} resid_t
    var_t(x)  = rho_{t-1}(x)^2 var_{t-1}(x) + sigma_t^2 (1 - r_t(x)' R_t^{-1} r_t(x))

Each level's posterior is formed here from its correlations
R_t(D_t, x) with the matched nugget (``kernels.probe_correlation`` on
the data's ``PointIndex`` of D_t) and its variance factor 1 - r' R_t^{-1} r from
``kriging.variance_factor`` (the row recursion, or one dtrtrs for a
single point); ``_variance_terms`` turns the factors into the bases
and rho factors of the variance recursion, and ``_variance_recursion``
and ``_contributions`` turn those into the per-level variances and
contributions, for ``predict``, ``hypothetical_variance_after`` and the
kept node sets of the sequential loop alike. A frozen ``refit`` keeps
each estimated level whose likelihood inputs are unchanged, appends
factor rows for the appended design points of the others and records
the factor each level grew from, so the loop's node sets continue their
kept solves by identity or by that lineage.
A reestimate (``_reestimate``) keeps each level its last search built
whose likelihood inputs are unchanged and searches every other level
from its current lengthscales and the box midpoint, drawing nothing.
Per-level variance contributions come from telescoping the recursion;
they power the sequential level rules.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DuplicateDesignPointError, SingularTrendError
from .kernels import (
    CONSTANT,
    BasisSpec,
    KernelSpec,
    PointIndex,
    basis_matrix,
    extends,
    probe_correlation,
    _as_points,
    _check_level,
    _is_number,
)
from .kriging import (
    _DEFAULT_RESTARTS,
    _draw_starts,
    _likelihood,
    _ml_fit,
    _search_box,
    _solve_level,
    variance_factor,
)

_log = logging.getLogger(__name__)


@dataclass
class LevelConfig:
    """Structure of one level: trend basis, kernel, and (above level 1)
    the scaling basis parameterizing rho."""

    trend: BasisSpec
    kernel: KernelSpec
    scaling: BasisSpec | None = None

    def __post_init__(self):
        if self.scaling is not None and self.scaling.dimension != self.trend.dimension:
            raise ValueError("scaling and trend bases disagree on dimension")


def _check_layout(level: int, scaling) -> None:
    """The layout rule of a level list: level 1 has no scaling basis and
    every level above has one. ``scaling`` is that level's scaling basis
    or, for given parameters, its coefficients rho_beta."""
    if level == 1 and scaling is not None:
        raise ValueError("level 1 takes no scaling basis")
    if level > 1 and scaling is None:
        raise ValueError(f"level {level} needs a scaling basis")


def _check_levels(data, configs, parameters=None) -> None:
    """The level-list rule, which every model builder relies on.

    ``data`` has one config per level and, when ``parameters`` are
    given (``LevelParameters`` or fitted levels), one parameter set per
    level; every level follows the layout rule of ``_check_layout``,
    beta and rho_beta have one value per trend and scaling column, and
    the lengthscales one per data dimension.
    """
    if len(configs) != data.levels:
        raise ValueError(f"{len(configs)} configs for {data.levels} levels")
    if parameters is not None and len(parameters) != data.levels:
        raise ValueError(
            f"{len(parameters)} parameter sets for {data.levels} levels")
    for t, config in enumerate(configs, start=1):
        _check_layout(t, config.scaling)
        if parameters is not None:
            par = parameters[t - 1]
            _check_layout(t, par.rho_beta)
            if par.lengthscales.size != data.dimension:
                raise ValueError(
                    f"level {t}: lengthscales has {par.lengthscales.size} "
                    f"values, the data dimension is {data.dimension}")
            for name, coef, basis in (("beta", par.beta, config.trend),
                                      ("rho_beta", par.rho_beta, config.scaling)):
                if basis is not None and coef.size != basis.size:
                    raise ValueError(f"level {t}: {name} has {coef.size} values, "
                                     f"its {basis.kind} basis {basis.size} columns")


def validate_nesting(designs):
    """Check exact point-identity nesting (``PointIndex``) of designs read
    as ``MultiFidelityData`` reads them: None when every level's points
    are points of the level below, else the first violation as (1-based
    level, 0-based point index)."""
    return _check_nesting([PointIndex(dd) for dd in designs])[0]


def _check_nesting(indexes):
    """(``validate_nesting``'s result, each upper level's rows below)."""
    below = []
    for t in range(1, len(indexes)):
        rows, found = indexes[t - 1].matches(indexes[t].points)
        nested = np.bincount(rows, minlength=len(indexes[t].points)) > 0
        if not nested.all():
            return (t + 1, int(np.argmin(nested))), below
        below.append(found)
    return None, below


def _check_finite(level, design, responses) -> None:
    """The finiteness rule of a level's design points and responses
    (ValueError naming the first non-finite one): ``MultiFidelityData``
    checks every row, ``with_point`` the appended one."""
    bad = np.flatnonzero(~np.isfinite(design).all(axis=1))
    if bad.size:
        raise ValueError(
            f"level {level} design point {design[bad[0]]} is not finite")
    bad = np.flatnonzero(~np.isfinite(responses))
    if bad.size:
        i = bad[0]
        raise ValueError(f"level {level} value {responses[i]} at point "
                         f"{design[i]} is not finite")


def _check_distinct(level, index):
    """``index``, after the duplicate rule of its level's design points:
    a point equal to an earlier one raises DuplicateDesignPointError."""
    if not index.distinct:
        rows, found = index.matches(index.points)
        i = rows[found < rows][0]  # the first row equal to an earlier one
        raise DuplicateDesignPointError(
            f"level {level}: design point {index.points[i]} duplicates an "
            "earlier one")
    return index


class MultiFidelityData:
    """Nested designs D_s subset ... subset D_1 with aligned responses.

    The one home of the data rules: every level has one finite response
    per finite, distinct design point, and each level's points are
    points of the level below. Nesting is exact point identity (bitwise
    equality of stored coordinates), never tolerance matching. Responses
    at a shared point may differ across levels; the codes are different.
    A repeated point within a level raises DuplicateDesignPointError;
    every other broken rule (dimension 0 too) raises ValueError. Each
    level's ``PointIndex`` (``indexes``) is built once; ``predict`` reuses it.

    Parameters
    ----------
    designs : sequence of (n_t, d) arrays, cheapest level first.
    observations : sequence of (n_t,) arrays aligned with each design.
    """

    def __init__(self, designs, observations):
        if len(designs) < 1:
            raise ValueError("need at least one level")
        if len(designs) != len(observations):
            raise ValueError(
                f"{len(designs)} designs but {len(observations)} response sets"
            )
        self.designs = [_as_points(dd) for dd in designs]
        d = self.designs[0].shape[1]
        for t, dd in enumerate(self.designs):
            if dd.shape[1] != d:
                raise ValueError(f"design for level {t + 1} has dimension "
                                 f"{dd.shape[1]}, expected {d}")
        self.observations = [np.asarray(z, dtype=float).ravel()
                             for z in observations]
        self.indexes = []
        for t, (dd, z) in enumerate(zip(self.designs, self.observations),
                                    start=1):
            if len(z) != len(dd):
                raise ValueError(
                    f"level {t}: {len(z)} responses for {len(dd)} points")
            _check_finite(t, dd, z)
            self.indexes.append(_check_distinct(t, PointIndex(dd)))
        violation, self._below = _check_nesting(self.indexes)
        if violation is not None:
            t, i = violation
            raise ValueError(f"nesting violated: level {t} point {i} is not a "
                             f"point of level {t - 1}")

    @property
    def levels(self) -> int:
        return len(self.designs)

    @property
    def dimension(self) -> int:
        return self.designs[0].shape[1]

    def lower_level_values(self, level: int) -> np.ndarray:
        """Responses of level-1 code ``level - 1`` at the points of D_level.

        Well-defined because of nesting, whose check kept the rows;
        ``level`` is 1-based and >= 2.
        """
        _check_level(level, self.levels, lowest=2)
        return self.observations[level - 2][self._below[level - 2]]

    def with_point(self, x, values) -> "MultiFidelityData":
        """New data with ``x`` appended to levels 1..len(values).

        ``values`` holds the responses, cheapest level first. Only the
        new point is checked, by the constructor's own rules and in its
        order: per level, a non-finite coordinate or value raises
        ValueError and, at level 1, a point already in D_1 raises
        DuplicateDesignPointError (a point new to D_1 is new to every
        level, and nested in the grown levels below). The result equals
        the constructor's on the grown designs and responses field for
        field. Each grown level gets one new ``PointIndex`` and ``_below``
        its new last row; a level above len(values) keeps its design,
        responses and index objects.
        """
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dimension:
            raise ValueError(f"point has dimension {x.size}, expected "
                             f"{self.dimension}")
        values = np.asarray(values, dtype=float).ravel()
        if not 1 <= values.size <= self.levels:
            raise ValueError("need values for levels 1..l with l <= level count")
        k = values.size
        new = object.__new__(MultiFidelityData)
        new.designs, new.observations = self.designs[:], self.observations[:]
        new.indexes, new._below = self.indexes[:], self._below[:]
        for t in range(k):
            dd = np.vstack([self.designs[t], x])
            _check_finite(t + 1, dd[-1:], values[t:t + 1])
            new.designs[t], new.observations[t] = dd, np.append(
                self.observations[t], values[t])
            new.indexes[t] = _check_distinct(t + 1, PointIndex(dd))
            if t:
                new._below[t - 1] = np.append(self._below[t - 1],
                                              len(self.designs[t - 1]))
        return new


@dataclass
class FittedLevel:
    """One fitted stage of the recursion.

    ``rho_beta`` is None at level 1. ``alpha`` stores the solve
    R_t^{-1}(z^t - rho(D_t) . z_{t-1}(D_t) - F_t beta); ``lower_values``
    keeps z_{t-1}(D_t) so the residual can be rebuilt after enrichment.
    ``nll`` is the concentrated NLL at the level's lengthscales on its own
    data, also after a frozen refit; it is nan only for given coefficients
    (``from_parameters``, hence ``testbed.load_model``). ``grown_from``
    is the factor a frozen refit grew ``chol`` from by appended rows
    (``chol`` itself when none was appended), else None: the lineage by
    which the loop's node sets continue their solves. A level that a
    frozen refit keeps (``MultiFidelityModel.refit``) is the same object
    and carries the lineage it had; the node sets continue it by its
    ``chol``, the factor they kept. ``searched`` is True only for the
    level an ML search built, the one object a reestimate keeps unsearched
    while its inputs are unchanged (``_reestimate``).
    """

    design: np.ndarray
    y: np.ndarray
    trend: BasisSpec
    scaling: BasisSpec | None
    kernel: KernelSpec
    beta: np.ndarray
    rho_beta: np.ndarray | None
    sigma2: float
    chol: np.ndarray
    alpha: np.ndarray
    nll: float
    lower_values: np.ndarray | None = None
    grown_from: np.ndarray | None = field(default=None, repr=False,
                                          compare=False)
    searched: bool = field(default=False, repr=False, compare=False)

    @property
    def lengthscales(self) -> np.ndarray:
        return self.kernel.lengthscales

    def rho(self, x):
        """Scaling function g(x)' beta_rho; float for a single point. A
        constant basis skips the product: rho_beta[0] + 0.0 is its value
        bit for bit, -0.0 turned into +0.0 included."""
        if self.scaling is None:
            raise ValueError("level 1 has no scaling function")
        xa = np.asarray(x, dtype=float)
        X = _as_points(xa, self.scaling.dimension)
        if self.scaling.kind == CONSTANT:
            out = np.full(len(X), self.rho_beta[0] + 0.0)
        else:
            out = basis_matrix(self.scaling, X) @ self.rho_beta
        return float(out[0]) if xa.ndim == 1 else out


@dataclass
class LevelParameters:
    """Externally supplied parameters for one level (no estimation).

    ``sigma2`` must be a positive number and every coefficient finite;
    the kernel checks the lengthscales.
    """

    lengthscales: np.ndarray
    sigma2: float
    beta: np.ndarray
    rho_beta: np.ndarray | None = None

    def __post_init__(self):
        self.lengthscales = np.atleast_1d(np.asarray(self.lengthscales, float))
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if self.rho_beta is not None:
            self.rho_beta = np.atleast_1d(np.asarray(self.rho_beta, dtype=float))
        if not _is_number(self.sigma2):
            raise ValueError(f"sigma2 must be a number, got {self.sigma2!r}")
        if not 0 < self.sigma2 < np.inf:
            raise ValueError("sigma2 must be positive and finite")
        if not np.all(np.isfinite(self.beta)):
            raise ValueError("beta must be finite")
        if self.rho_beta is not None and not np.all(np.isfinite(self.rho_beta)):
            raise ValueError("rho_beta must be finite")


@dataclass
class PredictionBreakdown:
    """Per-level posterior state at one point or a batch.

    Arrays have shape (s,) for a single point, (s, m) for a batch.
    ``contributions[t]`` is the share of the top-level variance
    attributable to level t+1; the shares sum to ``variances[-1]``.
    """

    means: np.ndarray
    variances: np.ndarray
    contributions: np.ndarray

    @property
    def mean(self):
        return self.means[-1]

    @property
    def variance(self):
        return self.variances[-1]


def extended_trend_matrix(config: LevelConfig, design, lower_values) -> np.ndarray:
    """[G . z_lower | F] on the given points; first block drives rho."""
    pts = _as_points(design)
    z = np.asarray(lower_values, dtype=float).ravel()
    g = basis_matrix(config.scaling, pts) * z[:, None]
    f = basis_matrix(config.trend, pts)
    return np.hstack([g, f])


def _check_estimable(level: int, h: np.ndarray, q=None) -> None:
    """The estimability rule of one level's regression on ``h``.

    ``h`` is the level's regression matrix, its scaling block (width
    ``q``, 0 at level 1) first. It needs at least p + 1 rows and full
    column rank; a rank deficiency raises SingularTrendError naming the
    rank-deficient block. Without ``q`` only the row count is checked.
    """
    n, p_total = h.shape
    if n < p_total + 1:
        raise ValueError(
            f"level {level} needs at least {p_total + 1} points, has {n}")
    if q is None or np.linalg.matrix_rank(h) >= p_total:
        return
    if np.linalg.matrix_rank(h[:, :q]) < q:
        block = ("scaling block (scaling basis times lower-level responses "
                 "is rank-deficient, e.g. responses identically zero)")
    elif np.linalg.matrix_rank(h[:, q:]) < p_total - q:
        block = "trend block"
    else:
        block = "combined scaling + trend blocks"
    raise SingularTrendError(
        f"level {level} extended trend matrix is singular: {block}"
    )


def fit_level(level: int, data: MultiFidelityData, config: LevelConfig,
              bounds=None, restarts=_DEFAULT_RESTARTS, seed=0) -> FittedLevel:
    """Fit one level by concentrated maximum likelihood.

    Level 1 is a plain kriging fit. Level t >= 2 regresses z^t on the
    extended trend matrix built from z_{t-1}(D_t); the leading
    coefficients become rho_beta. A level that cannot be estimated
    fails before any likelihood evaluation.

    Parameters
    ----------
    level : 1-based level index.
    seed : int or numpy Generator; fit_multifidelity threads a single
        generator through all levels so level fits stay sequential and
        reproducible.
    """
    _check_level(level, data.levels)
    _check_layout(level, config.scaling)
    inputs = _level_inputs(config, data, level)
    _check_estimable(level, inputs[0].trend, inputs[2])
    box = _search_box(inputs[0].design, bounds)
    return _fit_on(config, inputs, box,
                   _draw_starts(*box, restarts, np.random.default_rng(seed)))


def _level_inputs(config: LevelConfig, data: MultiFidelityData, level: int):
    """(likelihood record with regression matrix F at level 1, else
    [G . z_{t-1} | F], z_{t-1}(D_t), scaling block width) of one level."""
    design, y = data.designs[level - 1], data.observations[level - 1]
    if config.scaling is None:
        lower, h, q = None, basis_matrix(config.trend, design), 0
    else:
        lower = data.lower_level_values(level)
        h, q = extended_trend_matrix(config, design, lower), config.scaling.size
    return _likelihood(config.kernel.family, design, h, y), lower, q


def _checked_inputs(data: MultiFidelityData, configs) -> list:
    """Every level's ``_level_inputs``, each level checked for
    estimability before any search."""
    _check_levels(data, configs)
    inputs = []
    for t, config in enumerate(configs, start=1):
        inputs.append(_level_inputs(config, data, t))
        _check_estimable(t, inputs[-1][0].trend, inputs[-1][2])
    return inputs


def _fit_on(config: LevelConfig, inputs, box, starts) -> FittedLevel:
    """The level an ML search (``kriging._ml_fit``) from ``starts`` in the
    log-lengthscale ``box`` builds on its checked inputs, from the
    search's solve at its best point, marked ``searched``."""
    level = _assemble_level(config, inputs, *_ml_fit(inputs[0], box, starts))
    level.searched = True
    return level


def _assemble_level(config: LevelConfig, inputs, kernel: KernelSpec, terms,
                    sigma2=None) -> FittedLevel:
    """One level with the given kernel on its ``_level_inputs``, from its
    ``kriging._solve_level`` ``terms``: the search's at its best point or
    a solve at given parameters. ``sigma2`` defaults to the ML estimate."""
    lik, lower_values, q = inputs
    nll, coef, ml_sigma2, lo, alpha, _ = terms
    return FittedLevel(
        design=lik.design, y=lik.y, trend=config.trend, scaling=config.scaling,
        kernel=kernel, beta=coef[q:], rho_beta=coef[:q] if q else None,
        sigma2=ml_sigma2 if sigma2 is None else sigma2, chol=lo, alpha=alpha,
        nll=nll, lower_values=lower_values)


def _keeps(level: FittedLevel, data, t) -> bool:
    """True when a frozen refit on ``data`` keeps ``level``, its level
    ``t``: its coefficients were estimated (``nll`` is not nan) and its
    design, responses and lower-level values are bit for bit those of
    ``data`` (the same arrays, as ``with_point`` leaves a level it did
    not grow, or equal bytes)."""

    def same(a, b):
        return a is b or (a.shape == b.shape and a.tobytes() == b.tobytes())

    return (not np.isnan(level.nll)
            and same(data.designs[t - 1], level.design)
            and same(data.observations[t - 1], level.y)
            and (t == 1 or same(data.lower_level_values(t), level.lower_values)))


def _variance_terms(levels, factors, X):
    """(bases, rhos) of ``_variance_recursion`` at X (m, d) from each
    level's variance factor 1 - r' R_t^{-1} r at X:
    base_t = sigma2_t * factor_t, and rho from ``FittedLevel.rho``."""
    bases = [lev.sigma2 * f for lev, f in zip(levels, factors)]
    return bases, [lev.rho(X) for lev in levels[1:]]


def _variance_recursion(bases, rhos) -> list:
    """Per-level variances, level 1 first: var_1 = base_1,
    var_t = rho_{t-1}^2 var_{t-1} + base_t, in that operation order, each
    level in one new array."""
    variances = [bases[0]]
    for k in range(1, len(bases)):
        var = np.square(rhos[k - 1])
        var *= variances[k - 1]
        var += bases[k]
        variances.append(var)
    return variances


def _contributions(bases, rhos) -> list:
    """Per-level shares of the top-level variance, level 1 first: base_t
    times the product of rho_k^2 over the levels k above t."""
    shares = [None] * len(bases)
    prod = np.ones(len(bases[0]))
    for k in range(len(bases) - 1, -1, -1):
        shares[k] = bases[k] * prod
        if k > 0:
            prod = prod * rhos[k - 1] ** 2
    return shares


class MultiFidelityModel:
    """Fitted s-level recursive co-kriging model.

    Immutable after construction; ``predict`` and
    ``hypothetical_variance_after`` are read-only. A model keeps the
    ``bounds`` of its fit (``_bounds``, else None), the box of its
    reestimates (``_reestimate``); restarts and seed apply to the fit
    alone. A frozen ``refit`` and a reestimate carry it forward, and
    nothing saves it.
    """

    def __init__(self, levels, data: MultiFidelityData, configs):
        _check_levels(data, configs, levels)
        for t, (lev, dd) in enumerate(zip(levels, data.designs), start=1):
            if len(lev.design) != len(dd) or not extends(lev.design, dd):
                raise ValueError(f"level {t} was fitted on another design "
                                 "than the data's")
        self.levels = list(levels)
        self.data = data
        self.configs = list(configs)
        self._bounds = None

    @property
    def level_count(self) -> int:
        return len(self.levels)

    @property
    def dimension(self) -> int:
        return self.data.dimension

    @classmethod
    def from_parameters(cls, data: MultiFidelityData, configs,
                        parameters) -> "MultiFidelityModel":
        """Assemble a model from given parameters; nothing is estimated.

        Each level gets its correlation matrix factored and its
        residual solve stored, exactly as a fit would leave them.
        """
        _check_levels(data, configs, parameters)
        levels = []
        for t, (config, par) in enumerate(zip(configs, parameters), start=1):
            coef = par.beta if t == 1 else np.concatenate([par.rho_beta, par.beta])
            kernel = config.kernel.with_lengthscales(par.lengthscales)
            inputs = _level_inputs(config, data, t)
            terms = _solve_level(inputs[0], kernel.lengthscales, coef)
            levels.append(_assemble_level(config, inputs, kernel, terms,
                                          sigma2=float(par.sigma2)))
        return cls(levels, data, configs)

    def _probe(self, x):
        """(X, per-level R_t(D_t, X) with the matched nugget, per-level
        variance factors) of one point (d,) or a batch (m, d); a
        non-finite probe raises ValueError."""
        X = _as_points(x, self.dimension)
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if bad.size:
            raise ValueError(f"probe point {X[bad[0]]} is not finite")
        correlations = [probe_correlation(lev.kernel, index, X) for lev, index
                        in zip(self.levels, self.data.indexes)]
        return X, correlations, [variance_factor(lev.chol, c)
                                 for lev, c in zip(self.levels, correlations)]

    def predict(self, x) -> PredictionBreakdown:
        """Posterior means, variances, and variance contributions, all levels.

        ``x`` is one point (d,) or a batch (m, d); outputs have shape
        (s,) or (s, m) accordingly. A non-finite probe raises ValueError.
        """
        xa = np.asarray(x, dtype=float)
        single = xa.ndim == 1
        X, correlations, factors = self._probe(xa)
        bases, rhos = _variance_terms(self.levels, factors, X)
        means = []
        for k, (lev, c) in enumerate(zip(self.levels, correlations)):
            m = basis_matrix(lev.trend, X) @ lev.beta + c.T @ lev.alpha
            means.append(m if k == 0 else rhos[k - 1] * means[-1] + m)
        out = (np.vstack(means), np.vstack(_variance_recursion(bases, rhos)),
               np.vstack(_contributions(bases, rhos)))
        if single:
            out = tuple(a[:, 0] for a in out)
        return PredictionBreakdown(*out)

    def hypothetical_variance_after(self, x, level: int):
        """Per-level variances at x if codes 1..level were run at x.

        Levels up to ``level`` would interpolate x, so their variance is
        zero; higher levels keep only the terms the extra run cannot
        remove. Shape (s,) for one point, (s, m) for a batch. Nothing is
        refitted; the variance recursion runs with the bases of levels
        1..level set to zero. The top-level entry equals the suffix sum
        ``predict(x).contributions[level:].sum(0)`` up to round-off (bit
        for bit with at most three levels).
        """
        _check_level(level, self.level_count)
        xa = np.asarray(x, dtype=float)
        X, _, factors = self._probe(xa)
        bases, rhos = _variance_terms(self.levels, factors, X)
        bases[:level] = [np.zeros(X.shape[0])] * level
        stacked = np.vstack(_variance_recursion(bases, rhos))
        return stacked[:, 0] if xa.ndim == 1 else stacked

    def refit(self, data: MultiFidelityData) -> "MultiFidelityModel":
        """New model on ``data`` with hyperparameters frozen.

        Kernel lengthscales and process variances carry over unchanged;
        trend and scaling coefficients are re-estimated by GLS and the
        stored solves rebuilt. Used by enrichment in frozen mode. A
        level whose coefficients were estimated (``nll`` not nan) and
        whose likelihood inputs on ``data`` (design, responses and, above
        level 1, lower-level values) equal its own bit for bit is kept:
        the new model holds the same ``FittedLevel`` object, with its own
        lineage, which is what a solve would rebuild bit for bit. Levels
        with given coefficients (``from_parameters``, hence
        ``testbed.load_model``) are solved again. A solved level whose
        new design extends its old one bit for bit keeps its factor and
        appends one row per new point (``kriging._append_rows``), so the
        factor's leading block stays bit for bit the old factor, and
        records the old factor as its lineage (``FittedLevel.grown_from``);
        any other design is refactored and has none. Each level's ``nll``
        is taken on the new data (``FittedLevel``). Too few points raise
        ValueError.

        The grown factor depends on the path: it equals a fresh
        factorization of the same design (``from_parameters``, hence
        ``testbed.load_model``) to round-off, about cond(R) * eps at
        worst, not bit for bit. So a model saved after frozen refits and
        loaded again predicts what the saved model did to round-off.
        """
        _check_levels(data, self.configs)
        levels = []
        for t, (config, lev) in enumerate(zip(self.configs, self.levels),
                                          start=1):
            if _keeps(lev, data, t):
                levels.append(lev)
                continue
            inputs = _level_inputs(config, data, t)
            lik = inputs[0]
            _check_estimable(t, lik.trend)
            grown_from = lev.chol if extends(lik.design, lev.design) else None
            terms = _solve_level(lik, lev.lengthscales, grown_from=grown_from)
            levels.append(_assemble_level(config, inputs, lev.kernel, terms,
                                          sigma2=lev.sigma2))
            levels[-1].grown_from = grown_from
        model = MultiFidelityModel(levels, data, self.configs)
        model._bounds = self._bounds
        return model


def fit_multifidelity(data: MultiFidelityData, configs, bounds=None,
                      restarts=_DEFAULT_RESTARTS, seed=0) -> MultiFidelityModel:
    """Fit all levels bottom-up with one shared restart generator.

    Parameters
    ----------
    bounds : None for per-level defaults, or one (lo, hi) pair used at
        every level.
    seed : seeds a single generator consumed sequentially by the level
        fits: level t draws its restarts after levels 1..t-1 have drawn
        theirs, so a fit is reproducible from the seed alone.

    Every level is checked for estimability before any likelihood search.
    The model keeps ``bounds`` for its reestimates.
    """
    inputs = _checked_inputs(data, configs)
    rng = np.random.default_rng(seed)
    levels = []
    for config, level_inputs in zip(configs, inputs):
        box = _search_box(level_inputs[0].design, bounds)
        levels.append(_fit_on(config, level_inputs, box,
                              _draw_starts(*box, restarts, rng)))
    model = MultiFidelityModel(levels, data, configs)
    model._bounds = bounds
    return model


def _reestimate(model: MultiFidelityModel,
                data: MultiFidelityData) -> MultiFidelityModel:
    """``enrich``'s reestimate of ``model`` on ``data``, drawing nothing.
    A level its last search built (``FittedLevel.searched``) that
    ``_keeps`` keeps is kept; every other level is searched by
    ``kriging._ml_fit`` in the box of ``model``'s bounds from its
    log-lengthscales (which the search clips into the box), then the box
    midpoint. Every level is checked before any search. Each logs one
    DEBUG record, "level t kept" or "level t searched from the previous
    optimum", the latter just before its search's own
    (``kriging._ml_fit``), whose first start NLL is at the previous
    lengthscales clipped into the box."""
    inputs = _checked_inputs(data, model.configs)
    levels = []
    for t, (config, lev, level_inputs) in enumerate(
            zip(model.configs, model.levels, inputs), start=1):
        if lev.searched and _keeps(lev, data, t):
            _log.debug("level %d kept", t)
            levels.append(lev)
            continue
        _log.debug("level %d searched from the previous optimum", t)
        box = _search_box(level_inputs[0].design, model._bounds)
        levels.append(_fit_on(config, level_inputs, box, [
            np.log(lev.lengthscales), 0.5 * (box[0] + box[1])]))
    out = MultiFidelityModel(levels, data, model.configs)
    out._bounds = model._bounds
    return out
