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
R_t(D_t, x) with the matched nugget (``kernels.probe_correlation``) and
its variance factor 1 - r' R_t^{-1} r from
``kriging.variance_factor`` (the row recursion, or one dtrtrs for a
single point); ``_variance_terms`` turns the factors into
the bases and rho factors of the variance recursion, for ``predict``,
``hypothetical_variance_after`` and the node sets of the sequential
loop alike. A frozen ``refit`` appends factor rows for the appended
design points, so the loop's node sets can continue their kept solves.
A model keeps its fit settings and its levels by search key
(``_fit_on``), so a reestimating refit (``_fit_levels``) fits as the
model was fitted and searches and solves again only the levels whose
likelihood inputs changed. Per-level variance contributions come from
telescoping the recursion; they power the sequential level rules.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DuplicateDesignPointError, SingularTrendError
from .kernels import (
    BasisSpec,
    KernelSpec,
    basis_matrix,
    extends,
    first_repeat,
    probe_correlation,
    same_points,
    _as_points,
    _check_level,
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
    """Check exact point-identity nesting of a design sequence.

    Returns None when every level's points appear bit-for-bit in the
    level below; otherwise the first violation as (level, point index)
    with 1-based level and 0-based index.
    """
    arrays = [np.asarray(a, dtype=float) for a in designs]
    arrays = [a[:, None] if a.ndim == 1 else a for a in arrays]
    for t in range(1, len(arrays)):
        missing = np.flatnonzero(
            ~same_points(arrays[t], arrays[t - 1]).any(axis=1))
        if missing.size:
            return (t + 1, int(missing[0]))
    return None


def _check_rows(level: int, design, values) -> None:
    """The data rules on single rows of one level: one response per
    design point, every point and every response finite."""
    if len(values) != len(design):
        raise ValueError(
            f"level {level}: {len(values)} responses for {len(design)} points")
    bad = np.flatnonzero(~np.isfinite(design).all(axis=1))
    if bad.size:
        raise ValueError(
            f"level {level} design point {design[bad[0]]} is not finite")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        raise ValueError(f"level {level} value {values[i]} at point "
                         f"{design[i]} is not finite")


class MultiFidelityData:
    """Nested designs D_s subset ... subset D_1 with aligned responses.

    The one home of the data rules: every level has one finite response
    per finite, distinct design point, and each level's points are
    points of the level below. Nesting is exact point identity (bitwise
    equality of stored coordinates), never tolerance matching. Responses
    at a shared point may differ across levels; the codes are different.
    The rules on single rows live in ``_check_rows``, which
    ``with_point`` applies to the point it appends; it skips only the
    rules over the whole set (distinct points, nesting), which appending
    a point new to D_1 keeps.

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
        for t, (dd, z) in enumerate(zip(self.designs, self.observations),
                                    start=1):
            _check_rows(t, dd, z)
            dup = first_repeat(dd)
            if dup is not None:
                raise ValueError(
                    f"level {t}: design point {dup} duplicates an earlier one")
        violation = validate_nesting(self.designs)
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

        Well-defined because of nesting. ``level`` is 1-based and must
        be >= 2.
        """
        _check_level(level, self.levels, lowest=2)
        rows = np.argmax(
            same_points(self.designs[level - 1], self.designs[level - 2]), axis=1)
        return self.observations[level - 2][rows]

    def with_point(self, x, values) -> "MultiFidelityData":
        """New data with ``x`` appended to levels 1..len(values).

        ``values`` holds the observed responses, cheapest level first.
        The point must be new to D_1 (hence to every level). Only the new
        point is checked, by ``_check_rows`` at each level it joins and
        against D_1: appending a point new to D_1 to levels 1..l keeps
        the designs distinct and nested.
        """
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dimension:
            raise ValueError(f"point has dimension {x.size}, expected "
                             f"{self.dimension}")
        values = np.asarray(values, dtype=float).ravel()
        if not 1 <= values.size <= self.levels:
            raise ValueError("need values for levels 1..l with l <= level count")
        for t in range(values.size):
            _check_rows(t + 1, x[None, :], values[t:t + 1])
        if same_points(x, self.designs[0]).any():
            raise DuplicateDesignPointError(
                f"point {x} is already a level-1 design point"
            )
        grown = object.__new__(MultiFidelityData)
        grown.designs = [np.vstack([dd, x]) if t < values.size else dd
                         for t, dd in enumerate(self.designs)]
        grown.observations = [np.append(z, values[t]) if t < values.size else z
                              for t, z in enumerate(self.observations)]
        return grown


@dataclass
class FittedLevel:
    """One fitted stage of the recursion.

    ``rho_beta`` is None at level 1. ``alpha`` stores the solve
    R_t^{-1}(z^t - rho(D_t) . z_{t-1}(D_t) - F_t beta); ``lower_values``
    keeps z_{t-1}(D_t) so the residual can be rebuilt after enrichment.
    ``nll`` is the concentrated NLL at the level's lengthscales on its own
    data, also after a frozen refit; it is nan only for given coefficients
    (``from_parameters``, hence ``testbed.load_model``).
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

    @property
    def lengthscales(self) -> np.ndarray:
        return self.kernel.lengthscales

    def rho(self, x):
        """Scaling function g(x)' beta_rho; float for a single point."""
        if self.scaling is None:
            raise ValueError("level 1 has no scaling function")
        xa = np.asarray(x, dtype=float)
        out = basis_matrix(self.scaling, _as_points(xa)) @ self.rho_beta
        return float(out[0]) if xa.ndim == 1 else out


@dataclass
class LevelParameters:
    """Externally supplied parameters for one level (no estimation).

    ``sigma2`` must be positive and every coefficient finite; the kernel
    checks the lengthscales.
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
    return _fit_on(config, inputs, bounds, restarts,
                   np.random.default_rng(seed), {})[0]


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


def _fit_on(config: LevelConfig, inputs, bounds, restarts, rng, searches):
    """Maximum-likelihood fit of one level on its checked inputs.

    Draws the level's starts from ``rng`` and returns (level, key). The
    key holds everything the search reads: the log-lengthscale box, the
    starts, and the likelihood record's family and the shapes and bytes
    of its design, responses and regression matrix. ``searches`` maps
    the keys of earlier searches of the same configs to the levels they
    built from the search's solve at its best point; a level whose key
    is there is that level, with no search and no solve. The search is
    deterministic, so that level is bit for bit the one a search gives.
    """
    lik = inputs[0]
    box = _search_box(lik.design, bounds)
    starts = _draw_starts(*box, restarts, rng)
    key = (lik.family, *(a.tobytes() for a in (*box, np.array(starts))),
           *((a.shape, a.tobytes()) for a in (lik.design, lik.y, lik.trend)))
    level = searches.get(key)
    if level is None:
        level = _assemble_level(config, inputs, *_ml_fit(lik, box, starts))
    return level, key


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


def _variance_terms(levels, factors, X):
    """(bases, rhos) of ``_variance_recursion`` at X (m, d) from each
    level's variance factor 1 - r' R_t^{-1} r at X:
    base_t = sigma2_t * factor_t, and rho from ``FittedLevel.rho``."""
    bases = [lev.sigma2 * f for lev, f in zip(levels, factors)]
    return bases, [lev.rho(X) for lev in levels[1:]]


def _variance_recursion(bases, rhos) -> np.ndarray:
    """(s, m) variances: var_1 = base_1, var_t = rho_{t-1}^2 var_{t-1} + base_t."""
    variances = [bases[0]]
    for k in range(1, len(bases)):
        variances.append(rhos[k - 1] ** 2 * variances[k - 1] + bases[k])
    return np.vstack(variances)


class MultiFidelityModel:
    """Fitted s-level recursive co-kriging model.

    Immutable after construction; ``predict`` and
    ``hypothetical_variance_after`` are read-only. A model keeps the
    ``(bounds, restarts, seed)`` of its fit (``_fit_settings``, else
    ``(None, 5, 0)``) and the levels its searches built by search key
    (``_searches``, as ``_fit_on`` keys them); a frozen ``refit`` carries
    both forward, and nothing saves them.
    """

    def __init__(self, levels, data: MultiFidelityData, configs):
        _check_levels(data, configs, levels)
        self.levels = list(levels)
        self.data = data
        self.configs = list(configs)
        self._fit_settings = (None, _DEFAULT_RESTARTS, 0)
        self._searches = {}

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
        correlations = [probe_correlation(lev.kernel, lev.design, X)
                        for lev in self.levels]
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
        s = len(self.levels)
        contributions = [None] * s
        prod = np.ones(X.shape[0])
        for k in range(s - 1, -1, -1):
            contributions[k] = bases[k] * prod
            if k > 0:
                prod = prod * rhos[k - 1] ** 2
        out = (np.vstack(means), _variance_recursion(bases, rhos),
               np.vstack(contributions))
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
        stacked = _variance_recursion(bases, rhos)
        return stacked[:, 0] if xa.ndim == 1 else stacked

    def refit(self, data: MultiFidelityData) -> "MultiFidelityModel":
        """New model on ``data`` with hyperparameters frozen.

        Kernel lengthscales and process variances carry over unchanged;
        trend and scaling coefficients are re-estimated by GLS and the
        stored solves rebuilt. Used by enrichment in frozen mode. A
        level whose new design extends its old one bit for bit keeps its
        factor and appends one row per new point (``kriging._append_rows``),
        so the factor's leading block stays bit for bit the old factor;
        any other design is refactored. Each level's ``nll`` is taken on
        the new data (``FittedLevel``). Too few points raise ValueError.

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
            inputs = _level_inputs(config, data, t)
            lik = inputs[0]
            _check_estimable(t, lik.trend)
            grown_from = lev.chol if extends(lik.design, lev.design) else None
            terms = _solve_level(lik, lev.lengthscales, grown_from=grown_from)
            levels.append(_assemble_level(config, inputs, lev.kernel, terms,
                                          sigma2=lev.sigma2))
        model = MultiFidelityModel(levels, data, self.configs)
        model._fit_settings = self._fit_settings
        model._searches = self._searches
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
    The model keeps the three settings for its reestimating refits.
    """
    return _fit_levels(data, configs, {}, bounds, restarts, seed)


def _fit_levels(data: MultiFidelityData, configs, searches, bounds=None,
                restarts=_DEFAULT_RESTARTS, seed=0) -> MultiFidelityModel:
    """``fit_multifidelity`` given the searches of an earlier model
    (``searches``, as ``_fit_on`` takes them): a level whose search
    inputs are unchanged is the level built before. The new model keeps
    its settings and the searches of its own levels only."""
    _check_levels(data, configs)
    inputs = []
    for t, config in enumerate(configs, start=1):
        inputs.append(_level_inputs(config, data, t))
        _check_estimable(t, inputs[-1][0].trend, inputs[-1][2])
    rng = np.random.default_rng(seed)
    fitted = [_fit_on(config, level_inputs, bounds, restarts, rng, searches)
              for config, level_inputs in zip(configs, inputs)]
    model = MultiFidelityModel([level for level, _ in fitted], data, configs)
    model._fit_settings = (bounds, restarts, seed)
    model._searches = {key: level for level, key in fitted}
    return model
