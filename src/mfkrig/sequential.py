"""Sequential design: where to run next, how deep, and for how long.

One iteration of the loop finds the point of maximum predictive
variance, compares the hypothetical post-run variance there against the
current integrated mean squared error (IMSE), picks the deepest code
level worth running, and appends the observed values to the design.
Running level l means running levels 1..l at the same point so the
designs stay nested; cost is charged accordingly.

The search and the quadrature evaluate the top-level variance on fixed
node sets. Two specs describe them: ``Grid(n)``, a product grid with
endpoints as a search and cell midpoints as a quadrature, and
``Uniform(n, seed, polish)``, seeded uniform draws; a quadrature on a
weighted-sample measure is the measure's support. ``run_loop`` builds
each once and keeps, per level, the solve
V_t = L_t^{-1} R_t(D_t, nodes) and the running sum of its squared rows
(an m-vector for m nodes) between iterations. A frozen refit appends
rows to each grown level's factor, so an iteration with frozen
hyperparameters solves one new row of V_t per grown level by the row
recursion ``predict`` runs too (``kriging._solve_rows``), and the
top-level variance is formed by ``predict``'s routine
(``cokriging._variance_terms``); reestimated lengthscales rebuild a
level. V_t lives in a buffer whose row capacity doubles: at most
2 * n_t * m * 8 bytes per level and node set. Node sets exist to keep
solves between iterations; points evaluated once go through
``predict``. A Uniform search may polish its best node
(``polish="best"``) or every node (``"all"``, a multistart) with a
local solver on ``-predict(x).variance``, and the polished points,
fresh on every call, are scored by ``predict`` too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cokriging import (
    MultiFidelityModel,
    _fit_levels,
    _variance_recursion,
    _variance_terms,
)
from .csvio import fmt, parse_row, read_csv
from .exceptions import ParseError
from .kernels import (
    extends,
    probe_correlation,
    same_points,
    _as_points,
    _check_level,
    _is_integer,
    _is_number,
)
from .kriging import _clamped_factor, _solve_rows

IMSE_THRESHOLD = "imse-threshold"
COST_WEIGHTED = "cost-weighted"
LEVEL_RULES = (IMSE_THRESHOLD, COST_WEIGHTED)

REFIT_NEVER = "never"
REFIT_ALWAYS = "always"


# ---------------------------------------------------------------------------
# domain and costs


@dataclass
class WeightedSample:
    """Discrete input measure: support points with nonnegative weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.points.shape[0],):
            raise ValueError("need one weight per support point")
        if not (np.all(np.isfinite(self.points))
                and np.all(np.isfinite(self.weights))):
            raise ValueError("support points and weights must be finite")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")


def _as_box(bounds) -> np.ndarray:
    """The box rule, checked here only: a (d, 2) float array of finite
    (low, high) rows with low < high."""
    b = np.asarray(bounds, dtype=float)
    if b.ndim != 2 or b.shape[1] != 2:
        raise ValueError("bounds must have shape (d, 2)")
    if not np.all(np.isfinite(b)):
        raise ValueError("bounds must be finite")
    if not np.all(b[:, 0] < b[:, 1]):
        raise ValueError("each lower bound must be below its upper bound")
    return b


@dataclass
class Domain:
    """Hyper-rectangle with an input measure (uniform unless sampled).

    ``measure`` is None for the uniform measure on the box, or a
    WeightedSample whose support must lie inside the box.
    """

    bounds: np.ndarray
    measure: WeightedSample | None = None

    def __post_init__(self):
        self.bounds = b = _as_box(self.bounds)
        if self.measure is not None:
            pts = self.measure.points
            if pts.shape[1] != b.shape[0]:
                raise ValueError("measure support dimension differs from box")
            if np.any(pts < b[:, 0]) or np.any(pts > b[:, 1]):
                raise ValueError("measure support must lie inside the box")

    @property
    def dimension(self) -> int:
        return self.bounds.shape[0]

    def uniform_points(self, n, rng) -> np.ndarray:
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        return lo + rng.uniform(size=(n, self.dimension)) * (hi - lo)


@dataclass
class CostModel:
    """Per-level run costs: finite, positive numbers, strictly increasing
    with fidelity. The one place the cost rules are checked."""

    costs: list

    def __post_init__(self):
        for c in self.costs:
            if not _is_number(c):
                raise ValueError(f"costs must be numbers, got {c!r}")
        self.costs = [float(c) for c in self.costs]
        if not self.costs or self.costs[0] <= 0:
            raise ValueError("costs must be positive")
        if not np.all(np.isfinite(self.costs)):
            raise ValueError("costs must be finite")
        if any(a >= b for a, b in zip(self.costs, self.costs[1:])):
            raise ValueError("costs must be strictly increasing with level")

    @property
    def levels(self) -> int:
        return len(self.costs)

    def cost_through(self, level: int) -> float:
        """Cost of one run of levels 1..level at a point."""
        _check_level(level, len(self.costs))
        return float(sum(self.costs[:level]))


# ---------------------------------------------------------------------------
# search and quadrature strategies


_EMPTY_GRID = "grid needs at least one node per dimension"


def _check_count(n, empty) -> None:
    """Check a node count, an integer >= 1; ``empty`` is the error below 1."""
    if not _is_integer(n):
        raise ValueError(f"'n' must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(empty)


@dataclass(frozen=True)
class Grid:
    """Product grid, n nodes per dimension: endpoints included as a
    search, cell midpoints as a quadrature."""

    n: int

    def __post_init__(self):
        _check_count(self.n, _EMPTY_GRID)


_POLISH = (None, "best", "all")


@dataclass(frozen=True)
class Uniform:
    """n uniform draws on the box, deterministic given the seed.

    ``polish`` is what a search polishes with a local solver: nothing
    (None), its best node ("best") or every node ("all"). A quadrature
    polishes nothing.
    """

    n: int
    seed: int = 0
    polish: str | None = None

    def __post_init__(self):
        _check_count(self.n, "need at least one uniform node")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ValueError(
                f"'seed' must be a non-negative integer, got {self.seed!r}")
        if self.polish not in _POLISH:
            raise ValueError(
                f"'polish' must be one of {_POLISH}, got {self.polish!r}")


GridSearch = GridQuadrature = Grid  # old names, imported by perfbench

# the default (search, quadrature) in one, two, and three or more dimensions
_DEFAULTS = ((Grid(1025), Grid(1024)), (Grid(101), Grid(48)),
             (Uniform(4096, polish="best"), Uniform(4096)))


def product_grid(bounds, n, midpoints=False) -> np.ndarray:
    """Product grid over the box, in lexicographic row order."""
    _check_count(n, _EMPTY_GRID)
    axes = []
    for lo, hi in bounds:
        if midpoints:
            axes.append(lo + (np.arange(n) + 0.5) * (hi - lo) / n)
        elif n == 1:
            axes.append(np.array([(lo + hi) / 2.0]))
        else:
            axes.append(np.linspace(lo, hi, n))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


class _Solve:
    """One level's kept variance solve on a node set: the kernel, design
    and factor it was solved against, V = L^{-1} C in the leading rows
    of a buffer whose capacity doubles, and the running sum of squares
    of those rows."""

    def __init__(self, level, m):
        self.kernel, self.chol = level.kernel, None
        self.design = level.design[:0]  # no rows solved yet
        self.v = np.empty((0, m))
        self.s = np.zeros(m)

    def continues(self, level) -> bool:
        """True when ``level`` grew from the kept state by appended rows:
        same kernel, and design and factor extend the kept ones bit for
        bit, so only the new rows of V are missing."""
        kernel, n = level.kernel, len(self.design)
        return (kernel.family == self.kernel.family
                and np.array_equal(kernel.lengthscales,
                                   self.kernel.lengthscales)
                and extends(level.design, self.design)
                and (level.chol is self.chol
                     or extends(level.chol[:, :n], self.chol)))

    def grow(self, level, points):
        """Solve the rows of the design points new since the last call."""
        n, design = len(self.design), level.design
        if len(design) > len(self.v):
            v = np.empty((max(2 * len(self.v), len(design)), len(points)))
            v[:n] = self.v[:n]
            self.v = v
        c = probe_correlation(level.kernel, design[n:], points)
        _solve_rows(level.chol, c, self.v, self.s, n)
        self.kernel, self.design, self.chol = level.kernel, design, level.chol


class _Nodes:
    """A fixed node set of a search or quadrature, and what the loop reuses.

    Holds the points, their lexicographic order, the quadrature weights
    (None for an equal-weight average) and what a search polishes: None,
    its best node ("best") or every node ("all"). Per level it keeps
    the variance solve V_t = L_t^{-1} R_t(D_t, nodes) and the running
    sum of its squared rows (``_Solve``): when the design grew by
    appended rows under the same kernel and its factor by appended rows
    (a frozen refit), only the new rows are solved, and any other change
    rebuilds the level. The mask of nodes equal to an excluded point
    grows the same way. The row recursion is ``predict``'s own
    (``kriging._solve_rows``), so ``top_variance`` equals
    ``predict(points).variances[-1]`` bit for bit. A set of one node
    keeps nothing: its variance is ``predict``'s, which solves one point
    by one dtrtrs.
    """

    def __init__(self, points, weights=None, polish=None):
        self.points = points
        self.weights = weights
        self.polish = polish
        self.order = np.lexsort(points.T[::-1])
        self._solves = {}  # level index -> _Solve
        self._excluded = None  # (excluded points, node mask)

    def _factor(self, k, level) -> np.ndarray:
        solve = self._solves.get(k)
        if solve is None or not solve.continues(level):
            # rebinding both names releases the stale solve before the
            # rebuild allocates
            solve = self._solves[k] = _Solve(level, len(self.points))
        if len(level.design) > len(solve.design):
            solve.grow(level, self.points)
        return _clamped_factor(solve.s)

    def top_variance(self, model) -> np.ndarray:
        """Top-level predictive variance at the nodes."""
        if len(self.points) == 1:
            return model.predict(self.points).variances[-1]
        factors = [self._factor(k, lev) for k, lev in enumerate(model.levels)]
        return _variance_recursion(*_variance_terms(
            model.levels, factors, self.points))[-1]

    def _excluded_mask(self, exclude) -> np.ndarray:
        d = self.points.shape[1]
        if np.size(exclude) == 0:  # an empty list excludes nothing
            exclude = np.empty((0, d))
        exclude = _as_points(exclude, d)
        kept = self._excluded
        if kept is None or not extends(exclude, kept[0]):
            kept = (exclude[:0], np.zeros(len(self.points), dtype=bool))
        seen, mask = kept
        if len(exclude) > len(seen):
            mask = mask | same_points(self.points, exclude[len(seen):]).any(axis=1)
        self._excluded = (exclude, mask)
        return mask

    def best(self, variances, exclude=None):
        """Node with the largest variance among those not bitwise equal to
        an ``exclude`` point, or None when none is left. Exact ties break
        toward the lexicographically smallest coordinates (scan order is
        canonical, so permuting the nodes changes nothing)."""
        order = self.order
        if exclude is not None:
            order = order[~self._excluded_mask(exclude)[order]]
            if not order.size:
                return None
        return self.points[order[int(np.argmax(variances[order]))]]


def _node_set(domain: Domain, spec, quadrature: bool) -> _Nodes:
    """The fixed node set a search (or, with ``quadrature``, a
    quadrature) evaluates.

    None picks the default per dimension. A Grid has endpoints as a
    search and cell midpoints as a quadrature; a quadrature on a domain
    with a weighted-sample measure is the measure itself. A resolved
    node set passes through, so the loop resolves once and reuses its
    caches.
    """
    if isinstance(spec, _Nodes):
        return spec
    if quadrature and domain.measure is not None:
        return _Nodes(domain.measure.points, weights=domain.measure.weights)
    if spec is None:
        spec = _DEFAULTS[min(domain.dimension, 3) - 1][quadrature]
    if isinstance(spec, Grid):
        return _Nodes(product_grid(domain.bounds, spec.n, midpoints=quadrature))
    if not isinstance(spec, Uniform):
        role = "quadrature" if quadrature else "search"
        raise TypeError(f"unknown {role} {spec!r}")
    if quadrature and spec.polish:
        raise ValueError(f"a quadrature polishes nothing, got {spec!r}")
    points = domain.uniform_points(spec.n, np.random.default_rng(spec.seed))
    return _Nodes(points, polish=spec.polish)


def _polish(model, domain, starts) -> np.ndarray:
    """Local maxima of ``predict``'s top-level variance, one per start."""
    from scipy.optimize import minimize

    lo, hi = domain.bounds.T
    return np.array([
        np.clip(minimize(lambda p: -model.predict(p).variance, start,
                         method="L-BFGS-B", bounds=domain.bounds).x, lo, hi)
        for start in np.atleast_2d(starts)])


def argmax_variance(model, domain: Domain, search=None, exclude=None):
    """Point of maximum top-level predictive variance over the box.

    search is a Grid or a Uniform (default per dimension: Grid(1025),
    Grid(101), then Uniform(4096, polish="best")). ``exclude`` drops
    candidates bitwise equal to given points (the loop uses it to keep
    enrichment's no-duplicate rule satisfiable); returns None when
    nothing survives the exclusion.
    Otherwise returns the chosen point, shape (d,). The candidates are
    the search's nodes plus the points it polishes from them.
    """
    nodes = _node_set(domain, search, False)
    variances = nodes.top_variance(model)
    if nodes.polish:
        starts = nodes.points if nodes.polish == "all" else nodes.best(variances)
        polished = _polish(model, domain, starts)
        variances = np.concatenate(
            [variances, model.predict(polished).variances[-1]])
        nodes = _Nodes(np.vstack([nodes.points, polished]))
    return nodes.best(variances, exclude)


def compute_imse(model, domain: Domain, quadrature=None) -> float:
    """Integrated top-level variance under the domain's input measure.

    A weighted-sample measure is its own quadrature; the uniform
    measure is integrated by a Grid of cell midpoints or by a Uniform's
    Monte Carlo average (default per dimension: Grid(1024), Grid(48),
    then Uniform(4096)). A Uniform that polishes is no quadrature.
    """
    nodes = _node_set(domain, quadrature, True)
    variances = nodes.top_variance(model)
    if nodes.weights is None:
        return float(np.mean(variances))
    return float(variances @ nodes.weights)


# ---------------------------------------------------------------------------
# level choice


def _check_rule(rule, cost, levels) -> None:
    """The level-choice rule: one of ``LEVEL_RULES``; cost-weighted needs
    a cost model, and a cost model covers the model's ``levels`` levels."""
    if rule not in LEVEL_RULES:
        raise ValueError(f"unknown rule {rule!r}; expected one of {LEVEL_RULES}")
    if rule == COST_WEIGHTED and cost is None:
        raise ValueError("cost-weighted rule needs a cost model")
    if cost is not None and cost.levels != levels:
        raise ValueError("cost model and model disagree on level count")


def choose_level(model, x, imse, cost: CostModel | None = None,
                 rule=IMSE_THRESHOLD) -> int:
    """Deepest level worth running at x (levels 1..choice are then run).

    imse-threshold: the smallest level whose hypothetical top-level
    variance at x (after running it) drops below the current IMSE; the
    top level if none does. With two levels this is exactly the rule
    "skip the expensive code when the cheap run already pushes the
    local error below the average error".

    cost-weighted: the level maximizing variance reduction at x per
    unit of cumulative run cost; ties go to the cheaper level.
    """
    s = model.level_count
    _check_rule(rule, cost, s)
    out = model.predict(x)
    # Running levels 1..l at x zeroes their share of the top-level
    # variance; what is left is the suffix sum of the contributions.
    after = [out.contributions[level:].sum() for level in range(1, s + 1)]
    if rule == IMSE_THRESHOLD:
        for level in range(1, s):
            if after[level - 1] < imse:
                return level
        return s
    total = out.variances[-1]
    best, best_ratio = 1, -np.inf
    for level in range(1, s + 1):
        ratio = (total - after[level - 1]) / cost.cost_through(level)
        if ratio > best_ratio:
            best, best_ratio = level, ratio
    return best


# ---------------------------------------------------------------------------
# enrichment


def enrich(model, x, level: int, values,
           reestimate=False) -> MultiFidelityModel:
    """New model with x observed at levels 1..level; the old one is kept.

    ``values`` holds one response per level 1..level. Hyperparameters
    are frozen unless ``reestimate`` is set, in which case the result is
    bit for bit ``fit_multifidelity(grown data, model.configs, bounds,
    restarts, seed)`` with the settings ``model`` was fitted with. A
    level whose search key (``cokriging._fit_on``) matches one of
    ``model``'s searches is the level that search built, with no search
    and no solve: with an integer seed, every level above ``level``. A
    ``seed=None`` fit draws fresh starts on every reestimate and reuses
    none; a Generator seed keeps being drawn from. A loaded model keeps
    no searches. The grown data is built before any refit, so a
    non-finite value or a repeated point raises first.
    """
    _check_level(level, model.level_count)
    values = np.asarray(values, dtype=float).ravel()
    if values.size != level:
        raise ValueError(
            f"running through level {level} needs {level} values, "
            f"got {values.size}")
    data = model.data.with_point(x, values)
    if reestimate:
        return _fit_levels(data, model.configs, model._searches,
                           *model._fit_settings)
    return model.refit(data)


# ---------------------------------------------------------------------------
# trace bookkeeping


@dataclass
class TraceEntry:
    """One enrichment iteration: where, how deep, what was seen."""

    iteration: int
    x: np.ndarray
    level: int
    values: list
    imse_before: float
    imse_after: float
    cumulative_cost: float


@dataclass
class EnrichmentTrace:
    """Loop history plus the schema facts needed to serialize it;
    ``failure``, kept in no file, says what stopped an incomplete run."""

    dimension: int
    levels: int
    entries: list = field(default_factory=list)
    complete: bool = True
    failure: str = ""

    def __len__(self):
        return len(self.entries)

    def header(self) -> list[str]:
        return (["iter"]
                + [f"x_{j}" for j in range(self.dimension)]
                + ["level"]
                + [f"value_{t}" for t in range(1, self.levels + 1)]
                + ["imse_before", "imse_after", "cum_cost"])


_INCOMPLETE_MARK = "# incomplete"


def write_trace(trace: EnrichmentTrace, path) -> None:
    """Write the trace CSV: one row per iteration, fixed column schema.

    Value cells above an iteration's level stay empty. An aborted run
    gets a trailing comment line so the flag survives the round trip.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(trace.header()) + "\n")
        for e in trace.entries:
            cells = [str(e.iteration)]
            cells += [fmt(v) for v in e.x]
            cells.append(str(e.level))
            cells += [fmt(v) for v in e.values]
            cells += [""] * (trace.levels - len(e.values))
            cells += [fmt(e.imse_before), fmt(e.imse_after),
                      fmt(e.cumulative_cost)]
            fh.write(",".join(cells) + "\n")
        if not trace.complete:
            fh.write(_INCOMPLETE_MARK + "\n")


def read_trace(path) -> EnrichmentTrace:
    """Parse a trace CSV back; malformed content names file and line.

    A level-l row must fill value_1..value_l and leave the deeper value
    cells empty, as ``write_trace`` writes it, and every number must be
    finite.
    """
    header, body = read_csv(path)
    dimension = sum(1 for c in header if c.startswith("x_"))
    levels = sum(1 for c in header if c.startswith("value_"))
    trace = EnrichmentTrace(dimension=dimension, levels=levels)
    if dimension < 1 or levels < 1 or header != trace.header():
        raise ParseError(f"{path}:1: unrecognized trace header")

    def number(cell):
        value = float(cell)
        if not np.isfinite(value):
            raise ValueError(f"non-finite value {cell!r}")
        return value

    def parse(cells):
        iteration = int(cells[0])
        x = np.array([number(c) for c in cells[1:1 + dimension]])
        level = int(cells[1 + dimension])
        _check_level(level, levels)
        raw = cells[2 + dimension:2 + dimension + levels]
        if "" in raw[:level] or any(raw[level:]):
            raise ValueError(f"a level {level} row fills value_1.."
                             f"value_{level} and no other value cell")
        values = [number(c) for c in raw[:level]]
        tail = [number(c) for c in cells[-3:]]
        return TraceEntry(iteration, x, level, values, *tail)

    for lineno, line in body:
        if line.startswith("#"):
            if line.strip() == _INCOMPLETE_MARK:
                trace.complete = False
                continue
            raise ParseError(f"{path}:{lineno}: unrecognized comment line")
        trace.entries.append(parse_row(path, lineno, line, len(header), parse))
    return trace


# ---------------------------------------------------------------------------
# the loop


def _run_settings(levels, cost: CostModel, budget, simulators,
                  rule=IMSE_THRESHOLD, refit=REFIT_NEVER):
    """(budget as a float, refit period) of a run over ``levels`` levels.

    The one check of a run's settings: ``rule`` and the cost model pass
    ``_check_rule``, the simulators cover every level, the budget is a
    positive, finite number, and ``refit`` is "never" (period 0),
    "always" (1) or "every-k" for k >= 1 in ASCII digits (k).
    """
    _check_rule(rule, cost, levels)
    if len(simulators) != levels:
        raise ValueError("need one simulator per level")
    if not _is_number(budget):
        raise ValueError(f"budget must be a number, got {budget!r}")
    budget = float(budget)
    if not 0 < budget < np.inf:
        raise ValueError(f"budget must be positive and finite, got {budget}")
    if refit in (REFIT_NEVER, REFIT_ALWAYS):
        return budget, int(refit == REFIT_ALWAYS)
    k = refit.removeprefix("every-") if isinstance(refit, str) else refit
    if k == refit or not (k.isascii() and k.isdigit()):
        raise ValueError(f"unknown refit mode {refit!r}")
    period = int(k)
    if period < 1:
        raise ValueError("refit period must be a positive integer")
    return budget, period


def run_loop(model, domain: Domain, cost: CostModel, budget,
             simulators, rule=IMSE_THRESHOLD, search=None, quadrature=None,
             refit=REFIT_NEVER):
    """Enrich until the next run would not fit in the budget.

    Returns (final model, EnrichmentTrace). Each iteration finds the
    maximum-variance point (design points of D_1 excluded so the
    duplicate rule cannot trip), chooses how deep to run, evaluates the
    simulators, and enriches. ``refit`` is "never" (frozen
    hyperparameters), "always", or "every-k" for an integer k (refit on
    iterations k, 2k, ...). A refit reestimates through ``enrich`` with
    the model's fit settings, so it searches again only the levels whose
    data changed since the model's last searches. A simulator failure
    (an exception or a non-finite value) stops the loop and returns the
    partial trace flagged incomplete, its ``failure`` naming the level
    and cause. ``_run_settings`` checks every setting before the first
    IMSE.
    """
    budget, period = _run_settings(model.level_count, cost, budget,
                                   simulators, rule, refit)

    # Resolved once, so each level's node correlations carry over
    # between iterations.
    quadrature = _node_set(domain, quadrature, True)
    search = _node_set(domain, search, False)
    trace = EnrichmentTrace(dimension=domain.dimension,
                            levels=model.level_count)
    cum = 0.0
    iteration = 0
    imse = compute_imse(model, domain, quadrature)
    while True:
        x = argmax_variance(model, domain, search,
                            exclude=model.data.designs[0])
        if x is None:
            break  # every candidate already observed; nothing left to add
        level = choose_level(model, x, imse, cost, rule)
        step = cost.cost_through(level)
        if cum + step > budget:
            break
        iteration += 1
        values = []
        try:
            for simulator in simulators[:level]:
                value = float(np.asarray(simulator(x[None, :])).reshape(-1)[0])
                if not np.isfinite(value):
                    raise ValueError(f"non-finite value {value}")
                values.append(value)
        except Exception as exc:
            trace.complete = False
            trace.failure = f"level {len(values) + 1} simulator failed: {exc}"
            break
        reestimate = period > 0 and iteration % period == 0
        model = enrich(model, x, level, values=values, reestimate=reestimate)
        cum += step
        imse_after = compute_imse(model, domain, quadrature)
        trace.entries.append(TraceEntry(iteration, x, level, values,
                                        imse, imse_after, cum))
        imse = imse_after
    return model, trace
