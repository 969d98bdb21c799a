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
``Uniform(n, seed)``, seeded uniform draws; a quadrature on a
weighted-sample measure is the measure's support. The search picks its
node of largest variance; no local solver refines it. ``run_loop``
builds each once. A node set indexes its points once (``kernels.PointIndex``,
the library's one point identity), and bisection in that index finds
the nodes equal to a point. Per level it keeps, between iterations, the
nodes divided by the lengthscales, the solve V_t = L_t^{-1} R_t(D_t,
nodes), the running sum of its squared rows and the clamped variance
factor (m-vectors for m nodes). A frozen refit appends rows to each
grown level's factor, so an iteration with frozen hyperparameters pays
only for its new rows: per grown level, one row of correlations from
the kept scaled nodes, with the matched nugget at the nodes the index
finds, one row of V_t by the row recursion ``predict`` runs too
(``kriging._solve_rows``), and the factor. A level that did not grow is
kept whole by the refit, factor included. The top-level variance is
formed from the kept factors by ``predict``'s terms and recursion
(``cokriging._variance_terms``, ``_variance_recursion``), and the loop
chooses the level at a search node from the same kept state by
``choose_level``'s rule. A level continues its kept solve only by
identity (it holds the kept factor) or by lineage (``grown_from``);
any other is rebuilt. A search excludes the points of a ``PointIndex``:
in the loop, the data's own index of D_1. V_t
lives in a buffer that ``run_loop`` sizes once per run for a bound on
the level's rows, n_t + budget // cost_through(t), when that takes at
most ``_RESERVE_BYTES`` (64 MiB) per level and node set; beyond it, and
outside a loop, the row capacity doubles, to at most 2 * n_t * m * 8
bytes. Node sets exist to keep solves between iterations; points
evaluated once go through ``predict``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cokriging import (
    MultiFidelityModel,
    _contributions,
    _reestimate,
    _variance_recursion,
    _variance_terms,
)
from .csvio import fmt, parse_number, parse_row, read_csv
from .exceptions import ParseError
from .kernels import (
    PointIndex,
    _as_points,
    _check_level,
    _is_integer,
    _is_number,
    _probe_rows,
    _scaled,
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
            if not isinstance(self.measure, WeightedSample):
                raise TypeError(f"unknown measure {self.measure!r}")
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


@dataclass(frozen=True)
class Uniform:
    """n uniform draws on the box, deterministic given the seed: a
    search's candidates or a quadrature's Monte Carlo nodes."""

    n: int
    seed: int = 0

    def __post_init__(self):
        _check_count(self.n, "need at least one uniform node")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ValueError(
                f"'seed' must be a non-negative integer, got {self.seed!r}")


GridSearch = GridQuadrature = Grid  # old names, imported by perfbench

# the default (search, quadrature) in one, two, and three or more dimensions
_DEFAULTS = ((Grid(1025), Grid(1024)), (Grid(101), Grid(48)),
             (Uniform(4096), Uniform(4096)))


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


# The most bytes a loop reserves for one level's V on one node set; a
# larger bound, or a node set used outside a loop, doubles instead.
_RESERVE_BYTES = 1 << 26


class _Solve:
    """One level's kept variance solve on a node set: the factor it was
    solved against and its row count, the nodes divided by the kernel's
    lengthscales, V = L^{-1} C in the leading rows of a buffer, the
    running sum s of squares of those rows, and the clamped factor
    1 - s. The buffer is allocated once with ``reserve`` rows when the
    loop gives a bound on the level's rows (``_Nodes.reserve``), and
    doubles its capacity when more rows are needed. A level continues
    the solve only by identity or lineage (``continues``), and any other
    level makes a new one; ``grow`` solves appended rows and recomputes
    the factor."""

    def __init__(self, level, points, reserve=0):
        self.chol, self.rows = None, 0  # no rows solved yet
        self.scaled, = _scaled(level.kernel, points)
        self.reserve = reserve
        self.v = np.empty((0, len(points)))
        self.s = np.zeros(len(points))
        self.factor = None

    def continues(self, level) -> bool:
        """True when only rows of V for appended design points are
        missing: ``level`` holds the kept factor, or a frozen refit grew
        it from that factor (``FittedLevel.grown_from``), keeping the
        kernel and extending design and factor bit for bit. Any other
        level is rebuilt, to the same bits."""
        return self.chol is not None and (level.chol is self.chol
                                          or level.grown_from is self.chol)

    def grow(self, level, nodes):
        """Solve the rows of the design points new since the last call;
        the nodes' index bisects for those that take the matched nugget."""
        n, design = self.rows, level.design
        if len(design) > len(self.v):
            v = np.empty((max(2 * len(self.v), len(design), self.reserve),
                          len(self.s)))
            v[:n] = self.v[:n]
            self.v = v
        new = design[n:]
        c = _probe_rows(level.kernel.family, *_scaled(level.kernel, new),
                        self.scaled, nodes.index.matches(new))
        _solve_rows(level.chol, c, self.v, self.s, n)
        self.factor = _clamped_factor(self.s)
        self.rows, self.chol = len(design), level.chol


class _Nodes:
    """A fixed node set of a search or quadrature, and what the loop reuses.

    Holds the points, their ``kernels.PointIndex``, whose order is
    ``best``'s scan order, and the quadrature weights (None for an
    equal-weight average). Per level it keeps the variance solve
    V_t = L_t^{-1} R_t(D_t, nodes) with the running sum of its squared
    rows and the clamped factor (``_Solve``): a level that holds the
    kept factor is kept whole, one a frozen refit grew from it solves
    only its new rows, and any other level is rebuilt. Exclusion goes
    through a ``PointIndex`` of the excluded points. The row
    recursion and the terms of the variance recursion are ``predict``'s
    own (``kriging._solve_rows``, ``cokriging._variance_terms``), so
    ``top_variance`` equals ``predict(points).variances[-1]`` bit for
    bit, and ``breakdown`` its variance and contributions at a node. A
    set of one node keeps nothing: its variance is ``predict``'s, which
    solves one point by one dtrtrs.
    """

    def __init__(self, points, weights=None):
        self.points = points
        self.weights = weights
        self.index = PointIndex(points)
        self._solves = {}  # level index -> _Solve
        self._reserve = {}  # level index -> rows to reserve

    def reserve(self, rows) -> None:
        """Size each level's V buffer for a bound on the level's design
        rows, ``rows[k]`` for level index k, when the bound's V fits in
        ``_RESERVE_BYTES``; each solve then allocates once."""
        cap = _RESERVE_BYTES // (8 * len(self.points))
        self._reserve = {k: r for k, r in enumerate(rows) if r <= cap}

    def _factor(self, k, level) -> np.ndarray:
        solve = self._solves.get(k)
        if solve is None or not solve.continues(level):
            # rebinding both names releases the stale solve before the
            # rebuild allocates
            solve = self._solves[k] = _Solve(level, self.points,
                                             self._reserve.get(k, 0))
        if len(level.design) > solve.rows:
            solve.grow(level, self)
        return solve.factor

    def _terms(self, model, at=slice(None)):
        """(bases, rhos) of ``predict``'s variance recursion at the nodes
        ``at`` slices, from the kept factors; rho is sliced after it is
        formed at every node, as a linear scaling on fewer rows can differ
        from ``predict(points)``'s in the last bit."""
        levels = model.levels
        bases, rhos = _variance_terms(
            levels, [self._factor(k, lev)[at] for k, lev in enumerate(levels)],
            self.points)
        return bases, [rho[at] for rho in rhos]

    def top_variance(self, model) -> np.ndarray:
        """Top-level predictive variance at the nodes."""
        if len(self.points) == 1:
            return model.predict(self.points).variances[-1]
        return _variance_recursion(*self._terms(model))[-1]

    def breakdown(self, model, j):
        """(top-level variance, per-level contributions) at node j of a
        set of more than one node, from the kept state: those of
        ``predict(points)`` at j bit for bit, and of a one-point
        ``predict`` up to round-off."""
        terms = self._terms(model, slice(j, j + 1))
        return (_variance_recursion(*terms)[-1][0],
                np.concatenate(_contributions(*terms)))

    def best(self, variances, exclude=None):
        """Index of the node with the largest variance among those the
        ``PointIndex`` ``exclude`` does not find, or None when none is
        left. Exact ties break toward the smallest key of the index, the
        lexicographically smallest coordinates with -0.0 below 0.0 (the
        scan follows the index's sorted keys, so permuting the nodes
        changes nothing). The plain argmax stands unless ``exclude``
        finds it; only then is the scan repeated with its points masked."""
        order = self.index.order
        j = (np.argmax(variances) if order is None
             else order[np.argmax(variances[order])])
        if exclude is None or not exclude.matches(self.points[j])[0].size:
            return int(j)  # the first maximum in scan order is kept
        mask = np.zeros(len(self.points), dtype=bool)
        mask[self.index.matches(exclude.points)[1]] = True
        if mask.all():
            return None
        # variances are never below 0, so no excluded node can win
        return self.best(np.where(mask, -np.inf, variances))


def _node_set(domain: Domain, spec, quadrature: bool) -> _Nodes:
    """The fixed node set a search (or, with ``quadrature``, a
    quadrature) evaluates.

    None picks the default per dimension. A Grid has endpoints as a
    search and cell midpoints as a quadrature; a quadrature on a domain
    with a weighted-sample measure is the measure itself, once the spec
    passes its checks. A resolved node set passes through, so the loop
    resolves once and reuses its caches.
    """
    if isinstance(spec, _Nodes):
        return spec
    if spec is None:
        spec = _DEFAULTS[min(domain.dimension, 3) - 1][quadrature]
    if not isinstance(spec, (Grid, Uniform)):
        role = "quadrature" if quadrature else "search"
        raise TypeError(f"unknown {role} {spec!r}")
    if quadrature and domain.measure is not None:
        return _Nodes(domain.measure.points, weights=domain.measure.weights)
    if isinstance(spec, Grid):
        return _Nodes(product_grid(domain.bounds, spec.n, midpoints=quadrature))
    points = domain.uniform_points(spec.n, np.random.default_rng(spec.seed))
    return _Nodes(points)


def argmax_variance(model, domain: Domain, search=None, exclude=None):
    """Node of maximum top-level predictive variance among the search's.

    search is a Grid or a Uniform (default per dimension: Grid(1025),
    Grid(101), then Uniform(4096)). ``exclude`` drops candidates bitwise
    equal to given points, through one ``PointIndex`` of them (the loop
    excludes D_1 so enrichment's no-duplicate rule holds); returns None
    when nothing survives the exclusion. Otherwise returns the chosen
    node, shape (d,); an exact tie goes to the node first in
    ``PointIndex`` order (``_Nodes.best``).
    """
    exclude = (PointIndex(_as_points(exclude, domain.dimension))
               if exclude is not None and np.size(exclude) else None)
    nodes = _node_set(domain, search, False)
    j = nodes.best(nodes.top_variance(model), exclude)
    return None if j is None else nodes.points[j]


def compute_imse(model, domain: Domain, quadrature=None) -> float:
    """Integrated top-level variance under the domain's input measure.

    A weighted-sample measure is its own quadrature; the uniform
    measure is integrated by a Grid of cell midpoints or by a Uniform's
    Monte Carlo average (default per dimension: Grid(1024), Grid(48),
    then Uniform(4096)).
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

    ``imse`` must be a non-negative, finite number.
    """
    if not (_is_number(imse) and 0.0 <= imse < np.inf):
        raise ValueError(
            f"imse must be a non-negative finite number, got {imse!r}")
    _check_rule(rule, cost, model.level_count)
    out = model.predict(x)
    return _level_rule(out.variances[-1], out.contributions, imse, cost,
                       rule)


def _level_rule(total, contributions, imse, cost, rule) -> int:
    """``choose_level``'s rule on the top-level variance ``total`` at x
    and the per-level contributions (s,) to it."""
    s = len(contributions)
    # Running levels 1..l at x zeroes their share of the top-level
    # variance; what is left is the suffix sum of the contributions.
    after = [contributions[level:].sum() for level in range(1, s + 1)]
    if rule == IMSE_THRESHOLD:
        for level in range(1, s):
            if after[level - 1] < imse:
                return level
        return s
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
    are frozen (``MultiFidelityModel.refit``) unless ``reestimate`` is
    set; a reestimate (``cokriging._reestimate``) starts from ``model``
    and draws nothing. It keeps each level its last search built whose
    inputs did not change (every level above ``level``, unless a frozen
    refit grew it since) and searches every other level, a loaded
    model's too, from its current lengthscales and the box midpoint, in
    the box of ``model``'s fit bounds. It is not a fresh
    ``fit_multifidelity`` of the grown data: the fit's ``restarts`` and
    ``seed`` apply to that fit alone. The grown data is built before any
    refit, so a non-finite value or a repeated point raises first.
    """
    _check_level(level, model.level_count)
    values = np.asarray(values, dtype=float).ravel()
    if values.size != level:
        raise ValueError(
            f"running through level {level} needs {level} values, "
            f"got {values.size}")
    data = model.data.with_point(x, values)
    if reestimate:
        return _reestimate(model, data)
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
        value = parse_number(cell)
        if not np.isfinite(value):
            raise ValueError(f"non-finite value {cell!r}")
        return value

    def parse(cells):
        iteration = parse_number(cells[0], int)
        x = np.array([number(c) for c in cells[1:1 + dimension]])
        level = parse_number(cells[1 + dimension], int)
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
    search's maximum-variance node (D_1 excluded by the data's own index
    of it, so the duplicate rule cannot trip), chooses how deep to run
    by ``choose_level``'s rule on the search's kept state at that node
    (a one-node search calls ``choose_level``), evaluates the
    simulators, and enriches. ``refit`` is "never" (frozen
    hyperparameters), "always", or "every-k" for an integer k (refit on
    iterations k, 2k, ...). A refit reestimates through ``enrich``: it
    keeps each level whose inputs are unchanged since the search that
    built it and searches every other level from its current
    lengthscales and the box midpoint, so under "every-k" a level that
    the frozen refits between grew is searched again. A simulator
    failure (an exception, a non-finite value or a result that is not
    one value) stops the loop and returns the partial trace flagged
    incomplete, its ``failure`` naming the level and cause.
    ``_run_settings`` checks every setting before the first IMSE.
    """
    budget, period = _run_settings(model.level_count, cost, budget,
                                   simulators, rule, refit)

    # Resolved once, so each level's kept node state carries over
    # between iterations. Level t gains a row only by a run costing at
    # least cost_through(t), which bounds its rows for the whole run.
    quadrature = _node_set(domain, quadrature, True)
    search = _node_set(domain, search, False)
    rows = [len(design) + int(budget // cost.cost_through(t))
            for t, design in enumerate(model.data.designs, start=1)]
    quadrature.reserve(rows)
    search.reserve(rows)
    trace = EnrichmentTrace(dimension=domain.dimension,
                            levels=model.level_count)
    cum = 0.0
    iteration = 0
    imse = compute_imse(model, domain, quadrature)
    while True:
        j = search.best(search.top_variance(model), model.data.indexes[0])
        if j is None:
            break  # every candidate already observed; nothing left to add
        x = search.points[j]
        if len(search.points) == 1:
            level = choose_level(model, x, imse, cost, rule)
        else:  # the level rule on the search's kept state at the node
            level = _level_rule(*search.breakdown(model, j), imse, cost, rule)
        step = cost.cost_through(level)
        if cum + step > budget:
            break
        iteration += 1
        values = []
        try:
            for simulator in simulators[:level]:
                out = np.asarray(simulator(x[None, :]))
                if out.size != 1:
                    raise ValueError(f"{out.size} values for one point")
                value = float(out.reshape(-1)[0])
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
