"""The loop's fixed node sets: ``run_loop`` resolves its search and
quadrature once and reuses each level's node correlations between
iterations; the public calls resolve them afresh. Both must give the same
numbers bit for bit."""

import hashlib
import itertools
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mfkrig.cli as cli
import mfkrig.cokriging as cokriging
import mfkrig.kriging as kriging
import mfkrig.sequential as sequential
from helpers import (
    reference_key,
    reference_same_points,
    reference_search,
    replay_loop,
)
from mfkrig.cokriging import (
    LevelConfig,
    LevelParameters,
    MultiFidelityData,
    MultiFidelityModel,
)
from mfkrig.kernels import (
    BasisSpec,
    KernelSpec,
    PointIndex,
    probe_correlation,
)
from mfkrig.sequential import (
    CostModel,
    Domain,
    Grid,
    Uniform,
    WeightedSample,
    argmax_variance,
    compute_imse,
    enrich,
    run_loop,
)
from mfkrig.testbed import get_problem, nested_lhs

SE = "squared-exponential"
UNIT1 = Domain([[0.0, 1.0]])


def _ripple3(t, x):
    """A third, finer level above ripple2d's two."""
    ripple = get_problem("ripple2d")
    if t < 3:
        return ripple.evaluate(t, x)
    return ripple.evaluate(2, x) + 0.1 * np.sin(5.0 * x[:, 0] * x[:, 1])


def _setup(name, sizes):
    """(model from fixed parameters, box, costs, simulators) of a problem.

    ``ripple3`` is ripple2d with a third level.
    """
    problem = get_problem("ripple2d" if name == "ripple3" else name)
    evaluate = _ripple3 if name == "ripple3" else problem.evaluate
    d = problem.dimension
    designs = nested_lhs(sizes, problem.bounds, seed=4)
    data = MultiFidelityData(
        designs, [evaluate(t, x) for t, x in enumerate(designs, start=1)])
    basis = BasisSpec("constant", d)
    configs = [LevelConfig(basis, KernelSpec(SE),
                           scaling=None if t == 0 else basis)
               for t in range(len(sizes))]
    params = [LevelParameters([0.3] * d if t == 0 else [0.6] * d,
                              1.0 / (t + 1), [0.0],
                              rho_beta=None if t == 0 else [1.1])
              for t in range(len(sizes))]
    model = MultiFidelityModel.from_parameters(data, configs, params)
    simulators = [lambda x, t=t: evaluate(t, x)
                  for t in range(1, len(sizes) + 1)]
    cost = CostModel([1.0, 3.0, 6.0][:len(sizes)])
    return model, problem.bounds, cost, simulators


def _measure(bounds, n, seed):
    rng = np.random.default_rng(seed)
    points = bounds[:, 0] + rng.uniform(size=(n, len(bounds))) * (
        bounds[:, 1] - bounds[:, 0])
    weights = rng.uniform(0.5, 1.5, size=n)
    return WeightedSample(points, weights / weights.sum())


# The four keys that name a polish or a multistart are the ids these
# cases had when their searches polished; they now run unpolished
# Uniform searches with enough nodes for more than one iteration.
CASES = {  # problem, sizes, search, quadrature (or "measure"), refit, budget
    "1d-2lev-grid-grid-never": (
        "forrester", [8, 4], Grid(65), Grid(64), "never", 24),
    "1d-2lev-random-mc-always": (
        "forrester", [8, 4], Uniform(64, seed=3), Uniform(100, seed=4),
        "always", 5),
    "1d-3lev-polish-measure-every2": (
        "chain3", [10, 6, 3], Uniform(40, seed=1),
        "measure", "every-2", 20),
    "1d-3lev-multistart-grid-never": (
        "chain3", [10, 6, 3], Uniform(24, seed=2), Grid(32),
        "never", 40),
    "2d-2lev-grid-measure-never": (
        "ripple2d", [12, 5], Grid(21), "measure", "never", 24),
    "2d-2lev-multistart-mc-every2": (
        "ripple2d", [12, 5], Uniform(24, seed=5),
        Uniform(64, seed=6), "every-2", 5),
    "2d-3lev-grid-grid-never": (
        "ripple3", [14, 7, 4], Grid(17), Grid(12), "never", 30),
    "2d-3lev-polish-grid-every2": (
        "ripple3", [14, 7, 4], Uniform(50, seed=8),
        Grid(6), "every-2", 6),
    # one search node, which runs once, or one quadrature node: the level
    # rule or the IMSE reads predict's one-point solve
    "1d-2lev-grid1-grid-never": (
        "forrester", [8, 4], Grid(1), Grid(64), "never", 24),
    "1d-2lev-grid-grid1-never": (
        "forrester", [8, 4], Grid(65), Grid(1), "never", 24),
    "1d-3lev-uniform1-grid-never": (
        "chain3", [10, 6, 3], Uniform(1, seed=7), Grid(32), "never", 40),
}
# the level rule of a case, where it is not the default imse-threshold
RULES = {"1d-3lev-uniform1-grid-never": "cost-weighted"}


def _ran_enough(search, trace) -> bool:
    """A one-node search runs once, as its node then lies in D_1; every
    other case runs more than once."""
    return len(trace) == 1 if search.n == 1 else len(trace) > 1


@pytest.mark.parametrize("case_id", CASES)
def test_run_loop_equals_its_replay_through_public_calls(case_id):
    name, sizes, search, quadrature, refit, budget = CASES[case_id]
    model, bounds, cost, simulators = _setup(name, sizes)
    if quadrature == "measure":
        domain, quadrature = Domain(bounds, _measure(bounds, 30, 9)), None
    else:
        domain = Domain(bounds)
    args = (model, domain, cost, budget, simulators)
    kwargs = dict(search=search, quadrature=quadrature, refit=refit,
                  rule=RULES.get(case_id, sequential.IMSE_THRESHOLD))
    got_model, got = run_loop(*args, **kwargs)
    want_model, want = replay_loop(*args, **kwargs)
    assert len(got) == len(want)
    assert _ran_enough(search, got)
    assert got.complete == want.complete
    for a, b in zip(got.entries, want.entries):
        assert a.iteration == b.iteration
        assert (a.x == b.x).all()
        assert a.level == b.level
        assert a.values == b.values
        assert a.imse_before == b.imse_before
        assert a.imse_after == b.imse_after
        assert a.cumulative_cost == b.cumulative_cost
    for a, b in zip(got_model.data.designs, want_model.data.designs):
        assert (a == b).all()


# ---------------------------------------------------------------------------
# pinned node sets and traces


def _nodes_digest(node_sets) -> str:
    """sha256 of the points and weights of node sets, in order."""
    h = hashlib.sha256()
    for nodes in node_sets:
        h.update(repr(nodes.points.shape).encode())
        h.update(nodes.points.tobytes())
        h.update(b"None" if nodes.weights is None else nodes.weights.tobytes())
    return h.hexdigest()


def _trace_digest(model, trace) -> str:
    """sha256 of a trace's entries and the final model's designs."""
    h = hashlib.sha256()
    for e in trace.entries:
        h.update(repr((e.iteration, e.level, e.values, e.imse_before,
                       e.imse_after, e.cumulative_cost)).encode())
        h.update(e.x.tobytes())
    for design in model.data.designs:
        h.update(design.tobytes())
    return h.hexdigest()


# every config kind, with and without its optional fields
SEARCH_CONFIGS = [
    {"kind": "grid", "n": 5}, {"kind": "grid", "n": 1},
    {"kind": "random", "n": 16}, {"kind": "random", "n": 16, "seed": 3},
    {"kind": "random", "n": 4}, {"kind": "random", "n": 4, "seed": 2},
]
QUADRATURE_CONFIGS = [
    {"kind": "grid", "n": 5}, {"kind": "grid", "n": 1},
    {"kind": "monte-carlo", "n": 16},
    {"kind": "monte-carlo", "n": 16, "seed": 3},
]


def test_config_kinds_and_defaults_give_the_pinned_node_sets():
    # the bytes of the five strategy classes these two specs replaced
    bounds = [[-1.0, 2.0], [0.0, 0.5], [3.0, 7.0]]
    node_sets = []
    for d in (1, 2, 3):
        domain = Domain(bounds[:d])
        for key, configs in (("search", SEARCH_CONFIGS),
                             ("quadrature", QUADRATURE_CONFIGS)):
            quadrature = key == "quadrature"
            node_sets += [sequential._node_set(
                domain, cli._strategy_from({key: raw}, key), quadrature)
                for raw in configs]
        node_sets += [sequential._node_set(domain, None, False),
                      sequential._node_set(domain, None, True)]
    assert [len(n.points) for n in node_sets[-2:]] == [4096, 4096]
    assert _nodes_digest(node_sets) == (
        "68062fa389e49e7754810c0b6634fcb5a94d089ed516dc28dbd2980ffaf51e0e")


# the loops of CASES with frozen hyperparameters, which a search's BLAS
# thread count cannot move
TRACE_SHA256 = {
    "1d-2lev-grid-grid-never":
        "d21b35edd13e3c6b282859d81a450f452fbad0d5e7291aa3edd3966b3286321b",
    "1d-2lev-random-mc-always":
        "2ad4710a5bdb902a87cd74ef3ec2b6667d708aa96428ce70760dcd08aaea388d",
    "1d-3lev-polish-measure-every2":
        "44b69aab74352d6c3d03772a953b96378cadf7dac83c60be5935fd3c0d973d0a",
    "1d-3lev-multistart-grid-never":
        "bb8e2376f862469757b55552092d66e293f8fc457a8542988ffbf566b587c2a5",
    "2d-2lev-grid-measure-never":
        "e07b497c7fede91bf3dadcad59bcd67b44b66103b49222824ef3274b454ba26a",
    "2d-2lev-multistart-mc-every2":
        "44cc130e206f5125207e80367dcf9cbb805c918c177c81c6456c6b34a0ae6012",
    "2d-3lev-grid-grid-never":
        "688c24e68da00e22533740521fc91161a30d7dc6b7964b6381e926a5664c04c0",
    "2d-3lev-polish-grid-every2":
        "b625aa3fd044ac6ff4d3ed75517cc5a23cc1c777bb41a42ead3988c8027a1de8",
    "1d-2lev-grid1-grid-never":
        "480964f102ac40870480eba2080415652c950ace6c68462bd1a1a88bb3c13a7b",
    "1d-2lev-grid-grid1-never":
        "577bacb792a70b3adb950f8c0fd6a461a2e81c2fe55448308435869d8a6b9015",
    "1d-3lev-uniform1-grid-never":
        "0d44ecbe4c056db29e351058300e5e8ad517ae75a4ac5523c64a0389ecc87943",
}


@pytest.mark.parametrize("case_id", CASES)
def test_frozen_loops_give_the_pinned_traces(case_id, monkeypatch):
    name, sizes, search, quadrature, _, budget = CASES[case_id]
    model, bounds, cost, simulators = _setup(name, sizes)
    if quadrature == "measure":
        domain, quadrature = Domain(bounds, _measure(bounds, 30, 9)), None
    else:
        domain = Domain(bounds)
    calls = []
    for owner, attr in ((sequential, "choose_level"),
                        (MultiFidelityModel, "predict")):
        def counted(*args, _attr=attr, _original=getattr(owner, attr)):
            calls.append(_attr)
            return _original(*args)
        monkeypatch.setattr(owner, attr, counted)
    final, trace = run_loop(model, domain, cost, budget, simulators,
                            search=search, quadrature=quadrature,
                            rule=RULES.get(case_id, sequential.IMSE_THRESHOLD))
    assert _ran_enough(search, trace)
    assert _trace_digest(final, trace) == TRACE_SHA256[case_id]
    # the level rule and the variances read the node sets, one node or many
    assert calls == []


def test_a_uniform_takes_no_polish_and_a_quadrature_is_checked_first():
    # no search polishes, so a Uniform has no polish to give
    for polish in ("best", "all"):
        with pytest.raises(TypeError, match="unexpected keyword argument "
                                            "'polish'"):
            Uniform(8, polish=polish)
    model, _, cost, _ = _setup("forrester", [8, 4])

    def never_called(x):
        raise AssertionError("simulator ran")

    # a measure is its own quadrature, but the spec is checked first
    for domain in (UNIT1, Domain(UNIT1.bounds, _measure(UNIT1.bounds, 12, 2))):
        with pytest.raises(TypeError, match="unknown quadrature 'garbage'"):
            compute_imse(model, domain, "garbage")
        with pytest.raises(TypeError, match="unknown quadrature 'garbage'"):
            run_loop(model, domain, cost, 20.0, [never_called] * 2,
                     quadrature="garbage")
        assert compute_imse(model, domain, Uniform(16, seed=1)) > 0


def test_one_grid_gives_endpoints_as_a_search_and_midpoints_as_a_quadrature():
    grid = Grid(4)
    search = sequential._node_set(UNIT1, grid, False)
    quadrature = sequential._node_set(UNIT1, grid, True)
    assert (search.points[:, 0] == [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]).all()
    assert (quadrature.points[:, 0] == [0.125, 0.375, 0.625, 0.875]).all()
    # a product grid is in lexicographic order, so ``best`` gathers nothing
    assert search.index.order is None and quadrature.index.order is None


# ---------------------------------------------------------------------------
# Uniform searches against a search through ``predict``


@pytest.mark.parametrize("name, sizes", [("forrester", [8, 4]),
                                         ("ripple2d", [12, 5])])
@pytest.mark.parametrize("search", [Uniform(4, seed=2), Uniform(8, seed=3)],
                         ids=["uniform4", "uniform8"])
def test_uniform_search_equals_a_search_through_predict(name, sizes, search):
    model, bounds, _, _ = _setup(name, sizes)
    domain = Domain(bounds)
    want = reference_search(model, domain, search.n, search.seed)
    assert (argmax_variance(model, domain, search) == want).all()
    # excluding the winner and the design hands the choice to the runner-up
    exclude = np.vstack([model.data.designs[0], want])
    want = reference_search(model, domain, search.n, search.seed, exclude)
    got = argmax_variance(model, domain, search, exclude=exclude)
    assert (got == want).all()
    assert not (got == exclude).all(axis=1).any()


# ---------------------------------------------------------------------------
# the per-level cache of a node set


def _count_rows(monkeypatch, module, name, design_rows=len):
    """Rows asked of the row builder ``module.name``, per call: both
    builders take the design second, and ``design_rows`` counts its rows."""
    rows = []
    original = getattr(module, name)

    def counted(first, design, *rest):
        rows.append(design_rows(design))
        return original(first, design, *rest)

    monkeypatch.setattr(module, name, counted)
    return rows


@pytest.fixture()
def correlation_rows(monkeypatch):
    """Rows asked of the row builder by the node sets, per call."""
    return _count_rows(monkeypatch, sequential, "_probe_rows")


def test_enriched_node_gets_the_nugget_from_one_new_row(correlation_rows):
    model, _, _, simulators = _setup("forrester", [8, 4])
    nodes = sequential._node_set(UNIT1, Grid(33), False)
    nodes.top_variance(model)
    assert correlation_rows == [8, 4]
    x = nodes.points[7]
    grown = enrich(model, x, 2, values=[s(x[None, :])[0] for s in simulators])
    got = nodes.top_variance(grown)
    assert correlation_rows == [8, 4, 1, 1]
    want = grown.predict(nodes.points).variances[-1]
    assert (got == want).all()
    assert got[7] < 1e-9  # interpolated only because the row has the nugget


def test_a_node_set_wider_than_a_column_block_continues_bit_for_bit(
        correlation_rows):
    model, _, _, simulators = _setup("forrester", [8, 4])
    # 1500 nodes: one full block of the row recursion and a partial one
    nodes = sequential._node_set(UNIT1, Grid(1500), False)
    assert len(nodes.points) > kriging._COLUMN_BLOCK
    nodes.top_variance(model)
    x = nodes.points[700]
    grown = enrich(model, x, 2, values=[s(x[None, :])[0] for s in simulators])
    got = nodes.top_variance(grown)
    assert correlation_rows == [8, 4, 1, 1]
    assert (got == grown.predict(nodes.points).variances[-1]).all()


# node sets whose last column block of the row recursion is one column;
# solving an appended row across the full width instead, outside the
# blocks, changes bits on both
@pytest.mark.parametrize("name, sizes, spec", [
    ("forrester", [16, 6], Grid(1025)),
    ("ripple2d", [30, 10], Uniform(2049, seed=7))],
    ids=["1d-grid1025", "2d-uniform2049"])
def test_frozen_appends_on_a_one_column_last_block_equal_predict(name, sizes,
                                                                 spec):
    model, bounds, _, simulators = _setup(name, sizes)
    domain = Domain(bounds)
    nodes = sequential._node_set(domain, spec, False)
    assert len(nodes.points) % kriging._COLUMN_BLOCK == 1
    nodes.top_variance(model)
    for level in (1, 2, 1, 2, 1, 1):
        x = argmax_variance(model, domain, nodes,
                            exclude=model.data.designs[0])
        model = enrich(model, x, level,
                       values=[s(x[None, :])[0] for s in simulators[:level]])
        got = nodes.top_variance(model)
        assert (got == model.predict(nodes.points).variances[-1]).all()


def test_a_fresh_solve_equals_a_fresh_solve_and_a_one_row_append():
    # 1025 columns: one full column block and a block of one column
    model, _, _, _ = _setup("forrester", [30, 10])
    level = model.levels[0]
    nodes = sequential.product_grid(UNIT1.bounds, 1025)
    c = probe_correlation(level.kernel, PointIndex(level.design), nodes)
    n, m = c.shape
    fresh_v, fresh_s = np.empty((n, m)), np.zeros(m)
    kriging._solve_rows(level.chol, c, fresh_v, fresh_s, 0)
    v, s = np.empty((n, m)), np.zeros(m)
    kriging._solve_rows(level.chol, c[:n - 1], v, s, 0)
    kriging._solve_rows(level.chol, c[n - 1:], v, s, n - 1)
    assert (v == fresh_v).all() and (s == fresh_s).all()


def test_a_one_node_set_keeps_nothing_and_equals_predict(monkeypatch):
    # a one-node set reads its rows through predict
    correlation_rows = _count_rows(monkeypatch, cokriging, "probe_correlation",
                                   lambda index: len(index.points))
    model, _, _, simulators = _setup("forrester", [8, 4])
    nodes = sequential._Nodes(np.array([[0.3141]]))
    assert (nodes.top_variance(model)
            == model.predict(nodes.points).variances[-1]).all()
    x = np.array([0.777])
    grown = enrich(model, x, 2, values=[s(x[None, :])[0] for s in simulators])
    got = nodes.top_variance(grown)
    # a single point is solved afresh by dtrtrs, as predict solves it
    assert correlation_rows == [8, 4, 8, 4, 9, 5] and not nodes._solves
    assert (got == grown.predict(nodes.points).variances[-1]).all()


def test_a_linear_scaling_matches_predict_as_its_coefficients_change():
    model, _, _, simulators = _setup("forrester", [8, 4])
    linear = BasisSpec("linear", 1)
    configs = [model.configs[0],
               LevelConfig(BasisSpec("constant", 1), KernelSpec(SE),
                           scaling=linear)]
    params = [LevelParameters([0.3], 1.0, [0.0]),
              LevelParameters([0.6], 0.5, [0.0], rho_beta=[1.1, 0.2])]
    model = MultiFidelityModel.from_parameters(model.data, configs, params)
    nodes = sequential._node_set(UNIT1, Grid(65), False)
    assert (nodes.top_variance(model)
            == model.predict(nodes.points).variances[-1]).all()
    # the first refit estimates level 2's coefficients, given until then;
    # a level 1 run leaves them, and a level 2 run estimates them anew
    for i, (level, keeps) in enumerate([(1, False), (1, True), (2, False)]):
        kept = model.levels[1].rho_beta.tobytes()
        x = nodes.points[10 + i]
        model = enrich(model, x, level,
                       values=[s(x[None, :])[0] for s in simulators[:level]])
        assert (model.levels[1].rho_beta.tobytes() == kept) == keeps
        out = model.predict(nodes.points)
        assert (nodes.top_variance(model) == out.variances[-1]).all()
        variance, contributions = sequential._split_at(nodes.terms(model),
                                                       30)
        assert variance == out.variances[-1, 30]
        assert (contributions == out.contributions[:, 30]).all()


def test_new_lengthscales_or_a_new_design_rebuild_the_cache(correlation_rows):
    model, _, _, _ = _setup("forrester", [8, 4])
    nodes = sequential._node_set(UNIT1, Grid(40), True)
    nodes.top_variance(model)
    # reestimation: same data, other lengthscales
    params = [LevelParameters([0.45], 1.0, [0.0]),
              LevelParameters([0.6], 0.5, [0.0], rho_beta=[1.1])]
    refitted = MultiFidelityModel.from_parameters(model.data, model.configs,
                                                  params)
    got = nodes.top_variance(refitted)
    # level 2 keeps its kernel and design, but its factor has no lineage
    assert correlation_rows == [8, 4, 8, 4]
    assert (got == refitted.predict(nodes.points).variances[-1]).all()
    # same kernels, but a design that does not extend the cached one;
    # the refit grows level 2 from its factor by no rows: lineage
    data = model.data
    reordered = MultiFidelityData(
        [data.designs[0][::-1], data.designs[1]],
        [data.observations[0][::-1], data.observations[1]])
    moved = refitted.refit(reordered)
    assert moved.levels[1].grown_from is refitted.levels[1].chol
    got = nodes.top_variance(moved)
    assert correlation_rows == [8, 4, 8, 4, 8]
    assert (got == moved.predict(nodes.points).variances[-1]).all()


@pytest.mark.parametrize("points", [
    # duplicates, -0.0 beside 0.0, and no lexicographic order
    np.random.default_rng(3).choice([-1.0, -0.0, 0.0, 0.5, 1.0],
                                    size=(60, 2)),
    sequential.product_grid(np.array([[-1.0, 1.0], [0.0, 1.0]]), 5),
    # many nodes per first coordinate, most of them repeated
    np.random.default_rng(4).choice([-1.0, -0.0, 0.0, 0.5, 1.0],
                                    size=(300, 2)),
], ids=["duplicates", "grid", "narrowed"])
def test_the_node_index_finds_every_bitwise_equal_node(points):
    nodes = sequential._Nodes(points)
    queries = np.vstack([points[::7], [[0.25, 0.5], [-0.0, 0.0],
                                       [0.0, -0.0]]])
    rows, found = nodes.index.matches(queries)
    want = reference_same_points(queries, points)
    got = np.zeros_like(want)
    got[rows, found] = True
    assert (got == want).all() and len(rows) == want.sum()
    # every copy of an excluded point is excluded
    variances = np.arange(len(points), dtype=float)
    j = nodes.best(variances, exclude=PointIndex(queries))
    assert not reference_same_points(points[j:j + 1], queries).any()
    assert nodes.best(variances, exclude=PointIndex(points)) is None


def _index(points):
    """The ``PointIndex`` of exclusion points, or None for none."""
    return None if points is None else PointIndex(points)


def _reference_best(nodes, variances, exclude=None):
    """``best`` as a scan of every node not equal to an ``exclude`` row:
    the largest variance, an exact tie to the smallest ``reference_key``
    (lexicographic coordinates, -0.0 below 0.0), then to the earlier node."""
    kept = np.ones(len(nodes.points), dtype=bool)
    if exclude is not None:
        kept = ~reference_same_points(nodes.points, exclude).any(axis=1)
    candidates = np.flatnonzero(kept)
    if not candidates.size:
        return None
    return min(candidates, key=lambda j: (-variances[j],
                                          reference_key(nodes.points[j])))


@pytest.mark.parametrize("spec", [
    Grid(6),                      # a product grid: no scan order to gather
    Uniform(40, seed=5),          # a scan order that is no row order
], ids=["grid", "uniform"])
def test_best_takes_the_plain_argmax_unless_an_excluded_node_wins(spec):
    nodes = sequential._node_set(Domain([[0.0, 1.0], [-1.0, 1.0]]), spec,
                                 False)
    assert (nodes.index.order is None) == isinstance(spec, Grid)
    rng = np.random.default_rng(6)
    order = np.lexsort(nodes.points.T[::-1])
    variances = rng.uniform(size=len(nodes.points))
    top = int(np.argmax(variances))
    tied = variances.copy()
    tied[order[[3, 9]]] = 2.0  # a tie: order[3] is the smaller node
    cases = [
        (variances, None),
        (variances, nodes.points[[top]]),           # the maximum excluded
        (variances, nodes.points[::2]),
        (variances, nodes.points),                  # every node excluded
        (tied, None),
        (tied, nodes.points[order[[3]]]),           # the tie's winner excluded
        (tied, nodes.points[order[[9]]]),           # the tie's loser excluded
        (tied, nodes.points[order[[3, 9]]]),
    ]
    for values, exclude in cases:
        assert nodes.best(values, _index(exclude)) == \
            _reference_best(nodes, values, exclude)
    assert nodes.best(tied) == order[3]
    assert nodes.best(tied, _index(nodes.points[order[[3]]])) == order[9]
    assert nodes.best(variances, _index(nodes.points)) is None


@st.composite
def _tied_nodes(draw):
    # Up to 5 nodes in 2-d from values that hold both zeros, variances
    # from three values (exact ties are common), and up to 3 exclusion
    # rows from the same values.
    rows = st.lists(st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5]),
                             min_size=2, max_size=2), min_size=1, max_size=5)
    points = np.array(draw(rows))
    variances = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                       min_size=len(points),
                                       max_size=len(points))))
    exclude = np.array(draw(rows)[:3])
    return points, variances, exclude


@settings(max_examples=200, deadline=None)
@example(case=(np.array([[0.5, 0.0], [0.5, -0.0]]), np.ones(2),
               np.array([[1.0, 1.0]])))
@given(case=_tied_nodes())
def test_best_picks_one_point_under_every_permutation_of_the_nodes(case):
    # an exact tie goes to the smallest key whatever the nodes' row order,
    # and -0.0 is below 0.0
    points, variances, exclude = case
    for rows in (None, exclude):
        j = _reference_best(sequential._Nodes(points), variances, rows)
        want = None if j is None else points[j].tobytes()
        for order in itertools.permutations(range(len(points))):
            nodes = sequential._Nodes(points[list(order)])
            got = nodes.best(variances[list(order)], _index(rows))
            assert (None if got is None
                    else nodes.points[got].tobytes()) == want


def test_fully_excluded_search_returns_none_and_stops_the_loop():
    model, _, cost, simulators = _setup("forrester", [8, 4])
    grid = sequential.product_grid(UNIT1.bounds, 5)
    # the loop runs out of grid nodes before it runs out of budget
    final, trace = run_loop(model, UNIT1, cost, 200.0, simulators,
                            search=Grid(5), quadrature=Grid(16))
    assert trace.complete and len(trace) == 5
    assert (np.sort(np.vstack([e.x for e in trace.entries]), axis=0)
            == grid).all()
    assert argmax_variance(final, UNIT1, Grid(5),
                           exclude=final.data.designs[0]) is None
    again, empty = run_loop(final, UNIT1, cost, 200.0, simulators,
                            search=Grid(5), quadrature=Grid(16))
    assert again is final and len(empty) == 0 and empty.complete


def test_a_frozen_iteration_forms_the_search_terms_once(monkeypatch):
    # the level rule reads the terms the search's argmax was taken from
    model, _, cost, simulators = _setup("forrester", [8, 4])
    search = sequential._node_set(UNIT1, Grid(33), False)
    quadrature = sequential._node_set(UNIT1, Grid(16), True)
    formed = []
    original = sequential._variance_terms

    def spy(levels, factors, X):
        formed.append("search" if X is search.points else "quadrature")
        return original(levels, factors, X)

    monkeypatch.setattr(sequential, "_variance_terms", spy)
    _, trace = run_loop(model, UNIT1, cost, 12, simulators, search=search,
                        quadrature=quadrature)
    assert len(trace) > 1
    # the first IMSE, then per iteration the search and the IMSE after
    # it, and the search of the iteration that stops the loop
    assert formed == (["quadrature"] + ["search", "quadrature"] * len(trace)
                      + ["search"])


def test_the_loop_excludes_through_the_index_of_d1(monkeypatch):
    # the loop excludes D_1 through the data's own index, so only the
    # grown levels' data and the two node sets build one
    model, bounds, cost, simulators = _setup("ripple2d", [12, 5])
    builders = []
    original = PointIndex.__init__

    def spy(self, points):
        caller = sys._getframe(1)
        owner = type(caller.f_locals.get("self")).__name__
        builders.append(f"{owner}.{caller.f_code.co_name}")
        original(self, points)

    monkeypatch.setattr(PointIndex, "__init__", spy)
    _, trace = run_loop(model, Domain(bounds), cost, 10, simulators,
                        search=Uniform(64, seed=1),
                        quadrature=Grid(8))
    assert len(trace) > 1
    assert builders.count("_Nodes.__init__") == 2
    assert builders.count("MultiFidelityData.with_point") == sum(
        e.level for e in trace.entries)
    assert len(builders) == 2 + sum(e.level for e in trace.entries)


# ---------------------------------------------------------------------------
# the loop's reserve and the lineage of a kept solve


def test_a_budgeted_frozen_loop_allocates_each_kept_solve_once():
    model, bounds, cost, simulators = _setup("ripple2d", [12, 5])
    domain = Domain(bounds)
    search = sequential._node_set(domain, Grid(21), False)
    quadrature = sequential._node_set(domain, Grid(12), True)
    buffers = []

    def first_level(x):  # records the kept buffers at every iteration
        buffers.append([nodes._solves[k].v for nodes in (search, quadrature)
                        for k in (0, 1)])
        return simulators[0](x)

    budget = 24
    final, trace = run_loop(model, domain, cost, budget,
                            [first_level, simulators[1]], search=search,
                            quadrature=quadrature)
    assert len(trace) > 1 and {e.level for e in trace.entries} == {1, 2}
    rows = [12 + budget // 1, 5 + budget // 4]  # cost_through: 1, then 4
    assert search._reserve == quadrature._reserve == dict(enumerate(rows))
    kept = [nodes._solves[k].v for nodes in (search, quadrature)
            for k in (0, 1)]
    assert [len(v) for v in kept] == rows * 2
    for seen in buffers:
        assert all(a is b for a, b in zip(seen, kept))
    assert all(len(d) <= r for d, r in zip(final.data.designs, rows))


def test_a_huge_budget_reserves_nothing_and_gives_the_trace():
    model, _, cost, simulators = _setup("forrester", [8, 4])
    search = sequential._node_set(UNIT1, Grid(5), False)
    quadrature = sequential._node_set(UNIT1, Grid(16), True)
    # the grid runs out of nodes long before the budget, so the bound on
    # the rows is far above the cap and the buffers double as needed
    final, trace = run_loop(model, UNIT1, cost, 1e12, simulators,
                            search=search, quadrature=quadrature)
    assert trace.complete and len(trace) == 5
    assert search._reserve == quadrature._reserve == {}
    for nodes in (search, quadrature):
        for solve in nodes._solves.values():
            assert solve.v.nbytes <= sequential._RESERVE_BYTES
            assert len(solve.v) < 2 * solve.rows
    assert _trace_digest(final, trace) == (
        "5c207c3c1a7d8c19ccd6f34084aa27bd047e65ba014aa2db315b913304ac4e50")


def _parameters(model):
    """The ``LevelParameters`` of each of ``model``'s levels."""
    return [LevelParameters(lev.lengthscales, lev.sigma2, lev.beta,
                            rho_beta=lev.rho_beta) for lev in model.levels]


def test_a_level_without_lineage_rebuilds_its_kept_solve(correlation_rows):
    model, _, _, simulators = _setup("forrester", [8, 4])
    nodes = sequential._node_set(UNIT1, Grid(33), False)
    nodes.top_variance(model)
    x = nodes.points[7]
    grown = enrich(model, x, 2, values=[s(x[None, :])[0] for s in simulators])
    # a frozen refit records the factor it grew each level from
    assert all(new.grown_from is old.chol
               for new, old in zip(grown.levels, model.levels))
    # the same grown data and parameters, factored afresh: no lineage
    fresh = MultiFidelityModel.from_parameters(grown.data, grown.configs,
                                               _parameters(grown))
    assert all(lev.grown_from is None for lev in fresh.levels)
    got = nodes.top_variance(fresh)
    assert correlation_rows == [8, 4, 9, 5]
    assert (got == fresh.predict(nodes.points).variances[-1]).all()
    # the grown model, whose factors the fresh ones do not descend from,
    # rebuilds too, and a frozen refit of it continues by one row each
    got = nodes.top_variance(grown)
    assert correlation_rows == [8, 4, 9, 5, 9, 5]
    assert (got == grown.predict(nodes.points).variances[-1]).all()
    x = nodes.points[20]
    again = enrich(grown, x, 2, values=[s(x[None, :])[0] for s in simulators])
    got = nodes.top_variance(again)
    assert correlation_rows == [8, 4, 9, 5, 9, 5, 1, 1]
    assert (got == again.predict(nodes.points).variances[-1]).all()


def test_two_refits_of_one_model_do_not_continue_each_other(correlation_rows):
    model, _, _, simulators = _setup("forrester", [8, 4])
    nodes = sequential._node_set(UNIT1, Grid(33), False)
    nodes.top_variance(model)
    branches = []
    for j in (7, 20):
        x = nodes.points[j]
        branches.append(enrich(model, x, 1,
                               values=[simulators[0](x[None, :])[0]]))
    for branch in branches:
        got = nodes.top_variance(branch)
        assert (got == branch.predict(nodes.points).variances[-1]).all()
    # the first branch appends a row to the kept level-1 solve; the
    # second grew from the same factor, not from the first branch's
    assert correlation_rows == [8, 4, 1, 9]


# ---------------------------------------------------------------------------
# exact ties in the search


class _Flat:
    """A model whose top-level variance is 1 everywhere: every candidate
    of a search ties exactly."""

    def predict(self, points):
        return cokriging.PredictionBreakdown(*[np.ones((1, len(points)))] * 3)


# ``want`` is the index of the node picked, None for the third node.
@pytest.mark.parametrize("tied, want", [
    ([-0.0, 0.5], None),  # the -0.0 twin of a node comes first
    ([0.0, 0.5], 1),      # an exact copy loses to the earlier node
    ([0.0, 0.25], None),  # a smaller point comes first
    ([0.5, 0.5], 1),      # a larger one does not
])
def test_tied_nodes_go_to_the_smallest_point_then_the_first_index(
        monkeypatch, tied, want):
    nodes = sequential._Nodes(np.array([[0.5, 0.5], [0.0, 0.5], tied]))
    monkeypatch.setattr(nodes, "top_variance", lambda model: np.ones(3))
    x = argmax_variance(_Flat(), Domain([[-1.0, 1.0], [0.0, 1.0]]), nodes)
    assert x.tobytes() == nodes.points[2 if want is None else want].tobytes()


@pytest.mark.parametrize("copy", ["all", "best", "first", "top"])
def test_copies_of_nodes_change_no_pick(copy):
    model, bounds, _, _ = _setup("ripple2d", [12, 5])
    domain = Domain(bounds)
    nodes = sequential._node_set(domain, Uniform(40, seed=2), False)
    order = np.lexsort(nodes.points.T[::-1])
    first = nodes.best(nodes.top_variance(model))
    copies = {"all": nodes.points, "best": nodes.points[[first]],
              "first": nodes.points[order[[0]]],
              "top": nodes.points[order[[-1]]]}[copy]
    copied = sequential._Nodes(np.vstack([nodes.points, copies]))
    for exclude in (None, model.data.designs[0],
                    np.vstack([model.data.designs[0], nodes.points[first]])):
        got = argmax_variance(model, domain, copied, exclude)
        want = argmax_variance(model, domain, nodes, exclude)
        assert got.tobytes() == want.tobytes()
    # with the best node excluded, its copy is excluded too
    got = argmax_variance(model, domain, copied, nodes.points[[first]])
    assert not (got == nodes.points[first]).all()
