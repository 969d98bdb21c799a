"""The loop's fixed node sets: ``run_loop`` resolves its search and
quadrature once and reuses each level's node correlations between
iterations; the public calls resolve them afresh. Both must give the same
numbers bit for bit."""

import hashlib

import numpy as np
import pytest

import mfkrig.cli as cli
import mfkrig.cokriging as cokriging
import mfkrig.kriging as kriging
import mfkrig.sequential as sequential
from helpers import reference_search, replay_loop
from mfkrig.cokriging import (
    LevelConfig,
    LevelParameters,
    MultiFidelityData,
    MultiFidelityModel,
)
from mfkrig.kernels import BasisSpec, KernelSpec
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


CASES = {  # problem, sizes, search, quadrature (or "measure"), refit, budget
    "1d-2lev-grid-grid-never": (
        "forrester", [8, 4], Grid(65), Grid(64), "never", 24),
    "1d-2lev-random-mc-always": (
        "forrester", [8, 4], Uniform(64, seed=3), Uniform(100, seed=4),
        "always", 5),
    "1d-3lev-polish-measure-every2": (
        "chain3", [10, 6, 3], Uniform(40, seed=1, polish="best"),
        "measure", "every-2", 20),
    "1d-3lev-multistart-grid-never": (
        "chain3", [10, 6, 3], Uniform(3, seed=2, polish="all"), Grid(32),
        "never", 40),
    "2d-2lev-grid-measure-never": (
        "ripple2d", [12, 5], Grid(21), "measure", "never", 24),
    "2d-2lev-multistart-mc-every2": (
        "ripple2d", [12, 5], Uniform(2, seed=5, polish="all"),
        Uniform(64, seed=6), "every-2", 5),
    "2d-3lev-grid-grid-never": (
        "ripple3", [14, 7, 4], Grid(17), Grid(12), "never", 30),
    "2d-3lev-polish-grid-every2": (
        "ripple3", [14, 7, 4], Uniform(50, seed=8, polish="best"),
        Grid(6), "every-2", 6),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_run_loop_equals_its_replay_through_public_calls(case):
    name, sizes, search, quadrature, refit, budget = case
    model, bounds, cost, simulators = _setup(name, sizes)
    if quadrature == "measure":
        domain, quadrature = Domain(bounds, _measure(bounds, 30, 9)), None
    else:
        domain = Domain(bounds)
    args = (model, domain, cost, budget, simulators)
    kwargs = dict(search=search, quadrature=quadrature, refit=refit)
    got_model, got = run_loop(*args, **kwargs)
    want_model, want = replay_loop(*args, **kwargs)
    assert len(got) == len(want) > 1
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
    """sha256 of the points, polish and weights of node sets, in order."""
    h = hashlib.sha256()
    for nodes in node_sets:
        h.update(repr((nodes.points.shape, nodes.polish)).encode())
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
    {"kind": "random", "n": 16, "seed": 3, "polish": True},
    {"kind": "random", "n": 16, "polish": False},
    {"kind": "multistart", "k": 4}, {"kind": "multistart", "k": 4, "seed": 2},
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
    assert [n.polish for n in node_sets[-2:]] == ["best", None]
    assert _nodes_digest(node_sets) == (
        "1ca31b1da7ebbd20f5917e1046c3464280891326082025bf9b97c72daeb5446b")


# the loops of CASES with frozen hyperparameters, which a search's BLAS
# thread count cannot move
TRACE_SHA256 = {
    "1d-2lev-grid-grid-never":
        "d21b35edd13e3c6b282859d81a450f452fbad0d5e7291aa3edd3966b3286321b",
    "1d-2lev-random-mc-always":
        "2ad4710a5bdb902a87cd74ef3ec2b6667d708aa96428ce70760dcd08aaea388d",
    "1d-3lev-polish-measure-every2":
        "7bcf6928e0107371552116acdac12fb263490ceae84207d6a1dc5cf9a1b7b0c0",
    "1d-3lev-multistart-grid-never":
        "64a739023673370d84497ee71327ab829334f656a05bd8c719f58b4f45e21b01",
    "2d-2lev-grid-measure-never":
        "e07b497c7fede91bf3dadcad59bcd67b44b66103b49222824ef3274b454ba26a",
    "2d-2lev-multistart-mc-every2":
        "28cd833d7041fab04c2f6c817559e5c3ad1ec6b23d3d323ffd5d2a9070e7c056",
    "2d-3lev-grid-grid-never":
        "688c24e68da00e22533740521fc91161a30d7dc6b7964b6381e926a5664c04c0",
    "2d-3lev-polish-grid-every2":
        "c5c9a9b1b97dde2d6e3786def02e1af725acc5e074e51cb1b95ce32eca398cbc",
}


@pytest.mark.parametrize("case_id", CASES)
def test_frozen_loops_give_the_pinned_traces(case_id):
    name, sizes, search, quadrature, _, budget = CASES[case_id]
    model, bounds, cost, simulators = _setup(name, sizes)
    if quadrature == "measure":
        domain, quadrature = Domain(bounds, _measure(bounds, 30, 9)), None
    else:
        domain = Domain(bounds)
    final, trace = run_loop(model, domain, cost, budget, simulators,
                            search=search, quadrature=quadrature)
    assert len(trace) > 1
    assert _trace_digest(final, trace) == TRACE_SHA256[case_id]


def test_a_polishing_uniform_is_no_quadrature():
    model, _, cost, _ = _setup("forrester", [8, 4])

    def never_called(x):
        raise AssertionError("simulator ran")

    for polish in ("best", "all"):
        spec = Uniform(16, seed=1, polish=polish)
        with pytest.raises(ValueError, match="a quadrature polishes nothing"):
            compute_imse(model, UNIT1, spec)
        with pytest.raises(ValueError, match="a quadrature polishes nothing"):
            run_loop(model, UNIT1, cost, 20.0, [never_called] * 2,
                     quadrature=spec)
        assert argmax_variance(model, UNIT1, spec) is not None
    assert compute_imse(model, UNIT1, Uniform(16, seed=1)) > 0


def test_one_grid_gives_endpoints_as_a_search_and_midpoints_as_a_quadrature():
    grid = Grid(4)
    search = sequential._node_set(UNIT1, grid, False)
    quadrature = sequential._node_set(UNIT1, grid, True)
    assert (search.points[:, 0] == [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]).all()
    assert (quadrature.points[:, 0] == [0.125, 0.375, 0.625, 0.875]).all()
    assert search.polish is None and quadrature.polish is None


# ---------------------------------------------------------------------------
# polished searches against a search through ``predict``


@pytest.mark.parametrize("name, sizes", [("forrester", [8, 4]),
                                         ("ripple2d", [12, 5])])
@pytest.mark.parametrize("search", [Uniform(4, seed=2, polish="all"),
                                    Uniform(8, seed=3, polish="best")],
                         ids=["multistart", "random-polish"])
def test_polished_search_equals_a_search_through_predict(name, sizes, search):
    model, bounds, _, _ = _setup(name, sizes)
    domain = Domain(bounds)
    multistart = search.polish == "all"
    want = reference_search(model, domain, search.n, search.seed, multistart)
    assert (argmax_variance(model, domain, search) == want).all()
    # excluding the winner and the design hands the choice to the runner-up
    exclude = np.vstack([model.data.designs[0], want])
    want = reference_search(model, domain, search.n, search.seed, multistart,
                            exclude)
    got = argmax_variance(model, domain, search, exclude=exclude)
    assert (got == want).all()
    assert not (got == exclude).all(axis=1).any()


# ---------------------------------------------------------------------------
# the per-level cache of a node set


def _count_rows(monkeypatch, module):
    """Rows asked of ``module.probe_correlation``, per call."""
    rows = []
    original = module.probe_correlation

    def counted(kernel, design, points):
        rows.append(len(np.atleast_2d(design)))
        return original(kernel, design, points)

    monkeypatch.setattr(module, "probe_correlation", counted)
    return rows


@pytest.fixture()
def correlation_rows(monkeypatch):
    """Rows asked of ``probe_correlation`` by the node sets, per call."""
    return _count_rows(monkeypatch, sequential)


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


def test_a_one_node_set_keeps_nothing_and_equals_predict(monkeypatch):
    # a one-node set reads its rows through predict
    correlation_rows = _count_rows(monkeypatch, cokriging)
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
    assert correlation_rows == [8, 4, 8]
    assert (got == refitted.predict(nodes.points).variances[-1]).all()
    # same kernels, but a design that does not extend the cached one
    data = model.data
    reordered = MultiFidelityData(
        [data.designs[0][::-1], data.designs[1]],
        [data.observations[0][::-1], data.observations[1]])
    moved = refitted.refit(reordered)
    got = nodes.top_variance(moved)
    assert correlation_rows == [8, 4, 8, 8]
    assert (got == moved.predict(nodes.points).variances[-1]).all()


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
