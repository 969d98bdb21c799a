"""The loop's fixed node sets: ``run_loop`` resolves its search and
quadrature once and reuses each level's node correlations between
iterations; the public calls resolve them afresh. Both must give the same
numbers bit for bit."""

import numpy as np
import pytest

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
    GridQuadrature,
    GridSearch,
    MonteCarloQuadrature,
    MultistartSearch,
    RandomSearch,
    WeightedSample,
    argmax_variance,
    enrich,
    run_loop,
)
from mfkrig.testbed import get_problem, nested_lhs

SE = "squared-exponential"


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
        "forrester", [8, 4], GridSearch(65), GridQuadrature(64), "never", 24),
    "1d-2lev-random-mc-always": (
        "forrester", [8, 4], RandomSearch(64, seed=3),
        MonteCarloQuadrature(100, seed=4), "always", 5),
    "1d-3lev-polish-measure-every2": (
        "chain3", [10, 6, 3], RandomSearch(40, seed=1, polish=True),
        "measure", "every-2", 20),
    "1d-3lev-multistart-grid-never": (
        "chain3", [10, 6, 3], MultistartSearch(3, seed=2), GridQuadrature(32),
        "never", 40),
    "2d-2lev-grid-measure-never": (
        "ripple2d", [12, 5], GridSearch(21), "measure", "never", 24),
    "2d-2lev-multistart-mc-every2": (
        "ripple2d", [12, 5], MultistartSearch(2, seed=5),
        MonteCarloQuadrature(64, seed=6), "every-2", 5),
    "2d-3lev-grid-grid-never": (
        "ripple3", [14, 7, 4], GridSearch(17), GridQuadrature(12), "never",
        30),
    "2d-3lev-polish-grid-every2": (
        "ripple3", [14, 7, 4], RandomSearch(50, seed=8, polish=True),
        GridQuadrature(6), "every-2", 6),
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
# polished searches against a search through ``predict``


@pytest.mark.parametrize("name, sizes", [("forrester", [8, 4]),
                                         ("ripple2d", [12, 5])])
@pytest.mark.parametrize("search", [MultistartSearch(4, seed=2),
                                    RandomSearch(8, seed=3, polish=True)],
                         ids=["multistart", "random-polish"])
def test_polished_search_equals_a_search_through_predict(name, sizes, search):
    model, bounds, _, _ = _setup(name, sizes)
    domain = Domain(bounds)
    multistart = isinstance(search, MultistartSearch)
    count = search.k if multistart else search.n
    want = reference_search(model, domain, count, search.seed, multistart)
    assert (argmax_variance(model, domain, search) == want).all()
    # excluding the winner and the design hands the choice to the runner-up
    exclude = np.vstack([model.data.designs[0], want])
    want = reference_search(model, domain, count, search.seed, multistart,
                            exclude)
    got = argmax_variance(model, domain, search, exclude=exclude)
    assert (got == want).all()
    assert not (got == exclude).all(axis=1).any()


# ---------------------------------------------------------------------------
# the per-level cache of a node set


UNIT1 = Domain([[0.0, 1.0]])


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
    nodes = sequential._node_set(UNIT1, GridSearch(33), sequential._SEARCH)
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
    nodes = sequential._node_set(UNIT1, GridSearch(1500), sequential._SEARCH)
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
    nodes = sequential._node_set(UNIT1, GridQuadrature(40),
                                 sequential._QUADRATURE)
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
                            search=GridSearch(5), quadrature=GridQuadrature(16))
    assert trace.complete and len(trace) == 5
    assert (np.sort(np.vstack([e.x for e in trace.entries]), axis=0)
            == grid).all()
    assert argmax_variance(final, UNIT1, GridSearch(5),
                           exclude=final.data.designs[0]) is None
    again, empty = run_loop(final, UNIT1, cost, 200.0, simulators,
                            search=GridSearch(5), quadrature=GridQuadrature(16))
    assert again is final and len(empty) == 0 and empty.complete
