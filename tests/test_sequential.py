"""Tests for the sequential design engine."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

import mfkrig.sequential as sequential
from mfkrig.cokriging import (
    LevelConfig,
    LevelParameters,
    MultiFidelityData,
    MultiFidelityModel,
    extended_trend_matrix,
    fit_multifidelity,
)
from mfkrig.exceptions import DuplicateDesignPointError, ParseError
from mfkrig.kernels import BasisSpec, KernelSpec, basis_matrix
from mfkrig.sequential import (
    COST_WEIGHTED,
    IMSE_THRESHOLD,
    CostModel,
    Domain,
    EnrichmentTrace,
    Grid,
    TraceEntry,
    Uniform,
    WeightedSample,
    argmax_variance,
    choose_level,
    compute_imse,
    enrich,
    product_grid,
    read_trace,
    run_loop,
    write_trace,
)
from mfkrig.testbed import get_problem, load_model, nested_lhs, save_model

from helpers import reference_factored_nll_terms, reference_nll_terms

UNIT1 = Domain([[0.0, 1.0]])


@pytest.fixture(scope="module")
def forrester_model():
    """Two-level model fitted on a small nested Forrester-style data set."""
    problem = get_problem("forrester")
    designs = nested_lhs([10, 5], problem.bounds, seed=1)
    observations = [problem.evaluate(t + 1, d) for t, d in enumerate(designs)]
    data = MultiFidelityData(designs, observations)
    configs = [
        LevelConfig(BasisSpec("constant", 1), KernelSpec("squared-exponential")),
        LevelConfig(BasisSpec("constant", 1), KernelSpec("squared-exponential"),
                    scaling=BasisSpec("constant", 1)),
    ]
    return fit_multifidelity(data, configs, seed=0)


def forrester_simulators():
    problem = get_problem("forrester")
    return [lambda x, t=t: problem.evaluate(t, x)
            for t in range(1, problem.level_count + 1)]


def forrester_values(x, level):
    """Responses of the forrester codes 1..level at the point x (d,)."""
    return [sim(x[None, :])[0] for sim in forrester_simulators()[:level]]


# ---------------------------------------------------------------------------
# domain, measure, costs


def test_domain_validation():
    with pytest.raises(ValueError, match="shape"):
        Domain([0.0, 1.0])
    with pytest.raises(ValueError, match="below"):
        Domain([[1.0, 0.0]])
    d = Domain([[0.0, 2.0], [-1.0, 1.0]])
    assert d.dimension == 2
    pts = d.uniform_points(50, np.random.default_rng(0))
    assert pts.shape == (50, 2)
    assert np.all(pts[:, 0] >= 0.0) and np.all(pts[:, 0] <= 2.0)
    assert np.all(pts[:, 1] >= -1.0) and np.all(pts[:, 1] <= 1.0)


def test_weighted_sample_validation():
    with pytest.raises(ValueError, match="one weight"):
        WeightedSample([[0.1], [0.2]], [1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        WeightedSample([[0.1], [0.2]], [1.5, -0.5])
    with pytest.raises(ValueError, match="sum to 1"):
        WeightedSample([[0.1], [0.2]], [0.5, 0.6])
    with pytest.raises(ValueError, match="inside the box"):
        Domain([[0.0, 1.0]], WeightedSample([[2.0]], [1.0]))
    # a nan support point would otherwise pass the box check and give a
    # nan IMSE
    with pytest.raises(ValueError, match="must be finite"):
        WeightedSample([[np.nan], [0.2]], [0.5, 0.5])
    with pytest.raises(ValueError, match="must be finite"):
        WeightedSample([[0.1], [0.2]], [np.nan, 0.5])


def test_cost_model_validation():
    with pytest.raises(ValueError, match="increasing"):
        CostModel([1.0, 1.0])
    with pytest.raises(ValueError, match="positive"):
        CostModel([-1.0, 2.0])
    cost = CostModel([1.0, 5.0, 20.0])
    assert cost.levels == 3
    assert cost.cost_through(1) == 1.0
    assert cost.cost_through(3) == 26.0
    with pytest.raises(ValueError):
        cost.cost_through(4)


# each Uniform case keeps the id it had as its own class: a random search,
# a multistart search (now a seeded Uniform like any other) and a Monte
# Carlo quadrature
@pytest.mark.parametrize("make, message", [
    (lambda n: Grid(n), "grid needs at least one node per dimension"),
    pytest.param(lambda n: Uniform(n, seed=1),
                 "need at least one uniform node",
                 id="<lambda>-random search needs at least one candidate"),
    pytest.param(lambda n: Uniform(n, 2),
                 "need at least one uniform node",
                 id="<lambda>-multistart search needs at least one start"),
    pytest.param(lambda n: Uniform(n), "need at least one uniform node",
                 id="<lambda>-need at least one quadrature node"),
])
def test_each_strategy_checks_its_own_size(make, message):
    for n in (0, -3):
        with pytest.raises(ValueError, match=message):
            make(n)
    # a size that is no integer is named with its field, before any use
    for n in (2.5, True, "5"):
        with pytest.raises(ValueError, match=re.escape(
                f"'n' must be an integer, got {n!r}")):
            make(n)
    assert make(1) is not None and make(np.int64(3)) is not None


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", True), ("seed", False), ("seed", "3"),
    ("seed", 2.0), ("seed", None),
    ("polish", True), ("polish", False), ("polish", "yes"), ("polish", 1),
])
def test_uniform_names_a_bad_seed_and_takes_no_polish(field, value):
    # a bool seed would seed 0 or 1 and a string one fail at first draw;
    # no search polishes, so any polish is no field of a Uniform
    if field == "polish":
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            Uniform(4, **{field: value})
    else:
        with pytest.raises(ValueError, match=re.escape(f"{field!r} must be")):
            Uniform(4, **{field: value})
    assert Uniform(4, seed=np.int64(3)).seed == 3
    assert Uniform(4, seed=0).seed == 0


@pytest.mark.parametrize("midpoints", [False, True])
def test_product_grid_takes_an_integer_node_count(midpoints):
    for n in (2.5, True, "3"):
        with pytest.raises(ValueError, match=re.escape(
                f"'n' must be an integer, got {n!r}")):
            product_grid([[0.0, 1.0]], n, midpoints=midpoints)
    for n in (0, -2):
        with pytest.raises(ValueError,
                           match="grid needs at least one node per dimension"):
            product_grid([[0.0, 1.0]], n, midpoints=midpoints)
    grid = product_grid([[0.0, 1.0]], np.int64(4), midpoints=midpoints)
    assert (grid == product_grid([[0.0, 1.0]], 4, midpoints=midpoints)).all()
    assert grid.shape == (4, 1)


# ---------------------------------------------------------------------------
# argmax_variance


def test_grid_argmax_matches_exhaustive_scan(forrester_model):
    grid = np.linspace(0.0, 1.0, 1001)[:, None]
    v = forrester_model.predict(grid).variances[-1]
    expected = grid[int(np.argmax(v))]
    got = argmax_variance(forrester_model, UNIT1, Grid(1001))
    np.testing.assert_array_equal(got, expected)


def _single_level_model(design, y, theta=0.3):
    data = MultiFidelityData([np.asarray(design, float)],
                             [np.asarray(y, float)])
    configs = [LevelConfig(BasisSpec("constant", data.dimension),
                           KernelSpec("squared-exponential"))]
    params = [LevelParameters(lengthscales=[theta] * data.dimension,
                              sigma2=1.0, beta=[0.0])]
    return MultiFidelityModel.from_parameters(data, configs, params)


def test_symmetric_design_tie_breaks_to_smallest():
    model = _single_level_model([[0.25], [0.75]], [0.3, -0.1])
    got = argmax_variance(model, UNIT1, Grid(5))
    # Nodes are {0, .25, .5, .75, 1}; the boundary nodes tie by symmetry
    # and the tie must resolve to the smaller coordinate.
    v = model.predict(np.array([[0.0], [1.0]])).variances[-1]
    assert v[0] == v[1]
    assert got[0] == 0.0


def test_zero_variance_domain_returns_unique_probe():
    model = _single_level_model([[0.25]], [0.7])
    domain = Domain([[0.0, 0.5]])
    got = argmax_variance(model, domain, Grid(1))
    np.testing.assert_array_equal(got, [0.25])
    assert model.predict(got).variances[-1] <= 1e-12


def test_exclusion_drops_bitwise_matches(forrester_model):
    design = forrester_model.data.designs[0]
    got = argmax_variance(forrester_model, UNIT1, Grid(11),
                          exclude=np.linspace(0.0, 1.0, 11)[:, None])
    assert got is None
    # Excluding the design leaves grid nodes untouched (no exact overlap).
    kept = argmax_variance(forrester_model, UNIT1, Grid(11),
                           exclude=design)
    assert kept is not None


def test_exclusion_of_another_dimension_raises():
    problem = get_problem("ripple2d")
    designs = nested_lhs([12, 6], problem.bounds, seed=0)
    data = MultiFidelityData(designs, [problem.evaluate(t, x)
                                       for t, x in enumerate(designs, 1)])
    constant = BasisSpec("constant", 2)
    model = fit_multifidelity(data, [
        LevelConfig(constant, KernelSpec("squared-exponential")),
        LevelConfig(constant, KernelSpec("squared-exponential"),
                    scaling=constant)], restarts=1)
    domain = Domain(problem.bounds)
    for exclude in ([[0.25]], [[0.25, 0.0, 0.0]]):
        with pytest.raises(ValueError, match=re.escape(
                f"points have dimension {len(exclude[0])}, expected 2")):
            argmax_variance(model, domain, Grid(5), exclude=exclude)
    best = argmax_variance(model, domain, Grid(5))
    # an empty exclusion, of any shape, excludes nothing
    for exclude in ([], np.empty((0, 2))):
        np.testing.assert_array_equal(
            argmax_variance(model, domain, Grid(5), exclude=exclude),
            best)
    # a point of the right dimension is excluded
    assert (argmax_variance(model, domain, Grid(5), exclude=[best])
            != best).any()


def test_random_search_is_seeded(forrester_model):
    a = argmax_variance(forrester_model, UNIT1, Uniform(64, seed=5))
    b = argmax_variance(forrester_model, UNIT1, Uniform(64, seed=5))
    np.testing.assert_array_equal(a, b)
    # another seed draws other nodes, so it picks another point
    c = argmax_variance(forrester_model, UNIT1, Uniform(64, seed=6))
    assert (a != c).all()


def test_unknown_search_rejected(forrester_model):
    with pytest.raises(TypeError, match="search"):
        argmax_variance(forrester_model, UNIT1, search="grid")


@pytest.mark.parametrize("dimension, search, quadrature", [
    (1, Grid(1025), Grid(1024)),
    (2, Grid(101), Grid(48)),
    (3, Uniform(4096, seed=0), Uniform(4096, seed=0)),
], ids=["1d", "2d", "3d"])
def test_the_default_strategies_per_dimension(dimension, search, quadrature):
    design = np.random.default_rng(dimension).uniform(size=(6, dimension))
    model = _single_level_model(design, np.sin(3.0 * design.sum(axis=1)))
    domain = Domain([[0.0, 1.0]] * dimension)
    assert (argmax_variance(model, domain)
            == argmax_variance(model, domain, search)).all()
    assert compute_imse(model, domain) == compute_imse(model, domain,
                                                       quadrature)


# ---------------------------------------------------------------------------
# compute_imse


def _constant_variance_model(design, sigma2):
    """1-level model with lengthscale 1e-4: the correlation between points
    0.005 or more apart underflows to 0, so the variance is ``sigma2``
    away from the design and exactly 0 on it."""
    design = np.asarray(design, dtype=float)[:, None]
    basis = BasisSpec("constant", 1)
    return MultiFidelityModel.from_parameters(
        MultiFidelityData([design], [np.zeros(len(design))]),
        [LevelConfig(basis, KernelSpec("squared-exponential"))],
        [LevelParameters([1e-4], sigma2, [0.0])])


def test_imse_of_constant_variance_is_that_constant():
    model = _constant_variance_model([0.0, 0.5, 1.0], 0.37)
    assert compute_imse(model, UNIT1, Grid(100)) == pytest.approx(0.37)
    assert compute_imse(model, UNIT1,
                        Uniform(500, seed=1)) == pytest.approx(0.37)
    midpoints = (np.arange(10) + 0.5) / 10
    assert compute_imse(_constant_variance_model(midpoints, 0.37), UNIT1,
                        Grid(10)) == 0.0


def test_grid_and_monte_carlo_quadratures_agree(forrester_model):
    grid = compute_imse(forrester_model, UNIT1, Grid(4097))
    n = 100_000
    rng = np.random.default_rng(7)
    nodes = UNIT1.uniform_points(n, rng)
    sample = forrester_model.predict(nodes).variances[-1]
    mc = compute_imse(forrester_model, UNIT1, Uniform(n, seed=7))
    np.testing.assert_allclose(mc, np.mean(sample), rtol=1e-12)
    se = np.std(sample) / np.sqrt(n)
    assert abs(grid - mc) <= 3 * se


def test_monte_carlo_imse_deterministic_given_seed(forrester_model):
    a = compute_imse(forrester_model, UNIT1, Uniform(256, seed=9))
    b = compute_imse(forrester_model, UNIT1, Uniform(256, seed=9))
    assert a == b
    c = compute_imse(forrester_model, UNIT1, Uniform(256, seed=10))
    assert a != c


def test_weighted_sample_measure_is_its_own_quadrature(forrester_model):
    pts = np.array([[0.1], [0.4], [0.9]])
    w = np.array([0.5, 0.25, 0.25])
    domain = Domain([[0.0, 1.0]], WeightedSample(pts, w))
    got = compute_imse(forrester_model, domain)
    expected = forrester_model.predict(pts).variances[-1] @ w
    np.testing.assert_allclose(got, expected, rtol=1e-14)
    # Quadrature argument is irrelevant under a discrete measure.
    assert got == compute_imse(forrester_model, domain, Grid(3))


def test_imse_invariant_under_dimension_relabeling():
    pts = np.array([[0.2, 0.8], [0.8, 0.2], [0.5, 0.5], [0.1, 0.1]])
    y = np.array([1.0, 1.0, 0.3, -0.4])
    a = _single_level_model(pts, y)
    b = _single_level_model(pts[:, ::-1], y)
    domain = Domain([[0.0, 1.0], [0.0, 1.0]])
    ia = compute_imse(a, domain, Grid(40))
    ib = compute_imse(b, domain, Grid(40))
    np.testing.assert_allclose(ia, ib, rtol=1e-8)


# ---------------------------------------------------------------------------
# choose_level


class _StubDecision:
    """Fixed top-level variance and per-level contributions for rule
    arithmetic tests.

    ``hypotheticals[l - 1]`` is the top-level variance left after
    running levels 1..l: the contributions of the levels above l.
    """

    def __init__(self, total, hypotheticals):
        left = np.array([total, *hypotheticals])
        self.contributions = left[:-1] - left[1:]
        self.total = total
        self.level_count = len(hypotheticals)
        self.predict_calls = 0

    def predict(self, x):
        self.predict_calls += 1
        return SimpleNamespace(variances=np.array([np.nan, self.total]),
                               contributions=self.contributions)


def test_threshold_rule_two_level_inequality():
    x = np.array([0.5])
    # Cheap run already beats the average error: stop at level 1.
    assert choose_level(_StubDecision(1.0, [0.3, 0.0]), x, imse=0.5) == 1
    # Local error would stay above the average: run the expensive code.
    assert choose_level(_StubDecision(1.0, [0.8, 0.0]), x, imse=0.5) == 2


def test_threshold_rule_on_fitted_model(forrester_model):
    x = argmax_variance(forrester_model, UNIT1, Grid(257))
    h1 = forrester_model.hypothetical_variance_after(x, 1)[-1]
    assert choose_level(forrester_model, x, imse=h1 * 1.01) == 1
    assert choose_level(forrester_model, x, imse=h1 * 0.99) == 2


def test_threshold_rule_prefix_walk_three_levels():
    x = np.array([0.5])
    stub = _StubDecision(2.0, [1.5, 0.4, 0.0])
    assert choose_level(stub, x, imse=1.0) == 2
    assert choose_level(stub, x, imse=0.2) == 3
    assert choose_level(stub, x, imse=1.9) == 1
    assert stub.predict_calls == 3  # one lookahead prediction per choice


def test_cost_weighted_rule_arithmetic():
    x = np.array([0.5])
    stub = _StubDecision(1.0, [0.2, 0.0])
    cost = CostModel([1.0, 10.0])
    # Reduction per cost: level 1 gives 0.8/1, level 2 gives 1.0/11.
    assert choose_level(stub, x, imse=0.0, cost=cost, rule=COST_WEIGHTED) == 1
    cheap = CostModel([1.0, 1.2])
    # Ratios 0.8/1 vs 1.0/2.2: still level 1.
    assert choose_level(stub, x, imse=0.0, cost=cheap,
                        rule=COST_WEIGHTED) == 1
    # A cheap run that barely helps (0.1/1 vs 1.0/2.2) loses to level 2.
    resistant = _StubDecision(1.0, [0.9, 0.0])
    assert choose_level(resistant, x, imse=0.0, cost=cheap,
                        rule=COST_WEIGHTED) == 2


def test_choose_level_input_validation(forrester_model):
    x = np.array([0.5])
    with pytest.raises(ValueError, match="unknown rule"):
        choose_level(forrester_model, x, imse=0.1, rule="greedy")
    with pytest.raises(ValueError, match="cost"):
        choose_level(forrester_model, x, imse=0.1, rule=COST_WEIGHTED)
    with pytest.raises(ValueError, match="level count"):
        choose_level(forrester_model, x, imse=0.1,
                     cost=CostModel([1.0, 2.0, 3.0]), rule=COST_WEIGHTED)


@pytest.mark.parametrize("imse", [np.nan, np.inf, -1.0, "a", True, None])
def test_choose_level_names_a_bad_imse(imse):
    stub = _StubDecision(1.0, [0.3, 0.0])
    with pytest.raises(ValueError, match=re.escape(
            f"imse must be a non-negative finite number, got {imse!r}")):
        choose_level(stub, np.array([0.5]), imse=imse)
    assert stub.predict_calls == 0


def test_choose_level_checks_a_cost_model_under_every_rule(forrester_model):
    # the default rule reads no cost, but a cost model it is given must
    # still cover the model's levels
    with pytest.raises(ValueError,
                       match="cost model and model disagree on level count"):
        choose_level(forrester_model, np.array([0.5]), imse=0.1,
                      cost=CostModel([1.0, 2.0, 3.0]))


def test_variance_drop_matches_contribution_sum(forrester_model):
    x = np.array([0.314])
    out = forrester_model.predict(x)
    total = out.variances[-1]
    for level in (1, 2):
        h = forrester_model.hypothetical_variance_after(x, level)[-1]
        drop = out.contributions[:level, ...].sum()
        np.testing.assert_allclose(total - h, drop, rtol=1e-9, atol=1e-15)


# ---------------------------------------------------------------------------
# enrich


def test_enrich_full_depth_interpolates(forrester_model):
    x = np.array([0.33])
    sims = forrester_simulators()
    new = enrich(forrester_model, x, 2, values=forrester_values(x, 2))
    out = new.predict(x)
    cap = 1e-10 * max(level.sigma2 for level in new.levels)
    assert np.all(out.variances <= cap)
    values = [sims[0](x[None, :])[0], sims[1](x[None, :])[0]]
    np.testing.assert_allclose(out.means, values, rtol=0, atol=1e-7)


def test_enrich_level_one_matches_hypothetical(forrester_model):
    x = np.array([0.61])
    h = forrester_model.hypothetical_variance_after(x, 1)[-1]
    new = enrich(forrester_model, x, 1,
                 values=[forrester_simulators()[0](x[None, :])[0]])
    got = new.predict(x).variances[-1]
    np.testing.assert_allclose(got, h, rtol=1e-9, atol=1e-15)


def test_enrich_leaves_original_model_alone(forrester_model):
    x = np.array([0.47])
    n0 = len(forrester_model.data.designs[0])
    before = forrester_model.predict(np.array([[0.2], [0.8]])).variances
    enrich(forrester_model, x, 2, values=forrester_values(x, 2))
    after = forrester_model.predict(np.array([[0.2], [0.8]])).variances
    np.testing.assert_array_equal(before, after)
    assert len(forrester_model.data.designs[0]) == n0


def test_enrich_rejects_bad_inputs(forrester_model):
    x0 = forrester_model.data.designs[0][0]
    with pytest.raises(DuplicateDesignPointError):
        enrich(forrester_model, x0, 1, values=[0.0])
    x = np.array([0.52])
    with pytest.raises(ValueError, match="needs 2 values"):
        enrich(forrester_model, x, 2, values=[1.0])
    # values are required, and simulators are run only by run_loop
    with pytest.raises(TypeError):
        enrich(forrester_model, x, 1)
    with pytest.raises(TypeError):
        enrich(forrester_model, x, 1, values=[0.0],
               simulators=forrester_simulators())
    with pytest.raises(ValueError, match="level must be"):
        enrich(forrester_model, x, 3, values=[0.0] * 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_enrich_rejects_non_finite_values(forrester_model, bad):
    x = np.array([0.123])
    with pytest.raises(ValueError, match=r"level 2 .* at point \[0.123\]"):
        enrich(forrester_model, x, 2,
               values=forrester_values(x, 1) + [bad])
    with pytest.raises(ValueError, match=r"level 1 .* is not finite"):
        enrich(forrester_model, x, 1, values=[bad])


def test_enrich_with_reestimation_refits(forrester_model):
    x = np.array([0.18])
    new = enrich(forrester_model, x, 2, values=forrester_values(x, 2),
                 reestimate=True)
    out = new.predict(x)
    cap = 1e-10 * max(level.sigma2 for level in new.levels)
    assert np.all(out.variances <= cap)
    assert np.isfinite(new.levels[0].nll)  # a real fit happened


def test_a_frozen_enrich_keeps_each_level_nll(forrester_model):
    model = forrester_model
    for x, level in [(0.23, 2), (0.71, 1), (0.91, 2)]:
        x = np.array([x])
        model = enrich(model, x, level, values=forrester_values(x, level))
    for t, (lev, config) in enumerate(zip(model.levels, model.configs)):
        h = (basis_matrix(config.trend, lev.design) if t == 0 else
             extended_trend_matrix(config, lev.design, lev.lower_values))
        # the concentrated NLL of the level's data on its own grown factor
        own = reference_factored_nll_terms(lev.chol, h, lev.y)[0]
        assert lev.nll == pytest.approx(own, rel=1e-12)
        # a fresh factor differs from the grown one by round-off, about
        # cond(R + nugget) * eps (MultiFidelityModel.refit)
        fresh, _, _, lo, _ = reference_nll_terms(lev.design, h, lev.y,
                                                 lev.kernel)
        bound = np.linalg.cond(lo @ lo.T) * np.finfo(float).eps
        assert lev.nll == pytest.approx(fresh, rel=bound)
    # given coefficients hold no likelihood
    given = MultiFidelityModel.from_parameters(model.data, model.configs, [
        LevelParameters(lev.lengthscales, lev.sigma2, lev.beta, lev.rho_beta)
        for lev in model.levels])
    assert all(np.isnan(lev.nll) for lev in given.levels)


# ---------------------------------------------------------------------------
# trace serialization


def _sample_trace(complete=True):
    trace = EnrichmentTrace(dimension=2, levels=3, complete=complete)
    trace.entries.append(TraceEntry(1, np.array([0.1, 0.9]), 1, [2.5],
                                    0.8, 0.6, 1.0))
    trace.entries.append(TraceEntry(2, np.array([0.4, 0.2]), 3,
                                    [1.0, -0.5, 0.125], 0.6, 0.2, 8.0))
    return trace


def test_trace_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    trace = _sample_trace()
    write_trace(trace, path)
    loaded = read_trace(path)
    assert loaded.complete
    assert loaded.dimension == 2 and loaded.levels == 3
    assert len(loaded) == 2
    for a, b in zip(loaded.entries, trace.entries):
        assert a.iteration == b.iteration and a.level == b.level
        np.testing.assert_array_equal(a.x, b.x)
        assert a.values == b.values
        assert (a.imse_before, a.imse_after, a.cumulative_cost) == \
               (b.imse_before, b.imse_after, b.cumulative_cost)


def test_trace_incomplete_flag_survives(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(_sample_trace(complete=False), path)
    assert not read_trace(path).complete


def test_trace_parse_errors_name_line(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(_sample_trace(), path)
    lines = path.read_text().splitlines()

    bad = list(lines)
    bad[2] = bad[2] + ",0.5"
    path.write_text("\n".join(bad) + "\n")
    with pytest.raises(ParseError, match=r"trace\.csv:3"):
        read_trace(path)

    bad = list(lines)
    bad[0] = bad[0].replace("imse_before", "imse")
    path.write_text("\n".join(bad) + "\n")
    with pytest.raises(ParseError, match=r"trace\.csv:1"):
        read_trace(path)

    # Value count must match the declared level.
    bad = list(lines)
    cells = bad[1].split(",")
    cells[4] = ""  # drop the single level-1 value (column value_1)
    bad[1] = ",".join(cells)
    path.write_text("\n".join(bad) + "\n")
    with pytest.raises(ParseError, match=r"trace\.csv:2"):
        read_trace(path)

    # A level-l row fills value_1..value_l and leaves the deeper cells
    # empty: no level 0 without values, no value moved to a deeper cell.
    for level, values in (("0", ["", "", ""]), ("1", ["", "2.5", ""])):
        bad = list(lines)
        cells = bad[1].split(",")
        cells[3], cells[4:7] = level, values
        bad[1] = ",".join(cells)
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ParseError, match=r"trace\.csv:2"):
            read_trace(path)

    # Every number is finite: a coordinate, a value, an IMSE or a cost.
    for column, cell in ((1, "nan"), (4, "nan"), (7, "-inf"), (8, "inf"),
                         (9, "inf")):
        bad = list(lines)
        cells = bad[2].split(",")
        cells[column] = cell
        bad[2] = ",".join(cells)
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ParseError, match=r"trace\.csv:3: non-finite"):
            read_trace(path)


@pytest.mark.parametrize("column, cell", [
    (0, "2_0"),  # int() would read iteration 20
    (3, "\u0663"),  # an Arabic-Indic three, read as level 3
    (1, "0_4"),  # float() would read 4.0
    (5, "-0.\u0665"),  # read as -0.5
])
def test_trace_numbers_are_ascii_without_underscores(tmp_path, column, cell):
    path = tmp_path / "trace.csv"
    write_trace(_sample_trace(), path)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[column] = cell
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    kind = "int" if column in (0, 3) else "float"
    with pytest.raises(ParseError, match=re.escape(
            f"trace.csv:3: invalid {kind} {cell!r}")):
        read_trace(path)


# ---------------------------------------------------------------------------
# run_loop


def test_budget_below_cheapest_run_gives_empty_trace(forrester_model):
    cost = CostModel([1.0, 5.0])
    model, trace = run_loop(forrester_model, UNIT1, cost, budget=0.5,
                            simulators=forrester_simulators(),
                            search=Grid(65), quadrature=Grid(64))
    assert len(trace) == 0 and trace.complete
    assert model is forrester_model


@pytest.mark.parametrize("budget", [np.nan, np.inf, 0.0])
def test_loop_rejects_a_budget_that_is_not_positive_and_finite(
        forrester_model, budget):
    calls = []
    simulators = [lambda x, t=t: calls.append(t) or np.zeros(len(x))
                  for t in (1, 2)]
    with pytest.raises(ValueError, match="budget must be positive and finite"):
        run_loop(forrester_model, UNIT1, CostModel([1.0, 5.0]), budget=budget,
                 simulators=simulators, search=Grid(17),
                 quadrature=Grid(64))
    assert calls == []


def test_loop_rejects_an_unknown_rule_before_any_imse(monkeypatch,
                                                     forrester_model):
    def never_called(*args, **kwargs):
        raise AssertionError("IMSE computed")

    monkeypatch.setattr(sequential, "compute_imse", never_called)
    with pytest.raises(ValueError, match="unknown rule 'greedy'"):
        run_loop(forrester_model, UNIT1, CostModel([1.0, 5.0]), budget=10.0,
                 simulators=forrester_simulators(), rule="greedy",
                 search=Grid(17), quadrature=Grid(64))


def test_loop_reduces_imse_within_budget(forrester_model):
    cost = CostModel([1.0, 5.0])
    model, trace = run_loop(forrester_model, UNIT1, cost, budget=20.0,
                            simulators=forrester_simulators(),
                            search=Grid(257),
                            quadrature=Grid(256))
    assert len(trace) >= 1
    assert trace.complete
    costs = [e.cumulative_cost for e in trace.entries]
    assert costs[-1] <= 20.0
    assert all(a < b for a, b in zip(costs, costs[1:]))
    assert all(len(e.values) == e.level for e in trace.entries)
    assert trace.entries[-1].imse_after < trace.entries[0].imse_before
    # Chained bookkeeping: each iteration starts where the last ended.
    for a, b in zip(trace.entries, trace.entries[1:]):
        assert b.imse_before == a.imse_after
    assert len(model.data.designs[0]) > len(forrester_model.data.designs[0])


def test_frozen_loop_is_deterministic(forrester_model):
    cost = CostModel([1.0, 5.0])
    kwargs = dict(simulators=forrester_simulators(), search=Grid(129),
                  quadrature=Grid(128), budget=12.0)
    _, t1 = run_loop(forrester_model, UNIT1, cost, **kwargs)
    _, t2 = run_loop(forrester_model, UNIT1, cost, **kwargs)
    assert len(t1) == len(t2) > 0
    for a, b in zip(t1.entries, t2.entries):
        np.testing.assert_array_equal(a.x, b.x)
        assert a.level == b.level
        assert a.values == b.values
        assert a.imse_after == b.imse_after


def test_a_reloaded_loop_model_predicts_the_in_loop_model_to_round_off(
        forrester_model, tmp_path):
    # the loop's frozen refits grow each factor by appended rows;
    # load_model factors afresh, which differs from the grown factor in
    # the last bits (cond(R) * eps at worst), so the two models agree to
    # round-off but not bit for bit
    final, trace = run_loop(forrester_model, UNIT1, CostModel([1.0, 5.0]),
                            30.0, forrester_simulators())
    assert len(trace) > 3
    assert all(len(new.design) > len(old.design) for old, new
               in zip(forrester_model.levels, final.levels))
    save_model(final, tmp_path)
    reloaded = load_model(tmp_path)
    probes = np.linspace(0.0, 1.0, 257)[:, None]
    a, b = final.predict(probes), reloaded.predict(probes)
    y_scale = max(np.max(np.abs(z)) for z in final.data.observations)
    var_scale = max(lev.sigma2 for lev in final.levels)
    assert np.max(np.abs(a.means - b.means)) <= 1e-8 * y_scale
    assert np.max(np.abs(a.variances - b.variances)) <= 1e-8 * var_scale


def test_simulator_failure_flags_partial_trace(forrester_model):
    cost = CostModel([1.0, 5.0])
    calls = {"n": 0}
    problem = get_problem("forrester")

    def flaky_low(x):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise RuntimeError("solver diverged")
        return problem.evaluate(1, x)

    sims = [flaky_low, lambda x: problem.evaluate(2, x)]
    _, trace = run_loop(forrester_model, UNIT1, cost, budget=50.0,
                        simulators=sims, search=Grid(129),
                        quadrature=Grid(128))
    assert not trace.complete
    assert len(trace) == 2
    assert trace.failure == "level 1 simulator failed: solver diverged"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_simulator_output_flags_partial_trace(forrester_model, bad):
    cost = CostModel([1.0, 5.0])
    calls = {"n": 0}
    problem = get_problem("forrester")

    def broken_low(x):
        calls["n"] += 1
        return np.full(len(x), bad) if calls["n"] >= 3 else problem.evaluate(1, x)

    sims = [broken_low, lambda x: problem.evaluate(2, x)]
    model, trace = run_loop(forrester_model, UNIT1, cost, budget=50.0,
                            simulators=sims, search=Grid(129),
                            quadrature=Grid(128))
    assert not trace.complete
    assert len(trace) == 2
    assert all(np.all(np.isfinite(z)) for z in model.data.observations)


@pytest.mark.parametrize("result, size", [
    (np.array([1.0, 2.0]), 2), (np.array([]), 0), (np.ones((1, 3)), 3)])
def test_a_simulator_result_not_of_one_value_flags_partial_trace(
        forrester_model, result, size):
    calls = {"n": 0}
    problem = get_problem("forrester")

    def wide_low(x):
        calls["n"] += 1
        return result if calls["n"] >= 3 else problem.evaluate(1, x)

    sims = [wide_low, lambda x: problem.evaluate(2, x)]
    model, trace = run_loop(forrester_model, UNIT1, CostModel([1.0, 5.0]),
                            budget=50.0, simulators=sims, search=Grid(129),
                            quadrature=Grid(128))
    assert not trace.complete
    assert len(trace) == 2
    assert trace.failure == \
        f"level 1 simulator failed: {size} values for one point"
    assert len(model.data.designs[0]) == \
        len(forrester_model.data.designs[0]) + 2


def test_a_non_finite_top_level_value_names_its_level(forrester_model):
    problem = get_problem("forrester")
    sims = [lambda x: problem.evaluate(1, x), lambda x: np.full(len(x), np.nan)]
    model, trace = run_loop(forrester_model, UNIT1, CostModel([1.0, 5.0]),
                            budget=50.0, simulators=sims,
                            search=Grid(129),
                            quadrature=Grid(128))
    assert not trace.complete
    assert trace.failure == "level 2 simulator failed: non-finite value nan"
    # the failing run joins no level; the runs before it are all level 1
    assert all(e.level == 1 for e in trace.entries)
    assert len(model.data.designs[1]) == len(forrester_model.data.designs[1])


def test_loop_with_periodic_reestimation(forrester_model):
    cost = CostModel([1.0, 5.0])
    model, trace = run_loop(forrester_model, UNIT1, cost, budget=8.0,
                            simulators=forrester_simulators(),
                            search=Grid(65),
                            quadrature=Grid(64), refit="every-2")
    assert trace.complete and len(trace) >= 1
    with pytest.raises(ValueError, match="refit"):
        run_loop(forrester_model, UNIT1, cost, budget=3.0,
                 simulators=forrester_simulators(), refit="sometimes")


@pytest.mark.parametrize("refit, message", [
    ("every-abc", "unknown refit mode 'every-abc'"),
    ("every-", "unknown refit mode 'every-'"),
    ("every-1.5", r"unknown refit mode 'every-1\.5'"),
    ("every-0", "refit period must be a positive integer"),
    # k is ASCII digits only, not whatever int() reads as an integer
    ("every-1_0", "unknown refit mode 'every-1_0'"),
    ("every- 2", "unknown refit mode 'every- 2'"),
    ("every-+3", r"unknown refit mode 'every-\+3'"),
    ("every-\u0663", "unknown refit mode 'every-\u0663'"),
])
def test_loop_names_a_malformed_refit_period_before_any_run(forrester_model,
                                                           refit, message):
    def never_called(x):
        raise AssertionError("simulator ran")

    with pytest.raises(ValueError, match=message):
        run_loop(forrester_model, UNIT1, CostModel([1.0, 5.0]), budget=8.0,
                 simulators=[never_called] * 2, refit=refit)


def test_loop_input_validation(forrester_model):
    with pytest.raises(ValueError, match="level count"):
        run_loop(forrester_model, UNIT1, CostModel([1.0, 2.0, 3.0]),
                 budget=5.0, simulators=forrester_simulators())
    with pytest.raises(ValueError, match="one simulator"):
        run_loop(forrester_model, UNIT1, CostModel([1.0, 5.0]), budget=5.0,
                 simulators=[lambda x: x[:, 0]])
