"""A reestimating ``enrich`` fits with the model's own bounds, restarts
and seed, searches again only the levels whose search inputs changed
since the model's own searches, and gives bit for bit the model a fresh
``fit_multifidelity`` of the grown data with those settings gives.

Running levels 1..l at a new point leaves the design, responses and
regression matrix of every level above l unchanged, and with an integer
seed each level draws the same starts, so those searches would land
where they did. Any other difference (seed, restarts, bounds, an
unseeded generator) searches every level again, and a loaded model keeps
no searches.
"""

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfkrig.cokriging as cokriging
import mfkrig.kernels as kernels
import mfkrig.kriging as kriging
import mfkrig.sequential as sequential
from mfkrig.cokriging import (
    LevelConfig,
    LevelParameters,
    MultiFidelityData,
    MultiFidelityModel,
    fit_multifidelity,
)
from mfkrig.kernels import BasisSpec, KernelSpec
from mfkrig.sequential import (
    CostModel,
    Domain,
    Grid,
    enrich,
    run_loop,
)
from mfkrig.testbed import get_problem, load_model, nested_lhs, save_model

from helpers import draw_ar1_data, draw_nested_designs

SE = "squared-exponential"
M52 = "matern-5/2"


def _bits(value):
    """A comparable form of one field that tells apart any two values
    that differ in a bit, shape or memory order."""
    if isinstance(value, KernelSpec):
        return value.family, _bits(value.lengthscales)
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype.str, value.flags.f_contiguous,
                value.tobytes())
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


def _fields(model):
    """Every field of every level of ``model``."""
    return [(f.name, _bits(getattr(lev, f.name)))
            for lev in model.levels for f in dataclasses.fields(lev)]


def _configs(levels, d, family=SE):
    return [LevelConfig(BasisSpec("constant", d), KernelSpec(family),
                        scaling=None if t == 0 else BasisSpec("constant", d))
            for t in range(levels)]


@st.composite
def _enrichments(draw):
    """(data, configs, x, level, values, settings): 2-3 nested levels
    drawn from the autoregressive chain, one new point run through a
    drawn level, and drawn (bounds, restarts, seed) of the fit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = draw(st.integers(2, 3))
    d = draw(st.sampled_from([1, 2]))
    sizes = [draw(st.integers(7, 10)), draw(st.integers(4, 6)), 3][:s]
    designs = draw_nested_designs(rng, sizes, d)
    kernels = [KernelSpec(SE, np.full(d, 0.4))] * s
    observations = draw_ar1_data(rng, designs, [1.5] * (s - 1), kernels,
                                 [1.0] * s)
    level = draw(st.integers(1, s))
    return (MultiFidelityData(designs, observations),
            _configs(s, d, draw(st.sampled_from([SE, M52]))),
            rng.uniform(size=d), level, rng.normal(size=level),
            (draw(st.sampled_from([None, (0.05, 2.0)])),
             draw(st.integers(1, 4)), draw(st.integers(0, 3))))


@settings(max_examples=12, deadline=None)
@given(_enrichments())
def test_reestimating_enrich_equals_a_fresh_fit(case):
    data, configs, x, level, values, fit_settings = case
    model = fit_multifidelity(data, configs, *fit_settings)
    grown = enrich(model, x, level, values, reestimate=True)
    fresh = fit_multifidelity(data.with_point(x, values), configs,
                              *fit_settings)
    assert _fields(grown) == _fields(fresh)
    assert grown._searches.keys() == fresh._searches.keys()
    assert grown._fit_settings == fresh._fit_settings == fit_settings


@pytest.fixture(scope="module")
def chain3():
    """(data, configs, x, values) of chain3 on [12, 8, 4] and a new point
    with its responses at all three levels."""
    problem = get_problem("chain3")
    designs = nested_lhs([12, 8, 4], problem.bounds, seed=3)
    data = MultiFidelityData(designs, [problem.evaluate(t + 1, x)
                                       for t, x in enumerate(designs)])
    x = np.array([0.4321])
    values = [float(problem.evaluate(t + 1, x[None, :])[0]) for t in range(3)]
    return data, _configs(3, 1, M52), x, values


@pytest.fixture()
def searched(monkeypatch):
    """The list of design sizes that reach ``_ml_fit``, in call order."""
    sizes = []
    original = cokriging._ml_fit

    def spy(lik, *args):
        sizes.append(len(lik.y))
        return original(lik, *args)

    monkeypatch.setattr(cokriging, "_ml_fit", spy)
    return sizes


def _spy_solves(monkeypatch):
    """(design sizes of every ``_factor_in_place`` call, (design size,
    fresh) of every ``_solve_level`` call), each in call order. The solve
    is spied on where ``kriging`` and ``cokriging`` both call it."""
    factors, solves = [], []
    factor_in_place, solve_level = kriging._factor_in_place, kriging._solve_level

    def solve_spy(lik, theta, coef=None, grown_from=None):
        solves.append((len(lik.y), grown_from is None))
        return solve_level(lik, theta, coef, grown_from)

    monkeypatch.setattr(kriging, "_factor_in_place", lambda a: (
        factors.append(len(a)), factor_in_place(a))[1])
    for module in (kriging, cokriging):
        monkeypatch.setattr(module, "_solve_level", solve_spy)
    return factors, solves


def test_a_fit_factors_once_per_likelihood_evaluation(chain3, monkeypatch):
    # a searched level is the search's solve at its best point
    data, configs, _, _ = chain3
    factors, solves = _spy_solves(monkeypatch)
    fit_multifidelity(data, configs, seed=0)
    assert sorted({n for n, _ in solves}) == [4, 8, 12]
    assert factors == [n for n, fresh in solves if fresh] == \
        [n for n, _ in solves]


def _reversed_first_level(data):
    """``data`` with the rows of level 1 in reverse order: its design no
    longer extends the one it was fitted on, and no level above moves."""
    return MultiFidelityData(
        [data.designs[0][::-1], *data.designs[1:]],
        [data.observations[0][::-1], *data.observations[1:]])


# (design size, fresh) of every _solve_level call each path makes
_PATH_SOLVES = {
    "frozen-refit-grown": [(13, False), (8, False), (4, False)],
    "frozen-refit-fresh": [(12, True), (8, False), (4, False)],
    "from-parameters": [(12, True), (8, True), (4, True)],
    "load-model": [(12, True), (8, True), (4, True)],
    "concentrated-nll": [(12, True)],
}


@pytest.mark.parametrize("path", _PATH_SOLVES)
def test_every_path_solves_a_level_through_one_function(chain3, monkeypatch,
                                                        tmp_path, path):
    # one _solve_level call per level, and a fresh factorization for
    # exactly the calls with no factor to grow
    data, configs, x, values = chain3
    model = fit_multifidelity(data, configs, seed=0)
    save_model(model, tmp_path)
    factors, solves = _spy_solves(monkeypatch)
    if path == "frozen-refit-grown":
        enrich(model, x, 1, values[:1])
    elif path == "frozen-refit-fresh":
        model.refit(_reversed_first_level(data))
    elif path == "from-parameters":
        _from_parameters(model)
    elif path == "load-model":
        load_model(tmp_path)
    else:
        lev = model.levels[0]
        kriging.concentrated_nll(kriging.KrigingProblem(
            lev.design, lev.y, lev.trend, lev.kernel), lev.lengthscales)
    assert solves == _PATH_SOLVES[path]
    assert factors == [n for n, fresh in solves if fresh]


def test_every_search_evaluation_is_one_fresh_solve(chain3, monkeypatch,
                                                    caplog):
    # the DEBUG record of each search counts its evaluations
    data, configs, _, _ = chain3
    factors, solves = _spy_solves(monkeypatch)
    caplog.set_level(logging.DEBUG, logger="mfkrig.kriging")
    fit_multifidelity(data, configs, seed=0)
    evaluations = [r.args[1] for r in caplog.records
                   if r.name == "mfkrig.kriging"]
    assert [solves.count((n, True)) for n in (12, 8, 4)] == evaluations
    assert len(solves) == sum(evaluations)
    assert factors == [n for n, _ in solves]


@pytest.mark.parametrize("family", [SE, M52])
def test_a_likelihood_evaluation_builds_one_distance_matrix(chain3,
                                                           monkeypatch,
                                                           family):
    # R and the weight of its gradient come from one kernel evaluation;
    # kernels._cdist caches scipy's cdist, so the count is taken there
    data, _, _, _ = chain3
    cdist, calls, per_evaluation = kernels._cdist(), [], []
    monkeypatch.setattr(kernels, "_cdist", lambda: lambda *args: (
        calls.append(1), cdist(*args))[1])
    solve_level = kriging._solve_level

    def spy(lik, theta):
        before = len(calls)
        try:
            return solve_level(lik, theta)
        finally:
            per_evaluation.append(len(calls) - before)

    monkeypatch.setattr(kriging, "_solve_level", spy)
    fit_multifidelity(data, _configs(3, 1, family), seed=0)
    assert len(per_evaluation) > 3
    assert per_evaluation == [1] * len(per_evaluation)
    assert len(calls) == len(per_evaluation)


def test_a_level_kept_by_its_search_key_is_not_solved_again(chain3,
                                                          monkeypatch):
    data, configs, x, values = chain3
    model = fit_multifidelity(data, configs, seed=0)
    factors, _ = _spy_solves(monkeypatch)
    grown = enrich(model, x, 1, values[:1], reestimate=True)
    assert grown.levels[0] is not model.levels[0]
    assert all(new is old for new, old in zip(grown.levels[1:],
                                              model.levels[1:]))
    # only level 1, grown to 13 points, is factored
    assert factors and set(factors) == {13}


def test_squared_differences_are_built_once_per_search(chain3, searched,
                                                      monkeypatch, tmp_path):
    # the gradient's design input belongs to the search: no solve
    # outside one builds it
    data, configs, x, values = chain3
    built = []
    squared_differences = kriging._squared_differences
    monkeypatch.setattr(kriging, "_squared_differences", lambda design: (
        built.append(len(design)), squared_differences(design))[1])
    model = fit_multifidelity(data, configs, seed=0)
    assert built == searched == [12, 8, 4]
    built.clear()
    searched.clear()
    enrich(model, x, 1, values[:1])  # a frozen refit
    _from_parameters(model)
    _reloaded(model, tmp_path)
    cokriging._fit_levels(data, configs, model._searches, seed=0)
    assert built == searched == []


@pytest.mark.parametrize("level", [1, 2, 3])
def test_only_the_levels_run_are_searched_again(chain3, searched, level):
    data, configs, x, values = chain3
    model = fit_multifidelity(data, configs, seed=0)
    searched.clear()
    grown = enrich(model, x, level, values[:level], reestimate=True)
    assert searched == [13, 9, 5][:level]
    fresh = fit_multifidelity(grown.data, configs, seed=0)
    assert _fields(grown) == _fields(fresh)


def test_searches_carry_over_enrich_and_frozen_refit(chain3, searched):
    data, configs, x, values = chain3
    model = fit_multifidelity(data, configs, seed=0)
    # a reestimating enrich keeps its searches, levels 2 and 3 reused ones
    model = enrich(model, x, 1, values[:1], reestimate=True)
    # a frozen refit carries them forward
    model = enrich(model, [0.8765], 1, [0.1])
    searched.clear()
    model = enrich(model, [0.1234], 1, [0.2], reestimate=True)
    assert searched == [15]
    assert _fields(model) == _fields(
        fit_multifidelity(model.data, configs, seed=0))


def test_a_frozen_refit_carries_the_fit_settings(chain3, searched):
    data, configs, x, values = chain3
    model = fit_multifidelity(data, configs, restarts=3, seed=0)
    model = enrich(model, x, 1, values[:1])
    assert model._fit_settings == (None, 3, 0)
    searched.clear()
    model = enrich(model, [0.1234], 1, [0.2], reestimate=True)
    assert searched == [14]
    assert _fields(model) == _fields(
        fit_multifidelity(model.data, configs, restarts=3, seed=0))


def _from_parameters(model):
    return MultiFidelityModel.from_parameters(
        model.data, model.configs,
        [LevelParameters(lev.lengthscales, lev.sigma2, lev.beta, lev.rho_beta)
         for lev in model.levels])


def _reloaded(model, directory):
    save_model(model, directory)
    return load_model(directory)


def _refitted(**other):
    """A reestimate of the grown data with ``other`` fit settings than
    the model's, given the model's searches."""
    def refit(model, x, values):
        grown = model.data.with_point(x, values)
        cokriging._fit_levels(grown, model.configs, model._searches, **other)
    return refit


def _enriched(model, x, values):
    enrich(model, x, 1, values, reestimate=True)


@pytest.mark.parametrize("fit_args, rebuild, reestimate", [
    (dict(seed=0), None, _refitted(seed=1)),
    (dict(seed=0), None, _refitted(restarts=3)),
    (dict(seed=0), None, _refitted(bounds=(1e-3, 5.0))),
    (dict(seed=None), None, _enriched),
    (dict(seed=0), lambda model, _: _from_parameters(model), _enriched),
    (dict(seed=0), _reloaded, _enriched),
], ids=["other-seed", "other-restarts", "other-bounds", "unseeded",
        "from-parameters", "loaded"])
def test_no_reuse_without_the_same_search_inputs(chain3, searched, tmp_path,
                                                  fit_args, rebuild,
                                                  reestimate):
    data, configs, x, values = chain3
    model = fit_multifidelity(data, configs, **fit_args)
    if rebuild is not None:
        model = rebuild(model, tmp_path)
    searched.clear()
    reestimate(model, x, values[:1])
    assert searched == [13, 8, 4]


@pytest.mark.parametrize("restarts, searches", [(3, []), (4, [12, 8, 4])])
def test_the_search_key_holds_restarts(chain3, searched, restarts, searches):
    # through enrich, other restarts also move the generator state that
    # every level above the first sees; refitting the same data isolates
    # the first level's key
    data, configs, _, _ = chain3
    model = fit_multifidelity(data, configs, restarts=3, seed=0)
    searched.clear()
    cokriging._fit_levels(data, configs, model._searches, restarts=restarts,
                          seed=0)
    assert searched == searches


def test_separate_fits_share_no_searches(chain3, searched):
    data, configs, _, _ = chain3
    fit_multifidelity(data, configs, restarts=2, seed=0)
    fit_multifidelity(data, configs, restarts=2, seed=0)
    assert searched == [12, 8, 4] * 2


def _trace_bits(trace):
    return [(e.iteration, e.x.tobytes(), e.level, e.values, e.imse_before,
             e.imse_after, e.cumulative_cost) for e in trace.entries]


@pytest.mark.parametrize("name, sizes, family, loop", [
    ("forrester", [10, 5], SE, dict(budget=14.0)),
    ("chain3", [12, 8, 4], M52, dict(budget=12.0, rule="cost-weighted")),
])
@pytest.mark.parametrize("refit", ["always", "every-2"])
def test_loop_equals_a_loop_without_stored_searches(monkeypatch, searched,
                                                    name, sizes, family, loop,
                                                    refit):
    problem = get_problem(name)
    designs = nested_lhs(sizes, problem.bounds, seed=1)
    data = MultiFidelityData(designs, [problem.evaluate(t + 1, x)
                                       for t, x in enumerate(designs)])
    configs = _configs(len(sizes), problem.dimension, family)
    model = fit_multifidelity(data, configs, seed=0)
    simulators = [lambda x, t=t: problem.evaluate(t + 1, x)
                  for t in range(len(sizes))]

    def run():
        searched.clear()
        final, trace = run_loop(
            model, Domain(problem.bounds), CostModel(problem.costs),
            simulators=simulators, search=Grid(65),
            quadrature=Grid(64), refit=refit, **loop)
        return final, trace, len(searched)

    final, trace, reusing = run()
    original = sequential.enrich

    def forgetful(model, *args, **kwargs):
        model._searches = {}
        return original(model, *args, **kwargs)

    monkeypatch.setattr(sequential, "enrich", forgetful)
    forgot_final, forgot_trace, forgetting = run()
    assert len(trace) >= 4
    assert _trace_bits(trace) == _trace_bits(forgot_trace)
    assert _fields(final) == _fields(forgot_final)
    assert reusing < forgetting
