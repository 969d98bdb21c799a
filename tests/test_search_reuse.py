"""A reestimating ``enrich`` starts from the model it is given and draws
nothing: it keeps, with no search and no solve, each level its last
search built whose design, responses and lower-level values are
unchanged, and searches every other level by ``kriging._ml_fit`` from
two starts, its current log-lengthscales and the box midpoint, in the
box of the bounds the model was fitted with.

Running levels 1..l at a new point leaves every level above l as its
last search built it, unless a frozen refit grew it since. A level with
given coefficients (``from_parameters``, a loaded model) was built by no
search and is searched from its given lengthscales.
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

from helpers import draw_ar1_data, draw_nested_designs, reference_reestimate

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
    """(data, configs, frozen, x, level, values, bounds, restarts, seed):
    2-3 nested levels drawn from the autoregressive chain, an optional
    frozen enrichment (point, level, values) before the reestimate, one
    new point run through a drawn level, and drawn fit settings."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = draw(st.integers(2, 3))
    d = draw(st.sampled_from([1, 2]))
    sizes = [draw(st.integers(7, 10)), draw(st.integers(4, 6)), 3][:s]
    designs = draw_nested_designs(rng, sizes, d)
    kernels = [KernelSpec(SE, np.full(d, 0.4))] * s
    observations = draw_ar1_data(rng, designs, [1.5] * (s - 1), kernels,
                                 [1.0] * s)
    frozen_level = draw(st.integers(0, s))
    frozen = (None if frozen_level == 0 else
              (rng.uniform(size=d), frozen_level, rng.normal(size=frozen_level)))
    level = draw(st.integers(1, s))
    return (MultiFidelityData(designs, observations),
            _configs(s, d, draw(st.sampled_from([SE, M52]))), frozen,
            rng.uniform(size=d), level, rng.normal(size=level),
            draw(st.sampled_from([None, (0.05, 2.0)])),
            draw(st.integers(1, 4)), draw(st.sampled_from([0, 3, None])))


@settings(max_examples=12, deadline=None)
@given(_enrichments(), st.booleans())
def test_a_reestimate_equals_ml_fit_from_two_starts(case, given_parameters):
    # a frozen enrichment before the reestimate grows the levels it runs,
    # which are then searched although their coefficients were estimated;
    # a model from given parameters has every level searched
    data, configs, frozen, x, level, values, bounds, restarts, seed = case
    fitted = fit_multifidelity(data, configs, bounds, restarts, seed)
    model = fitted if frozen is None else enrich(fitted, *frozen)
    if given_parameters:
        model = _from_parameters(model)
    grown = enrich(model, x, level, values, reestimate=True)
    want, searched = reference_reestimate(
        model, model.data.with_point(x, values), fitted.levels)
    assert _fields(grown) == _fields(want)
    ran = (len(configs) if given_parameters
           else max(level, 0 if frozen is None else frozen[1]))
    assert [new is old for new, old in zip(grown.levels, model.levels)] == \
        [t > ran for t in range(1, len(configs) + 1)]
    assert len(searched) == ran
    assert all(lev.searched for lev in grown.levels)
    assert grown._bounds == model._bounds == (
        None if given_parameters else bounds)
    # nothing is drawn, so the same reestimate gives the same model
    again = enrich(model, x, level, values, reestimate=True)
    assert _fields(again) == _fields(grown)


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


# (design size, fresh) of every _solve_level call each path makes; a
# frozen refit solves only the levels whose likelihood inputs changed
_PATH_SOLVES = {
    "frozen-refit-grown": [(13, False)],
    "frozen-refit-fresh": [(12, True)],
    "from-parameters": [(12, True), (8, True), (4, True)],
    "load-model": [(12, True), (8, True), (4, True)],
    "concentrated-nll": [(12, True)],
}


@pytest.mark.parametrize("path", _PATH_SOLVES)
def test_every_path_solves_a_level_through_one_function(chain3, monkeypatch,
                                                        tmp_path, path):
    # one _solve_level call per solved level, and a fresh factorization
    # for exactly the calls with no factor to grow
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
    # levels 2 and 3 are as their search built them, on the same inputs
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
    cokriging._reestimate(model, data)  # every level is kept
    assert built == searched == []


@pytest.mark.parametrize("level", [1, 2, 3])
def test_only_the_levels_run_are_searched_again(chain3, searched, level):
    data, configs, x, values = chain3
    model = fit_multifidelity(data, configs, seed=0)
    searched.clear()
    grown = enrich(model, x, level, values[:level], reestimate=True)
    assert searched == [13, 9, 5][:level]
    want, _ = reference_reestimate(model, grown.data, model.levels)
    assert _fields(grown) == _fields(want)


def test_searches_carry_over_enrich_and_frozen_refit(chain3, searched):
    data, configs, x, values = chain3
    model = fit_multifidelity(data, configs, seed=0)
    # a reestimating enrich searches level 1 and keeps levels 2 and 3
    model = enrich(model, x, 1, values[:1], reestimate=True)
    record = list(model.levels)
    # a frozen refit keeps them, and grows level 1 by a row
    model = enrich(model, [0.8765], 1, [0.1])
    assert model.levels[1:] == record[1:] and not model.levels[0].searched
    searched.clear()
    grown = enrich(model, [0.1234], 1, [0.2], reestimate=True)
    assert searched == [15]
    want, _ = reference_reestimate(model, grown.data, record)
    assert _fields(grown) == _fields(want)


def test_a_frozen_refit_carries_the_fit_settings(chain3, searched):
    # the reestimate searches in the box of the fit's bounds
    data, configs, x, values = chain3
    fitted = fit_multifidelity(data, configs, bounds=(0.05, 2.0), seed=0)
    model = enrich(fitted, x, 1, values[:1])
    assert model._bounds == (0.05, 2.0)
    searched.clear()
    grown = enrich(model, [0.1234], 1, [0.2], reestimate=True)
    assert searched == [14]
    want, _ = reference_reestimate(model, grown.data, fitted.levels)
    assert _fields(grown) == _fields(want)
    assert grown._bounds == (0.05, 2.0)


def _from_parameters(model):
    return MultiFidelityModel.from_parameters(
        model.data, model.configs,
        [LevelParameters(lev.lengthscales, lev.sigma2, lev.beta, lev.rho_beta)
         for lev in model.levels])


def _reloaded(model, directory):
    save_model(model, directory)
    return load_model(directory)


def _frozen_grown(model, _):
    """``model`` after a frozen run through level 2 at a new point: levels
    1 and 2 grow by a row, with estimated coefficients, and no search."""
    return enrich(model, [0.8765], 2, [0.1, 0.2])


@pytest.fixture()
def starts(monkeypatch):
    """(design size, starts) of every ``_ml_fit`` call, in call order."""
    calls = []
    original = cokriging._ml_fit

    def spy(lik, box, level_starts):
        calls.append((len(lik.y), level_starts))
        return original(lik, box, level_starts)

    monkeypatch.setattr(cokriging, "_ml_fit", spy)
    return calls


@pytest.mark.parametrize("rebuild, sizes", [
    (lambda model, _: _from_parameters(model), [13, 8, 4]),
    (_reloaded, [13, 8, 4]),
    (_frozen_grown, [14, 9]),
], ids=["from-parameters", "loaded", "frozen-grown"])
def test_no_reuse_without_the_same_search_inputs(chain3, starts, tmp_path,
                                                  rebuild, sizes):
    # a level no search built is searched from the lengthscales it
    # holds, then the box midpoint
    data, configs, x, values = chain3
    model = rebuild(fit_multifidelity(data, configs, seed=0), tmp_path)
    starts.clear()
    grown = enrich(model, x, 1, values[:1], reestimate=True)
    assert [n for n, _ in starts] == sizes
    for (n, level_starts), lev, new in zip(starts, model.levels, grown.levels):
        log_lo, log_hi = kriging._search_box(new.design, None)
        assert _bits(level_starts[0]) == _bits(np.log(lev.lengthscales))
        assert _bits(level_starts[1]) == _bits(0.5 * (log_lo + log_hi))
        assert len(level_starts) == 2 and new.searched


@pytest.mark.parametrize("seed", [0, None, "generator"],
                         ids=["seeded", "unseeded", "generator"])
def test_a_reestimate_draws_nothing(chain3, monkeypatch, seed):
    # a fit's seed and restarts apply to the fit alone: an unseeded model,
    # or one whose generator is shared, reestimates the same way each time
    data, configs, x, values = chain3
    rng = np.random.default_rng(7) if seed == "generator" else seed
    model = fit_multifidelity(data, configs, restarts=3, seed=rng)
    state = rng.bit_generator.state if seed == "generator" else None

    def no_draws(*args):
        raise AssertionError("a reestimate drew starts")

    monkeypatch.setattr(cokriging, "_draw_starts", no_draws)
    first, second = (enrich(model, x, 2, values[:2], reestimate=True)
                     for _ in range(2))
    assert _fields(first) == _fields(second)
    if state is not None:
        assert rng.bit_generator.state == state


def test_a_reestimate_logs_each_level(chain3, caplog):
    data, configs, x, values = chain3
    model = fit_multifidelity(data, configs, seed=0)
    caplog.set_level(logging.DEBUG, logger="mfkrig.cokriging")
    grown = enrich(model, x, 1, values[:1], reestimate=True)
    records = [r for r in caplog.records if r.name == "mfkrig.cokriging"]
    assert [r.args[0] for r in records] == [1, 2, 3]
    assert [r.getMessage() for r in records[1:]] == ["level 2 kept",
                                                     "level 3 kept"]
    first = records[0]
    assert first.getMessage().startswith(
        "level 1 searched from the previous optimum")
    lik = cokriging._level_inputs(configs[0], grown.data, 1)[0]
    box = kriging._search_box(lik.design, None)
    start = np.exp(np.clip(np.log(model.levels[0].lengthscales), *box))
    assert first.args[1] == kriging._solve_level(lik, start)[0]
    assert first.args[2] == grown.levels[0].nll <= first.args[1]


def test_a_reestimate_checks_every_level_before_any_search(chain3, searched):
    # level 3 keeps two of its points, too few for its two coefficients
    data, configs, _, _ = chain3
    model = fit_multifidelity(data, configs, seed=0)
    short = MultiFidelityData(
        [*data.designs[:2], data.designs[2][:2]],
        [*data.observations[:2], data.observations[2][:2]])
    searched.clear()
    with pytest.raises(ValueError, match="level 3 needs at least 3 points"):
        cokriging._reestimate(model, short)
    assert searched == []


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
    # the reference loop keeps its record of searched levels itself and
    # reads no FittedLevel.searched
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
    record = list(model.levels)
    reestimates = []

    def recorded(model, x, level, values, reestimate=False):
        if not reestimate:
            return original(model, x, level, values)
        grown, new = reference_reestimate(
            model, model.data.with_point(x, values), record)
        record.extend(new)
        reestimates.append(len(new))
        return grown

    monkeypatch.setattr(sequential, "enrich", recorded)
    want_final, want_trace, _ = run()
    assert len(trace) >= 4
    assert _trace_bits(trace) == _trace_bits(want_trace)
    assert _fields(final) == _fields(want_final)
    # some level is kept on some reestimate
    assert reusing == sum(reestimates) < len(sizes) * len(reestimates)
