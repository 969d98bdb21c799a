"""Model identities on generated nested data: interpolation at every level's
design points, predictions that do not depend on the row order of the
designs, contributions that sum to the top-level variance, node-set
variances equal to ``predict``'s, the lookahead variance equal to the
suffix sum of the contributions, a frozen refit that appends factor rows
and node sets that continue their kept solves, a frozen refit that keeps
unchanged estimated levels and otherwise equals solving every level again, frozen loops whose level
choices from kept node state equal ``choose_level``'s, a byte-identical
save/load/save round trip, and fits that are byte-identical whether the
likelihood runs through bare LAPACK or through scipy's checked wrappers.

Data are drawn from the autoregressive chain on 1-3 nested levels of 4-15
points in d = 1 or 2, with lengthscales in [0.3, 0.6], sigma2 in [0.2, 2]
and rho in [0.5, 2], the ranges of acceptance criterion 5; the node-set
test also draws a linear rho with slopes in [-0.5, 0.5]. Deeper chains
of 4-6 levels check the variance identities. Models are built from the
generating parameters with ``from_parameters``. The fit comparison
instead fits the built-in problems on nested LHS designs.
"""

import dataclasses
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfkrig.kriging as kriging
import mfkrig.sequential as sequential
from mfkrig.cokriging import (
    LevelConfig,
    LevelParameters,
    MultiFidelityData,
    MultiFidelityModel,
    fit_multifidelity,
)
from mfkrig.kernels import (
    NUGGET,
    BasisSpec,
    KernelSpec,
    correlation_matrix,
)
from mfkrig.testbed import get_problem, load_model, nested_lhs, save_model

from helpers import (
    draw_ar1_data,
    fresh_factor,
    reference_log_lengthscale_weight,
    reference_nll_gradient,
    reference_nll_terms,
    reference_refit,
    reference_same_points,
    replay_loop,
)

SE = "squared-exponential"
M52 = "matern-5/2"


@st.composite
def _chains(draw, levels=(1, 3), scalings=("constant",)):
    """(designs, observations, configs, parameters, rng) of one chain of
    ``levels[0]`` to ``levels[1]`` levels. The models scale by one basis
    kind drawn from ``scalings``; a linear one adds slopes in [-0.5, 0.5]
    to the chain's rho."""
    s = draw(st.integers(*levels))
    d = draw(st.sampled_from([1, 2]))
    sizes = sorted(draw(st.lists(st.integers(4, 15), min_size=s, max_size=s)),
                   reverse=True)
    thetas = [draw(st.lists(st.floats(0.3, 0.6), min_size=d, max_size=d))
              for _ in range(s)]
    sigma2s = [draw(st.floats(0.2, 2.0)) for _ in range(s)]
    rhos = [draw(st.floats(0.5, 2.0)) for _ in range(s - 1)]
    scaling = BasisSpec(draw(st.sampled_from(scalings)), d)
    rho_betas = [[rho] + [draw(st.floats(-0.5, 0.5))
                          for _ in range(scaling.size - 1)] for rho in rhos]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    designs = nested_lhs(sizes, [[0.0, 1.0]] * d, seed=seed)
    kernels = [KernelSpec(SE, theta) for theta in thetas]
    observations = draw_ar1_data(rng, designs, rhos, kernels, sigma2s)
    constant = BasisSpec("constant", d)
    configs = [LevelConfig(constant, KernelSpec(SE),
                           scaling=None if t == 0 else scaling)
               for t in range(s)]
    params = [LevelParameters(thetas[t], sigma2s[t], [0.0],
                              rho_beta=None if t == 0 else rho_betas[t - 1])
              for t in range(s)]
    return designs, observations, configs, params, rng


def _model(designs, observations, configs, params):
    return MultiFidelityModel.from_parameters(
        MultiFidelityData(designs, observations), configs, params)


@settings(max_examples=100, deadline=None)
@given(_chains())
def test_each_level_interpolates_its_design_points(chain):
    designs, observations, configs, params, _ = chain
    model = _model(designs, observations, configs, params)
    for t, (design, z) in enumerate(zip(designs, observations)):
        out = model.predict(design)
        assert np.all(np.abs(out.means[t] - z) <= 1e-8 * (1.0 + np.abs(z)))
        assert np.all(out.variances[t] <= 1e-10 * params[t].sigma2)


@settings(max_examples=100, deadline=None)
@given(_chains())
def test_predictions_ignore_the_row_order_of_the_designs(chain):
    designs, observations, configs, params, rng = chain
    orders = [rng.permutation(len(design)) for design in designs]
    shuffled = _model([dd[o] for dd, o in zip(designs, orders)],
                      [z[o] for z, o in zip(observations, orders)],
                      configs, params)
    model = _model(designs, observations, configs, params)
    probes = rng.uniform(0.0, 1.0, size=(20, designs[0].shape[1]))
    probes = probes[~reference_same_points(probes, designs[0]).any(axis=1)]
    a, b = model.predict(probes), shuffled.predict(probes)
    scale = max(1.0, float(np.max(np.abs(a.means))))
    assert np.max(np.abs(a.means - b.means)) <= 1e-7 * scale
    sigma2_sum = sum(par.sigma2 for par in params)
    assert np.max(np.abs(a.variances - b.variances)) <= 1e-9 * sigma2_sum


@settings(max_examples=100, deadline=None)
@given(_chains(scalings=("constant", "linear")))
def test_node_set_variance_is_predict_variance_and_contributions_sum(chain):
    designs, observations, configs, params, rng = chain
    model = _model(designs, observations, configs, params)
    # random probes plus the top design, where the matched nugget applies
    probes = np.vstack([rng.uniform(0.0, 1.0, size=(20, designs[0].shape[1])),
                        designs[-1]])
    out = model.predict(probes)
    nodes = sequential._Nodes(probes)
    top = nodes.top_variance(model)
    assert (top == out.variances[-1]).all()
    # the kept state at a node gives predict's variance split there
    for j in (0, len(probes) - 1):
        variance, contributions = nodes.breakdown(model, j)
        assert variance == out.variances[-1, j]
        assert (contributions == out.contributions[:, j]).all()
    sigma2_sum = sum(par.sigma2 for par in params)
    assert np.max(np.abs(out.contributions.sum(axis=0) - out.variances[-1])) \
        <= 1e-12 * sigma2_sum


@settings(max_examples=100, deadline=None)
@given(_chains())
def test_lookahead_is_the_suffix_sum_of_the_contributions(chain):
    designs, observations, configs, params, rng = chain
    model = _model(designs, observations, configs, params)
    probes = np.vstack([rng.uniform(0.0, 1.0, size=(20, designs[0].shape[1])),
                        designs[-1]])
    contributions = model.predict(probes).contributions
    for level in range(1, len(designs) + 1):
        after = model.hypothetical_variance_after(probes, level)
        assert (after[-1] == contributions[level:].sum(axis=0)).all()
        assert (after[:level] == 0.0).all()


def _top_prior_variance(params):
    """sigma2_s + rho_{s-1}^2 (sigma2_{s-1} + ...): the scale of the
    top-level variance."""
    total = 0.0
    for par in params:
        rho = 1.0 if par.rho_beta is None else par.rho_beta[0]
        total = rho ** 2 * total + par.sigma2
    return total


@settings(max_examples=50, deadline=None)
@given(_chains(levels=(4, 6)))
def test_deep_chain_variance_identities(chain):
    designs, observations, configs, params, rng = chain
    model = _model(designs, observations, configs, params)
    probes = np.vstack([rng.uniform(0.0, 1.0, size=(20, designs[0].shape[1])),
                        designs[-1]])
    out = model.predict(probes)
    assert (sequential._Nodes(probes).top_variance(model)
            == out.variances[-1]).all()
    # beyond three levels the sums group differently: equal to round-off
    tol = 1e-12 * _top_prior_variance(params)
    assert np.max(np.abs(out.contributions.sum(axis=0) - out.variances[-1])) \
        <= tol
    for level in range(1, len(designs) + 1):
        after = model.hypothetical_variance_after(probes, level)
        assert np.max(np.abs(after[-1] - out.contributions[level:].sum(axis=0))) \
            <= tol
        assert (after[:level] == 0.0).all()


@settings(max_examples=60, deadline=None)
@given(_chains(), st.integers(1, 3))
def test_frozen_refit_appends_factor_rows_and_node_sets_continue(chain, k):
    designs, observations, configs, params, rng = chain
    model = _model(designs, observations, configs, params)
    d = designs[0].shape[1]
    new = rng.uniform(0.0, 1.0, size=(k, d))
    # the nodes include the new points, where the matched nugget applies
    probes = np.vstack([rng.uniform(0.0, 1.0, size=(20, d)), designs[-1], new])
    nodes = sequential._Nodes(probes)
    nodes.top_variance(model)
    data = model.data
    for x in new:
        level = int(rng.integers(1, len(designs) + 1))
        data = data.with_point(x, rng.normal(size=level))
    # the appended data keeps every data rule
    MultiFidelityData(data.designs, data.observations)
    grown = model.refit(data)
    for old, lev in zip(model.levels, grown.levels):
        n, m = len(old.design), len(lev.design)
        assert (lev.chol[:n, :n] == old.chol).all()
        r = correlation_matrix(lev.kernel, lev.design) + NUGGET * np.eye(m)
        assert np.max(np.abs(lev.chol @ lev.chol.T - r)) <= 1e-12
        # a Cholesky factor is accurate to about cond(R) * eps
        fresh = fresh_factor(lev.kernel.family, lev.design,
                             lev.kernel.lengthscales)
        assert np.max(np.abs(lev.chol - fresh)) \
            <= np.linalg.cond(r) * np.finfo(float).eps
    want = grown.predict(probes).variances[-1]
    assert (nodes.top_variance(grown) == want).all()


def _level_bits(level):
    """Every compared field of a ``FittedLevel``, in a form that tells
    apart any two values that differ in a bit, shape or memory order."""
    def bits(value):
        if isinstance(value, KernelSpec):
            return value.family, bits(value.lengthscales)
        if isinstance(value, np.ndarray):
            return (value.shape, value.dtype.str, value.flags.f_contiguous,
                    value.tobytes())
        if isinstance(value, float):
            return np.float64(value).tobytes()
        return value

    return [(f.name, bits(getattr(level, f.name)))
            for f in dataclasses.fields(level) if f.compare]


@settings(max_examples=30, deadline=None)
@given(_chains(levels=(2, 3)), st.sampled_from(["given", "loaded", "fitted"]))
def test_a_frozen_refit_equals_solving_every_level_again(chain, source):
    # the oracle solves every level; the refit keeps each estimated level
    # whose likelihood inputs are unchanged, as the same object
    designs, observations, configs, params, rng = chain
    model = _model(designs, observations, configs, params)
    if source == "loaded":
        with tempfile.TemporaryDirectory() as directory:
            save_model(model, directory)
            model = load_model(directory)
    elif source == "fitted":
        model = fit_multifidelity(model.data, configs, restarts=1, seed=0)
    d, s = designs[0].shape[1], len(designs)
    # grown at drawn levels, the same data again, a level 1 whose rows
    # are reversed, so its design no longer extends the fitted one (the
    # levels above keep their inputs: the same values at the same points),
    # and level 1 values shifted, which changes level 2's lower values
    plans = [(x, int(rng.integers(1, s + 1)))
             for x in rng.uniform(0.0, 1.0, size=(3, d))]
    for plan in plans + ["same", "reversed", "shifted"]:
        data = model.data
        if plan == "same":
            grown, level = data, 0
        elif plan == "reversed":
            grown, level = MultiFidelityData(
                [data.designs[0][::-1], *data.designs[1:]],
                [data.observations[0][::-1], *data.observations[1:]]), 1
        elif plan == "shifted":
            grown, level = MultiFidelityData(data.designs, [
                data.observations[0] + 1.0, *data.observations[1:]]), 2
        else:
            x, level = plan
            grown = data.with_point(x, rng.normal(size=level))
        got, want = model.refit(grown), reference_refit(model, grown)
        assert [_level_bits(lev) for lev in got.levels] == \
            [_level_bits(lev) for lev in want.levels]
        for t, (old, new, ref) in enumerate(zip(model.levels, got.levels,
                                                want.levels), start=1):
            kept = t > level and not np.isnan(old.nll)
            assert (new is old) == kept
            assert kept or new.grown_from is ref.grown_from
        assert got._searches is want._searches
        assert got._fit_settings == want._fit_settings
        model = got


@settings(max_examples=40, deadline=None)
@given(_chains(levels=(2, 3)), st.sampled_from(sequential.LEVEL_RULES))
def test_the_frozen_loop_chooses_from_kept_node_state_as_choose_level(
        chain, rule):
    designs, observations, configs, params, _ = chain
    model = _model(designs, observations, configs, params)
    s, d = len(designs), designs[0].shape[1]
    domain = sequential.Domain([[0.0, 1.0]] * d)
    cost = sequential.CostModel([1.0, 3.0, 6.0][:s])
    simulators = [lambda x, t=t: np.sin(3.0 * x.sum(axis=1)) + 0.1 * t
                  for t in range(s)]
    search, quadrature = sequential.Grid(9), sequential.Grid(6)
    args = (model, domain, cost, 15.0, simulators)
    kwargs = dict(rule=rule, search=search, quadrature=quadrature)
    with mock.patch.object(sequential, "choose_level",
                           wraps=sequential.choose_level) as spy:
        final, got = sequential.run_loop(*args, **kwargs)
    assert spy.call_count == 0  # every level came from the kept state
    # the replay calls choose_level at every point the loop chose
    _, want = replay_loop(*args, **kwargs)
    assert len(got) == len(want) > 0
    for a, b in zip(got.entries, want.entries):
        assert (a.x == b.x).all() and a.level == b.level
        assert a.imse_before == b.imse_before
    # and so does every search node off the design, on the final model
    nodes = sequential._node_set(domain, search, False)
    imse = sequential.compute_imse(final, domain, quadrature)
    off = ~reference_same_points(nodes.points,
                                 final.data.designs[0]).any(axis=1)
    for j in np.flatnonzero(off):
        kept = sequential._level_rule(*nodes.breakdown(final, j), imse, cost,
                                      rule)
        assert kept == sequential.choose_level(final, nodes.points[j], imse,
                                               cost, rule)


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@settings(max_examples=50, deadline=None)
@given(_chains())
def test_save_load_save_is_byte_identical(chain):
    designs, observations, configs, params, _ = chain
    model = _model(designs, observations, configs, params)
    with tempfile.TemporaryDirectory() as first, \
            tempfile.TemporaryDirectory() as second:
        save_model(model, first)
        save_model(load_model(first), second)
        saved = _files(first)
        assert "model.json" in saved
        assert len(saved) == 2 * len(designs) + 1
        assert _files(second) == saved


def _fitted_bytes(model):
    """Every fitted array of every level as bytes, with the factor's
    memory order, and every file ``save_model`` writes."""
    parts = []
    for lev in model.levels:
        for a in (lev.kernel.lengthscales, lev.beta, lev.rho_beta, lev.chol,
                  lev.alpha, [lev.sigma2], [lev.nll]):
            parts.append(None if a is None else np.asarray(a, float).tobytes())
        parts.append(lev.chol.flags.f_contiguous)
    with tempfile.TemporaryDirectory() as directory:
        save_model(model, directory)
        return parts, _files(directory)


_FIT_CASES = [
    ("forrester", [10, 5], SE, "constant"),
    ("chain3", [12, 8, 4], M52, "constant"),
    ("ripple2d", [16, 8], SE, "linear"),
]


def _problem_fit_inputs(name, sizes, family, trend):
    """(data, configs) of a built-in problem on a nested LHS design."""
    problem = get_problem(name)
    d = problem.dimension
    designs = nested_lhs(sizes, problem.bounds, seed=4)
    data = MultiFidelityData(designs, [problem.evaluate(t + 1, x)
                                       for t, x in enumerate(designs)])
    configs = [LevelConfig(BasisSpec(trend, d), KernelSpec(family),
                           scaling=None if t == 0 else BasisSpec("constant", d))
               for t in range(len(sizes))]
    return data, configs


@pytest.mark.parametrize("name, sizes, family, trend", _FIT_CASES)
def test_fit_is_byte_identical_through_the_scipy_wrappers(monkeypatch, name,
                                                          sizes, family, trend):
    data, configs = _problem_fit_inputs(name, sizes, family, trend)
    lean = fit_multifidelity(data, configs, restarts=2, seed=1)
    def reference_solve(lik, theta, coef=None, grown_from=None):
        # a fit solves afresh only: the search's evaluations, with the
        # gradient's weight from its own distance matrix
        assert coef is None and grown_from is None
        return (*reference_nll_terms(lik.design, lik.trend, lik.y,
                                     KernelSpec(lik.family, theta)),
                reference_log_lengthscale_weight(lik.family,
                                                 lik.design / theta))

    monkeypatch.setattr(kriging, "_solve_level", reference_solve)
    wrapped = fit_multifidelity(data, configs, restarts=2, seed=1)
    assert _fitted_bytes(lean) == _fitted_bytes(wrapped)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name, sizes, family, trend", _FIT_CASES)
def test_fit_is_no_worse_than_with_the_direct_gradient(monkeypatch, name,
                                                       sizes, family, trend,
                                                       seed):
    # the one-gemv gradient moves the search by round-off only: no level
    # ends worse than the search on the (n, n, d) broadcast formula
    data, configs = _problem_fit_inputs(name, sizes, family, trend)
    model = fit_multifidelity(data, configs, seed=seed)
    monkeypatch.setattr(kriging, "_nll_gradient",
                        lambda lik, theta, terms, sq_diff:
                        reference_nll_gradient(lik, theta, terms))
    direct = fit_multifidelity(data, configs, seed=seed)
    for lev, ref in zip(model.levels, direct.levels):
        assert lev.nll <= ref.nll + 1e-9 * abs(ref.nll)
