"""The finite-value contract: NaN and inf stop at the type that owns the
input. The level-index rule: every site that takes a level takes a
Python or numpy integer, not a bool, inside its range. The number rule:
every cost, budget and sigma2 is a Python or numpy number, not a bool.
And one error for a repeated design point, wherever data are built."""

import json
import os
import re
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkrig.cli import EXIT_VALIDATION, main
from mfkrig.cokriging import (
    LevelConfig,
    LevelParameters,
    MultiFidelityData,
    MultiFidelityModel,
    fit_level,
    fit_multifidelity,
)
from mfkrig.exceptions import DuplicateDesignPointError
from mfkrig.kernels import BasisSpec, KernelSpec
from mfkrig.kriging import KrigingProblem
from mfkrig.sequential import CostModel, Domain, enrich, _run_settings
from mfkrig.testbed import (
    get_problem,
    load_data,
    load_model,
    nested_lhs,
    save_data,
    save_model,
)

SE = "squared-exponential"
NON_FINITE = [np.nan, np.inf, -np.inf]


def _model():
    """Fixed-parameter forrester model on an [8, 4] nested design."""
    problem = get_problem("forrester")
    designs = nested_lhs([8, 4], problem.bounds, seed=0)
    data = MultiFidelityData(
        designs, [problem.evaluate(t, d) for t, d in enumerate(designs, 1)])
    constant = BasisSpec("constant", 1)
    configs = [LevelConfig(constant, KernelSpec(SE)),
               LevelConfig(constant, KernelSpec(SE), scaling=constant)]
    params = [LevelParameters([0.2], 1.0, [0.0]),
              LevelParameters([0.3], 0.5, [0.0], rho_beta=[2.0])]
    return MultiFidelityModel.from_parameters(data, configs, params)


# ---------------------------------------------------------------------------
# parameters and probes


@pytest.mark.parametrize("bad", NON_FINITE)
def test_kernel_rejects_non_finite_lengthscale(bad):
    with pytest.raises(ValueError, match="finite"):
        KernelSpec(SE, [0.5, bad])


@pytest.mark.parametrize("field", ["sigma2", "beta", "rho_beta"])
@pytest.mark.parametrize("bad", NON_FINITE)
def test_level_parameters_reject_non_finite(field, bad):
    kwargs = dict(lengthscales=[0.3], sigma2=1.0, beta=[0.0], rho_beta=[1.0])
    kwargs[field] = bad if field == "sigma2" else [1.0, bad]
    with pytest.raises(ValueError, match=f"{field} must be .*finite"):
        LevelParameters(**kwargs)


@pytest.mark.parametrize("costs", [[np.nan, np.nan], [1.0, np.inf],
                                   [1.0, np.nan]])
def test_cost_model_rejects_non_finite_costs(costs):
    # NaN costs never exceed a budget, so a loop would ignore it
    with pytest.raises(ValueError, match="^costs must be finite$"):
        CostModel(costs)


@pytest.mark.parametrize("bounds", [(0.1, np.inf), (np.nan, 1.0),
                                    (0.1, np.nan)])
def test_fit_rejects_non_finite_lengthscale_bounds(bounds):
    model = _model()
    with pytest.raises(ValueError, match=r"^bounds must satisfy .* < inf$"):
        fit_multifidelity(model.data, model.configs, bounds=bounds, restarts=1)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_predict_names_a_non_finite_probe(bad):
    model = _model()
    probes = np.array([[0.25], [bad], [0.75]])
    with pytest.raises(ValueError, match=rf"probe point \[{bad}\] is not finite"):
        model.predict(probes)
    with pytest.raises(ValueError, match="probe point"):
        model.predict(np.array([bad]))


def test_a_domain_names_a_measure_of_the_wrong_type():
    with pytest.raises(TypeError, match=r"unknown measure \[\[0.5\]\]"):
        Domain([[0, 1]], measure=[[0.5]])


# ---------------------------------------------------------------------------
# files and the CLI


def _replace_line(path, lineno, text):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n")


def test_load_data_rejects_a_nan_response(tmp_path):
    save_data(_model().data, tmp_path)
    _replace_line(tmp_path / "level_2.csv", 3, "nan")
    with pytest.raises(ValueError, match=r"^level 2 value nan at point .* "
                                         "is not finite$"):
        load_data(tmp_path)


def test_load_model_rejects_a_nan_parameter(tmp_path):
    save_model(_model(), tmp_path)
    sidecar = json.loads((tmp_path / "model.json").read_text())
    sidecar["levels"][1]["beta"] = [float("nan")]
    (tmp_path / "model.json").write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match="^beta must be finite$"):
        load_model(tmp_path)


def _predict(tmp_path, capsys, model_dir, **keys):
    config = tmp_path / "predict.json"
    config.write_text(json.dumps({"model_dir": str(model_dir),
                                  "out": str(tmp_path / "pred"), **keys}))
    code = main(["predict", "--config", str(config), "--quiet"])
    return code, capsys.readouterr().err


def test_cli_predict_rejects_non_finite_model_files(tmp_path, capsys):
    model_dir = tmp_path / "model"
    save_model(_model(), model_dir)
    sidecar = json.loads((model_dir / "model.json").read_text())
    sidecar["levels"][0]["sigma2"] = float("inf")
    (model_dir / "model.json").write_text(json.dumps(sidecar))
    code, err = _predict(tmp_path, capsys, model_dir, grid=5,
                         problem="forrester")
    assert code == EXIT_VALIDATION
    assert err == "error: sigma2 must be positive and finite\n"

    save_model(_model(), model_dir)
    _replace_line(model_dir / "design_1.csv", 2, "inf")
    code, err = _predict(tmp_path, capsys, model_dir, grid=5,
                         problem="forrester")
    assert code == EXIT_VALIDATION
    assert err == "error: level 1 design point [inf] is not finite\n"


def test_cli_predict_bounds_key_follows_the_box_rule(tmp_path, capsys):
    model_dir = tmp_path / "model"
    save_model(_model(), model_dir)
    for bounds, message in (([[1.0, 0.0]], "each lower bound must be below "
                                           "its upper bound"),
                            ([[0.0, float("inf")]], "bounds must be finite")):
        code, err = _predict(tmp_path, capsys, model_dir, grid=5,
                             bounds=bounds)
        assert code == EXIT_VALIDATION
        assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# generated datasets


@st.composite
def _spoiled_dataset(draw):
    """Nested 1-3 level data, plus one entry to replace by nan or +-inf."""
    levels = draw(st.integers(1, 3))
    d = draw(st.integers(1, 2))
    sizes = sorted(draw(st.lists(st.integers(1, 6), min_size=levels,
                                 max_size=levels)), reverse=True)
    sizes[0] = max(sizes[0], 2)
    designs = nested_lhs(sizes, [[-1.0, 2.0]] * d,
                         seed=draw(st.integers(0, 2 ** 16)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    observations = [np.array(draw(st.lists(finite, min_size=n, max_size=n)))
                    for n in sizes]
    level = draw(st.integers(1, levels))
    row = draw(st.integers(0, sizes[level - 1] - 1))
    where = draw(st.sampled_from(["design", "response"]))
    column = draw(st.integers(0, d - 1)) if where == "design" else None
    bad = draw(st.sampled_from(NON_FINITE))
    return designs, observations, level, row, column, bad


@settings(max_examples=60, deadline=None)
@given(_spoiled_dataset())
def test_non_finite_entry_stops_data_and_its_files(case):
    designs, observations, level, row, column, bad = case
    spoiled_designs = [a.copy() for a in designs]
    spoiled_obs = [z.copy() for z in observations]
    if column is None:
        spoiled_obs[level - 1][row] = bad
    else:
        spoiled_designs[level - 1][row, column] = bad
    named = rf"^level {level} .*is not finite$"
    with pytest.raises(ValueError, match=named):
        MultiFidelityData(spoiled_designs, spoiled_obs)

    with tempfile.TemporaryDirectory() as tmp:
        spoiled = SimpleNamespace(designs=spoiled_designs,
                                  observations=spoiled_obs,
                                  levels=len(designs),
                                  dimension=designs[0].shape[1])
        save_data(spoiled, os.path.join(tmp, "spoiled"))
        with pytest.raises(ValueError, match=named):
            load_data(os.path.join(tmp, "spoiled"))

        first, second = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        save_data(MultiFidelityData(designs, observations), first)
        save_data(load_data(first), second)
        for name in sorted(os.listdir(first)):
            with open(os.path.join(first, name), "rb") as fa, \
                    open(os.path.join(second, name), "rb") as fb:
                assert fa.read() == fb.read(), name


# ---------------------------------------------------------------------------
# level indices


_LEVEL_SITES = {
    "fit_level": lambda model, level: fit_level(
        level, model.data, model.configs[1], restarts=1),
    "lower_level_values": lambda model, level:
        model.data.lower_level_values(level),
    "hypothetical_variance_after": lambda model, level:
        model.hypothetical_variance_after([0.5], level),
    "enrich": lambda model, level: enrich(
        model, [0.123], level, np.ones(int(level))),
    "cost_through": lambda model, level:
        CostModel([1.0, 5.0]).cost_through(level),
    "evaluate": lambda model, level:
        get_problem("forrester").evaluate(level, [[0.5]]),
}


@pytest.mark.parametrize("site", _LEVEL_SITES)
@pytest.mark.parametrize("level", [1.5, 2.0, True, 3, 0])
def test_every_level_site_takes_only_an_integer_in_range(site, level):
    lowest = 2 if site == "lower_level_values" else 1
    with pytest.raises(ValueError, match=re.escape(
            f"level must be an integer in [{lowest}, 2], got {level!r}")):
        _LEVEL_SITES[site](_model(), level)


@pytest.mark.parametrize("site", _LEVEL_SITES)
def test_every_level_site_takes_a_numpy_integer(site):
    _LEVEL_SITES[site](_model(), np.int64(2))


# ---------------------------------------------------------------------------
# numbers


_NUMBER_SITES = {
    "costs": lambda value: CostModel([0.5, value]),
    "budget": lambda value: _run_settings(
        2, CostModel([1.0, 5.0]), value, [None, None]),
    "sigma2": lambda value: LevelParameters([0.3], value, [0.0]),
}


@pytest.mark.parametrize("site", _NUMBER_SITES)
@pytest.mark.parametrize("value", [True, np.True_, "5", None],
                         ids=["bool", "numpy-bool", "str", "None"])
def test_every_number_site_takes_only_a_number(site, value):
    with pytest.raises(ValueError, match=re.escape(
            f"must be a number, got {value!r}" if site != "costs"
            else f"costs must be numbers, got {value!r}")):
        _NUMBER_SITES[site](value)


@pytest.mark.parametrize("site", _NUMBER_SITES)
@pytest.mark.parametrize("value", [5, 5.0, np.int64(5), np.float32(5.0)])
def test_every_number_site_takes_a_python_or_numpy_number(site, value):
    _NUMBER_SITES[site](value)


# ---------------------------------------------------------------------------
# repeated design points


def test_a_repeated_point_is_one_error_wherever_data_are_built(
        tmp_path, capsys):
    data = _model().data
    x = data.designs[1][2]
    message = re.escape(f"level 1: design point {x} duplicates an earlier one")
    designs = [np.vstack([data.designs[0], x]), data.designs[1]]
    observations = [np.append(data.observations[0], 1.0),
                    data.observations[1]]
    with pytest.raises(DuplicateDesignPointError, match=message):
        MultiFidelityData(designs, observations)
    with pytest.raises(DuplicateDesignPointError, match=message):
        data.with_point(x, [1.0])
    with pytest.raises(DuplicateDesignPointError, match=message):
        KrigingProblem(designs[0], observations[0], BasisSpec("constant", 1),
                       KernelSpec(SE))
    save_data(SimpleNamespace(designs=designs, observations=observations,
                              levels=2, dimension=1), tmp_path / "data")
    with pytest.raises(DuplicateDesignPointError, match=message):
        load_data(tmp_path / "data")
    config = tmp_path / "fit.json"
    config.write_text(json.dumps({"data_dir": str(tmp_path / "data"),
                                  "out": str(tmp_path / "out")}))
    assert main(["fit", "--config", str(config)]) == EXIT_VALIDATION
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
