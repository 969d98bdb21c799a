"""The level contract: one level-list rule for every model builder, and one
estimability rule (p + 1 points, full-rank regression) checked at every
level before any likelihood evaluation."""

import json

import numpy as np
import pytest

import mfkrig.cokriging as cokriging
from joint_oracle import JointModel
from mfkrig.cli import EXIT_VALIDATION, main
from mfkrig.cokriging import (
    LevelConfig,
    LevelParameters,
    MultiFidelityData,
    MultiFidelityModel,
    fit_level,
    fit_multifidelity,
)
from mfkrig.exceptions import SingularTrendError
from mfkrig.kernels import BasisSpec, KernelSpec
from mfkrig.kriging import KrigingProblem
from mfkrig.testbed import get_problem, nested_lhs, save_data

SE = "squared-exponential"
CONSTANT = BasisSpec("constant", 1)


def _forrester():
    """Data, configs and fixed parameters of a 2-level forrester model."""
    problem = get_problem("forrester")
    designs = nested_lhs([12, 6], problem.bounds, seed=7)
    data = MultiFidelityData(
        designs, [problem.evaluate(t, d) for t, d in enumerate(designs, 1)])
    configs = [LevelConfig(CONSTANT, KernelSpec(SE)),
               LevelConfig(CONSTANT, KernelSpec(SE), scaling=CONSTANT)]
    params = [LevelParameters([0.2], 1.0, [0.0]),
              LevelParameters([0.3], 0.5, [0.0], rho_beta=[2.0])]
    return data, configs, params


def _cli_fit(tmp_path, capsys, **config):
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(dict(config, out=str(tmp_path / "model"))))
    code = main(["fit", "--config", str(path)])
    return code, capsys.readouterr().err


# ---------------------------------------------------------------------------
# the level-list rule


def _error(builder, data, configs, params, tmp_path, capsys):
    """The builder's ValueError message; the CLI's must come with exit 1."""
    if builder == "mfkrig fit":
        code, err = _cli_fit(tmp_path, capsys, problem="forrester",
                             sizes=[12, 6], seed=7, levels=[{}] * len(configs))
        assert code == EXIT_VALIDATION
        return err.removeprefix("error: ").rstrip("\n")
    build = {
        "fit_multifidelity": lambda: fit_multifidelity(data, configs),
        "from_parameters": lambda: MultiFidelityModel.from_parameters(
            data, configs, params),
        "JointModel": lambda: JointModel(data, configs, params),
    }[builder]
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize("builder, wrong", [
    ("fit_multifidelity", "configs"),
    ("from_parameters", "configs"),
    ("JointModel", "configs"),
    ("mfkrig fit", "configs"),
    ("from_parameters", "parameters"),
    ("JointModel", "parameters"),
])
def test_every_builder_states_the_level_count_rule_alike(
        builder, wrong, tmp_path, capsys):
    data, configs, params = _forrester()
    if wrong == "configs":
        configs = configs[:1]
        message = "1 configs for 2 levels"
    else:
        params = params + params[1:]
        message = "3 parameter sets for 2 levels"
    assert _error(builder, data, configs, params, tmp_path, capsys) == message


def test_model_constructor_and_refit_state_the_level_count_rule():
    data, configs, params = _forrester()
    model = MultiFidelityModel.from_parameters(data, configs, params)
    with pytest.raises(ValueError, match="^1 parameter sets for 2 levels$"):
        MultiFidelityModel(model.levels[:1], data, configs)
    with pytest.raises(ValueError, match="^1 configs for 2 levels$"):
        MultiFidelityModel(model.levels, data, configs[:1])
    one_level = MultiFidelityData(data.designs[:1], data.observations[:1])
    with pytest.raises(ValueError, match="^2 configs for 1 levels$"):
        model.refit(one_level)
    planar = MultiFidelityData([np.hstack([dd, dd]) for dd in data.designs],
                               data.observations)
    with pytest.raises(ValueError, match="dimension 2, expected 1"):
        model.refit(planar)


def test_model_constructor_states_the_layout_rule():
    data, configs, params = _forrester()
    model = MultiFidelityModel.from_parameters(data, configs, params)
    swapped = [configs[1], configs[0]]
    with pytest.raises(ValueError, match="^level 1 takes no scaling basis$"):
        MultiFidelityModel(model.levels, data, swapped)


# ---------------------------------------------------------------------------
# the estimability rule


def _collinear_data():
    """Eight distinct 2-D points on the line x_1 = 2 x_0."""
    t = np.linspace(0.0, 1.0, 8)
    return MultiFidelityData([np.column_stack([t, 2.0 * t])], [np.sin(3 * t)])


LINEAR_2D = LevelConfig(BasisSpec("linear", 2), KernelSpec(SE))
TREND_BLOCK = "^level 1 extended trend matrix is singular: trend block$"


@pytest.fixture()
def no_likelihood(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("likelihood search started")
    monkeypatch.setattr(cokriging, "_ml_fit", fail)


@pytest.mark.parametrize("fit", [
    lambda data: fit_level(1, data, LINEAR_2D),
    lambda data: fit_multifidelity(data, [LINEAR_2D]),
], ids=["fit_level", "fit_multifidelity"])
def test_collinear_level_one_trend_stops_before_the_search(fit,
                                                           no_likelihood):
    with pytest.raises(SingularTrendError, match=TREND_BLOCK):
        fit(_collinear_data())


def test_collinear_level_one_trend_exits_one(tmp_path, capsys):
    save_data(_collinear_data(), tmp_path / "data")
    code, err = _cli_fit(tmp_path, capsys, data_dir=str(tmp_path / "data"),
                         levels=[{"trend": "linear"}])
    assert code == EXIT_VALIDATION
    assert err == ("error: level 1 extended trend matrix is singular: "
                   "trend block\n")


def test_collinear_trend_stops_a_kriging_problem():
    data = _collinear_data()
    with pytest.raises(SingularTrendError, match=TREND_BLOCK):
        KrigingProblem(data.designs[0], data.observations[0],
                       LINEAR_2D.trend, LINEAR_2D.kernel)


def test_too_few_points_for_the_trend_state_one_rule(no_likelihood):
    data = MultiFidelityData([[[0.2], [0.7]]], [[1.0, 2.0]])
    config = LevelConfig(BasisSpec("linear", 1), KernelSpec(SE))
    message = "^level 1 needs at least 3 points, has 2$"
    with pytest.raises(ValueError, match=message):
        fit_level(1, data, config)
    with pytest.raises(ValueError, match=message):
        KrigingProblem(data.designs[0], data.observations[0], config.trend,
                       config.kernel)


def test_too_few_points_for_the_extended_trend(no_likelihood):
    # the extended trend [z_1 | 1 | x] at level 2 has p = 3 columns
    data = MultiFidelityData([np.linspace(0, 1, 6)[:, None],
                              np.linspace(0, 1, 6)[:3, None]],
                             [np.arange(6.0), [1.0, 3.0, 2.0]])
    config = LevelConfig(BasisSpec("linear", 1), KernelSpec(SE),
                         scaling=CONSTANT)
    with pytest.raises(ValueError,
                       match="^level 2 needs at least 4 points, has 3$"):
        fit_level(2, data, config)


def test_a_frozen_refit_onto_too_few_points_states_the_rule():
    # linear trend and scaling: p = 4 columns at level 2, refit on 4 points
    problem = get_problem("forrester")
    designs = nested_lhs([10, 6], problem.bounds, seed=7)
    values = [problem.evaluate(t, d) for t, d in enumerate(designs, 1)]
    linear = BasisSpec("linear", 1)
    configs = [LevelConfig(linear, KernelSpec(SE)),
               LevelConfig(linear, KernelSpec(SE), scaling=linear)]
    params = [LevelParameters([0.2], 1.0, [0.0, 1.0]),
              LevelParameters([0.3], 0.5, [0.0, 1.0], rho_beta=[2.0, 0.0])]
    model = MultiFidelityModel.from_parameters(
        MultiFidelityData(designs, values), configs, params)
    fewer = MultiFidelityData([designs[0], designs[1][:4]],
                              [values[0], values[1][:4]])
    with pytest.raises(ValueError,
                       match="^level 2 needs at least 5 points, has 4$"):
        model.refit(fewer)


def test_every_level_is_checked_before_any_search(no_likelihood):
    # zero level-1 responses make level 2's scaling block z_1 . g vanish;
    # the fit must say so before level 1's likelihood search starts
    data, configs, _ = _forrester()
    zeroed = MultiFidelityData(
        data.designs, [np.zeros_like(data.observations[0]),
                       data.observations[1]])
    with pytest.raises(SingularTrendError,
                       match="^level 2 extended trend matrix is singular: "
                             "scaling block"):
        fit_multifidelity(zeroed, configs)
