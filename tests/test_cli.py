"""End-to-end tests of the command-line interface (direct main() calls)."""

import json
import os

import numpy as np
import pytest

import mfkrig.cli as cli
import mfkrig.cokriging as cokriging
import mfkrig.kriging as kriging
from mfkrig.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from mfkrig.cokriging import MultiFidelityData
from mfkrig.csvio import fmt
from mfkrig.exceptions import IllConditionedError
from mfkrig.sequential import (
    EnrichmentTrace,
    TraceEntry,
    product_grid,
    read_trace,
    write_trace,
)
from mfkrig.testbed import (
    TestProblem,
    get_problem,
    load_model,
    nested_lhs,
    save_data,
)


def _config(tmp_path, name, **kwargs):
    path = tmp_path / name
    path.write_text(json.dumps(kwargs, indent=2))
    return str(path)


def _fit_config(tmp_path, out, seed=7, sizes=(12, 6), name="fit.json"):
    return _config(
        tmp_path, name,
        problem="forrester",
        sizes=list(sizes),
        seed=seed,
        levels=[
            {"kernel": "squared-exponential", "trend": "constant"},
            {"kernel": "squared-exponential", "trend": "constant",
             "scaling": "constant"},
        ],
        out=str(out),
    )


# ---------------------------------------------------------------------------
# fit


def test_fit_writes_model_files_and_report(tmp_path, capsys):
    out = tmp_path / "model"
    code = main(["fit", "--config", _fit_config(tmp_path, out)])
    assert code == EXIT_OK
    for name in ("model.json", "design_1.csv", "design_2.csv",
                 "level_1.csv", "level_2.csv", "fit_report.txt"):
        assert (out / name).exists(), name
    report = (out / "fit_report.txt").read_text()
    assert "level 2" in report and "scaling coefficients" in report
    assert "fitted 2 levels" in capsys.readouterr().out

    model = load_model(out)
    assert model.level_count == 2
    assert len(model.data.designs[0]) == 12


def test_fit_is_deterministic_across_runs(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["fit", "--config", _fit_config(tmp_path, out_a),
                 "--quiet"]) == EXIT_OK
    assert main(["fit", "--config", _fit_config(tmp_path, out_b,
                                                name="fit2.json"),
                 "--quiet"]) == EXIT_OK
    assert (out_a / "model.json").read_bytes() == \
        (out_b / "model.json").read_bytes()


def _fit_files(tmp_path, name, **levels):
    """The bytes of every file a forrester fit writes, by file name."""
    out = tmp_path / name
    config = _config(tmp_path, f"{name}.json", problem="forrester",
                     sizes=[8, 4], seed=7, out=str(out), **levels)
    assert main(["fit", "--config", config, "--quiet"]) == EXIT_OK
    return {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}


def test_a_config_without_levels_gets_the_default_at_every_level(tmp_path):
    assert _fit_files(tmp_path, "default") == \
        _fit_files(tmp_path, "explicit", levels=[{}, {}])


def test_a_config_that_sets_level_count_runs_as_without_it(tmp_path):
    # the data fix the level count; the old key is an unknown key
    assert _fit_files(tmp_path, "with", level_count=5) == \
        _fit_files(tmp_path, "without")


def test_seed_flag_overrides_config(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    config = _fit_config(tmp_path, out_a)
    assert main(["fit", "--config", config, "--quiet"]) == EXIT_OK
    assert main(["fit", "--config", config, "--quiet", "--seed", "8",
                 "--out", str(out_b)]) == EXIT_OK
    assert (out_a / "model.json").read_bytes() != \
        (out_b / "model.json").read_bytes()


@pytest.mark.parametrize("seed", [
    "1_0", "\u0661", " 1", "+1",  # int() would read 10 and 1
    "1.0", "-", "",
])
def test_seed_flag_reads_ascii_digits(tmp_path, capsys, seed):
    config = _fit_config(tmp_path, tmp_path / "m")
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--config", config, "--quiet", "--seed", seed])
    assert exc.value.code == 2
    assert f"invalid seed {seed!r}" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()
    # a negative seed is read, and the library rejects it
    assert main(["fit", "--config", config, "--quiet", "--seed", "-1"]) == \
        EXIT_VALIDATION


def test_fit_rejects_growing_sizes(tmp_path, capsys):
    config = _fit_config(tmp_path, tmp_path / "m", sizes=(6, 12))
    assert main(["fit", "--config", config]) == EXIT_VALIDATION
    assert "nonincreasing" in capsys.readouterr().err


def test_fit_missing_data_directory(tmp_path, capsys):
    config = _config(tmp_path, "fit.json", data_dir=str(tmp_path / "nowhere"),
                     out=str(tmp_path / "m"))
    assert main(["fit", "--config", config]) == EXIT_IO
    assert "nowhere" in capsys.readouterr().err


def test_fit_exits_2_on_a_numerical_failure(tmp_path, capsys, monkeypatch):
    def ill_conditioned(*args):
        raise IllConditionedError("not positive definite")

    monkeypatch.setattr(kriging, "_solve_level", ill_conditioned)
    out = tmp_path / "model"
    assert main(["fit", "--config", _fit_config(tmp_path, out)]) \
        == EXIT_NUMERICAL
    assert "likelihood starts were ill-conditioned" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("restarts", [0, -2])
def test_fit_rejects_restarts_below_one(tmp_path, capsys, restarts):
    out = tmp_path / "m"
    config = json.loads(open(_fit_config(tmp_path, out)).read())
    path = _config(tmp_path, "bad.json", restarts=restarts, **config)
    assert main(["fit", "--config", path]) == EXIT_VALIDATION
    assert "restarts must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_config_is_io_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["fit", "--config", str(path)]) == EXIT_IO
    assert "bad.json" in capsys.readouterr().err
    assert main(["fit", "--config", str(tmp_path / "missing.json")]) == EXIT_IO


# ---------------------------------------------------------------------------
# predict


@pytest.fixture()
def fitted_dir(tmp_path):
    out = tmp_path / "model"
    assert main(["fit", "--config", _fit_config(tmp_path, out),
                 "--quiet"]) == EXIT_OK
    return out


def test_predict_grid_contributions_sum(tmp_path, fitted_dir):
    out = tmp_path / "pred"
    config = _config(tmp_path, "predict.json", model_dir=str(fitted_dir),
                     grid=101, bounds=[[0.0, 1.0]], out=str(out))
    assert main(["predict", "--config", config, "--quiet"]) == EXIT_OK
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "x_0,mean_1,mean_2,var_1,var_2,contrib_1,contrib_2"
    assert len(lines) == 102
    table = np.array([[float(c) for c in line.split(",")]
                      for line in lines[1:]])
    total = table[:, 4]
    parts = table[:, 5] + table[:, 6]
    assert np.all(np.abs(parts - total) <= 1e-10 * (1.0 + total))


def test_predict_at_design_points_has_zero_variance(tmp_path, fitted_dir):
    out = tmp_path / "pred"
    config = _config(tmp_path, "predict.json", model_dir=str(fitted_dir),
                     points_file=str(fitted_dir / "design_2.csv"),
                     out=str(out))
    assert main(["predict", "--config", config, "--quiet"]) == EXIT_OK
    lines = (out / "predictions.csv").read_text().splitlines()
    table = np.array([[float(c) for c in line.split(",")]
                      for line in lines[1:]])
    model = load_model(fitted_dir)
    cap = 1e-10 * max(level.sigma2 for level in model.levels)
    assert table.shape[0] == 6
    assert np.all(table[:, 3] <= cap) and np.all(table[:, 4] <= cap)


def test_predict_empty_points_file(tmp_path, fitted_dir):
    pts = tmp_path / "probes.csv"
    pts.write_text("dim_0\n")
    out = tmp_path / "pred"
    config = _config(tmp_path, "predict.json", model_dir=str(fitted_dir),
                     points_file=str(pts), out=str(out))
    assert main(["predict", "--config", config, "--quiet"]) == EXIT_OK
    lines = (out / "predictions.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("x_0,")


@pytest.mark.parametrize("problem, sizes, grid", [
    ("ripple2d", [20, 10], 25), ("chain3", [12, 8, 4], 700)])
def test_predict_writes_the_per_value_fmt_join(tmp_path, problem, sizes,
                                               grid):
    model_dir, out = tmp_path / "model", tmp_path / "pred"
    fit = _config(tmp_path, "fit.json", problem=problem, sizes=sizes,
                  seed=7, out=str(model_dir))
    assert main(["fit", "--config", fit, "--quiet"]) == EXIT_OK
    config = _config(tmp_path, "predict.json", model_dir=str(model_dir),
                     grid=grid, problem=problem, out=str(out))
    assert main(["predict", "--config", config, "--quiet"]) == EXIT_OK
    points = product_grid(get_problem(problem).bounds, grid)
    pred = load_model(model_dir).predict(points)
    s, d = len(sizes), points.shape[1]
    header = ([f"x_{j}" for j in range(d)]
              + [f"{name}_{t}" for name in ("mean", "var", "contrib")
                 for t in range(1, s + 1)])
    rows = np.hstack([points, pred.means.T, pred.variances.T,
                      pred.contributions.T])
    expected = "".join(",".join(cells) + "\n" for cells in
                       [header] + [[fmt(v) for v in row] for row in rows])
    assert (out / "predictions.csv").read_bytes() == expected.encode()


def _assert_predict_rejects_dimension(tmp_path, fitted_dir, capsys, probes):
    pts = tmp_path / "probes.csv"
    pts.write_text(probes)
    config = _config(tmp_path, "predict.json", model_dir=str(fitted_dir),
                     points_file=str(pts), out=str(tmp_path / "pred"))
    assert main(["predict", "--config", config]) == EXIT_VALIDATION
    assert "dimension" in capsys.readouterr().err


def test_predict_dimension_mismatch(tmp_path, fitted_dir, capsys):
    _assert_predict_rejects_dimension(tmp_path, fitted_dir, capsys,
                                      "dim_0,dim_1\n0.5,0.5\n")


def test_predict_dimension_mismatch_with_no_points(tmp_path, fitted_dir, capsys):
    _assert_predict_rejects_dimension(tmp_path, fitted_dir, capsys, "dim_0,dim_1\n")


# ---------------------------------------------------------------------------
# sequential


def _sequential_config(tmp_path, out, budget=30.0, name="seq.json", seed=3):
    return _config(
        tmp_path, name,
        problem="forrester",
        sizes=[8, 4],
        seed=seed,
        costs=[1.0, 5.0],
        budget=budget,
        rule="imse-threshold",
        refit="never",
        search={"kind": "grid", "n": 129},
        quadrature={"kind": "grid", "n": 128},
        out=str(out),
    )


def test_sequential_writes_trace_and_model(tmp_path):
    out = tmp_path / "run"
    config = _sequential_config(tmp_path, out)
    assert main(["sequential", "--config", config, "--quiet"]) == EXIT_OK
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == \
        "iter,x_0,level,value_1,value_2,imse_before,imse_after,cum_cost"
    assert len(trace_lines) >= 2
    assert (out / "model" / "model.json").exists()

    # Cumulative cost respects the budget; IMSE mostly decreases.
    rows = [line.split(",") for line in trace_lines[1:]]
    cum = [float(r[-1]) for r in rows]
    assert cum[-1] <= 30.0
    after = [float(r[-2]) for r in rows]
    before = [float(r[-3]) for r in rows]
    drops = sum(1 for a, b in zip(after, before) if a <= b)
    assert drops >= 0.8 * len(rows)


def test_sequential_is_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["sequential", "--config",
                 _sequential_config(tmp_path, out_a), "--quiet"]) == EXIT_OK
    assert main(["sequential", "--config",
                 _sequential_config(tmp_path, out_b, name="seq2.json"),
                 "--quiet"]) == EXIT_OK
    assert (out_a / "trace.csv").read_bytes() == \
        (out_b / "trace.csv").read_bytes()


def test_sequential_fits_with_the_config_restarts(tmp_path, monkeypatch):
    # the config's restarts are the initial fit's; a reestimate searches
    # each level it does not keep from two starts
    starts = []
    original = cokriging._ml_fit

    def spy(lik, box, level_starts):
        starts.append(len(level_starts))
        return original(lik, box, level_starts)

    monkeypatch.setattr(cokriging, "_ml_fit", spy)
    out = tmp_path / "run"
    config = json.loads(open(_sequential_config(tmp_path, out,
                                                budget=12.0)).read())
    config.update(restarts=3, refit="always")
    path = _config(tmp_path, "restarts.json", **config)
    assert main(["sequential", "--config", path, "--quiet"]) == EXIT_OK
    assert len(starts) > 2  # the loop reestimated
    assert starts == [3, 3] + [2] * (len(starts) - 2)


def test_a_failing_simulator_exits_2_and_keeps_the_partial_run(
        tmp_path, capsys, monkeypatch):
    forrester = get_problem("forrester")
    runs = []

    def top(x):
        if len(x) == 1:  # a run of the loop, not the initial design
            runs.append(x)
            if len(runs) > 2:
                raise RuntimeError("the simulator crashed")
        return forrester.evaluate(2, x)

    problem = TestProblem("forrester", forrester.bounds,
                          [forrester.levels[0], top], forrester.costs)
    monkeypatch.setattr(cli, "get_problem", lambda name: problem)
    out = tmp_path / "run"
    config = _sequential_config(tmp_path, out)
    assert main(["sequential", "--config", config, "--quiet"]) \
        == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "simulator failed; trace is partial" in err
    # the line names the failing level and the simulator's own message
    assert "level 2" in err and "the simulator crashed" in err
    assert (out / "trace.csv").read_text().endswith("\n# incomplete\n")
    trace = read_trace(out / "trace.csv")
    assert not trace.complete
    assert [e.level for e in trace.entries].count(2) == 2
    model = load_model(out / "model")
    assert [len(d) for d in model.data.designs] == [8 + len(trace), 4 + 2]


@pytest.mark.parametrize("costs", [dict(costs=[1.0, 4.0]), {}])
def test_sequential_runs_a_prefix_of_the_problem_levels(tmp_path, costs):
    # the data fix the level count, as they do for fit: two sizes run
    # chain3's first two levels, at its first two costs by default
    out = tmp_path / "run"
    config = json.loads(open(_sequential_config(tmp_path, out,
                                                budget=12.0)).read())
    del config["costs"]
    config.update(problem="chain3", sizes=[10, 5], **costs)
    path = _config(tmp_path, "prefix.json", **config)
    assert main(["sequential", "--config", path, "--quiet"]) == EXIT_OK
    trace = read_trace(out / "trace.csv")
    assert trace.levels == 2 and trace.complete and len(trace) >= 1
    assert trace.entries[-1].cumulative_cost <= 12.0
    assert load_model(out / "model").level_count == 2


def test_sequential_budget_below_cheapest_run(tmp_path):
    out = tmp_path / "run"
    config = _sequential_config(tmp_path, out, budget=0.5)
    assert main(["sequential", "--config", config, "--quiet"]) == EXIT_OK
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 1  # header only


def test_sequential_requires_budget(tmp_path, capsys):
    out = tmp_path / "run"
    config = _config(tmp_path, "seq.json", problem="forrester", sizes=[8, 4],
                     out=str(out))
    assert main(["sequential", "--config", config]) == EXIT_VALIDATION
    assert "budget" in capsys.readouterr().err


def test_sequential_rejects_a_nan_budget(tmp_path, capsys):
    out = tmp_path / "run"
    config = _sequential_config(tmp_path, out, budget=float("nan"))
    assert "NaN" in open(config).read()
    assert main(["sequential", "--config", config]) == EXIT_VALIDATION
    assert "budget" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("override, message", [
    (dict(search="grid"), "'search' must be an object, got 'grid'"),
    (dict(quadrature=[1]), "'quadrature' must be an object, got [1]"),
    (dict(search={"kind": "grid"}), "search needs 'n'"),
    (dict(search={"kind": "multistart", "k": 4}),
     "unknown search kind 'multistart'"),
    (dict(quadrature={"kind": "monte-carlo"}), "quadrature needs 'n'"),
    (dict(search=[]), "'search' must be an object, got []"),
    (dict(search={"kind": 5, "n": 3}), "search 'kind' must be a string, got 5"),
])
def test_sequential_names_a_malformed_strategy(tmp_path, capsys, override,
                                               message):
    out = tmp_path / "run"
    config = json.loads(open(_sequential_config(tmp_path, out)).read())
    config.update(override)
    path = _config(tmp_path, "bad.json", **config)
    assert main(["sequential", "--config", path]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def no_likelihood(monkeypatch):
    """Any likelihood search fails the test."""
    def fail(*args, **kwargs):
        raise AssertionError("a likelihood search ran")

    monkeypatch.setattr(cokriging, "_ml_fit", fail)


@pytest.mark.parametrize("override, message", [
    (dict(search={"kind": "grid", "n": 0}),
     "grid needs at least one node per dimension"),
    (dict(search={"kind": "random", "n": 0}),
     "need at least one uniform node"),
    (dict(search={"kind": "random", "n": -2, "seed": 3}),
     "need at least one uniform node"),
    (dict(quadrature={"kind": "grid", "n": 0}),
     "grid needs at least one node per dimension"),
    (dict(quadrature={"kind": "monte-carlo", "n": -1}),
     "need at least one uniform node"),
    # the ids the two cases had before the message named its object
    pytest.param(dict(search={"kind": "random", "n": 16, "seed": -1}),
                 "search 'seed' must be a non-negative integer, got -1",
                 id="override5-'seed' must be a non-negative integer, got -1"),
    pytest.param(dict(quadrature={"kind": "monte-carlo", "n": 16, "seed": -1}),
                 "quadrature 'seed' must be a non-negative integer, got -1",
                 id="override6-'seed' must be a non-negative integer, got -1"),
])
def test_sequential_rejects_an_empty_strategy_before_any_fit(
        tmp_path, capsys, no_likelihood, override, message):
    out = tmp_path / "run"
    config = json.loads(open(_sequential_config(tmp_path, out)).read())
    config.update(override)
    path = _config(tmp_path, "bad.json", **config)
    assert main(["sequential", "--config", path]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    (dict(restarts="many"), "'restarts' must be an integer, got 'many'"),
    (dict(restarts=True), "'restarts' must be an integer, got True"),
    (dict(seed="3"), "'seed' must be an integer, got '3'"),
    (dict(seed=2.5), "'seed' must be an integer, got 2.5"),
    (dict(levels=3), "'levels' must be a list of objects, got 3"),
    (dict(search={"kind": "grid", "n": "many"}),
     "search 'n' must be an integer, got 'many'"),
    (dict(search={"kind": "random", "n": 4.0}),
     "search 'n' must be an integer, got 4.0"),
    (dict(search={"kind": "random", "n": 64, "polish": True}),
     "search 'polish' is not a field of a random search"),
    (dict(search={"kind": "random", "n": 64, "sede": 3}),
     "search 'sede' is not a field of a random search"),
    (dict(search={"kind": "random", "n": 64, "seed": None}),
     "search 'seed' must be an integer, got None"),
    (dict(quadrature={"kind": "monte-carlo", "n": [8]}),
     "quadrature 'n' must be an integer, got [8]"),
    (dict(sizes="84"), "'sizes' must be a list of integers, got '84'"),
    (dict(sizes=[8.7, 4]), "'sizes' must be a list of integers, got [8.7, 4]"),
    (dict(sizes=[8, "4"]), "'sizes' must be a list of integers, got [8, '4']"),
    (dict(sizes=8), "'sizes' must be a list of integers, got 8"),
    (dict(problem=3), "'problem' must be a string, got 3"),
    (dict(data_dir=0), "'data_dir' must be a string, got 0"),
    (dict(out=0), "'out' must be a string, got 0"),
    (dict(rule=1), "'rule' must be a string, got 1"),
    (dict(levels={"a": 1}), "'levels' must be a list of objects, got {'a': 1}"),
    (dict(levels=[{"trend": 1}, {}]), "levels[0] 'trend' must be a string, got 1"),
    # a search or quadrature reads its kind's fields and no other
    (dict(search={"kind": "random", "n": 64, "polish": False}),
     "search 'polish' is not a field of a random search"),
    (dict(search={"kind": "grid", "n": 5, "seed": 1}),
     "search 'seed' is not a field of a grid search"),
    (dict(quadrature={"kind": "monte-carlo", "n": 16, "k": 4}),
     "quadrature 'k' is not a field of a monte-carlo quadrature"),
])
def test_sequential_names_a_mistyped_field(tmp_path, capsys, no_likelihood,
                                           override, message):
    out = tmp_path / "run"
    config = json.loads(open(_sequential_config(tmp_path, out)).read())
    config.update(override)
    path = _config(tmp_path, "bad.json", **config)
    assert main(["sequential", "--config", path]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    (dict(budget="abc"), "'budget' must be a number, got 'abc'"),
    (dict(budget=True), "'budget' must be a number, got True"),
    (dict(budget=-1.0), "budget must be positive and finite, got -1.0"),
    (dict(costs="abc"), "'costs' must be a list of numbers, got 'abc'"),
    (dict(costs=[1.0, "5"]), "'costs' must be a list of numbers"),
    (dict(costs=[5.0, 1.0]), "costs must be strictly increasing"),
    (dict(rule="greedy"), "unknown rule 'greedy'"),
    (dict(refit="every-abc"), "unknown refit mode 'every-abc'"),
    (dict(refit="every-0"), "refit period must be a positive integer"),
    (dict(costs=[1.0, 5.0, 10.0]),
     "cost model and model disagree on level count"),
    # three levels of data, and forrester has two level functions
    (dict(data_dir="chain3-data", costs=[1.0, 4.0, 16.0]),
     "need one simulator per level"),
    (dict(data_dir="chain3-data", problem="ripple2d"),
     "the data have dimension 1, problem 'ripple2d' has dimension 2"),
])
def test_sequential_checks_its_loop_settings_before_any_fit(
        tmp_path, capsys, monkeypatch, override, message):
    monkeypatch.chdir(tmp_path)
    chain3 = get_problem("chain3")
    designs = nested_lhs([10, 6, 3], chain3.bounds)
    save_data(MultiFidelityData(designs, [chain3.evaluate(t + 1, x)
                                          for t, x in enumerate(designs)]),
              "chain3-data")
    fits = []
    original = cokriging._ml_fit
    monkeypatch.setattr(cokriging, "_ml_fit", lambda *args: (
        fits.append(1), original(*args))[1])
    out = tmp_path / "run"
    config = json.loads(open(_sequential_config(tmp_path, out)).read())
    config.update(override)
    path = _config(tmp_path, "bad.json", **config)
    assert main(["sequential", "--config", path]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert len(fits) == 0
    assert not out.exists()


@pytest.mark.parametrize("command, fields, message", [
    ("fit", dict(data_dir=0),
     "'data_dir' must be a string, got 0"),
    ("predict", dict(model_dir=0, grid=5, problem="forrester"),
     "'model_dir' must be a string, got 0"),
    ("predict", dict(model_dir="{model}", points_file=0),
     "'points_file' must be a string, got 0"),
    ("predict", dict(model_dir="{model}", grid=5, problem=["forrester"]),
     "'problem' must be a string, got ['forrester']"),
    ("report", dict(trace=0), "'trace' must be a string, got 0"),
    ("report", dict(trace="{trace}", costs="15"),
     "'costs' must be a list of numbers, got '15'"),
    ("report", dict(trace="{trace}", costs=[1.0, 5.0], out=0),
     "'out' must be a string, got 0"),
    ("predict", dict(model_dir="{model}", grid=5, bounds=[["0", True]]),
     "'bounds' must be a list of lists of numbers, got [['0', True]]"),
    ("report", dict(trace="{trace}", costs=[1.0, 5.0, 10.0]),
     "cost model has 3 levels, the trace 2"),
])
def test_a_mistyped_field_is_named_before_any_work(
        tmp_path, fitted_dir, capsys, no_likelihood, command, fields,
        message):
    trace = tmp_path / "trace.csv"
    write_trace(EnrichmentTrace(dimension=1, levels=2), trace)
    paths = {"{model}": str(fitted_dir), "{trace}": str(trace)}
    out = tmp_path / "out"
    config = _config(tmp_path, "bad.json", **{"out": str(out), **{
        key: paths.get(value, value) if isinstance(value, str) else value
        for key, value in fields.items()}})
    assert main([command, "--config", config]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_predict_names_a_mistyped_grid(tmp_path, fitted_dir, capsys):
    config = _config(tmp_path, "pred.json", model_dir=str(fitted_dir),
                     grid="ten", problem="forrester",
                     out=str(tmp_path / "p"))
    assert main(["predict", "--config", config]) == EXIT_VALIDATION
    assert "'grid' must be an integer, got 'ten'" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def _set(t, **fields):
    """An edit of a model.json that sets fields of level t."""
    return lambda sidecar: sidecar["levels"][t - 1].update(fields)


def _one_more(t, key):
    """An edit of a model.json that appends a coefficient to level t's."""
    return lambda sidecar: sidecar["levels"][t - 1][key].append(1.0)


@pytest.mark.parametrize("edit, code, message", [
    (_set(1, lengthscales=True), EXIT_IO,
     "model.json: level 1 'lengthscales' must be a list of numbers, got True"),
    (_set(1, lengthscales=["0.5"]), EXIT_IO,
     "model.json: level 1 'lengthscales' must be a list of numbers, "
     "got ['0.5']"),
    (_set(2, sigma2="2"), EXIT_IO,
     "model.json: level 2 'sigma2' must be a number, got '2'"),
    (lambda sidecar: sidecar["levels"].__setitem__(1, "x"), EXIT_IO,
     "model.json: 'levels' must be a list of objects, got [{"),
    (lambda sidecar: sidecar.update(dimension=7), EXIT_IO,
     "model.json: sidecar has 2 levels in dimension 7, the data 2 in "
     "dimension 1"),
    (lambda sidecar: sidecar["levels"][0].__delitem__("sigma2"), EXIT_IO,
     "model.json: level 1 needs 'sigma2'"),
    (lambda sidecar: [sidecar], EXIT_IO,
     "model.json: content must be a JSON object"),
    (_one_more(1, "beta"), EXIT_VALIDATION,
     "error: level 1: beta has 2 values, its constant basis 1 columns"),
    (_one_more(2, "rho_beta"), EXIT_VALIDATION,
     "error: level 2: rho_beta has 2 values, its constant basis 1 columns"),
    (_one_more(1, "lengthscales"), EXIT_VALIDATION,
     "error: level 1: lengthscales has 2 values, the data dimension is 1"),
    (_set(2, lengthscales=[]), EXIT_VALIDATION,
     "error: level 2: lengthscales has 0 values, the data dimension is 1"),
], ids=["lengthscales-true", "lengthscales-strings", "sigma2-string",
        "level-string", "dimension", "missing-sigma2", "list", "beta-count",
        "rho_beta-count", "lengthscales-count", "lengthscales-empty"])
def test_predict_names_a_bad_model_field(tmp_path, fitted_dir, capsys, edit,
                                         code, message):
    sidecar = json.loads((fitted_dir / "model.json").read_text())
    replaced = edit(sidecar)  # None when the edit is in place
    (fitted_dir / "model.json").write_text(
        json.dumps(sidecar if replaced is None else replaced))
    config = _config(tmp_path, "pred.json", model_dir=str(fitted_dir),
                     grid=5, problem="forrester", out=str(tmp_path / "p"))
    assert main(["predict", "--config", config]) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_sequential_rejects_an_unknown_refit_mode(tmp_path, capsys):
    out = tmp_path / "run"
    config = json.loads(open(_sequential_config(tmp_path, out)).read())
    config["refit"] = "every-abc"
    path = _config(tmp_path, "bad.json", **config)
    assert main(["sequential", "--config", path]) == EXIT_VALIDATION
    assert "unknown refit mode 'every-abc'" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


# ---------------------------------------------------------------------------
# report


def test_report_from_sequential_trace(tmp_path):
    run = tmp_path / "run"
    assert main(["sequential", "--config",
                 _sequential_config(tmp_path, run), "--quiet"]) == EXIT_OK
    out = tmp_path / "report"
    config = _config(tmp_path, "report.json", trace=str(run / "trace.csv"),
                     costs=[1.0, 5.0], out=str(out))
    assert main(["report", "--config", config, "--quiet"]) == EXIT_OK

    curve = (out / "imse_vs_cost.csv").read_text().splitlines()
    trace_rows = (run / "trace.csv").read_text().splitlines()[1:]
    assert curve[0] == "cum_cost,imse"
    assert len(curve) == len(trace_rows) + 2  # header + initial point
    assert curve[1].startswith("0,")

    hist = (out / "level_hist.csv").read_text().splitlines()
    assert hist[0] == "level,count"
    counts = {int(r.split(",")[0]): int(r.split(",")[1]) for r in hist[1:]}
    assert sum(counts.values()) == len(trace_rows)


def test_report_histogram_matches_hand_built_trace(tmp_path):
    trace = EnrichmentTrace(dimension=1, levels=2)
    cum = 0.0
    for i, level in enumerate([1, 2, 1], start=1):
        cum += 1.0 if level == 1 else 6.0
        trace.entries.append(TraceEntry(i, np.array([0.1 * i]), level,
                                        [0.5] * level, 1.0 / i,
                                        1.0 / (i + 1), cum))
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    out = tmp_path / "report"
    config = _config(tmp_path, "report.json", trace=str(path),
                     costs=[1.0, 5.0], out=str(out))
    assert main(["report", "--config", config, "--quiet"]) == EXIT_OK
    hist = (out / "level_hist.csv").read_text().splitlines()
    assert hist[1:] == ["1,2", "2,1"]


def test_report_empty_trace_headers_only(tmp_path):
    trace = EnrichmentTrace(dimension=1, levels=2)
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    out = tmp_path / "report"
    config = _config(tmp_path, "report.json", trace=str(path), out=str(out))
    assert main(["report", "--config", config, "--quiet"]) == EXIT_OK
    assert (out / "imse_vs_cost.csv").read_text() == "cum_cost,imse\n"
    assert (out / "level_hist.csv").read_text() == "level,count\n"


def test_report_rejects_inconsistent_costs(tmp_path, capsys):
    trace = EnrichmentTrace(dimension=1, levels=2)
    trace.entries.append(TraceEntry(1, np.array([0.5]), 2, [1.0, 2.0],
                                    1.0, 0.5, 99.0))
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    config = _config(tmp_path, "report.json", trace=str(path),
                     costs=[1.0, 5.0], out=str(tmp_path / "report"))
    assert main(["report", "--config", config]) == EXIT_VALIDATION
    assert "cumulative cost" in capsys.readouterr().err


def test_report_malformed_trace_is_io_error(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text("iter,x_0,level\n")
    config = _config(tmp_path, "report.json", trace=str(path),
                     out=str(tmp_path / "report"))
    assert main(["report", "--config", config]) == EXIT_IO
    assert "trace.csv:1" in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    "1,0.5,0,,,1.0,0.5,1.0",  # level 0, no values
    "1,0.5,1,,3.0,1.0,0.5,1.0",  # a level-1 value in the value_2 cell
    "1,nan,1,2.0,,1.0,0.5,1.0",  # a non-finite coordinate
    "1,0.5,1,2.0,,1.0,inf,1.0",  # a non-finite IMSE
])
def test_report_rejects_a_row_off_the_cell_layout(tmp_path, capsys,
                                                  no_likelihood, row):
    path = tmp_path / "trace.csv"
    path.write_text("iter,x_0,level,value_1,value_2,imse_before,imse_after,"
                    f"cum_cost\n{row}\n")
    out = tmp_path / "report"
    config = _config(tmp_path, "report.json", trace=str(path), out=str(out))
    assert main(["report", "--config", config]) == EXIT_IO
    assert "trace.csv:2" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# argument plumbing


@pytest.mark.parametrize("error", [TypeError, KeyError])
def test_an_error_outside_the_library_rules_propagates(tmp_path, monkeypatch,
                                                       error):
    # a bug's traceback is not printed as an invalid-config message
    def broken(config, out, quiet):
        raise error("not a config error")

    monkeypatch.setitem(cli._COMMANDS, "fit", broken)
    with pytest.raises(error, match="not a config error"):
        main(["fit", "--config", _fit_config(tmp_path, tmp_path / "out")])


def test_running_out_of_memory_exits_1(tmp_path, monkeypatch, capsys):
    # a size too large to allocate, as "sizes": [10000000, 3] asks for,
    # without allocating it
    def too_large(sizes, bounds, seed=0):
        raise MemoryError("Unable to allocate 728. TiB for an array")

    monkeypatch.setattr(cli, "nested_lhs", too_large)
    out = tmp_path / "out"
    config = _fit_config(tmp_path, out, sizes=(10000000, 3))
    assert main(["fit", "--config", config]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 728. TiB for an array\n")
    assert not out.exists()


def test_missing_config_flag_is_usage_error():
    with pytest.raises(SystemExit):
        main(["fit"])
    with pytest.raises(SystemExit):
        main(["unknown-command", "--config", "x.json"])
