"""Command-line front end: fit, predict, sequential, report.

Every command reads a single JSON config; --seed and --out override the
config's values, so a run is reproducible from the file alone. Exit
codes: 0 success, 1 validation or config error, 2 numerical failure,
3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .cokriging import (
    LevelConfig,
    MultiFidelityData,
    fit_multifidelity,
)
from .csvio import fmt, read_json, write_csv
from .exceptions import (
    FitFailedError,
    IllConditionedError,
    InternalConsistencyError,
    MfkrigError,
    OracleTooLargeError,
    ParseError,
)
from .kernels import BasisSpec, KernelSpec
from .kriging import _DEFAULT_RESTARTS
from .sequential import (
    IMSE_THRESHOLD,
    LEVEL_RULES,
    REFIT_NEVER,
    CostModel,
    Domain,
    GridQuadrature,
    GridSearch,
    MonteCarloQuadrature,
    MultistartSearch,
    RandomSearch,
    product_grid,
    read_trace,
    run_loop,
    write_trace,
    _as_box,
    _checked_budget,
    _refit_period,
)
from .testbed import (
    get_problem,
    load_data,
    load_model,
    load_points,
    nested_lhs,
    save_model,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

_NUMERICAL_ERRORS = (FitFailedError, IllConditionedError,
                     InternalConsistencyError, OracleTooLargeError)
# every other library error is a validation error
_VALIDATION_ERRORS = (ValueError, KeyError, TypeError, MfkrigError)


class _ConfigError(ValueError):
    """Config file is structurally wrong (missing or mistyped key)."""


def _load_config(path) -> dict:
    config = read_json(path)
    if not isinstance(config, dict):
        raise _ConfigError(f"{path}: config must be a JSON object")
    return config


def _require(config, key):
    if key not in config:
        raise _ConfigError(f"config is missing required key {key!r}")
    return config[key]


_TYPE_NAMES = {int: "an integer", bool: "true or false"}


def _typed(config, key, kind, default=None, owner=""):
    """config[key], exactly of type ``kind`` (int or bool: true is no
    integer, 1 no bool), or ``default`` when the key is absent."""
    value = config.get(key, default)
    if type(value) is not kind:
        raise _ConfigError(
            f"{owner}{key!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _is_number(value) -> bool:
    """A JSON number: true and false are not numbers here."""
    return type(value) in (int, float)


def _loop_settings(config, problem):
    """(budget, cost model, rule, refit) of a sequential config, checked
    before the initial fit so that a bad value costs no likelihood search."""
    budget = _require(config, "budget")
    if not _is_number(budget):
        raise _ConfigError(f"'budget' must be a number, got {budget!r}")
    costs = config.get("costs", problem.costs)
    if not (isinstance(costs, list) and all(map(_is_number, costs))):
        raise _ConfigError(f"'costs' must be a list of numbers, got {costs!r}")
    rule = config.get("rule", IMSE_THRESHOLD)
    if rule not in LEVEL_RULES:
        raise _ConfigError(
            f"'rule' must be one of {', '.join(LEVEL_RULES)}, got {rule!r}")
    refit = config.get("refit", REFIT_NEVER)
    _refit_period(refit)
    return _checked_budget(budget), CostModel(costs), rule, refit


def _level_configs(config, dimension) -> list[LevelConfig]:
    """Level structure from config; defaults are constant bases and a
    squared-exponential kernel at every level. The fit checks the level
    count and layout against the data."""
    raw = config.get("levels")
    if raw is None:
        if config.get("level_count") is None:
            raise _ConfigError("config needs 'levels' or 'level_count'")
        raw = [{} for _ in range(_typed(config, "level_count", int))]
    configs = []
    for t, entry in enumerate(raw, start=1):
        if not isinstance(entry, dict):
            raise _ConfigError(f"levels[{t - 1}] must be an object")
        kernel = KernelSpec(entry.get("kernel", "squared-exponential"))
        trend = BasisSpec(entry.get("trend", "constant"), dimension)
        scaling = entry.get("scaling", "constant" if t > 1 else None)
        spec = None if scaling is None else BasisSpec(scaling, dimension)
        configs.append(LevelConfig(trend=trend, kernel=kernel, scaling=spec))
    return configs


def _build_data(config, problem) -> MultiFidelityData:
    """Initial data: from a directory of CSVs, or by sampling a nested
    design and running the built-in problem's level functions."""
    if "data_dir" in config:
        return load_data(config["data_dir"])
    if problem is None:
        raise _ConfigError("config needs 'problem' or 'data_dir'")
    sizes = _require(config, "sizes")
    designs = nested_lhs(sizes, problem.bounds,
                         seed=_typed(config, "seed", int, 0))
    if len(designs) > problem.level_count:
        raise _ConfigError("more sizes than problem levels")
    observations = [problem.evaluate(t + 1, d) for t, d in enumerate(designs)]
    return MultiFidelityData(designs, observations)


# config kind -> (strategy type, the key that holds its size)
_SEARCH_KINDS = {"grid": (GridSearch, "n"), "random": (RandomSearch, "n"),
                 "multistart": (MultistartSearch, "k")}
_QUADRATURE_KINDS = {"grid": (GridQuadrature, "n"),
                     "monte-carlo": (MonteCarloQuadrature, "n")}


def _strategy_from(config, key, kinds):
    """The search or quadrature that config[key] describes, or None when
    the key is absent. The size is an integer; optional fields (seed,
    polish) have the type of their default."""
    raw = config.get(key)
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise _ConfigError(f"{key} must be an object")
    if raw.get("kind") not in kinds:
        raise _ConfigError(f"unknown {key} kind {raw.get('kind')!r}")
    strategy, size = kinds[raw["kind"]]
    if size not in raw:
        raise _ConfigError(f"{key} needs {size!r}")
    options = {f.name: _typed(raw, f.name, type(f.default), owner=f"{key} ")
               for f in fields(strategy)[1:] if f.name in raw}
    return strategy(_typed(raw, size, int, owner=f"{key} "), **options)


def _fit_from_config(config, problem):
    """The model a config describes; ``problem`` is its built-in problem
    or None."""
    data = _build_data(config, problem)
    return fit_multifidelity(data, _level_configs(config, data.dimension),
                             restarts=_typed(config, "restarts", int,
                                             _DEFAULT_RESTARTS),
                             seed=_typed(config, "seed", int, 0))


def _fit_report(model) -> str:
    lines = []
    for t, level in enumerate(model.levels, start=1):
        lines.append(f"level {t}")
        lines.append(f"  kernel: {level.kernel.family}")
        lines.append("  lengthscales: "
                     + " ".join(fmt(v) for v in level.kernel.lengthscales))
        lines.append(f"  sigma2: {fmt(level.sigma2)}")
        lines.append("  beta: " + " ".join(fmt(v) for v in level.beta))
        if level.rho_beta is not None:
            lines.append("  scaling coefficients: "
                         + " ".join(fmt(v) for v in level.rho_beta))
        lines.append(f"  negative log-likelihood: {fmt(level.nll)}")
    return "".join(line + "\n" for line in lines)


def cmd_fit(config, out, quiet) -> int:
    problem = get_problem(config["problem"]) if "problem" in config else None
    model = _fit_from_config(config, problem)
    os.makedirs(out, exist_ok=True)
    save_model(model, out)
    report = _fit_report(model)
    with open(os.path.join(out, "fit_report.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(report)
    if not quiet:
        print(f"fitted {model.level_count} levels; model written to {out}")
        sys.stdout.write(report)
    return EXIT_OK


def _predict_points(config) -> np.ndarray:
    if "points_file" in config:
        return load_points(config["points_file"])
    if config.get("grid") is None:
        raise _ConfigError("config needs 'points_file' or 'grid'")
    if "bounds" in config:
        bounds = _as_box(config["bounds"])
    elif "problem" in config:
        bounds = get_problem(config["problem"]).bounds
    else:
        raise _ConfigError("grid prediction needs 'bounds' or 'problem'")
    return product_grid(bounds, _typed(config, "grid", int))


def cmd_predict(config, out, quiet) -> int:
    model = load_model(_require(config, "model_dir"))
    points = _predict_points(config)
    s = model.level_count
    d = model.dimension
    header = ([f"x_{j}" for j in range(d)]
              + [f"mean_{t}" for t in range(1, s + 1)]
              + [f"var_{t}" for t in range(1, s + 1)]
              + [f"contrib_{t}" for t in range(1, s + 1)])
    pred = model.predict(points)
    rows = np.hstack([points, pred.means.T, pred.variances.T,
                      pred.contributions.T])
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "predictions.csv")
    write_csv(path, header, rows)
    if not quiet:
        print(f"wrote {points.shape[0]} predictions to {path}")
    return EXIT_OK


def cmd_sequential(config, out, quiet) -> int:
    problem = get_problem(_require(config, "problem"))
    search = _strategy_from(config, "search", _SEARCH_KINDS)
    quadrature = _strategy_from(config, "quadrature", _QUADRATURE_KINDS)
    budget, cost, rule, refit = _loop_settings(config, problem)
    model = _fit_from_config(config, problem)
    simulators = [lambda x, t=t: problem.evaluate(t, x)
                  for t in range(1, problem.level_count + 1)]
    domain = Domain(problem.bounds)
    model, trace = run_loop(model, domain, cost, budget, simulators,
                            rule=rule, search=search, quadrature=quadrature,
                            refit=refit)
    os.makedirs(out, exist_ok=True)
    trace_path = os.path.join(out, "trace.csv")
    write_trace(trace, trace_path)
    model_dir = os.path.join(out, "model")
    save_model(model, model_dir)
    if not quiet:
        print(f"{len(trace)} iterations, trace in {trace_path}, "
              f"final model in {model_dir}")
    if not trace.complete:
        print("simulator failed; trace is partial", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_report(config, out, quiet) -> int:
    trace = read_trace(_require(config, "trace"))
    if "costs" in config:
        cost = CostModel(config["costs"])
        if cost.levels < trace.levels:
            raise ValueError("cost model has fewer levels than the trace")
        cum = 0.0
        for e in trace.entries:
            cum += cost.cost_through(e.level)
            if abs(cum - e.cumulative_cost) > 1e-9 * (1.0 + abs(cum)):
                raise ValueError(
                    f"iteration {e.iteration}: recomputed cumulative cost "
                    f"{cum} does not match stored {e.cumulative_cost}")
    os.makedirs(out, exist_ok=True)

    entries = trace.entries
    curve = os.path.join(out, "imse_vs_cost.csv")
    rows = [(0, entries[0].imse_before)] if entries else []
    rows += [(e.cumulative_cost, e.imse_after) for e in entries]
    write_csv(curve, ["cum_cost", "imse"], rows)

    counts = {t: 0 for t in range(1, trace.levels + 1)}
    for e in entries:
        counts[e.level] += 1
    hist = os.path.join(out, "level_hist.csv")
    write_csv(hist, ["level", "count"], counts.items() if entries else [])
    if not quiet:
        print(f"wrote {curve} and {hist}")
    return EXIT_OK


_COMMANDS = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "sequential": cmd_sequential,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfkrig",
        description="Multi-fidelity kriging: fit, predict, sequential design")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("fit", "fit a model and write its files"),
            ("predict", "evaluate a saved model on a grid or points file"),
            ("sequential", "run the sequential enrichment loop"),
            ("report", "derive plot-ready CSVs from a trace")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None,
                       help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed (overrides config)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress informational output")
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        if args.out is not None:
            config["out"] = args.out
        out = config.get("out", "mfkrig-out")
        return _COMMANDS[args.command](config, out, args.quiet)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
