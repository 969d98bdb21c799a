"""Command-line front end: fit, predict, sequential, report.

Every command reads a single JSON config; --seed and --out override the
config's values, so a run is reproducible from the file alone. Exit
codes: 0 success, 1 validation or config error (or a size too large to
allocate), 2 numerical failure, 3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

import numpy as np

from .cokriging import (
    LevelConfig,
    MultiFidelityData,
    fit_multifidelity,
)
from .csvio import _typed, fmt, read_json, write_csv
from .exceptions import (
    FitFailedError,
    IllConditionedError,
    InternalConsistencyError,
    MfkrigError,
    ParseError,
)
from .kernels import BasisSpec, KernelSpec
from .sequential import (
    CostModel,
    Domain,
    Grid,
    Uniform,
    product_grid,
    read_trace,
    run_loop,
    write_trace,
    _as_box,
    _run_settings,
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
                     InternalConsistencyError)
# every other library error is a validation error
_VALIDATION_ERRORS = (ValueError, MfkrigError)


def _options(config, **kinds):
    """The typed fields of ``kinds`` that the config sets, as keyword
    arguments: an absent field keeps the library's default."""
    return {key: _typed(config, key, kind)
            for key, kind in kinds.items() if key in config}


def _check_fields(obj, fields, owner, what) -> None:
    """Name the first key of ``obj`` not in ``fields``, in its order."""
    for name in obj:
        if name not in fields:
            raise ValueError(f"{owner}{name!r} is not a field of {what}")


def _seed(config, owner="") -> int:
    """config's 'seed' (0 if absent), rejected here if negative."""
    seed = _typed(config, "seed", int, 0, owner=owner)
    if seed < 0:
        raise ValueError(
            f"{owner}'seed' must be a non-negative integer, got {seed!r}")
    return seed


def _level_configs(config, data) -> list[LevelConfig]:
    """Level structure from config, by default at every level of the
    data: squared-exponential kernels, constant trends and, above level
    1, constant scalings. The fit checks it against the data."""
    configs = []
    for t, entry in enumerate(
            _typed(config, "levels", list[dict], [{}] * data.levels), start=1):
        owner = f"levels[{t - 1}] "
        _check_fields(entry, ("trend", "kernel", "scaling"), owner, "a level")
        field = partial(_typed, entry, owner=owner)
        scaling = field("scaling", str | None, "constant" if t > 1 else None)
        configs.append(LevelConfig(
            BasisSpec(field("trend", str, "constant"), data.dimension),
            KernelSpec(field("kernel", str, "squared-exponential")),
            None if scaling is None else BasisSpec(scaling, data.dimension)))
    return configs


def _build_data(config, problem) -> MultiFidelityData:
    """Initial data: from a directory of CSVs, or by sampling a nested
    design and running the built-in problem's level functions."""
    if "data_dir" in config:
        return load_data(_typed(config, "data_dir", str))
    if problem is None:
        raise ValueError("config needs 'problem' or 'data_dir'")
    sizes = _typed(config, "sizes", list[int])
    if len(sizes) > problem.level_count:
        raise ValueError("more sizes than problem levels")
    designs = nested_lhs(sizes, problem.bounds, seed=_seed(config))
    observations = [problem.evaluate(t + 1, d) for t, d in enumerate(designs)]
    return MultiFidelityData(designs, observations)


# config key -> kind -> spec
_KINDS = {"search": {"grid": Grid, "random": Uniform},
          "quadrature": {"grid": Grid, "monte-carlo": Uniform}}
# the fields each spec reads besides the kind
_FIELDS = {Grid: ("n",), Uniform: ("n", "seed")}


def _strategy_from(config, key):
    """The search or quadrature that config[key] describes, or None when
    the key is absent. The size is an integer and the seed a non-negative
    one (``_seed``); a field the kind does not read is an error."""
    raw = _typed(config, key, dict, None)
    if raw is None:
        return None
    owner = f"{key} "
    kind = _typed(raw, "kind", str, owner=owner)
    if kind not in _KINDS[key]:
        raise ValueError(f"unknown {key} kind {kind!r}")
    spec = _KINDS[key][kind]
    _check_fields(raw, ("kind", *_FIELDS[spec]), owner, f"a {kind} {key}")
    size = _typed(raw, "n", int, owner=owner)
    if spec is Grid:
        return Grid(size)
    return Uniform(size, _seed(raw, owner))


def _fit(config, data):
    """The model a config describes, fitted to ``data``."""
    return fit_multifidelity(data, _level_configs(config, data),
                             **_options(config, restarts=int),
                             seed=_seed(config))


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
    problem = (get_problem(_typed(config, "problem", str))
               if "problem" in config else None)
    model = _fit(config, _build_data(config, problem))
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
        return load_points(_typed(config, "points_file", str))
    if "grid" not in config:
        raise ValueError("config needs 'points_file' or 'grid'")
    if "bounds" in config:
        bounds = _as_box(_typed(config, "bounds", list[list[float]]))
    elif "problem" in config:
        bounds = get_problem(_typed(config, "problem", str)).bounds
    else:
        raise ValueError("grid prediction needs 'bounds' or 'problem'")
    return product_grid(bounds, _typed(config, "grid", int))


def cmd_predict(config, out, quiet) -> int:
    model = load_model(_typed(config, "model_dir", str))
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
    problem = get_problem(_typed(config, "problem", str))
    search = _strategy_from(config, "search")
    quadrature = _strategy_from(config, "quadrature")
    data = _build_data(config, problem)
    if data.dimension != problem.dimension:
        raise ValueError(f"the data have dimension {data.dimension}, problem "
                         f"{problem.name!r} has dimension {problem.dimension}")
    # the data fix the level count: a prefix of the problem's levels runs
    simulators = [lambda x, t=t: problem.evaluate(t, x)
                  for t in range(1, problem.level_count + 1)][:data.levels]
    cost = CostModel(_typed(config, "costs", list[float],
                            problem.costs[:data.levels]))
    budget = _typed(config, "budget", float)
    settings = _options(config, rule=str, refit=str)
    # the run's settings fail here, before the initial fit searches
    _run_settings(data.levels, cost, budget, simulators, **settings)
    model, trace = run_loop(_fit(config, data), Domain(problem.bounds), cost,
                            budget, simulators, search=search,
                            quadrature=quadrature, **settings)
    os.makedirs(out, exist_ok=True)
    trace_path = os.path.join(out, "trace.csv")
    write_trace(trace, trace_path)
    model_dir = os.path.join(out, "model")
    save_model(model, model_dir)
    if not quiet:
        print(f"{len(trace)} iterations, trace in {trace_path}, "
              f"final model in {model_dir}")
    if not trace.complete:
        print(f"simulator failed; trace is partial: {trace.failure}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_report(config, out, quiet) -> int:
    trace = read_trace(_typed(config, "trace", str))
    if "costs" in config:
        cost = CostModel(_typed(config, "costs", list[float]))
        if cost.levels != trace.levels:
            raise ValueError(f"cost model has {cost.levels} levels, "
                             f"the trace {trace.levels}")
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


def _seed_flag(text) -> int:
    """``--seed``'s value: ASCII digits after an optional "-"."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}")
    return int(text)


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
        p.add_argument("--seed", type=_seed_flag, default=None,
                       help="seed (overrides config)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress informational output")
    args = parser.parse_args(argv)
    try:
        config = read_json(args.config, ValueError)
        if args.seed is not None:
            config["seed"] = args.seed
        if args.out is not None:
            config["out"] = args.out
        out = _typed(config, "out", str, "mfkrig-out")
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
