"""The three benchmark workloads: ``fit``, ``loop-frozen`` and ``cli``.

Every workload is a closed loop with one client in one process. Each
runs the same fixed work on every pass and checks the outputs of every
pass (the checks are not timed). The datasets are a fixed list: fit
time and fitted quality differ several-fold from one dataset seed to
the next, which no bound on a seed-to-seed spread could absorb. The run
seed orders the operations and draws the probes of the model checks.
README.md beside this file says why each workload was chosen.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from clock import Meter
from mfkrig.cli import main as cli_main
from mfkrig.cokriging import (
    LevelConfig,
    LevelParameters,
    MultiFidelityData,
    MultiFidelityModel,
    extended_trend_matrix,
    fit_multifidelity,
)
from mfkrig.kernels import BasisSpec, KernelSpec, basis_matrix, correlation_matrix
from mfkrig.kriging import chol_nugget, gls_fit
import mfkrig.sequential as sequential
from mfkrig.sequential import (
    CostModel,
    Domain,
    GridQuadrature,
    GridSearch,
    compute_imse,
    read_trace,
    run_loop,
)
from mfkrig.testbed import get_problem, load_model, nested_lhs, save_model

SE = "squared-exponential"
M52 = "matern-5/2"

# Tolerances of the output checks.
INTERP_MEAN_REL = 1e-8      # mean at a design point vs the data, scaled
INTERP_VAR_REL = 1e-10      # variance at a design point vs the prior scale
CONTRIB_REL = 1e-10         # |sum of contributions - variance| vs prior scale
IMSE_MONOTONE_SHARE = 0.9   # share of loop iterations that must not raise IMSE
IMSE_FINAL_SHARE = 0.2      # final IMSE must be at most this times the first

PROBE_POINTS = 2000         # random probes for RMSE and the variance split
DATASET_SEED = 0            # root of the fixed dataset list
RMSE_PROBE_SEED = 0         # RMSE uses one fixed probe set per problem


def sub_seed(seed, *tags) -> int:
    """Independent 32-bit seed derived from ``seed`` and the tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def level_configs(levels, dimension, kernel, trend):
    """Same kernel and trend at every level, constant scaling above level 1."""
    return [LevelConfig(BasisSpec(trend, dimension), KernelSpec(kernel),
                        None if t == 0 else BasisSpec("constant", dimension))
            for t in range(levels)]


def problem_data(problem, sizes, seed) -> MultiFidelityData:
    designs = nested_lhs(sizes, problem.bounds, seed=seed)
    return MultiFidelityData(
        designs, [problem.evaluate(t + 1, d) for t, d in enumerate(designs)])


def mean(values) -> float:
    """Order-independent mean, so operation order cannot move a metric."""
    values = list(values)
    return math.fsum(values) / len(values)


def probe_points(problem, seed) -> np.ndarray:
    return Domain(problem.bounds).uniform_points(
        PROBE_POINTS, np.random.default_rng(sub_seed(seed, 99)))


def rmse_probes(problem) -> np.ndarray:
    return probe_points(problem, RMSE_PROBE_SEED)


def top_rmse(model, problem, probes) -> float:
    """RMSE of the top-level mean against the problem's top-level code."""
    err = model.predict(probes).means[-1] - problem.evaluate(
        problem.level_count, probes)
    return float(np.sqrt(np.mean(err ** 2)))


def prior_scales(model) -> list:
    """Per-level prior variance scale: sigma2_t + max rho^2 * scale_{t-1}."""
    scales = []
    for t, lev in enumerate(model.levels):
        scale = lev.sigma2
        if t:
            rho = basis_matrix(lev.scaling, lev.design) @ lev.rho_beta
            scale += float(np.max(rho ** 2)) * scales[-1]
        scales.append(scale)
    return scales


def check_model(model, probes) -> list:
    """Failures of the model identities: interpolation at every level's
    design points, contributions summing to the variance, finite
    parameters. An empty list means the model passed."""
    failures = []
    scales = prior_scales(model)
    for t, lev in enumerate(model.levels):
        values = [lev.kernel.lengthscales, [lev.sigma2], lev.beta]
        if lev.rho_beta is not None:
            values.append(lev.rho_beta)
        if not all(np.all(np.isfinite(v)) for v in values):
            failures.append(f"level {t + 1}: non-finite parameter")
        out = model.predict(lev.design)
        y = model.data.observations[t]
        gap = float(np.max(np.abs(out.means[t] - y)))
        if gap > INTERP_MEAN_REL * max(1.0, float(np.max(np.abs(y)))):
            failures.append(f"level {t + 1}: mean misses the data by {gap:.3e}")
        worst = float(np.max(out.variances[t]))
        if worst > INTERP_VAR_REL * scales[t]:
            failures.append(
                f"level {t + 1}: variance {worst:.3e} at a design point")
    out = model.predict(probes)
    gap = float(np.max(np.abs(out.contributions.sum(axis=0) - out.variance)))
    if gap > CONTRIB_REL * scales[-1]:
        failures.append(f"contributions miss the variance by {gap:.3e}")
    return failures


def model_fingerprint(model) -> tuple:
    """Bytes of every fitted parameter and stored factor."""
    parts = []
    for lev in model.levels:
        for a in (lev.kernel.lengthscales, lev.beta, lev.rho_beta, lev.chol,
                  lev.alpha, [lev.sigma2], [lev.nll]):
            parts.append(b"" if a is None else np.asarray(a, float).tobytes())
    return tuple(parts)


def frozen_nll(model) -> float:
    """Sum over levels of the concentrated NLL, (n - p) log sigma2_hat +
    log det R, at the model's lengthscales; frozen refits store none."""
    total = 0.0
    for t, (lev, config) in enumerate(zip(model.levels, model.configs)):
        design, y = lev.design, lev.y
        if t == 0:
            f = basis_matrix(config.trend, design)
        else:
            f = extended_trend_matrix(config, design, lev.lower_values)
        r = correlation_matrix(lev.kernel, design)
        _, sigma2 = gls_fit(r, f, y)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol_nugget(r)))))
        total += (len(y) - f.shape[1]) * np.log(sigma2) + logdet
    return float(total)


@dataclass
class PassResult:
    """One pass: what the checks need, and its timed segments as
    (seconds, is an operation) and, scaled, in reference seconds."""

    outputs: object
    failed_ops: int = 0
    failures: list = field(default_factory=list)
    segments: list = field(default_factory=list)
    scaled_segments: list = field(default_factory=list)
    wall: float = 0.0

    @property
    def op_times(self) -> list:
        return [t for t, op in self.segments if op]

    def timed_by(self, meter) -> "PassResult":
        self.segments = [(t, op) for _, _, t, op in meter.segments]
        self.scaled_segments = [(t * c, op) for (t, op), c in zip(
            self.segments, meter.scales())]
        self.wall = math.fsum(t for t, _ in self.segments)
        return self


def measured_pass(wl) -> PassResult:
    """One pass of ``wl`` under a Meter."""
    with Meter() as meter:
        result = wl.run_pass(meter)
    return result.timed_by(meter)


def timed_pass(run) -> PassResult:
    """Wall time of a traced pass, in seconds."""
    t0 = time.perf_counter()
    result = run()
    result.wall = time.perf_counter() - t0
    return result


# ---------------------------------------------------------------------------
# fit: fit_multifidelity over a fixed list of (dataset, seed) pairs


@dataclass
class FitInstance:
    problem: object
    data: MultiFidelityData
    configs: list
    seed: int
    probes: np.ndarray


class FitWorkload:
    """Repeated ``fit_multifidelity`` calls; the likelihood engine's workload.

    The small cases run several times per pass, each with its own design
    and restart seed, so that the one large case does not swamp them.
    """

    name = "fit"
    # (problem, sizes, kernel, trend, fits per pass)
    CASES = {
        "full": [("forrester", [12, 6], SE, "constant", 4),
                 ("chain3", [20, 10, 5], M52, "constant", 4),
                 ("ripple2d", [40, 15], SE, "linear", 2),
                 ("ripple2d", [150, 50], M52, "linear", 1)],
        "smoke": [("forrester", [8, 4], SE, "constant", 1),
                  ("chain3", [10, 6, 3], M52, "constant", 1),
                  ("ripple2d", [12, 6], SE, "linear", 1),
                  ("ripple2d", [20, 8], M52, "linear", 1)],
    }

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.instances = []

    def design_sizes(self):
        return [(get_problem(c[0]), c[1]) for c in self.CASES[self.scale]]

    def setup(self):
        for c, (name, sizes, kernel, trend, count) in enumerate(
                self.CASES[self.scale]):
            problem = get_problem(name)
            probes = probe_points(problem, self.seed)
            for i in range(count):
                s = sub_seed(DATASET_SEED, c, i)
                self.instances.append(FitInstance(
                    problem, problem_data(problem, sizes, s),
                    level_configs(len(sizes), problem.dimension, kernel, trend),
                    s, probes))
        self.order = np.random.default_rng(self.seed).permutation(
            len(self.instances))
        # warm-up: the likelihood's lazy scipy imports and first factorizations
        import scipy.optimize  # noqa: F401  (imported lazily by the fit)
        for inst in self.instances:
            correlation_matrix(KernelSpec(SE, np.ones(inst.problem.dimension)),
                               inst.data.designs[0])

    def run_pass(self, meter) -> PassResult:
        models = [None] * len(self.instances)
        failed = 0
        for k in self.order:
            inst = self.instances[k]
            try:
                models[k] = fit_multifidelity(inst.data, inst.configs,
                                              seed=inst.seed)
            except Exception:  # an operation that raises counts as failed
                failed += 1
            meter.mark()
        return PassResult(models, failed_ops=failed)

    def check(self, result: PassResult):
        for k, (inst, model) in enumerate(zip(self.instances, result.outputs)):
            if model is None:
                result.failures.append(f"fit {k} raised")
                continue
            bad = check_model(model, inst.probes)
            if bad:
                result.failed_ops += 1
                result.failures += [f"fit {k}: {b}" for b in bad]

    def fingerprint(self, result):
        return tuple(None if m is None else model_fingerprint(m)
                     for m in result.outputs)

    def quality(self, result) -> dict:
        pairs = list(zip(self.instances, result.outputs))
        return {
            "nll_sum": math.fsum(lev.nll for _, m in pairs for lev in m.levels),
            "rmse": mean(top_rmse(m, i.problem, rmse_probes(i.problem))
                         for i, m in pairs),
            "imse_final": mean(compute_imse(m, Domain(i.problem.bounds))
                               for i, m in pairs),
        }


# ---------------------------------------------------------------------------
# loop-frozen: run_loop with frozen hyperparameters on ripple2d

# Taken once from fit_multifidelity on the workload's own design
# (ripple2d, nested_lhs([30, 10], seed=0)), squared-exponential kernel,
# constant trend and scaling, fit seed 0. Fixed here so the workload
# runs no likelihood code.
FROZEN_PARAMETERS = [
    dict(lengthscales=[0.5320091, 0.82587923], sigma2=1.277221225163521,
         beta=[0.23607866]),
    dict(lengthscales=[9.23880525, 8.43991112], sigma2=2.5879879878327943,
         beta=[0.31847669], rho_beta=[1.25006184]),
]


class LoopWorkload:
    """One frozen ``run_loop`` per pass; the search/IMSE/enrich workload."""

    name = "loop-frozen"
    PROBLEM = "ripple2d"
    RULE = "imse-threshold"
    SETTINGS = {  # sizes, budget, search, quadrature (None: library default)
        "full": dict(sizes=[30, 10], budget=60.0, search=None, quadrature=None),
        "smoke": dict(sizes=[30, 10], budget=20.0, search=GridSearch(41),
                      quadrature=GridQuadrature(16)),
    }

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.settings = self.SETTINGS[scale]
        self.workdir = workdir

    def design_sizes(self):
        return [(get_problem(self.PROBLEM), self.settings["sizes"])]

    def setup(self):
        self.problem = problem = get_problem(self.PROBLEM)
        data = problem_data(problem, self.settings["sizes"], DATASET_SEED)
        self.configs = level_configs(2, 2, SE, "constant")
        self.model0 = MultiFidelityModel.from_parameters(
            data, self.configs,
            [LevelParameters(**p) for p in FROZEN_PARAMETERS])
        self.domain = Domain(problem.bounds)
        self.cost = CostModel(problem.costs)
        self.simulators = [lambda x, t=t: problem.evaluate(t, x)
                           for t in range(1, problem.level_count + 1)]
        self.probes = probe_points(problem, self.seed)
        compute_imse(self.model0, self.domain, self.settings["quadrature"])

    def loop_args(self):
        s = self.settings
        return dict(model=self.model0, domain=self.domain, cost=self.cost,
                    budget=s["budget"], simulators=self.simulators,
                    rule=self.RULE, search=s["search"],
                    quadrature=s["quadrature"])

    def run_pass(self, meter) -> PassResult:
        # run_loop calls compute_imse once before the loop and once at the
        # end of every iteration, so its returns delimit the iterations.
        original = sequential.compute_imse
        calls = []

        def delimited(*args, **kwargs):
            value = original(*args, **kwargs)
            meter.mark(operation=bool(calls))
            calls.append(None)
            return value

        sequential.compute_imse = delimited
        try:
            outputs = run_loop(**self.loop_args(), refit="never")
        except Exception:
            outputs = None
        finally:
            sequential.compute_imse = original
        # the search and level choice that end the loop; an attempt that
        # raised counts as one failed operation
        meter.mark(operation=outputs is None)
        return PassResult(outputs, failed_ops=int(outputs is None))

    def check(self, result: PassResult):
        if result.outputs is None:
            result.failures.append("run_loop raised")
            return
        model, trace = result.outputs
        entries = trace.entries
        bad = check_model(model, self.probes)
        if not trace.complete or not entries:
            bad.append("trace incomplete or empty")
        else:
            down = sum(e.imse_after <= e.imse_before for e in entries)
            if down < IMSE_MONOTONE_SHARE * len(entries):
                bad.append(f"IMSE fell on only {down}/{len(entries)} iterations")
            if entries[-1].imse_after > IMSE_FINAL_SHARE * entries[0].imse_before:
                bad.append("final IMSE above "
                           f"{IMSE_FINAL_SHARE} x the initial IMSE")
        if bad:
            result.failed_ops = max(1, len(result.op_times))
            result.failures += bad

    def fingerprint(self, result):
        return None if result.outputs is None else trace_fingerprint(
            result.outputs[1])

    def quality(self, result) -> dict:
        model, trace = result.outputs
        return {"nll_sum": frozen_nll(model),
                "rmse": top_rmse(model, self.problem, rmse_probes(self.problem)),
                "imse_final": float(trace.entries[-1].imse_after)}


def trace_fingerprint(trace) -> tuple:
    return tuple((e.iteration, e.x.tobytes(), e.level, tuple(e.values),
                  e.imse_before, e.imse_after, e.cumulative_cost)
                 for e in trace.entries) + (trace.complete,)


# ---------------------------------------------------------------------------
# cli: fit, predict, sequential, report through mfkrig.cli.main


@dataclass
class CliCase:
    problem: str
    sizes: list
    grid: int                   # nodes per dimension of the predict grid
    sequential: dict            # extra keys of the sequential config
    kernel: str = SE
    seed: int = DATASET_SEED    # config seed: design and restarts


class CliWorkload:
    """The four CLI commands on each built-in problem, in process."""

    name = "cli"
    COMMANDS = ("fit", "predict", "sequential", "report")
    CASES = {
        "full": [
            CliCase("forrester", [12, 6], 10001,
                    dict(refit="always", budget=10)),
            CliCase("ripple2d", [20, 8], 101,
                    dict(refit="every-4", budget=8)),
            CliCase("chain3", [20, 10, 5], 10001,
                    dict(refit="always", rule="cost-weighted", budget=8),
                    kernel=M52),
        ],
        "smoke": [
            CliCase("forrester", [8, 4], 101, dict(refit="always", budget=6)),
            CliCase("ripple2d", [12, 6], 11, dict(refit="every-4", budget=8)),
            CliCase("chain3", [10, 6, 3], 101,
                    dict(refit="always", rule="cost-weighted", budget=6),
                    kernel=M52),
        ],
    }

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        cases = self.CASES[scale]
        order = np.random.default_rng(seed).permutation(len(cases))
        self.cases = [cases[k] for k in order]
        self.workdir = workdir

    def design_sizes(self):
        return [(get_problem(c.problem), c.sizes) for c in self.cases]

    def case_dir(self, case, *parts):
        return os.path.join(self.workdir, case.problem, *parts)

    def config_path(self, case, command):
        return self.case_dir(case, f"{command}.json")

    def fit_config(self, case):
        levels = [{"kernel": case.kernel} for _ in case.sizes]
        return {"problem": case.problem, "sizes": case.sizes, "levels": levels,
                "seed": case.seed}

    def setup(self):
        self.problems = {}
        for case in self.cases:
            problem = get_problem(case.problem)
            self.problems[case.problem] = problem
            os.makedirs(self.case_dir(case), exist_ok=True)
            base = self.fit_config(case)
            configs = {
                "fit": {**base, "out": self.case_dir(case, "fit")},
                "predict": {"model_dir": self.case_dir(case, "fit"),
                            "problem": case.problem, "grid": case.grid,
                            "out": self.case_dir(case, "predict")},
                "sequential": {**base, **case.sequential,
                               "out": self.case_dir(case, "sequential")},
                "report": {"trace": self.case_dir(case, "sequential",
                                                  "trace.csv"),
                           "costs": problem.costs,
                           "out": self.case_dir(case, "report")},
            }
            for command, config in configs.items():
                with open(self.config_path(case, command), "w",
                          encoding="utf-8") as fh:
                    json.dump(config, fh)

    def run_command(self, case, command) -> int:
        try:
            return cli_main([command, "--config",
                             self.config_path(case, command), "--quiet"])
        except Exception:
            return -1

    def run_pass(self, meter) -> PassResult:
        codes = []
        for case in self.cases:
            for command in self.COMMANDS:
                codes.append(self.run_command(case, command))
                meter.mark()
        return PassResult(codes)

    def command_times(self, op_times) -> dict:
        """Per command, its time summed over the problems."""
        n = len(self.COMMANDS)
        return {c: math.fsum(op_times[k::n]) for k, c in enumerate(self.COMMANDS)}

    def check(self, result: PassResult):
        n = len(self.COMMANDS)
        failed = set()
        for op, rc in enumerate(result.outputs):
            if rc != 0:
                failed.add(op)
                result.failures.append(
                    f"{self.cases[op // n].problem} {self.COMMANDS[op % n]} "
                    f"exited {rc}")
        for k, case in enumerate(self.cases):
            if result.outputs[k * n] != 0 or result.outputs[k * n + 1] != 0:
                continue
            if not self.round_trip_identical(case):
                failed.add(k * n)
                result.failures.append(
                    f"{case.problem}: save/load/save is not byte-identical")
            points = case.grid ** self.problems[case.problem].dimension
            with open(self.case_dir(case, "predict", "predictions.csv"),
                      encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != points:
                failed.add(k * n + 1)
                result.failures.append(
                    f"{case.problem}: predictions.csv has {rows} rows, "
                    f"expected {points}")
        result.failed_ops = len(failed)

    def round_trip_identical(self, case) -> bool:
        source = self.case_dir(case, "fit")
        copy = self.case_dir(case, "round-trip")
        shutil.rmtree(copy, ignore_errors=True)
        try:
            save_model(load_model(source), copy)
        except Exception:
            return False
        names = sorted(os.listdir(copy))
        return all(_read_bytes(os.path.join(source, f))
                   == _read_bytes(os.path.join(copy, f)) for f in names)

    def fingerprint(self, result):
        files = []
        for case in sorted(self.cases, key=lambda c: c.problem):
            for rel in (("fit", "model.json"), ("sequential", "trace.csv"),
                        ("sequential", "model", "model.json")):
                path = self.case_dir(case, *rel)
                files.append(_read_bytes(path) if os.path.exists(path) else b"")
        return sorted(result.outputs), tuple(files)

    def quality(self, result) -> dict:
        nlls, rmses, imses = [], [], []
        for case in self.cases:
            with open(self.case_dir(case, "fit", "fit_report.txt"),
                      encoding="utf-8") as fh:
                nlls += [float(line.split(":", 1)[1]) for line in fh
                         if "negative log-likelihood:" in line]
            problem = self.problems[case.problem]
            model = load_model(self.case_dir(case, "sequential", "model"))
            rmses.append(top_rmse(model, problem, rmse_probes(problem)))
            trace = read_trace(self.case_dir(case, "sequential", "trace.csv"))
            imses.append(trace.entries[-1].imse_after)
        return {"nll_sum": math.fsum(nlls), "rmse": mean(rmses),
                "imse_final": mean(imses)}


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


WORKLOADS = {w.name: w for w in (FitWorkload, LoopWorkload, CliWorkload)}

