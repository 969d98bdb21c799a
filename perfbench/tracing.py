"""The traced run: spans around calls into each layer, counters, layer probes.

Spans (name, start, end, parent, operation id) are recorded by this
file around calls into public functions and methods of mfkrig; nothing
inside the library is changed. They are kept in memory and written out
when the run ends. Counters come from wrappers installed only for the
traced pass and removed after it.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.optimize

from mfkrig.cokriging import MultiFidelityModel, fit_level
from mfkrig.kernels import (
    BasisSpec,
    KernelSpec,
    add_matched_nugget,
    basis_matrix,
    correlation_matrix,
    cross_correlation,
)
from mfkrig.kriging import (
    KrigingProblem,
    chol_nugget,
    concentrated_nll,
    gls_fit,
    variance_factor,
)
from mfkrig.sequential import (
    CostModel,
    Domain,
    EnrichmentTrace,
    TraceEntry,
    argmax_variance,
    choose_level,
    compute_imse,
    enrich,
    product_grid,
    read_trace,
    write_trace,
)
from mfkrig.testbed import get_problem, load_model, nested_lhs, save_model

from workloads import (
    DATASET_SEED,
    M52,
    SE,
    CliWorkload,
    FitWorkload,
    LoopWorkload,
    PassResult,
    level_configs,
    measured_pass,
    model_fingerprint,
    problem_data,
    sub_seed,
    timed_pass,
    trace_fingerprint,
)

PROBE_ITERATIONS = 3  # loop iterations replayed on a workload's reference model

# Likelihood probes: n -> (problem, kernel, trend, lengthscales). The
# sizes are those of the fit workload's cases; lengthscales are fixed
# so every workload times the same evaluation.
LIKELIHOOD_PROBES = {
    12: ("forrester", SE, "constant", [0.2]),
    40: ("ripple2d", SE, "linear", [0.3, 0.4]),
    150: ("ripple2d", M52, "linear", [0.3, 0.4]),
}


class Tracer:
    """In-memory span recorder; spans nest through a stack."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation id]
        self._stack = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self, name) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict:
        """Total self time per span name: duration minus child spans."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        total = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start - child[k]
        return dict(total)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


@contextlib.contextmanager
def _patched(owner, attr, wrap):
    original = getattr(owner, attr)
    setattr(owner, attr, wrap(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextlib.contextmanager
def instrumented(tracer, counts):
    """Count predict/lookahead calls and likelihood evaluations; span the
    model methods the loop calls."""

    def predict(original):
        def wrapper(self, x):
            counts["predict.calls"] += 1
            counts["predict.points"] += 1 if np.ndim(x) == 1 else len(x)
            with tracer.span("cokriging.predict"):
                return original(self, x)
        return wrapper

    def lookahead(original):
        def wrapper(self, x, level):
            counts["hypothetical_variance_after.calls"] += 1
            with tracer.span("cokriging.hypothetical_variance_after"):
                return original(self, x, level)
        return wrapper

    def refit(original):
        def wrapper(self, data):
            with tracer.span("cokriging.refit"):
                return original(self, data)
        return wrapper

    def minimize(original):
        # kriging._ml_fit imports minimize at call time, so it sees this
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counts["nfev"] += int(result.nfev)
            return result
        return wrapper

    with contextlib.ExitStack() as stack:
        stack.enter_context(_patched(MultiFidelityModel, "predict", predict))
        stack.enter_context(_patched(MultiFidelityModel,
                                     "hypothetical_variance_after", lookahead))
        stack.enter_context(_patched(MultiFidelityModel, "refit", refit))
        stack.enter_context(_patched(scipy.optimize, "minimize", minimize))
        yield


def per_call(fn, target=0.02, repeats=5) -> float:
    """Median seconds per call over ``repeats`` batches of ~``target`` s."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    k = max(1, int(target / max(first, 1e-7)))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(k):
            fn()
        samples.append((time.perf_counter() - t0) / k)
    return float(statistics.median(samples))


def fit_by_level(data, configs, seed, tracer):
    """fit_multifidelity spelled out level by level with one shared
    generator, each fit_level call in its own span."""
    rng = np.random.default_rng(seed)
    levels = []
    for t in range(1, data.levels + 1):
        with tracer.span("cokriging.fit_level"):
            levels.append(fit_level(t, data, configs[t - 1], seed=rng))
    return MultiFidelityModel(levels, data, configs)


def replay_loop(tracer, model, domain, cost, budget, simulators,
                rule="imse-threshold", search=None, quadrature=None,
                max_iterations=None):
    """run_loop with frozen hyperparameters, spelled out through the
    public calls it makes, each in its own span. Returns (model, trace)."""
    trace = EnrichmentTrace(dimension=domain.dimension,
                            levels=model.level_count)
    cum = 0.0
    iteration = 0
    tracer.op = 0
    with tracer.span("sequential.compute_imse"):
        imse = compute_imse(model, domain, quadrature)
    while max_iterations is None or iteration < max_iterations:
        tracer.op = iteration + 1
        with tracer.span("sequential.argmax_variance"):
            x = argmax_variance(model, domain, search,
                                exclude=model.data.designs[0])
        if x is None:
            break
        with tracer.span("sequential.choose_level"):
            level = choose_level(model, x, imse, cost, rule)
        step = cost.cost_through(level)
        if cum + step > budget:
            break
        iteration += 1
        with tracer.span("sequential.simulator"):
            values = [float(np.asarray(simulators[t](x[None, :])).reshape(-1)[0])
                      for t in range(level)]
        with tracer.span("sequential.enrich"):
            model = enrich(model, x, level, values=values)
        cum += step
        with tracer.span("sequential.compute_imse"):
            imse_after = compute_imse(model, domain, quadrature)
        trace.entries.append(TraceEntry(iteration, x, level, values,
                                        imse, imse_after, cum))
        imse = imse_after
    return model, trace


def probe_iterations(tracer, model, problem):
    """A few frozen loop iterations from ``model`` with default search."""
    return replay_loop(tracer, model, Domain(problem.bounds),
                       CostModel(problem.costs), float("inf"),
                       _simulators(problem), max_iterations=PROBE_ITERATIONS)


def _simulators(problem):
    return [lambda x, t=t: problem.evaluate(t, x)
            for t in range(1, problem.level_count + 1)]


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


# ---------------------------------------------------------------------------
# traced passes, one per workload. Each returns the pass's wall time, its
# own metrics, the counts over its loop iterations, the iteration count,
# a reference model with its problem and a trace for the layer probes,
# and the identity failures.


def traced_fit(wl: FitWorkload, tracer, counts, untraced):
    failures = []

    def run():
        models = []
        with instrumented(tracer, counts):
            for k, inst in enumerate(wl.instances):
                tracer.op = k
                with tracer.span("fit.operation"):
                    models.append(fit_by_level(inst.data, inst.configs,
                                               inst.seed, tracer))
        return PassResult(models)

    result = timed_pass(run)
    for k, (a, b) in enumerate(zip(result.outputs, untraced.outputs)):
        if b is None or model_fingerprint(a) != model_fingerprint(b):
            failures.append(f"fit {k}: level-by-level fit differs from "
                            "fit_multifidelity")
    k, inst = next((k, i) for k, i in enumerate(wl.instances)
                   if i.problem.dimension == 2)
    reference = result.outputs[k]
    fits = len(wl.instances)
    with instrumented(tracer, counts):
        start = Counter(counts)
        _, trace = probe_iterations(tracer, reference, inst.problem)
        loop_counts = Counter(counts) - start
    metrics = {"kriging.nll_evals_per_fit": counts["nfev"] / fits,
               "sequential.iterations": len(trace)}
    return (result.wall, metrics, loop_counts, len(trace), reference,
            inst.problem, trace, failures)


def traced_loop(wl: LoopWorkload, tracer, counts, untraced):
    failures = []

    def run():
        with instrumented(tracer, counts):
            args = wl.loop_args()
            return PassResult(replay_loop(tracer, **args))

    result = timed_pass(run)
    model, trace = result.outputs
    if trace_fingerprint(trace) != trace_fingerprint(untraced.outputs[1]):
        failures.append("loop replay differs from run_loop")
    loop_counts = Counter(counts)
    # Off the loop path: the kind of seed fit the frozen parameters came from.
    with instrumented(tracer, counts):
        start = counts["nfev"]
        fit_by_level(wl.model0.data, wl.configs, DATASET_SEED, tracer)
        nfev = counts["nfev"] - start
    metrics = {"kriging.nll_evals_per_fit": nfev,
               "sequential.iterations": len(trace)}
    return (result.wall, metrics, loop_counts, len(trace), model, wl.problem,
            trace, failures)


def traced_cli(wl: CliWorkload, tracer, counts, untraced):
    failures = []
    loop_counts = Counter()
    run_command = wl.run_command

    def spanned(case, command):
        start = Counter(counts)
        with tracer.span(f"cli.{command}"):
            rc = run_command(case, command)
        if command == "sequential":
            loop_counts.update(Counter(counts) - start)
        return rc

    wl.run_command = spanned
    try:
        with instrumented(tracer, counts):
            result = measured_pass(wl)
    finally:
        del wl.run_command
    wl.check(result)
    failures += result.failures
    if wl.fingerprint(result) != untraced.fingerprint:
        failures.append("traced CLI outputs differ from the untraced pass")
    iterations = 0
    fits = 0
    for case in wl.cases:
        trace = read_trace(wl.case_dir(case, "sequential", "trace.csv"))
        iterations += len(trace)
        refit = case.sequential["refit"]
        period = 1 if refit == "always" else int(refit.split("-", 1)[1])
        fits += 2 + len(trace) // period  # fit command, loop's initial fit
    nfev = counts["nfev"]
    # Identity: the CLI's saved fit equals a level-by-level fit of the
    # same data, built the way the CLI builds it.
    for case in wl.cases:
        problem = wl.problems[case.problem]
        config = wl.fit_config(case)
        data = problem_data(problem, case.sizes, config["seed"])
        configs = level_configs(len(case.sizes), problem.dimension,
                                case.kernel, "constant")
        mine = fit_by_level(data, configs, config["seed"], tracer)
        saved = load_model(wl.case_dir(case, "fit"))
        if not all(_same_parameters(a, b)
                   for a, b in zip(mine.levels, saved.levels)):
            failures.append(f"{case.problem}: CLI fit differs from a "
                            "level-by-level fit")
    case = next(c for c in wl.cases if c.problem == "ripple2d")
    reference = load_model(wl.case_dir(case, "sequential", "model"))
    trace = read_trace(wl.case_dir(case, "sequential", "trace.csv"))
    metrics = {"kriging.nll_evals_per_fit": nfev / fits,
               "sequential.iterations": iterations,
               "testbed.bytes_written": sum(
                   _dir_bytes(wl.case_dir(c, d)) for c in wl.cases
                   for d in ("fit", "predict", "sequential", "report"))}
    # Per-iteration phase timings come from a replay on the final model.
    with instrumented(tracer, Counter()):
        probe_iterations(tracer, reference, wl.problems["ripple2d"])
    return (result.wall, metrics, loop_counts, iterations, reference,
            wl.problems["ripple2d"], trace, failures)


def _same_parameters(a, b) -> bool:
    pairs = [(a.kernel.lengthscales, b.kernel.lengthscales),
             ([a.sigma2], [b.sigma2]), (a.beta, b.beta)]
    if a.rho_beta is not None or b.rho_beta is not None:
        if a.rho_beta is None or b.rho_beta is None:
            return False
        pairs.append((a.rho_beta, b.rho_beta))
    return all(np.array_equal(np.asarray(x, float), np.asarray(y, float))
               for x, y in pairs)


TRACED_PASSES = {"fit": traced_fit, "loop-frozen": traced_loop,
                 "cli": traced_cli}


# ---------------------------------------------------------------------------
# layer probes: public functions timed directly on the workload's data


def layer_probes(wl, seed, reference, problem, trace) -> dict:
    m = {}
    lev = reference.levels[0]
    nodes = 101 if problem.dimension == 2 else 10001
    grid = product_grid(problem.bounds, nodes)
    per10k = len(grid) / 10000.0
    c = cross_correlation(lev.kernel, lev.design, grid)
    ms10k = 1e3 / per10k
    m["kernels.cross_correlation.per10k.ms"] = ms10k * per_call(
        lambda: cross_correlation(lev.kernel, lev.design, grid))
    m["kernels.add_matched_nugget.per10k.ms"] = ms10k * per_call(
        lambda: add_matched_nugget(c, lev.design, grid))
    m["kriging.variance_factor.per10k.ms"] = ms10k * per_call(
        lambda: variance_factor(lev.chol, c))
    m["cokriging.predict.per10k.ms"] = ms10k * per_call(
        lambda: reference.predict(grid))
    m["cokriging.refit.ms"] = 1e3 * per_call(
        lambda: reference.refit(reference.data))

    for n, (name, kernel, trend, theta) in LIKELIHOOD_PROBES.items():
        p = get_problem(name)
        design = nested_lhs([n], p.bounds, seed=sub_seed(DATASET_SEED, n))[0]
        y = p.evaluate(1, design)
        basis = BasisSpec(trend, p.dimension)
        spec = KernelSpec(kernel, theta)
        problem_n = KrigingProblem(design, y, basis, KernelSpec(kernel))
        m[f"kriging.concentrated_nll.n{n}.us"] = 1e6 * per_call(
            lambda: concentrated_nll(problem_n, theta))
        if n == 40:
            r = correlation_matrix(spec, design)
            f = basis_matrix(basis, design)
            m["kernels.correlation_matrix.n40.us"] = 1e6 * per_call(
                lambda: correlation_matrix(spec, design))
            m["kriging.chol_nugget.n40.us"] = 1e6 * per_call(
                lambda: chol_nugget(r))
            m["kriging.gls_fit.n40.us"] = 1e6 * per_call(
                lambda: gls_fit(r, f, y))

    m["testbed.nested_lhs.ms"] = 1e3 * statistics.median(
        per_call(lambda: nested_lhs(sizes, p.bounds, seed=seed))
        for p, sizes in wl.design_sizes())
    model_dir = os.path.join(wl.workdir, "layer-model")
    trace_path = os.path.join(wl.workdir, "layer-trace.csv")
    m["testbed.save_model.ms"] = 1e3 * per_call(
        lambda: save_model(reference, model_dir))
    m["testbed.load_model.ms"] = 1e3 * per_call(lambda: load_model(model_dir))
    m["sequential.write_trace.ms"] = 1e3 * per_call(
        lambda: write_trace(trace, trace_path))
    m["sequential.read_trace.ms"] = 1e3 * per_call(
        lambda: read_trace(trace_path))
    m["testbed.bytes_written"] = (_dir_bytes(model_dir)
                                  + os.path.getsize(trace_path))
    return m


PHASES = ("argmax_variance", "compute_imse", "choose_level", "enrich",
          "simulator")


def traced_run(wl, seed, untraced, tracer) -> tuple:
    """Per-layer metrics and the identity failures of one traced run."""
    counts = Counter()
    (wall, metrics, loop_counts, iterations, reference, problem, trace,
     failures) = TRACED_PASSES[wl.name](wl, tracer, counts, untraced)
    probes = layer_probes(wl, seed, reference, problem, trace)
    metrics = {**probes, **metrics}
    for phase in PHASES:
        metrics[f"sequential.{phase}.ms"] = 1e3 * statistics.median(
            tracer.durations(f"sequential.{phase}"))
    metrics["cokriging.fit_level.s"] = statistics.median(
        tracer.durations("cokriging.fit_level"))
    per_iteration = max(1, iterations)
    metrics["cokriging.predict.calls"] = loop_counts["predict.calls"] / per_iteration
    metrics["cokriging.predict.points"] = loop_counts["predict.points"] / per_iteration
    metrics["cokriging.hypothetical_variance_after.calls"] = loop_counts[
        "hypothetical_variance_after.calls"]
    metrics["trace.overhead_s"] = wall - untraced.wall
    return metrics, failures
