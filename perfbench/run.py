"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The inputs come from ``--seed`` alone.
Whole passes of the workload run until ``--seconds`` have elapsed, the
outputs of every pass are checked, and the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` one untraced and one traced pass run and the metrics
are the per-layer ones. The lines before it give the run's details
(machine facts, sample counts, per-command times, self time per span).
README.md beside this file describes the workloads and metrics.
"""

from clock import Meter

SETUP = Meter().start()  # fresh-process set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

# A fixed benchmark setting, recorded with every result: OpenBLAS with two
# threads made the frozen enrich step about 8x slower than with one.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # must precede the numpy import

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"   # scratch files, removed at exit
OUT = ROOT / ".perfbench-out"     # span files of traced runs

SETUP_CHILDREN = {"full": 4, "smoke": 1}

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "op_s.p50": "s", "op_s.p90": "s",
    "peak_rss_mb": "MB", "nll_sum": "1", "rmse": "1", "imse_final": "1",
}
PER_LAYER = {
    "kernels.correlation_matrix.n40.us": "us",
    "kernels.cross_correlation.per10k.ms": "ms",
    "kernels.add_matched_nugget.per10k.ms": "ms",
    "kriging.concentrated_nll.n12.us": "us",
    "kriging.concentrated_nll.n40.us": "us",
    "kriging.concentrated_nll.n150.us": "us",
    "kriging.chol_nugget.n40.us": "us",
    "kriging.gls_fit.n40.us": "us",
    "kriging.variance_factor.per10k.ms": "ms",
    "kriging.nll_evals_per_fit": "count",
    "cokriging.fit_level.s": "s",
    "cokriging.predict.per10k.ms": "ms",
    "cokriging.predict.calls": "count",
    "cokriging.predict.points": "count",
    "cokriging.hypothetical_variance_after.calls": "count",
    "cokriging.refit.ms": "ms",
    "sequential.argmax_variance.ms": "ms",
    "sequential.compute_imse.ms": "ms",
    "sequential.choose_level.ms": "ms",
    "sequential.enrich.ms": "ms",
    "sequential.simulator.ms": "ms",
    "sequential.iterations": "count",
    "sequential.write_trace.ms": "ms",
    "sequential.read_trace.ms": "ms",
    "testbed.nested_lhs.ms": "ms",
    "testbed.save_model.ms": "ms",
    "testbed.load_model.ms": "ms",
    "testbed.bytes_written": "B",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit", "loop-frozen", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time, exit")
    return parser.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "git_commit": git_commit()}


def git_commit():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def quantile(values, q) -> float:
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])


def setup_workload(args, workdir):
    sys.path.insert(0, str(SRC))
    import workloads

    scale = "smoke" if args.smoke else "full"
    wl = workloads.WORKLOADS[args.workload](args.seed, scale, str(workdir))
    wl.setup()
    return wl


def setup_seconds() -> tuple:
    """(seconds, reference seconds) since the first lines of this file."""
    SETUP.mark()
    SETUP.stop()
    (_, _, elapsed, _), = SETUP.segments
    return elapsed, elapsed * SETUP.scales()[0]


def setup_in_children(args) -> list:
    """Set-up times of fresh processes, one child at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_CHILDREN["smoke" if args.smoke else "full"]):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
        times.append(tuple(json.loads(done.stdout.splitlines()[-1])["setup_s"]))
    return times


def measure(wl, seconds, min_passes=1):
    """Whole passes until ``seconds`` have elapsed; each pass checked."""
    from workloads import measured_pass

    passes = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        result = measured_pass(wl)
        result.fingerprint = wl.fingerprint(result)
        wl.check(result)
        if passes:
            passes[-1].outputs = None  # keep one pass's models in memory
        passes.append(result)
    return passes


def median_pass(rows) -> list:
    """Segment by segment, the median over passes. Every pass runs the
    same segments on the same inputs, so this is the steadiest estimate
    of each segment's time."""
    return [(statistics.median(t for t, _ in column), column[0][1])
            for column in zip(*rows)]


def timings(rows) -> dict:
    segments = median_pass(rows)
    ops = [t for t, op in segments if op]
    return {"wall_s": math.fsum(t for t, _ in segments),
            "op_s.p50": statistics.median(ops),
            "op_s.p90": quantile(ops, 0.9), "ops": ops}


def summarize(wl, passes, setups):
    """End-to-end metrics, attempted, failed, and the detail record.
    Times are in reference seconds; the detail record also has them in
    seconds."""
    scaled = timings([p.scaled_segments for p in passes])
    raw = timings([p.segments for p in passes])
    attempted = sum(len(p.op_times) for p in passes)
    failed = sum(p.failed_ops for p in passes)
    failures = [f for p in passes for f in p.failures]
    if any(p.fingerprint != passes[0].fingerprint for p in passes):
        failures.append("passes on the same inputs gave different outputs")
        failed += len(passes[-1].op_times)
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "wall_s": scaled["wall_s"],
        "op_s.p50": scaled["op_s.p50"],
        "op_s.p90": scaled["op_s.p90"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"passes": len(passes), "operations": len(scaled["ops"]),
              "op_samples": attempted, "setup_samples": len(setups),
              "error_rate": min(1.0, failed / attempted),
              "seconds": {
                  "setup_s": statistics.median(s for s, _ in setups),
                  "wall_s": raw["wall_s"], "op_s.p50": raw["op_s.p50"],
                  "op_s.p90": raw["op_s.p90"]}}
    try:
        metrics.update(wl.quality(passes[-1]))
    except Exception as exc:  # only after a failed pass; reported below
        failures.append(f"quality metrics: {exc!r}")
        failed = max(failed, 1)
    if hasattr(wl, "command_times"):
        for command, t in wl.command_times(scaled["ops"]).items():
            detail[f"cmd.{command}_s"] = t
    return metrics, attempted, min(failed, attempted), failures, detail


def report(metrics, units, correct, attempted, failed):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mfkrig" / "__init__.py").is_file():
        print(f"error: no mfkrig sources under {SRC}; run the benchmark from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            setup_workload(args, workdir)
            print(json.dumps({"setup_s": setup_seconds()}))
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir) -> int:
    wl = setup_workload(args, workdir)
    own_setup = setup_seconds()
    facts = machine_facts()
    print(json.dumps({"machine": facts, "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace}))

    if args.trace:
        from tracing import Tracer, traced_run

        untraced = measure(wl, 0, min_passes=2)[-1]  # a warm pass
        tracer = Tracer()
        metrics, failures = traced_run(wl, args.seed, untraced, tracer)
        failures = untraced.failures + failures
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        print(json.dumps({"self_time_s": tracer.self_times(),
                          "failures": failures}))
        attempted = len(untraced.op_times)
        failed = untraced.failed_ops + (attempted if failures else 0)
        report(metrics, PER_LAYER, not failures, attempted,
               min(failed, attempted))
        return 0

    setups = setup_in_children(args) + [own_setup]
    passes = measure(wl, args.seconds)
    metrics, attempted, failed, failures, detail = summarize(wl, passes,
                                                            setups)
    print(json.dumps({"detail": detail, "failures": failures}))
    for name in END_TO_END:
        metrics.setdefault(name, 0.0)  # only when the run failed
    report(metrics, END_TO_END, not failures, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
