"""
How much likelihood does a warm reestimate give up?
===================================================

A loop that refits its hyperparameters (``refit="always"`` or
``"every-k"``) reestimates them through ``enrich(..., reestimate=True)``.
A reestimate keeps each level its last search built whose data did not
change, and searches every other level by L-BFGS-B from two starts: the
level's current lengthscales and the box midpoint. A fresh
``fit_multifidelity`` searches every level from five starts (the
midpoint and four seeded draws). This study measures, at every
reestimate, each level's concentrated NLL against that of a fresh fit of
the same grown data.

The runs are the three sequential cases of the benchmark's ``cli``
workload, with the CLI's defaults (constant trends and scalings,
default search and quadrature, the problem's costs):

- forrester [12, 6], squared exponential, refit "always", budget 10;
- ripple2d [20, 8], squared exponential, refit "every-4", budget 8;
- chain3 [20, 10, 5], Matern-5/2, refit "always", rule "cost-weighted",
  budget 8.

The seed is the config's: it draws the nested design and the initial
fit's starts, and the fresh fits use it too. Each loop runs through
``run_loop``; its trace is then replayed through ``enrich``, which gives
the loop's models bit for bit (checked), and every reestimating step is
compared with ``fit_multifidelity(grown data, configs, seed=seed)``.

A level's gap is (reestimated NLL - fresh NLL) / max(1, |fresh NLL|):
positive where the reestimate is worse. Rows list each level worse than
the fresh fit by more than 1e-6. Every number but the times follows
from the seeds; the last line is a sha256 of the output without them.
The study forces one BLAS thread, as the fits' bits depend on the
thread count. Run from the repository root:

    python3 demos/reestimate_study.py              # 2 seeds, a few seconds
    python3 demos/reestimate_study.py --seeds 20   # the full study
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the numpy import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from mfkrig import (  # noqa: E402
    BasisSpec,
    CostModel,
    Domain,
    KernelSpec,
    LevelConfig,
    MultiFidelityData,
    enrich,
    fit_multifidelity,
    get_problem,
    nested_lhs,
    run_loop,
)

# name: (sizes, kernel, refit period, run_loop settings)
CASES = {
    "forrester": ([12, 6], "squared-exponential", 1,
                  dict(refit="always", budget=10)),
    "ripple2d": ([20, 8], "squared-exponential", 4,
                 dict(refit="every-4", budget=8)),
    "chain3": ([20, 10, 5], "matern-5/2", 1,
               dict(refit="always", rule="cost-weighted", budget=8)),
}

WORSE = 1e-9  # a gap above this counts as worse
LISTED = 1e-6  # a gap above this is listed


def study(name, seed):
    """(level rows, reestimate seconds, fresh-fit seconds) of one loop;
    a row is (iteration, level, design size, kept, reestimated NLL, fresh
    NLL, gap)."""
    sizes, kernel, period, settings = CASES[name]
    problem = get_problem(name)
    d = problem.dimension
    designs = nested_lhs(sizes, problem.bounds, seed=seed)
    data = MultiFidelityData(designs, [problem.evaluate(t + 1, x)
                                       for t, x in enumerate(designs)])
    configs = [LevelConfig(BasisSpec("constant", d), KernelSpec(kernel),
                           None if t == 0 else BasisSpec("constant", d))
               for t in range(len(sizes))]
    model = fit_multifidelity(data, configs, seed=seed)
    simulators = [lambda x, t=t: problem.evaluate(t, x)
                  for t in range(1, len(sizes) + 1)]
    final, trace = run_loop(model, Domain(problem.bounds),
                            CostModel(problem.costs), simulators=simulators,
                            **settings)
    rows, warm, fresh_time = [], 0.0, 0.0
    for e in trace.entries:
        reestimate = e.iteration % period == 0
        start = time.perf_counter()
        grown = enrich(model, e.x, e.level, e.values, reestimate=reestimate)
        warm += time.perf_counter() - start
        if reestimate:
            start = time.perf_counter()
            fresh = fit_multifidelity(grown.data, configs, seed=seed)
            fresh_time += time.perf_counter() - start
            for t, (old, new, ref) in enumerate(
                    zip(model.levels, grown.levels, fresh.levels), start=1):
                gap = (new.nll - ref.nll) / max(1.0, abs(ref.nll))
                rows.append((e.iteration, t, len(new.y), new is old, new.nll,
                             ref.nll, gap))
        model = grown
    for lev, want in zip(model.levels, final.levels):
        if lev.chol.tobytes() != want.chol.tobytes():
            raise AssertionError(f"{name} seed {seed}: the replay is not "
                                 "the loop")
    return rows, warm, fresh_time


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--seeds", type=int, default=2,
                        help="config seeds 0..N-1 per case (default 2)")
    args = parser.parse_args()
    digest = hashlib.sha256()

    def emit(line, stable=None):
        print(line)
        digest.update(((line if stable is None else stable) + "\n").encode())

    emit(f"seeds 0..{args.seeds - 1}; gap = (reestimated - fresh NLL) / "
         "max(1, |fresh NLL|)")
    emit(f"{'case':>9} {'levels':>6} {'kept':>5} {'worse':>5} {'listed':>6} "
         f"{'better':>6} {'max_gap':>10} {'reest_s':>8} {'fresh_s':>8}")
    listed, totals = [], np.zeros(5, dtype=int)
    for name in CASES:
        rows, warm, fresh = [], 0.0, 0.0
        for seed in range(args.seeds):
            got, w, f = study(name, seed)
            rows += [(seed, *row) for row in got]
            warm, fresh = warm + w, fresh + f
        gaps = np.array([row[-1] for row in rows])
        counts = [len(rows), sum(row[4] for row in rows),
                  int((gaps > WORSE).sum()), int((gaps > LISTED).sum()),
                  int((gaps < -WORSE).sum())]
        totals += counts
        stable = (f"{name:>9} {counts[0]:>6} {counts[1]:>5} {counts[2]:>5} "
                  f"{counts[3]:>6} {counts[4]:>6} {gaps.max():>10.3e}")
        emit(f"{stable} {warm:>8.3f} {fresh:>8.3f}", stable)
        listed += [(name, *row) for row in rows if row[-1] > LISTED]
    emit(f"{'all':>9} {totals[0]:>6} {totals[1]:>5} {totals[2]:>5} "
         f"{totals[3]:>6} {totals[4]:>6}")
    emit(f"levels worse by more than {LISTED:g}: {len(listed)}")
    for name, seed, iteration, t, n, _, nll, ref, gap in listed:
        emit(f"  {name} seed {seed} iteration {iteration} level {t} "
             f"(n = {n}): {nll:.10g} against {ref:.10g}, "
             f"{nll - ref:+.4g} ({gap:+.3e})")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
