"""
Spending a simulation budget one run at a time
==============================================

Starting from a small nested design on the Forrester pair, the loop
repeatedly finds the input where the surrogate is least sure of the
expensive code, decides how deep into the hierarchy that run should go
(a cheap run costs 1, an expensive run costs 1 + 5 because nesting
requires the cheap run too), executes it, and refits. The ledger below
shows the average model error falling as the budget is consumed.

Run from the repository root:

    python3 demos/sequential_budget.py
"""

import numpy as np

from mfkrig import (
    BasisSpec,
    CostModel,
    Domain,
    Grid,
    KernelSpec,
    LevelConfig,
    MultiFidelityData,
    fit_multifidelity,
    get_problem,
    nested_lhs,
    run_loop,
    write_trace,
)

# ----------------------------------------------------------------------
# Initial nested design, initial fit
# ----------------------------------------------------------------------
problem = get_problem("forrester")
designs_0 = nested_lhs([8, 4], problem.bounds, seed=11)
observations_0 = [problem.evaluate(t + 1, x)
                  for t, x in enumerate(designs_0)]
data = MultiFidelityData(designs_0, observations_0)
configs = [
    LevelConfig(BasisSpec("constant", 1), KernelSpec("squared-exponential")),
    LevelConfig(BasisSpec("constant", 1), KernelSpec("squared-exponential"),
                scaling=BasisSpec("constant", 1)),
]
model = fit_multifidelity(data, configs, seed=11)

# ----------------------------------------------------------------------
# The loop: budget 25, refit after every run
# ----------------------------------------------------------------------
domain = Domain(problem.bounds)
cost = CostModel(problem.costs)
simulators = [lambda x, t=t: problem.evaluate(t, x)
              for t in range(1, problem.level_count + 1)]
# One spec, two roles: the search scans Grid(513)'s nodes, endpoints
# included, and the IMSE averages over Grid(512)'s cell midpoints.
# Uniform(n, seed) draws random nodes instead.
model, trace = run_loop(model, domain, cost, budget=25.0,
                        simulators=simulators, search=Grid(513),
                        quadrature=Grid(512), refit="always")

print(f"{'iter':>4} {'x':>8} {'level':>5} {'cost':>6} "
      f"{'imse before':>12} {'imse after':>12}")
for e in trace.entries:
    print(f"{e.iteration:>4} {e.x[0]:>8.4f} {e.level:>5} "
          f"{e.cumulative_cost:>6.1f} {e.imse_before:>12.3e} "
          f"{e.imse_after:>12.3e}")

first = trace.entries[0].imse_before
last = trace.entries[-1].imse_after
print(f"\naverage model error: {first:.3e} -> {last:.3e} "
      f"(ratio {last / first:.2e})")
sizes = [len(D) for D in model.data.designs]
print(f"final design sizes: level 1: {sizes[0]}, level 2: {sizes[1]}")

write_trace(trace, "demos/forrester_trace.csv")
print("wrote demos/forrester_trace.csv")

# ----------------------------------------------------------------------
# Picture: error decay against money spent
# ----------------------------------------------------------------------
try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None
    print("matplotlib not installed, skipping the figure")

if plt is not None:
    cum = [0.0] + [e.cumulative_cost for e in trace.entries]
    imse = [first] + [e.imse_after for e in trace.entries]
    levels = np.array([e.level for e in trace.entries])
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(cum, imse, "C0.-")
    for lvl, marker, color in [(1, "s", "C1"), (2, "o", "C3")]:
        sel = levels == lvl
        ax.semilogy(np.array(cum[1:])[sel], np.array(imse[1:])[sel],
                    marker, color=color, ms=7, ls="none",
                    label=f"level {lvl} run")
    ax.set_xlabel("cumulative cost")
    ax.set_ylabel("integrated variance")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demos/forrester_decay.png", dpi=120)
    print("wrote demos/forrester_decay.png")
