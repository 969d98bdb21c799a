"""
Fit a two-level surrogate of the Forrester function
====================================================

The expensive code is the classic Forrester curve, the cheap code its
shifted and rescaled variant. Eight cheap runs and four expensive runs
go into nested designs; the surrogate then predicts the expensive code
everywhere, with a variance split that says which level is to blame
for the remaining uncertainty.

Run from any directory; the outputs go next to this script:

    python3 demos/fit_predict_forrester.py
"""

import os

import numpy as np

from mfkrig import (
    BasisSpec,
    KernelSpec,
    LevelConfig,
    MultiFidelityData,
    fit_multifidelity,
    get_problem,
    nested_lhs,
)

# ----------------------------------------------------------------------
# Nested designs and runs of both codes
# ----------------------------------------------------------------------
problem = get_problem("forrester")
designs = nested_lhs([8, 4], problem.bounds, seed=3)
observations = [problem.evaluate(t + 1, x) for t, x in enumerate(designs)]
data = MultiFidelityData(designs, observations)
print(f"level 1: {len(designs[0])} runs, level 2: {len(designs[1])} runs "
      "(nested)")

# ----------------------------------------------------------------------
# Fit: one kriging model per level, linked by a constant scaling factor
# ----------------------------------------------------------------------
configs = [
    LevelConfig(BasisSpec("constant", 1), KernelSpec("squared-exponential")),
    LevelConfig(BasisSpec("constant", 1), KernelSpec("squared-exponential"),
                scaling=BasisSpec("constant", 1)),
]
model = fit_multifidelity(data, configs, seed=0)
for t, level in enumerate(model.levels, start=1):
    line = (f"level {t}: lengthscale {level.lengthscales[0]:.3f}, "
            f"sigma2 {level.sigma2:.3f}")
    if level.rho_beta is not None:
        line += f", scaling {level.rho_beta[0]:.3f}"
    print(line)
# The true relationship is f_hi = 2 f_lo - 20 x + 10, so the fitted
# scaling factor should land close to 2.

# ----------------------------------------------------------------------
# Predict on a fine grid and compare against the true expensive code
# ----------------------------------------------------------------------
grid = np.linspace(0.0, 1.0, 401)[:, None]
out = model.predict(grid)
truth = problem.evaluate(2, grid)
mean = out.means[-1]
band = 2.0 * np.sqrt(out.variances[-1])
rmse = float(np.sqrt(np.mean((mean - truth) ** 2)))
covered = float(np.mean(np.abs(mean - truth) <= band))
print(f"rmse against the true expensive code: {rmse:.4f}")
print(f"fraction of the grid inside the 2-sigma band: {covered:.2f}")

share = out.contributions.sum(axis=1) / max(out.variances[-1].sum(), 1e-300)
print("integrated variance share by level:",
      ", ".join(f"level {t + 1}: {s:.1%}" for t, s in enumerate(share)))

# ----------------------------------------------------------------------
# Picture: surrogate band, both run sets, and the variance split
# ----------------------------------------------------------------------
try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None
    print("matplotlib not installed, skipping the figure")

if plt is not None:
    fig, (ax, bx) = plt.subplots(
        2, 1, figsize=(7, 7), sharex=True,
        gridspec_kw={"height_ratios": [2, 1]})
    x = grid[:, 0]
    ax.plot(x, truth, "k--", lw=1, label="true expensive code")
    ax.plot(x, mean, "C0", label="surrogate mean")
    ax.fill_between(x, mean - band, mean + band, color="C0", alpha=0.2,
                    label="2-sigma band")
    ax.plot(designs[0][:, 0], observations[0], "C1s", ms=5,
            label="cheap runs")
    ax.plot(designs[1][:, 0], observations[1], "C3o", ms=7,
            label="expensive runs")
    ax.legend(loc="upper left", fontsize=8)
    ax.set_ylabel("response")

    bx.stackplot(x, out.contributions, labels=["level 1", "level 2"],
                 colors=["C1", "C3"], alpha=0.6)
    bx.legend(loc="upper left", fontsize=8)
    bx.set_xlabel("x")
    bx.set_ylabel("variance contribution")
    fig.tight_layout()
    figure_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "forrester_fit.png")
    fig.savefig(figure_path, dpi=120)
    print(f"wrote {figure_path}")
