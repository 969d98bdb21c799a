"""
Two formulations, one posterior
===============================

A multi-level model can be evaluated two ways: level by level through
the recursion (what the library does), or in one shot from the stacked
covariance matrix over all runs of all levels (what the textbook
definition says). With nested designs and constant scaling factors the
two agree to round-off; this script builds a three-level instance with
known parameters and measures the gap, then shows why the recursion is
the one you want as data grows. It exits non-zero when either gap
exceeds 1e-10.

Run from the repository root:

    python3 demos/recursive_vs_joint.py
"""

import os
import sys

import numpy as np

from mfkrig import (
    BasisSpec,
    KernelSpec,
    LevelConfig,
    LevelParameters,
    MultiFidelityData,
    MultiFidelityModel,
    nested_lhs,
)
from mfkrig.kernels import NUGGET, PointIndex, correlation_matrix

# the stacked formulation is the test suite's oracle, not a package module
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))
from joint_oracle import JointModel  # noqa: E402

# ----------------------------------------------------------------------
# A three-level instance with fixed, known parameters
# ----------------------------------------------------------------------
rng = np.random.default_rng(7)
d = 2
designs = nested_lhs([24, 12, 6], [[0.0, 1.0]] * d, seed=7)

configs = []
params = []
sigma2s = [1.0, 0.5, 0.25]
rhos = [None, [1.4], [-0.6]]
for t in range(3):
    scaling = None if t == 0 else BasisSpec("constant", d)
    configs.append(LevelConfig(BasisSpec("constant", d),
                               KernelSpec("matern-5/2"), scaling=scaling))
    params.append(LevelParameters(
        lengthscales=rng.uniform(0.2, 0.5, size=d),
        sigma2=sigma2s[t],
        beta=[float(rng.uniform(-1.0, 1.0))],
        rho_beta=rhos[t]))

# Responses drawn from the chain itself: each level is the scaled lower
# level plus an independent draw of its own process.
observations = []
for t in range(3):
    kern = KernelSpec("matern-5/2", params[t].lengthscales)
    r = correlation_matrix(kern, designs[t])
    r[np.diag_indices_from(r)] += NUGGET
    cov = sigma2s[t] * r
    own = np.linalg.cholesky(cov) @ rng.standard_normal(len(designs[t]))
    if t == 0:
        observations.append(own)
    else:
        # the row of each nested point in the level below
        idx = PointIndex(designs[t - 1]).matches(designs[t])[1]
        observations.append(rhos[t][0] * observations[t - 1][idx] + own)

data = MultiFidelityData(designs, observations)
recursive = MultiFidelityModel.from_parameters(data, configs, params)
joint = JointModel(data, configs, params)

# ----------------------------------------------------------------------
# Same posterior from both routes
# ----------------------------------------------------------------------
probes = rng.uniform(size=(400, d))
out = recursive.predict(probes)
jm_mean, jm_var = joint.predict(probes)
gap_mean = np.max(np.abs(out.means[-1] - jm_mean) / (1.0 + np.abs(jm_mean)))
gap_var = np.max(np.abs(out.variances[-1] - jm_var) / (1.0 + jm_var))
print(f"designs: {[len(D) for D in designs]} points per level")
print(f"max relative gap, posterior mean:     {gap_mean:.2e}")
print(f"max relative gap, posterior variance: {gap_var:.2e}")

# ----------------------------------------------------------------------
# Why the recursion wins: cost scales with levels, not their sum
# ----------------------------------------------------------------------
# The recursion factorizes one n_t x n_t matrix per level; the stacked
# route factorizes one (n1+n2+n3) x (n1+n2+n3) covariance. Cholesky
# costs n^3 / 3, so the stacked factor grows with the cube of the total.
sizes = [lev.chol.shape[0] for lev in recursive.levels]
stacked = joint.v.shape[0]
print("matrices factored: recursion "
      + ", ".join(f"{n} x {n}" for n in sizes)
      + f"; stacked {stacked} x {stacked}")

TOLERANCE = 1e-10
if max(gap_mean, gap_var) > TOLERANCE:
    sys.exit(f"the two routes disagree by more than {TOLERANCE:g}")
