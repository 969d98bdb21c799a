"""
Does polishing the variance search pay?
=======================================

The loop adds a point where the top-level predictive variance is
largest. A search can stop at its best node, or "polish" it: climb from
that node (or, as a multistart, from every node of a small set) by
L-BFGS-B on the variance and take the point it reaches when its variance
is larger. This study runs both on paired seeds and asks whether the
polished loop ends with a better model for the same budget.

Every arm runs the same loop through public calls: ``argmax_variance``
over the search's nodes with D_1 excluded, the polish (arms "best" and
"all" only), ``choose_level`` at the chosen point, ``enrich`` with
frozen hyperparameters and ``compute_imse`` on the default quadrature.
Arms differ only in the polish, so their wall times compare like with
like. Two levels, Matern-5/2 kernels, costs [1, 4], the imse-threshold
rule. Per problem and seed:

- park91a (4-D): Park (1991), "Tuning complex computer codes to data
  and optimal designs", PhD thesis, University of Illinois, as typed on
  the Virtual Library of Simulation Experiments
  (https://www.sfu.ca/~ssurjano/park91a.html), with the low fidelity
  (1 + sin(x1)/10) f(x) - 2 x1 + x2^2 + x3^2 + 0.5 of Xiong, Qian & Wu
  (2013), Technometrics 55(1). x1 in [0.05, 1], which keeps x1^2 off 0;
  nested LHS [40, 12], budget 40, search Uniform(4096) (the default).
- syn3 (3-D): sin(2 pi x1) cos(pi x2) + x3^2 + 0.5 x1 x3 over
  0.8 (that) + 0.3 (x1 - x2) - 0.2 + 0.2 sin(3 x3); nested LHS [30, 9],
  budget 30, search Uniform(4096).
- forrester [8, 4] and ripple2d [12, 6], the built-in pairs, budget 10,
  search Uniform(64, seed); a third arm, "all", is a multistart that
  climbs from each of 4 uniform nodes, as the CLI's multistart kind of
  k = 4 did.

The seed draws the nested design, the likelihood fit's starts and, on
the built-in problems, the search's nodes. True RMSE and IMSE are the
top level's error and mean variance on 20,000 fixed uniform probes.

Verdict: a polishing arm pays on a problem when it has lower true RMSE,
or lower true IMSE, than the unpolished arm on at least k of n seeds,
where k is the smallest count a two-sided sign test calls significant at
p < 0.05 (15 of 20). Sign rows read "+" where the polishing arm is
lower, "-" where it is higher and "=" on a tie.

Every number but the wall times follows from the seeds; the last line is
a sha256 of the output without them. The study forces one BLAS thread,
as the fits' bits depend on the thread count. Run from the repository
root:

    python3 demos/polish_study.py              # 2 seeds, a few seconds
    python3 demos/polish_study.py --seeds 20   # the full study
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the numpy import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import math  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
from scipy.optimize import minimize  # noqa: E402

from mfkrig import (  # noqa: E402
    BasisSpec,
    CostModel,
    Domain,
    KernelSpec,
    LevelConfig,
    MultiFidelityData,
    Uniform,
    argmax_variance,
    choose_level,
    compute_imse,
    enrich,
    fit_multifidelity,
    get_problem,
    nested_lhs,
)

PROBES = 20_000
COST = CostModel([1.0, 4.0])
STARTS = 4  # nodes of the multistart arm


def park91a(x):
    x1, x2, x3, x4 = x.T
    return (x1 / 2.0 * (np.sqrt(1.0 + (x2 + x3 ** 2) * x4 / x1 ** 2) - 1.0)
            + (x1 + 3.0 * x4) * np.exp(1.0 + np.sin(x3)))


def park91a_low(x):
    x1, x2, x3, _ = x.T
    return ((1.0 + np.sin(x1) / 10.0) * park91a(x) - 2.0 * x1 + x2 ** 2
            + x3 ** 2 + 0.5)


def syn3(x):
    x1, x2, x3 = x.T
    return (np.sin(2.0 * np.pi * x1) * np.cos(np.pi * x2) + x3 ** 2
            + 0.5 * x1 * x3)


def syn3_low(x):
    x1, x2, x3 = x.T
    return (0.8 * syn3(x) + 0.3 * (x1 - x2) - 0.2
            + 0.2 * np.sin(3.0 * x3))


def _builtin(name):
    problem = get_problem(name)
    return problem.bounds, [lambda x, t=t: problem.evaluate(t, x)
                            for t in (1, 2)]


# name: (box, [low, high], sizes, budget, nodes of the search, whether
# the seed draws them, arms)
PROBLEMS = {
    "park91a": ([[0.05, 1.0]] + [[0.0, 1.0]] * 3, [park91a_low, park91a],
                [40, 12], 40, 4096, False, ("none", "best")),
    "syn3": ([[0.0, 1.0]] * 3, [syn3_low, syn3], [30, 9], 30, 4096, False,
             ("none", "best")),
    "forrester": (*_builtin("forrester"), [8, 4], 10, 64, True,
                  ("none", "best", "all")),
    "ripple2d": (*_builtin("ripple2d"), [12, 6], 10, 64, True,
                 ("none", "best", "all")),
}


def climb(model, domain, start):
    """The local maximum of the top-level variance that L-BFGS-B reaches
    from ``start``, inside the box."""
    lo, hi = domain.bounds.T
    return np.clip(minimize(lambda p: -model.predict(p).variance, start,
                            method="L-BFGS-B", bounds=domain.bounds).x, lo, hi)


def pick(model, domain, search, arm):
    """The arm's next point: the best node not in D_1, replaced by a
    climbed point of larger variance that is not in D_1 either. Arm
    "best" climbs from that node, arm "all" from every node."""
    design = model.data.designs[0]
    x = argmax_variance(model, domain, search, exclude=design)
    if arm == "none" or x is None:
        return x
    starts = ([x] if arm == "best" else domain.uniform_points(
        search.n, np.random.default_rng(search.seed)))
    climbed = np.array([climb(model, domain, s) for s in starts])
    best = model.predict(x).variance
    for p, v in zip(climbed, model.predict(climbed).variances[-1]):
        if v > best and not (design == p).all(axis=1).any():
            x, best = p, v
    return x


def run(model, domain, simulators, budget, search, arm):
    """(final model, chosen points' variances, levels) of one loop."""
    imse = compute_imse(model, domain)
    spent, chosen, levels = 0.0, [], []
    while True:
        x = pick(model, domain, search, arm)
        if x is None:
            break
        level = choose_level(model, x, imse, COST)
        if spent + COST.cost_through(level) > budget:
            break
        spent += COST.cost_through(level)
        chosen.append(float(model.predict(x).variance))
        levels.append(level)
        values = [float(f(x[None, :])[0]) for f in simulators[:level]]
        model = enrich(model, x, level, values)
        imse = compute_imse(model, domain)
    return model, chosen, levels


def sign_test_bound(n):
    """Smallest k whose two-sided sign-test p-value, 2 P(X >= k) for X
    ~ Binomial(n, 1/2), is below 0.05; None when no k is."""
    for k in range(n // 2 + 1, n + 1):
        if 2 * sum(math.comb(n, i) for i in range(k, n + 1)) < 0.05 * 2 ** n:
            return k
    return None


def signs(arm, base):
    return "".join("+" if a < b else "-" if a > b else "="
                   for a, b in zip(arm, base))


def study(name, seeds, emit):
    box, simulators, sizes, budget, n, seeded, arms = PROBLEMS[name]
    domain = Domain(box)
    d = domain.dimension
    probes = domain.uniform_points(PROBES, np.random.default_rng(2024))
    truth = simulators[1](probes)
    basis = BasisSpec("constant", d)
    kernel = KernelSpec("matern-5/2")
    configs = [LevelConfig(basis, kernel),
               LevelConfig(basis, kernel, scaling=basis)]
    emit(f"\n{name} ({d}-D): design {sizes}, budget {budget}, "
         f"search Uniform({n}{', seed' if seeded else ''})")
    emit(f"{'seed':>4} {'arm':>4} {'time_s':>8} {'runs':>4} {'l2':>3} "
         f"{'var_1':>10} {'var_mean':>10} {'rmse':>10} {'imse':>10}")
    rows = {arm: [] for arm in arms}
    for seed in seeds:
        designs = nested_lhs(sizes, box, seed=seed)
        data = MultiFidelityData(designs, [f(x) for f, x in
                                           zip(simulators, designs)])
        model = fit_multifidelity(data, configs, seed=seed)
        for arm in arms:
            search = Uniform(STARTS if arm == "all" else n,
                             seed if seeded else 0)
            start = time.perf_counter()
            final, chosen, levels = run(model, domain, simulators, budget,
                                        search, arm)
            wall = time.perf_counter() - start
            out = final.predict(probes)
            rmse = float(np.sqrt(np.mean((out.mean - truth) ** 2)))
            imse = float(np.mean(out.variance))
            rows[arm].append((wall, rmse, imse))
            stable = (f"{len(levels):>4} {levels.count(2):>3} "
                      f"{chosen[0]:>10.4e} {np.mean(chosen):>10.4e} "
                      f"{rmse:>10.4e} {imse:>10.4e}")
            emit(f"{seed:>4} {arm:>4} {wall:>8.4f} {stable}",
                 f"{seed:>4} {arm:>4} {stable}")
    k = sign_test_bound(len(seeds))
    base = rows["none"]
    emit("median time_s: " + ", ".join(
        f"{arm} {np.median([r[0] for r in rows[arm]]):.4f}" for arm in arms),
        "")
    for arm in arms[1:]:
        rmse = signs([r[1] for r in rows[arm]], [r[1] for r in base])
        imse = signs([r[2] for r in rows[arm]], [r[2] for r in base])
        emit(f"{arm} vs none, rmse: {rmse} ({rmse.count('+')} of "
             f"{len(seeds)} lower)")
        emit(f"{arm} vs none, imse: {imse} ({imse.count('+')} of "
             f"{len(seeds)} lower)")
        if k is None:
            verdict = "no verdict: too few seeds for the sign test"
        elif max(rmse.count("+"), imse.count("+")) >= k:
            verdict = f"pays (lower on >= {k} of {len(seeds)})"
        else:
            verdict = f"does not pay (lower on < {k} of {len(seeds)})"
        emit(f"verdict, {arm} on {name}: {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--seeds", type=int, default=2,
                        help="paired seeds 0..N-1 per problem (default 2)")
    args = parser.parse_args()
    digest = hashlib.sha256()

    def emit(line, stable=None):
        """Print a line; the digest takes ``stable``, the line without
        its wall times, when given."""
        print(line)
        digest.update(((line if stable is None else stable) + "\n").encode())

    for name in PROBLEMS:
        study(name, list(range(args.seeds)), emit)
    print(f"\nsha256 of the output without wall times: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
