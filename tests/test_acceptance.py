"""Acceptance gate: nine library-level criteria, one test per criterion.

Each test prints one line, "criterion N (name): PASS [t s]", and fails
loudly otherwise; run with ``pytest tests/test_acceptance.py -v -s`` to
see the lines for passing runs too. Tolerances and runtime bounds are
part of the criteria and are asserted, not just reported.
"""

import json
import time

import numpy as np

from helpers import draw_ar1_data
from joint_oracle import JointModel
from mfkrig.cli import EXIT_OK, main
from mfkrig.cokriging import (
    LevelConfig,
    LevelParameters,
    MultiFidelityData,
    MultiFidelityModel,
    fit_level,
    fit_multifidelity,
)
from mfkrig.kernels import (
    BasisSpec,
    KernelSpec,
    correlation_matrix,
    cross_correlation,
)
from mfkrig.sequential import (
    CostModel,
    Domain,
    Grid,
    choose_level,
    compute_imse,
    enrich,
    run_loop,
)
from mfkrig.testbed import get_problem, load_model, nested_lhs, save_model

UNIT = Domain([[0.0, 1.0]])


def _finish(num, name, t0, bound, ok, detail=""):
    elapsed = time.perf_counter() - t0
    status = "PASS" if (ok and elapsed < bound) else "FAIL"
    print(f"criterion {num} ({name}): {status} [{elapsed:.1f}s] {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < bound, \
        f"criterion {num} ({name}) took {elapsed:.1f}s, bound {bound}s"


def _rel_gap(a, b):
    """Discrepancy metric |a - b| / (1 + |b|); the +1 guards exact zeros."""
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))


def _random_instance(seed, levels=None):
    """Random multi-level instance with fixed (known) parameters.

    Responses are drawn from the autoregressive chain itself so the
    residual solves stay well scaled; designs come from the nested LHS
    so points are well separated.
    """
    rng = np.random.default_rng(seed)
    s = int(rng.integers(2, 4)) if levels is None else levels
    d = int(rng.integers(1, 4))
    sizes = [int(rng.integers(10, 21))]
    for _ in range(s - 1):
        sizes.append(max(3, int(np.ceil(sizes[-1] * 0.55))))
    designs = nested_lhs(sizes, [[0.0, 1.0]] * d,
                         seed=int(rng.integers(1 << 31)))
    families = [("squared-exponential", "matern-5/2")[int(rng.integers(2))]
                for _ in range(s)]
    kernels = [KernelSpec(fam, rng.uniform(0.3, 0.8, size=d))
               for fam in families]
    sigma2s = [float(rng.uniform(0.5, 2.0)) for _ in range(s)]
    rhos = [float(rng.uniform(-1.5, 2.0)) for _ in range(s - 1)]
    observations = draw_ar1_data(rng, designs, rhos, kernels, sigma2s)
    data = MultiFidelityData(designs, observations)

    configs, params = [], []
    for t in range(s):
        scaling = None if t == 0 else BasisSpec("constant", d)
        configs.append(LevelConfig(BasisSpec("constant", d),
                                   KernelSpec(families[t]), scaling=scaling))
        params.append(LevelParameters(
            lengthscales=kernels[t].lengthscales,
            sigma2=sigma2s[t],
            beta=[float(rng.uniform(-1.0, 1.0))],
            rho_beta=None if t == 0 else [rhos[t - 1]]))
    model = MultiFidelityModel.from_parameters(data, configs, params)
    return model, data, configs, params, d


def test_criterion_1_recursive_joint_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        model, data, configs, params, d = _random_instance(seed)
        joint = JointModel(data, configs, params)
        rng = np.random.default_rng(1000 + seed)
        probes = np.vstack([rng.uniform(size=(200, d)), data.designs[0]])
        out = model.predict(probes)
        jm_mean, jm_var = joint.predict(probes)
        worst = max(worst,
                    _rel_gap(out.means[-1], jm_mean),
                    _rel_gap(out.variances[-1], jm_var))
    _finish(1, "recursive/joint equivalence", t0, 10.0, worst <= 1e-8,
            f"max relative discrepancy {worst:.2e}")


def test_criterion_2_variance_decomposition_completeness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        model, _, _, _, d = _random_instance(seed)
        rng = np.random.default_rng(2000 + seed)
        probes = rng.uniform(size=(500, d))
        out = model.predict(probes)
        total = out.variances[-1]
        gap = np.max(np.abs(out.contributions.sum(axis=0) - total)
                     / (1.0 + total))
        worst = max(worst, float(gap))
    _finish(2, "variance decomposition completeness", t0, 5.0,
            worst <= 1e-10, f"max normalized defect {worst:.2e}")


def _rule_instance(seed):
    """Two-level instance whose top correlation matrix stays well away
    from singular, so the explicit-inverse reference below is resolvable
    above round-off. Short Matern lengthscales keep the conditioning sane.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    n1 = int(rng.integers(10, 21))
    sizes = [n1, max(4, int(np.ceil(n1 * 0.55)))]
    designs = nested_lhs(sizes, [[0.0, 1.0]] * d,
                         seed=int(rng.integers(1 << 31)))
    kernels = [KernelSpec("matern-5/2", rng.uniform(0.08, 0.3, size=d))
               for _ in range(2)]
    sigma2s = [float(rng.uniform(0.5, 2.0)) for _ in range(2)]
    rho = float(rng.uniform(-1.5, 2.0))
    observations = draw_ar1_data(rng, designs, [rho], kernels, sigma2s)
    data = MultiFidelityData(designs, observations)
    configs, params = [], []
    for t in range(2):
        scaling = None if t == 0 else BasisSpec("constant", d)
        configs.append(LevelConfig(BasisSpec("constant", d),
                                   KernelSpec("matern-5/2"), scaling=scaling))
        params.append(LevelParameters(
            lengthscales=kernels[t].lengthscales,
            sigma2=sigma2s[t],
            beta=[float(rng.uniform(-1.0, 1.0))],
            rho_beta=None if t == 0 else [rho]))
    return MultiFidelityModel.from_parameters(data, configs, params), d


def test_criterion_3_level_rule_fidelity():
    t0 = time.perf_counter()
    cheap_branch = deep_branch = 0
    agree = True
    for seed in range(100):
        model, d = _rule_instance(seed)
        rng = np.random.default_rng(3000 + seed)
        x = rng.uniform(size=d)

        # Independent reference: sigma2_2 * (1 - r2' R2^-1 r2) at x by
        # explicit matrix inverse, no shared factorization code.
        top = model.levels[1]
        ri = np.linalg.inv(correlation_matrix(top.kernel, top.design))
        r = cross_correlation(top.kernel, top.design, x[None, :])[:, 0]
        h_ref = top.sigma2 * (1.0 - r @ ri @ r)

        imse = h_ref * float(np.exp(rng.uniform(-1.0, 1.0)))
        expected = 1 if h_ref < imse else 2
        if expected == 1:
            cheap_branch += 1
        else:
            deep_branch += 1
        if choose_level(model, x, imse) != expected:
            agree = False
    ok = agree and cheap_branch >= 20 and deep_branch >= 20
    _finish(3, "two-level rule fidelity", t0, 5.0, ok,
            f"branches: stop-at-1 x{cheap_branch}, run-level-2 x{deep_branch}")


def test_criterion_4_hypothetical_variance_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        model, _, _, _, d = _random_instance(seed, levels=2)
        rng = np.random.default_rng(4000 + seed)
        x = rng.uniform(size=d)
        h = model.hypothetical_variance_after(x, 1)[-1]
        value = float(model.predict(x).means[0] + rng.normal(0.0, 0.1))
        grown = enrich(model, x, 1, values=[value])
        got = grown.predict(x).variances[-1]
        worst = max(worst, _rel_gap(got, h))
    _finish(4, "hypothetical variance identity", t0, 10.0, worst <= 1e-6,
            f"max relative gap {worst:.2e}")


def test_criterion_5_interpolation_under_nesting():
    t0 = time.perf_counter()
    ok = True
    worst_mean = worst_var = 0.0
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        d = int(rng.integers(1, 3))
        designs = nested_lhs([10, 5], [[0.0, 1.0]] * d,
                             seed=int(rng.integers(1 << 31)))
        kernels = [KernelSpec("squared-exponential", rng.uniform(0.3, 0.6, d))
                   for _ in range(2)]
        observations = draw_ar1_data(rng, designs, [1.5], kernels, [1.0, 0.4])
        data = MultiFidelityData(designs, observations)
        configs = [
            LevelConfig(BasisSpec("constant", d),
                        KernelSpec("squared-exponential")),
            LevelConfig(BasisSpec("constant", d),
                        KernelSpec("squared-exponential"),
                        scaling=BasisSpec("constant", d)),
        ]
        model = fit_multifidelity(data, configs, restarts=2, seed=seed)
        for t in range(2):
            out = model.predict(data.designs[t])
            z = data.observations[t]
            mean_err = np.max(np.abs(out.means[t] - z) / (1.0 + np.abs(z)))
            var_err = np.max(out.variances[t]) / model.levels[t].sigma2
            worst_mean = max(worst_mean, float(mean_err))
            worst_var = max(worst_var, float(var_err))
            ok = ok and mean_err <= 1e-8 and var_err <= 1e-10
    _finish(5, "interpolation under nesting", t0, 10.0, ok,
            f"worst mean err {worst_mean:.2e}, worst var ratio {worst_var:.2e}")


def test_criterion_6_scaling_coefficient_recovery():
    t0 = time.perf_counter()
    rho_true = 1.8
    theta = np.array([0.15])
    hits = 0
    for rep in range(25):
        rng = np.random.default_rng(6000 + rep)
        designs = nested_lhs([40, 20], [[0.0, 1.0]], seed=6000 + rep)
        kernels = [KernelSpec("squared-exponential", theta)] * 2
        # Discrepancy variance well below the lower-level variance: the
        # usual regime where the cheap code carries most of the signal,
        # and the one where the scaling coefficient is identifiable.
        observations = draw_ar1_data(rng, designs, [rho_true], kernels,
                                     [1.0, 0.16])
        data = MultiFidelityData(designs, observations)
        config = LevelConfig(BasisSpec("constant", 1),
                             KernelSpec("squared-exponential"),
                             scaling=BasisSpec("constant", 1))
        # Lengthscales are known here; the degenerate box pins them so the
        # scaling coefficient comes straight from the generalized fit.
        level = fit_level(2, data, config, bounds=(0.15, 0.15), restarts=1)
        if abs(float(level.rho_beta[0]) - rho_true) <= 0.2:
            hits += 1
    _finish(6, "scaling coefficient recovery", t0, 60.0, hits >= 20,
            f"{hits}/25 replications within +-0.2 of {rho_true}")


def _forrester_setup(seed, sizes=(8, 4)):
    problem = get_problem("forrester")
    designs = nested_lhs(list(sizes), problem.bounds, seed=seed)
    observations = [problem.evaluate(t + 1, x) for t, x in enumerate(designs)]
    data = MultiFidelityData(designs, observations)
    configs = [
        LevelConfig(BasisSpec("constant", 1),
                    KernelSpec("squared-exponential")),
        LevelConfig(BasisSpec("constant", 1),
                    KernelSpec("squared-exponential"),
                    scaling=BasisSpec("constant", 1)),
    ]
    model = fit_multifidelity(data, configs, seed=seed)
    simulators = [lambda x, t=t: problem.evaluate(t, x)
                  for t in range(1, problem.level_count + 1)]
    return model, simulators, problem


def test_criterion_7_sequential_imse_decay():
    t0 = time.perf_counter()
    model, simulators, _ = _forrester_setup(seed=0)
    _, trace = run_loop(model, UNIT, CostModel([1.0, 5.0]), budget=30.0,
                        simulators=simulators, search=Grid(257),
                        quadrature=Grid(256), refit="never")
    entries = trace.entries
    ok = trace.complete and len(entries) >= 2
    detail = "loop made too few iterations"
    if ok:
        initial = entries[0].imse_before
        final = entries[-1].imse_after
        drops = sum(1 for e in entries if e.imse_after <= e.imse_before)
        ok = final <= 0.2 * initial and drops >= 0.9 * len(entries)
        detail = (f"IMSE {initial:.3g} -> {final:.3g} over {len(entries)} "
                  f"iterations, {drops} drops")
    _finish(7, "sequential IMSE decay", t0, 60.0, ok, detail)


def test_criterion_8_multifidelity_advantage():
    t0 = time.perf_counter()
    # The budget is deliberately tight: large enough for a handful of
    # expensive runs, small enough that neither arm saturates to its
    # interpolation floor, where final IMSEs would only compare noise.
    # Both arms refit after every run so the comparison measures the
    # information bought, not the luck of a frozen initial fit.
    budget = 18.0
    quad = Grid(256)
    search = Grid(257)
    wins = 0
    for rep in range(10):
        seed = 100 + rep
        two_level, simulators, problem = _forrester_setup(seed=seed)
        _, trace2 = run_loop(two_level, UNIT, CostModel([1.0, 5.0]),
                             budget=budget, simulators=simulators,
                             search=search, quadrature=quad, refit="always")
        final2 = (trace2.entries[-1].imse_after if trace2.entries
                  else compute_imse(two_level, UNIT, quad))

        # Single-level arm: the expensive code alone, same initial
        # expensive design, whole budget spent on level-2 runs.
        d2 = two_level.data.designs[1]
        single_data = MultiFidelityData([d2], [problem.evaluate(2, d2)])
        single_configs = [LevelConfig(BasisSpec("constant", 1),
                                      KernelSpec("squared-exponential"))]
        single = fit_multifidelity(single_data, single_configs, seed=seed)
        _, trace1 = run_loop(single, UNIT, CostModel([5.0]), budget=budget,
                             simulators=[simulators[1]], search=search,
                             quadrature=quad, refit="always")
        final1 = (trace1.entries[-1].imse_after if trace1.entries
                  else compute_imse(single, UNIT, quad))
        if final2 <= final1:
            wins += 1
    _finish(8, "multi-fidelity advantage", t0, 120.0, wins >= 7,
            f"two-level arm won {wins}/10 replications")


def test_criterion_9_cli_determinism_and_round_trip(tmp_path):
    t0 = time.perf_counter()
    config = {
        "problem": "forrester",
        "sizes": [12, 6],
        "seed": 7,
    }
    sidecars = []
    for run in ("a", "b"):
        out = tmp_path / run
        path = tmp_path / f"fit_{run}.json"
        path.write_text(json.dumps({**config, "out": str(out)}))
        assert main(["fit", "--config", str(path), "--quiet"]) == EXIT_OK
        sidecars.append((out / "model.json").read_bytes())
    identical = sidecars[0] == sidecars[1]

    model = load_model(tmp_path / "a")
    resaved = tmp_path / "resaved"
    save_model(model, resaved)
    reloaded = load_model(resaved)
    probes = np.random.default_rng(9).uniform(size=(100, 1))
    a = model.predict(probes)
    b = reloaded.predict(probes)
    gap = max(float(np.max(np.abs(a.means - b.means))),
              float(np.max(np.abs(a.variances - b.variances))))
    ok = identical and gap <= 1e-15
    _finish(9, "CLI determinism and round trip", t0, 10.0, ok,
            f"sidecars identical: {identical}, round-trip gap {gap:.1e}")
