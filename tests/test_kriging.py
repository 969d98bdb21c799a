import numpy as np
import pytest

from mfkrig.exceptions import (
    FitFailedError,
    IllConditionedError,
    InternalConsistencyError,
    SingularTrendError,
)
from mfkrig.cokriging import LevelConfig, MultiFidelityData, fit_multifidelity
from mfkrig.kernels import NUGGET, BasisSpec, KernelSpec, basis_matrix, correlation_matrix
from mfkrig.kriging import (
    KrigingProblem,
    concentrated_nll,
    default_theta_bounds,
    gls_fit,
    variance_factor,
)

from helpers import dense_gls, dense_predict, sample_gp

SE = "squared-exponential"


def make_problem(rng, n=10, d=1, trend="constant", family=SE):
    design = rng.uniform(0, 1, size=(n, d))
    y = np.sin(3 * design[:, 0]) + 0.5 * design.sum(axis=1)
    return KrigingProblem(design, y, BasisSpec(trend, d), KernelSpec(family))


def fit_one(problem, **kwargs):
    """A single-level fit: the 1-level co-kriging model of ``problem``."""
    data = MultiFidelityData([problem.design], [problem.y])
    return fit_multifidelity(
        data, [LevelConfig(problem.trend, problem.kernel)], **kwargs)


# ---------------------------------------------------------------- gls_fit

def test_gls_constant_data_zero_residual():
    beta, sigma2 = gls_fit(np.eye(3), np.ones((3, 1)), [2.0, 2.0, 2.0])
    assert beta == pytest.approx([2.0])
    assert sigma2 == pytest.approx(0.0, abs=1e-18)


def test_gls_reduces_to_ols():
    beta, sigma2 = gls_fit(np.eye(2), np.ones((2, 1)), [1.0, 3.0])
    assert beta == pytest.approx([2.0])
    assert sigma2 == pytest.approx(2.0, rel=1e-9)


def test_gls_matches_dense_inverse_oracle():
    rng = np.random.default_rng(42)
    pts = rng.uniform(0, 1, size=(10, 2))
    kernel = KernelSpec(SE, [0.4, 0.8])
    r = correlation_matrix(kernel, pts)
    f = basis_matrix(BasisSpec("linear", 2), pts)
    y = rng.normal(size=10)
    beta, sigma2 = gls_fit(r, f, y)
    beta_o, sigma2_o = dense_gls(r, f, y)
    np.testing.assert_allclose(beta, beta_o, rtol=1e-8)
    assert sigma2 == pytest.approx(sigma2_o, rel=1e-8)


def test_gls_rank_deficient_trend():
    f = np.ones((4, 2))  # two identical columns
    with pytest.raises(SingularTrendError):
        gls_fit(np.eye(4), f, [1.0, 2.0, 3.0, 4.0])


# ------------------------------------------------- concentrated likelihood

def test_nll_prefers_generating_lengthscale():
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        design = rng.uniform(0, 1, size=(30, 1))
        y = sample_gp(rng, design, KernelSpec(SE, [0.3]))
        problem = KrigingProblem(design, y, BasisSpec("constant", 1), KernelSpec(SE))
        if concentrated_nll(problem, [0.3]) < concentrated_nll(problem, [3.0]):
            hits += 1
    assert hits >= 48  # >= 95% of 50 seeds


def test_nll_response_scaling_shifts_by_constant():
    rng = np.random.default_rng(1)
    problem = make_problem(rng, n=12)
    doubled = KrigingProblem(problem.design, 2.0 * problem.y, problem.trend,
                             problem.kernel)
    shifts = [
        concentrated_nll(doubled, [t]) - concentrated_nll(problem, [t])
        for t in (0.05, 0.2, 1.0, 5.0)
    ]
    n, p = 12, 1
    np.testing.assert_allclose(shifts, (n - p) * np.log(4.0), rtol=1e-10)


def test_nll_matches_hand_expansion_two_points():
    # two points, constant trend: beta = mean(y), hand-expanded quadratic form
    x1, x2, theta = 0.1, 0.6, 0.4
    y1, y2 = 1.0, 2.5
    problem = KrigingProblem([[x1], [x2]], [y1, y2],
                             BasisSpec("constant", 1), KernelSpec(SE))
    r = np.exp(-(((x1 - x2) / theta) ** 2))
    a = 1.0 + NUGGET
    delta = 0.5 * (y1 - y2)
    sigma2 = 2 * delta**2 / (a - r)
    logdet = np.log(a**2 - r**2)
    expected = (2 - 1) * np.log(sigma2) + logdet
    assert concentrated_nll(problem, [theta]) == pytest.approx(expected, rel=1e-10)


def test_nll_rejects_nonpositive_theta():
    problem = make_problem(np.random.default_rng(0))
    with pytest.raises(ValueError):
        concentrated_nll(problem, [-0.5])


# ------------------------------------------------------------------- fit

def test_degenerate_bounds_force_theta():
    rng = np.random.default_rng(7)
    problem = make_problem(rng, n=8)
    level = fit_one(problem, bounds=(0.37, 0.37), restarts=1, seed=0).levels[0]
    np.testing.assert_allclose(level.lengthscales, [0.37], rtol=1e-12)


def test_fit_is_seed_deterministic():
    rng = np.random.default_rng(5)
    problem = make_problem(rng, n=15)
    m1 = fit_one(problem, restarts=3, seed=123).levels[0]
    m2 = fit_one(problem, restarts=3, seed=123).levels[0]
    np.testing.assert_array_equal(m1.lengthscales, m2.lengthscales)
    np.testing.assert_array_equal(m1.beta, m2.beta)
    assert m1.sigma2 == m2.sigma2


def test_fit_beats_every_start():
    # NLL at the optimum must not exceed NLL at the midpoint start
    rng = np.random.default_rng(2)
    problem = make_problem(rng, n=12)
    level = fit_one(problem, bounds=(0.05, 5.0), restarts=4, seed=9).levels[0]
    mid = np.exp(0.5 * (np.log(0.05) + np.log(5.0)))
    assert level.nll <= concentrated_nll(problem, [mid]) + 1e-9


def test_fit_recovers_lengthscale_scale():
    # simulation study: theta* recovered within a factor 2 in >= 80% of seeds
    theta_star, hits = 0.3, 0
    for seed in range(25):
        rng = np.random.default_rng(1000 + seed)
        design = rng.uniform(0, 1, size=(40, 1))
        y = sample_gp(rng, design, KernelSpec(SE, [theta_star]), sigma2=1.0)
        problem = KrigingProblem(design, y, BasisSpec("constant", 1), KernelSpec(SE))
        level = fit_one(problem, bounds=(0.01, 10.0), restarts=3,
                        seed=seed).levels[0]
        if theta_star / 2 <= level.lengthscales[0] <= theta_star * 2:
            hits += 1
    assert hits >= 20


def test_fit_argmin_invariant_under_response_scaling():
    rng = np.random.default_rng(3)
    problem = make_problem(rng, n=12)
    scaled = KrigingProblem(problem.design, 4.0 * problem.y, problem.trend,
                            problem.kernel)
    m1 = fit_one(problem, restarts=3, seed=11).levels[0]
    m2 = fit_one(scaled, restarts=3, seed=11).levels[0]
    np.testing.assert_allclose(m1.lengthscales, m2.lengthscales, rtol=1e-9)


def test_fit_failure_when_every_start_degenerate():
    # duplicate-free but constant responses with a constant trend give
    # zero residuals; that is fine. Force failure instead via invalid bounds.
    rng = np.random.default_rng(0)
    problem = make_problem(rng)
    with pytest.raises(ValueError):
        fit_one(problem, bounds=(1.0, 0.5))


@pytest.mark.parametrize("restarts", [0, -1])
def test_fit_rejects_restarts_below_one_before_any_likelihood(monkeypatch,
                                                             restarts):
    import mfkrig.kriging as kriging

    def never_called(*args, **kwargs):
        raise AssertionError("likelihood evaluated")

    monkeypatch.setattr(kriging, "_nll_terms", never_called)
    problem = make_problem(np.random.default_rng(0))
    with pytest.raises(ValueError, match="restarts must be a positive integer"):
        fit_one(problem, restarts=restarts)


def test_factorization_reproduces_correlation_matrix():
    rng = np.random.default_rng(8)
    problem = make_problem(rng, n=14)
    level = fit_one(problem, restarts=2, seed=1).levels[0]
    from mfkrig.kernels import add_nugget

    r = add_nugget(correlation_matrix(level.kernel, level.design))
    rec = level.chol @ level.chol.T
    assert np.linalg.norm(rec - r) <= 1e-8 * np.linalg.norm(r)


# --------------------------------------------------------------- predict

def test_predict_interpolates_design_points():
    rng = np.random.default_rng(4)
    problem = make_problem(rng, n=9)
    model = fit_one(problem, restarts=2, seed=2)
    for xi, yi in zip(problem.design, problem.y):
        out = model.predict(xi)
        assert abs(out.mean - yi) <= 1e-8 * (1 + abs(yi))
        assert 0 <= out.variance <= 1e-10 * model.levels[0].sigma2


def test_predict_reverts_to_prior_far_away():
    problem = KrigingProblem([[0.0], [0.05], [0.1]], [1.0, 1.2, 0.9],
                             BasisSpec("constant", 1), KernelSpec(SE))
    model = fit_one(problem, bounds=(0.01, 0.01), restarts=1, seed=0)
    out = model.predict([50.0])
    level = model.levels[0]
    assert out.mean == pytest.approx(float(level.beta[0]), abs=1e-9)
    assert out.variance == pytest.approx(level.sigma2, rel=1e-9)


def test_predict_matches_dense_inverse_oracle():
    rng = np.random.default_rng(6)
    design = rng.uniform(0, 1, size=(5, 1))
    y = np.cos(4 * design[:, 0])
    trend = BasisSpec("constant", 1)
    problem = KrigingProblem(design, y, trend, KernelSpec(SE))
    model = fit_one(problem, bounds=(0.3, 0.3), restarts=1, seed=0)
    level = model.levels[0]
    xs = rng.uniform(0, 1, size=(20, 1))
    out = model.predict(xs)
    f = basis_matrix(trend, design)
    mean_o, var_o = dense_predict(design, y, f, level.beta, level.kernel,
                                  level.sigma2, xs, basis_matrix(trend, xs))
    np.testing.assert_allclose(out.mean, mean_o, rtol=1e-8, atol=1e-10)
    # near-design probes cancel to ~nugget scale where the two linear
    # algebra routes differ by round-off, hence the absolute term
    np.testing.assert_allclose(out.variance, var_o, rtol=1e-6,
                               atol=1e-9 * level.sigma2)


def test_predict_variance_nonnegative_on_probe_cloud():
    rng = np.random.default_rng(12)
    problem = make_problem(rng, n=20, d=2, trend="linear")
    model = fit_one(problem, restarts=2, seed=3)
    probes = rng.uniform(0, 1, size=(1000, 2))
    assert np.all(model.predict(probes).variance >= 0)


def test_variance_clamp_raises_beyond_slack():
    # fabricated inconsistent inputs: factor is about -1 at a duplicated point
    lo = np.linalg.cholesky(np.array([[1.0]]))
    with pytest.raises(InternalConsistencyError):
        variance_factor(lo, np.array([[1.4]]))


# ------------------------------------------------------------ validation

def test_problem_rejects_duplicate_points():
    with pytest.raises(ValueError):
        KrigingProblem([[0.2], [0.2], [0.7]], [1.0, 2.0, 3.0],
                       BasisSpec("constant", 1), KernelSpec(SE))


def test_problem_requires_residual_dof():
    with pytest.raises(ValueError):
        KrigingProblem([[0.2], [0.7]], [1.0, 2.0],
                       BasisSpec("linear", 1), KernelSpec(SE))


def test_default_bounds_scale_with_design():
    pts = np.array([[0.0, 0.0], [2.0, 4.0]])
    lo, hi = default_theta_bounds(pts)
    np.testing.assert_allclose(lo, [0.02, 0.04])
    np.testing.assert_allclose(hi, [20.0, 40.0])
