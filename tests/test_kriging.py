import logging
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfkrig.cokriging as cokriging
import mfkrig.kriging as kriging
from mfkrig.exceptions import (
    DuplicateDesignPointError,
    FitFailedError,
    IllConditionedError,
    InternalConsistencyError,
    SingularTrendError,
)
from mfkrig.cokriging import LevelConfig, MultiFidelityData, fit_multifidelity
from mfkrig.kernels import NUGGET, BasisSpec, KernelSpec, basis_matrix, correlation_matrix
from mfkrig.testbed import get_problem, nested_lhs
from mfkrig.kriging import (
    KrigingProblem,
    chol_nugget,
    concentrated_nll,
    default_theta_bounds,
    gls_fit,
    variance_factor,
)

from helpers import (
    add_nugget,
    dense_gls,
    dense_predict,
    reference_chol_nugget,
    reference_gls,
    draw_ar1_data,
    fresh_factor,
    memoized_ml_fit,
    reference_log_lengthscale_weight,
    reference_ml_fit,
    reference_nll_gradient,
    reference_nll_terms,
    reference_solve_rows,
    sample_gp,
)

SE = "squared-exponential"
M52 = "matern-5/2"


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


# ------------------------------- the LAPACK path against scipy's wrappers

@st.composite
def _likelihood_cases(draw):
    """(family, design, trend matrix, y, theta): n in 2..60, d in 1..3,
    both kernels and trends, responses that are smooth, exactly linear
    (a zero residual under the linear trend) or constant, and
    lengthscales anywhere in the default box, its ends included."""
    d = draw(st.integers(1, 3))
    trend = draw(st.sampled_from(["constant", "linear"]))
    basis = BasisSpec(trend, d)
    n = draw(st.integers(max(2, basis.size + 1), 60))
    family = draw(st.sampled_from([SE, M52]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = rng.uniform(0.0, draw(st.sampled_from([1.0, 10.0])), size=(n, d))
    y = {"smooth": np.sin(3.0 * design).sum(axis=1) + 0.1 * rng.normal(size=n),
         "linear": 1.0 + design.sum(axis=1),
         "constant": np.full(n, 2.5)}[
        draw(st.sampled_from(["smooth", "linear", "constant"]))]
    lo, hi = default_theta_bounds(design)
    frac = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        min_size=d, max_size=d)))
    theta = np.where(frac == 0.0, lo, np.where(
        frac == 1.0, hi, np.exp(np.log(lo) + frac * np.log(hi / lo))))
    return family, design, basis_matrix(basis, design), y, theta


def _outcome(evaluate):
    """The arrays ``evaluate`` returns as bytes plus the factor's memory
    order, or the type and message of the library error it raises."""
    try:
        out = evaluate()
    except (IllConditionedError, SingularTrendError) as exc:
        return type(exc), str(exc)
    return ([np.asarray(a, dtype=float).tobytes() for a in out]
            + [out[3].flags.f_contiguous if len(out) == 5 else None])


@settings(max_examples=300, deadline=None)
@given(_likelihood_cases())
def test_lapack_path_is_bit_identical_to_the_scipy_wrappers(case):
    family, design, f, y, theta = case
    lean = _outcome(lambda: kriging._solve_level(
        kriging._likelihood(family, design, f, y), theta)[:5])
    wrapped = _outcome(lambda: reference_nll_terms(
        design, f, y, KernelSpec(family, theta)))
    assert lean == wrapped
    r = correlation_matrix(KernelSpec(family, theta), design)
    assert _outcome(lambda: (chol_nugget(r),)) == \
        _outcome(lambda: (reference_chol_nugget(r),))
    assert _outcome(lambda: gls_fit(r, f, y)) == \
        _outcome(lambda: reference_gls(reference_chol_nugget(r), f, y))


@settings(max_examples=200, deadline=None)
@given(_likelihood_cases())
def test_gradient_weight_is_the_reference_weight_bit_for_bit(case):
    # the weight comes from the distances of R itself; the reference
    # builds it from a second distance matrix
    family, design, f, y, theta = case
    scaled = design / theta
    want = reference_log_lengthscale_weight(family, scaled).tobytes()
    r, w = kriging._scaled_correlation(family, scaled, scaled, weight=True)
    assert w.tobytes() == want
    assert r.tobytes() == \
        kriging._scaled_correlation(family, scaled, scaled).tobytes()
    try:
        terms = kriging._solve_level(kriging._likelihood(family, design, f, y),
                                     theta)
    except (IllConditionedError, SingularTrendError):
        return
    assert terms[5].tobytes() == want  # the weight _nll_gradient reads


@st.composite
def _gradient_cases(draw, sizes=(6, 14), spacings=None):
    """(likelihood, log-lengthscales, floored): n points in d = 1-3, n
    drawn from ``sizes`` (and above the trend's size), both kernels and
    trends. The first coordinate lies on a jittered grid, so points are
    at least 0.5 / n apart. The lengthscales are uniform in [0.05, 0.2],
    so R is well conditioned enough for central differences to resolve
    1e-5 at n = 6-14; or, with ``spacings`` (lo, hi), uniform in
    [lo, hi] / n, so R stays well conditioned at any n. A floored case
    sets the sigma2 floor to a tenth of the estimate, so the estimate is
    within round-off of zero and counts as the floor, or to ten times
    it, so the floor is above it; either holds near z while the residual
    alpha stays far from round-off."""
    d = draw(st.integers(1, 3))
    basis = BasisSpec(draw(st.sampled_from(["constant", "linear"])), d)
    family = draw(st.sampled_from([SE, M52]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(max(sizes[0], basis.size + 1), sizes[1]))
    design = rng.uniform(0.0, 1.0, size=(n, d))
    design[:, 0] = (rng.permutation(n) + 0.5 + rng.uniform(-0.25, 0.25, n)) / n
    y = np.sin(3.0 * design).sum(axis=1) + 0.1 * rng.normal(size=n)
    if spacings is None:
        z = np.log(rng.uniform(0.05, 0.2, size=d))
    else:
        z = np.log(rng.uniform(*spacings, size=d) / n)
    lik = kriging._likelihood(family, design, basis_matrix(basis, design), y)
    # sigma2_hat / floor: None keeps the data's own floor
    ratio = draw(st.sampled_from([None, 1e3, 0.1]))
    if ratio is not None:
        lo = kriging._solve_level(lik, np.exp(z))[3]
        _, sigma2 = kriging._gls(lo, lik.trend, y)
        lik = lik._replace(sigma2_floor=sigma2 / ratio)
    return lik, z, ratio is not None


@settings(max_examples=100, deadline=None)
@given(_gradient_cases())
def test_nll_gradient_matches_central_differences(case):
    lik, z, floored = case
    terms = kriging._solve_level(lik, np.exp(z))
    assert (terms[2] == lik.sigma2_floor) == floored
    gradient = kriging._nll_gradient(lik, np.exp(z), terms,
                                     kriging._squared_differences(lik.design))
    h = 1e-5
    central = np.array([
        (kriging._solve_level(lik, np.exp(z + h * e))[0]
         - kriging._solve_level(lik, np.exp(z - h * e))[0]) / (2.0 * h)
        for e in np.eye(z.size)])
    # floored, the NLL is (n - p) log(floor) + log det R: the residual
    # term must be absent from the gradient for the two to agree
    np.testing.assert_allclose(gradient, central, rtol=1e-5,
                               atol=1e-5 * max(1.0, np.abs(central).max()))


@settings(max_examples=300, deadline=None)
@given(_gradient_cases(sizes=(2, 60), spacings=(0.5, 2.0)))
def test_nll_gradient_matches_the_direct_formula(case):
    # one gemv over the squared differences against the (n, n, d)
    # broadcast of the scaled design over the strict lower triangle
    lik, z, floored = case
    theta = np.exp(z)
    terms = kriging._solve_level(lik, theta)
    assert (terms[2] == lik.sigma2_floor) == floored
    want = reference_nll_gradient(lik, theta, terms)
    gradient = kriging._nll_gradient(lik, theta, terms,
                                     kriging._squared_differences(lik.design))
    assert np.abs(gradient - want).max() <= 1e-9 * np.abs(want).max()


@pytest.mark.parametrize("ratio, snapped", [
    (0.5, True), (1e3, True), (0.99e6, True), (1.01e6, False)])
def test_sigma2_within_round_off_of_zero_counts_as_the_floor(ratio, snapped):
    # ratio is sigma2_hat / floor; below 1e6 the estimate is round-off
    problem = make_problem(np.random.default_rng(1), n=10)
    f = basis_matrix(problem.trend, problem.design)
    lik = kriging._likelihood(SE, problem.design, f, problem.y)
    theta = np.array([0.3])
    lo = kriging._solve_level(lik, theta)[3]
    _, sigma2 = kriging._gls(lo, f, problem.y)
    lik = lik._replace(sigma2_floor=sigma2 / ratio)
    # a factor that covers every row is solved on as it is
    nll, _, kept, _, _, _ = kriging._solve_level(lik, theta, grown_from=lo)
    assert kept == (lik.sigma2_floor if snapped else sigma2)
    n, p = f.shape
    logdet = 2.0 * float(np.log(lo.diagonal()).sum())
    assert nll == (n - p) * np.log(kept) + logdet


# ------------------------------------------------------ error parity

def test_likelihood_evaluation_rejects_a_collinear_trend():
    design = np.random.default_rng(0).uniform(size=(6, 1))
    lik = kriging._likelihood(SE, design, np.ones((6, 2)), design[:, 0])
    with pytest.raises(SingularTrendError, match="rank 1 < 2"):
        kriging._solve_level(lik, np.array([0.3]))


def test_chol_nugget_rejects_a_matrix_that_is_not_positive_definite():
    with pytest.raises(IllConditionedError, match="not positive definite"):
        chol_nugget(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_appended_row_with_a_non_positive_pivot_raises():
    theta = np.array([0.4])
    design = np.array([[0.1], [0.5], [0.9], [0.501]])
    lo = fresh_factor(SE, design[:3], theta)
    grown = kriging._append_rows(SE, design, theta, lo)
    assert (grown[:3, :3] == lo).all() and grown[3, 3] > 0
    # a factor too small for its rows: l'l is about 4 at the near-repeat
    with pytest.raises(IllConditionedError, match="size 4 is not positive"):
        kriging._append_rows(SE, design, theta, 0.5 * lo)


def _nan_at(a, index):
    a = np.array(a, dtype=float)
    a[index] = np.nan
    return a


@pytest.mark.parametrize("call", [
    lambda r, f, y: chol_nugget(_nan_at(r, (2, 1))),
    lambda r, f, y: chol_nugget(_nan_at(r, (1, 2))),
    lambda r, f, y: gls_fit(_nan_at(r, (0, 3)), f, y),
    lambda r, f, y: gls_fit(r, _nan_at(f, (4, 1)), y),
    lambda r, f, y: gls_fit(r, f, _nan_at(y, 5)),
], ids=["chol-lower", "chol-upper", "gls-r", "gls-f", "gls-y"])
def test_nan_input_fails_at_the_public_boundary(call):
    pts = np.random.default_rng(3).uniform(size=(8, 1))
    r = correlation_matrix(KernelSpec(SE, [0.3]), pts)
    f = basis_matrix(BasisSpec("linear", 1), pts)
    with pytest.raises(ValueError, match="must be finite"):
        call(r, f, np.sin(pts[:, 0]))


@pytest.mark.parametrize("theta", [[0.0], [np.nan], [np.inf]])
def test_nll_rejects_a_zero_or_nonfinite_theta(theta):
    problem = make_problem(np.random.default_rng(0))
    with pytest.raises(ValueError,
                       match="lengthscales must be strictly positive and finite"):
        concentrated_nll(problem, theta)


@pytest.mark.parametrize("theta", [np.nan, np.inf])
def test_likelihood_evaluation_rejects_a_nonfinite_theta(theta):
    problem = make_problem(np.random.default_rng(0))
    lik = kriging._likelihood(SE, problem.design,
                              basis_matrix(problem.trend, problem.design),
                              problem.y)
    with pytest.raises(ValueError,
                       match="lengthscales must be strictly positive and finite"):
        kriging._solve_level(lik, np.array([theta]))


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


def _spy_evaluations(monkeypatch, ill_conditioned=lambda theta: False):
    """Record the clipped log-lengthscale vector behind every
    ``_solve_level`` call of a search, raising IllConditionedError where
    ``ill_conditioned(theta)``; returns the list of vectors (as bytes)."""
    original = kriging._solve_level
    keys = []

    def spy(lik, theta):
        z = sys._getframe(1).f_locals["z"]  # the search objective's vector
        assert np.exp(z).tobytes() == theta.tobytes()
        keys.append(z.tobytes())
        if ill_conditioned(theta):
            raise IllConditionedError("spy")
        return original(lik, theta)

    monkeypatch.setattr(kriging, "_solve_level", spy)
    return keys


def _starts(box, restarts, seed):
    """The start rule: the box midpoint, then restarts - 1 uniform draws."""
    rng = np.random.default_rng(seed)
    return [0.5 * (box[0] + box[1])] + [rng.uniform(*box)
                                        for _ in range(restarts - 1)]


def _search(problem, search, bounds=None, restarts=4, seed=3):
    box = kriging._search_box(problem.design, bounds)
    lik = kriging._likelihood(problem.kernel.family, problem.design,
                              basis_matrix(problem.trend, problem.design),
                              problem.y)
    return search(lik, box, _starts(box, restarts, seed))


def test_a_fit_searches_from_the_start_rule(monkeypatch):
    searched = []
    original = cokriging._ml_fit
    monkeypatch.setattr(cokriging, "_ml_fit", lambda *args: (
        searched.append(args[1:]), original(*args))[1])
    fit_one(make_problem(np.random.default_rng(4), n=12, d=2), restarts=4,
            seed=3)
    (box, starts), = searched
    assert np.array(starts).tobytes() == \
        np.array(_starts(box, 4, 3)).tobytes()


def test_search_steps_past_an_ill_conditioned_vector(monkeypatch):
    # lengthscales above 1 fail to factor: the runs meet them and go on
    problem = make_problem(np.random.default_rng(6), n=12, trend="linear")
    bounds = (0.05, 5.0)
    keys = _spy_evaluations(monkeypatch, lambda theta: theta[0] > 1.0)
    kernel, _ = _search(problem, kriging._ml_fit, bounds)
    assert any(np.exp(np.frombuffer(k))[0] > 1.0 for k in keys)
    monkeypatch.undo()
    assert kernel.lengthscales[0] <= 1.0
    box = kriging._search_box(problem.design, bounds)
    assert concentrated_nll(problem, kernel.lengthscales) <= min(
        concentrated_nll(problem, np.exp(z)) for z in _starts(box, 4, 3)
        if np.exp(z)[0] <= 1.0)


@pytest.mark.parametrize("d, family", [(1, SE), (2, M52)])
def test_a_well_posed_search_evaluates_each_start_once(monkeypatch, d, family):
    problem = make_problem(np.random.default_rng(4), n=12, d=d, family=family)
    keys = _spy_evaluations(monkeypatch)
    box = kriging._search_box(problem.design, None)
    starts = _starts(box, 4, 3)
    _search(problem, kriging._ml_fit)
    assert keys[:4] == [z.tobytes() for z in starts]
    assert all(keys.count(z.tobytes()) == 1 for z in starts)
    # the first step from the first start moves at most _FIRST_STEP
    step = np.frombuffer(keys[4]) - starts[0]
    assert 0 < np.linalg.norm(step) <= kriging._FIRST_STEP * (1 + 1e-12)


def _spy_searches(monkeypatch):
    """Record (arguments, (kernel, terms)) of every ``_ml_fit`` call of a
    fit."""
    searches = []
    original = cokriging._ml_fit

    def spy(*args):
        searches.append((args, original(*args)))
        return searches[-1][1]

    monkeypatch.setattr(cokriging, "_ml_fit", spy)
    return searches


def _search_nll(args, kernel):
    """The concentrated NLL of a search's level at ``kernel``."""
    lik, _, _ = args
    return kriging._solve_level(lik, kernel.lengthscales)[0]


@pytest.mark.parametrize("seed, level", [(17, 2), (13, 1)])
def test_capped_first_step_reaches_the_nelder_mead_optimum(monkeypatch, seed,
                                                           level):
    # acceptance criterion 5's data; an uncapped first step jumps from
    # these levels' starts to a worse optimum on the box's bound
    rng = np.random.default_rng(5000 + seed)
    d = int(rng.integers(1, 3))
    designs = nested_lhs([10, 5], [[0.0, 1.0]] * d,
                         seed=int(rng.integers(1 << 31)))
    kernels = [KernelSpec(SE, rng.uniform(0.3, 0.6, d)) for _ in range(2)]
    data = MultiFidelityData(
        designs, draw_ar1_data(rng, designs, [1.5], kernels, [1.0, 0.4]))
    configs = [LevelConfig(BasisSpec("constant", d), KernelSpec(SE)),
               LevelConfig(BasisSpec("constant", d), KernelSpec(SE),
                           scaling=BasisSpec("constant", d))]
    searches = _spy_searches(monkeypatch)
    fit_multifidelity(data, configs, restarts=2, seed=seed)
    args, (kernel, _) = searches[level - 1]
    reference = _search_nll(args, reference_ml_fit(*args)[0])
    assert _search_nll(args, kernel) <= \
        reference + 1e-6 * max(1.0, abs(reference))


def test_each_search_logs_one_debug_record(monkeypatch, caplog):
    problem = get_problem("chain3")
    designs = nested_lhs([12, 8, 4], problem.bounds, seed=4)
    data = MultiFidelityData(designs, [problem.evaluate(t + 1, x)
                                       for t, x in enumerate(designs)])
    # the top code is linear in the one below: level 3 is round-off
    configs = [LevelConfig(BasisSpec(trend, 1), KernelSpec(SE),
                           None if t == 0 else BasisSpec("constant", 1))
               for t, trend in enumerate(["constant", "constant", "linear"])]
    searches = _spy_searches(monkeypatch)
    calls = []
    original = kriging._solve_level
    monkeypatch.setattr(kriging, "_solve_level", lambda lik, theta: (
        calls.append(len(lik.y)), original(lik, theta))[1])
    caplog.set_level(logging.DEBUG, logger="mfkrig.kriging")
    model = fit_multifidelity(data, configs, restarts=3, seed=2)
    records = [r for r in caplog.records if r.name == "mfkrig.kriging"]
    assert [r.levelno for r in records] == [logging.DEBUG] * 3
    assert [r.args[:2] for r in records] == [
        (3, calls.count(12)), (3, calls.count(8)), (3, calls.count(4))]
    monkeypatch.undo()
    for record, ((lik, box, starts), _), lev in zip(records, searches,
                                                    model.levels):
        # the three drawn starts are distinct and inside the box
        assert record.args[2] == [kriging._solve_level(lik, np.exp(z))[0]
                                  for z in starts]
        assert record.args[3] == lev.nll <= min(record.args[2])
        assert record.args[4] == (lev.sigma2 == kriging._sigma2_floor(lev.y))
        box = np.exp(box)
        gap = np.abs(lev.kernel.lengthscales / box - 1.0).min(axis=0)
        assert record.args[5] == np.flatnonzero(gap < 1e-8).tolist()
        assert not np.any((gap >= 1e-8) & (gap < 1e-6))  # no borderline case
    assert [r.args[4] for r in records] == [False, False, True]
    assert records[2].args[5] == [0]  # the round-off level ends on its bound
    assert "search: 3 starts" in records[2].getMessage()
    assert "sigma2 floored True" in records[2].getMessage()
    assert not logging.getLogger("mfkrig.kriging").handlers
    assert not logging.getLogger("mfkrig").handlers


@pytest.mark.parametrize("bounds, evaluations", [
    (None, 4),          # four distinct starts
    ((0.37, 0.37), 1),  # a degenerate box clips every start to one vector
])
def test_search_fails_when_every_start_is_ill_conditioned(monkeypatch, bounds,
                                                          evaluations):
    problem = make_problem(np.random.default_rng(0))
    keys = _spy_evaluations(monkeypatch, lambda theta: True)
    with pytest.raises(FitFailedError,
                       match="all 4 likelihood starts were ill-conditioned"):
        _search(problem, kriging._ml_fit, bounds)
    assert len(keys) == evaluations


def test_a_search_record_gives_the_nll_at_each_distinct_clipped_start(
        monkeypatch, caplog):
    # case 1 fails to factor at its midpoint start; a repeated start is
    # one start and one below the box is clipped onto its lower corner
    lik, box, starts, ill_conditioned = _oracle_level(1)
    keys = _spy_evaluations(monkeypatch, ill_conditioned)
    caplog.set_level(logging.DEBUG, logger="mfkrig.kriging")
    kriging._ml_fit(lik, box, [*starts, starts[0], box[0] - 1.0])
    record, = [r for r in caplog.records if r.name == "mfkrig.kriging"]
    assert record.args[:2] == (7, len(keys))
    monkeypatch.undo()
    want = [np.nan if ill_conditioned(np.exp(z))
            else kriging._solve_level(lik, np.exp(z))[0]
            for z in [*starts, box[0]]]
    assert np.isnan(want[0]) and not np.isnan(want[-1])
    assert np.array(record.args[2]).tobytes() == np.array(want).tobytes()


def _oracle_level(case):
    """(likelihood, box, starts, ill_conditioned) of seeded level ``case``:
    both kernels, d = 1-3, n = 5-40, constant and linear trends, GP
    responses. Case 0 is a linear response under a linear trend, so its
    sigma2_hat is round-off and counts as the floor; case 1 is taken to
    fail to factor at first lengthscales above half its midpoint
    start's."""
    rng = np.random.default_rng([27, case])
    family = (SE, M52)[case % 2]
    d = 1 + case // 2 % 3
    trend = BasisSpec("linear" if case == 0 or case // 6 % 2 else "constant",
                      d)
    n = int(rng.integers(5, 41))
    design = rng.uniform(0.0, 1.0, size=(n, d))
    if case == 0:
        y = 1.0 + design @ rng.uniform(-2.0, 2.0, d)
    else:
        y = sample_gp(rng, design, KernelSpec(family, rng.uniform(0.1, 0.8, d)))
    box = kriging._search_box(design, None)
    starts = kriging._draw_starts(*box, 5, rng)
    lik = kriging._likelihood(family, design, basis_matrix(trend, design), y)
    cut = 0.5 * np.exp(starts[0][0]) if case == 1 else np.inf
    return lik, box, starts, lambda theta: theta[0] > cut


@pytest.mark.parametrize("case", range(24))
def test_search_is_bit_identical_to_the_memoized_minimize_call(monkeypatch,
                                                               case):
    lik, box, starts, ill_conditioned = _oracle_level(case)
    _spy_evaluations(monkeypatch, ill_conditioned)
    assert ill_conditioned(np.exp(starts[0])) == (case == 1)
    kernel, terms = kriging._ml_fit(lik, box, starts)
    want_kernel, want = memoized_ml_fit(lik, box, starts)
    assert kernel.lengthscales.tobytes() == want_kernel.lengthscales.tobytes()
    nll, coef, sigma2, lo, alpha, _ = terms
    assert np.float64(nll).tobytes() == np.float64(want[0]).tobytes()
    for got, expected in ((coef, want[1]), (lo, want[3]), (alpha, want[4])):
        assert got.tobytes() == expected.tobytes()
    assert (sigma2 == lik.sigma2_floor) == (case == 0)


@pytest.mark.parametrize("case", [0, 1, 6, 12, 18])
def test_a_search_solves_each_distinct_vector_once(monkeypatch, case):
    # in these searches runs meet at vectors another run or start met,
    # mostly a corner of the box; the oracle solves them again
    lik, box, starts, ill_conditioned = _oracle_level(case)
    keys = _spy_evaluations(monkeypatch, ill_conditioned)
    kernel, terms = kriging._ml_fit(lik, box, starts)
    assert len(keys) == len(set(keys))
    searched = len(keys)
    want_kernel, want = memoized_ml_fit(lik, box, starts)
    oracle = keys[searched:]
    assert len(oracle) > len(set(oracle)) == searched
    assert set(oracle) == set(keys[:searched])
    assert kernel.lengthscales.tobytes() == want_kernel.lengthscales.tobytes()
    for got, expected in zip(terms[:5], want[:5]):
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("bounds, distinct", [
    (None, 4),          # four distinct starts
    ((0.37, 0.37), 1),  # a degenerate box clips every start to one vector
])
def test_search_calls_minimize_once_per_distinct_start(monkeypatch, bounds,
                                                       distinct):
    # perfbench counts likelihood evaluations by wrapping
    # scipy.optimize.minimize; every run must go through it
    import scipy.optimize

    calls = []
    original = scipy.optimize.minimize

    def spy(fun, x0, **kwargs):
        result = original(fun, x0, **kwargs)
        calls.append((kwargs, result.nfev))
        return result

    searches = _spy_searches(monkeypatch)
    monkeypatch.setattr(scipy.optimize, "minimize", spy)
    problem = get_problem("chain3")
    designs = nested_lhs([12, 8, 4], problem.bounds, seed=4)
    data = MultiFidelityData(designs, [problem.evaluate(t + 1, x)
                                       for t, x in enumerate(designs)])
    configs = [LevelConfig(BasisSpec("constant", 1), KernelSpec(SE),
                           None if t == 0 else BasisSpec("constant", 1))
               for t in range(3)]
    fit_multifidelity(data, configs, bounds=bounds, restarts=4, seed=2)
    assert [len({np.clip(z, *box).tobytes() for z in starts})
            for (_, box, starts), _ in searches] == [distinct] * 3
    assert len(calls) == 3 * distinct
    for kwargs, _ in calls:
        assert callable(kwargs["jac"]) and kwargs["method"] == "L-BFGS-B"
        assert isinstance(kwargs["bounds"], scipy.optimize.Bounds)
    assert sum(nfev for _, nfev in calls) > 0


@pytest.mark.parametrize("restarts", [0, -1])
def test_fit_rejects_restarts_below_one_before_any_likelihood(monkeypatch,
                                                             restarts):
    import mfkrig.kriging as kriging

    def never_called(*args, **kwargs):
        raise AssertionError("likelihood evaluated")

    monkeypatch.setattr(kriging, "_solve_level", never_called)
    problem = make_problem(np.random.default_rng(0))
    with pytest.raises(ValueError, match="restarts must be a positive integer"):
        fit_one(problem, restarts=restarts)


@pytest.mark.parametrize("restarts", [0, -1, 2.0, True])
def test_draw_starts_rejects_a_restart_count_before_drawing(restarts):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    box = kriging._search_box(np.array([[0.0], [1.0]]), None)
    with pytest.raises(ValueError, match="restarts must be a positive integer"):
        kriging._draw_starts(*box, restarts, rng)
    assert rng.bit_generator.state == state


def test_factorization_reproduces_correlation_matrix():
    rng = np.random.default_rng(8)
    problem = make_problem(rng, n=14)
    level = fit_one(problem, restarts=2, seed=1).levels[0]
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


@pytest.mark.parametrize("m", [1, 7])
def test_variance_factor_ignores_the_memory_order_of_the_factor(m):
    rng = np.random.default_rng(5)
    design = rng.uniform(0, 1, size=(12, 2))
    theta = np.array([0.4, 0.5])
    lo = fresh_factor(SE, design, theta)
    c = kriging._scaled_correlation(SE, design / theta,
                                    rng.uniform(0, 1, size=(m, 2)) / theta)
    fortran = variance_factor(np.asfortranarray(lo), c)
    assert (variance_factor(np.ascontiguousarray(lo), c) == fortran).all()


def test_one_column_is_solved_as_a_column_among_others_to_round_off():
    # one column goes through dtrtrs, several through the row recursion
    rng = np.random.default_rng(6)
    design = rng.uniform(0, 1, size=(40, 2))
    theta = np.array([0.3, 0.5])
    lo = fresh_factor(SE, design, theta)
    c = kriging._scaled_correlation(SE, design / theta,
                                    rng.uniform(0, 1, size=(9, 2)) / theta)
    batch = variance_factor(lo, c)
    single = np.array([variance_factor(lo, c[:, [j]])[0] for j in range(9)])
    assert np.max(np.abs(single - batch)) <= 1e-12


# (rows, columns) for each pass plan of the row recursion
@pytest.mark.parametrize("n, m", [
    (12, 10_001), (30, 10_201), (28, 10_201), (150, 2_000), (300, 1_025),
    (60, 2_049), (5, 0)],
    ids=["one-pass", "8-blocks-a-pass", "9-blocks-a-pass", "1-block-a-pass",
         "one-column-last-pass", "one-column-last-block", "no-columns"])
def test_the_row_recursion_equals_the_full_width_oracle_fresh_and_continued(
        n, m):
    rng = np.random.default_rng(n)
    design = rng.uniform(0, 1, size=(n, 2))
    theta = np.array([0.05, 0.08])
    lo = fresh_factor(SE, design, theta)
    c = kriging._scaled_correlation(SE, design / theta,
                                    rng.uniform(0, 1, size=(m, 2)) / theta)
    want_v, want_s = np.empty((n, m)), np.zeros(m)
    reference_solve_rows(lo, c, want_v, want_s)
    fresh_v, fresh_s = np.empty((n, m)), np.zeros(m)
    kriging._solve_rows(lo, c, fresh_v, fresh_s, 0)
    v, s = np.empty((n, m)), np.zeros(m)
    for start, stop in [(0, 1), (1, 3), (3, n)]:
        kriging._solve_rows(lo, c[start:stop], v, s, start)
    for got_v, got_s in [(fresh_v, fresh_s), (v, s)]:
        assert got_v.tobytes() == want_v.tobytes()
        assert got_s.tobytes() == want_s.tobytes()


def test_variance_clamp_raises_beyond_slack():
    # fabricated inconsistent inputs: factor is about -1 at a duplicated point
    lo = np.linalg.cholesky(np.array([[1.0]]))
    with pytest.raises(InternalConsistencyError):
        variance_factor(lo, np.array([[1.4]]))


def test_variance_clamp_sees_a_bad_factor_beside_a_nan():
    # the factors are 1 - s: nan and -1.0
    with pytest.raises(InternalConsistencyError, match="-1.000e"):
        kriging._clamped_factor(1.0 - np.array([np.nan, -1.0]))
    # a nan alone passes through, a round-off negative clamps to 0, and
    # no columns give no factors
    got = kriging._clamped_factor(1.0 - np.array([np.nan, -1e-10, 0.25]))
    assert np.isnan(got[0]) and got[1:].tolist() == [0.0, 0.25]
    assert kriging._clamped_factor(np.zeros(0)).shape == (0,)


# ------------------------------------------------------------ validation

def test_problem_rejects_duplicate_points():
    with pytest.raises(DuplicateDesignPointError):
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
