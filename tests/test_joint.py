import numpy as np
import pytest

from mfkrig.cokriging import (
    LevelConfig,
    LevelParameters,
    MultiFidelityData,
    MultiFidelityModel,
)
from mfkrig.kernels import BasisSpec, KernelSpec, basis_matrix, cross_correlation

from helpers import dense_predict, draw_ar1_data, draw_nested_designs
from joint_oracle import DEFAULT_MAX_POINTS, JointModel, OracleTooLargeError

SE = "squared-exponential"
M52 = "matern-5/2"


def constant(d=1):
    return BasisSpec("constant", d)


def chain_instance(seed, sizes=(12, 7), d=1, rhos=(1.4,),
                   thetas=(0.3, 0.4), sigma2s=(1.0, 0.25),
                   betas=None, families=None, rho_bases=None):
    """Nested data plus configs and fixed parameters for every level."""
    rng = np.random.default_rng(seed)
    s = len(sizes)
    families = families or [SE] * s
    designs = draw_nested_designs(rng, sizes, d)
    kernels = [KernelSpec(families[t], [thetas[t]] * d) for t in range(s)]
    obs = draw_ar1_data(rng, designs, list(rhos), kernels, sigma2s)
    data = MultiFidelityData(designs, obs)
    betas = betas or [[0.0]] * s
    configs = [LevelConfig(constant(d), KernelSpec(families[0]))]
    params = [LevelParameters([thetas[0]] * d, sigma2s[0], betas[0])]
    for t in range(1, s):
        scaling = rho_bases[t - 1] if rho_bases else constant(d)
        configs.append(LevelConfig(constant(d), KernelSpec(families[t]),
                                   scaling=scaling))
        rho_beta = rhos[t - 1] if np.ndim(rhos[t - 1]) else [rhos[t - 1]]
        params.append(LevelParameters([thetas[t]] * d, sigma2s[t], betas[t],
                                      rho_beta=rho_beta))
    return data, configs, params


# --------------------------------------------------------------- h_prime

def test_h_prime_bottom_level_is_plain_basis():
    data, configs, params = chain_instance(0)
    jm = JointModel(data, configs, params)
    np.testing.assert_array_equal(jm.h_prime([0.3], level=1), [1.0])


def test_h_prime_zero_scaling_blanks_lower_block():
    data, configs, params = chain_instance(1, rhos=(0.0,))
    jm = JointModel(data, configs, params)
    np.testing.assert_array_equal(jm.h_prime([0.3]), [0.0, 1.0])


def test_h_prime_three_levels_constant_scalings():
    a, b = 1.7, -0.6
    data, configs, params = chain_instance(
        2, sizes=(10, 6, 3), rhos=(a, b), thetas=(0.3, 0.4, 0.5),
        sigma2s=(1.0, 0.3, 0.1))
    jm = JointModel(data, configs, params)
    np.testing.assert_allclose(jm.h_prime([0.3]), [a * b, b, 1.0])


# ------------------------------------------------------ cross_covariance

def test_cross_covariance_base_case():
    data, configs, params = chain_instance(3)
    jm = JointModel(data, configs, params)
    x, xp = np.array([0.2]), np.array([0.7])
    r = cross_correlation(KernelSpec(SE, [0.3]), x, xp)[0, 0]
    assert jm.cross_covariance(1, 1, x, xp) == pytest.approx(1.0 * r, rel=1e-12)


def test_cross_covariance_across_levels_scales_by_rho():
    data, configs, params = chain_instance(4, rhos=(1.4,))
    jm = JointModel(data, configs, params)
    x, xp = np.array([0.2]), np.array([0.7])
    r = cross_correlation(KernelSpec(SE, [0.3]), x, xp)[0, 0]
    assert jm.cross_covariance(2, 1, x, xp) == pytest.approx(1.4 * r, rel=1e-12)
    # swap order: same value for constant rho
    assert jm.cross_covariance(1, 2, xp, x) == pytest.approx(1.4 * r, rel=1e-12)


def test_cross_covariance_same_upper_level():
    data, configs, params = chain_instance(5, rhos=(1.4,))
    jm = JointModel(data, configs, params)
    x, xp = np.array([0.2]), np.array([0.7])
    r1 = cross_correlation(KernelSpec(SE, [0.3]), x, xp)[0, 0]
    r2 = cross_correlation(KernelSpec(SE, [0.4]), x, xp)[0, 0]
    expected = 1.4 ** 2 * 1.0 * r1 + 0.25 * r2
    assert jm.cross_covariance(2, 2, x, xp) == pytest.approx(expected, rel=1e-12)


def test_cross_covariance_has_no_nugget_at_a_design_point():
    data, configs, params = chain_instance(5, rhos=(1.4,))
    jm = JointModel(data, configs, params)
    x = data.designs[1][0]
    assert jm.cross_covariance(1, 1, x, x) == 1.0
    assert jm.cross_covariance(2, 2, x, x) == 1.4 ** 2 * 1.0 + 0.25
    # the stacked covariance V does carry it there
    assert jm.v[0, 0] == 1.0 + 1e-10


# --------------------------------------------------------------- V matrix

def test_v_symmetric_for_constant_scaling():
    data, configs, params = chain_instance(6, sizes=(11, 6, 3),
                                           rhos=(1.2, 0.6),
                                           thetas=(0.3, 0.4, 0.5),
                                           sigma2s=(1.0, 0.3, 0.1))
    jm = JointModel(data, configs, params)
    assert jm.asymmetry() <= 1e-12


def test_v_blocks_follow_the_pairwise_formula():
    data, configs, params = chain_instance(7)
    jm = JointModel(data, configs, params)
    n1 = len(data.designs[0])
    scale = float(np.max(np.diag(jm.v)))
    for t, dt in enumerate(data.designs, start=1):
        for tp, dtp in enumerate(data.designs, start=1):
            rows = slice(0, n1) if t == 1 else slice(n1, None)
            cols = slice(0, n1) if tp == 1 else slice(n1, None)
            block = jm.v[rows, cols]
            for i in range(len(dt)):
                for j in range(len(dtp)):
                    pure = jm.cross_covariance(t, tp, dt[i], dtp[j])
                    # stored matrix adds the nugget at identical points
                    assert abs(block[i, j] - pure) <= 3e-10 * scale


def test_nonconstant_scaling_reports_asymmetry():
    # the displayed chain formula evaluates rho at the row point; a
    # linear rho therefore makes same-level blocks asymmetric, which is
    # detected rather than silently symmetrized
    data, configs, params = chain_instance(8)
    configs[1] = LevelConfig(constant(), KernelSpec(SE),
                             scaling=BasisSpec("linear", 1))
    params[1] = LevelParameters([0.4], 0.25, [0.0], rho_beta=[0.5, 2.0])
    jm = JointModel(data, configs, params)
    assert jm.asymmetry() > 1e-12


def test_oracle_cap_enforced():
    data, configs, params = chain_instance(9, sizes=(150, 60))
    with pytest.raises(OracleTooLargeError):
        JointModel(data, configs, params)
    data, configs, params = chain_instance(9, sizes=(150, DEFAULT_MAX_POINTS - 150))
    JointModel(data, configs, params)


@pytest.mark.parametrize("layout, message", [
    ("scaling at level 1", "level 1 takes no scaling basis"),
    ("no rho_beta at level 2", "level 2 needs a scaling basis"),
])
def test_layout_errors_match_from_parameters(layout, message):
    data, configs, params = chain_instance(0)
    if layout == "scaling at level 1":
        configs[0] = LevelConfig(constant(), KernelSpec(SE), scaling=constant())
    else:
        params[1] = LevelParameters([0.4], 0.25, [0.0])
    with pytest.raises(ValueError, match=f"^{message}$"):
        MultiFidelityModel.from_parameters(data, configs, params)
    with pytest.raises(ValueError, match=f"^{message}$"):
        JointModel(data, configs, params)


# ---------------------------------------------------------- JointModel.predict

def test_joint_interpolates_top_design_points():
    data, configs, params = chain_instance(10)
    jm = JointModel(data, configs, params)
    for i, x in enumerate(data.designs[1]):
        mean, var = jm.predict(x)
        z = data.observations[1][i]
        assert abs(mean - z) <= 1e-8 * (1 + abs(z))
        assert 0 <= var <= 1e-9


def test_single_level_reduces_to_kriging():
    # well-separated design so both linear-algebra routes stay accurate
    rng = np.random.default_rng(11)
    design = np.linspace(0.0, 1.0, 9)[:, None]
    y = np.sin(4 * design[:, 0])
    data = MultiFidelityData([design], [y])
    configs = [LevelConfig(constant(), KernelSpec(SE))]
    params = [LevelParameters([0.3], 0.8, [0.2])]
    jm = JointModel(data, configs, params)

    probes = rng.uniform(0, 1, size=(40, 1))
    mean_j, var_j = jm.predict(probes)
    mean_k, var_k = dense_predict(design, y, basis_matrix(constant(), design),
                                  np.array([0.2]), KernelSpec(SE, [0.3]), 0.8,
                                  probes, basis_matrix(constant(), probes))
    np.testing.assert_allclose(mean_j, mean_k, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(var_j, var_k, rtol=1e-8, atol=1e-12)


def test_zero_scaling_ignores_cheap_observations():
    data, configs, params = chain_instance(12, rhos=(0.0,))
    jm = JointModel(data, configs, params)
    shifted = MultiFidelityData(
        data.designs,
        [data.observations[0] + np.random.default_rng(0).normal(size=12),
         data.observations[1]])
    jm2 = JointModel(shifted, configs, params)
    probes = np.random.default_rng(1).uniform(0, 1, size=(30, 1))
    m1, v1 = jm.predict(probes)
    m2, v2 = jm2.predict(probes)
    np.testing.assert_allclose(m1, m2, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(v1, v2, rtol=1e-10, atol=1e-10)


# ----------------------------------------------- recursive equivalence

def rel_gap(a, b):
    return np.max(np.abs(a - b) / (1.0 + np.abs(b)))


@pytest.mark.parametrize("seed", range(6))
def test_recursive_matches_joint_two_levels(seed):
    rng = np.random.default_rng(300 + seed)
    family = [SE, M52][seed % 2]
    data, configs, params = chain_instance(
        300 + seed, sizes=(rng.integers(8, 16), rng.integers(4, 8)),
        d=int(rng.integers(1, 3)),
        rhos=(float(rng.uniform(-1.5, 2.0)),),
        thetas=(0.35, 0.45), sigma2s=(1.0, 0.3),
        betas=[[0.3], [-0.1]], families=[family, family])
    recursive = MultiFidelityModel.from_parameters(data, configs, params)
    jm = JointModel(data, configs, params)
    probes = np.vstack([
        np.random.default_rng(99 + seed).uniform(0, 1, size=(60, data.dimension)),
        data.designs[0],
    ])
    out = recursive.predict(probes)
    mean_j, var_j = jm.predict(probes)
    assert rel_gap(out.means[-1], mean_j) <= 1e-8
    assert rel_gap(out.variances[-1], var_j) <= 1e-8


def test_recursive_matches_joint_three_levels():
    data, configs, params = chain_instance(
        13, sizes=(14, 8, 4), d=2, rhos=(1.3, 0.7),
        thetas=(0.4, 0.5, 0.6), sigma2s=(1.0, 0.4, 0.2),
        betas=[[0.0], [0.5], [-0.2]])
    recursive = MultiFidelityModel.from_parameters(data, configs, params)
    jm = JointModel(data, configs, params)
    probes = np.random.default_rng(14).uniform(0, 1, size=(80, 2))
    out = recursive.predict(probes)
    mean_j, var_j = jm.predict(probes)
    assert rel_gap(out.means[-1], mean_j) <= 1e-8
    assert rel_gap(out.variances[-1], var_j) <= 1e-8
