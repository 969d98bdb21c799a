import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfkrig.cokriging as cokriging
from mfkrig.cokriging import (
    LevelConfig,
    LevelParameters,
    MultiFidelityData,
    MultiFidelityModel,
    extended_trend_matrix,
    fit_level,
    fit_multifidelity,
    validate_nesting,
)
from mfkrig.exceptions import DuplicateDesignPointError, SingularTrendError
from mfkrig.kernels import (
    BasisSpec,
    KernelSpec,
    add_matched_nugget,
    basis_matrix,
    correlation_matrix,
    cross_correlation,
)
from mfkrig.kriging import _sigma2_floor, variance_factor

from helpers import (
    dense_gls,
    dense_predict,
    draw_ar1_data,
    draw_nested_designs,
    reference_ml_fit,
    reference_same_points,
    sample_gp,
)

SE = "squared-exponential"


def constant(d=1):
    return BasisSpec("constant", d)


def two_level_data(seed=0, n1=14, n2=7, d=1, rho=1.5,
                   thetas=(0.25, 0.35), sigma2s=(1.0, 0.2)):
    rng = np.random.default_rng(seed)
    designs = draw_nested_designs(rng, (n1, n2), d)
    kernels = [KernelSpec(SE, [t] * d) for t in thetas]
    obs = draw_ar1_data(rng, designs, [rho], kernels, sigma2s)
    return MultiFidelityData(designs, obs)


def two_level_configs(d=1):
    return [
        LevelConfig(constant(d), KernelSpec(SE)),
        LevelConfig(constant(d), KernelSpec(SE), scaling=constant(d)),
    ]


def fixed_two_level_model(data, rho=1.5, thetas=(0.25, 0.35),
                          sigma2s=(1.0, 0.2), d=1):
    params = [
        LevelParameters([thetas[0]] * d, sigma2s[0], [0.0]),
        LevelParameters([thetas[1]] * d, sigma2s[1], [0.0], rho_beta=[rho]),
    ]
    return MultiFidelityModel.from_parameters(data, two_level_configs(d), params)


# -------------------------------------------------------------- data type

def test_data_rejects_non_nested_designs():
    with pytest.raises(ValueError, match="nesting"):
        MultiFidelityData([[[0.0], [0.5], [1.0]], [[0.25]]],
                          [[1.0, 2.0, 3.0], [4.0]])


def test_data_nesting_is_exact_identity():
    d1 = np.array([[0.0], [0.5], [1.0]])
    d2 = np.array([[0.5 + 1e-12]])
    with pytest.raises(ValueError, match="nesting"):
        MultiFidelityData([d1, d2], [[1.0, 2.0, 3.0], [4.0]])


def test_data_rejects_response_count_mismatch():
    with pytest.raises(ValueError, match="responses"):
        MultiFidelityData([[[0.0], [1.0]]], [[1.0, 2.0, 3.0]])


def test_data_rejects_duplicate_points_within_level():
    with pytest.raises(DuplicateDesignPointError, match="duplicates"):
        MultiFidelityData([[[0.3], [0.3], [0.9]]], [[1.0, 2.0, 3.0]])


def test_data_rejects_designs_of_dimension_zero():
    # every row of dimension 0 would be the same point
    for rows in (1, 2):
        with pytest.raises(ValueError, match="at least one coordinate"):
            MultiFidelityData([np.empty((rows, 0))], [np.ones(rows)])
    with pytest.raises(ValueError, match="at least one coordinate"):
        validate_nesting([np.empty((2, 0)), np.empty((1, 0))])


def test_lower_level_values_follow_subset_order():
    rng = np.random.default_rng(1)
    d1 = rng.uniform(0, 1, size=(6, 2))
    z1 = rng.normal(size=6)
    order = [4, 0, 3]
    data = MultiFidelityData([d1, d1[order]], [z1, np.zeros(3)])
    np.testing.assert_array_equal(data.lower_level_values(2), z1[order])


def test_model_rejects_levels_fitted_on_other_designs():
    # predict finds design points in the data's indexes, so a level must
    # hold the data's design, bit for bit
    data = two_level_data(seed=2)
    model = fixed_two_level_model(data)
    same = MultiFidelityData([dd.copy() for dd in data.designs],
                             data.observations)
    MultiFidelityModel(model.levels, same, model.configs)
    reversed_rows = MultiFidelityData(
        [data.designs[0][::-1], data.designs[1]],
        [data.observations[0][::-1], data.observations[1]])
    grown = data.with_point(np.array([0.4321]), [0.0])
    for other in (reversed_rows, grown):
        with pytest.raises(ValueError, match="level 1 was fitted on another"):
            MultiFidelityModel(model.levels, other, model.configs)


def test_with_point_appends_to_prefix_levels():
    data = two_level_data()
    grown = data.with_point([0.123456], [5.0])
    assert len(grown.designs[0]) == len(data.designs[0]) + 1
    assert len(grown.designs[1]) == len(data.designs[1])
    assert grown.observations[0][-1] == 5.0
    # original untouched
    assert len(data.designs[0]) == 14


def test_with_point_rejects_existing_point():
    data = two_level_data()
    with pytest.raises(DuplicateDesignPointError):
        data.with_point(data.designs[0][3], [1.0])


def test_with_point_rejects_too_many_values():
    data = two_level_data()
    with pytest.raises(ValueError):
        data.with_point([0.5111], [1.0, 2.0, 3.0])


def _appended(data, x, values):
    """The designs and responses of ``data`` with x appended to levels
    1..len(values), built by hand."""
    k = len(values)
    return ([np.vstack([dd, x]) for dd in data.designs[:k]] + data.designs[k:],
            [np.append(z, v) for z, v in zip(data.observations, values)]
            + data.observations[k:])


# coordinates with ties, both zeros and negatives, so that rows share
# leading coordinates and neither order of an index is the row order
_COORDINATES = [-1.5, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0]


@st.composite
def _enrichment(draw):
    """Nested 1-3 level data in d = 1-2 on a small coordinate set, and a
    point with responses for levels 1..l: a point new to D_1, a point of
    D_1, a point of D_1 with one zero's sign flipped, or a new point with
    one non-finite coordinate or response, at any level."""
    levels = draw(st.integers(1, 3))
    d = draw(st.integers(1, 2))
    cells = [np.array(c) for c in np.ndindex(*[len(_COORDINATES)] * d)]
    rows = draw(st.lists(st.sampled_from(range(len(cells))), min_size=2,
                         max_size=min(8, len(cells)), unique=True))
    table = np.array(_COORDINATES)
    points = [table[cells[i]] for i in rows]
    x, points = points[-1], points[:-1]  # a point new to D_1
    sizes = sorted(draw(st.lists(st.integers(1, len(points)), min_size=levels,
                                 max_size=levels)), reverse=True)
    designs = [np.array(points[:sizes[0]])]
    for n in sizes[1:]:  # nested by subsetting rows
        keep = draw(st.permutations(range(len(designs[-1]))))[:n]
        designs.append(designs[-1][list(keep)])
    finite = st.floats(-1e3, 1e3)
    observations = [np.array(draw(st.lists(finite, min_size=n, max_size=n)))
                    for n in sizes]
    values = draw(st.lists(finite, min_size=1, max_size=levels))
    kind = draw(st.sampled_from(["new", "repeat", "signed zero",
                                 "bad point", "bad value"]))
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if kind in ("repeat", "signed zero"):
        x = designs[0][draw(st.integers(0, sizes[0] - 1))].copy()
    if kind == "signed zero":
        # flip the sign of a coordinate, a zero where there is one: a new
        # point unless D_1 holds the flipped point too
        k = int(np.argmax(x == 0.0))
        x[k] = -x[k]
        held = any(row.tobytes() == x.tobytes() for row in designs[0])
        kind = "repeat" if held else "new"
    elif kind == "bad point":
        x[draw(st.integers(0, d - 1))] = bad
    elif kind == "bad value":
        values[draw(st.integers(0, len(values) - 1))] = bad
    return MultiFidelityData(designs, observations), x, values, kind


def _index_fields(index):
    """Every field of a ``PointIndex``, in a form that tells apart any
    two values that differ in a bit, dtype or shape (or None)."""
    return [None if v is None else (v.dtype.str, v.shape, v.tobytes())
            if isinstance(v, np.ndarray) else v
            for v in (index.points, index.order, index._keys, index.distinct)]


@settings(max_examples=200, deadline=None)
@given(_enrichment())
def test_with_point_builds_what_the_constructor_builds(case):
    data, x, values, kind = case
    designs, observations = _appended(data, x, values)
    if kind == "new":
        grown = data.with_point(x, values)
        full = MultiFidelityData(designs, observations)
        for got, want in zip(grown.designs + grown.observations + grown._below,
                             full.designs + full.observations + full._below):
            assert (got.dtype, got.shape, got.tobytes()) == \
                (want.dtype, want.shape, want.tobytes())
        for got, want in zip(grown.indexes, full.indexes):
            assert _index_fields(got) == _index_fields(want)
        for t in range(2, data.levels + 1):
            assert grown.lower_level_values(t).tobytes() == \
                full.lower_level_values(t).tobytes()
        # a level the point did not reach keeps its arrays and index
        for t in range(len(values), data.levels):
            assert grown.designs[t] is data.designs[t]
            assert grown.observations[t] is data.observations[t]
            assert grown.indexes[t] is data.indexes[t]
        return
    error = DuplicateDesignPointError if kind == "repeat" else ValueError
    with pytest.raises(error) as full:
        MultiFidelityData(designs, observations)
    with pytest.raises(error) as appended:
        data.with_point(x, values)
    assert type(appended.value) is type(full.value)
    assert str(appended.value) == str(full.value)


@pytest.mark.parametrize("x, values", [
    ([np.inf], [1.0]), ([np.nan], [1.0, 2.0]), ([0.5111], [np.nan]),
    ([0.5111], [1.0, -np.inf]),
], ids=["inf-point", "nan-point", "nan-level-1", "inf-level-2"])
def test_with_point_rejects_non_finite_input_as_the_data_rules_do(x, values):
    data = two_level_data()
    with pytest.raises(ValueError) as full:
        MultiFidelityData(*_appended(data, x, values))
    with pytest.raises(ValueError) as appended:
        data.with_point(x, values)
    assert str(appended.value) == str(full.value)


# ------------------------------------------------------------------- rho

def test_rho_constant_one_and_zero():
    data = two_level_data()
    batch = np.array([[0.3], [0.777], [-0.0], [1.0], [0.3]])
    for value in (1.0, 0.0, -0.0):
        model = fixed_two_level_model(data, rho=value)
        level = model.levels[1]
        single = level.rho([0.3])
        assert single == value and level.rho([0.777]) == value
        assert type(single) is float and np.copysign(1.0, single) == 1.0
        # the product's value bit for bit: -0.0 comes out as +0.0
        want = basis_matrix(level.scaling, batch) @ level.rho_beta
        assert level.rho(batch).tobytes() == want.tobytes()


def test_rho_linear_in_x():
    data = two_level_data()
    configs = two_level_configs()
    configs[1] = LevelConfig(constant(), KernelSpec(SE),
                             scaling=BasisSpec("linear", 1))
    params = [
        LevelParameters([0.25], 1.0, [0.0]),
        LevelParameters([0.35], 0.2, [0.0], rho_beta=[0.5, 2.0]),
    ]
    model = MultiFidelityModel.from_parameters(data, configs, params)
    assert model.levels[1].rho([0.3]) == pytest.approx(0.5 + 2.0 * 0.3)
    out = model.levels[1].rho([[0.0], [1.0]])
    np.testing.assert_allclose(out, [0.5, 2.5])


def test_rho_on_level_one_is_an_error():
    data = two_level_data()
    model = fixed_two_level_model(data)
    with pytest.raises(ValueError):
        model.levels[0].rho([0.5])


# -------------------------------------------------------------- fit_level

def _exact_scaling_data():
    """z2 = 2 * z1 on D_2 exactly, with no discrepancy."""
    rng = np.random.default_rng(3)
    designs = draw_nested_designs(rng, (20, 10), 1)
    z1 = sample_gp(rng, designs[0], KernelSpec(SE, [0.25]))
    z2 = 2.0 * z1[np.argmax(reference_same_points(designs[1], designs[0]),
                            axis=1)]
    return MultiFidelityData(designs, [z1, z2])


def test_exact_scaling_relation_recovered():
    # beta_rho -> 2, residual-zero variance path taken (floored positive, tiny)
    level = fit_level(2, _exact_scaling_data(), two_level_configs()[1],
                      restarts=2, seed=0)
    assert level.rho_beta[0] == pytest.approx(2.0, abs=1e-6)
    assert 0 < level.sigma2 < 1e-20


def test_exact_scaling_relation_is_fitted_as_the_nelder_mead_reference(
        monkeypatch):
    # a round-off level: sigma2 is the floor, and L-BFGS-B on the smooth
    # objective (n - p) log(floor) + log det R does no worse than
    # Nelder-Mead from the same starts
    data, config = _exact_scaling_data(), two_level_configs()[1]
    level = fit_level(2, data, config, restarts=2, seed=0)
    assert level.sigma2 == _sigma2_floor(level.y)
    monkeypatch.setattr(cokriging, "_ml_fit", reference_ml_fit)
    reference = fit_level(2, data, config, restarts=2, seed=0)
    assert level.nll <= reference.nll


def test_zero_lower_responses_name_the_scaling_block():
    designs = [np.linspace(0, 1, 9)[:, None], np.linspace(0, 1, 9)[3:6][:, None]]
    data = MultiFidelityData(designs, [np.zeros(9), [1.0, 2.0, 3.0]])
    with pytest.raises(SingularTrendError, match="scaling"):
        fit_level(2, data, two_level_configs()[1], restarts=1, seed=0)


def test_extended_trend_coefficients_match_dense_gls():
    data = two_level_data(seed=9, n1=16, n2=9)
    config = two_level_configs()[1]
    level = fit_level(2, data, config, bounds=(0.35, 0.35), restarts=1, seed=0)
    h = extended_trend_matrix(config, data.designs[1],
                              data.lower_level_values(2))
    r = correlation_matrix(level.kernel, data.designs[1])
    coef, sigma2 = dense_gls(r, h, data.observations[1])
    assert level.rho_beta[0] == pytest.approx(coef[0], rel=1e-8)
    assert level.beta[0] == pytest.approx(coef[1], rel=1e-8)
    assert level.sigma2 == pytest.approx(sigma2, rel=1e-8)


def test_level_one_rejects_scaling_basis():
    data = two_level_data()
    with pytest.raises(ValueError):
        fit_multifidelity(data, [
            LevelConfig(constant(), KernelSpec(SE), scaling=constant()),
            two_level_configs()[1],
        ], restarts=1)


def test_upper_level_requires_scaling_basis():
    data = two_level_data()
    with pytest.raises(ValueError):
        fit_multifidelity(data, [
            LevelConfig(constant(), KernelSpec(SE)),
            LevelConfig(constant(), KernelSpec(SE)),
        ], restarts=1)


def test_full_fit_recovers_scaling_roughly():
    data = two_level_data(seed=21, n1=40, n2=20, rho=1.8,
                          sigma2s=(1.0, 0.05))
    model = fit_multifidelity(data, two_level_configs(), restarts=3, seed=2)
    assert abs(model.levels[1].rho_beta[0] - 1.8) < 0.3


@pytest.mark.parametrize("pair", [[0.05, 2.0], np.array([0.05, 2.0])])
def test_bounds_pair_of_any_sequence_type_fits_alike(pair):
    data = two_level_data(seed=4)
    kwargs = dict(restarts=2, seed=1)
    ref = fit_multifidelity(data, two_level_configs(), bounds=(0.05, 2.0),
                            **kwargs)
    got = fit_multifidelity(data, two_level_configs(), bounds=pair, **kwargs)
    for a, b in zip(ref.levels, got.levels):
        np.testing.assert_array_equal(a.lengthscales, b.lengthscales)
        assert (a.sigma2, a.nll) == (b.sigma2, b.nll)
        np.testing.assert_array_equal(a.beta, b.beta)
    probes = np.linspace(0.0, 1.0, 11)[:, None]
    np.testing.assert_array_equal(ref.predict(probes).variances,
                                  got.predict(probes).variances)


# --------------------------------------------------------------- predict

def test_predict_interpolates_every_level_at_nested_points():
    data = two_level_data(seed=7)
    model = fit_multifidelity(data, two_level_configs(), restarts=2, seed=0)
    sigma2s = [lev.sigma2 for lev in model.levels]
    rows = np.argmax(reference_same_points(data.designs[1], data.designs[0]),
                     axis=1)
    for i, x in enumerate(data.designs[1]):
        out = model.predict(x)
        z = [data.observations[0][rows[i]], data.observations[1][i]]
        for t in range(2):
            assert abs(out.means[t] - z[t]) <= 1e-8 * (1 + abs(z[t]))
            assert out.variances[t] <= 1e-10 * sigma2s[t]


def test_predict_reads_a_fortran_ordered_block_as_its_copy():
    data = two_level_data(seed=2, d=2)
    model = fixed_two_level_model(data, d=2)
    # design points and off-design points, in the column-major layout
    # that np.vstack([xs, ys]).T gives
    probes = np.vstack([data.designs[0][:4], data.designs[0][:4] + 0.01])
    fortran = np.asfortranarray(probes)
    assert not fortran.flags.c_contiguous
    got, want = model.predict(fortran), model.predict(probes)
    for name in ("means", "variances", "contributions"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_predict_level_one_interpolates_unshared_points():
    data = two_level_data(seed=7)
    model = fit_multifidelity(data, two_level_configs(), restarts=2, seed=0)
    shared = reference_same_points(data.designs[0],
                                   data.designs[1]).any(axis=1)
    for i, x in enumerate(data.designs[0]):
        if shared[i]:
            continue
        out = model.predict(x)
        z = data.observations[0][i]
        assert abs(out.means[0] - z) <= 1e-8 * (1 + abs(z))
        assert out.variances[0] <= 1e-10 * model.levels[0].sigma2
        # the expensive level has not been run here
        assert out.variances[1] > 0


def test_zero_scaling_decouples_top_level():
    data = two_level_data(seed=13)
    model = fixed_two_level_model(data, rho=0.0)
    design, z2 = data.designs[1], data.observations[1]
    probes = np.random.default_rng(0).uniform(0, 1, size=(50, 1))
    out = model.predict(probes)
    mean, var = dense_predict(design, z2, basis_matrix(constant(), design),
                              np.array([0.0]), KernelSpec(SE, [0.35]), 0.2,
                              probes, basis_matrix(constant(), probes))
    np.testing.assert_allclose(out.means[1], mean, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(out.variances[1], var, rtol=1e-10, atol=1e-14)


def test_contributions_sum_to_top_variance():
    rng = np.random.default_rng(17)
    designs = draw_nested_designs(rng, (18, 11, 5), 2)
    kernels = [KernelSpec(SE, [0.4, 0.6]), KernelSpec(SE, [0.5, 0.5]),
               KernelSpec("matern-5/2", [0.7, 0.3])]
    obs = draw_ar1_data(rng, designs, [1.3, 0.8], kernels, [1.0, 0.3, 0.1])
    data = MultiFidelityData(designs, obs)
    configs = [
        LevelConfig(constant(2), KernelSpec(SE)),
        LevelConfig(constant(2), KernelSpec(SE), scaling=constant(2)),
        LevelConfig(constant(2), KernelSpec("matern-5/2"), scaling=constant(2)),
    ]
    params = [
        LevelParameters([0.4, 0.6], 1.0, [0.1]),
        LevelParameters([0.5, 0.5], 0.3, [-0.2], rho_beta=[1.3]),
        LevelParameters([0.7, 0.3], 0.1, [0.0], rho_beta=[0.8]),
    ]
    model = MultiFidelityModel.from_parameters(data, configs, params)
    probes = rng.uniform(0, 1, size=(500, 2))
    out = model.predict(probes)
    total = out.contributions.sum(axis=0)
    np.testing.assert_array_less(
        np.abs(total - out.variances[-1]),
        1e-10 * (1 + out.variances[-1]))
    assert np.all(out.contributions >= 0)


@pytest.mark.parametrize("d", [1, 2])
def test_predict_on_no_points_gives_empty_rows(d):
    model = fixed_two_level_model(two_level_data(seed=2, d=d), d=d)
    out = model.predict(np.empty((0, d)))
    for a in (out.means, out.variances, out.contributions):
        assert a.shape == (2, 0) and a.dtype == float


def test_predict_single_point_matches_batch_column():
    data = two_level_data(seed=2)
    model = fixed_two_level_model(data)
    xs = np.array([[0.21], [0.88]])
    batch = model.predict(xs)
    one = model.predict(xs[1])
    assert one.means.shape == (2,)
    # single and batch paths may differ by BLAS summation order only
    np.testing.assert_allclose(one.means, batch.means[:, 1],
                               rtol=1e-10, atol=1e-11)
    np.testing.assert_allclose(one.variances, batch.variances[:, 1],
                               rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(one.contributions, batch.contributions[:, 1],
                               rtol=1e-10, atol=1e-12)


# ---------------------------------------------- hypothetical variances

def test_hypothetical_at_top_level_is_all_zero():
    data = two_level_data(seed=4)
    model = fixed_two_level_model(data)
    out = model.hypothetical_variance_after([0.41], 2)
    np.testing.assert_array_equal(out, np.zeros(2))


def test_hypothetical_after_cheap_run_keeps_discrepancy_term():
    data = two_level_data(seed=4)
    model = fixed_two_level_model(data)
    x = np.array([0.41])
    lev = model.levels[1]
    c = add_matched_nugget(
        cross_correlation(lev.kernel, lev.design, x[None, :]), lev.design,
        x[None, :])
    expected = lev.sigma2 * variance_factor(lev.chol, c)[0]
    out = model.hypothetical_variance_after(x, 1)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(expected, rel=1e-12)
    # same quantity as the top level's own contribution
    assert out[1] == pytest.approx(model.predict(x).contributions[1], rel=1e-12)


def test_variance_drop_equals_contributions_removed():
    rng = np.random.default_rng(23)
    designs = draw_nested_designs(rng, (15, 9, 4), 1)
    kernels = [KernelSpec(SE, [0.3])] * 3
    obs = draw_ar1_data(rng, designs, [1.2, 0.7], kernels, [1.0, 0.2, 0.1])
    data = MultiFidelityData(designs, obs)
    configs = [LevelConfig(constant(), KernelSpec(SE))] + [
        LevelConfig(constant(), KernelSpec(SE), scaling=constant())] * 2
    params = [
        LevelParameters([0.3], 1.0, [0.0]),
        LevelParameters([0.3], 0.2, [0.1], rho_beta=[1.2]),
        LevelParameters([0.3], 0.1, [0.0], rho_beta=[0.7]),
    ]
    model = MultiFidelityModel.from_parameters(data, configs, params)
    probes = rng.uniform(0, 1, size=(40, 1))
    out = model.predict(probes)
    for level in (1, 2, 3):
        hyp = model.hypothetical_variance_after(probes, level)
        removed = out.contributions[:level].sum(axis=0)
        drop = out.variances[-1] - hyp[-1]
        np.testing.assert_allclose(drop, removed,
                                   rtol=1e-9, atol=1e-12)
        # what choose_level reads: with three levels, bit for bit
        np.testing.assert_array_equal(
            hyp[-1], out.contributions[level:].sum(axis=0))


def test_hypothetical_level_out_of_range():
    data = two_level_data()
    model = fixed_two_level_model(data)
    with pytest.raises(ValueError):
        model.hypothetical_variance_after([0.5], 0)
    with pytest.raises(ValueError):
        model.hypothetical_variance_after([0.5], 3)


# ------------------------------------------------------- refit (frozen)

def test_refit_keeps_hyperparameters_and_updates_solves():
    data = two_level_data(seed=6)
    model = fit_multifidelity(data, two_level_configs(), restarts=2, seed=1)
    x = np.array([0.4321])
    # a response consistent with the field, as a simulator would return
    value = float(model.predict(x).means[0]) + 0.01
    grown = data.with_point(x, [value])
    refit = model.refit(grown)
    for old, new in zip(model.levels, refit.levels):
        np.testing.assert_array_equal(old.lengthscales, new.lengthscales)
        assert old.sigma2 == new.sigma2
    assert len(refit.levels[0].design) == len(model.levels[0].design) + 1
    out = refit.predict(x)
    assert abs(out.means[0] - value) <= 1e-8 * (1 + abs(value))


def test_adding_a_cheap_point_never_raises_cheap_variance():
    data = two_level_data(seed=8)
    model = fixed_two_level_model(data)
    grown = data.with_point([0.512345], [0.3])
    refit = model.refit(grown)
    probes = np.random.default_rng(3).uniform(0, 1, size=(200, 1))
    before = model.predict(probes).variances[0]
    after = refit.predict(probes).variances[0]
    assert np.all(after <= before + 1e-9)
