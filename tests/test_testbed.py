"""Tests for nested designs, built-in problems, and persistence."""

import itertools
import re
import os

import numpy as np
import pytest

from mfkrig.cokriging import (
    LevelConfig,
    LevelParameters,
    MultiFidelityData,
    MultiFidelityModel,
    validate_nesting,
)
from mfkrig.exceptions import ParseError
from mfkrig.kernels import BasisSpec, KernelSpec
from mfkrig.sequential import CostModel, Domain
from mfkrig.testbed import (
    TestProblem,
    builtin_problems,
    get_problem,
    load_data,
    load_model,
    load_points,
    nested_lhs,
    save_data,
    save_model,
    _maximin_subset,
)

from helpers import reference_maximin_subset, reference_same_points

UNIT1 = [[0.0, 1.0]]
UNIT2 = [[0.0, 1.0], [0.0, 1.0]]


# ---------------------------------------------------------------------------
# nested_lhs


def test_lhs_marginals_occupy_every_stratum():
    designs = nested_lhs([17], [[0.0, 2.0], [-1.0, 3.0]], seed=3)
    pts = designs[0]
    lo = np.array([0.0, -1.0])
    hi = np.array([2.0, 3.0])
    for j in range(2):
        strata = np.floor(17 * (pts[:, j] - lo[j]) / (hi[j] - lo[j])).astype(int)
        assert sorted(strata) == list(range(17))
    assert np.all(pts >= lo) and np.all(pts <= hi)


def test_nested_lhs_is_deterministic_given_seed():
    a = nested_lhs([12, 6, 3], UNIT2, seed=11)
    b = nested_lhs([12, 6, 3], UNIT2, seed=11)
    for da, db in zip(a, b):
        np.testing.assert_array_equal(da, db)
    c = nested_lhs([12, 6, 3], UNIT2, seed=12)
    assert not np.array_equal(a[0], c[0])


def test_equal_sizes_share_identical_designs():
    designs = nested_lhs([8, 8, 8], UNIT1, seed=0)
    np.testing.assert_array_equal(designs[0], designs[1])
    np.testing.assert_array_equal(designs[1], designs[2])


def test_size_one_subset_is_farthest_nearest_neighbor_point():
    designs = nested_lhs([10, 1], UNIT2, seed=5)
    pts = designs[0]
    # Brute force: the point whose nearest neighbor is farthest.
    best = None
    best_score = -np.inf
    for i in range(10):
        others = np.delete(pts, i, axis=0)
        score = np.min(np.linalg.norm(others - pts[i], axis=1))
        if score > best_score:
            best_score = score
            best = pts[i]
    np.testing.assert_array_equal(designs[1][0], best)


def test_maximin_subset_beats_random_subsets():
    designs = nested_lhs([20, 10, 5], UNIT2, seed=9)
    assert validate_nesting(designs) is None

    def min_pairwise(pts):
        return min(np.linalg.norm(a - b)
                   for a, b in itertools.combinations(pts, 2))

    ours = min_pairwise(designs[2])
    rng = np.random.default_rng(123)
    wins = 0
    trials = 200
    for _ in range(trials):
        idx = rng.choice(10, size=5, replace=False)
        if ours >= min_pairwise(designs[1][idx]):
            wins += 1
    assert wins >= 0.9 * trials


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("sizes, bounds", [
    ([20, 10, 5], UNIT2), ([9, 4, 1], UNIT1), ([30, 12, 4], UNIT2 + UNIT1),
    ([40, 40, 7], [[-1e3, 1e3], [0.0, 1e-3], [0.0, 1.0], [2.0, 3.0]])])
def test_maximin_subsets_are_those_of_the_cdist_oracle(sizes, bounds, seed):
    designs = nested_lhs(sizes, bounds, seed=seed)
    for points, subset, m in zip(designs, designs[1:], sizes[1:]):
        expected = points[reference_maximin_subset(points, m)]
        assert subset.tobytes() == expected.tobytes()


def test_maximin_ties_on_distances_not_their_squares():
    # the squares from the origin are 1 and 1 + 2**-52, and both roots
    # are 1: a tie that goes to the origin, where the squares would pick
    # the last point first
    points = np.array([[0.0, 0.0], [-0.1366233088963534, 0.990623072347001],
                       [0.9792689246653095, -0.20256449142149408]])
    assert reference_maximin_subset(points, 2) == [0, 1]
    assert _maximin_subset(points, 2).tolist() == [0, 1]


def test_nonmonotone_sizes_rejected():
    with pytest.raises(ValueError, match="nonincreasing"):
        nested_lhs([5, 8], UNIT1, seed=0)
    with pytest.raises(ValueError):
        nested_lhs([1], UNIT1, seed=0)
    with pytest.raises(ValueError):
        nested_lhs([], UNIT1, seed=0)


@pytest.mark.parametrize("sizes, bad", [
    ([10.5, 5], "10.5"), (["8", "4"], "'8'"), ([8, True], "True"),
    ([8, 4.0], "4.0")])
def test_sizes_that_are_not_integers_are_named(sizes, bad):
    with pytest.raises(ValueError, match=re.escape(
            f"level sizes must be integers, got {bad}")):
        nested_lhs(sizes, UNIT1, seed=0)
    assert [len(x) for x in nested_lhs(np.array([8, 4]), UNIT1)] == [8, 4]


# ---------------------------------------------------------------------------
# validate_nesting


def test_validate_nesting_flags_first_violation():
    designs = nested_lhs([9, 5, 2], UNIT2, seed=2)
    assert validate_nesting(designs) is None

    perturbed = [d.copy() for d in designs]
    perturbed[1][3, 0] += 1e-12
    assert validate_nesting(perturbed) == (2, 3)

    # Single level is vacuously nested.
    assert validate_nesting([designs[0]]) is None


def test_validate_nesting_reads_designs_as_the_data_does():
    # a bare (d,) vector is one point, to both
    designs = [np.array([0.1, 0.2, 0.3]), np.array([0.2])]
    assert validate_nesting(designs) == (2, 0)
    with pytest.raises(ValueError,
                       match="design for level 2 has dimension 1, expected 3"):
        MultiFidelityData(designs, [[1.0], [2.0]])
    columns = [d[:, None] for d in designs]
    assert validate_nesting(columns) is None
    assert MultiFidelityData(columns, [[1.0, 2.0, 3.0], [4.0]]).levels == 2


def test_validate_nesting_accepts_reordered_subset():
    parent = np.array([[0.1], [0.5], [0.9]])
    child = np.array([[0.9], [0.1]])
    assert validate_nesting([parent, child]) is None


# ---------------------------------------------------------------------------
# built-in problems


def test_forrester_reference_values():
    problem = get_problem("forrester")
    x = np.array([[0.5]])
    np.testing.assert_allclose(problem.evaluate(2, x), [np.sin(2.0)],
                               rtol=1e-12)
    assert abs(problem.evaluate(2, x)[0] - 0.9093) < 1e-4
    assert abs(problem.evaluate(1, x)[0] - (-4.5454)) < 1e-4


def test_all_problems_finite_on_scan():
    rng = np.random.default_rng(0)
    for problem in builtin_problems():
        lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
        pts = lo + rng.uniform(size=(1000, problem.dimension)) * (hi - lo)
        for level in range(1, problem.level_count + 1):
            values = problem.evaluate(level, pts)
            assert values.shape == (1000,)
            assert np.all(np.isfinite(values))


def test_problem_catalog_shapes():
    names = [p.name for p in builtin_problems()]
    assert names == ["forrester", "ripple2d", "chain3"]
    for problem in builtin_problems():
        assert problem.level_count >= 2
        assert all(a < b for a, b in zip(problem.costs, problem.costs[1:]))
    chain = get_problem("chain3")
    assert chain.level_count == 3 and chain.dimension == 1
    with pytest.raises(ValueError, match="unknown problem"):
        get_problem("nope")
    with pytest.raises(ValueError, match="level"):
        get_problem("forrester").evaluate(3, [[0.5]])


def test_problem_validation():
    with pytest.raises(ValueError, match="two levels"):
        TestProblem("x", UNIT1, [lambda x: x[:, 0]], [1.0])
    with pytest.raises(ValueError, match="increasing"):
        TestProblem("x", UNIT1, [lambda x: x[:, 0]] * 2, [2.0, 1.0])


def test_problem_costs_follow_the_cost_model():
    with pytest.raises(ValueError) as expected:
        CostModel([0.0, 1.0])
    with pytest.raises(ValueError, match=f"^{expected.value}$"):
        TestProblem("x", UNIT1, [lambda x: x[:, 0]] * 2, [0.0, 1.0])


def test_one_box_rule_for_domain_problem_and_designs():
    for bounds, message in [
        ([[0.0, np.inf]], "bounds must be finite"),
        ([[np.nan, 1.0]], "bounds must be finite"),
        ([[1.0, 0.0]], "each lower bound must be below its upper bound"),
        ([0.0, 1.0], r"bounds must have shape \(d, 2\)"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Domain(bounds)
        with pytest.raises(ValueError, match=f"^{message}$"):
            TestProblem("x", bounds, [lambda x: x[:, 0]] * 2, [1.0, 2.0])
        with pytest.raises(ValueError, match=f"^{message}$"):
            nested_lhs([4, 2], bounds)


# ---------------------------------------------------------------------------
# persistence


def _small_data(seed=0, sizes=(7, 4)):
    rng = np.random.default_rng(seed)
    designs = nested_lhs(sizes, UNIT1, seed=seed)
    observations = [np.sin(3.0 * d[:, 0]) + rng.normal(0, 0.1, len(d))
                    for d in designs]
    # Higher levels observe the same physical points, so restrict by lookup.
    for t in range(1, len(designs)):
        rows = np.argmax(reference_same_points(designs[t], designs[0]),
                         axis=1)
        observations[t] = observations[0][rows] + 0.5
    return MultiFidelityData(designs, observations)


def test_data_round_trip_is_bit_exact(tmp_path):
    data = _small_data()
    save_data(data, tmp_path)
    loaded = load_data(tmp_path)
    assert loaded.levels == data.levels
    for a, b in zip(loaded.designs, data.designs):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(loaded.observations, data.observations):
        np.testing.assert_array_equal(a, b)


def test_save_load_save_is_byte_identical(tmp_path):
    data = _small_data(seed=4)
    first = tmp_path / "a"
    second = tmp_path / "b"
    save_data(data, first)
    save_data(load_data(first), second)
    for name in sorted(os.listdir(first)):
        with open(first / name, "rb") as fa, open(second / name, "rb") as fb:
            assert fa.read() == fb.read(), name


def test_a_model_saved_over_a_deeper_one_loads(tmp_path):
    deep = _small_data(sizes=(9, 5, 3))
    basis = BasisSpec("constant", 1)
    configs = [LevelConfig(basis, KernelSpec("squared-exponential"),
                           scaling=None if t == 0 else basis)
               for t in range(3)]
    params = [LevelParameters([0.5], 1.0, [0.0],
                              rho_beta=None if t == 0 else [1.0])
              for t in range(3)]
    save_model(MultiFidelityModel.from_parameters(deep, configs, params),
               tmp_path)
    (tmp_path / "notes.txt").write_text("kept\n")
    model = _fitted_model()
    save_model(model, tmp_path)
    # the level-3 files go, and nothing else does
    assert sorted(os.listdir(tmp_path)) == [
        "design_1.csv", "design_2.csv", "level_1.csv", "level_2.csv",
        "model.json", "notes.txt"]
    loaded = load_model(tmp_path)
    assert loaded.level_count == 2
    probes = np.linspace(0.0, 1.0, 11)[:, None]
    np.testing.assert_allclose(loaded.predict(probes).means,
                               model.predict(probes).means, rtol=0, atol=1e-15)


def test_truncated_csv_parse_error_names_line(tmp_path):
    data = _small_data()
    save_data(data, tmp_path)
    path = tmp_path / "design_1.csv"
    lines = path.read_text().splitlines()
    lines[3] = "0.25,0.5"  # extra column on line 4
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"design_1\.csv:4"):
        load_data(tmp_path)

    lines[3] = "not-a-number"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"design_1\.csv:4"):
        load_data(tmp_path)


@pytest.mark.parametrize("cell", [
    "0_5", "1_5e-1",  # float() would read 5.0 and 1.5
    "\u0662", "0.\u0665",  # Arabic-Indic digits, read as 2.0 and 0.5
    "\u00a00.5",  # a non-ASCII space, which float() strips
])
def test_a_number_cell_is_ascii_without_underscores(tmp_path, cell):
    save_data(_small_data(), tmp_path)
    for name in ("design_1.csv", "level_1.csv"):
        path = tmp_path / name
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        lines[3] = ",".join([cell] + lines[3].split(",")[1:])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        match = re.escape(f"{name}:4: invalid float {cell!r}")
        if name.startswith("design"):
            with pytest.raises(ParseError, match=match):
                load_points(path)
        with pytest.raises(ParseError, match=match):
            load_data(tmp_path)
        path.write_text(text, encoding="utf-8")


def test_response_row_count_mismatch_is_validation_error(tmp_path):
    data = _small_data()
    save_data(data, tmp_path)
    path = tmp_path / "level_2.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="responses"):
        load_data(tmp_path)


def test_nesting_violation_on_load_is_validation_error(tmp_path):
    data = _small_data()
    save_data(data, tmp_path)
    path = tmp_path / "design_2.csv"
    lines = path.read_text().splitlines()
    lines[1] = "0.123456"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="nest"):
        load_data(tmp_path)


def test_missing_files_raise_parse_error(tmp_path):
    with pytest.raises(ParseError, match="no design files"):
        load_data(tmp_path)
    data = _small_data()
    save_data(data, tmp_path)
    os.remove(tmp_path / "level_2.csv")
    with pytest.raises(ParseError, match="missing response"):
        load_data(tmp_path)


def _fitted_model(seed=0):
    data = _small_data(seed=seed)
    d = data.dimension
    configs = [
        LevelConfig(BasisSpec("constant", d), KernelSpec("squared-exponential")),
        LevelConfig(BasisSpec("linear", d), KernelSpec("matern-5/2"),
                    scaling=BasisSpec("constant", d)),
    ]
    params = [
        LevelParameters(lengthscales=[0.4], sigma2=1.3, beta=[0.2]),
        LevelParameters(lengthscales=[0.6], sigma2=0.8, beta=[0.1, -0.3],
                        rho_beta=[1.7]),
    ]
    return MultiFidelityModel.from_parameters(data, configs, params)


def test_model_round_trip_reproduces_predictions(tmp_path):
    model = _fitted_model()
    save_model(model, tmp_path)
    loaded = load_model(tmp_path)

    rng = np.random.default_rng(42)
    probes = rng.uniform(size=(100, 1))
    a = model.predict(probes)
    b = loaded.predict(probes)
    np.testing.assert_allclose(b.means, a.means, rtol=0, atol=1e-15)
    np.testing.assert_allclose(b.variances, a.variances, rtol=0, atol=1e-15)

    # Parameter fidelity is exact, not just close.
    for la, lb in zip(model.levels, loaded.levels):
        np.testing.assert_array_equal(lb.kernel.lengthscales,
                                      la.kernel.lengthscales)
        assert lb.sigma2 == la.sigma2
        np.testing.assert_array_equal(lb.beta, la.beta)
    np.testing.assert_array_equal(loaded.levels[1].rho_beta,
                                  model.levels[1].rho_beta)


def test_model_save_is_deterministic(tmp_path):
    model = _fitted_model(seed=9)
    first = tmp_path / "a"
    second = tmp_path / "b"
    save_model(model, first)
    save_model(model, second)
    with open(first / "model.json", "rb") as fa, \
            open(second / "model.json", "rb") as fb:
        assert fa.read() == fb.read()


def test_model_sidecar_errors(tmp_path):
    model = _fitted_model()
    save_model(model, tmp_path)
    path = tmp_path / "model.json"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ParseError, match="model.json"):
        load_model(tmp_path)
