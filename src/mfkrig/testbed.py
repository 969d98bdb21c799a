"""Nested designs, analytic test problems, and file persistence.

Nested designs are built by Latin-hypercube sampling the largest level
and then extracting greedy maximin subsets, so every level is a
bit-exact subset of the one below it.  Persistence writes one design
CSV and one response CSV per level plus a JSON sidecar holding the
fitted parameters; CSV floats are stored with 17 significant digits and
sidecar floats in JSON's shortest round-trip form, so a round trip
reproduces them exactly.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .cokriging import (
    LevelConfig,
    LevelParameters,
    MultiFidelityData,
    MultiFidelityModel,
)
from .csvio import _typed, parse_number, parse_row, read_csv, read_json, write_csv
from .exceptions import ParseError
from .kernels import BasisSpec, KernelSpec, _cdist, _check_level, _is_integer
from .sequential import CostModel, _as_box


# ---------------------------------------------------------------------------
# nested designs


def nested_lhs(sizes, bounds, seed=0) -> list[np.ndarray]:
    """Nested designs: LHS of size n_1, then greedy maximin subsets.

    Parameters
    ----------
    sizes : sequence of int
        Points per level, cheapest first; must be nonincreasing with
        n_1 >= 2 so the subsets stay true subsets.
    bounds : array_like, shape (d, 2)
        Box domain, one (low, high) row per dimension.
    seed : int
        Seeds all randomness; output is deterministic given it.

    Returns
    -------
    list of ndarray
        One (n_t, d) array per level; each level's rows are bit-exact
        rows of the previous level's array.
    """
    sizes = list(sizes)
    for n in sizes:
        if not _is_integer(n):
            raise ValueError(f"level sizes must be integers, got {n!r}")
    sizes = [int(n) for n in sizes]
    if not sizes:
        raise ValueError("need at least one level size")
    if sizes[0] < 2 or sizes[-1] < 1:
        raise ValueError("need n_1 >= 2 and every size >= 1")
    if any(a < b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must be nonincreasing, got {sizes}")
    b = _as_box(bounds)
    d = b.shape[0]
    rng = np.random.default_rng(seed)

    # Latin hypercube: one point per equal-width stratum in every dimension.
    n = sizes[0]
    base = np.empty((n, d))
    for j in range(d):
        strata = rng.permutation(n) + rng.uniform(size=n)
        base[:, j] = b[j, 0] + strata * (b[j, 1] - b[j, 0]) / n

    designs = [base]
    for m in sizes[1:]:
        idx = _maximin_subset(designs[-1], m)
        designs.append(designs[-1][idx].copy())
    return designs


def _maximin_subset(points, m) -> np.ndarray:
    """Indices of a greedy maximin m-subset of points (sorted).

    Starts from the point whose nearest neighbor is farthest, then
    repeatedly adds the point farthest from the chosen set.  Ties break
    toward the smallest index, so the result is deterministic.
    """
    n = len(points)
    if m >= n:
        return np.arange(n)
    dist = _cdist()(points, points)
    np.fill_diagonal(dist, np.inf)
    chosen = [int(np.argmax(dist.min(axis=1)))]
    mind = dist[chosen[0]].copy()
    mind[chosen[0]] = -np.inf
    while len(chosen) < m:
        nxt = int(np.argmax(mind))
        chosen.append(nxt)
        mind = np.minimum(mind, dist[nxt])
        mind[nxt] = -np.inf
    return np.sort(chosen)


# ---------------------------------------------------------------------------
# analytic test problems


@dataclass
class TestProblem:
    """Analytic multi-fidelity problem: level functions cheap to expensive.

    Each level function takes an (n, d) array and returns (n,) values;
    costs are the per-evaluation reference costs, a valid ``CostModel``.
    """

    __test__ = False  # not a test case despite the Test* name

    name: str
    bounds: np.ndarray
    levels: list = field(repr=False)
    costs: list = field(repr=False)

    def __post_init__(self):
        self.bounds = _as_box(self.bounds)
        if len(self.levels) < 2:
            raise ValueError("a test problem needs at least two levels")
        if len(self.costs) != len(self.levels):
            raise ValueError("need one cost per level")
        self.costs = CostModel(self.costs).costs

    @property
    def dimension(self) -> int:
        return self.bounds.shape[0]

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def evaluate(self, level: int, x) -> np.ndarray:
        """Evaluate one level (1-based, cheapest first) at points x."""
        _check_level(level, len(self.levels))
        pts = np.asarray(x, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, self.dimension)
        return np.asarray(self.levels[level - 1](pts), dtype=float)


def _forrester_high(x):
    t = 6.0 * x[:, 0] - 2.0
    return t ** 2 * np.sin(12.0 * x[:, 0] - 4.0)


def _forrester_low(x):
    return 0.5 * _forrester_high(x) + 10.0 * (x[:, 0] - 0.5) - 5.0


def _ripple_high(x):
    return (np.sin(2.0 * np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])
            + 0.5 * (x[:, 0] + x[:, 1]))


def _ripple_low(x):
    return 0.8 * _ripple_high(x) + 0.3 * (x[:, 0] - x[:, 1]) - 0.2


def _chain_top(x):
    t = 5.0 * x[:, 0] - 1.0
    return 0.25 * t ** 2 * np.sin(10.0 * x[:, 0] - 2.0)


def _chain_mid(x):
    return 0.7 * _chain_top(x) + 2.0 * (x[:, 0] - 0.4)


def _chain_low(x):
    return 0.6 * _chain_mid(x) + x[:, 0] - 1.0


def builtin_problems() -> list[TestProblem]:
    """The built-in analytic problems, cheapest level first in each."""
    unit1 = [[0.0, 1.0]]
    unit2 = [[0.0, 1.0], [0.0, 1.0]]
    return [
        TestProblem("forrester", unit1, [_forrester_low, _forrester_high],
                    [1.0, 5.0]),
        TestProblem("ripple2d", unit2, [_ripple_low, _ripple_high],
                    [1.0, 6.0]),
        TestProblem("chain3", unit1, [_chain_low, _chain_mid, _chain_top],
                    [1.0, 4.0, 16.0]),
    ]


def get_problem(name: str) -> TestProblem:
    """Look up a built-in problem by name."""
    for problem in builtin_problems():
        if problem.name == name:
            return problem
    known = ", ".join(p.name for p in builtin_problems())
    raise ValueError(f"unknown problem {name!r}; known problems: {known}")


# ---------------------------------------------------------------------------
# persistence


def _design_path(directory, t):
    return os.path.join(directory, f"design_{t}.csv")


def _response_path(directory, t):
    return os.path.join(directory, f"level_{t}.csv")


_MODEL_SIDECAR = "model.json"


def load_points(path, expected=None) -> np.ndarray:
    """The (n, d) floats of a CSV whose header is ``expected``, by default
    a design's dim_0..dim_{d-1}; n may be 0."""
    header, body = read_csv(path)
    rows = [parse_row(path, lineno, line, len(header),
                      lambda cells: [parse_number(c) for c in cells])
            for lineno, line in body]
    expected = expected or [f"dim_{j}" for j in range(len(header))]
    if header != expected:
        raise ParseError(
            f"{path}:1: expected header {','.join(expected)!r}, "
            f"got {','.join(header)!r}")
    return np.array(rows, dtype=float).reshape(len(rows), len(header))


def save_data(data: MultiFidelityData, directory) -> None:
    """Write per-level design and response CSVs under directory.

    The level files of a deeper data set saved there before are removed,
    so that ``load_data`` reads back these levels only.
    """
    os.makedirs(directory, exist_ok=True)
    d = data.dimension
    header = [f"dim_{j}" for j in range(d)]
    for t in range(1, data.levels + 1):
        write_csv(_design_path(directory, t), header, data.designs[t - 1])
        write_csv(_response_path(directory, t), ["value"],
                  [[v] for v in data.observations[t - 1]])
    t = data.levels + 1
    while os.path.exists(_design_path(directory, t)):
        os.remove(_design_path(directory, t))
        with contextlib.suppress(FileNotFoundError):
            os.remove(_response_path(directory, t))
        t += 1


def load_data(directory) -> MultiFidelityData:
    """Read the per-level CSVs written by save_data.

    Levels are discovered by consecutive file names starting at 1.
    Malformed files raise ParseError with the offending line; the data
    object's rules raise as it does: ValueError, or
    DuplicateDesignPointError for a repeated point.
    """
    designs = []
    observations = []
    t = 1
    while os.path.exists(_design_path(directory, t)):
        design = load_points(_design_path(directory, t))
        rpath = _response_path(directory, t)
        if not os.path.exists(rpath):
            raise ParseError(f"{rpath}: missing response file for level {t}")
        designs.append(design)
        observations.append(load_points(rpath, ["value"]).ravel())
        t += 1
    if not designs:
        raise ParseError(f"{_design_path(directory, 1)}: no design files found")
    return MultiFidelityData(designs, observations)


# the fields of each level in model.json and their JSON types
_LEVEL_FIELDS = {"kernel_family": str, "lengthscales": list[float],
                 "sigma2": float, "beta": list[float], "trend": str,
                 "rho_beta": list[float] | None, "scaling": str | None}


def save_model(model: MultiFidelityModel, directory) -> None:
    """Write the model's data CSVs plus a JSON parameter sidecar."""
    save_data(model.data, directory)

    def floats(a):
        return None if a is None else [float(v) for v in a]

    levels = [{"kernel_family": lev.kernel.family,
               "lengthscales": floats(lev.kernel.lengthscales),
               "sigma2": float(lev.sigma2), "beta": floats(lev.beta),
               "trend": lev.trend.kind, "rho_beta": floats(lev.rho_beta),
               "scaling": None if lev.scaling is None else lev.scaling.kind}
              for lev in model.levels]
    sidecar = {"dimension": model.dimension, "levels": levels}
    path = os.path.join(directory, _MODEL_SIDECAR)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(directory) -> MultiFidelityModel:
    """Rebuild a model from save_model output.

    The stored parameters are taken as-is (no re-estimation); the
    correlation factorizations are recomputed from them, which is exact
    because the CSVs round-trip every float bit-for-bit. A model whose
    factors grew by frozen refits (``MultiFidelityModel.refit``, as in
    ``run_loop``) comes back with fresh factors instead, so it predicts
    what the saved model did to round-off, not bit for bit. A sidecar
    field that is missing, mistyped or at odds with the data raises
    ParseError naming the file; a non-finite parameter raises the
    ValueError of ``LevelParameters`` or ``KernelSpec``.
    """
    data = load_data(directory)
    path = os.path.join(directory, _MODEL_SIDECAR)
    sidecar = read_json(path)
    d, entries = (_typed(sidecar, key, kind, owner=f"{path}: ", error=ParseError)
                  for key, kind in (("dimension", int), ("levels", list[dict])))
    if (d, len(entries)) != (data.dimension, data.levels):
        raise ParseError(
            f"{path}: sidecar has {len(entries)} levels in dimension {d}, "
            f"the data {data.levels} in dimension {data.dimension}")
    configs, params = [], []
    for t, entry in enumerate(entries, start=1):
        f = {key: _typed(entry, key, kind, owner=f"{path}: level {t} ",
                         error=ParseError)
             for key, kind in _LEVEL_FIELDS.items()}
        configs.append(LevelConfig(
            BasisSpec(f["trend"], d), KernelSpec(f["kernel_family"]),
            None if f["scaling"] is None else BasisSpec(f["scaling"], d)))
        params.append(LevelParameters(f["lengthscales"], f["sigma2"],
                                      f["beta"], f["rho_beta"]))
    return MultiFidelityModel.from_parameters(data, configs, params)
