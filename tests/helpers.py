"""Shared test utilities: prior sampling, dense reference formulas, the
likelihood evaluation through scipy's checked wrappers, a fresh factor
of R + nugget from the library's solve, the variance row recursion
row by row over the full width, a Nelder-Mead
likelihood search as the yardstick of the library's L-BFGS-B search,
that search with its former memoized ``minimize`` call as its oracle, a
variance search through ``predict``, the likelihood gradient's weight
from its own distance matrix, the likelihood gradient by its direct
formula, the frozen refit that solves every level again, the
reestimate with its record of searched levels outside the model, the point
index's sort key from each coordinate's bits, the greedy maximin subset
on scipy's distances, and the sequential loop spelled out through public
calls."""

import struct

import numpy as np
from scipy.linalg import LinAlgError, cholesky, lstsq, solve_triangular
from scipy.linalg.lapack import dpotri
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

import mfkrig.kriging as kriging
from mfkrig.cokriging import (
    MultiFidelityModel,
    _assemble_level,
    _check_estimable,
    _check_levels,
    _level_inputs,
)
from mfkrig.exceptions import (
    FitFailedError,
    IllConditionedError,
    SingularTrendError,
)
from mfkrig.kernels import (
    NUGGET,
    KernelSpec,
    correlation_matrix,
    extends,
)
from mfkrig.kriging import _sigma2_floor
from mfkrig.sequential import (
    EnrichmentTrace,
    TraceEntry,
    argmax_variance,
    choose_level,
    compute_imse,
    enrich,
)


def add_nugget(r):
    """A copy of ``r`` with NUGGET added to the diagonal."""
    out = np.array(r, dtype=float, copy=True)
    out[np.diag_indices_from(out)] += NUGGET
    return out


def sample_gp(rng, points, kernel: KernelSpec, sigma2=1.0, mean=0.0):
    """Draw one realization of a zero/constant-mean GP at ``points``."""
    r = add_nugget(correlation_matrix(kernel, points))
    lo = np.linalg.cholesky(r)
    return mean + np.sqrt(sigma2) * (lo @ rng.standard_normal(len(points)))


def dense_gls(r, f, y):
    """GLS through explicit inverses: the independent oracle for gls_fit."""
    rn = add_nugget(np.asarray(r, dtype=float))
    ri = np.linalg.inv(rn)
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.linalg.solve(f.T @ ri @ f, f.T @ ri @ y)
    resid = y - f @ beta
    sigma2 = float(resid @ ri @ resid) / (len(y) - f.shape[1])
    return beta, sigma2


def reference_chol_nugget(r):
    """Lower Cholesky factor of ``r`` + nugget through ``scipy.linalg.cholesky``."""
    try:
        return cholesky(add_nugget(r), lower=True)
    except LinAlgError as exc:
        raise IllConditionedError(
            f"correlation matrix of size {r.shape[0]} is not positive definite "
            "even after the nugget"
        ) from exc


def reference_gls(chol_lower, f, y):
    """(beta, sigma2) of GLS on a factor through ``solve_triangular`` and
    ``lstsq``, with all of scipy's checks."""
    n, p = f.shape
    fw = solve_triangular(chol_lower, f, lower=True)
    yw = solve_triangular(chol_lower, y, lower=True)
    beta, _, rank, _ = lstsq(fw, yw)
    if rank < p:
        raise SingularTrendError(
            f"trend matrix has rank {rank} < {p}; columns are collinear"
        )
    resid = yw - fw @ beta
    sigma2 = float(resid @ resid) / (n - p)
    return beta, sigma2


def reference_nll_terms(design, trend_matrix, y, kernel):
    """(nll, beta, sigma2, chol, alpha) of a fresh ``kriging._solve_level``
    through the public kernel and scipy wrappers: the oracle of the bare
    LAPACK path, which must match it bit for bit."""
    return reference_factored_nll_terms(
        reference_chol_nugget(correlation_matrix(kernel, design)),
        trend_matrix, y)


def reference_factored_nll_terms(lo, trend_matrix, y, coef=None):
    """``reference_nll_terms`` on a given factor ``lo`` of R + nugget:
    the oracle of ``kriging._solve_level`` on a grown factor (one that
    already covers every row is used as it is). A sigma2_hat below a
    million times the floor is round-off and counts as the floor; with
    ``coef`` given, nll and sigma2 are nan. alpha = R^{-1}(y - H coef)
    comes from two ``solve_triangular`` calls."""
    nll = sigma2 = float("nan")
    if coef is None:
        coef, sigma2 = reference_gls(lo, trend_matrix, y)
        floor = _sigma2_floor(y)
        if sigma2 < 1e6 * floor:
            sigma2 = floor
        logdet = 2.0 * float(np.sum(np.log(np.diag(lo))))
        n, p = trend_matrix.shape
        nll = float((n - p) * np.log(sigma2) + logdet)
    v = solve_triangular(lo, y - trend_matrix @ coef, lower=True)
    alpha = solve_triangular(lo, v, lower=True, trans=1)
    return nll, coef, sigma2, lo, alpha


def fresh_factor(family, design, theta):
    """The lower factor of R(theta) + nugget on ``design`` (n >= 2) that a
    fresh ``kriging._solve_level`` builds, here of a constant-trend level
    on the design's first coordinate."""
    lik = kriging._likelihood(family, design, np.ones((len(design), 1)),
                              design[:, 0])
    return kriging._solve_level(lik, theta)[3]


def reference_solve_rows(chol_lower, c, v, s):
    """V = L^{-1} C into ``v`` and the sum of its squared rows added to
    ``s`` by the row recursion, one row at a time over the full width:
    one gemv per ``kriging._COLUMN_BLOCK`` columns, then one subtract,
    scale and square-accumulate over the row."""
    rows = np.ascontiguousarray(chol_lower)
    inverses = 1.0 / chol_lower.diagonal()
    blocks = [slice(j, j + kriging._COLUMN_BLOCK)
              for j in range(0, c.shape[1], kriging._COLUMN_BLOCK)]
    square = np.empty(c.shape[1])
    for i, (c_i, l_i, inverse) in enumerate(zip(c, rows, inverses)):
        v_i, l_i = v[i], l_i[:i]
        for block in blocks:
            np.matmul(l_i, v[:i, block], out=v_i[block])
        np.subtract(c_i, v_i, out=v_i)
        v_i *= inverse
        np.multiply(v_i, v_i, out=square)
        s += square


def reference_ml_fit(lik, box, starts):
    """A Nelder-Mead likelihood search, the yardstick for the NLL that
    ``kriging._ml_fit`` reaches by L-BFGS-B: from each start, every
    objective call clips its point into the log-box and solves the level
    afresh (``kriging._solve_level``). It takes the same arguments as
    ``_ml_fit`` (a likelihood record, the box and the starts) and
    returns the same (kernel, solve at the best point), so it can stand
    in for it."""
    log_lo, log_hi = box

    def objective(z):
        z = np.clip(z, log_lo, log_hi)
        try:
            nll = kriging._solve_level(lik, np.exp(z))[0]
        except (IllConditionedError, SingularTrendError):
            return np.inf
        return nll if np.isfinite(nll) else np.inf

    best = None
    for z0 in starts:
        f0 = objective(z0)
        if not np.isfinite(f0):
            continue
        res = minimize(objective, z0, method="Nelder-Mead",
                       options={"xatol": 1e-6, "fatol": 1e-9,
                                "maxiter": 400 * lik.design.shape[1]})
        fun, z = (res.fun, res.x) if res.fun <= f0 else (f0, z0)
        if best is None or fun < best[0]:
            best = (fun, np.clip(z, log_lo, log_hi))
    if best is None:
        raise FitFailedError(
            f"all {len(starts)} likelihood starts were ill-conditioned")
    theta = np.exp(best[1])
    return KernelSpec(lik.family, theta), kriging._solve_level(lik, theta)


def memoized_ml_fit(lik, box, starts):
    """``kriging._ml_fit`` as it called ``scipy.optimize.minimize`` before
    value and gradient were two callables: one objective returning both
    (``jac=True``, so scipy memoizes the gradient), and the box as a list
    of (lo, hi) pairs on every run. The distinct clipped starts are each
    evaluated once, each run answers its first call from its start and
    divides by the same ``_FIRST_STEP`` scale, and the best point is the
    first strict minimum. An evaluation is ``kriging._solve_level`` and
    the gradient of the old ``_nll_gradient``, with its ``np.outer``.
    The oracle of ``_ml_fit``, which must match it bit for bit."""
    log_lo, log_hi = box
    sq_diff = kriging._squared_differences(lik.design)
    best = [np.inf, None, None]

    def evaluate(z):
        theta = np.exp(z)
        try:
            terms = kriging._solve_level(lik, theta)
        except (IllConditionedError, SingularTrendError):
            return None
        nll, _, sigma2, lo, alpha, w = terms
        if not np.isfinite(nll):
            return None
        if nll < best[0]:
            best[:] = nll, z.copy(), terms
        m, _ = dpotri(lo, lower=1)
        if sigma2 > lik.sigma2_floor:
            m -= np.outer(alpha / (2.0 * sigma2), alpha)
        m *= w
        return nll, 2.0 * (sq_diff @ m.ravel()) / (theta * theta)

    at_start = {}
    for z0 in starts:
        z = np.clip(z0, log_lo, log_hi)
        if z.tobytes() not in at_start:
            at_start[z.tobytes()] = (z, evaluate(z))
    if best[1] is None:
        raise FitFailedError(
            f"all {len(starts)} likelihood starts were ill-conditioned")
    for z0, first in at_start.values():
        if first is None:
            continue
        scale = max(1.0, float(np.linalg.norm(first[1])) / kriging._FIRST_STEP)

        def objective(z, z0=z0, first=first, scale=scale):
            value = first if z.tobytes() == z0.tobytes() else evaluate(z)
            if value is None:
                return np.inf, np.zeros_like(z)
            return value[0] / scale, value[1] / scale

        minimize(objective, z0, jac=True, method="L-BFGS-B",
                 bounds=list(zip(log_lo, log_hi)))
    _, z, terms = best
    return KernelSpec(lik.family, np.exp(z)), terms


def reference_log_lengthscale_weight(family, scaled):
    """W with dR/d(log theta_k) = W * D_k on the points ``scaled``, already
    divided by their lengthscales, where D_k holds their squared
    differences in dimension k: 2 R for the squared exponential and
    (5/3)(1 + u) exp(-u), u = sqrt(5) h, for Matern-5/2, from a second
    distance matrix. The oracle of the weight ``kriging._nll_gradient``
    reads, which must match it bit for bit."""
    if family == "squared-exponential":
        return 2.0 * np.exp(-cdist(scaled, scaled, "sqeuclidean"))
    u = np.sqrt(5.0) * cdist(scaled, scaled, "euclidean")
    return (5.0 / 3.0) * (1.0 + u) * np.exp(-u)


def reference_nll_gradient(lik, theta, terms):
    """d nll / d(log theta) of ``kriging._nll_gradient`` by the direct
    formula: the (n, n, d) broadcast of differences of the scaled design
    against the strict lower triangle of R^{-1} - alpha alpha' / sigma2
    (without the alpha term where sigma2 is the floor), times the weight
    W of the terms. The oracle of the one-gemv form, which must match it
    to round-off."""
    _, _, sigma2, lo, alpha, w = terms
    m, _ = dpotri(lo, lower=1)
    if sigma2 > lik.sigma2_floor:
        m -= np.outer(alpha / sigma2, alpha)
    scaled = lik.design / theta
    m = np.tril(m, -1) * w
    diff = scaled[:, None, :] - scaled[None, :, :]
    return 2.0 * np.einsum("ij,ijk->k", m, diff * diff)


def dense_predict(design, y, trend_matrix, beta, kernel, sigma2, x_matrix,
                  trend_at_x):
    """Posterior mean/variance through dense LU solves with R + nugget.

    Independent of the library's Cholesky route, and accurate enough on
    matrices of condition ~1e7 to check predictions to rtol 1e-10, which
    an explicit inverse is not.
    """
    rn = add_nugget(correlation_matrix(kernel, design))
    from mfkrig.kernels import cross_correlation

    c = cross_correlation(kernel, design, x_matrix)
    mean = trend_at_x @ beta + c.T @ np.linalg.solve(rn, y - trend_matrix @ beta)
    var = sigma2 * (1.0 - np.einsum("ij,ij->j", c, np.linalg.solve(rn, c)))
    return mean, var


def reference_same_points(a, b):
    """(len(a), len(b)) boolean matrix, True where a[i] and b[j] are the
    same point: row identity through a tobytes() dict, one row at a time.
    The oracle of ``kernels.PointIndex``."""
    index = {}
    for j, row in enumerate(b):
        index.setdefault(row.tobytes(), []).append(j)
    out = np.zeros((len(a), len(b)), dtype=bool)
    for i, row in enumerate(a):
        out[i, index.get(row.tobytes(), [])] = True
    return out


def reference_key(point):
    """The key ``kernels.PointIndex`` sorts a point by, one integer per
    coordinate from its float64 bits read by ``struct``: the sign bit set
    when clear, every bit flipped when set. Keys order as the coordinates
    do lexicographically, -0.0 just below 0.0, and are equal only for
    bitwise-equal points."""
    key = []
    for value in point:
        bits = int.from_bytes(struct.pack(">d", value), "big")
        key.append(bits ^ ((1 << 64) - 1) if bits >> 63 else bits | 1 << 63)
    return tuple(key)


def reference_maximin_subset(points, m):
    """Sorted indices of the greedy maximin m-subset of ``points``, one
    point at a time on scipy's cdist distances: first the point whose
    nearest neighbour is farthest, then the point farthest from those
    chosen, each tie to the smallest index. The oracle of
    ``testbed._maximin_subset``."""
    dist, n = cdist(points, points), len(points)
    if m >= n:
        return list(range(n))
    chosen = [max(range(n), key=lambda i: np.delete(dist[i], i).min())]
    while len(chosen) < m:
        rest = [i for i in range(n) if i not in chosen]
        chosen.append(max(rest, key=lambda i: dist[i, chosen].min()))
    return sorted(chosen)


def draw_nested_designs(rng, sizes, d):
    """Random designs on [0,1]^d nested by subsetting rows, largest first."""
    designs = [rng.uniform(0.0, 1.0, size=(sizes[0], d))]
    for n in sizes[1:]:
        idx = rng.choice(len(designs[-1]), size=n, replace=False)
        designs.append(designs[-1][idx])
    return designs


def draw_ar1_data(rng, designs, rho_values, kernels, sigma2s):
    """Sample responses from the autoregressive chain on nested designs.

    ``rho_values[t]`` scales level t+1's contribution of level t and may
    be a scalar or a per-point array aligned with designs[t + 1].
    Returns the list of response vectors, cheapest level first.
    """
    observations = [sample_gp(rng, designs[0], kernels[0], sigma2=sigma2s[0])]
    for t in range(1, len(designs)):
        rows = np.argmax(reference_same_points(designs[t], designs[t - 1]),
                         axis=1)
        lower = observations[t - 1][rows]
        delta = sample_gp(rng, designs[t], kernels[t], sigma2=sigma2s[t])
        observations.append(rho_values[t - 1] * lower + delta)
    return observations


def reference_search(model, domain, count, seed, exclude=None):
    """A variance search through ``predict``, without node sets.

    Draws ``count`` uniform points with ``seed`` and returns the one with
    the largest ``predict`` variance that is not equal to an ``exclude``
    row; ties go to the lexicographically smallest point.
    """
    candidates = domain.uniform_points(count, np.random.default_rng(seed))
    variances = model.predict(candidates).variances[-1]
    if exclude is not None:
        kept = [not (np.asarray(exclude) == c).all(axis=1).any()
                for c in candidates]
        candidates, variances = candidates[kept], variances[kept]
    keys = [(-v, tuple(p)) for p, v in zip(candidates, variances)]
    return candidates[min(range(len(candidates)), key=keys.__getitem__)]


def reference_refit(model, data):
    """``MultiFidelityModel.refit`` solving every level again: each level
    on ``data`` at its carried kernel and sigma2, its factor grown by
    appended rows when its design extends the old one (recorded as
    ``grown_from``), else factored afresh."""
    _check_levels(data, model.configs)
    levels = []
    for t, (config, lev) in enumerate(zip(model.configs, model.levels),
                                      start=1):
        inputs = _level_inputs(config, data, t)
        lik = inputs[0]
        _check_estimable(t, lik.trend)
        grown_from = lev.chol if extends(lik.design, lev.design) else None
        terms = kriging._solve_level(lik, lev.lengthscales,
                                     grown_from=grown_from)
        levels.append(_assemble_level(config, inputs, lev.kernel, terms,
                                      sigma2=lev.sigma2))
        levels[-1].grown_from = grown_from
    out = MultiFidelityModel(levels, data, model.configs)
    out._bounds = model._bounds
    return out


def reference_reestimate(model, data, searched):
    """A reestimate spelled out, with the record of searched levels kept
    outside the model: ``searched`` holds the level objects a search
    built. A level of ``model`` that is one of them and whose design,
    responses and lower-level values on ``data`` have its own bytes is
    kept; every other level is ``kriging._ml_fit`` on ``data``, in the
    box of ``model``'s bounds, from its log-lengthscales and then the box
    midpoint. Returns (model, the levels it searched)."""
    _check_levels(data, model.configs)
    inputs = [_level_inputs(config, data, t)
              for t, config in enumerate(model.configs, start=1)]
    for t, (lik, _, q) in enumerate(inputs, start=1):
        _check_estimable(t, lik.trend, q)
    levels, new = [], []
    for t, (config, lev, level_inputs) in enumerate(
            zip(model.configs, model.levels, inputs), start=1):
        lik, lower, _ = level_inputs
        same = [a.tobytes() == b.tobytes() and a.shape == b.shape
                for a, b in ((lik.design, lev.design), (lik.y, lev.y))]
        if t > 1:
            same.append(lower.tobytes() == lev.lower_values.tobytes())
        if any(lev is s for s in searched) and all(same):
            levels.append(lev)
            continue
        log_lo, log_hi = kriging._search_box(lik.design, model._bounds)
        starts = [np.log(lev.lengthscales), 0.5 * (log_lo + log_hi)]
        levels.append(_assemble_level(config, level_inputs, *kriging._ml_fit(
            lik, (log_lo, log_hi), starts)))
        levels[-1].searched = True  # as the library marks it; never read here
        new.append(levels[-1])
    out = MultiFidelityModel(levels, data, model.configs)
    out._bounds = model._bounds
    return out, new


def replay_loop(model, domain, cost, budget, simulators, rule="imse-threshold",
                search=None, quadrature=None, refit="never"):
    """``run_loop`` spelled out through the public calls it makes.

    Every call resolves its search and quadrature afresh, so this is the
    reference for the loop's reuse of node sets between iterations.
    Simulators must not fail. Returns (model, trace).
    """
    period = {"never": 0, "always": 1}.get(refit)
    if period is None:
        period = int(refit.removeprefix("every-"))
    trace = EnrichmentTrace(dimension=domain.dimension,
                            levels=model.level_count)
    cum = 0.0
    iteration = 0
    imse = compute_imse(model, domain, quadrature)
    while True:
        x = argmax_variance(model, domain, search,
                            exclude=model.data.designs[0])
        if x is None:
            break
        level = choose_level(model, x, imse, cost, rule)
        step = cost.cost_through(level)
        if cum + step > budget:
            break
        iteration += 1
        values = [float(np.asarray(simulators[t](x[None, :])).reshape(-1)[0])
                  for t in range(level)]
        model = enrich(model, x, level, values=values,
                       reestimate=period > 0 and iteration % period == 0)
        cum += step
        imse_after = compute_imse(model, domain, quadrature)
        trace.entries.append(TraceEntry(iteration, x, level, values,
                                        imse, imse_after, cum))
        imse = imse_after
    return model, trace
