"""Refinement studies: fixed continuum scenarios run over a family of grids.

Each study rebuilds the same continuous configuration (an interval with a
power weight, a square with its interior domain) at several resolutions and
reports the constants whose stability the theory predicts: extension
characteristics, condition tables, Whitney overlap numbers, chain versus
quasihyperbolic comparability, and chain growth of weight averages.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import InvalidParameter, PreconditionFail
from .extension import check_extension_condition, wolff_extend
from .maximal import _mu_weighted
from .space import MetricMeasureSpace, build_grid_space
from .weights import power_weight
from .whitney import (
    DomainSpec,
    chain_distances,
    check_cover_invariants,
    make_domain,
    qh_distance,
    qh_distances,
    whitney_cover,
)

HOLD2_T_RANGE = (1.5, 5.0)  # dist(B, boundary)/rad(B) in [1/2, 4]
# Gate small enough that the shallowest studied domain already contains
# qh-1.0-separated Whitney-like pairs at the extremal boundary-distance ratio
# e^1.0; larger gates keep the measured band growing with domain depth long
# after the per-side estimate has converged.
HOLD2_QH_GATE = 1.0
# Whitney-like ball centers sampled by the growth study's integral band.
HOLD2_BALLS = 40

# Cover balls sampled as sources and targets of the chain statistics.
CHAIN_SOURCES, CHAIN_TARGETS = 12, 60
GROWTH_SOURCES, GROWTH_TARGETS = 10, 40
# Exponent of the growth study's weight w = (boundary distance)^exponent.
GROWTH_W_EXPONENT = 0.3
# The two points of (0, 1) whose quasihyperbolic distance qh_interval_study measures.
QH_X, QH_Y = 0.25, 0.5


def interval_space(side: int, lo: float = -1.0, hi: float = 1.0) -> MetricMeasureSpace:
    """Uniform 1-D grid on [lo, hi] with `side` cells per unit length."""
    if side < 1:
        raise InvalidParameter("side must be >= 1")
    length = hi - lo
    n_cells = int(round(length * side))
    if abs(n_cells - length * side) > 1e-9:
        raise InvalidParameter("side must divide the interval length into whole cells")
    spacing = 1.0 / side
    coords = lo + np.arange(n_cells + 1)[:, None] * spacing
    mu = np.full(n_cells + 1, spacing)
    edges = [(i, i + 1, spacing) for i in range(n_cells)]
    return MetricMeasureSpace(
        mu=mu,
        coords=coords,
        edges=edges,
        meta=f"interval(side={side},lo={lo},hi={hi})",
    )


def unit_band_subset(space: MetricMeasureSpace) -> np.ndarray:
    """Ids of grid points with coordinate in [0, 1]."""
    x = space.coords[:, 0]
    return np.flatnonzero((x >= -1e-12) & (x <= 1.0 + 1e-12))


def extension_refinement_study(
    sides,
    exponent: float = 0.5,
    p: float = 2.0,
    eps: float = 0.5,
) -> list[dict]:
    """Extend w = |x|^exponent from [0, 1] at each side; report the constants."""
    rows = []
    for side in sides:
        space = interval_space(int(side))
        e_ids = unit_band_subset(space)
        w = power_weight(space, exponent, ids=e_ids)
        ext = wolff_extend(space, e_ids, w, p, eps)  # first: it refuses an eps <= 0
        cond = check_extension_condition(space, e_ids, w, p, [eps], np.inf)
        rows.append(
            {
                "side": int(side),
                "n_points": space.n,
                "n_balls": space.canonical.ball_count(),
                "condition_value": cond.table[0][1],
                "extension_ap": ext.ap_constant_W,
                "agreement_error": ext.agreement_error,
            }
        )
    return rows


def condition_refinement_study(
    sides,
    exponent: float,
    p: float = 2.0,
    eps: float = 0.5,
) -> list[dict]:
    """Characteristic of w^{1+eps} on the unit band at each refinement side."""
    rows = []
    for side in sides:
        space = interval_space(int(side))
        e_ids = unit_band_subset(space)
        w = power_weight(space, exponent, ids=e_ids)
        rep = check_extension_condition(space, e_ids, w, p, [eps], np.inf)
        rows.append({"side": int(side), "n_points": space.n, "value": rep.table[0][1]})
    return rows


def square_domain(side: int) -> tuple[MetricMeasureSpace, DomainSpec]:
    """side x side unit grid with its interior lattice points as the domain."""
    space = build_grid_space(2, side, 1.0)
    lattice = space.coords  # unit spacing: the coordinates are the lattice
    interior = ((lattice >= 1) & (lattice <= side - 2)).all(axis=1)
    return space, make_domain(space, interior)


def whitney_refinement_study(sides) -> list[dict]:
    """Cover statistics of the interior-square domain family."""
    rows = []
    for side in sides:
        space, domain = square_domain(int(side))
        cover = whitney_cover(space, domain)
        checks = check_cover_invariants(cover)
        rows.append(
            {
                "side": int(side),
                "n_balls": checks["n_balls"],
                "overlap_n": checks["overlap_n"],
                "radius_ratio_max": checks["radius_ratio_max"],
                "mu_ratio_max": checks["mu_ratio_max"],
                "all_invariants": bool(
                    checks["quarter_disjoint"]
                    and checks["covers_domain"]
                    and checks["doubles_inside"]
                    and checks["sandwich_ok"]
                    and checks["radius_ratio_ok"]
                ),
            }
        )
    return rows


def _chain_pairs(cover, seed: int, n_sources: int, n_targets: int):
    """Sampled pairs of resolved cover balls that a chain joins.

    Returns the sorted sampled sources, then for each pair in source-major
    order (targets ascending): its source's row in the sample, its target
    ball, and its chain length.
    """
    if seed < 0:
        raise InvalidParameter(f"seed must be a nonnegative integer, got {seed}")
    rng = np.random.default_rng(seed)
    resolved = np.flatnonzero(cover.resolved)
    pool = resolved if resolved.size >= 2 else np.arange(len(cover))
    if pool.size < 2:
        raise PreconditionFail("not enough cover balls to sample pairs")
    sources = np.sort(rng.choice(pool, size=min(n_sources, pool.size), replace=False))
    targets = np.sort(rng.choice(pool, size=min(n_targets, pool.size), replace=False))
    chain = chain_distances(cover, sources)[:, targets]
    rows, cols = np.nonzero((sources[:, None] != targets) & np.isfinite(chain))
    return sources, rows, targets[cols], chain[rows, cols]


def chain_report(space: MetricMeasureSpace, domain: DomainSpec, seed: int = 0) -> dict:
    """Chain length versus quasihyperbolic distance over sampled ball pairs.

    Records k_tilde, k, and their ratio k_tilde / max(k, 1) per pair, the
    smallest band [1/alpha, alpha] containing every ratio, and the Pearson
    correlation of k_tilde against k (None when either is constant).
    """
    cover = whitney_cover(space, domain)
    sources, rows, targets, k_tildes = _chain_pairs(cover, seed, CHAIN_SOURCES, CHAIN_TARGETS)
    ks = qh_distances(space, domain, cover.centers[sources])[rows, cover.centers[targets]]
    if not targets.size:
        raise PreconditionFail("sampling produced no chain-connected pairs")
    ratios = k_tildes / np.maximum(ks, 1.0)
    fields = (sources[rows], targets, k_tildes, ks, ratios)
    pairs = [dict(zip(("i", "j", "k_tilde", "qh", "ratio"), pair))
             for pair in zip(*(column.tolist() for column in fields))]
    alpha = float(np.maximum(ratios, 1.0 / ratios).max())
    # A constant sample has no correlation; np.corrcoef would give NaN.
    constant = k_tildes.min() == k_tildes.max() or ks.min() == ks.max()
    corr = None if constant else float(np.corrcoef(k_tildes, ks)[0, 1])
    return {
        "n_balls": len(cover),
        "n_resolved": int(cover.resolved.sum()),
        "n_pairs": len(pairs),
        "alpha": alpha,
        "corr": corr,
        "pairs": pairs,
        "seed": int(seed),
    }


def chain_comparability_study(side: int, seed: int = 0) -> dict:
    """chain_report on the interior-square domain at one refinement side."""
    space, domain = square_domain(side)
    report = chain_report(space, domain, seed)
    return {"side": int(side), **report}


def chain_growth_study(side: int, seed: int = 0) -> dict:
    """Growth of w-averages along chains, w = (boundary distance)^GROWTH_W_EXPONENT.

    Fits alpha as the largest per-edge log average ratio (so the chain bound
    log(avg_i / avg_j) <= alpha * k_tilde telescopes), counts violations on
    held-out sampled pairs, and measures the integral ratio band over
    Whitney-like balls at quasihyperbolic distance <= HOLD2_QH_GATE.
    """
    space, domain = square_domain(side)
    cover = whitney_cover(space, domain)
    w_on_x = np.where(domain.mask, domain.boundary_dist, 1.0) ** GROWTH_W_EXPONENT
    averages = cover.ball_averages(np.where(domain.mask, w_on_x, 0.0))

    edge_log = np.abs(np.log(averages[cover.edges[:, 0]] / averages[cover.edges[:, 1]]))
    alpha = float(edge_log.max(initial=0.0))
    beta = 0.0

    sources, rows, targets, k_tildes = _chain_pairs(cover, seed, GROWTH_SOURCES, GROWTH_TARGETS)
    lhs = np.abs(np.log(averages[sources[rows]] / averages[targets]))
    violations = int(np.count_nonzero(lhs > alpha * k_tildes + beta + 1e-9))

    like = _whitney_like_band(space, domain, w_on_x)
    return {
        "side": int(side),
        "w_exponent": GROWTH_W_EXPONENT,
        "n_balls": len(cover),
        "n_edges": int(cover.edges.shape[0]),
        "alpha": alpha,
        "beta": beta,
        "n_holdout": int(targets.size),
        "violations": violations,
        "hold2_band": like["band"],
        "hold2_pairs": like["n_pairs"],
        "hold2_samples": like["n_samples"],
        "qh_gate": HOLD2_QH_GATE,
        "t_range": list(HOLD2_T_RANGE),
        "seed": int(seed),
    }


def _band_centers(domain: DomainSpec) -> tuple[np.ndarray, np.ndarray]:
    """The band's candidate points (boundary distance >= 4h) and its
    centers, at most HOLD2_BALLS of them evenly spaced in (boundary
    distance, id) order."""
    candidates = np.flatnonzero(domain.mask & (domain.boundary_dist >= 4.0 * domain.resolution))
    order = np.lexsort((candidates, domain.boundary_dist[candidates]))
    take = min(HOLD2_BALLS, candidates.size)
    picks = np.unique(np.linspace(0, candidates.size - 1, take).round().astype(int))
    return candidates, candidates[order][picks]


def _whitney_like_band(space, domain, w_on_x) -> dict:
    """Integral ratio band over Whitney-like balls at small qh distance.

    Deterministic sampler: centers are a stratified sample of the candidate
    points (evenly spaced in boundary-distance order). Each center is paired
    with the extreme-boundary-distance candidates inside its own qh-gated
    neighbourhood, and every ball is dilated at both ends of HOLD2_T_RANGE.
    Random partners thin out as refinement grows the candidate pool, which
    turns the max into a shrinking-sample statistic; the adaptive extremal
    partner keeps the measured sup comparable between sides.
    """
    candidates, centers = _band_centers(domain)
    if candidates.size == 0:
        return {"band": 1.0, "n_pairs": 0, "n_samples": 0}

    partners = np.empty((centers.size, 2), dtype=np.intp)
    graph = domain.qh_graph
    for k, c in enumerate(centers.tolist()):
        # One source at a time: all rows at once would hold len(centers) x n floats.
        # The gate reads nothing farther, and scipy keeps the nodes at the limit.
        row = dijkstra(graph, indices=c, limit=HOLD2_QH_GATE)
        near = candidates[row[candidates] <= HOLD2_QH_GATE]
        ranked = near[np.lexsort((near, domain.boundary_dist[near]))]
        partners[k] = ranked[0], ranked[-1]

    w_mu = _mu_weighted(space, domain.ids, w_on_x[domain.ids])

    def integrals(points: np.ndarray) -> np.ndarray:
        """w mu over B(x, delta(x)/t) for each point x and each t of HOLD2_T_RANGE."""
        radii = domain.boundary_dist[points][..., None] / np.array(HOLD2_T_RANGE)
        balls = space.balls_members(np.repeat(points.ravel(), radii.shape[-1]), radii.ravel())
        return space.ball_sums(w_mu, *balls).reshape(radii.shape)

    a = integrals(centers)
    # Partners repeat (the deepest point near several centers), so each is integrated once.
    others, at = np.unique(partners, return_inverse=True)
    # Each center against itself and its two partners, every dilation against every one.
    b = np.concatenate([a[:, None], integrals(others)[at.reshape(partners.shape)]], axis=1)
    ratios = a[:, None, :, None] / b[:, :, None, :]
    band = max(1.0, ratios.max(), (1.0 / ratios).max())
    pairs = np.sort(np.column_stack([np.repeat(centers, 2), partners.ravel()]), axis=1)
    n_pairs = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0).shape[0]
    return {"band": float(band), "n_pairs": n_pairs, "n_samples": int(centers.size)}


def qh_interval_study(spacing: float) -> dict:
    """Quasihyperbolic distance on (0, 1) from QH_X to QH_Y against the
    closed form log(QH_Y/QH_X)."""
    side = int(round(1.0 / spacing))
    space = interval_space(side, lo=0.0, hi=1.0)
    interior = np.arange(1, space.n - 1)
    domain = make_domain(space, interior)
    xi = int(round(QH_X * side))
    yi = int(round(QH_Y * side))
    measured = qh_distance(space, domain, xi, yi)
    expected = float(np.log(QH_Y / QH_X))
    return {
        "spacing": spacing,
        "x": QH_X,
        "y": QH_Y,
        "measured": measured,
        "expected": expected,
        "rel_error": abs(measured - expected) / expected,
    }


def random_grid_domain(seed: int) -> tuple[MetricMeasureSpace, DomainSpec]:
    """A random 1-D or 2-D grid with a random proper rectangular domain.

    The domain is a sub-rectangle of the grid, minus (sometimes) a smaller
    rectangular hole, never touching the full grid.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 3))
    side = int(rng.integers(8, 65)) if dim == 1 else int(rng.integers(8, 33))
    spacing = float(rng.choice([0.5, 1.0, 2.0]))
    space = build_grid_space(dim, side, spacing)
    lattice = np.rint(space.coords / spacing)

    lo = rng.integers(0, side // 2, size=dim)
    hi = lo + rng.integers(2, side - 2, size=dim)
    hi = np.minimum(hi, side - 1)
    mask = ((lattice >= lo) & (lattice <= hi)).all(axis=1)
    if rng.random() < 0.5:
        span = hi - lo
        h_lo = lo + np.maximum(span // 3, 1)
        h_hi = lo + np.maximum(2 * span // 3, 1)
        hole = ((lattice >= h_lo) & (lattice <= h_hi)).all(axis=1)
        if mask.sum() - hole.sum() >= 2:
            mask &= ~hole
    if mask.all():
        mask[0] = False
    if not mask.any():
        mask[space.n // 2] = True
    return space, make_domain(space, mask)
