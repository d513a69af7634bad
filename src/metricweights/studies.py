"""Refinement studies: fixed continuum scenarios run over a family of grids.

Each study rebuilds the same continuous configuration (an interval with a
power weight, a square with its interior domain) at several resolutions and
reports the constants whose stability the theory predicts: extension
characteristics, condition tables, Whitney overlap numbers, chain versus
quasihyperbolic comparability, and chain growth of weight averages.
"""

from __future__ import annotations

import numpy as np

from .extension import wolff_extend
from .space import MetricMeasureSpace, build_grid_space
from .weights import ap_tilde_characteristic, power_weight
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


def interval_space(side: int, lo: float = -1.0, hi: float = 1.0) -> MetricMeasureSpace:
    """Uniform 1-D grid on [lo, hi] with `side` cells per unit length."""
    if side < 1:
        raise ValueError("side must be >= 1")
    length = hi - lo
    n_cells = int(round(length * side))
    if abs(n_cells - length * side) > 1e-9:
        raise ValueError("side must divide the interval length into whole cells")
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
    workers: int = 1,
) -> list[dict]:
    """Extend w = |x|^exponent from [0, 1] at each side; report the constants."""
    rows = []
    for side in sides:
        space = interval_space(int(side))
        e_ids = unit_band_subset(space)
        w = power_weight(space, exponent, ids=e_ids)
        cond = ap_tilde_characteristic(space, e_ids, w ** (1.0 + eps), p)
        ext = wolff_extend(space, e_ids, w, p, eps)
        rows.append(
            {
                "side": int(side),
                "n_points": space.n,
                "n_balls": space.canonical.ball_count(),
                "condition_value": cond.value,
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
    workers: int = 1,
) -> list[dict]:
    """Characteristic of w^{1+eps} on the unit band at each refinement side."""
    rows = []
    for side in sides:
        space = interval_space(int(side))
        e_ids = unit_band_subset(space)
        w = power_weight(space, exponent, ids=e_ids)
        rep = ap_tilde_characteristic(space, e_ids, w ** (1.0 + eps), p)
        rows.append({"side": int(side), "n_points": space.n, "value": rep.value})
    return rows


def square_domain(side: int) -> tuple[MetricMeasureSpace, DomainSpec]:
    """side x side unit grid with its interior lattice points as the domain."""
    space = build_grid_space(2, side, 1.0)
    lattice = np.stack(
        np.unravel_index(np.arange(space.n), (side, side)), axis=1
    )
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


def _sample_resolved(cover, rng, n_sources: int, n_targets: int):
    resolved = np.flatnonzero(cover.resolved)
    pool = resolved if resolved.size >= 2 else np.arange(len(cover))
    if pool.size < 2:
        raise ValueError("not enough balls to sample pairs")
    sources = rng.choice(pool, size=min(n_sources, pool.size), replace=False)
    targets = rng.choice(pool, size=min(n_targets, pool.size), replace=False)
    return np.sort(sources), np.sort(targets)


def chain_report(
    space: MetricMeasureSpace,
    domain: DomainSpec,
    seed: int = 0,
    n_sources: int = 12,
    n_targets: int = 60,
) -> dict:
    """Chain length versus quasihyperbolic distance over sampled ball pairs.

    Records k_tilde, k, and their ratio k_tilde / max(k, 1) per pair, the
    smallest band [1/alpha, alpha] containing every ratio, and the Pearson
    correlation of k_tilde against k.
    """
    cover = whitney_cover(space, domain)
    rng = np.random.default_rng(seed)
    sources, targets = _sample_resolved(cover, rng, n_sources, n_targets)

    chain = chain_distances(cover, sources)
    qh = qh_distances(space, domain, cover.centers[sources])
    pairs = []
    for si, s in enumerate(sources):
        for t in targets:
            if t == s or not np.isfinite(chain[si, t]):
                continue
            k_tilde = float(chain[si, t])
            k = float(qh[si, cover.centers[t]])
            ratio = k_tilde / max(k, 1.0)
            pairs.append(
                {
                    "i": int(s),
                    "j": int(t),
                    "k_tilde": k_tilde,
                    "qh": k,
                    "ratio": ratio,
                }
            )
    if not pairs:
        raise ValueError("sampling produced no chain-connected pairs")
    ratios = np.array([pr["ratio"] for pr in pairs])
    k_tildes = np.array([pr["k_tilde"] for pr in pairs])
    ks = np.array([pr["qh"] for pr in pairs])
    alpha = float(np.maximum(ratios, 1.0 / ratios).max())
    corr = float(np.corrcoef(k_tildes, ks)[0, 1])
    return {
        "n_balls": len(cover),
        "n_resolved": int(cover.resolved.sum()),
        "n_pairs": len(pairs),
        "alpha": alpha,
        "corr": corr,
        "pairs": pairs,
        "seed": int(seed),
    }


def chain_comparability_study(
    side: int,
    seed: int = 0,
    n_sources: int = 12,
    n_targets: int = 60,
) -> dict:
    """chain_report on the interior-square domain at one refinement side."""
    space, domain = square_domain(side)
    report = chain_report(space, domain, seed, n_sources, n_targets)
    return {"side": int(side), **report}


def chain_growth_study(
    side: int,
    w_exponent: float = 0.3,
    seed: int = 0,
    n_sources: int = 10,
    n_targets: int = 40,
    n_like_balls: int = 40,
) -> dict:
    """Growth of w-averages along chains, w = (boundary distance)^exponent.

    Fits alpha as the largest per-edge log average ratio (so the chain bound
    log(avg_i / avg_j) <= alpha * k_tilde telescopes), counts violations on
    held-out sampled pairs, and measures the integral ratio band over
    Whitney-like balls at quasihyperbolic distance <= HOLD2_QH_GATE.
    """
    space, domain = square_domain(side)
    cover = whitney_cover(space, domain)
    w_on_x = np.where(domain.mask, domain.boundary_dist, 1.0) ** w_exponent
    averages = cover.ball_averages(np.where(domain.mask, w_on_x, 0.0))

    if cover.edges.size:
        edge_log = np.abs(
            np.log(averages[cover.edges[:, 0]] / averages[cover.edges[:, 1]])
        )
        alpha = float(edge_log.max())
    else:
        alpha = 0.0
    beta = 0.0

    rng = np.random.default_rng(seed)
    sources, targets = _sample_resolved(cover, rng, n_sources, n_targets)
    chain = chain_distances(cover, sources)
    violations = 0
    n_holdout = 0
    for si, s in enumerate(sources):
        for t in targets:
            if t == s or not np.isfinite(chain[si, t]):
                continue
            n_holdout += 1
            lhs = abs(np.log(averages[s] / averages[t]))
            if lhs > alpha * chain[si, t] + beta + 1e-9:
                violations += 1

    like = _whitney_like_band(space, domain, w_on_x, n_like_balls)
    return {
        "side": int(side),
        "w_exponent": float(w_exponent),
        "n_balls": len(cover),
        "n_edges": int(cover.edges.shape[0]),
        "alpha": alpha,
        "beta": beta,
        "n_holdout": n_holdout,
        "violations": violations,
        "hold2_band": like["band"],
        "hold2_pairs": like["n_pairs"],
        "hold2_samples": like["n_samples"],
        "qh_gate": HOLD2_QH_GATE,
        "t_range": list(HOLD2_T_RANGE),
        "seed": int(seed),
    }


def _whitney_like_band(space, domain, w_on_x, n_like_balls: int) -> dict:
    """Integral ratio band over Whitney-like balls at small qh distance.

    Deterministic sampler: centers are a stratified sample of the candidate
    points (evenly spaced in boundary-distance order). Each center is paired
    with the extreme-boundary-distance candidates inside its own qh-gated
    neighbourhood, and every ball is dilated at both ends of HOLD2_T_RANGE.
    Random partners thin out as refinement grows the candidate pool, which
    turns the max into a shrinking-sample statistic; the adaptive extremal
    partner keeps the measured sup comparable between sides.
    """
    h = domain.resolution
    cand_mask = domain.mask & (domain.boundary_dist >= 4.0 * h)
    candidates = np.flatnonzero(cand_mask)
    if candidates.size == 0:
        return {"band": 1.0, "n_pairs": 0, "n_samples": 0}
    order = np.lexsort((candidates, domain.boundary_dist[candidates]))
    take = min(n_like_balls, candidates.size)
    picks = np.unique(np.linspace(0, candidates.size - 1, take).round().astype(int))
    centers = candidates[order][picks]

    w_mu = w_on_x * space.mu * domain.mask
    cache: dict[int, np.ndarray] = {}

    def ball_integrals(c: int) -> np.ndarray:
        if c not in cache:
            vals = [
                np.sum(w_mu[space.ball_members(c, domain.boundary_dist[c] / t)])
                for t in HOLD2_T_RANGE
            ]
            cache[c] = np.array(vals)
        return cache[c]

    qh = qh_distances(space, domain, centers)
    band = 1.0
    pairs: set[tuple[int, int]] = set()
    for i, c in enumerate(centers):
        near = candidates[qh[i, candidates] <= HOLD2_QH_GATE]
        ranked = near[np.lexsort((near, domain.boundary_dist[near]))]
        for partner in (int(c), int(ranked[0]), int(ranked[-1])):
            if partner != c:
                pairs.add((min(int(c), partner), max(int(c), partner)))
            a = ball_integrals(int(c))
            b = ball_integrals(partner)
            for r in (a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1]):
                band = max(band, r, 1.0 / r)
    return {"band": float(band), "n_pairs": len(pairs), "n_samples": int(centers.size)}


def qh_interval_study(spacing: float, x: float = 0.25, y: float = 0.5) -> dict:
    """Quasihyperbolic distance on (0, 1) against the closed form log(y/x)."""
    side = int(round(1.0 / spacing))
    space = interval_space(side, lo=0.0, hi=1.0)
    interior = np.arange(1, space.n - 1)
    domain = make_domain(space, interior)
    xi = int(round(x * side))
    yi = int(round(y * side))
    measured = qh_distance(space, domain, xi, yi)
    expected = float(np.log(y / x))
    return {
        "spacing": spacing,
        "x": x,
        "y": y,
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
    lattice = np.stack(
        np.unravel_index(np.arange(space.n), (side,) * dim), axis=1
    )

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
