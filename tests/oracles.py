"""Naive reference implementations used to pin the optimized code.

Everything here enumerates balls directly from distance rows and sums with
plain masks. No prefix tricks, no shared code with the package internals
beyond the space accessors.
"""

import math

import numpy as np
from scipy.sparse.csgraph import dijkstra


def sequential_ball_sum(space, values, center, members):
    """The one rule of every ball integral: the members of the ball around
    center in (distance by space.dist_row(center), id) order, their values
    added one at a time from the first."""
    row = space.dist_row(center)
    first, *rest = sorted(np.asarray(members).tolist(), key=lambda y: (row[y], y))
    total = float(values[first])
    for y in rest:
        total += float(values[y])
    return total


def strict_ball(row, r):
    """The ids y with row[y] < r, in (row[y], y) order: a distance row's strict
    ball as the package lists it, from a plain stable sort."""
    ids = np.flatnonzero(row < r)
    return ids[np.argsort(row[ids], kind="stable")]


def stable_block_tables(space, c0, c1):
    """The canonical cache's tables for the centers [c0, c1), from the rows
    dist_row(c) and a stable argsort: points in (distance, id) order, NaNs
    last and in id order, each distance change (every NaN too) a new ball."""
    rows = np.vstack([space.dist_row(c) for c in range(c0, c1)])
    order = np.argsort(rows, axis=1, kind="stable")
    sorted_d = np.take_along_axis(rows, order, axis=1)
    change = np.ones(rows.shape, dtype=bool)
    change[:, :-1] = sorted_d[:, 1:] != sorted_d[:, :-1]
    prefix = np.cumsum(change, axis=1) - change
    point_prefix = np.empty_like(prefix)
    np.put_along_axis(point_prefix, order, prefix, axis=1)
    ends = np.flatnonzero(change)
    return {
        "order": order,
        "point_prefix": point_prefix,
        "ends": ends,
        "values": sorted_d.ravel()[ends],
        "mu_prefix": np.cumsum(space.mu[order], axis=1).ravel()[ends],
        "starts": np.concatenate(([0], np.cumsum(change.sum(axis=1)))),
    }


def ball_system(space):
    """Every distinct ball as (center, radius, member ids).

    The ball of distinct distance v is {y : d(c, y) <= v}; its radius is the
    smallest float r with that strict ball, the float just above v.
    """
    out = []
    for c in range(space.n):
        row = space.dist_row(c)
        for v in np.unique(row):
            r = float(np.nextafter(v, np.inf))
            out.append((c, r, np.flatnonzero(row < r)))
    return out


def naive_maximal(space, f, e_mask=None, radius_cap=None):
    if e_mask is None:
        e_mask = np.ones(space.n, dtype=bool)
    f = np.abs(np.asarray(f, dtype=float))
    out = np.zeros(space.n)
    for _, r, mem in ball_system(space):
        if radius_cap is not None and r > radius_cap:
            continue
        sel = mem[e_mask[mem]]
        avg = float(np.sum(f[sel] * space.mu[sel])) / float(np.sum(space.mu[mem]))
        out[mem] = np.maximum(out[mem], avg)
    return out


def _naive_tilde_ball(space, e_mask, w, p, mem):
    """The tilde functional of the ball with members mem, or None at p = 1
    when the ball misses E."""
    sel = mem[e_mask[mem]]
    mu_b = float(np.sum(space.mu[mem]))
    if p > 1:
        a = float(np.sum(w[sel] * space.mu[sel])) / mu_b
        b = float(np.sum(w[sel] ** (-1.0 / (p - 1.0)) * space.mu[sel])) / mu_b
        return a * b ** (p - 1.0)
    if sel.size == 0:
        return None
    a = float(np.sum(w[sel] * space.mu[sel])) / mu_b
    return a / float(np.min(w[sel]))


def naive_tilde_char(space, e_mask, w_on_x, p):
    if e_mask is None:
        e_mask = np.ones(space.n, dtype=bool)
    w = np.asarray(w_on_x, dtype=float)
    best = 0.0
    for _, _, mem in ball_system(space):
        val = _naive_tilde_ball(space, e_mask, w, p, mem)
        if val is not None:
            best = max(best, val)
    return best


def naive_restriction_ratio(space, e_mask, u_on_x, p):
    """Worst ratio, over the balls that meet E, of the tilde functional of
    u restricted to E against the global one; 0 when there is none."""
    u = np.asarray(u_on_x, dtype=float)
    everything = np.ones(space.n, dtype=bool)
    worst = 0.0
    for _, _, mem in ball_system(space):
        restricted = _naive_tilde_ball(space, e_mask, u, p, mem)
        if restricted is not None:
            worst = max(worst, restricted / _naive_tilde_ball(space, everything, u, p, mem))
    return worst


def naive_domain_char(space, d_mask, w_on_x, p):
    w = np.asarray(w_on_x, dtype=float)
    best = 0.0
    for c, _, mem in ball_system(space):
        if not d_mask[c] or not d_mask[mem].all():
            continue
        mu_b = float(np.sum(space.mu[mem]))
        a = float(np.sum(w[mem] * space.mu[mem])) / mu_b
        if p > 1:
            b = float(np.sum(w[mem] ** (-1.0 / (p - 1.0)) * space.mu[mem])) / mu_b
            val = a * b ** (p - 1.0)
        else:
            val = a / float(np.min(w[mem]))
        best = max(best, val)
    return best


def naive_reverse_holder(space, w_on_x, delta, d_mask=None):
    """sup of (avg_B w^{1+delta})^{1/(1+delta)} / avg_B w over all balls, or
    over the balls centered in and contained in the domain."""
    w = np.asarray(w_on_x, dtype=float)
    best = 0.0
    for c, _, mem in ball_system(space):
        if d_mask is not None and (not d_mask[c] or not d_mask[mem].all()):
            continue
        mu_b = float(np.sum(space.mu[mem]))
        hi = float(np.sum(w[mem] ** (1.0 + delta) * space.mu[mem])) / mu_b
        lo = float(np.sum(w[mem] * space.mu[mem])) / mu_b
        best = max(best, hi ** (1.0 / (1.0 + delta)) / lo)
    return best


def naive_holder_margin(space, e_mask, v_on_x, q, g_on_x):
    """Worst v(B cap E) (avg_B |g| 1_E)^q / int_{B cap E} |g|^q v over balls
    whose right side is positive; 0 when there is none."""
    v = np.asarray(v_on_x, dtype=float)
    g = np.abs(np.asarray(g_on_x, dtype=float))
    worst = 0.0
    for _, _, mem in ball_system(space):
        sel = mem[e_mask[mem]]
        mu_b = float(np.sum(space.mu[mem]))
        rhs = float(np.sum(g[sel] ** q * v[sel] * space.mu[sel]))
        if rhs <= 0:
            continue
        lhs = float(np.sum(v[sel] * space.mu[sel])) * (
            float(np.sum(g[sel] * space.mu[sel])) / mu_b
        ) ** q
        worst = max(worst, lhs / rhs)
    return worst


def naive_doubling(space):
    """Doubling constant by direct probing of every breakpoint interval.

    mu(B(x, r)) and mu(B(x, 2r)) only change as r passes a distance v or its
    half v / 2, and both are constant on each interval (a, b] between two
    consecutive breakpoints. So the ratio is probed at every breakpoint b,
    which is exact in floating point (as is 2b), and once beyond the last.
    A midpoint probe would be rounded onto an end of an interval one ulp
    wide. Each ball's mass is a sequential_ball_sum, the rule by which the
    library accumulates its prefix masses, so the two agree bitwise.
    """
    best = 0.0
    for c in range(space.n):
        row = space.dist_row(c)

        def mass(r):
            return sequential_ball_sum(space, space.mu, c, np.flatnonzero(row < r))

        vals = np.unique(row)
        crit = np.unique(np.concatenate([vals[vals > 0], vals[vals > 0] / 2.0]))
        probes = crit.tolist() + [float(vals[-1]) + 1.0]
        for r in probes:
            best = max(best, mass(2.0 * r) / mass(r))
    return best


# The blanket relative tolerance of metricweights.space.
REL_TOL = 1e-12


def naive_validation(space):
    """validate_space(space).to_dict() of a space checked in full, by plain loops.

    Masses by id; then each pair axiom in turn over (x, y) in lexicographic
    order; each declared edge in order, and connectivity; last every triple
    (x, y, z) with y outermost, then x, then z.
    """

    def failed(kind, witness):
        return {"ok": False, "kind": kind, "witness": witness, "mode": "full"}

    for i, m in enumerate(space.mu.tolist()):
        if m <= 0:
            return failed("NonpositiveMass", [i])
    n = space.n
    d = space.dist_matrix().tolist()
    pair_axioms = [
        ("NegativeDistance", lambda x, y: d[x][y] < 0),
        ("NonzeroSelfDistance", lambda x, y: x == y and d[x][y] != 0),
        ("AsymmetricDistance", lambda x, y: d[x][y] != d[y][x]),
        ("ZeroDistanceDistinct", lambda x, y: x != y and d[x][y] == 0),
        ("NonfiniteDistance", lambda x, y: not math.isfinite(d[x][y])),
    ]
    for kind, broken in pair_axioms:
        for x in range(n):
            for y in range(n):
                if broken(x, y):
                    return failed(kind, [x, y])
    if space.edges is not None:
        for u, v, ln in space.edges:
            if ln + REL_TOL * max(ln, 1.0) < d[u][v]:
                return failed("EdgeTooShort", [u, v])
        reached, stack = {0}, [0]
        while stack:
            x = stack.pop()
            for u, v, _ in space.edges:
                for a, b in ((u, v), (v, u)):
                    if a == x and b not in reached:
                        reached.add(b)
                        stack.append(b)
        if len(reached) != n:
            return failed("GraphDisconnected", None)
    for y in range(n):
        for x in range(n):
            for z in range(n):
                through = d[x][y] + d[y][z]
                if d[x][z] > through + REL_TOL * max(d[x][z], through):
                    return failed("TriangleViolation", [x, y, z])
    return {"ok": True, "kind": None, "witness": None, "mode": "full"}


def floyd_shortest_paths(n, edges):
    """Dense all-pairs shortest paths from an undirected edge list."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, ln in edges:
        d[u, v] = min(d[u, v], ln)
        d[v, u] = min(d[v, u], ln)
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def random_metric_space(rng, n, connect_scale=(0.5, 3.0)):
    """Random metric via shortest-path completion of a random symmetric graph."""
    from metricweights import MetricMeasureSpace

    raw = rng.uniform(*connect_scale, size=(n, n))
    raw = (raw + raw.T) / 2.0
    np.fill_diagonal(raw, 0.0)
    d = raw.copy()
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    mu = rng.lognormal(mean=0.0, sigma=0.7, size=n)
    return MetricMeasureSpace(mu=mu, dist=d, meta=f"random(n={n})")


def random_weight(rng, size, sigma=1.0):
    return rng.lognormal(mean=0.0, sigma=sigma, size=size)


def naive_whitney_cover(space, domain):
    """Greedy Whitney cover from the dense distance matrix.

    Points of D by decreasing quarter boundary distance r (ties by id), each
    kept when its ball of radius r/4 misses every kept one; balls are strict
    rows of the matrix in (distance, id) order (strict_ball), and two balls
    are joined when they share a point, counted in int64. Returns centers,
    radii, members, edges (i < j, lexicographic) and the dense 0/1 adjacency.
    """
    dist = space.dist_matrix()
    delta = domain.boundary_dist
    ids = sorted(np.flatnonzero(domain.mask).tolist(), key=lambda x: (-delta[x] / 4.0, x))
    covered = np.zeros(space.n, dtype=bool)
    centers = []
    for x in ids:
        quarter = dist[x] < delta[x] / 4.0 / 4.0
        if not (covered & quarter).any():
            centers.append(x)
            covered |= quarter
    centers = np.array(centers, dtype=np.intp)
    radii = delta[centers] / 4.0
    inside = dist[centers] < radii[:, None]
    members = [strict_ball(dist[c], r) for c, r in zip(centers, radii)]
    shared = inside.astype(np.int64) @ inside.T.astype(np.int64)
    adjacency = ((shared > 0) & ~np.eye(centers.size, dtype=bool)).astype(float)
    edges = np.argwhere(np.triu(adjacency, k=1) > 0)
    return centers, radii, members, edges, adjacency


def naive_cover_invariants(space, domain, centers, radii, members, edges):
    """check_cover_invariants of a cover, recomputed ball by ball from the matrix."""
    dist = space.dist_matrix()
    delta = domain.boundary_dist
    quarters = [np.flatnonzero(dist[c] < r / 4.0) for c, r in zip(centers, radii)]
    doubles = [np.flatnonzero(dist[c] < 2.0 * r) for c, r in zip(centers, radii)]
    lo = [float(delta[d].min() / r) for d, r in zip(doubles, radii)]
    hi = [float(delta[d].max() / r) for d, r in zip(doubles, radii)]
    mu_balls = np.array([sequential_ball_sum(space, space.mu, c, m) for c, m in zip(centers, members)])
    if len(edges):
        i, j = edges[:, 0], edges[:, 1]
        ratio = radii[i] / radii[j]
        mu_ratio = mu_balls[i] / mu_balls[j]
        ratio_max = float(np.maximum(ratio, 1.0 / ratio).max())
        mu_ratio_max = float(np.maximum(mu_ratio, 1.0 / mu_ratio).max())
        degree = np.bincount(edges.ravel(), minlength=len(centers))
    else:
        ratio_max, mu_ratio_max, degree = 1.0, 1.0, np.zeros(len(centers), dtype=int)
    union = np.unique(np.concatenate(members))
    return {
        "quarter_disjoint": len(np.concatenate(quarters)) == len(np.unique(np.concatenate(quarters))),
        "covers_domain": bool(np.array_equal(union, np.flatnonzero(domain.mask))),
        "doubles_inside": all(domain.mask[d].all() for d in doubles),
        "sandwich_ok": all(a >= 2.0 * (1 - 1e-12) and b <= 6.0 * (1 + 1e-12) for a, b in zip(lo, hi)),
        "sandwich_lo": min(lo),
        "sandwich_hi": max(hi),
        "radius_ratio_ok": bool(ratio_max <= 4.0 * (1 + 1e-12)),
        "radius_ratio_max": ratio_max,
        "mu_ratio_max": mu_ratio_max,
        "overlap_n": int(degree.max()) + 1,
        "n_balls": len(centers),
    }


def naive_whitney_like_band(space, domain, w_on_x, t_range, gate, n_centers):
    """The chain growth study's integral band, ball by ball from the matrix.

    Candidates are the domain points at boundary distance >= 4h; the centers
    are at most n_centers of them, evenly spaced in (boundary distance, id)
    order. Each center is paired with itself and with the least and the
    greatest candidate, in that order, among those a full Dijkstra row puts
    within qh distance gate. A ball B(x, delta(x)/t) is a strict matrix row,
    integrated by sequential_ball_sum; the band is the largest ratio of a center's
    integral to a partner's, or that ratio's reciprocal, at any two t of t_range.
    """
    dist = space.dist_matrix()
    h = dist[dist > 0].min()
    delta = domain.boundary_dist
    inside = np.flatnonzero(domain.mask).tolist()
    candidates = sorted((x for x in inside if delta[x] >= 4.0 * h), key=lambda x: (delta[x], x))
    if not candidates:
        return {"band": 1.0, "n_pairs": 0, "n_samples": 0}
    take = min(n_centers, len(candidates))
    picks = sorted({int(k) for k in np.linspace(0, len(candidates) - 1, take).round()})
    centers = [candidates[k] for k in picks]

    def integrals(x):
        balls = [np.flatnonzero(dist[x] < delta[x] / t) for t in t_range]
        return [sequential_ball_sum(space, w_on_x * space.mu, x, ball) for ball in balls]

    band, pairs, graph = 1.0, set(), domain.qh_graph
    for c in centers:
        qh = dijkstra(graph, indices=c)
        near = [x for x in candidates if qh[x] <= gate]
        for partner in (c, near[0], near[-1]):
            if partner != c:
                pairs.add((min(c, partner), max(c, partner)))
            ours, theirs = integrals(c), integrals(partner)
            for a in ours:
                for b in theirs:
                    band = max(band, a / b, 1.0 / (a / b))
    return {"band": float(band), "n_pairs": len(pairs), "n_samples": len(centers)}
