"""Naive reference implementations used to pin the optimized code.

Everything here enumerates balls directly from distance rows and sums with
plain masks. No prefix tricks, no shared code with the package internals
beyond the space accessors.
"""

import numpy as np


def ball_system(space):
    """Every distinct ball as (center, representative radius, member ids)."""
    out = []
    for c in range(space.n):
        row = space.dist_row(c)
        vals = np.unique(row)
        reps = [(vals[k] + vals[k + 1]) / 2.0 for k in range(len(vals) - 1)]
        reps.append(float(vals[-1]) + 1.0)
        for r in reps:
            out.append((c, float(r), np.flatnonzero(row < r)))
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


def naive_tilde_char(space, e_mask, w_on_x, p):
    if e_mask is None:
        e_mask = np.ones(space.n, dtype=bool)
    w = np.asarray(w_on_x, dtype=float)
    best = 0.0
    for _, _, mem in ball_system(space):
        sel = mem[e_mask[mem]]
        mu_b = float(np.sum(space.mu[mem]))
        if p > 1:
            a = float(np.sum(w[sel] * space.mu[sel])) / mu_b
            b = float(np.sum(w[sel] ** (-1.0 / (p - 1.0)) * space.mu[sel])) / mu_b
            val = a * b ** (p - 1.0)
        else:
            if sel.size == 0:
                continue
            a = float(np.sum(w[sel] * space.mu[sel])) / mu_b
            val = a / float(np.min(w[sel]))
        best = max(best, val)
    return best


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
    """Doubling constant by direct probing of every breakpoint interval."""
    best = 0.0
    for c in range(space.n):
        row = space.dist_row(c)
        vals = np.unique(row)
        crit = np.unique(np.concatenate([vals[vals > 0], vals[vals > 0] / 2.0]))
        probes = [crit[0] / 2.0]
        probes += [(crit[k] + crit[k + 1]) / 2.0 for k in range(len(crit) - 1)]
        probes.append(float(crit[-1]) + 1.0)
        for r in probes:
            small = float(np.sum(space.mu[row < r]))
            big = float(np.sum(space.mu[row < 2.0 * r]))
            best = max(best, big / small)
    return best


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
