"""Reference computations the checker compares the library against.

They share no code with the library. Ball functionals are evaluated for
every canonical ball at once, from an n x n table of distance-sorted rows;
Whitney covers are rebuilt by brute force over lattice windows. Both follow the
library's documented conventions (strict balls, ties broken by point id,
first maximum wins), so values agree to rounding and witnesses exactly.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.spatial import cKDTree


def _dist_rows(coords: np.ndarray, centers) -> np.ndarray:
    delta = coords[None, :, :] - coords[np.asarray(centers)][:, None, :]
    return np.sqrt(np.einsum("cij,cij->ci", delta, delta))


class BallTable:
    """All canonical balls of a coordinate space: row c lists the points by
    (distance to c, id); a ball is a row prefix ending at a distance change."""

    def __init__(self, coords: np.ndarray, mu: np.ndarray) -> None:
        n = coords.shape[0]
        d = _dist_rows(coords, np.arange(n))
        self.order = np.argsort(d, axis=1, kind="stable")
        sd = np.take_along_axis(d, self.order, axis=1)
        del d
        self.is_end = np.ones((n, n), dtype=bool)
        self.is_end[:, :-1] = sd[:, 1:] != sd[:, :-1]
        del sd
        pos = np.where(self.is_end, np.arange(n), n)
        self.end_at = np.minimum.accumulate(pos[:, ::-1], axis=1)[:, ::-1]
        self.mu = mu
        self.mu_ball = self.sums(mu)
        self.n = n

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per row position: the sum of values over the ball that position closes."""
        cs = np.cumsum(values[self.order], axis=1)
        return np.take_along_axis(cs, self.end_at, axis=1)

    def mins(self, values: np.ndarray) -> np.ndarray:
        cm = np.minimum.accumulate(values[self.order], axis=1)
        return np.take_along_axis(cm, self.end_at, axis=1)

    def best(self, vals: np.ndarray, centers=None) -> tuple[float, int, int]:
        """Maximum over balls (centers limited to `centers`), first one wins."""
        vals = np.where(self.is_end, vals, -np.inf)
        if centers is not None:
            keep = np.zeros(self.n, dtype=bool)
            keep[centers] = True
            vals[~keep] = -np.inf
        flat = int(np.argmax(vals))
        c, j = divmod(flat, self.n)
        k = int(np.count_nonzero(self.is_end[c, :j]))
        return float(vals[c, j]), c, k

    def ap(self, w_on_x: np.ndarray, in_scope: np.ndarray, p: float,
           centers=None, whole_balls_only=False) -> tuple[float, int, int]:
        """A_p functional of w restricted to `in_scope`, normalized by mu(B).

        whole_balls_only admits only balls inside the scope (the domain
        characteristic); otherwise integrals run over B cap scope.
        """
        w_mu = np.where(in_scope, w_on_x, 0.0) * self.mu
        avg_w = self.sums(w_mu) / self.mu_ball
        if p > 1:
            sig = np.where(in_scope, w_on_x, 1.0) ** (-1.0 / (p - 1.0))
            avg_s = self.sums(np.where(in_scope, sig, 0.0) * self.mu) / self.mu_ball
            vals = avg_w * avg_s ** (p - 1.0)
        else:
            vals = avg_w / self.mins(np.where(in_scope, w_on_x, np.inf))
        if whole_balls_only:
            vals = np.where(self.sums((~in_scope).astype(float)) == 0, vals, -np.inf)
        elif p == 1:
            vals = np.where(self.sums(in_scope.astype(float)) > 0, vals, -np.inf)
        return self.best(vals, centers)

    def maximal(self, f_on_x: np.ndarray) -> np.ndarray:
        """Mf(y): the largest average of |f| over the balls that contain y."""
        avg = self.sums(np.abs(f_on_x) * self.mu) / self.mu_ball
        suffix = np.maximum.accumulate(avg[:, ::-1], axis=1)[:, ::-1]
        rank = np.empty_like(self.order)
        np.put_along_axis(rank, self.order, np.arange(self.n)[None, :], axis=1)
        return np.take_along_axis(suffix, rank, axis=1).max(axis=0)


class GridCover:
    """The greedy Whitney cover of a lattice domain, rebuilt by brute force.

    Boundary distance is the nearest-complement distance; balls have radius
    one quarter of it; the greedy pass takes centers by decreasing radius
    (ties by id) and keeps one when its quarter ball meets no kept quarter
    ball.
    """

    def __init__(self, side: int, mask: np.ndarray, spacing: float = 1.0) -> None:
        lattice = np.stack(np.unravel_index(np.arange(side * side), (side, side)), axis=1)
        coords = lattice.astype(float) * spacing
        n = coords.shape[0]
        ids = np.flatnonzero(mask)
        comp = np.flatnonzero(~mask)
        bd = np.zeros(n)
        bd[ids] = cKDTree(coords[comp]).query(coords[ids], k=1)[0]

        def ball(c: int, r: float) -> np.ndarray:
            # brute force over the lattice window that can hold the ball
            reach = int(np.ceil(r / spacing))
            ci, cj = lattice[c]
            rows = np.arange(max(ci - reach, 0), min(ci + reach, side - 1) + 1)
            cols = np.arange(max(cj - reach, 0), min(cj + reach, side - 1) + 1)
            window = (rows[:, None] * side + cols[None, :]).ravel()
            delta = coords[window] - coords[c]
            return window[np.sqrt(np.einsum("ij,ij->i", delta, delta)) < r]

        radii = bd[ids] / 4.0
        covered = np.zeros(n, dtype=bool)
        chosen = []
        for idx in np.lexsort((ids, -radii)):
            quarter = ball(ids[idx], radii[idx] / 4.0)
            if not covered[quarter].any():
                chosen.append(int(ids[idx]))
                covered[quarter] = True
        self.centers = np.array(chosen, dtype=np.intp)
        self.radii = bd[self.centers] / 4.0
        members = [ball(c, r) for c, r in zip(self.centers, self.radii)]
        sizes = np.array([m.size for m in members])
        inc = csr_matrix((np.ones(sizes.sum()), (np.repeat(np.arange(len(members)), sizes),
                                                 np.concatenate(members))),
                         shape=(len(members), n))
        adj = (inc @ inc.T).tocoo()
        off = adj.row != adj.col
        self.adjacency = csr_matrix((np.ones(off.sum()), (adj.row[off], adj.col[off])),
                                    shape=(len(members),) * 2)
        self.n_edges = int(off.sum()) // 2
        degree = np.bincount(adj.row[off], minlength=len(members))
        self.overlap_n = int(degree.max()) + 1
        self.members = members
        self.mask = mask
        self.boundary = bd
        self.resolution = spacing
        self.mu = np.full(n, spacing ** 2)

        # quasihyperbolic graph: lattice neighbours inside the domain, weighted
        # by length * 2 / (boundary distance sum)
        us, vs = [], []
        for axis_step in (1, side):
            u = np.arange(n - axis_step)
            if axis_step == 1:
                u = u[lattice[u, 1] < side - 1]
            v = u + axis_step
            both = mask[u] & mask[v]
            us.append(u[both])
            vs.append(v[both])
        u, v = np.concatenate(us), np.concatenate(vs)
        wts = spacing * 2.0 / (bd[u] + bd[v])
        self.qh_graph = csr_matrix((np.concatenate([wts, wts]),
                                    (np.concatenate([u, v]), np.concatenate([v, u]))),
                                   shape=(n, n))

    def qh(self, sources) -> np.ndarray:
        return shortest_path(self.qh_graph, method="D", indices=np.asarray(sources))

    def chain(self, sources) -> np.ndarray:
        return shortest_path(self.adjacency, method="D", unweighted=True,
                             indices=np.asarray(sources))

    def sample(self, rng, n_sources: int, n_targets: int):
        """Sources and targets among balls of radius >= 2 h, drawn as documented
        for the chain studies: sources first, then targets, without replacement."""
        resolved = np.flatnonzero(self.radii >= 2.0 * self.resolution)
        pool = resolved if resolved.size >= 2 else np.arange(self.centers.size)
        s = rng.choice(pool, size=min(n_sources, pool.size), replace=False)
        t = rng.choice(pool, size=min(n_targets, pool.size), replace=False)
        return np.sort(s), np.sort(t)

    def chain_report(self, seed: int, n_sources: int = 12, n_targets: int = 60) -> dict:
        sources, targets = self.sample(np.random.default_rng(seed), n_sources, n_targets)
        chain = self.chain(sources)
        qh = self.qh(self.centers[sources])
        kt, kq = [], []
        for si, s in enumerate(sources):
            for t in targets:
                if t != s and np.isfinite(chain[si, t]):
                    kt.append(chain[si, t])
                    kq.append(qh[si, self.centers[t]])
        kt, kq = np.array(kt), np.array(kq)
        ratios = kt / np.maximum(kq, 1.0)
        return {
            "n_balls": int(self.centers.size),
            "n_resolved": int(np.count_nonzero(self.radii >= 2.0 * self.resolution)),
            "n_pairs": int(kt.size),
            "alpha": float(np.maximum(ratios, 1.0 / ratios).max()),
            "corr": float(np.corrcoef(kt, kq)[0, 1]),
        }

    def growth_report(self, seed: int, exponent: float = 0.3,
                      n_sources: int = 10, n_targets: int = 40) -> dict:
        w = np.where(self.mask, self.boundary, 1.0) ** exponent
        w_mu = np.where(self.mask, w, 0.0) * self.mu
        avg = np.array([w_mu[m].sum() / self.mu[m].sum() for m in self.members])
        coo = self.adjacency.tocoo()
        alpha = float(np.abs(np.log(avg[coo.row] / avg[coo.col])).max())
        sources, targets = self.sample(np.random.default_rng(seed), n_sources, n_targets)
        chain = self.chain(sources)
        holdout = sum(1 for si, s in enumerate(sources) for t in targets
                      if t != s and np.isfinite(chain[si, t]))
        return {"n_balls": int(self.centers.size), "n_edges": self.n_edges,
                "alpha": alpha, "n_holdout": holdout}
