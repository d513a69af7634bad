"""Whitney-type covers, ball chains, and quasihyperbolic geometry.

A proper nonempty domain D carries a boundary distance delta(x) and a greedy
cover by balls B(x, delta(x)/4): points are processed by decreasing radius
(ties by ascending id) and selected whenever their quarter-ball avoids every
previously selected quarter-ball. The selected balls cover D, their doubles
stay inside D, boundary distance is pinched between 2r and 6r on the double,
and intersecting balls have comparable radii.

Chains walk the intersection graph of the cover (lengths are edge counts);
the quasihyperbolic distance walks the space's edge graph with each edge
(u, v) weighted by d(u, v) * 2 / (delta(u) + delta(v)), the discrete
surrogate of integrating reciprocal boundary distance along a path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import (
    Disconnected,
    InclusionFail,
    NotProper,
    PreconditionFail,
    Unreachable,
)
from .space import Ball, MetricMeasureSpace, REL_TOL, _symmetric_csr


@dataclass
class DomainSpec:
    """A proper nonempty subset D with boundary distances and resolution.

    boundary_dist is defined on all of X: the distance to the complement of
    D for members (strictly positive), and 0 off D. resolution is the
    smallest positive pairwise distance of the ambient space.
    """

    space: MetricMeasureSpace
    ids: np.ndarray
    mask: np.ndarray
    boundary_dist: np.ndarray
    resolution: float
    _qh_graph: csr_matrix | None = field(default=None, repr=False)

    def qh_graph(self) -> csr_matrix:
        if self._qh_graph is None:
            space = self.space
            if not space.edges:
                raise PreconditionFail("quasihyperbolic distances need an edge graph")
            us, vs, ws = [], [], []
            for u, v, _ in space.edges:
                if self.mask[u] and self.mask[v]:
                    weight = space.dist(u, v) * 2.0 / (
                        self.boundary_dist[u] + self.boundary_dist[v]
                    )
                    us.append(u)
                    vs.append(v)
                    ws.append(weight)
            self._qh_graph = _symmetric_csr(space.n, us, vs, ws)
        return self._qh_graph


def make_domain(space: MetricMeasureSpace, members) -> DomainSpec:
    """Build a DomainSpec; raises NotProper unless 0 < |D| < n."""
    members = np.asarray(members)
    if members.dtype == bool:
        mask = members.copy()
    else:
        mask = np.zeros(space.n, dtype=bool)
        mask[members.astype(np.intp)] = True
    ids = np.flatnonzero(mask)
    if ids.size == 0 or ids.size == space.n:
        raise NotProper("domain must be nonempty with nonempty complement")

    comp = np.flatnonzero(~mask)
    boundary = np.zeros(space.n)
    if space.coords is not None:
        from scipy.spatial import cKDTree

        tree = cKDTree(space.coords[comp])
        d, _ = tree.query(space.coords[ids], k=1)
        boundary[ids] = d
    else:
        dist = space.dist_matrix()
        boundary[ids] = dist[np.ix_(ids, comp)].min(axis=1)
    return DomainSpec(
        space=space,
        ids=ids,
        mask=mask,
        boundary_dist=boundary,
        resolution=space.min_positive_distance(),
    )


@dataclass
class WhitneyCover:
    """Greedy cover of a domain by balls of radius one quarter boundary distance."""

    domain: DomainSpec
    centers: np.ndarray
    radii: np.ndarray
    members: list[np.ndarray]
    mu_balls: np.ndarray
    edges: np.ndarray  # (m, 2) intersecting pairs i < j
    overlap_n: int
    _adjacency: csr_matrix | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return int(self.centers.shape[0])

    @property
    def resolved(self) -> np.ndarray:
        """Balls whose radius is at least twice the grid resolution."""
        return self.radii >= 2.0 * self.domain.resolution

    def adjacency(self) -> csr_matrix:
        if self._adjacency is None:
            i, j = self.edges[:, 0], self.edges[:, 1]
            self._adjacency = _symmetric_csr(len(self), i, j, np.ones(i.shape[0]))
        return self._adjacency

    def ball(self, k: int) -> Ball:
        return Ball(int(self.centers[k]), float(self.radii[k]))

    def ball_averages(self, values_on_x: np.ndarray) -> np.ndarray:
        """mu-average of a function over each cover ball."""
        v_mu = values_on_x * self.domain.space.mu
        return np.array(
            [float(np.sum(v_mu[m])) for m in self.members]
        ) / self.mu_balls


def whitney_cover(space: MetricMeasureSpace, domain: DomainSpec) -> WhitneyCover:
    """Greedy quarter-ball-disjoint selection of Whitney balls."""
    ids = domain.ids
    radii_all = domain.boundary_dist[ids] / 4.0
    order = np.lexsort((ids, -radii_all))

    covered = np.zeros(space.n, dtype=bool)
    chosen: list[int] = []
    for idx in order:
        x = int(ids[idx])
        quarter = space.ball_members(x, radii_all[idx] / 4.0)
        if not covered[quarter].any():
            chosen.append(x)
            covered[quarter] = True

    centers = np.array(chosen, dtype=np.intp)
    radii = domain.boundary_dist[centers] / 4.0
    members = [space.ball_members(int(c), float(r)) for c, r in zip(centers, radii)]
    mu_balls = np.array([float(np.sum(space.mu[m])) for m in members])

    edges = _intersection_edges(space, centers, radii, members)
    if edges.size:
        degree = np.bincount(edges.ravel(), minlength=centers.size)
    else:
        degree = np.zeros(centers.size, dtype=int)
    overlap_n = int(degree.max()) + 1 if centers.size else 0  # counts the ball itself

    return WhitneyCover(
        domain=domain,
        centers=centers,
        radii=radii,
        members=members,
        mu_balls=mu_balls,
        edges=edges,
        overlap_n=overlap_n,
    )


def _intersection_edges(
    space: MetricMeasureSpace,
    centers: np.ndarray,
    radii: np.ndarray,
    members: list[np.ndarray],
) -> np.ndarray:
    """Pairs (i, j), i < j, whose member sets share at least one point.

    Computed from the ball-point incidence matrix: (A A^T)_{ij} > 0 exactly
    when balls i and j share a member.
    """
    b = centers.size
    if b == 0:
        return np.empty((0, 2), dtype=np.intp)
    sizes = np.array([m.size for m in members])
    rows = np.repeat(np.arange(b, dtype=np.intp), sizes)
    cols = np.concatenate(members) if sizes.sum() else np.empty(0, dtype=np.intp)
    incidence = csr_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(b, space.n)
    )
    overlap = (incidence @ incidence.T).tocoo()
    keep = overlap.row < overlap.col
    pairs = np.column_stack([overlap.row[keep], overlap.col[keep]]).astype(np.intp)
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.intp)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def check_cover_invariants(cover: WhitneyCover) -> dict:
    """Exact structural checks of a constructed cover.

    Verifies quarter-ball disjointness, that the balls exactly cover the
    domain, that doubles stay inside with boundary distance between 2r and
    6r, and that intersecting balls have radius ratio within [1/4, 4].
    Returns the booleans together with the observed extremes.
    """
    space = cover.domain.space
    domain = cover.domain
    slack = REL_TOL

    quarter_sizes = 0
    quarter_marks = np.zeros(space.n, dtype=bool)
    union = np.zeros(space.n, dtype=bool)
    doubles_inside = True
    sandwich_ok = True
    sandwich_lo = np.inf
    sandwich_hi = -np.inf
    for c, r, mem in zip(cover.centers, cover.radii, cover.members):
        quarter = space.ball_members(int(c), float(r) / 4.0)
        quarter_sizes += quarter.size
        quarter_marks[quarter] = True
        union[mem] = True
        double = space.ball_members(int(c), 2.0 * float(r))
        if not domain.mask[double].all():
            doubles_inside = False
        delta = domain.boundary_dist[double]
        lo = float(delta.min() / r)
        hi = float(delta.max() / r)
        sandwich_lo = min(sandwich_lo, lo)
        sandwich_hi = max(sandwich_hi, hi)
        if lo < 2.0 * (1 - slack) or hi > 6.0 * (1 + slack):
            sandwich_ok = False

    quarter_disjoint = quarter_sizes == int(quarter_marks.sum())
    covers_domain = bool(np.array_equal(np.flatnonzero(union), domain.ids))

    if cover.edges.size:
        ri = cover.radii[cover.edges[:, 0]]
        rj = cover.radii[cover.edges[:, 1]]
        ratios = ri / rj
        ratio_min = float(np.minimum(ratios, 1.0 / ratios).min())
        ratio_max = float(np.maximum(ratios, 1.0 / ratios).max())
        mu_ratio = cover.mu_balls[cover.edges[:, 0]] / cover.mu_balls[cover.edges[:, 1]]
        mu_ratio_max = float(np.maximum(mu_ratio, 1.0 / mu_ratio).max())
    else:
        ratio_min, ratio_max, mu_ratio_max = 1.0, 1.0, 1.0

    return {
        "quarter_disjoint": quarter_disjoint,
        "covers_domain": covers_domain,
        "doubles_inside": doubles_inside,
        "sandwich_ok": sandwich_ok,
        "sandwich_lo": sandwich_lo if np.isfinite(sandwich_lo) else None,
        "sandwich_hi": sandwich_hi if np.isfinite(sandwich_hi) else None,
        "radius_ratio_ok": bool(ratio_max <= 4.0 * (1 + slack)),
        "radius_ratio_max": ratio_max,
        "mu_ratio_max": mu_ratio_max,
        "overlap_n": cover.overlap_n,
        "n_balls": len(cover),
    }


# -- chains ---------------------------------------------------------------------

def chain_distances(cover: WhitneyCover, sources: np.ndarray) -> np.ndarray:
    """Chain lengths (edge counts) from each source ball to every ball."""
    if len(cover) == 0:
        return np.empty((len(sources), 0))
    return dijkstra(cover.adjacency(), unweighted=True, indices=sources)


def shortest_chain_length(cover: WhitneyCover, i: int, j: int) -> int:
    """Least number of intersection steps joining cover balls i and j."""
    b = len(cover)
    if not (0 <= i < b and 0 <= j < b):
        raise ValueError("ball index out of range")
    row = dijkstra(cover.adjacency(), unweighted=True, indices=i)
    d = row[j]
    if not np.isfinite(d):
        raise Unreachable(f"no chain joins balls {i} and {j}")
    return int(d)


def chain_path(cover: WhitneyCover, i: int, j: int) -> list[int]:
    """One shortest chain i -> j as a list of ball indices."""
    _, pred = dijkstra(
        cover.adjacency(), unweighted=True, indices=i, return_predecessors=True
    )
    if pred[j] < 0 and i != j:
        raise Unreachable(f"no chain joins balls {i} and {j}")
    path = [j]
    while path[-1] != i:
        path.append(int(pred[path[-1]]))
    return path[::-1]


# -- quasihyperbolic distance -----------------------------------------------------

def qh_distances(space: MetricMeasureSpace, domain: DomainSpec, sources) -> np.ndarray:
    """Rows of quasihyperbolic distances from each source point (inf off D)."""
    sources = np.atleast_1d(np.asarray(sources, dtype=np.intp))
    if not domain.mask[sources].all():
        raise ValueError("sources must lie in the domain")
    return dijkstra(domain.qh_graph(), indices=sources)


def qh_distance(space: MetricMeasureSpace, domain: DomainSpec, x: int, y: int) -> float:
    """Quasihyperbolic distance between two domain points."""
    if not (domain.mask[x] and domain.mask[y]):
        raise ValueError("both endpoints must lie in the domain")
    row = qh_distances(space, domain, [x])[0]
    d = float(row[y])
    if not np.isfinite(d):
        raise Disconnected(f"no path joins {x} and {y} inside the domain")
    return d


# -- chain growth of weight averages ----------------------------------------------

@dataclass(frozen=True)
class ChainRatioReport:
    ratio: float
    k_tilde: int
    qh_centers: float
    step_ratios: tuple[float, ...]
    p: float

    def to_dict(self) -> dict:
        return {
            "ratio": self.ratio,
            "k_tilde": self.k_tilde,
            "qh_centers": self.qh_centers,
            "step_ratios": list(self.step_ratios),
            "p": self.p,
        }


def chain_weight_ratio(
    space: MetricMeasureSpace,
    domain: DomainSpec,
    w: np.ndarray,
    p: float,
    cover: WhitneyCover,
    i: int,
    j: int,
) -> ChainRatioReport:
    """Average ratio between two cover balls, with its chain decomposition.

    w is given on the domain (sorted-id alignment). The report carries
    avg_{B_i} w / avg_{B_j} w, the chain length, the quasihyperbolic distance
    of the two centers, and the per-step ratios along one shortest chain.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != domain.ids.shape:
        raise ValueError("w must be aligned with the domain")
    w_on_x = np.zeros(space.n)
    w_on_x[domain.ids] = w
    averages = cover.ball_averages(w_on_x)
    path = chain_path(cover, i, j)
    steps = tuple(
        float(averages[a] / averages[b]) for a, b in zip(path[:-1], path[1:])
    )
    qh = qh_distance(space, domain, int(cover.centers[i]), int(cover.centers[j]))
    return ChainRatioReport(
        ratio=float(averages[i] / averages[j]),
        k_tilde=len(path) - 1,
        qh_centers=qh,
        step_ratios=steps,
        p=float(p),
    )


# -- witness ball for intersecting pairs -------------------------------------------

@dataclass(frozen=True)
class WitnessBallReport:
    ball: Ball
    case: int
    radius_ratio: float


def _edge_path(space: MetricMeasureSpace, start: int, goal: int) -> list[int]:
    """One shortest path along the edge graph, by edge lengths."""
    if not space.edges:
        raise PreconditionFail("construction needs the edge graph")
    _, pred = dijkstra(space.edge_graph(), indices=start, return_predecessors=True)
    if pred[goal] < 0 and goal != start:
        raise Disconnected(f"no edge path joins {start} and {goal}")
    path = [goal]
    while path[-1] != start:
        path.append(int(pred[path[-1]]))
    return path[::-1]


def witness_intersection_ball(
    space: MetricMeasureSpace,
    b: Ball,
    bp: Ball,
    a: float,
) -> WitnessBallReport:
    """A ball of definite radius inside the intersection of two balls.

    Preconditions: 0 < a <= 1 with a * rad(B) <= rad(Bp), and Bp contains
    the center of B. Near centers (d <= rad(B)/2) the witness sits at the
    center of Bp with radius a rad(B)/4; otherwise it sits halfway towards a
    path point at distance about rad(B)/2, giving radius about rad(B)/8.
    The inclusion in both balls is verified on the point set.
    """
    if not 0 < a <= 1:
        raise ValueError("a must lie in (0, 1]")
    if a * b.radius > bp.radius:
        raise PreconditionFail("need a * rad(B) <= rad(Bp)")
    d_centers = space.dist(b.center, bp.center)
    if d_centers >= bp.radius:
        raise PreconditionFail("second ball must contain the center of the first")

    if d_centers <= b.radius / 2.0:
        witness = Ball(bp.center, a * b.radius / 4.0)
        case = 1
    else:
        path = _edge_path(space, b.center, bp.center)
        path_ids = np.array(path, dtype=np.intp)
        d_to_z = space.dists_from(b.center, path_ids)
        p_idx = int(np.argmin(np.abs(d_to_z - b.radius / 2.0)))
        target = d_to_z[p_idx] / 2.0
        q_idx = int(np.argmin(np.abs(d_to_z[: p_idx + 1] - target)))
        radius = float(d_to_z[q_idx]) / 2.0
        if radius <= 0:
            raise InclusionFail("grid too coarse to place a witness ball")
        witness = Ball(int(path_ids[q_idx]), radius)
        case = 2

    mem = witness.members(space)
    in_b = space.dists_from(b.center, mem) < b.radius
    in_bp = space.dists_from(bp.center, mem) < bp.radius
    if not (in_b.all() and in_bp.all()):
        raise InclusionFail("witness ball escapes the intersection")
    return WitnessBallReport(witness, case, witness.radius / b.radius)
