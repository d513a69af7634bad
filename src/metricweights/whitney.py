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

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import (
    Disconnected,
    EmptySubset,
    InclusionFail,
    InvalidParameter,
    NotProper,
    PreconditionFail,
    Unreachable,
)
from .maximal import as_subset, scatter
from .space import BALL_QUERY_BLOCK, Ball, MetricMeasureSpace, REL_TOL, _symmetric_csr, point_ids

# Rows of the ball-ball overlap product built at once by _intersection_edges.
OVERLAP_BLOCK = 1024


@dataclass
class DomainSpec:
    """A proper nonempty subset D with boundary distances.

    boundary_dist is defined on all of X: the distance to the complement of
    D for members (strictly positive), and 0 off D.
    """

    space: MetricMeasureSpace
    ids: np.ndarray
    mask: np.ndarray
    boundary_dist: np.ndarray

    @property
    def resolution(self) -> float:
        """The smallest positive pairwise distance of the ambient space."""
        return self.space.min_positive_distance()

    @cached_property
    def qh_graph(self) -> csr_matrix:
        space = self.space
        if space.edge_arrays() is None:
            raise PreconditionFail("quasihyperbolic distances need an edge graph")
        us, vs, _ = space.edge_arrays()
        inside = self.mask[us] & self.mask[vs]
        us, vs = us[inside], vs[inside]
        weights = space.pair_dists(us, vs) * 2.0 / (
            self.boundary_dist[us] + self.boundary_dist[vs]
        )
        return _symmetric_csr(space.n, us, vs, weights)


def make_domain(space: MetricMeasureSpace, members) -> DomainSpec:
    """Build a DomainSpec from a bool mask or ids, checked by as_subset;
    raises NotProper unless 0 < |D| < n, and PreconditionFail, naming the
    point, when a point of D is not at positive distance from X minus D."""
    try:
        ids, mask = as_subset(space, members)
    except EmptySubset:
        ids = ()
    if len(ids) in (0, space.n):
        raise NotProper("domain must be nonempty with nonempty complement")

    boundary = np.zeros(space.n)
    boundary[ids] = space.nearest_distances(ids, np.flatnonzero(~mask))
    unseparated = ids[~(boundary[ids] > 0)]
    if unseparated.size:
        x = int(unseparated[0])
        raise PreconditionFail(
            f"domain point {x} lies at distance {float(boundary[x])!r} from the "
            "complement of the domain; a copy of a domain point may not lie outside it"
        )
    return DomainSpec(space=space, ids=ids, mask=mask, boundary_dist=boundary)


@dataclass
class WhitneyCover:
    """Greedy cover of a domain by balls of radius one quarter boundary distance."""

    domain: DomainSpec
    centers: np.ndarray
    radii: np.ndarray
    members: np.ndarray  # ball k is members[offsets[k]:offsets[k + 1]], in (distance, id) order
    offsets: np.ndarray
    mu_balls: np.ndarray
    edges: np.ndarray  # (m, 2) intersecting pairs i < j

    def __len__(self) -> int:
        return int(self.centers.shape[0])

    @property
    def overlap_n(self) -> int:
        """The most balls meeting one ball, counting the ball itself; 0 without balls."""
        degree = np.bincount(self.edges.ravel(), minlength=len(self))
        return int(degree.max()) + 1 if len(self) else 0

    @property
    def resolved(self) -> np.ndarray:
        """Balls whose radius is at least twice the grid resolution."""
        return self.radii >= 2.0 * self.domain.resolution

    @cached_property
    def adjacency(self) -> csr_matrix:
        """Symmetric 0/1 intersection matrix of the balls (built on first use)."""
        us, vs = self.edges.T
        return _symmetric_csr(len(self), us, vs, np.ones(us.size))

    def ball_averages(self, values_on_x: np.ndarray) -> np.ndarray:
        """mu-average of a function over each cover ball."""
        space = self.domain.space
        if np.shape(values_on_x) != (space.n,):
            raise ValueError("values_on_x must be defined on all of X")
        v_mu = values_on_x * space.mu
        return space.ball_sums(v_mu, self.members, self.offsets) / self.mu_balls


def whitney_cover(space: MetricMeasureSpace, domain: DomainSpec) -> WhitneyCover:
    """Greedy quarter-ball-disjoint selection of Whitney balls."""
    ids = domain.ids
    radii_all = domain.boundary_dist[ids] / 4.0
    order = np.lexsort((ids, -radii_all))
    queue, quarter_radii = ids[order], radii_all[order] / 4.0

    # Radii do not increase along the queue, so the quarter balls that are
    # singletons form its tail. A singleton {x} is kept when x is not yet
    # covered, and keeping it covers only x, which no other tail ball holds.
    head = int(np.count_nonzero(quarter_radii > space.singleton_radius()))
    covered = np.zeros(space.n, dtype=bool)
    chosen: list[int] = []
    quarters, offsets = space.balls_members(queue[:head], quarter_radii[:head])
    for x, lo, hi in zip(queue[:head].tolist(), offsets[:-1].tolist(), offsets[1:].tolist()):
        quarter = quarters[lo:hi]
        if not covered[quarter].any():
            chosen.append(x)
            covered[quarter] = True
    tail = queue[head:]

    centers = np.concatenate([np.array(chosen, dtype=np.intp), tail[~covered[tail]]])
    radii = domain.boundary_dist[centers] / 4.0
    members, offsets = space.balls_members(centers, radii)
    return WhitneyCover(
        domain=domain,
        centers=centers,
        radii=radii,
        members=members,
        offsets=offsets,
        mu_balls=space.ball_sums(space.mu, members, offsets),
        edges=_intersection_edges(space.n, members, offsets),
    )


def _intersection_edges(n: int, members: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Pairs (i, j), i < j, of balls of a (members, offsets) family that share a point,
    in lexicographic order: the upper triangle of A A^T, OVERLAP_BLOCK rows at a
    time, A the boolean ball-point incidence matrix. A boolean product cannot
    wrap around, as small integer counts of shared members do."""
    b = offsets.size - 1
    incidence = csr_matrix((np.ones(members.size, dtype=bool), members, offsets), shape=(b, n))
    incidence_t = incidence.T.tocsr()
    pairs = [np.empty((0, 2), dtype=np.intp)]
    for start in range(0, b, OVERLAP_BLOCK):
        overlap = incidence[start:start + OVERLAP_BLOCK] @ incidence_t
        overlap.sort_indices()
        rows = np.repeat(
            np.arange(start, start + overlap.shape[0], dtype=overlap.indices.dtype),
            np.diff(overlap.indptr),
        )
        upper = overlap.indices > rows
        pairs.append(np.column_stack([rows[upper], overlap.indices[upper]]))
    return np.concatenate(pairs)


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

    quarters = space.balls_members(cover.centers, cover.radii / 4.0)[0]
    quarter_disjoint = quarters.size == np.unique(quarters).size
    covers_domain = bool(np.array_equal(np.unique(cover.members), domain.ids))

    # Doubles hold far more points than quarters: BALL_QUERY_BLOCK balls a
    # call. A min or a max does not depend on order, so the extremes are exact.
    doubles_inside = True
    lo, hi = np.empty(len(cover)), np.empty(len(cover))
    for start in range(0, len(cover), BALL_QUERY_BLOCK):
        block = slice(start, start + BALL_QUERY_BLOCK)
        doubles, offsets = space.balls_members(cover.centers[block], 2.0 * cover.radii[block])
        doubles_inside &= bool(domain.mask[doubles].all())
        delta = domain.boundary_dist[doubles]
        lo[block] = np.minimum.reduceat(delta, offsets[:-1]) / cover.radii[block]
        hi[block] = np.maximum.reduceat(delta, offsets[:-1]) / cover.radii[block]

    sandwich_lo = lo.min(initial=np.inf)
    sandwich_hi = hi.max(initial=-np.inf)
    sandwich_ok = not ((lo < 2.0 * (1 - slack)) | (hi > 6.0 * (1 + slack))).any()

    ratio_max = _max_edge_ratio(cover.radii, cover.edges)
    mu_ratio_max = _max_edge_ratio(cover.mu_balls, cover.edges)

    return {
        "quarter_disjoint": quarter_disjoint,
        "covers_domain": covers_domain,
        "doubles_inside": doubles_inside,
        "sandwich_ok": sandwich_ok,
        "sandwich_lo": float(sandwich_lo) if np.isfinite(sandwich_lo) else None,
        "sandwich_hi": float(sandwich_hi) if np.isfinite(sandwich_hi) else None,
        "radius_ratio_ok": bool(ratio_max <= 4.0 * (1 + slack)),
        "radius_ratio_max": ratio_max,
        "mu_ratio_max": mu_ratio_max,
        "overlap_n": cover.overlap_n,
        "n_balls": len(cover),
    }


def _max_edge_ratio(values: np.ndarray, edges: np.ndarray) -> float:
    """max of max(a, 1/a), a = values[i] / values[j], over the edges (i, j); 1 without edges.

    Two edge-length arrays at a time, however many edges there are.
    """
    ratios = values[edges[:, 0]]
    ratios /= values[edges[:, 1]]
    top = ratios.max(initial=1.0)
    np.divide(1.0, ratios, out=ratios)
    return float(max(top, ratios.max(initial=1.0)))


# -- chains ---------------------------------------------------------------------

def chain_distances(cover: WhitneyCover, sources: np.ndarray) -> np.ndarray:
    """Chain lengths (edge counts) from each source ball to every ball."""
    return dijkstra(cover.adjacency, unweighted=True, indices=sources)


def _shortest_path(graph, start: int, goal: int, unweighted: bool, missing: Exception):
    """One shortest path start -> goal through a sparse graph; raises missing without one."""
    _, pred = dijkstra(graph, unweighted=unweighted, indices=start, return_predecessors=True)
    if pred[goal] < 0 and goal != start:
        raise missing
    path = [goal]
    while path[-1] != start:
        path.append(int(pred[path[-1]]))
    return path[::-1]


def shortest_chain_length(cover: WhitneyCover, i: int, j: int) -> int:
    """Least number of intersection steps joining cover balls i and j."""
    return len(chain_path(cover, i, j)) - 1


def chain_path(cover: WhitneyCover, i: int, j: int) -> list[int]:
    """One shortest chain i -> j as a list of ball indices."""
    b = len(cover)
    if not (0 <= i < b and 0 <= j < b):
        raise ValueError("ball index out of range")
    missing = Unreachable(f"no chain joins balls {i} and {j}")
    return _shortest_path(cover.adjacency, i, j, True, missing)


# -- quasihyperbolic distance -----------------------------------------------------

def _check_domain_points(domain: DomainSpec, ids, what: str) -> np.ndarray:
    ids = point_ids(ids, domain.mask.size, what)
    if not domain.mask[ids].all():
        raise InvalidParameter(f"{what} must lie in the domain")
    return ids


def qh_distances(space: MetricMeasureSpace, domain: DomainSpec, sources) -> np.ndarray:
    """Rows of quasihyperbolic distances from each source point (inf off D)."""
    sources = _check_domain_points(domain, np.atleast_1d(sources), "sources")
    return dijkstra(domain.qh_graph, indices=sources)


def qh_distance(space: MetricMeasureSpace, domain: DomainSpec, x: int, y: int) -> float:
    """Quasihyperbolic distance between two domain points."""
    x, y = _check_domain_points(domain, [x, y], "both endpoints")
    d = float(qh_distances(space, domain, [x])[0, y])
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
    averages = cover.ball_averages(scatter(space, domain.ids, w))
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
    if space.edge_arrays() is None:
        raise PreconditionFail("construction needs the edge graph")
    missing = Disconnected(f"no edge path joins {start} and {goal}")
    return _shortest_path(space.edge_graph, start, goal, False, missing)


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
    point_ids([b.center, bp.center], space.n, "ball centers")
    d_centers = space.dist(b.center, bp.center)
    if d_centers >= bp.radius:
        raise PreconditionFail("second ball must contain the center of the first")

    if d_centers <= b.radius / 2.0:
        witness = Ball(bp.center, a * b.radius / 4.0)
        case = 1
    else:
        path = _edge_path(space, b.center, bp.center)
        path_ids = np.array(path, dtype=np.intp)
        d_to_z = space.pair_dists(b.center, path_ids)
        p_idx = int(np.argmin(np.abs(d_to_z - b.radius / 2.0)))
        target = d_to_z[p_idx] / 2.0
        q_idx = int(np.argmin(np.abs(d_to_z[: p_idx + 1] - target)))
        radius = float(d_to_z[q_idx]) / 2.0
        if radius <= 0:
            raise InclusionFail("grid too coarse to place a witness ball")
        witness = Ball(int(path_ids[q_idx]), radius)
        case = 2

    mem = witness.members(space)
    in_b = space.pair_dists(b.center, mem) < b.radius
    in_bp = space.pair_dists(bp.center, mem) < bp.radius
    if not (in_b.all() and in_bp.all()):
        raise InclusionFail("witness ball escapes the intersection")
    return WitnessBallReport(witness, case, witness.radius / b.radius)
