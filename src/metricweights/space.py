"""Finite metric measure spaces and their canonical ball structure.

A space is a finite point set {0, .., n-1} with a metric and a strictly
positive point mass mu. Balls use strict inequality, B(x, r) = {y : d(x,y) < r},
so for each center the family of distinct balls is a nested chain of prefixes
of the distance-sorted point list. Everything downstream (maximal operators,
characteristics, covers) enumerates balls through that chain.

Two storage backends with identical semantics:

* dense: the full n x n distance matrix, capped at ``DENSE_CAP`` points;
* coords: coordinates with exact Euclidean distances computed on demand,
  used by ``build_grid_space``, ``studies.interval_space`` and coordinate
  space files, so that large grids stay cheap.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import InvalidParameter, SizeOverflow

# Dense structures (distance matrix, cached ball prefixes) refuse to build
# beyond this many points; coordinate-backed row queries have no such limit.
DENSE_CAP = 2048

# Hard cap for build_grid_space, protecting against runaway side**dim.
GRID_POINT_CAP = 4_000_000

# Triples re-verified by validate_space on a space too large to check in full.
SAMPLE_TRIPLES = 20000

# balls_members answers this many coordinate-backed ball queries with one
# KD-tree call. A block's candidates are its transient memory, so larger
# blocks save little time and cost memory.
BALL_QUERY_BLOCK = 256

# The canonical cache is built, stored and scanned in blocks of at most
# CANONICAL_BLOCK centers, one numpy call per block, whose b x n transients
# keep to CANONICAL_BLOCK_CELLS entries so that they stay in cache.
CANONICAL_BLOCK = 64
CANONICAL_BLOCK_CELLS = 32768

# Blanket relative tolerance for asserted equalities.
REL_TOL = 1e-12


@dataclass(frozen=True)
class Ball:
    """A metric ball given by center point id and strictly positive radius."""

    center: int
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    def members(self, space: "MetricMeasureSpace") -> np.ndarray:
        """Sorted point ids y with d(center, y) < radius. Always contains the center."""
        return space.ball_members(self.center, self.radius)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_space: pass, or the first violated axiom with witness."""

    ok: bool
    kind: str | None = None
    witness: tuple[int, ...] | None = None
    mode: str = "full"

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "kind": self.kind,
            "witness": list(self.witness) if self.witness is not None else None,
            "mode": self.mode,
        }


@dataclass(slots=True, eq=False)
class _CenterBlock:
    """Distance-sorted prefix machinery for the ball centers [c0, c0 + b).

    order        b x n: point ids sorted by (distance to the center, id)
    point_prefix b x n: for each point y, the smallest k with y in prefix k
    ends         per ball: flat index into the b x n tables of its last point
    values       per ball: its distinct distance (0.0 first for each center)
    mu_prefix    per ball: its mu-mass
    starts       each center's first ball in the per-ball arrays, then their size

    Balls run center after center, in prefix order, and every method gives
    one value per ball. center(i) is the i-th center alone in this layout,
    with 1-d order and point_prefix, so that its ends index one row.
    """

    c0: int
    order: np.ndarray
    point_prefix: np.ndarray
    ends: np.ndarray
    values: np.ndarray
    mu_prefix: np.ndarray
    starts: np.ndarray

    @classmethod
    def build(cls, space: "MetricMeasureSpace", c0: int, c1: int) -> "_CenterBlock":
        rows = np.vstack([space.dist_row(c) for c in range(c0, c1)])
        order = np.argsort(rows, axis=1, kind="stable")
        sorted_d = np.take_along_axis(rows, order, axis=1)
        change = np.ones(rows.shape, dtype=bool)
        np.not_equal(sorted_d[:, 1:], sorted_d[:, :-1], out=change[:, :-1])
        ends = np.flatnonzero(change)
        # The prefix of the point at each sorted position counts the
        # distance changes before it; scatter it back to the point ids.
        prefix = np.zeros(rows.shape, dtype=np.intp)
        np.cumsum(change[:, :-1], axis=1, out=prefix[:, 1:])
        point_prefix = np.empty_like(order)
        np.put_along_axis(point_prefix, order, prefix, axis=1)
        mu_prefix = np.cumsum(space.mu[order], axis=1).ravel()[ends]
        starts = np.concatenate(([0], np.cumsum(change.sum(axis=1))))
        return cls(c0, order, point_prefix, ends, sorted_d.ravel()[ends], mu_prefix, starts)

    def center(self, i: int) -> "_CenterBlock":
        s, e = self.starts[i:i + 2]
        return _CenterBlock(
            self.c0 + i, self.order[i], self.point_prefix[i],
            self.ends[s:e] - i * self.order.shape[1], self.values[s:e],
            self.mu_prefix[s:e], np.array([0, e - s]),
        )

    @property
    def counts(self) -> np.ndarray:
        """Prefix sizes, counts[k] = (index in its row of the last point) + 1."""
        return self.ends % self.order.shape[-1] + 1

    def reps(self) -> np.ndarray:
        """Representative radius of each prefix: the midpoint to the next
        distinct distance, and max distance + 1 for each center's last one."""
        values = self.values
        reps = np.empty_like(values)
        reps[:-1] = 0.5 * (values[:-1] + values[1:])
        last = self.starts[1:] - 1
        reps[last] = values[last] + 1.0
        return reps

    def prefix_sums(self, point_values: np.ndarray) -> np.ndarray:
        """Sum of point_values over each prefix (accumulated in canonical order)."""
        return np.take(np.cumsum(np.take(point_values, self.order), axis=-1), self.ends)

    def prefix_mins(self, point_values: np.ndarray) -> np.ndarray:
        """Running minimum of point_values over each prefix."""
        running = np.minimum.accumulate(np.take(point_values, self.order), axis=-1)
        return np.take(running, self.ends)


class CanonicalBallSet:
    """Lazy cache of the canonical ball enumeration of a space, built in
    blocks of centers (see CANONICAL_BLOCK)."""

    def __init__(self, space: "MetricMeasureSpace") -> None:
        if space.n > DENSE_CAP:
            raise SizeOverflow(
                f"canonical ball structures need n <= {DENSE_CAP}, got {space.n}"
            )
        # A proxy, so that a space and its cache form no reference cycle and
        # are freed as soon as the space is dropped, not at the next full
        # garbage collection.
        self._space = weakref.proxy(space)
        self._rows = min(CANONICAL_BLOCK, max(1, CANONICAL_BLOCK_CELLS // space.n))
        self._blocks: list[_CenterBlock | None] = [None] * -(-space.n // self._rows)

    def _block(self, k: int) -> _CenterBlock:
        if self._blocks[k] is None:
            c0, n = k * self._rows, self._space.n
            self._blocks[k] = _CenterBlock.build(self._space, c0, min(c0 + self._rows, n))
        return self._blocks[k]

    def center(self, c: int) -> _CenterBlock:
        return self._block(c // self._rows).center(c % self._rows)

    def ensure_all(self) -> None:
        for k in range(len(self._blocks)):
            self._block(k)

    def __iter__(self) -> Iterator[_CenterBlock]:
        """The blocks, in center order, all built first."""
        self.ensure_all()
        return iter(self._blocks)

    def ball_count(self) -> int:
        """Total number of canonical (center, prefix) pairs."""
        return sum(int(block.ends.size) for block in self)

    def sup(
        self,
        values: Callable[[_CenterBlock], np.ndarray],
        domain_mask: np.ndarray | None = None,
    ) -> tuple[float, tuple[int, int]]:
        """Supremum of a ball functional over the canonical balls, with its witness.

        values(block) gives one value per ball of a block of centers, in center
        then prefix order; -inf marks a ball out of scope. With a domain mask
        only balls with no point outside D take part, which leaves out every
        center outside D. Centers are visited in id order, the first maximum
        wins, and a center with a NaN ball takes no part. Returns (value,
        (center, prefix)), or (-inf, (-1, -1)) when no ball is in scope.
        """
        outside = None if domain_mask is None else (~domain_mask).astype(float)
        best = -np.inf
        witness = (-1, -1)
        for block in self:
            starts = block.starts
            if domain_mask is not None:
                if not domain_mask[block.c0:block.c0 + starts.size - 1].any():
                    continue
                # A block's centers outside D may divide 0 by 0; those balls drop out.
                with np.errstate(divide="ignore", invalid="ignore"):
                    vals = np.where(block.prefix_sums(outside) == 0, values(block), -np.inf)
            else:
                vals = values(block)
            maxima = np.maximum.reduceat(vals, starts[:-1])
            maxima[np.isnan(maxima)] = -np.inf
            i = int(np.argmax(maxima))
            if maxima[i] > best:
                k = int(np.argmax(vals[starts[i]:starts[i + 1]]))
                best, witness = float(vals[starts[i] + k]), (block.c0 + i, k)
        return best, witness


class MetricMeasureSpace:
    """Finite metric measure space with optional geodesic-surrogate edge graph.

    Parameters
    ----------
    mu : positive mass per point, length n.
    dist : full n x n matrix, or None for coordinate-backed spaces.
    coords : lattice coordinates (n x dim) for Euclidean row computation.
    edges : optional (u, v, length) triples, or an (m, 3) array of them;
        lengths must dominate distances. Kept as three read-only arrays.
    meta : free-form description string, round-tripped by save/load.
    """

    def __init__(
        self,
        mu: np.ndarray,
        dist: np.ndarray | None = None,
        coords: np.ndarray | None = None,
        edges: Sequence[tuple[int, int, float]] | None = None,
        meta: str = "",
    ) -> None:
        self.mu = np.asarray(mu, dtype=float)
        if self.mu.ndim != 1 or self.mu.shape[0] == 0:
            raise ValueError("mu must be a nonempty 1-d array")
        self.n = int(self.mu.shape[0])
        if dist is None and coords is None:
            raise ValueError("need a distance matrix or coordinates")
        self._dist = None
        self._coords = None
        if dist is not None:
            dist = np.asarray(dist, dtype=float)
            if dist.shape != (self.n, self.n):
                raise ValueError("distance matrix shape does not match mu")
            self._dist = dist
        if coords is not None:
            coords = np.asarray(coords, dtype=float)
            if coords.ndim != 2 or coords.shape[0] != self.n:
                raise ValueError("coords shape does not match mu")
            self._coords = coords
        self._edges = None
        if edges is not None and len(edges):
            triples = np.asarray(edges, dtype=float)
            if triples.ndim != 2 or triples.shape[1] != 3:
                raise ValueError("edges must be (u, v, length) triples")
            self._edges = (
                triples[:, 0].astype(np.intp),
                triples[:, 1].astype(np.intp),
                triples[:, 2].copy(),
            )
            for column in self._edges:
                column.flags.writeable = False
        self.meta = meta
        self._canonical: CanonicalBallSet | None = None
        self._edge_graph = None
        self._min_positive: float | None = None
        self._kdtree = None

    # -- distances -----------------------------------------------------------

    def dist_row(self, i: int) -> np.ndarray:
        if self._dist is not None:
            return self._dist[i]
        delta = self._coords - self._coords[i]
        return np.sqrt(np.einsum("ij,ij->i", delta, delta))

    def dists_from(self, i: int, ids: np.ndarray) -> np.ndarray:
        if self._dist is not None:
            return self._dist[i, ids]
        delta = self._coords[ids] - self._coords[i]
        return np.sqrt(np.einsum("ij,ij->i", delta, delta))

    def pair_dists(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """d(us[k], vs[k]) for each k, by the formula of dist_row."""
        if self._dist is not None:
            return self._dist[us, vs]
        delta = self._coords[vs] - self._coords[us]
        return np.sqrt(np.einsum("ij,ij->i", delta, delta))

    def dist(self, i: int, j: int) -> float:
        """d(i, j), by the formula of dist_row."""
        if self._dist is not None:
            return float(self._dist[i, j])
        return float(self.pair_dists(np.array([i]), np.array([j]))[0])

    def dist_matrix(self) -> np.ndarray:
        """The full matrix; guarded by the dense size cap.

        A coordinate space builds a new matrix on each call and does not keep
        it, so it stays on the coordinate backend.
        """
        if self._dist is not None:
            return self._dist
        if self.n > DENSE_CAP:
            raise SizeOverflow(f"refusing to materialize a {self.n}x{self.n} distance matrix")
        return np.vstack([self.dist_row(i) for i in range(self.n)])

    @property
    def coords(self) -> np.ndarray | None:
        return self._coords

    # -- the edge graph ----------------------------------------------------------

    @property
    def edges(self) -> list[tuple[int, int, float]] | None:
        """The edge graph as (u, v, length) triples, or None (a new list each time)."""
        if self._edges is None:
            return None
        return list(zip(*(column.tolist() for column in self._edges)))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The edge graph as read-only arrays (u, v, length), or None."""
        return self._edges

    # -- masses and resolution -------------------------------------------------

    def total_mass(self) -> float:
        return float(np.sum(self.mu))

    def min_positive_distance(self) -> float:
        """Resolution h: the smallest positive pairwise distance."""
        if self._min_positive is None:
            if self._coords is not None and self.n > 1:
                tree = self._tree()
                d, _ = tree.query(self._coords, k=2)
                positive = d[:, 1][d[:, 1] > 0]
                self._min_positive = float(positive.min()) if positive.size else 0.0
            else:
                m = np.inf
                for i in range(self.n):
                    row = self.dist_row(i)
                    positive = row[row > 0]
                    if positive.size:
                        m = min(m, float(positive.min()))
                self._min_positive = 0.0 if not np.isfinite(m) else m
        return self._min_positive

    # -- balls -----------------------------------------------------------------

    def _tree(self):
        if self._kdtree is None:
            from scipy.spatial import cKDTree

            self._kdtree = cKDTree(self._coords)
        return self._kdtree

    def ball_members(self, center: int, radius: float) -> np.ndarray:
        """Sorted ids y with d(center, y) < radius (strict)."""
        return next(self.balls_members([center], [radius]))

    def balls_members(self, centers, radii) -> Iterator[np.ndarray]:
        """Yield, for each (center, radius) pair in order, its ball_members.

        The coordinate backend makes one KD-tree query per block of
        BALL_QUERY_BLOCK centers. The tree only generates candidates, within
        radius * (1 + 1e-9); membership is decided by the same distance
        formula as dist_row, so the backends agree exactly.
        """
        centers = np.asarray(centers, dtype=np.intp)
        radii = np.asarray(radii, dtype=float)
        if centers.shape != radii.shape or centers.ndim != 1:
            raise ValueError("centers and radii must be 1-d arrays of one length")
        if (radii <= 0).any():
            raise ValueError("ball radius must be positive")
        if self._dist is not None:
            for c, r in zip(centers.tolist(), radii.tolist()):
                yield np.flatnonzero(self._dist[c] < r)
            return
        for start in range(0, centers.size, BALL_QUERY_BLOCK):
            block = slice(start, start + BALL_QUERY_BLOCK)
            kept, ends = self._block_members(centers[block], radii[block])
            for lo, hi in zip([0] + ends, ends):
                yield kept[lo:hi]

    def _block_members(self, centers: np.ndarray, radii: np.ndarray):
        """One block of coordinate-backed balls: their members, concatenated,
        and the offset where each ball's members end."""
        lists = self._tree().query_ball_point(
            self._coords[centers], radii * (1 + 1e-9), return_sorted=True
        )
        sizes = np.fromiter(map(len, lists), dtype=np.intp, count=centers.size)
        cands = np.fromiter(chain.from_iterable(lists), dtype=np.intp, count=int(sizes.sum()))
        del lists  # a list entry costs more than the arrays below; free it first
        delta = self._coords[cands]
        delta -= self._coords[np.repeat(centers, sizes)]
        keep = np.sqrt(np.einsum("ij,ij->i", delta, delta)) < np.repeat(radii, sizes)
        return cands[keep], np.cumsum(keep)[np.cumsum(sizes) - 1].tolist()

    @property
    def canonical(self) -> CanonicalBallSet:
        if self._canonical is None:
            self._canonical = CanonicalBallSet(self)
        return self._canonical

    def edge_graph(self):
        """Symmetric sparse adjacency of the edge graph, weighted by edge length (cached)."""
        if self._edge_graph is None:
            us, vs, lengths = self._edges if self._edges is not None else ((), (), ())
            self._edge_graph = _symmetric_csr(self.n, us, vs, lengths)
        return self._edge_graph

    def __repr__(self) -> str:  # pragma: no cover
        kind = "dense" if self._dist is not None else "coords"
        return f"MetricMeasureSpace(n={self.n}, backend={kind}, meta={self.meta!r})"


def _symmetric_csr(n: int, us, vs, weights):
    """n x n sparse matrix with weights[i] at (us[i], vs[i]) and at (vs[i], us[i])."""
    from scipy.sparse import csr_matrix

    rows = np.concatenate([us, vs]).astype(np.intp)
    cols = np.concatenate([vs, us]).astype(np.intp)
    weights = np.asarray(weights, dtype=float)
    return csr_matrix((np.concatenate([weights, weights]), (rows, cols)), shape=(n, n))


def canonical_balls(space: MetricMeasureSpace, center: int) -> list[tuple[float, np.ndarray]]:
    """The nested family of distinct balls around one center, smallest first.

    One (representative radius, sorted member ids) pair per ball: the radius
    is the midpoint to the next distinct distance (the largest distance + 1
    for the whole space), and B(center, radius) is exactly that member set.
    """
    if not 0 <= center < space.n:
        raise ValueError("center out of range")
    data = space.canonical.center(center)
    return [
        (float(r), np.sort(data.order[:count]))
        for r, count in zip(data.reps(), data.counts)
    ]


# -- validation ---------------------------------------------------------------

def _validate_triangle_dense(dist: np.ndarray) -> tuple[int, int, int] | None:
    """First (x, y, z) with d(x,z) > d(x,y) + d(y,z) + slack, lexicographic in y."""
    n = dist.shape[0]
    for y in range(n):
        through = dist[:, y][:, None] + dist[y, :][None, :]
        slack = REL_TOL * np.maximum(dist, through)
        bad = dist > through + slack
        if bad.any():
            flat = int(np.argmax(bad))
            x, z = divmod(flat, n)
            return (x, y, z)
    return None


def _closure_certifies(dist: np.ndarray) -> bool:
    """True when no triple can fail _validate_triangle_dense.

    False proves nothing; the exact loop must then decide. Floyd-Warshall
    gives a closure C <= D in which C(x,z) <= fl(C(x,y) + C(y,z)) for all y,
    and rounding is monotone, so C(x,z) <= t = fl(D(x,y) + D(y,z)) for every
    y. The exact loop flags D(x,z) > t + REL_TOL * max(D(x,z), t). A matrix
    with D <= C * (1 + REL_TOL/2) stays below that by about REL_TOL/2 * t,
    far more than the rounding of either side, so no triple is flagged.

    Valid only after the pair axioms passed: scipy reads a dense zero as a
    missing edge, so no zero may sit off the diagonal, and a negative entry
    would be a negative edge. NaN has failed the symmetry or self-distance
    check by then. An inf entry is a missing edge: it certifies only where
    the closure is inf too, and there every t is inf and the loop flags
    nothing either.
    """
    from scipy.sparse.csgraph import floyd_warshall

    closure = floyd_warshall(dist, directed=True)
    closure *= 1.0 + REL_TOL / 2
    return bool(np.all(dist <= closure))


def validate_space(space: MetricMeasureSpace, seed: int = 0) -> ValidationReport:
    """Check the metric measure axioms; report the first violation found.

    Scan order: masses by point id; pair axioms in lexicographic order
    (negativity, self-distance, symmetry, distinct points at distance zero);
    edge invariants when an edge graph is declared (the first edge, in edge
    order, shorter than its distance); the triangle inequality last.

    Dense spaces are checked over all triples. A Floyd-Warshall closure C of
    the matrix certifies the whole inequality at once when D <= C * (1 +
    REL_TOL/2) everywhere; only when it does not does the exact loop over
    middle points y run, and that loop alone decides the verdict and the
    witness (the first bad (x, y, z), lexicographic in y, then x, then z).
    Coordinate-backed spaces beyond DENSE_CAP satisfy the metric axioms by
    construction, so only a seeded sample of SAMPLE_TRIPLES triples is
    re-verified, the first bad one in sample order is reported, and the
    report says mode="sampled".
    """
    bad_mass = np.flatnonzero(space.mu <= 0)
    if bad_mass.size:
        return ValidationReport(False, "NonpositiveMass", (int(bad_mass[0]),))

    dense = space._dist is not None or space.n <= DENSE_CAP
    mode = "full" if dense else "sampled"

    if dense:
        dist = space.dist_matrix()
        neg = np.argwhere(dist < 0)
        if neg.size:
            x, y = map(int, neg[0])
            return ValidationReport(False, "NegativeDistance", (x, y))
        diag = np.flatnonzero(np.diagonal(dist) != 0)
        if diag.size:
            x = int(diag[0])
            return ValidationReport(False, "NonzeroSelfDistance", (x, x))
        asym = np.argwhere(dist != dist.T)
        if asym.size:
            x, y = map(int, asym[0])
            return ValidationReport(False, "AsymmetricDistance", (x, y))
        offdiag_zero = np.argwhere((dist == 0) & ~np.eye(space.n, dtype=bool))
        if offdiag_zero.size:
            x, y = map(int, offdiag_zero[0])
            return ValidationReport(False, "ZeroDistanceDistinct", (x, y))

    edges = space.edge_arrays()
    if edges is not None:
        us, vs, lengths = edges
        short = np.flatnonzero(
            lengths + REL_TOL * np.maximum(lengths, 1.0) < space.pair_dists(us, vs)
        )
        if short.size:
            k = short[0]
            return ValidationReport(False, "EdgeTooShort", (int(us[k]), int(vs[k])), mode)
        from scipy.sparse.csgraph import connected_components

        if connected_components(space.edge_graph(), directed=False)[0] != 1:
            return ValidationReport(False, "GraphDisconnected", None, mode)

    if dense:
        if not _closure_certifies(dist):
            witness = _validate_triangle_dense(dist)
            if witness is not None:
                return ValidationReport(False, "TriangleViolation", witness)
        return ValidationReport(True)

    rng = np.random.default_rng(seed)
    xs = rng.integers(0, space.n, size=SAMPLE_TRIPLES)
    ys = rng.integers(0, space.n, size=SAMPLE_TRIPLES)
    zs = rng.integers(0, space.n, size=SAMPLE_TRIPLES)
    dxz = space.pair_dists(xs, zs)
    through = space.pair_dists(xs, ys) + space.pair_dists(ys, zs)
    bad = np.flatnonzero(dxz > through + REL_TOL * np.maximum(dxz, through))
    if bad.size:
        k = bad[0]
        return ValidationReport(
            False, "TriangleViolation", (int(xs[k]), int(ys[k]), int(zs[k])), mode
        )
    return ValidationReport(True, mode=mode)


# -- builders -------------------------------------------------------------------

def build_grid_space(dim: int, side: int, spacing: float) -> MetricMeasureSpace:
    """Regular lattice of side**dim points with Euclidean metric.

    Point id is the C-order index of the integer lattice coordinate (the last
    axis varies fastest). Each point carries mass spacing**dim, and the edge
    graph joins axis neighbours with length spacing.
    """
    if dim not in (1, 2, 3):
        raise InvalidParameter("dim must be 1, 2 or 3")
    if side < 1:
        raise InvalidParameter("side must be >= 1")
    if not 0 < spacing < np.inf:
        raise InvalidParameter("spacing must be positive and finite")
    n = side**dim
    if n > GRID_POINT_CAP:
        raise SizeOverflow(f"grid of {n} points exceeds cap {GRID_POINT_CAP}")

    axes = [np.arange(side)] * dim
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    coords = lattice.astype(float) * spacing
    mu = np.full(n, float(spacing) ** dim)

    # Axis by axis, each point joined to its successor along that axis
    # (every axis has the same number of such points).
    us = np.concatenate([np.flatnonzero(lattice[:, a] < side - 1) for a in range(dim)])
    steps = np.repeat([side ** (dim - 1 - a) for a in range(dim)], us.size // dim)
    edges = np.column_stack([us, us + steps, np.full(us.size, float(spacing))])

    return MetricMeasureSpace(
        mu=mu,
        coords=coords,
        edges=edges,
        meta=f"grid(dim={dim},side={side},spacing={spacing!r})",
    )


def space_from_matrix(
    dist: np.ndarray,
    mu: np.ndarray,
    edges: Sequence[tuple[int, int, float]] | None = None,
    meta: str = "",
) -> MetricMeasureSpace:
    return MetricMeasureSpace(mu=np.asarray(mu, float), dist=np.asarray(dist, float),
                              edges=edges, meta=meta)


# -- doubling -----------------------------------------------------------------

def doubling_constant(space: MetricMeasureSpace, workers: int = 1) -> float:
    """sup over centers x and radii r of mu(B(x, 2r)) / mu(B(x, r)).

    B(x, r) is prefix k for r in (v_k, v_{k+1}] (v the distinct distances)
    and B(x, 2r) only grows with r, so on that interval the ratio is
    largest at r = v_{k+1}: one ratio per prefix, and 1 for the last prefix,
    whose radii take in the whole space, realizes the exact supremum over
    all real radii. workers is accepted for compatibility and has no effect.
    """

    def ratios(block: _CenterBlock) -> np.ndarray:
        out = np.ones(block.values.size)
        for s, e in zip(block.starts[:-1].tolist(), block.starts[1:].tolist()):
            v, m = block.values[s:e], block.mu_prefix[s:e]
            # B(x, 2 v_{k+1}) is the prefix of the largest distance below 2 v_{k+1}.
            out[s:e - 1] = m[np.searchsorted(v, 2.0 * v[1:], side="left") - 1] / m[:-1]
        return out

    value, _ = space.canonical.sup(ratios)
    return value
