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

A space keeps what it derives (canonical ball cache, KD-tree, resolution, edge
graph) in cached properties, built on first read; the cache is built whole and
holds no reference to its space, so a dropped space is freed at once.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import InvalidParameter, SizeOverflow

# Dense structures (distance matrix, cached ball prefixes) refuse to build
# beyond this many points; coordinate-backed row queries have no such limit.
DENSE_CAP = 2048

# Hard cap for build_grid_space, protecting against runaway side**dim.
GRID_POINT_CAP = 4_000_000

# balls_members decides this many balls with one KD-tree query (or one slice
# of matrix rows). A block's candidates are its transient memory, so larger
# blocks save little time and cost memory.
BALL_QUERY_BLOCK = 256

# The canonical cache is built, stored and scanned in blocks of centers, one
# numpy call per block, whose b x n transients keep to CANONICAL_BLOCK_CELLS
# entries so that they stay in cache.
CANONICAL_BLOCK_CELLS = 32768

# The canonical cache keeps its index tables in this type: a prefix number and
# a point id lie below DENSE_CAP, and a flat index into a block's b x n tables
# below b * n <= CANONICAL_BLOCK_CELLS.
PREFIX_DTYPE = np.int16
if max(CANONICAL_BLOCK_CELLS, DENSE_CAP) - 1 > np.iinfo(PREFIX_DTYPE).max:
    raise ImportError("max(CANONICAL_BLOCK_CELLS, DENSE_CAP) - 1 must fit PREFIX_DTYPE")

# Blanket relative tolerance for asserted equalities.
REL_TOL = 1e-12

# validate_space proves the triangle inequality of coordinates in at most
# ROUNDING_DIM dimensions, at least ROUNDING_FLOOR apart (see its docstring).
ROUNDING_FLOOR = 2.0**-480
ROUNDING_DIM = 4096


@dataclass(frozen=True)
class Ball:
    """A metric ball given by center point id and strictly positive radius."""

    center: int
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")
        point_ids(self.center, None, "ball centers")  # the space checks the range
        object.__setattr__(self, "center", int(self.center))

    def members(self, space: "MetricMeasureSpace") -> np.ndarray:
        """Point ids y with d(center, y) < radius in (distance, id) order; holds the center."""
        return space.ball_members(self.center, self.radius)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_space: pass, or the first violated axiom with
    witness. Every verdict is exact, so to_dict says "mode": "full"."""

    ok: bool
    kind: str | None = None
    witness: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "kind": self.kind,
            "witness": list(self.witness) if self.witness is not None else None,
            "mode": "full",
        }


@dataclass(slots=True, eq=False)
class _CenterBlock:
    """Distance-sorted prefix machinery for the ball centers [c0, c0 + b).

    order        b x n: point ids sorted by (distance to the center, id)
    point_prefix b x n: for each point y, the smallest k with y in prefix k;
                 the maximal sweep subtracts it from a flat table index
    ends         per ball: flat index into the b x n tables of its last point
    values       per ball: its distinct distance (0.0 first for each center);
                 None in a view on some columns (see columns)
    mu_prefix    per ball: its mu-mass
    starts       each center's first ball in the per-ball arrays, then their size

    order, point_prefix and ends are kept in two bytes (PREFIX_DTYPE): ids
    and prefix numbers lie below n <= DENSE_CAP, flat indices below b * n <=
    CANONICAL_BLOCK_CELLS.

    build takes the block's rows from one dist_rows call and sorts them with
    numpy's default argsort, which leaves ties in any order; one sort of the
    int32 key (run of equal distances, id) then restores id order within
    each run. Every table equals that of a stable argsort of each dist_row.

    Balls run center after center, in prefix order, and every method gives
    one value per ball. center(i) is the i-th center alone in this layout,
    with 1-d order and point_prefix, so that its ends index one row.
    """

    c0: int
    order: np.ndarray
    point_prefix: np.ndarray
    ends: np.ndarray
    values: np.ndarray | None
    mu_prefix: np.ndarray
    starts: np.ndarray

    @classmethod
    def build(cls, space: "MetricMeasureSpace", c0: int, c1: int) -> "_CenterBlock":
        rows = space.dist_rows(c0, c1)
        n = rows.shape[1]
        # numpy's default argsort (a SIMD quicksort where the CPU has one)
        # leaves ties in any order; on a 2-D grid's rows it is about 3x
        # faster than the stable sort.
        order = np.argsort(rows, axis=1)
        sorted_d = np.take_along_axis(rows, order, axis=1)
        change = np.ones(rows.shape, dtype=bool)
        np.not_equal(sorted_d[:, 1:], sorted_d[:, :-1], out=change[:, :-1])
        ends = np.flatnonzero(change)
        # The prefix of the point at each sorted position counts the
        # distance changes before it; scatter it back to the point ids.
        prefix = np.zeros(rows.shape, dtype=PREFIX_DTYPE)
        np.cumsum(change[:, :-1], axis=1, out=prefix[:, 1:])
        # Ties only permute inside a run of equal distances, so one sort of
        # the unique key (run, id) puts each run in id order. NaN != NaN makes
        # every NaN a ball of its own, but the NaNs, sorted last, are one run.
        run = prefix
        if np.isnan(sorted_d[:, -1]).any():
            run = np.zeros(rows.shape, dtype=PREFIX_DTYPE)
            nans = np.isnan(sorted_d)
            np.cumsum(change[:, :-1] & ~(nans[:, 1:] & nans[:, :-1]), axis=1, out=run[:, 1:])
        bits = (n - 1).bit_length()
        key = run.astype(np.int32)
        key <<= bits
        key |= order
        key.sort(axis=1)
        key &= (1 << bits) - 1
        order = key.astype(PREFIX_DTYPE)
        point_prefix = np.empty(rows.shape, dtype=PREFIX_DTYPE)
        np.put_along_axis(point_prefix, order, prefix, axis=1)
        mu_prefix = _prefix_sums(space.mu, order, ends)
        starts = np.concatenate(([0], np.cumsum(change.sum(axis=1))))
        # A ball's distance is that of its last point. Equal distances have
        # equal bits, but for a tie of 0.0 and -0.0 and for NaN payloads: read
        # those off the last point in id order.
        values = sorted_d.ravel()[ends]
        odd = np.flatnonzero((values == 0) | np.isnan(values))
        last = ends[odd]
        values[odd] = rows.ravel()[last - last % n + order.ravel()[last]]
        return cls(c0, order, point_prefix, ends.astype(PREFIX_DTYPE), values, mu_prefix, starts)

    def columns(self, ids: np.ndarray, mask: np.ndarray) -> "_CenterBlock":
        """This block on the columns ids (mask their indicator); see
        CanonicalBallSet.columns."""
        b, m = self.order.shape[0], ids.size
        order = np.compress(mask.take(self.order).ravel(), self.order).reshape(b, m)
        # the ball of each id's distance group, numbered across the block
        # (below b * n, so in PREFIX_DTYPE)
        ball = self.point_prefix.take(ids, axis=1)
        ball += self.starts[:-1, None].astype(PREFIX_DTYPE)
        held = np.bincount(ball.ravel(), minlength=self.mu_prefix.size)
        kept = np.flatnonzero(held > 0)
        starts = np.searchsorted(kept, self.starts)
        number = np.empty(held.size, dtype=PREFIX_DTYPE)
        number[kept] = np.arange(kept.size, dtype=PREFIX_DTYPE)
        point_prefix = number.take(ball)
        point_prefix -= starts[:-1, None].astype(PREFIX_DTYPE)
        # Every row holds all m ids, so the running count of ids is the flat
        # index, into the b x m tables, of each kept ball's last id.
        ends = np.cumsum(held, out=held).take(kept) - 1
        return _CenterBlock(
            self.c0, order, point_prefix, ends.astype(PREFIX_DTYPE), None,
            self.mu_prefix.take(kept), starts,
        )

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

    def prefix_sums(self, point_values: np.ndarray) -> np.ndarray:
        """Sum of point_values over each prefix (accumulated in canonical order)."""
        return _prefix_sums(point_values, self.order, self.ends)

    def prefix_mins(self, point_values: np.ndarray) -> np.ndarray:
        """Running minimum of point_values over each prefix."""
        running = np.minimum.accumulate(np.take(point_values, self.order), axis=-1)
        return np.take(running, self.ends)


class CanonicalBallSet:
    """The canonical ball enumeration of a space in blocks of centers (see
    CANONICAL_BLOCK_CELLS), built whole; it holds no reference to its space."""

    def __init__(self, space: "MetricMeasureSpace") -> None:
        if space.n > DENSE_CAP:
            raise SizeOverflow(
                f"canonical ball structures need n <= {DENSE_CAP}, got {space.n}"
            )
        self._rows = max(1, CANONICAL_BLOCK_CELLS // space.n)
        self.ensure_all(space)

    def ensure_all(self, space: "MetricMeasureSpace") -> None:
        """Build every block of space's cache; all are set when it returns."""
        self._blocks = [
            _CenterBlock.build(space, c0, min(c0 + self._rows, space.n))
            for c0 in range(0, space.n, self._rows)
        ]

    def columns(self, ids: np.ndarray) -> "CanonicalBallSet":
        """The view of this cache on the columns ids (sorted point ids), for
        the maximal function of an f that is 0 off ids, read only at ids.

        No distance is computed. Per block the view keeps ids' points in
        canonical order (order holds their point ids, point_prefix has one
        column per id) and only the balls whose last distance group holds one
        of them, each with its full mu_prefix; it has no values. A dropped
        ball holds the ids of the ball before it and no more, at no less mass,
        so its average of such an f is no larger and it raises the maximum at
        no id. So the maximal sweep (maximal._sweep) over the view gives
        maximal_fn's values at ids bit for bit, from about len(ids) / n of
        the cells: a kept ball's sum leaves out only the +0.0 terms off ids.
        (That holds while no ball's sum and mass both overflow: inf / inf is
        NaN.) All of X is the cache itself. The view supports that sweep and
        nothing else.
        """
        n = self._blocks[0].order.shape[1]
        if ids.size == n:
            return self
        mask = np.zeros(n, dtype=bool)
        mask[ids] = True
        view = copy.copy(self)
        view._blocks = [block.columns(ids, mask) for block in self]
        return view

    def center(self, c: int) -> _CenterBlock:
        return self._blocks[c // self._rows].center(c % self._rows)

    def __iter__(self) -> Iterator[_CenterBlock]:
        """The blocks, in center order."""
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
        return self.sups(lambda block: values(block)[None], 1, domain_mask)[0]

    def sups(
        self,
        values: Callable[[_CenterBlock], np.ndarray],
        count: int,
        domain_mask: np.ndarray | None = None,
    ) -> list[tuple[float, tuple[int, int]]]:
        """sup of count ball functionals in one pass over the blocks: values(block)
        gives count rows, one per functional, and each row gets sup's answer."""
        outside = None if domain_mask is None else (~domain_mask).astype(float)
        found = [(-np.inf, (-1, -1))] * count
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
            maxima = np.maximum.reduceat(vals, starts[:-1], axis=1)
            maxima[np.isnan(maxima)] = -np.inf
            for r, i in enumerate(np.argmax(maxima, axis=1).tolist()):
                if maxima[r, i] > found[r][0]:
                    k = int(np.argmax(vals[r, starts[i]:starts[i + 1]]))
                    found[r] = float(vals[r, starts[i] + k]), (block.c0 + i, k)
        return found


class MetricMeasureSpace:
    """Finite metric measure space with optional geodesic-surrogate edge graph.

    Parameters
    ----------
    mu : positive mass per point, length n.
    dist : full n x n matrix, or None for coordinate-backed spaces.
    coords : lattice coordinates (n x dim, dim >= 1) for Euclidean row
        computation, or None; exactly one of dist and coords is given.
    edges : optional (u, v, length) triples, or an (m, 3) array of them;
        lengths are finite and must dominate distances. Kept as three
        read-only arrays.
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
        if (dist is None) == (coords is None):
            raise ValueError("need exactly one of a distance matrix and coordinates")
        self._dist = None
        self._coords = None
        if dist is not None:
            dist = np.asarray(dist, dtype=float)
            if dist.shape != (self.n, self.n):
                raise ValueError("distance matrix shape does not match mu")
            self._dist = dist
        if coords is not None:
            coords = np.asarray(coords, dtype=float)
            if coords.ndim != 2 or coords.shape[0] != self.n or coords.shape[1] == 0:
                raise ValueError("coords must be one row of at least one coordinate per point")
            self._coords = coords
        self._edges = None
        if edges is not None and len(edges):
            triples = np.asarray(edges, dtype=float)
            if triples.ndim != 2 or triples.shape[1] != 3:
                raise ValueError("edges must be (u, v, length) triples")
            ends = point_ids(triples[:, :2].T, self.n, "edge endpoints")
            if not np.isfinite(triples[:, 2]).all():
                raise InvalidParameter("edge lengths must be finite")
            self._edges = (ends[0], ends[1], triples[:, 2].copy())
            for column in self._edges:
                column.flags.writeable = False
        self.meta = meta

    # -- distances -----------------------------------------------------------

    def dist_row(self, i: int) -> np.ndarray:
        return self.dist_rows(i, i + 1)[0]

    def dist_rows(self, i0: int, i1: int) -> np.ndarray:
        """The rows dist_row(i) for i in [i0, i1), as one (i1 - i0) x n array."""
        if self._dist is not None:
            return self._dist[i0:i1]
        return _distances(self._coords, self._coords[i0:i1, None])

    def pair_dists(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """d(us[k], vs[k]) for each k, by the formula of dist_row; us may be one id."""
        if self._dist is not None:
            return self._dist[us, vs]
        return _distances(self._coords[vs], self._coords[us])

    def nearest_distances(self, ids: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """min over t in targets of d(x, t) for each x in ids, by the formula of dist_row.

        On coordinates a KD-tree on the targets proposes the targets within
        (1 + 1e-9) times a point's nearest tree distance (only the nearest,
        unless the second is that close too); the formula decides.
        """
        if self._dist is not None:
            return self._dist[np.ix_(ids, targets)].min(axis=1)
        from scipy.spatial import cKDTree

        points = self._coords[ids]
        tree = cKDTree(self._coords[targets])
        near, first = tree.query(points, k=2)
        out = _distances(self._coords[targets[first[:, 0]]], points)
        tied = np.flatnonzero(near[:, 1] <= near[:, 0] * (1 + 1e-9))
        cands, sizes = _flat(tree.query_ball_point(points[tied], near[tied, 0] * (1 + 1e-9)))
        dists = _distances(self._coords[targets[cands]], np.repeat(points[tied], sizes, axis=0))
        out[tied] = np.minimum.reduceat(dists, np.cumsum(sizes) - sizes)
        return out

    def dist(self, i: int, j: int) -> float:
        """d(i, j), by the formula of dist_row."""
        return float(self.pair_dists(np.array([i]), np.array([j]))[0])

    def dist_matrix(self) -> np.ndarray:
        """The full matrix, guarded by DENSE_CAP. A coordinate space builds a new
        one on each call and does not keep it, so it stays on coordinates."""
        if self._dist is not None:
            return self._dist
        if self.n > DENSE_CAP:
            raise SizeOverflow(f"refusing to materialize a {self.n}x{self.n} distance matrix")
        return self.dist_rows(0, self.n)

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

    @cached_property
    def _resolution(self) -> tuple[float, bool]:
        """(min_positive_distance(), whether a point repeats)."""
        if self._dist is not None:
            d = self._dist
            m = d[d > 0].min(initial=np.inf)
            # The diagonal holds n entries <= 0 exactly when it is all zero.
            repeats = bool(np.diagonal(d).any()) or np.count_nonzero(d <= 0) != self.n
        else:
            from scipy.spatial import cKDTree

            points, tree = self._coords, self._tree
            near = tree.query(points, k=2)[0][:, 1]
            repeats = not near.all()
            if repeats:  # copies add no distance
                points = np.unique(points, axis=0)
                tree = cKDTree(points)
                near = tree.query(points, k=2)[0][:, 1]
            pairs = tree.query_pairs(near.min() * (1 + 1e-9), output_type="ndarray")
            d = _distances(points[pairs[:, 1]], points[pairs[:, 0]])
            m = d[d > 0].min(initial=np.inf)
        return (float(m) if np.isfinite(m) else 0.0), repeats

    def min_positive_distance(self) -> float:
        """Resolution h: the smallest positive pairwise distance by the
        formula of dist_row, or 0.0. On coordinates the nearest tree distance
        of the distinct points bounds h, the pairs within (1 + 1e-9) times
        that bound are the candidates, and the formula decides.

        The same pass records whether a point repeats: on coordinates, a zero
        distance to the second-nearest point; on a matrix, any entry <= 0
        off the diagonal or any nonzero one on it.
        """
        return self._resolution[0]

    def singleton_radius(self) -> float:
        """The largest r for which every strict ball B(x, r) is exactly {x}.

        That is the resolution h when no point repeats: every other point
        lies at distance >= h, and x at distance 0. With a repeated point
        it is 0.0, and no ball is known to be a singleton.
        """
        h, repeats = self._resolution
        return 0.0 if repeats else h

    # -- balls -----------------------------------------------------------------

    @cached_property
    def _tree(self):
        from scipy.spatial import cKDTree

        return cKDTree(self._coords)

    def ball_members(self, center: int, radius: float) -> np.ndarray:
        """Ids y with d(center, y) < radius (strict), in (distance, id) order."""
        return self.balls_members([center], [radius])[0]

    def balls_members(self, centers, radii) -> tuple[np.ndarray, np.ndarray]:
        """Every ball B(centers[k], radii[k]) as (members, offsets): ball k is the
        strict ball members[offsets[k]:offsets[k + 1]] in (distance, id) order. A
        ball of radius <= singleton_radius() is {center}, placed without a distance;
        the others go to _block_members BALL_QUERY_BLOCK at a time."""
        centers = np.asarray(centers)
        radii = np.asarray(radii, dtype=float)
        if centers.shape != radii.shape or centers.ndim != 1:
            raise ValueError("centers and radii must be 1-d arrays of one length")
        if not (radii > 0).all():
            raise ValueError("ball radius must be positive")
        centers = point_ids(centers, self.n, "ball centers")
        alone = radii <= self.singleton_radius()
        wide = np.flatnonzero(~alone)
        sizes = np.ones(centers.size, dtype=np.intp)
        blocks = [np.empty(0, dtype=np.intp)]
        for start in range(0, wide.size, BALL_QUERY_BLOCK):
            block = wide[start:start + BALL_QUERY_BLOCK]
            kept, sizes[block] = self._block_members(centers[block], radii[block])
            blocks.append(kept)
        offsets = np.zeros(centers.size + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        single = np.zeros(offsets[-1], dtype=bool)
        single[offsets[:-1][alone]] = True
        members = np.empty(offsets[-1], dtype=np.intp)
        members[single] = centers[alone]
        members[~single] = np.concatenate(blocks)
        return members, offsets

    def ball_sums(self, values, members, offsets) -> np.ndarray:
        """values summed over each ball of a (members, offsets) family, each in
        (distance, id) order as balls_members gives it. The one rule of every ball
        integral: a ball adds its members one at a time in that order, as the
        canonical prefix sums do, so its mu sum is its mu_prefix bit for bit. The
        balls are summed in padded blocks of at most BALL_QUERY_BLOCK balls and,
        unless one ball is wider, CANONICAL_BLOCK_CELLS entries, as the cache's."""
        values = np.asarray(values, dtype=float)
        sizes = np.diff(offsets)
        out = np.empty(sizes.size)
        start = 0
        while start < sizes.size:
            widest = int(sizes[start:start + BALL_QUERY_BLOCK].max())
            block = slice(start, start + min(BALL_QUERY_BLOCK, max(1, CANONICAL_BLOCK_CELLS // widest)))
            counts, first = sizes[block], offsets[:-1][block, None]
            # A row pads with its ball's last member, past the column read.
            order = members[np.minimum(first + np.arange(int(counts.max())), first + counts[:, None] - 1)]
            out[block] = _prefix_sums(values, order, np.arange(counts.size) * order.shape[1] + counts - 1)
            start += counts.size
        return out

    def _block_members(self, centers: np.ndarray, radii: np.ndarray):
        """One block of balls as (members laid end to end, each ball's size): matrix
        rows, or one tree query for candidates within radius * (1 + 1e-9) that the
        formula of dist_row decides, so the backends agree exactly. A ball's order
        is that of one unique integer key per member, (ball, rank of its distance
        in the block, id), so no sort needs to keep ties in id order."""
        if self._dist is not None:
            rows = self._dist[centers]
            ball, ids = np.nonzero(rows < radii[:, None])
            dist = rows[ball, ids]
        else:
            cands, sizes = _flat(self._tree.query_ball_point(
                self._coords[centers], radii * (1 + 1e-9), return_sorted=False
            ))
            dist = _distances(self._coords[cands], np.repeat(self._coords[centers], sizes, axis=0))
            keep = dist < np.repeat(radii, sizes)
            ball, ids, dist = np.repeat(np.arange(centers.size), sizes)[keep], cands[keep], dist[keep]
        if centers.size * dist.size * self.n >= 2**63:
            raise SizeOverflow("too many ball members in one block to order them")
        by_dist = np.argsort(dist)
        rank = np.zeros(dist.size, dtype=np.intp)
        rank[by_dist[1:]] = np.cumsum(dist[by_dist[1:]] != dist[by_dist[:-1]])
        keys = np.sort((ball * dist.size + rank) * self.n + ids)
        return keys % self.n, np.bincount(ball, minlength=centers.size)

    @cached_property
    def canonical(self) -> CanonicalBallSet:
        return CanonicalBallSet(self)

    @cached_property
    def edge_graph(self):
        """Symmetric sparse adjacency of the edge graph, weighted by edge length."""
        us, vs, lengths = self._edges if self._edges is not None else ((), (), ())
        return _symmetric_csr(self.n, us, vs, lengths)

    def __repr__(self) -> str:  # pragma: no cover
        kind = "dense" if self._dist is not None else "coords"
        return f"MetricMeasureSpace(n={self.n}, backend={kind}, meta={self.meta!r})"


def point_ids(ids, n: int | None, what: str) -> np.ndarray:
    """ids as an intp array, each a whole number in [0, n); else InvalidParameter.
    With n None, any whole numbers pass, returned as given."""
    ids = np.asarray(ids)
    whole = ids.dtype.kind in "iu" or (
        ids.dtype.kind == "f" and np.isfinite(ids).all() and not (ids % 1).any()
    )
    where = "" if n is None else f" in [0, {n})"
    if not whole or n is not None and ((ids < 0) | (ids >= n)).any():
        raise InvalidParameter(f"{what} must be point ids{where}")
    return ids if n is None else ids.astype(np.intp)


def coords_in_range(coords: np.ndarray) -> bool:
    """True when every coordinate is finite and at most sqrt(max float / dim) / 4
    in size; then no difference, square or sum of squares of _distances overflows."""
    bound = np.sqrt(np.finfo(float).max / coords.shape[1]) / 4
    return bool(np.isfinite(coords).all() and np.abs(coords).max(initial=0.0) <= bound)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| for arrays of points, over the last axis and broadcast over the
    others: the one distance formula of coordinate spaces. The squared
    differences are added one axis at a time, left to right, in place (a
    fresh array per operation makes a block's rows about 3x slower)."""
    total = np.subtract(a[..., 0], b[..., 0])
    np.square(total, out=total)
    for k in range(1, a.shape[-1]):
        step = np.subtract(a[..., k], b[..., k])
        total += np.square(step, out=step)
    return np.sqrt(total, out=total)


def _prefix_sums(values: np.ndarray, order: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """values gathered along the rows of the index block order and added one at
    a time from each row's first column, read at the flat positions ends."""
    return np.take(np.cumsum(np.take(values, order), axis=-1), ends)


def _flat(lists) -> tuple[np.ndarray, np.ndarray]:
    """KD-tree query lists as (their entries laid end to end, each list's size)."""
    sizes = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
    return np.fromiter(chain.from_iterable(lists), dtype=np.intp, count=int(sizes.sum())), sizes


def _symmetric_csr(n: int, us, vs, weights):
    """n x n sparse matrix with weights[i] at (us[i], vs[i]) and at (vs[i], us[i])."""
    from scipy.sparse import csr_matrix

    # scipy stores int32 indices where they fit; casting first spares a copy.
    index = np.int32 if n < 2**31 else np.intp
    rows = np.concatenate([us, vs]).astype(index)
    cols = np.concatenate([vs, us]).astype(index)
    weights = np.asarray(weights, dtype=float)
    return csr_matrix((np.concatenate([weights, weights]), (rows, cols)), shape=(n, n))


def canonical_balls(space: MetricMeasureSpace, center: int) -> list[tuple[float, np.ndarray]]:
    """The nested family of distinct balls around one center, smallest first.

    One (radius, member ids in (distance, id) order) pair per ball. The ball
    of distinct distance v is B(center, r) for every r in (v, v'], v' the
    next distinct distance; the radius given is the smallest float in it,
    nextafter(v, inf), because d < nextafter(v, inf) exactly when d <= v.
    balls_members(center, radius) gives exactly these members, in this order.
    """
    data = space.canonical.center(int(point_ids(center, space.n, "ball centers")))
    return [
        (float(r), data.order[:count].astype(np.intp))
        for r, count in zip(np.nextafter(data.values, np.inf), data.counts)
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
    """True when no triple can fail _validate_triangle_dense; False proves nothing.

    Floyd-Warshall starts from C = D and at step y lowers C(x, z) to
    fl(C(x, y) + C(y, z)) when smaller; by monotone rounding, at the end C(x,
    z) <= t = fl(D(x, y) + D(y, z)) for every y. The exact loop flags D(x, z)
    > fl(t + fl(REL_TOL * max(D(x, z), t))), never below fl(t * (1 +
    REL_TOL/2)), subnormal t too (REL_TOL * t loses at most 2^-1075, and
    below 2^-1034 that product rounds back to t). So D <= fl(C * (1 +
    REL_TOL/2)) leaves no triple to flag. C starts from D only if scipy sees
    every entry: a plain dense entry within 1e-8 of 0 is a missing edge to
    it, which makes C larger; a masked array with nothing masked keeps all.
    A zero is still a missing edge, so the pair axioms must pass first (no zero
    off the diagonal, no negative edge, and no NaN or inf by then).
    """
    from scipy.sparse.csgraph import floyd_warshall

    closure = floyd_warshall(np.ma.masked_array(dist, mask=False), directed=True)
    closure *= 1.0 + REL_TOL / 2
    return bool(np.all(dist <= closure))


def validate_space(space: MetricMeasureSpace) -> ValidationReport:
    """Check the metric measure axioms; report the first violation found.

    Scan order: masses by id; pair axioms in lexicographic order (negativity,
    self-distance, symmetry, distinct points at distance 0, non-finite);
    with an edge graph, the first edge shorter than its distance, then
    connectivity; the triangle inequality last, its witness the first bad
    (x, y, z) in (y, x, z) order. Every verdict is exact, by one of two rules.

    Coordinates that pass coords_in_range, with dim <= ROUNDING_DIM and
    min_positive_distance() >= ROUNDING_FLOOR = 2^-480, are decided in
    O(n log n). Proof, for d = |a - b| exact, d^ = _distances(a, b) and u =
    2^-53:
    - d^ is exactly symmetric (fl(a_i - b_i) = -fl(b_i - a_i)), exactly 0 for
      a = b, and finite, as nothing overflows. So only distinct points at
      d^ = 0 can fail a pair axiom: those whose squares are all 0, in any
      summation order, which the KD-tree's query_pairs(0.0) finds.
    - Squares summing below 2^-962 (d < 2^-481) in _distances sum below
      that in the tree too, so its nearest distance is below 2^-481 (1 +
      2^-40) and each candidate of min_positive_distance() below 2^-480
      (with none, it reads 0.0). Past the floor every distinct pair has d^2
      >= 2^-962, 2^60 times the smallest normal 2^-1022.
    - Each difference rounds by a factor 1 + e, |e| <= u, each square by one
      or by at most 2^-1075 if subnormal, a sum of dim nonnegative terms in
      any order (left to right here) by gamma_(dim-1) (Higham, Accuracy and
      Stability of Numerical Algorithms, ch. 3). So the sum is d^2 (1 + s), |s| <= gamma_(dim+2) + dim 2^-112,
      and |d^ - d| <= (dim/2 + 2) u d (1 + O(dim u)) <= e d, e = (dim + 4) u.
    - Then d^(x, z) <= t (1 + e)/((1 - e)(1 - u)) for the normal t =
      fl(d^(x, y) + d^(y, z)), and the exact loop flags only d^(x, z) > t (1
      + REL_TOL (1 - u))(1 - u). As (2 dim + 11) u <= 8203 u < REL_TOL, no
      triple is flagged: the triangle inequality holds unchecked.

    Any other space (a matrix, or coordinates that miss a premise) is checked
    on dist_matrix(), SizeOverflow beyond DENSE_CAP: the pair axioms entry by
    entry, then _closure_certifies, and the exact loop only if it fails.
    """
    bad_mass = np.flatnonzero(space.mu <= 0)
    if bad_mass.size:
        return ValidationReport(False, "NonpositiveMass", (int(bad_mass[0]),))

    proved = (space.coords is not None and space.coords.shape[1] <= ROUNDING_DIM
              and coords_in_range(space.coords))
    if proved:
        pairs = space._tree.query_pairs(0.0, output_type="ndarray")
        if pairs.size:
            return ValidationReport(False, "ZeroDistanceDistinct", tuple(min(pairs.tolist())))
        proved = space.min_positive_distance() >= ROUNDING_FLOOR
    if not proved:
        dist = space.dist_matrix()
        # In scan order; each mask is built only when every axiom before it holds.
        pair_axioms = (
            ("NegativeDistance", lambda: dist < 0),
            ("NonzeroSelfDistance", lambda: (dist != 0) & np.eye(space.n, dtype=bool)),
            ("AsymmetricDistance", lambda: dist != dist.T),
            ("ZeroDistanceDistinct", lambda: (dist == 0) & ~np.eye(space.n, dtype=bool)),
            ("NonfiniteDistance", lambda: ~np.isfinite(dist)),
        )
        for kind, violated in pair_axioms:
            bad = np.argwhere(violated())
            if bad.size:
                return ValidationReport(False, kind, tuple(map(int, bad[0])))

    edges = space.edge_arrays()
    if edges is not None:
        us, vs, lengths = edges
        short = np.flatnonzero(
            lengths + REL_TOL * np.maximum(lengths, 1.0) < space.pair_dists(us, vs)
        )
        if short.size:
            k = short[0]
            return ValidationReport(False, "EdgeTooShort", (int(us[k]), int(vs[k])))
        from scipy.sparse.csgraph import connected_components

        if connected_components(space.edge_graph, directed=False)[0] != 1:
            return ValidationReport(False, "GraphDisconnected")

    if not (proved or _closure_certifies(dist)):
        witness = _validate_triangle_dense(dist)
        if witness is not None:
            return ValidationReport(False, "TriangleViolation", witness)
    return ValidationReport(True)


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
    with np.errstate(over="ignore", under="ignore"):
        mass = float(np.float64(spacing) ** dim)
    if not (0 < mass < np.inf and coords_in_range(coords)):
        raise InvalidParameter("spacing must give positive finite masses and coordinates in range")
    mu = np.full(n, mass)

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
