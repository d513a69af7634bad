"""Finite metric measure spaces and their canonical ball structure.

A space is a finite point set {0, .., n-1} with a metric and a strictly
positive point mass mu. Balls use strict inequality, B(x, r) = {y : d(x,y) < r},
so for each center the family of distinct balls is a nested chain of prefixes
of the distance-sorted point list. Everything downstream (maximal operators,
characteristics, covers) enumerates balls through that chain.

Two storage backends with identical semantics:

* dense: the full n x n distance matrix, capped at ``DENSE_CAP`` points;
* coords: lattice coordinates with exact Euclidean distances computed on
  demand, used by ``build_grid_space`` so that large grids stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AsymmetricDistance,
    EdgeTooShort,
    GraphDisconnected,
    NegativeDistance,
    NonpositiveMass,
    SizeOverflow,
    TriangleViolation,
    ZeroDistanceDistinct,
)

# Dense structures (distance matrix, cached ball prefixes) refuse to build
# beyond this many points; coordinate-backed row queries have no such limit.
DENSE_CAP = 2048

# Hard cap for build_grid_space, protecting against runaway side**dim.
GRID_POINT_CAP = 4_000_000

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


class _CenterData:
    """Distance-sorted prefix machinery for one ball center.

    order        point ids sorted by (distance to center, id)
    sorted_d     distances in that order
    ends         index of the last point of each distinct-distance prefix
    counts       prefix sizes, counts[k] = ends[k] + 1
    values       the distinct distances (values[0] == 0.0)
    reps         representative radius of each prefix: midpoint to the next
                 distinct distance, last one is max distance + 1
    mu_prefix    mu-mass of each prefix
    point_prefix for each point y, the smallest k with y in prefix k
    """

    __slots__ = (
        "center", "order", "sorted_d", "ends", "counts",
        "values", "reps", "mu_prefix", "point_prefix",
    )

    def __init__(self, space: "MetricMeasureSpace", center: int) -> None:
        drow = space.dist_row(center)
        order = np.argsort(drow, kind="stable")
        sorted_d = drow[order]
        n = drow.shape[0]
        change = np.empty(n, dtype=bool)
        change[-1] = True
        if n > 1:
            change[:-1] = sorted_d[1:] != sorted_d[:-1]
        ends = np.flatnonzero(change)
        values = sorted_d[ends]
        reps = np.empty_like(values)
        if values.shape[0] > 1:
            reps[:-1] = 0.5 * (values[:-1] + values[1:])
        reps[-1] = values[-1] + 1.0
        self.center = center
        self.order = order
        self.sorted_d = sorted_d
        self.ends = ends
        self.counts = ends + 1
        self.values = values
        self.reps = reps
        self.mu_prefix = np.cumsum(space.mu[order])[ends]
        self.point_prefix = np.searchsorted(values, drow)

    def prefix_sums(self, point_values: np.ndarray) -> np.ndarray:
        """Sum of point_values over each prefix (accumulated in canonical order)."""
        return np.cumsum(point_values[self.order])[self.ends]

    def prefix_mins(self, point_values: np.ndarray) -> np.ndarray:
        """Running minimum of point_values over each prefix."""
        return np.minimum.accumulate(point_values[self.order])[self.ends]


class CanonicalBallSet:
    """Lazy per-center cache of the canonical ball enumeration of a space."""

    def __init__(self, space: "MetricMeasureSpace") -> None:
        if space.n > DENSE_CAP:
            raise SizeOverflow(
                f"canonical ball structures need n <= {DENSE_CAP}, got {space.n}"
            )
        self._space = space
        self._centers: dict[int, _CenterData] = {}

    def center(self, c: int) -> _CenterData:
        data = self._centers.get(c)
        if data is None:
            data = _CenterData(self._space, c)
            self._centers[c] = data
        return data

    def ensure_all(self) -> None:
        for c in range(self._space.n):
            self.center(c)

    def ball_count(self) -> int:
        """Total number of canonical (center, prefix) pairs."""
        self.ensure_all()
        return sum(int(d.counts.shape[0]) for d in self._centers.values())

    def sup(
        self,
        values: Callable[[_CenterData], np.ndarray],
        domain_mask: np.ndarray | None = None,
    ) -> tuple[float, tuple[int, int]]:
        """Supremum of a ball functional over the canonical balls, with its witness.

        values(data) gives one value per ball of a center, in prefix order
        (doubling_constant, which needs no domain mask, passes one per
        radius interval instead); -inf marks a ball out of scope. With a
        domain mask only centers in D and balls with no point outside D
        take part. Centers are visited in id order
        and the first maximum wins. Returns (value, (center, prefix)), or
        (-inf, (-1, -1)) when no ball is in scope.
        """
        self.ensure_all()
        if domain_mask is None:
            centers = range(self._space.n)
        else:
            centers = np.flatnonzero(domain_mask).tolist()
            outside = (~domain_mask).astype(float)
        best = -np.inf
        witness = (-1, -1)
        for c in centers:
            data = self._centers[c]
            vals = values(data)
            if domain_mask is not None:
                vals = np.where(data.prefix_sums(outside) == 0, vals, -np.inf)
            k = int(np.argmax(vals))
            if vals[k] > best:
                best, witness = float(vals[k]), (c, k)
        return best, witness


class CenterBalls:
    """Public view of one center's canonical balls (for inspection and tests)."""

    def __init__(self, space: "MetricMeasureSpace", center: int) -> None:
        self._space = space
        self._data = space.canonical.center(center)
        self.center = center

    @property
    def representative_radii(self) -> np.ndarray:
        return self._data.reps.copy()

    @property
    def distinct_distances(self) -> np.ndarray:
        return self._data.values.copy()

    def prefix_members(self, k: int) -> np.ndarray:
        """Sorted point ids of the k-th distinct ball around this center."""
        return np.sort(self._data.order[: self._data.counts[k]])

    def prefix_sets(self) -> list[frozenset[int]]:
        return [
            frozenset(int(i) for i in self.prefix_members(k))
            for k in range(self._data.counts.shape[0])
        ]

    def __len__(self) -> int:
        return int(self._data.counts.shape[0])


class MetricMeasureSpace:
    """Finite metric measure space with optional geodesic-surrogate edge graph.

    Parameters
    ----------
    mu : positive mass per point, length n.
    dist : full n x n matrix, or None for coordinate-backed spaces.
    coords : lattice coordinates (n x dim) for Euclidean row computation.
    edges : optional (u, v, length) triples; lengths must dominate distances.
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
        self.edges = [(int(u), int(v), float(ln)) for u, v, ln in edges] if edges else None
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

    def dist(self, i: int, j: int) -> float:
        if self._dist is not None:
            return float(self._dist[i, j])
        return float(np.linalg.norm(self._coords[j] - self._coords[i]))

    def dist_matrix(self) -> np.ndarray:
        """Materialize the full matrix; guarded by the dense size cap."""
        if self._dist is None:
            if self.n > DENSE_CAP:
                raise SizeOverflow(
                    f"refusing to materialize a {self.n}x{self.n} distance matrix"
                )
            self._dist = np.vstack([self.dist_row(i) for i in range(self.n)])
        return self._dist

    @property
    def coords(self) -> np.ndarray | None:
        return self._coords

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
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        if self._dist is not None:
            return np.flatnonzero(self._dist[center] < radius)
        # KD-tree only generates candidates; membership is decided by the
        # same distance formula as dist_row, so backends agree exactly.
        cands = np.asarray(
            self._tree().query_ball_point(self._coords[center], radius * (1 + 1e-9)),
            dtype=np.intp,
        )
        if cands.size == 0:
            return np.array([center], dtype=np.intp)
        keep = self.dists_from(center, cands) < radius
        return np.sort(cands[keep])

    @property
    def canonical(self) -> CanonicalBallSet:
        if self._canonical is None:
            self._canonical = CanonicalBallSet(self)
        return self._canonical

    def edge_graph(self):
        """Symmetric sparse adjacency of the edge graph, weighted by edge length (cached)."""
        if self._edge_graph is None:
            us, vs, lengths = zip(*self.edges) if self.edges else ((), (), ())
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


def canonical_balls(space: MetricMeasureSpace, center: int) -> CenterBalls:
    """The nested family of distinct balls around one center."""
    if not 0 <= center < space.n:
        raise ValueError("center out of range")
    return CenterBalls(space, center)


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


def validate_space(
    space: MetricMeasureSpace,
    sample_triples: int = 20000,
    seed: int = 0,
) -> ValidationReport:
    """Check the metric measure axioms; report the first violation found.

    Scan order: masses by point id; pair axioms in lexicographic order
    (negativity, self-distance, symmetry, distinct points at distance zero);
    edge invariants when an edge graph is declared; the triangle inequality
    last. Dense spaces are checked over all triples. Coordinate-backed spaces
    satisfy the metric axioms by construction, so only a seeded sample of
    triples is re-verified and the report says mode="sampled".
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

    if space.edges:
        for u, v, ln in space.edges:
            if ln + REL_TOL * max(ln, 1.0) < space.dist(u, v):
                return ValidationReport(False, "EdgeTooShort", (u, v), mode)
        from scipy.sparse.csgraph import connected_components

        if connected_components(space.edge_graph(), directed=False)[0] != 1:
            return ValidationReport(False, "GraphDisconnected", None, mode)

    if dense:
        witness = _validate_triangle_dense(space.dist_matrix())
        if witness is not None:
            return ValidationReport(False, "TriangleViolation", witness)
        return ValidationReport(True)

    rng = np.random.default_rng(seed)
    xs = rng.integers(0, space.n, size=sample_triples)
    ys = rng.integers(0, space.n, size=sample_triples)
    zs = rng.integers(0, space.n, size=sample_triples)
    for x, y, z in zip(xs, ys, zs):
        dxz = space.dist(int(x), int(z))
        through = space.dist(int(x), int(y)) + space.dist(int(y), int(z))
        if dxz > through + REL_TOL * max(dxz, through):
            return ValidationReport(False, "TriangleViolation", (int(x), int(y), int(z)), mode)
    return ValidationReport(True, mode=mode)


# -- builders -------------------------------------------------------------------

def build_grid_space(
    dim: int,
    side: int,
    spacing: float,
    max_points: int = GRID_POINT_CAP,
) -> MetricMeasureSpace:
    """Regular lattice of side**dim points with Euclidean metric.

    Point id is the C-order index of the integer lattice coordinate (the last
    axis varies fastest). Each point carries mass spacing**dim, and the edge
    graph joins axis neighbours with length spacing.
    """
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    if side < 1:
        raise ValueError("side must be >= 1")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    n = side**dim
    if n > max_points:
        raise SizeOverflow(f"grid of {n} points exceeds cap {max_points}")

    axes = [np.arange(side)] * dim
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    coords = lattice.astype(float) * spacing
    mu = np.full(n, float(spacing) ** dim)

    edges: list[tuple[int, int, float]] = []
    strides = [side ** (dim - 1 - a) for a in range(dim)]
    for a in range(dim):
        stride = strides[a]
        keep = lattice[:, a] < side - 1
        for i in np.flatnonzero(keep):
            edges.append((int(i), int(i + stride), float(spacing)))

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

    The ratio is piecewise constant in r with breakpoints at the distinct
    distances v_k and their halves v_k / 2, so evaluating one representative
    radius inside each breakpoint interval (midpoints, plus one beyond the
    last breakpoint) realizes the exact supremum over all real radii.
    workers is accepted for compatibility and has no effect.
    """

    def ratios(data: _CenterData) -> np.ndarray:
        v = data.values[1:]
        if v.size == 0:
            return np.ones(1)
        b = np.union1d(v, v * 0.5)
        reps = np.concatenate((
            [b[0] * 0.5],
            0.5 * (b[:-1] + b[1:]),
            [b[-1] + 1.0],
        ))
        cnt_r = np.searchsorted(data.sorted_d, reps, side="left")
        cnt_2r = np.searchsorted(data.sorted_d, 2.0 * reps, side="left")
        return data.mu_prefix[
            np.searchsorted(data.ends, cnt_2r - 1)
        ] / data.mu_prefix[np.searchsorted(data.ends, cnt_r - 1)]

    value, _ = space.canonical.sup(ratios)
    return value
