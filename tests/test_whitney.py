import dataclasses

import numpy as np
import pytest
import scipy.spatial

import oracles
from metricweights import (
    Ball,
    MetricMeasureSpace,
    build_grid_space,
    chain_weight_ratio,
    check_cover_invariants,
    make_domain,
    qh_distance,
    qh_distances,
    shortest_chain_length,
    whitney_cover,
    witness_intersection_ball,
)
from metricweights.errors import (
    Disconnected,
    InclusionFail,
    InvalidParameter,
    NotProper,
    PreconditionFail,
    Unreachable,
)
from metricweights.space import BALL_QUERY_BLOCK, space_from_matrix
from metricweights.studies import interval_space, random_grid_domain, square_domain
from metricweights.whitney import _intersection_edges, chain_path


@pytest.fixture
def line_domain(line11):
    return make_domain(line11, np.arange(1, 10))


@pytest.fixture
def line_cover(line11, line_domain):
    return whitney_cover(line11, line_domain)


# -- domains -------------------------------------------------------------------------


def test_boundary_distance_is_distance_to_the_complement(line11, line_domain):
    want = np.minimum(np.arange(11), 10 - np.arange(11)).astype(float)
    np.testing.assert_array_equal(line_domain.boundary_dist[1:10], want[1:10])
    assert line_domain.resolution == 1.0


def test_domain_accepts_masks_and_ids(line11):
    mask = np.zeros(11, dtype=bool)
    mask[3:7] = True
    a = make_domain(line11, mask)
    b = make_domain(line11, np.arange(3, 7))
    np.testing.assert_array_equal(a.ids, b.ids)


def test_domain_must_be_proper(line11):
    with pytest.raises(NotProper):
        make_domain(line11, np.array([], dtype=np.intp))
    with pytest.raises(NotProper):
        make_domain(line11, [])
    with pytest.raises(NotProper):
        make_domain(line11, np.zeros(11, dtype=bool))
    with pytest.raises(NotProper):
        make_domain(line11, np.arange(11))


def test_domain_rejects_a_negative_id():
    line = build_grid_space(1, 8, 1.0)
    np.testing.assert_array_equal(make_domain(line, [1, 3]).ids, [1, 3])
    with pytest.raises(InvalidParameter):
        make_domain(line, [-1, 3])
    with pytest.raises(ValueError):
        make_domain(line, [3, 8])


def test_domain_rejects_a_fractional_id():
    line = build_grid_space(1, 8, 1.0)
    np.testing.assert_array_equal(make_domain(line, [2.0, 3.0]).ids, [2, 3])
    with pytest.raises(InvalidParameter):
        make_domain(line, [2.7, 3])


# -- cover construction ---------------------------------------------------------------


def test_line_cover_keeps_one_ball_per_point(line_cover):
    assert len(line_cover) == 9
    assert sorted(line_cover.centers) == list(range(1, 10))
    k = int(np.flatnonzero(line_cover.centers == 5)[0])
    assert line_cover.radii[k] == 1.25
    balls = np.split(line_cover.members, line_cover.offsets[1:-1])
    np.testing.assert_array_equal(balls[k], [5, 4, 6])  # in (distance, id) order
    assert line_cover.centers[0] == 5  # largest radius first


def test_line_cover_satisfies_every_invariant(line_cover):
    report = check_cover_invariants(line_cover)
    assert report["quarter_disjoint"]
    assert report["covers_domain"]
    assert report["doubles_inside"]
    assert report["sandwich_ok"]
    assert report["radius_ratio_ok"]
    assert report["n_balls"] == 9
    assert 2.0 <= report["sandwich_lo"] <= report["sandwich_hi"] <= 6.0


def test_single_point_domain_gets_a_quarter_radius_ball(line11):
    domain = make_domain(line11, np.array([5]))
    cover = whitney_cover(line11, domain)
    assert len(cover) == 1
    assert cover.radii[0] == 0.25
    np.testing.assert_array_equal(cover.members, [5])
    np.testing.assert_array_equal(cover.offsets, [0, 1])
    report = check_cover_invariants(cover)
    assert report["covers_domain"] and report["quarter_disjoint"]


def test_random_grid_domains_pass_all_invariants():
    for seed in range(8):
        space, domain = random_grid_domain(seed)
        cover = whitney_cover(space, domain)
        report = check_cover_invariants(cover)
        assert report["quarter_disjoint"], seed
        assert report["covers_domain"], seed
        assert report["doubles_inside"], seed
        assert report["sandwich_ok"], seed
        assert report["radius_ratio_ok"], seed
        assert report["overlap_n"] >= 1


def test_ball_averages_are_measure_weighted(line11, line_cover):
    values = np.arange(11, dtype=float)
    avgs = line_cover.ball_averages(values)
    k = int(np.flatnonzero(line_cover.centers == 5)[0])
    assert avgs[k] == pytest.approx(5.0, rel=1e-15)


# -- chains ----------------------------------------------------------------------------


def test_adjacent_balls_are_one_chain_step_apart(line_cover):
    i = int(np.flatnonzero(line_cover.centers == 4)[0])
    j = int(np.flatnonzero(line_cover.centers == 5)[0])
    assert shortest_chain_length(line_cover, i, j) == 1
    assert shortest_chain_length(line_cover, i, i) == 0
    assert chain_path(line_cover, i, j) == [i, j]


def test_disjoint_singleton_balls_are_unreachable(line_cover):
    i = int(np.flatnonzero(line_cover.centers == 1)[0])
    j = int(np.flatnonzero(line_cover.centers == 2)[0])
    with pytest.raises(Unreachable):
        shortest_chain_length(line_cover, i, j)


def test_ball_indices_out_of_range_are_rejected(line11, line_domain, line_cover):
    b = len(line_cover)
    w = np.ones(line_domain.ids.size)
    for i, j in [(0, b), (b, 0), (0, -1), (-1, 0)]:
        for call in (lambda: chain_path(line_cover, i, j),
                     lambda: shortest_chain_length(line_cover, i, j),
                     lambda: chain_weight_ratio(line11, line_domain, w, 2.0, line_cover, i, j)):
            with pytest.raises(ValueError, match="ball index out of range"):
                call()


def test_constant_weight_has_unit_chain_ratio(line11, line_domain, line_cover):
    w = np.ones(line_domain.ids.size)
    i = int(np.flatnonzero(line_cover.centers == 4)[0])
    j = int(np.flatnonzero(line_cover.centers == 6)[0])
    rep = chain_weight_ratio(line11, line_domain, w, 2.0, line_cover, i, j)
    assert rep.ratio == 1.0
    assert all(s == 1.0 for s in rep.step_ratios)
    assert rep.k_tilde == len(rep.step_ratios)
    same = chain_weight_ratio(line11, line_domain, w, 2.0, line_cover, i, i)
    assert same.ratio == 1.0
    assert same.k_tilde == 0
    assert same.qh_centers == 0.0


def test_chain_ratio_requires_aligned_weights(line11, line_domain, line_cover):
    with pytest.raises(ValueError):
        chain_weight_ratio(
            line11, line_domain, np.ones(3), 2.0, line_cover, 0, 1
        )


# -- quasihyperbolic distances -----------------------------------------------------------


def test_qh_distance_basics(line11, line_domain):
    assert qh_distance(line11, line_domain, 5, 5) == 0.0
    fwd = qh_distance(line11, line_domain, 2, 7)
    bwd = qh_distance(line11, line_domain, 7, 2)
    assert fwd == pytest.approx(bwd, rel=1e-12)
    assert fwd > 0


def test_qh_distance_matches_a_dense_oracle(line11, line_domain):
    delta = line_domain.boundary_dist
    edges = []
    for u, v, ln in line11.edges:
        if line_domain.mask[u] and line_domain.mask[v]:
            edges.append((u, v, ln * 2.0 / (delta[u] + delta[v])))
    dense = oracles.floyd_shortest_paths(line11.n, edges)
    got = qh_distances(line11, line_domain, line_domain.ids)
    for a, i in enumerate(line_domain.ids):
        for j in line_domain.ids:
            assert got[a, j] == pytest.approx(dense[i, j], rel=1e-12)


def test_qh_distance_rejects_points_off_the_domain(line11, line_domain):
    with pytest.raises(ValueError):
        qh_distance(line11, line_domain, 0, 5)


def test_qh_distance_detects_disconnection(line11):
    domain = make_domain(line11, np.array([1, 3]))
    with pytest.raises(Disconnected):
        qh_distance(line11, domain, 1, 3)


# -- witness balls -------------------------------------------------------------------


def test_concentric_witness_is_a_quarter_ball():
    space = interval_space(80, lo=0.0, hi=1.0)
    b = Ball(40, 0.3)
    rep = witness_intersection_ball(space, b, b, a=1.0)
    assert rep.case == 1
    assert rep.ball.center == 40
    assert rep.ball.radius == pytest.approx(0.075, rel=1e-15)
    assert rep.radius_ratio == pytest.approx(0.25, rel=1e-15)


def test_touching_balls_fail_the_precondition():
    space = interval_space(80, lo=0.0, hi=1.0)
    # centers 0.4 apart but the second radius is only 0.35
    with pytest.raises(PreconditionFail):
        witness_intersection_ball(space, Ball(40, 0.3), Ball(72, 0.35), a=1.0)


def test_witness_rejects_centers_outside_the_space():
    space = build_grid_space(2, 6, 1.0)
    for b, bp in [(Ball(-1, 3.0), Ball(28, 3.0)), (Ball(14, 2.0), Ball(40, 3.0))]:
        with pytest.raises(InvalidParameter, match="point ids"):
            witness_intersection_ball(space, b, bp, a=1.0)
    for center in (2.7, np.nan):
        with pytest.raises(InvalidParameter, match="point ids"):
            witness_intersection_ball(space, Ball(center, 3.0), Ball(28, 3.0), a=1.0)


def test_offset_witness_radius_is_an_eighth():
    space = interval_space(80, lo=0.0, hi=1.0)
    b, bp = Ball(40, 0.3), Ball(72, 0.45)
    rep = witness_intersection_ball(space, b, bp, a=1.0)
    assert rep.case == 2
    assert rep.ball.radius == pytest.approx(0.0375, rel=1e-12)
    assert rep.radius_ratio == pytest.approx(0.125, rel=1e-12)
    mem = rep.ball.members(space)
    assert mem.size > 0
    assert np.all(space.pair_dists(b.center, mem) < b.radius)
    assert np.all(space.pair_dists(bp.center, mem) < bp.radius)


def test_witness_parameter_validation():
    space = interval_space(80, lo=0.0, hi=1.0)
    b, bp = Ball(40, 0.3), Ball(72, 0.45)
    with pytest.raises(ValueError):
        witness_intersection_ball(space, b, bp, a=0.0)
    with pytest.raises(ValueError):
        witness_intersection_ball(space, b, bp, a=1.2)
    with pytest.raises(PreconditionFail):
        witness_intersection_ball(space, Ball(40, 0.6), bp, a=1.0)


# -- the cover against its naive oracle ----------------------------------------------


CORRUPTIONS = {
    "radius_x3": (lambda radii, i, j: 3.0 * radii[i], "doubles_inside"),  # the double leaves D
    "radius_div4": (lambda radii, i, j: radii[i] / 4.0, "sandwich_ok"),  # delta / r above 6 on the double
    "edge_ratio_4.5": (lambda radii, i, j: 4.5 * radii[j], "radius_ratio_ok"),
    # Above 4, but within the checker's slack: the flag must still hold.
    "edge_ratio_within_slack": (lambda radii, i, j: 4.0 * radii[j] * (1 + 1e-13), None),
}


@pytest.mark.parametrize("seed, corruption", [
    *[pytest.param(seed, name, id=f"{seed}-{name}")  # covers with intersecting balls
      for seed in (6, 9) for name in ("radius_x3", "radius_div4", "edge_ratio_4.5")],
    # On seed 6 the same radius puts another edge of ball i at a ratio of 5.
    pytest.param(9, "edge_ratio_within_slack", id="9-edge_ratio_within_slack"),
])
def test_check_cover_invariants_sees_a_corrupted_ball(seed, corruption):
    corrupt, broken = CORRUPTIONS[corruption]
    space, domain = random_grid_domain(seed)
    cover = whitney_cover(space, domain)
    i, j = cover.edges[0]
    radii = cover.radii.copy()
    radii[i] = corrupt(radii, i, j)
    bad = dataclasses.replace(cover, radii=radii)
    report = check_cover_invariants(bad)
    if broken is None:
        assert report["radius_ratio_ok"] and report["radius_ratio_max"] > 4.0
    else:
        assert not report[broken]
    members = np.split(bad.members, bad.offsets[1:-1])
    assert report == oracles.naive_cover_invariants(
        space, domain, bad.centers, radii, members, bad.edges
    )
    if broken == "sandwich_ok":  # through the upper bound 6r alone
        assert report["sandwich_lo"] >= 2.0


@pytest.mark.parametrize("seed", range(12))
def test_cover_matches_the_naive_oracle(seed):
    coords, domain = random_grid_domain(seed)
    dense = space_from_matrix(coords.dist_matrix(), coords.mu, coords.edges)
    for space, domain in [(coords, domain), (dense, make_domain(dense, domain.mask))]:
        centers, radii, members, edges, adjacency = oracles.naive_whitney_cover(space, domain)
        cover = whitney_cover(space, domain)
        np.testing.assert_array_equal(cover.centers, centers)
        np.testing.assert_array_equal(cover.radii, radii)
        got = np.split(cover.members, cover.offsets[1:-1])
        assert len(got) == len(members)
        for ball, want in zip(got, members):
            np.testing.assert_array_equal(ball, want)
        assert cover.edges.dtype == np.intp and cover.edges.shape == (len(edges), 2)
        np.testing.assert_array_equal(cover.edges, edges)
        adj = cover.adjacency
        rows = [np.flatnonzero(row) for row in adjacency]
        np.testing.assert_array_equal(adj.indptr, np.cumsum([0] + [r.size for r in rows]))
        np.testing.assert_array_equal(adj.indices, np.concatenate(rows))
        assert adj.data.dtype == float and (adj.data == 1.0).all()
        assert check_cover_invariants(cover) == oracles.naive_cover_invariants(
            space, domain, centers, radii, members, edges
        )
        delta = domain.boundary_dist
        want = np.zeros((space.n, space.n))
        for u, v, _ in space.edges:
            if domain.mask[u] and domain.mask[v]:
                want[u, v] = want[v, u] = space.dist(u, v) * 2.0 / (delta[u] + delta[v])
        np.testing.assert_array_equal(domain.qh_graph.toarray(), want)


@pytest.mark.parametrize("seed", range(6))
def test_boundary_and_resolution_are_the_matrix_minima_on_3d_clouds(seed):
    # KD-tree distances differ from the dist_row formula in the last bit in
    # 3-D; they may only propose candidates.
    rng = np.random.default_rng(seed)
    space = MetricMeasureSpace(mu=np.ones(400), coords=rng.uniform(size=(400, 3)))
    mask = np.zeros(space.n, dtype=bool)
    mask[rng.permutation(space.n)[:200]] = True
    dist = space.dist_matrix()
    domain = make_domain(space, mask)
    want = np.zeros(space.n)
    want[mask] = dist[np.ix_(mask, ~mask)].min(axis=1)
    np.testing.assert_array_equal(domain.boundary_dist, want)
    for n in (400, 200, 30):
        sub = MetricMeasureSpace(mu=np.ones(n), coords=space.coords[:n])
        assert sub.min_positive_distance() == dist[:n, :n][dist[:n, :n] > 0].min()


@pytest.mark.parametrize("spacing", [0.3, 1.0 / 7.0])
def test_boundary_is_the_matrix_minimum_where_nearest_points_tie(spacing):
    space = build_grid_space(3, 9, spacing)
    mask = np.random.default_rng(9).random(space.n) < 0.7
    dist = space.dist_matrix()
    domain = make_domain(space, mask)
    np.testing.assert_array_equal(domain.boundary_dist[mask], dist[np.ix_(mask, ~mask)].min(axis=1))
    assert domain.resolution == dist[dist > 0].min()


def test_resolution_ignores_repeated_points():
    coords = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0], [3.0, 4.0], [9.0, 4.0]])
    assert MetricMeasureSpace(mu=np.ones(5), coords=coords).min_positive_distance() == 5.0
    assert MetricMeasureSpace(mu=np.ones(2), coords=coords[:2]).min_positive_distance() == 0.0


def _grid_or_cloud(kind: str, backend: str) -> MetricMeasureSpace:
    if kind == "grid":
        space = build_grid_space(2, 13, 0.3)
    else:
        rng = np.random.default_rng(4)
        space = MetricMeasureSpace(mu=rng.uniform(0.5, 2.0, 180), coords=rng.uniform(size=(180, 3)))
    return space if backend == "coords" else space_from_matrix(space.dist_matrix(), space.mu)


@pytest.mark.parametrize("backend", ["coords", "matrix"])
@pytest.mark.parametrize("kind", ["grid", "cloud"])
def test_balls_around_the_singleton_radius_are_the_strict_rows(kind, backend):
    space = _grid_or_cloud(kind, backend)
    h = space.min_positive_distance()
    assert space.singleton_radius() == h > 0
    # Each center twice, so that the calls span more than one query block.
    centers = np.tile(np.arange(space.n), 2)
    assert centers.size > BALL_QUERY_BLOCK
    for r in (np.nextafter(h, 0), h, np.nextafter(h, np.inf)):
        members, offsets = space.balls_members(centers, np.full(centers.size, r))
        assert members.dtype == np.intp
        want = [oracles.strict_ball(space.dist_row(c), r) for c in centers]
        for g, w in zip(np.split(members, offsets[1:-1]), want, strict=True):
            np.testing.assert_array_equal(g, w)
        assert (max(w.size for w in want) > 1) == (r > h)
    # Singleton and wider balls interleaved in one call keep their order.
    radii = np.where(np.random.default_rng(1).random(centers.size) < 0.5, h, 3.0 * h)
    members, offsets = space.balls_members(centers, radii)
    for c, r, g in zip(centers, radii, np.split(members, offsets[1:-1]), strict=True):
        np.testing.assert_array_equal(g, oracles.strict_ball(space.dist_row(c), r))


@pytest.mark.parametrize("backend", ["coords", "matrix"])
def test_a_repeated_point_inside_the_domain_keeps_the_oracle_cover(backend):
    # Point 100 repeats point 44; both copies lie in D. B(44, 1) is {44, 100}
    # although 1 is the resolution, so no ball may be taken for a singleton.
    grid = build_grid_space(2, 10, 1.0)
    coords = np.vstack([grid.coords, grid.coords[44]])
    space = MetricMeasureSpace(mu=np.ones(101), coords=coords)
    if backend == "matrix":
        space = space_from_matrix(space.dist_matrix(), space.mu)
    assert space.min_positive_distance() == 1.0
    assert space.singleton_radius() == 0.0
    lattice = np.vstack([np.argwhere(np.ones((10, 10))), [4, 4]])
    domain = make_domain(space, ((lattice >= 1) & (lattice <= 8)).all(axis=1))
    assert domain.mask[[44, 100]].all()
    centers, radii, members, edges, _ = oracles.naive_whitney_cover(space, domain)
    cover = whitney_cover(space, domain)
    np.testing.assert_array_equal(cover.centers, centers)
    np.testing.assert_array_equal(cover.radii, radii)
    balls = np.split(cover.members, cover.offsets[1:-1])
    for got, want in zip(balls, members, strict=True):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(cover.edges, edges)
    assert 100 not in cover.centers and [44, 100] in [m.tolist() for m in balls]
    assert check_cover_invariants(cover) == oracles.naive_cover_invariants(
        space, domain, centers, radii, members, edges
    )


def test_a_matrix_off_zero_at_its_diagonal_or_not_positive_off_it_has_no_singletons():
    dist = build_grid_space(1, 4, 1.0).dist_matrix().copy()
    assert space_from_matrix(dist, np.ones(4)).singleton_radius() == 1.0
    for bad in (0.0, -0.5):
        changed = dist.copy()
        changed[0, 3] = changed[3, 0] = bad
        assert space_from_matrix(changed, np.ones(4)).singleton_radius() == 0.0
    changed = dist.copy()
    changed[2, 2] = 2.0
    assert space_from_matrix(changed, np.ones(4)).singleton_radius() == 0.0


def test_domain_point_with_a_copy_outside_the_domain_is_rejected():
    space = MetricMeasureSpace(
        mu=np.ones(5), coords=np.array([[0, 0], [1, 0], [1, 0], [2, 0], [3, 0]], dtype=float)
    )
    for s in (space, space_from_matrix(space.dist_matrix(), space.mu)):
        with pytest.raises(PreconditionFail, match="domain point 1 lies at distance 0.0"):
            make_domain(s, [1, 3])
        assert make_domain(s, [1, 2, 3]).boundary_dist[[1, 2, 3]].tolist() == [1.0, 1.0, 1.0]


def test_per_ball_sums_are_sequential_sums_bitwise():
    rng = np.random.default_rng(11)
    grid = build_grid_space(2, 40, 1.0)
    space = MetricMeasureSpace(mu=rng.uniform(0.1, 3.0, grid.n), coords=grid.coords)
    _, domain = square_domain(40)
    domain = make_domain(space, domain.mask)
    cover = whitney_cover(space, domain)
    balls = np.split(cover.members, cover.offsets[1:-1])
    sizes = np.array([m.size for m in balls])
    assert sizes.min() == 1 and sizes.max() >= 3
    want = np.array([oracles.sequential_ball_sum(space, space.mu, c, m)
                     for c, m in zip(cover.centers, balls)])
    assert cover.mu_balls.tobytes() == want.tobytes()
    values = rng.normal(size=space.n)
    values[rng.random(space.n) < 0.3] = -0.0
    v_mu = values * space.mu
    want = np.array([oracles.sequential_ball_sum(space, v_mu, c, m)
                     for c, m in zip(cover.centers, balls)]) / cover.mu_balls
    got = cover.ball_averages(values)
    assert got.tobytes() == want.tobytes()
    # A singleton's sum is its value read off, -0.0 included.
    single = sizes == 1
    assert np.signbit(v_mu[cover.centers[single]]).any()
    np.testing.assert_array_equal(np.signbit(got[single]), np.signbit(v_mu[cover.centers[single]]))


def test_ball_averages_take_one_value_per_point():
    space, domain = square_domain(12)
    cover = whitney_cover(space, domain)
    for bad in (np.array([5.0]), np.ones(space.n - 1), np.ones((space.n, 1)), 5.0):
        with pytest.raises(ValueError, match="defined on all of X"):
            cover.ball_averages(bad)
    np.testing.assert_array_equal(cover.ball_averages(np.full(space.n, 5.0)), 5.0)


@pytest.mark.parametrize("backend", ["coords", "matrix"])
@pytest.mark.parametrize("seed", range(12))
def test_cover_ball_sums_are_the_canonical_prefix_sums(seed, backend):
    grid, domain = random_grid_domain(seed)
    rng = np.random.default_rng(seed)
    space = MetricMeasureSpace(mu=rng.lognormal(size=grid.n), coords=grid.coords)
    if backend == "matrix":
        space = space_from_matrix(space.dist_matrix(), space.mu)
    cover = whitney_cover(space, make_domain(space, domain.mask))
    values = rng.normal(size=space.n)
    values[rng.random(space.n) < 0.3] = -0.0
    averages = cover.ball_averages(values)
    saw_negative_zero = False
    for k, (c, r) in enumerate(zip(cover.centers, cover.radii)):
        block = space.canonical.center(int(c))
        prefix = np.searchsorted(block.values, r) - 1  # the largest distance below r
        assert cover.mu_balls[k].tobytes() == block.mu_prefix[prefix].tobytes()
        want = block.prefix_sums(values * space.mu)[prefix] / block.mu_prefix[prefix]
        assert averages[k].tobytes() == want.tobytes()
        saw_negative_zero |= bool(block.counts[prefix] == 1 and np.signbit(want) and want == 0)
    assert saw_negative_zero


def test_balls_sharing_a_multiple_of_256_points_intersect():
    # An 8-bit count of shared members wraps to 0 at 256 and 512.
    n = 2000
    members = [np.arange(0, 300), np.arange(44, 400), np.arange(1000, 1600),
               np.arange(1088, 1700), np.arange(1900, 2000)]
    offsets = np.cumsum([0] + [m.size for m in members])
    edges = _intersection_edges(n, np.concatenate(members), offsets)
    np.testing.assert_array_equal(edges, [[0, 1], [2, 3]])
    assert [np.intersect1d(members[i], members[j]).size for i, j in edges] == [256, 512]


def test_cover_makes_one_tree_query_per_block_of_balls(monkeypatch):
    queries = []

    class CountingTree(scipy.spatial.cKDTree):
        def query_ball_point(self, *args, **kwargs):
            queries.append(len(args[0]))
            return super().query_ball_point(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    space, domain = square_domain(64)
    cover = whitney_cover(space, domain)
    # Only balls wider than the singleton radius reach the tree.
    h = space.singleton_radius()
    assert h == 1.0
    wide_quarters = np.count_nonzero(domain.boundary_dist[domain.ids] / 4.0 / 4.0 > h)
    wide_members = np.count_nonzero(cover.radii > h)
    assert 0 < wide_quarters < domain.ids.size and 0 < wide_members < len(cover)
    blocks = -(-wide_quarters // BALL_QUERY_BLOCK) + -(-wide_members // BALL_QUERY_BLOCK)
    assert len(queries) == 1 + blocks
    # make_domain queries once, for the points of D with two nearest points
    # off D: the diagonals of the square.
    i, j = np.divmod(domain.ids, 64)
    assert queries[0] == np.count_nonzero((i == j) | (i + j == 63))
    assert sum(queries[1:]) == wide_quarters + wide_members
    assert len(queries) < 50 < domain.ids.size


# -- typed endpoint errors -----------------------------------------------------------


def test_qh_rejects_ids_outside_the_space(line11, line_domain):
    for x, y in [(40, 5), (5, 40), (-1, 5)]:
        with pytest.raises(InvalidParameter, match="point ids"):
            qh_distance(line11, line_domain, x, y)
    with pytest.raises(InvalidParameter, match="point ids"):
        qh_distances(line11, line_domain, [2, 11])
    with pytest.raises(InvalidParameter, match="in the domain"):
        qh_distances(line11, line_domain, [2, 10])
    with pytest.raises(InvalidParameter, match="in the domain"):
        qh_distance(line11, line_domain, 5, 0)
