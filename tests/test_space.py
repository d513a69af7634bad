import gc
import math
import weakref

import numpy as np
import pytest

import oracles
from metricweights import (
    Ball,
    MetricMeasureSpace,
    build_grid_space,
    canonical_balls,
    doubling_constant,
    space_from_matrix,
    validate_space,
)
from metricweights.errors import InvalidParameter, SizeOverflow
from metricweights import io
from metricweights import space as space_mod
from metricweights.space import BALL_QUERY_BLOCK, DENSE_CAP, REL_TOL, ValidationReport
from metricweights.studies import interval_space
from metricweights.weights import power_weight


def test_two_point_space_passes_validation(s2):
    report = validate_space(s2)
    assert report.ok
    assert report.to_dict()["mode"] == "full"


_PATH3 = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]


@pytest.mark.parametrize("kwargs", [
    dict(mu=np.ones(0), coords=np.zeros((0, 1))),
    dict(mu=np.ones(3)),
    dict(mu=np.ones(3), dist=np.zeros((3, 2))),
    dict(mu=np.ones(3), coords=np.zeros((2, 1))),
    dict(mu=np.ones(3), coords=np.zeros(3)),
    dict(mu=np.ones(3), coords=np.zeros((3, 0))),  # a KD-tree fails on no columns
    dict(mu=np.ones(3), coords=np.eye(3), edges=[(0, 1)]),
    # the matrix would give every distance, the coordinates every verdict
    dict(mu=np.ones(3), dist=[[0, 1, 5], [1, 0, 1], [5, 1, 0]], coords=[[0], [1], [2]]),
    dict(mu=np.ones(3), dist=_PATH3, edges=[(0, 1, np.nan), (1, 2, 1.0)]),
    dict(mu=np.ones(3), dist=_PATH3, edges=[(0, 1, np.inf), (1, 2, 1.0)]),
    # validate_space read ok: true, and doubling_constant -inf (NaN) or a warning (inf)
    dict(mu=[1.0, np.nan, 1.0], dist=_PATH3),
    dict(mu=[1.0, np.inf, 1.0], coords=[[0], [1], [2]]),
    dict(mu=[1e308, 1e308, 1e308], coords=[[0], [1], [2]]),
    # maximal_fn read [1, 1, 1] (NaN), and distances overflowed with a warning (inf, far)
    dict(mu=np.ones(3), coords=[[0.0], [np.nan], [1.0]]),
    dict(mu=np.ones(3), coords=[[0.0], [np.inf], [1.0]]),
    dict(mu=np.ones(3), coords=[[1e200], [-1e200], [0.0]]),
], ids=["empty_mu", "no_metric", "matrix_shape", "coords_rows", "coords_1d",
        "coords_no_columns", "edge_pairs", "matrix_and_coords", "edge_nan", "edge_inf",
        "mass_nan", "mass_inf", "mass_total", "coords_nan", "coords_inf", "coords_far"])
def test_constructor_rejects_malformed_shapes(kwargs):
    with pytest.raises(ValueError):
        MetricMeasureSpace(**kwargs)


def test_grid_builder_two_and_three_points(s2, s3):
    assert s2.n == 2
    assert s2.dist(0, 1) == 1.0
    assert np.array_equal(s2.mu, [1.0, 1.0])
    assert s3.n == 3
    for i in range(3):
        for j in range(3):
            assert s3.dist(i, j) == abs(i - j)


@pytest.mark.parametrize("dim", [2, 3])
def test_dist_uses_the_dist_row_formula(dim):
    rng = np.random.default_rng(dim)
    space = MetricMeasureSpace(mu=np.ones(300), coords=rng.normal(size=(300, dim)))
    for i in range(0, space.n, 7):
        row = space.dist_row(i)
        assert all(space.dist(i, j) == row[j] for j in range(space.n))


def _axis_sum_distance(a, b, axes):
    """|a - b| with the squared differences added in the given axis order."""
    total = 0.0
    for k in axes:
        step = float(a[k]) - float(b[k])
        total += step * step
    return math.sqrt(total)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_every_coordinate_distance_is_the_left_to_right_axis_sum(dim):
    rng = np.random.default_rng(60 + dim)
    coords = rng.normal(size=(60, dim)) * 10.0 ** rng.integers(-3, 4, size=(60, dim))
    space = MetricMeasureSpace(mu=np.ones(60), coords=coords)
    want = np.array([[_axis_sum_distance(a, b, range(dim)) for b in coords] for a in coords])
    np.testing.assert_array_equal(space.dist_matrix(), want)
    np.testing.assert_array_equal(space.dist_rows(10, 17), want[10:17])
    np.testing.assert_array_equal(space.dist_row(59), want[59])
    us, vs = rng.integers(0, 60, size=(2, 200))
    np.testing.assert_array_equal(space.pair_dists(us, vs), want[us, vs])
    np.testing.assert_array_equal(space.pair_dists(7, vs), want[7, vs])
    ids, targets = np.arange(0, 60, 2), np.arange(1, 60, 2)
    np.testing.assert_array_equal(space.nearest_distances(ids, targets),
                                  want[np.ix_(ids, targets)].min(axis=1))
    assert space.min_positive_distance() == want[want > 0].min()
    norms = [_axis_sum_distance(a, np.zeros(dim), range(dim)) for a in coords]
    np.testing.assert_array_equal(power_weight(space, 1.0), norms)
    if dim >= 3:
        # The order is pinned: adding the axes right to left moves some bits.
        backward = [_axis_sum_distance(coords[0], b, range(dim - 1, -1, -1)) for b in coords]
        assert np.any(want[0] != backward)
    else:
        # With at most two terms the sum is an einsum sum of squares, bit for bit.
        delta = coords[:, None, :] - coords[None, :, :]
        np.testing.assert_array_equal(want, np.sqrt(np.einsum("ijk,ijk->ij", delta, delta)))


def test_canonical_prefixes_two_points(s2):
    balls = canonical_balls(s2, 0)
    assert [members.tolist() for _, members in balls] == [[0], [0, 1]]


def test_canonical_prefixes_middle_and_end_center(s3):
    # Members come in (distance, id) order: ties by id, the nearest first.
    mid = canonical_balls(s3, 1)
    assert [members.tolist() for _, members in mid] == [[1], [1, 0, 2]]
    end = canonical_balls(s3, 2)
    assert [members.tolist() for _, members in end] == [[2], [2, 1], [2, 1, 0]]
    with pytest.raises(ValueError):
        canonical_balls(s3, 3)


def test_representative_radii_cover_each_prefix(s3):
    balls = canonical_balls(s3, 2)
    # the smallest float radius of each prefix: just above its distance
    assert [r for r, _ in balls] == [np.nextafter(v, np.inf) for v in (0.0, 1.0, 2.0)]
    # each radius reproduces its prefix as a strict ball
    for r, members in balls:
        np.testing.assert_array_equal(s3.ball_members(2, r), members)


@pytest.mark.parametrize("space", [
    build_grid_space(2, 9, 1.0 / 3.0),
    MetricMeasureSpace(mu=np.ones(150), coords=np.random.default_rng(3).uniform(size=(150, 3))),
], ids=["grid", "random-3d"])
def test_every_canonical_radius_gives_exactly_its_listed_members(space):
    # On the grid one true distance comes out as floats a few ulps apart,
    # where a midpoint between them rounds onto the smaller one.
    for c in range(space.n):
        radii, members = zip(*canonical_balls(space, c))
        # ids come out as intp, whatever type the cache keeps them in
        assert {m.dtype for m in members} == {np.dtype(np.intp)}
        got, offsets = space.balls_members([c] * len(radii), radii)
        for ball, want in zip(np.split(got, offsets[1:-1]), members, strict=True):
            np.testing.assert_array_equal(ball, want)


def test_ball_members_strict_inequality(s3):
    assert set(s3.ball_members(1, 1.0)) == {1}
    assert set(s3.ball_members(1, 1.0 + 1e-9)) == {0, 1, 2}


@pytest.mark.parametrize("dense", [False, True])
def test_balls_members_matches_strict_rows_across_query_blocks(dense):
    space = build_grid_space(2, 24, 0.5)
    if dense:
        space = space_from_matrix(space.dist_matrix(), space.mu)
    rng = np.random.default_rng(7)
    centers = rng.integers(0, space.n, size=2 * BALL_QUERY_BLOCK + 5)
    # radii on exact lattice distances test the strict inequality
    radii = rng.choice([0.5, 0.75, 1.0, np.sqrt(0.5), 2.5, 40.0], size=centers.size)
    members, offsets = space.balls_members(centers, radii)
    assert members.dtype == offsets.dtype == np.intp and offsets.size == centers.size + 1
    got = np.split(members, offsets[1:-1])
    for c, r, mem in zip(centers, radii, got, strict=True):
        np.testing.assert_array_equal(mem, oracles.strict_ball(space.dist_row(c), r))
        np.testing.assert_array_equal(mem, space.ball_members(int(c), float(r)))
    members, offsets = space.balls_members([], [])
    assert members.dtype == offsets.dtype == np.intp
    assert (members.tolist(), offsets.tolist()) == ([], [0])


@pytest.mark.parametrize("dense", [False, True])
def test_tied_balls_list_their_members_in_canonical_order(dense):
    # On a unit grid most distances tie, so id order within a distance decides.
    space = build_grid_space(2, 12, 1.0)
    if dense:
        space = space_from_matrix(space.dist_matrix(), space.mu)
    rng = np.random.default_rng(5)
    centers = rng.integers(0, space.n, size=2 * BALL_QUERY_BLOCK)
    blocks = [space.canonical.center(int(c)) for c in centers]
    # A canonical prefix per ball; every third is prefix 0, a singleton, and
    # the others span two query blocks.
    prefixes = [0 if k % 3 == 0 else int(rng.integers(1, b.values.size)) for k, b in enumerate(blocks)]
    radii = [np.nextafter(b.values[k], np.inf) for b, k in zip(blocks, prefixes)]
    members, offsets = space.balls_members(centers, radii)
    balls = np.split(members, offsets[1:-1])
    assert any((np.diff(ball) < 0).any() for ball in balls)  # not id order
    for c, r, b, k, ball in zip(centers, radii, blocks, prefixes, balls, strict=True):
        np.testing.assert_array_equal(ball, oracles.strict_ball(space.dist_row(c), r))
        np.testing.assert_array_equal(ball, b.order[:b.counts[k]])


def test_a_block_whose_order_keys_overflow_is_refused():
    # A member's order key is (ball, distance rank, id) in one int64; a space
    # this large would overflow it, and the block must not come back misordered.
    space = build_grid_space(1, 8, 1.0)
    space.n = 2**62
    with pytest.raises(SizeOverflow):
        space._block_members(np.array([0, 1]), np.array([3.0, 3.0]))


def test_balls_members_rejects_bad_radii(s3):
    for space in (s3, space_from_matrix(s3.dist_matrix(), s3.mu)):
        for radii in ([1.0, 0.0], [1.0, -2.0], [1.0], [1.0, np.nan]):
            with pytest.raises(ValueError):
                space.balls_members([0, 1], radii)
        for radius in (0.0, np.nan):
            with pytest.raises(ValueError):
                space.ball_members(1, radius)


def test_balls_members_rejects_centers_outside_the_space(s3):
    for space in (s3, space_from_matrix(s3.dist_matrix(), s3.mu)):
        for center in (-1, 3, 10**6, 2.7, np.nan):
            with pytest.raises(InvalidParameter, match="point ids"):
                space.ball_members(center, 0.5)
            with pytest.raises(InvalidParameter, match="point ids"):
                space.balls_members([0, center], [1.5, 1.5])


@pytest.mark.parametrize("dim, side", [(1, 1), (1, 5), (2, 1), (2, 4), (3, 3)])
def test_grid_edges_join_axis_neighbours_in_axis_order(dim, side):
    space = build_grid_space(dim, side, 0.5)
    lattice = np.stack(np.unravel_index(np.arange(space.n), (side,) * dim), axis=1)
    want = [
        (i, int(np.ravel_multi_index(lattice[i] + np.eye(dim, dtype=int)[a], (side,) * dim)), 0.5)
        for a in range(dim)
        for i in range(space.n)
        if lattice[i, a] < side - 1
    ]
    assert space.edges == (want or None)
    if want:
        us, vs, lengths = space.edge_arrays()
        assert not us.flags.writeable and us.dtype == np.intp
        np.testing.assert_array_equal(lengths, 0.5)


def test_ball_dataclass_members(s3):
    b = Ball(1, 1.5)
    assert set(b.members(s3)) == {0, 1, 2}
    for radius in (0.0, np.nan):
        with pytest.raises(ValueError):
            Ball(1, radius)


def test_doubling_frozen_values(s2, s3):
    assert doubling_constant(s2) == 2.0
    assert doubling_constant(s3) == 3.0


def test_doubling_matches_probing_oracle_on_random_spaces(rng):
    for _ in range(10):
        space = oracles.random_metric_space(rng, int(rng.integers(3, 14)))
        assert doubling_constant(space) == oracles.naive_doubling(space)


@pytest.mark.parametrize("space", [
    build_grid_space(1, 9, 1.0),
    build_grid_space(2, 7, 1.0 / 22.0),
    build_grid_space(2, 9, 1.0 / 3.0),
    build_grid_space(3, 4, 0.3),
    interval_space(8),
], ids=lambda space: space.meta)
def test_doubling_bitwise_equals_probing_oracle_on_lattices(space):
    assert doubling_constant(space) == oracles.naive_doubling(space)


def test_doubling_worker_count_does_not_change_value(rng):
    space = oracles.random_metric_space(rng, 17)
    base = doubling_constant(space, workers=1)
    assert doubling_constant(space, workers=2) == base
    assert doubling_constant(space, workers=8) == base


def test_validation_reports_negative_mass_witness(s2):
    space = MetricMeasureSpace(mu=[1.0, -1.0], dist=s2.dist_matrix())
    report = validate_space(space)
    assert not report.ok
    assert report.kind == "NonpositiveMass"
    assert report.witness == (1,)


def test_validation_reports_asymmetry_witness():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    report = validate_space(MetricMeasureSpace(mu=[1.0, 1.0], dist=d))
    assert report.kind == "AsymmetricDistance"


def test_validation_reports_triangle_witness():
    d = np.array(
        [
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 1.0],
            [5.0, 1.0, 0.0],
        ]
    )
    report = validate_space(MetricMeasureSpace(mu=np.ones(3), dist=d))
    assert report.kind == "TriangleViolation"
    x, y, z = report.witness
    assert d[x, z] > d[x, y] + d[y, z]


def test_validation_reports_zero_distance_for_distinct_points():
    d = np.zeros((2, 2))
    report = validate_space(MetricMeasureSpace(mu=np.ones(2), dist=d))
    assert report.kind == "ZeroDistanceDistinct"


def test_validation_flags_edge_shorter_than_distance(s2):
    for length in (0.5, 0.0, -1.0):
        space = MetricMeasureSpace(
            mu=[1.0, 1.0], dist=s2.dist_matrix(), edges=[(0, 1, length)]
        )
        report = validate_space(space)
        assert report.kind == "EdgeTooShort"
    # a length no verdict can compare is refused when the space is made
    for length in (np.nan, np.inf):
        with pytest.raises(InvalidParameter, match="edge lengths"):
            MetricMeasureSpace(mu=[1.0, 1.0], dist=s2.dist_matrix(), edges=[(0, 1, length)])


def test_validation_flags_disconnected_edge_graph():
    space = build_grid_space(1, 4, 1.0)
    broken = MetricMeasureSpace(
        mu=space.mu, dist=space.dist_matrix(), edges=[(0, 1, 1.0), (2, 3, 1.0)]
    )
    report = validate_space(broken)
    assert report.kind == "GraphDisconnected"


def test_coordinate_backend_agrees_with_dense_matrix():
    grid = build_grid_space(2, 4, 0.5)
    dense = space_from_matrix(grid.dist_matrix().copy(), grid.mu.copy())
    for c in range(grid.n):
        assert np.allclose(grid.dist_row(c), dense.dist_row(c), rtol=0, atol=0)


def test_grid_space_masses_scale_with_spacing():
    grid = build_grid_space(2, 3, 0.5)
    assert np.allclose(grid.mu, 0.25)
    assert grid.min_positive_distance() == 0.5


@pytest.mark.parametrize("dim, spacing", [(2, 1e200), (2, 1e-200), (1, 1e300)],
                         ids=["mass_overflows", "mass_underflows", "coords_out_of_range"])
def test_grid_space_refuses_a_spacing_out_of_float_range(dim, spacing):
    with pytest.raises(InvalidParameter, match="spacing"):
        build_grid_space(dim, 3, spacing)


def test_grid_validation_mode_is_full():
    # Every verdict is exact; there is no sampled mode.
    grid = build_grid_space(2, 8, 1.0)
    report = validate_space(grid)
    assert report.ok
    assert report.to_dict()["mode"] == "full"


def test_canonical_structures_refuse_oversized_spaces():
    big = build_grid_space(2, 50, 1.0)  # 2500 points > dense cap
    assert big.n > DENSE_CAP
    with pytest.raises(SizeOverflow):
        big.dist_matrix()
    with pytest.raises(SizeOverflow):
        big.canonical


def test_dist_matrix_leaves_a_coordinate_space_on_coordinates():
    space = build_grid_space(2, 24, 1.0)
    dense = space_from_matrix(space.dist_matrix(), space.mu, space.edges)
    assert space._dist is None
    report = validate_space(space)
    assert report == validate_space(dense) == ValidationReport(True)
    assert space._dist is None
    io.space_to_dict(space)
    assert space._dist is None
    assert space.dist_matrix() is not space.dist_matrix()
    assert dense.dist_matrix() is dense.dist_matrix()


def test_canonical_balls_rejects_centers_outside_the_space(s3):
    for center in (-1, 3, 7, 1.5, np.nan):
        with pytest.raises(InvalidParameter, match="point ids"):
            canonical_balls(s3, center)
    assert [r for r, _ in canonical_balls(s3, 1.0)] == [r for r, _ in canonical_balls(s3, 1)]


def test_ball_sums_are_the_sequential_canonical_prefix_sums(rng):
    space = oracles.random_metric_space(rng, 40)
    centers, radii, want = [], [], []
    for c in range(space.n):
        block, row = space.canonical.center(c), space.dist_row(c)
        want += [oracles.sequential_ball_sum(space, space.mu, c, np.flatnonzero(row <= v))
                 for v in block.values]
        assert block.mu_prefix.tobytes() == np.array(want[-block.values.size:]).tobytes()
        centers += [c] * block.values.size
        radii += np.nextafter(block.values, np.inf).tolist()
    assert len(centers) > 2 * BALL_QUERY_BLOCK
    sums = space.ball_sums(space.mu, *space.balls_members(centers, radii))
    assert sums.tobytes() == np.array(want).tobytes()


def test_canonical_ball_count_small_fixture(s3):
    # center 0: 3 distinct balls, center 1: 2, center 2: 3
    assert s3.canonical.ball_count() == 8


def test_a_space_and_its_derived_state_are_freed_by_del_alone():
    # No derived value refers back to its space, so reference counting frees
    # the space, even while its cache, tree and edge graph are still held.
    space = build_grid_space(2, 6, 1.0)
    derived = (space.canonical, space.edge_graph, space._tree, space.singleton_radius())
    ref = weakref.ref(space)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del space
        assert ref() is None and derived[0].ball_count() > 0
    finally:
        if was_enabled:
            gc.enable()


# -- validate_space against the triple-loop oracle ------------------------------------

PLANT_STEPS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0)


def _planted(seed, n, entry):
    """A random metric with d(x, z) = d(z, x) replaced by entry(through), where
    through is the shortest two-step detour from x to z."""
    rng = np.random.default_rng(seed)
    base = oracles.random_metric_space(rng, n)
    d = base.dist_matrix().copy()
    x, z = sorted(rng.choice(n, size=2, replace=False).tolist())
    through = min(d[x, y] + d[y, z] for y in range(n) if y not in (x, z))
    d[x, z] = d[z, x] = entry(through)
    return MetricMeasureSpace(mu=base.mu, dist=d)


@pytest.mark.parametrize("k", PLANT_STEPS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_validation_matches_oracle_near_the_tolerance(seed, k):
    space = _planted(seed, 12 + seed, lambda t: t * (1 + k * REL_TOL))
    report = validate_space(space).to_dict()
    assert report == oracles.naive_validation(space)
    if k < 1:
        assert report["ok"]
    if k > 1:
        assert report["kind"] == "TriangleViolation"


@pytest.mark.parametrize("entry", [lambda t: 10.0 * t, lambda t: t + 1.0])
@pytest.mark.parametrize("seed", [4, 5])
def test_validation_matches_oracle_on_gross_violations(seed, entry):
    space = _planted(seed, 15, entry)
    report = validate_space(space).to_dict()
    assert report["kind"] == "TriangleViolation"
    assert report == oracles.naive_validation(space)


@pytest.mark.parametrize("seed", [4, 5])
def test_validation_matches_oracle_on_an_infinite_entry(seed):
    # d(x, z) = inf over a finite detour is no metric; the triangle slack
    # REL_TOL * max(inf, t) is inf, so only the finiteness check can see it.
    space = _planted(seed, 15, lambda t: np.inf)
    report = validate_space(space).to_dict()
    assert report["kind"] == "NonfiniteDistance"
    assert report == oracles.naive_validation(space)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9, 1e-12, 1e-300])
def test_closure_certificate_sees_every_entry_at_every_scale(scale):
    # scipy reads a plain dense entry within 1e-8 of 0 as a missing edge,
    # which once let these violations pass the certificate.
    spaces = [
        space_from_matrix(np.array(d) * scale, np.ones(3))
        for d in ([[0, 1, 5], [1, 0, 1], [5, 1, 0]], [[0, 1e-9, 1.5], [1e-9, 0, 1], [1.5, 1, 0]])
    ]
    for seed in (4, 5):
        planted = _planted(seed, 15, lambda t: 10.0 * t)
        spaces.append(MetricMeasureSpace(mu=planted.mu, dist=planted.dist_matrix() * scale))
    for space in spaces:
        report = validate_space(space).to_dict()
        assert report["kind"] == "TriangleViolation"
        assert report == oracles.naive_validation(space)


def test_closure_certificate_decides_alone_only_with_half_the_tolerance(monkeypatch):
    calls = []
    exact = space_mod._validate_triangle_dense
    monkeypatch.setattr(space_mod, "_validate_triangle_dense",
                        lambda d: calls.append(1) or exact(d))
    assert validate_space(_planted(1, 13, lambda t: t * (1 + 0.25 * REL_TOL))).ok
    assert calls == []
    assert validate_space(_planted(1, 13, lambda t: t * (1 + 0.75 * REL_TOL))).ok
    assert calls == [1]


def test_point_at_infinite_distance_certifies_like_the_oracle():
    base = oracles.random_metric_space(np.random.default_rng(6), 10)
    d = base.dist_matrix().copy()
    d[3, :] = d[:, 3] = np.inf
    d[3, 3] = 0.0
    space = MetricMeasureSpace(mu=base.mu, dist=d)
    report = validate_space(space).to_dict()
    assert (report["kind"], report["witness"]) == ("NonfiniteDistance", [0, 3])
    assert report == oracles.naive_validation(space)


def test_a_repeated_point_fails_validation_in_both_modes():
    coords = np.random.default_rng(8).uniform(size=(3000, 2))
    coords[17] = coords[5]
    for n, mode in [(3000, "full"), (100, "full")]:
        space = MetricMeasureSpace(mu=np.ones(n), coords=coords[:n])
        assert validate_space(space).to_dict() == {
            "ok": False, "kind": "ZeroDistanceDistinct", "witness": [5, 17], "mode": mode,
        }


@pytest.mark.parametrize("scale", [1.0, 1e-140, 1e-155, 1e-162, 1e-300])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_coordinate_validation_matches_oracle_at_every_scale(dim, scale):
    # Below the rounding floor the coordinate rule hands over to the matrix
    # rule; from 1e-155 down, subnormal squares break some triangles.
    verdicts = []
    for seed in range(6):
        n = 3 + (7 * seed + dim) % 22
        coords = np.random.default_rng(seed).uniform(size=(n, dim)) * scale
        space = MetricMeasureSpace(mu=np.ones(n), coords=coords)
        report = validate_space(space).to_dict()
        assert report == oracles.naive_validation(space)
        assert validate_space(space_from_matrix(space.dist_matrix(), space.mu)).to_dict() == report
        verdicts.append(report["ok"])
    if scale >= 1e-140:
        assert all(verdicts)


def test_subnormal_squares_break_a_triangle_that_validation_reports():
    coords = [[0.0, 0.0], [1.511e-162, 2.674e-162], [2.967e-162, 5.266e-162]]
    space = MetricMeasureSpace(mu=np.ones(3), coords=coords)
    assert space.dist(0, 2) > 1.4 * (space.dist(0, 1) + space.dist(1, 2))
    report = validate_space(space)
    assert report == ValidationReport(False, "TriangleViolation", (0, 1, 2))
    assert report.to_dict() == oracles.naive_validation(space)


def test_a_pair_whose_squares_underflow_is_at_distance_zero():
    coords = np.random.default_rng(9).uniform(size=(8, 2))
    coords[1] = [0.0, 0.0]
    coords[2] = [1e-170, 1e-170]
    space = MetricMeasureSpace(mu=np.ones(8), coords=coords)
    report = validate_space(space).to_dict()
    assert (report["kind"], report["witness"]) == ("ZeroDistanceDistinct", [1, 2])
    assert report == oracles.naive_validation(space)


def test_a_large_cloud_below_the_rounding_floor_needs_the_matrix():
    coords = np.random.default_rng(10).uniform(size=(3000, 2)) * 1e-155
    space = MetricMeasureSpace(mu=np.ones(3000), coords=coords)
    assert 0 < space.min_positive_distance() < space_mod.ROUNDING_FLOOR
    with pytest.raises(SizeOverflow):
        validate_space(space)


def test_a_coordinate_space_validates_without_a_distance_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("validate_space built a distance matrix")

    monkeypatch.setattr(MetricMeasureSpace, "dist_matrix", refuse)
    assert validate_space(build_grid_space(2, 45, 1.0)) == ValidationReport(True)
    assert validate_space(build_grid_space(3, 14, 1e-100)) == ValidationReport(True)


@pytest.mark.parametrize("cells, value", [
    ([(2, 5)], np.nan),
    ([(4, 4)], np.nan),
    ([(1, 1)], 0.5),
    ([(3, 6), (6, 3)], -1.0),
    ([(2, 7), (7, 2)], 0.0),
])
def test_validation_matches_oracle_on_pair_axioms(cells, value):
    base = oracles.random_metric_space(np.random.default_rng(7), 9)
    d = base.dist_matrix().copy()
    for cell in cells:
        d[cell] = value
    space = MetricMeasureSpace(mu=base.mu, dist=d)
    report = validate_space(space).to_dict()
    assert not report["ok"]
    assert report == oracles.naive_validation(space)


def test_validation_reports_the_first_short_edge_like_the_oracle():
    grid = build_grid_space(2, 4, 1.0)
    edges = grid.edges
    edges[5] = (edges[5][0], edges[5][1], 0.5)
    edges[2] = (edges[2][0], edges[2][1], 0.25)
    space = MetricMeasureSpace(mu=grid.mu, coords=grid.coords, edges=edges)
    report = validate_space(space).to_dict()
    assert report["kind"] == "EdgeTooShort"
    assert report["witness"] == list(edges[2][:2])
    assert report == oracles.naive_validation(space)
    assert validate_space(grid).to_dict() == oracles.naive_validation(grid)
