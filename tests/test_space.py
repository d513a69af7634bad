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
from metricweights.errors import (
    AsymmetricDistance,
    EdgeTooShort,
    NonpositiveMass,
    SizeOverflow,
    TriangleViolation,
    ZeroDistanceDistinct,
)
from metricweights.space import BALL_QUERY_BLOCK, DENSE_CAP


def test_two_point_space_passes_validation(s2):
    report = validate_space(s2)
    assert report.ok
    assert report.mode == "full"


def test_grid_builder_two_and_three_points(s2, s3):
    assert s2.n == 2
    assert s2.dist(0, 1) == 1.0
    assert np.array_equal(s2.mu, [1.0, 1.0])
    assert s3.n == 3
    for i in range(3):
        for j in range(3):
            assert s3.dist(i, j) == abs(i - j)


def test_canonical_prefixes_two_points(s2):
    balls = canonical_balls(s2, 0)
    assert [set(balls.prefix_members(k)) for k in range(len(balls))] == [{0}, {0, 1}]


def test_canonical_prefixes_middle_and_end_center(s3):
    mid = canonical_balls(s3, 1)
    assert [set(mid.prefix_members(k)) for k in range(len(mid))] == [{1}, {0, 1, 2}]
    end = canonical_balls(s3, 2)
    assert [set(end.prefix_members(k)) for k in range(len(end))] == [
        {2},
        {1, 2},
        {0, 1, 2},
    ]


def test_representative_radii_cover_each_prefix(s3):
    balls = canonical_balls(s3, 2)
    reps = balls.representative_radii
    # each representative radius reproduces its prefix as a strict ball
    for k, r in enumerate(reps):
        assert set(s3.ball_members(2, float(r))) == set(balls.prefix_members(k))


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
    got = list(space.balls_members(centers, radii))
    assert len(got) == centers.size
    for c, r, mem in zip(centers, radii, got):
        np.testing.assert_array_equal(mem, np.flatnonzero(space.dist_row(c) < r))
        np.testing.assert_array_equal(mem, space.ball_members(int(c), float(r)))
    assert list(space.balls_members([], [])) == []


def test_balls_members_rejects_bad_radii(s3):
    for radii in ([1.0, 0.0], [1.0, -2.0], [1.0]):
        with pytest.raises(ValueError):
            list(s3.balls_members([0, 1], radii))
    with pytest.raises(ValueError):
        s3.ball_members(1, 0.0)


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
    with pytest.raises(ValueError):
        Ball(1, 0.0)


def test_doubling_frozen_values(s2, s3):
    assert doubling_constant(s2) == 2.0
    assert doubling_constant(s3) == 3.0


def test_doubling_matches_probing_oracle_on_random_spaces(rng):
    for _ in range(10):
        space = oracles.random_metric_space(rng, int(rng.integers(3, 14)))
        fast = doubling_constant(space)
        slow = oracles.naive_doubling(space)
        assert fast == pytest.approx(slow, rel=1e-12)


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
    space = MetricMeasureSpace(
        mu=[1.0, 1.0], dist=s2.dist_matrix(), edges=[(0, 1, 0.5)]
    )
    report = validate_space(space)
    assert report.kind == "EdgeTooShort"


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


def test_grid_sampled_validation_mode():
    grid = build_grid_space(2, 8, 1.0)
    report = validate_space(grid)
    assert report.ok
    assert report.mode in ("full", "sampled")


def test_canonical_structures_refuse_oversized_spaces():
    big = build_grid_space(2, 50, 1.0)  # 2500 points > dense cap
    assert big.n > DENSE_CAP
    with pytest.raises(SizeOverflow):
        big.dist_matrix()
    with pytest.raises(SizeOverflow):
        big.canonical.ensure_all()


def test_canonical_ball_count_small_fixture(s3):
    # center 0: 3 distinct balls, center 1: 2, center 2: 3
    assert s3.canonical.ball_count() == 8
