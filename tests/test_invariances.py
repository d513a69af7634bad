"""Results that scaling the distances or the masses leaves bit for bit the same.

Distances: coordinates, or matrix entries, times 2 or 1/2 give distances
times exactly that factor, since a power of two commutes with each rounding
of the distance formula (away from over- and underflow). Every ordering and
every comparison of two distances is then the same, and so is every result
that reads distances only through them: characteristics and their
witnesses, maximal functions (a radius cap scaled with them), doubling
constants, ball counts, the extension W with its factorization constant c,
and the Whitney cover's centers and edges, whose radii scale exactly.

Masses: every mass times 2 gives every ball mass and every weighted ball sum
times exactly 2, and their quotients unchanged, so the characteristics, their
witnesses and the maximal functions stay the same bytes. The factorization
constant c is not checked here: its warm-up norms take the 1/q-th power of
the masses, which no power of two passes through exactly.
"""

import numpy as np
import pytest

import oracles
from metricweights import (
    MetricMeasureSpace,
    ap_domain_characteristic,
    ap_tilde_characteristic,
    build_grid_space,
    doubling_constant,
    make_domain,
    maximal_fn,
    space_from_matrix,
    whitney_cover,
    wolff_extend,
)
from metricweights.studies import interval_space

SCALES = (2.0, 0.5)


def _random_coords(n, dim, seed):
    rng = np.random.default_rng(seed)
    return MetricMeasureSpace(mu=rng.lognormal(size=n), coords=rng.normal(size=(n, dim)),
                              meta=f"normal(n={n}, dim={dim})")


def _grid_matrix(side, spacing):
    grid = build_grid_space(2, side, spacing)
    return space_from_matrix(grid.dist_matrix(), grid.mu, grid.edges, meta=f"matrix {grid.meta}")


# Factories, so that each space (and its cache) is built in its test and freed with it.
SCAN_SPACES = {
    "grid-2025": lambda: build_grid_space(2, 45, 1 / 22),
    "grid-3d": lambda: build_grid_space(3, 9, 0.7),
    "interval": lambda: interval_space(64),
    "normal-2d": lambda: _random_coords(300, 2, 3),
    "random-matrix": lambda: oracles.random_metric_space(np.random.default_rng(4), 90),
    "grid-matrix": lambda: _grid_matrix(12, 1 / 3),
}

SMALL_SPACES = {
    "interval": lambda: interval_space(32),
    "grid": lambda: build_grid_space(2, 10, 1 / 3),
    "normal-2d": lambda: _random_coords(80, 2, 5),
    "random-matrix": lambda: oracles.random_metric_space(np.random.default_rng(6), 60),
}


def _rebuilt(space, distance_scale=1.0, mass_scale=1.0):
    """space with every distance and edge length times distance_scale and
    every mass times mass_scale, on the same backend."""
    edges = space.edge_arrays()
    if edges is not None:
        edges = np.column_stack([edges[0], edges[1], edges[2] * distance_scale])
    mu = space.mu * mass_scale
    if space.coords is not None:
        return MetricMeasureSpace(mu=mu, coords=space.coords * distance_scale, edges=edges)
    return MetricMeasureSpace(mu=mu, dist=space.dist_matrix() * distance_scale, edges=edges)


def _masks(n, seed):
    rng = np.random.default_rng(seed)
    e_mask, d_mask = rng.random(n) < 0.6, rng.random(n) < 0.7
    e_mask[0] = d_mask[n // 2] = True
    return e_mask, d_mask


def _report(report):
    return np.float64(report.value).tobytes(), report.witness_center, report.witness_prefix


def _scans(space, radius_cap, with_distances=True):
    """Every canonical-ball result as bytes; radius_cap is in the space's units."""
    rng = np.random.default_rng(space.n)
    w = rng.lognormal(size=space.n)
    e_mask, d_mask = _masks(space.n, space.n)
    found = {
        "ap_tilde p=2": _report(ap_tilde_characteristic(space, None, w, 2.0)),
        "ap_tilde p=1 on E": _report(ap_tilde_characteristic(space, e_mask, w[e_mask], 1.0)),
        "ap_tilde p=1.5 on E": _report(ap_tilde_characteristic(space, e_mask, w[e_mask], 1.5)),
        "ap_domain p=2": _report(ap_domain_characteristic(space, d_mask, w[d_mask], 2.0)),
        "ap_domain p=1": _report(ap_domain_characteristic(space, d_mask, w[d_mask], 1.0)),
        "maximal_fn": maximal_fn(space, w).tobytes(),
        "maximal_fn on E": maximal_fn(space, w[e_mask], e_mask).tobytes(),
        "maximal_fn capped": maximal_fn(space, w, radius_cap=radius_cap).tobytes(),
    }
    if with_distances:
        found["doubling_constant"] = np.float64(doubling_constant(space)).tobytes()
        found["ball_count"] = space.canonical.ball_count()
    return found


def _cap(space):
    """A radius cap strictly inside the range of distances: the median of row 0."""
    return float(np.median(space.dist_row(0)))


@pytest.mark.parametrize("make", SCAN_SPACES.values(), ids=SCAN_SPACES.keys())
def test_scaling_distances_keeps_every_canonical_scan(make):
    space = make()
    cap = _cap(space)
    want = _scans(space, cap)
    for scale in SCALES:
        assert _scans(_rebuilt(space, distance_scale=scale), cap * scale) == want, scale


@pytest.mark.parametrize("make", SCAN_SPACES.values(), ids=SCAN_SPACES.keys())
def test_scaling_masses_keeps_the_characteristics_and_maximal_functions(make):
    space = make()
    cap = _cap(space)
    want = _scans(space, cap, with_distances=False)
    assert _scans(_rebuilt(space, mass_scale=2.0), cap, with_distances=False) == want


@pytest.mark.parametrize("p", [1.5, 2.0])
@pytest.mark.parametrize("make", SMALL_SPACES.values(), ids=SMALL_SPACES.keys())
def test_scaling_distances_keeps_the_extension(make, p):
    def extend(space):
        e_mask, _ = _masks(space.n, 7)
        w = np.random.default_rng(8).lognormal(sigma=0.5, size=int(e_mask.sum()))
        report = wolff_extend(space, e_mask, w, p, 0.5)
        return report.W.tobytes(), report.factorization.c, report.factorization.k_max

    space = make()
    want = extend(space)
    for scale in SCALES:
        assert extend(_rebuilt(space, distance_scale=scale)) == want, scale


WHITNEY_SPACES = {
    "grid": lambda: build_grid_space(2, 20, 1 / 3),
    "grid-matrix": lambda: _grid_matrix(12, 1 / 3),
    "normal-2d": lambda: _random_coords(200, 2, 9),
}


@pytest.mark.parametrize("make", WHITNEY_SPACES.values(), ids=WHITNEY_SPACES.keys())
def test_scaling_distances_keeps_the_whitney_cover(make):
    space = make()
    # A proper domain: the points within the median distance of point 0.
    mask = space.dist_row(0) < np.median(space.dist_row(0))
    cover = whitney_cover(space, make_domain(space, mask))
    for scale in SCALES:
        rebuilt = _rebuilt(space, distance_scale=scale)
        scaled = whitney_cover(rebuilt, make_domain(rebuilt, mask))
        np.testing.assert_array_equal(scaled.centers, cover.centers)
        np.testing.assert_array_equal(scaled.edges, cover.edges)
        assert scaled.radii.tobytes() == (cover.radii * scale).tobytes()
