"""The canonical cache in blocks of centers.

Every kernel that walks the cache (maximal_fn, CanonicalBallSet.sup and the
functionals on top of it, doubling_constant) runs one block at a time. These
tests pin them against the naive oracles with blocks as configured and with
blocks shrunk to 7 centers, so that a small space spans many blocks.
"""

import numpy as np
import pytest

import oracles
from metricweights import (
    ap_domain_characteristic,
    ap_tilde_characteristic,
    build_grid_space,
    canonical_balls,
    doubling_constant,
    maximal_fn,
    restrict_weight_report,
    reverse_holder_constant,
    space_from_matrix,
)
from metricweights.errors import ExponentRange
from metricweights.space import MetricMeasureSpace
from metricweights import space as space_mod
from metricweights.maximal import _sweep, scatter
from metricweights.studies import interval_space
from metricweights.weights import holder_average_bound_margin


def _tied_space(rng, n):
    """A metric with few distinct distances: shortest paths over integer lengths."""
    raw = rng.integers(1, 4, size=(n, n)).astype(float)
    d = np.minimum(raw, raw.T)
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return space_from_matrix(d, rng.lognormal(sigma=0.5, size=n), meta=f"tied(n={n})")


def _spaces():
    rng = np.random.default_rng(20261018)
    spaces = [oracles.random_metric_space(rng, n) for n in (1, 2, 63, 64, 65)]
    lattice = np.stack(np.meshgrid(np.arange(10), np.arange(13), indexing="ij"), -1)
    spaces.append(MetricMeasureSpace(
        mu=rng.lognormal(sigma=0.5, size=130), coords=0.5 * lattice.reshape(-1, 2),
        meta="lattice(10x13)",
    ))
    return spaces + [_tied_space(rng, 70)]


SPACES = _spaces()

# Blocks as configured, and blocks of 7 centers on a few small spaces, so
# that those span many blocks, the last one short.
CASES = [(None, s) for s in SPACES] + [(7, s) for s in SPACES if s.n in (1, 2, 65, 70)]


def _case_id(case):
    return f"{case[1].meta}-blocks-of-{case[0] or 'default'}"


@pytest.fixture
def blocks(monkeypatch):
    """Rebuilds a space's cache in blocks of the given number of centers."""

    def rebuild(space, size=None):
        if size is not None:
            monkeypatch.setattr(space_mod, "CANONICAL_BLOCK_CELLS", size * space.n)
        vars(space).pop("canonical", None)
        return space

    return rebuild


def _subset(space, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random(space.n) < 0.6
    mask[space.n // 2] = True
    return mask, np.flatnonzero(mask)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_maximal_function_matches_the_oracle_across_blocks(blocks, case):
    space = blocks(case[1], case[0])
    rng = np.random.default_rng(space.n)
    f = oracles.random_weight(rng, space.n)
    e_mask, ids = _subset(space, 1)
    cap = float(np.median(space.dist_row(0))) + 0.1
    for e, fe in ((None, f), (e_mask, f[ids])):
        for radius_cap in (None, cap):
            got = maximal_fn(space, fe, E=e, radius_cap=radius_cap)
            want = oracles.naive_maximal(space, f, e, radius_cap)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_ball_functionals_match_the_oracles_across_blocks(blocks, case):
    space = blocks(case[1], case[0])
    rng = np.random.default_rng(space.n + 1)
    w = oracles.random_weight(rng, space.n)
    e_mask, ids = _subset(space, 2)
    for p in (1.0, 2.0):
        got = ap_tilde_characteristic(space, None, w, p).value
        assert got == pytest.approx(oracles.naive_tilde_char(space, None, w, p), rel=1e-12)
        got = ap_tilde_characteristic(space, e_mask, w[ids], p).value
        assert got == pytest.approx(oracles.naive_tilde_char(space, e_mask, w, p), rel=1e-12)
        got = ap_domain_characteristic(space, ids, w[ids], p).value
        assert got == pytest.approx(oracles.naive_domain_char(space, e_mask, w, p), rel=1e-12)
        report = restrict_weight_report(space, e_mask, w, p, eps=0.25)
        u = w**1.25
        assert report.max_ratio == pytest.approx(
            oracles.naive_restriction_ratio(space, e_mask, u, p), rel=1e-12
        )
        assert report.restricted.value == pytest.approx(
            oracles.naive_tilde_char(space, e_mask, u, p), rel=1e-12
        )
    assert reverse_holder_constant(space, w, 0.5) == pytest.approx(
        oracles.naive_reverse_holder(space, w, 0.5), rel=1e-12
    )
    assert reverse_holder_constant(space, w[ids], 0.5, domain=ids) == pytest.approx(
        oracles.naive_reverse_holder(space, w, 0.5, e_mask), rel=1e-12
    )
    g = rng.random(ids.size)
    assert holder_average_bound_margin(space, e_mask, w[ids], 2.0, g) == pytest.approx(
        oracles.naive_holder_margin(space, e_mask, w, 2.0, scatter(space, ids, g)), rel=1e-12
    )


@pytest.mark.parametrize("case", [c for c in CASES if c[1].n <= 70], ids=_case_id)
def test_doubling_bitwise_equals_the_oracle_across_blocks(blocks, case):
    space = blocks(case[1], case[0])
    assert doubling_constant(space) == oracles.naive_doubling(space)


def _planted(plants):
    """A ball functional that is 0 except at the planted (center, prefix) balls."""

    def values(block):
        out = np.zeros(block.values.size)
        b = block.starts.size - 1
        for c, k, value in plants:
            if block.c0 <= c < block.c0 + b:
                out[block.starts[c - block.c0] + k] = value
        return out

    return values


@pytest.mark.parametrize("size", [None, 7])
def test_equal_maxima_in_two_blocks_go_to_the_first_center(blocks, size):
    space = blocks(build_grid_space(1, 130, 1.0), size)
    cb = space.canonical
    # blocks of 7 centers put 70 and 129 in different blocks
    plants = [(129, 2, 5.0), (70, 3, 5.0), (100, 1, 4.0)]
    assert cb.sup(_planted(plants), "planted") == (5.0, (70, 3))
    domain = np.ones(space.n, dtype=bool)
    domain[[69, 70, 71, 72]] = False  # every ball of 70 leaves the domain
    assert cb.sup(_planted(plants), "planted", domain) == (5.0, (129, 2))
    # a block whose first center (98 in blocks of 7) is outside D still counts
    domain = np.ones(space.n, dtype=bool)
    domain[[64, 70, 98]] = False
    assert cb.sup(_planted([(100, 1, 5.0), (129, 2, 5.0), (70, 3, 6.0)]), "planted", domain) == (
        5.0, (100, 1)
    )
    # A ball in scope whose value is NaN or +inf is a range fault (a center
    # with a NaN ball took no part); a ball that leaves D is out of scope first.
    for bad in (np.nan, np.inf):
        faulty = _planted(plants + [(65, 0, bad), (65, 1, 9.0)])
        with pytest.raises(ExponentRange, match="^planted$"):
            cb.sup(faulty, "planted")
        outside_65 = np.arange(space.n) != 65
        assert cb.sup(faulty, "planted", outside_65) == (5.0, (70, 3))
    nothing = np.zeros(space.n, dtype=bool)
    assert cb.sup(_planted(plants), "planted", nothing) == (-np.inf, (-1, -1))
    # sups answers each of several rows in one pass as sup does
    rows = [_planted(plants), _planted(plants + [(65, 1, 9.0)]), _planted([])]
    for mask in (None, domain, nothing):
        got = cb.sups(lambda block: np.stack([f(block) for f in rows]), len(rows), "planted", mask)
        assert got == [cb.sup(f, "planted", mask) for f in rows]
    rows[2] = _planted([(3, 1, np.nan)])
    with pytest.raises(ExponentRange, match="^planted$"):
        cb.sups(lambda block: np.stack([f(block) for f in rows]), len(rows), "planted")


@pytest.mark.parametrize("size", [None, 7])
def test_center_views_hold_each_centers_prefixes(blocks, size):
    space = blocks(build_grid_space(2, 9, 1.0 / 3.0), size)
    for c in (0, 6, 7, 63, 64, 80):
        data = space.canonical.center(c)
        row = space.dist_row(c)
        assert data.order.shape == data.point_prefix.shape == (space.n,)
        np.testing.assert_array_equal(data.values, np.unique(row))
        for k, v in enumerate(data.values):
            members = np.flatnonzero(row <= v)
            np.testing.assert_array_equal(np.sort(data.order[: data.counts[k]]), members)
            np.testing.assert_array_equal(np.flatnonzero(data.point_prefix <= k), members)


def test_the_cache_holds_two_byte_tables_and_three_arrays_per_ball():
    # A guard on the layout: order and point_prefix (two bytes each) are the
    # only b x n tables; ends (two bytes), values and mu_prefix the only
    # per-ball arrays; and starts has one entry per center and one per block.
    space = build_grid_space(2, 45, 1 / 22)
    cb = space.canonical
    n, balls = space.n, cb.ball_count()
    owners = {}
    for block in cb:
        for name in block.__slots__:
            array = getattr(block, name)
            if isinstance(array, np.ndarray):
                while array.base is not None:
                    array = array.base
                owners[id(array)] = array.nbytes
    starts = (n + len(list(cb))) * 8
    assert sum(owners.values()) == n * n * (2 + 2) + balls * (2 + 8 + 8) + starts


def test_point_prefix_holds_every_prefix_of_a_space_of_dense_cap_points():
    # On a line of DENSE_CAP points center 0 has DENSE_CAP distinct distances,
    # so its last prefix number is the largest the two-byte table must hold.
    space = build_grid_space(1, space_mod.DENSE_CAP, 1.0)
    assert space.n == space_mod.DENSE_CAP
    data = space.canonical.center(0)
    assert data.point_prefix.dtype == data.order.dtype == data.ends.dtype == np.int16
    assert data.point_prefix.max() == space_mod.DENSE_CAP - 1
    row = space.dist_row(0)
    for k in (0, space_mod.DENSE_CAP // 2, space_mod.DENSE_CAP - 1):
        np.testing.assert_array_equal(
            np.flatnonzero(data.point_prefix <= k), np.flatnonzero(row <= data.values[k])
        )


def _nan_inf_matrix():
    """An unvalidated 40-point matrix of few integer values, NaNs of distinct
    payloads, infinities and -0.0: the sort leaves such ties in any order."""
    rng = np.random.default_rng(23)
    d = rng.integers(0, 6, size=(40, 40)).astype(float)
    for value, share in ((np.nan, 0.2), (np.inf, 0.1), (-np.inf, 0.05), (-0.0, 0.1)):
        d[rng.random(d.shape) < share] = value
    nans = np.isnan(d)
    d.view(np.int64)[nans] |= rng.integers(0, 1024, size=nans.sum())
    return space_from_matrix(d, rng.lognormal(size=40), meta="nan-inf")


def _tie_spaces():
    rng = np.random.default_rng(2048)
    return [
        build_grid_space(1, space_mod.DENSE_CAP, 1.0),  # the key's 11 id bits all in use
        build_grid_space(2, 30, 1 / 7),
        build_grid_space(3, 9, 0.7),
        space_from_matrix(rng.integers(0, 5, size=(300, 300)).astype(float),
                          rng.lognormal(size=300), meta="integers"),
        MetricMeasureSpace(mu=rng.lognormal(size=200),
                           coords=rng.integers(0, 4, size=(200, 2)).astype(float),
                           meta="repeated points"),
        _nan_inf_matrix(),
    ]


@pytest.mark.parametrize("space", _tie_spaces(), ids=lambda s: s.meta)
def test_every_table_equals_the_stable_sort_oracle(space):
    # The build sorts with an unstable argsort and restores id order in
    # ties with a (run, id) key; every table, bit for bit, is the one a
    # stable argsort of each dist_row gives.
    for block in space.canonical:
        want = oracles.stable_block_tables(space, block.c0, block.c0 + block.order.shape[0])
        for name, table in want.items():
            got = getattr(block, name)
            if table.dtype.kind == "f":
                got, table = got.view(np.int64), table.view(np.int64)
            np.testing.assert_array_equal(got, table, err_msg=f"{name} at c0 = {block.c0}")


def test_the_nan_ties_of_a_center_come_in_id_order():
    # Center 3 of the matrix has 8 NaNs, 14 to 37: each is a ball of its
    # own, last, in id order, which an unstable argsort alone does not keep.
    space = _nan_inf_matrix()
    row = space.dist_row(3)
    nans = np.flatnonzero(np.isnan(row))
    data = space.canonical.center(3)
    np.testing.assert_array_equal(data.order[-nans.size:], nans)
    assert np.isnan(data.values[-nans.size:]).all() and data.counts[-1] == space.n


@pytest.mark.parametrize("n, rows", [(512, 64), (2048, 16)])
def test_a_full_block_ends_at_the_largest_two_byte_index(n, rows):
    # b * n = CANONICAL_BLOCK_CELLS: on a line every center's last ball ends
    # its row, so the block's last flat end is 32767, the int16 maximum.
    space = build_grid_space(1, n, 1.0)
    cb = space.canonical
    assert rows * n == space_mod.CANONICAL_BLOCK_CELLS
    block = list(cb)[-1]
    assert block.order.shape == (rows, n) and block.c0 == n - rows
    assert block.ends.dtype == np.int16
    assert block.ends[-1] == np.iinfo(np.int16).max
    # The narrow tables read as their intp values do.
    order = np.vstack([np.argsort(space.dist_row(c), kind="stable") for c in range(n - rows, n)])
    ends = block.ends.astype(np.intp)
    np.testing.assert_array_equal(block.order, order)
    np.testing.assert_array_equal(ends[block.starts[1:] - 1], np.arange(1, rows + 1) * n - 1)
    f = np.random.default_rng(n).lognormal(size=n)
    np.testing.assert_array_equal(block.prefix_sums(f), np.cumsum(f[order], axis=1).ravel()[ends])
    np.testing.assert_array_equal(
        block.prefix_mins(f), np.minimum.accumulate(f[order], axis=1).ravel()[ends]
    )
    np.testing.assert_array_equal(block.counts, ends % n + 1)
    last = block.center(rows - 1)
    assert last.counts[-1] == n and last.ends[-1] == n - 1
    _, members = canonical_balls(space, n - 1)[-1]
    assert members.dtype == np.intp
    np.testing.assert_array_equal(members, order[-1])


def test_a_sweep_over_full_blocks_equals_one_over_blocks_of_7(blocks):
    # On a line of 512 points every block's padded table ends at flat index
    # 64 * 512 - 1 = 32767, the largest the two-byte gather index can hold.
    space = blocks(build_grid_space(1, 512, 1.0))
    f = np.random.default_rng(512).lognormal(size=space.n)
    e_ids = np.arange(0, space.n, 3)
    full = [maximal_fn(space, f), maximal_fn(space, f[e_ids], e_ids)]
    assert list(space.canonical)[0].order.shape == (64, 512)
    space = blocks(space, 7)
    for got, fe, e in zip(full, (f, f[e_ids]), (None, e_ids)):
        assert got.tobytes() == maximal_fn(space, fe, e).tobytes()


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_restriction_evaluates_each_functional_once_per_block(monkeypatch, p):
    # One pass: the restricted and the global functional each take their
    # prefix sums once per block (two each at p > 1, one each at p = 1),
    # for the ratio and both characteristics together.
    space = build_grid_space(2, 12, 1.0)
    space.canonical  # built before the count starts
    calls = []
    prefix_sums = space_mod._CenterBlock.prefix_sums

    def counted(block, point_values):
        calls.append(block.c0)
        return prefix_sums(block, point_values)

    monkeypatch.setattr(space_mod._CenterBlock, "prefix_sums", counted)
    e_mask = np.arange(space.n) % 3 != 0
    w = np.linspace(1.0, 2.0, space.n)
    restrict_weight_report(space, e_mask, w, p, eps=0.25)
    per_block = 4 if p > 1 else 2
    assert len(calls) == per_block * len(list(space.canonical))
    assert sorted(set(calls)) == [block.c0 for block in space.canonical]


# -- the cache's view on E's columns -------------------------------------------------


def _view_spaces():
    """A line, a 2-D grid (many ties) and a 3-D cloud, each on coordinates
    and as a matrix."""
    rng = np.random.default_rng(20261020)
    cloud = MetricMeasureSpace(mu=rng.lognormal(sigma=0.5, size=60),
                               coords=rng.uniform(size=(60, 3)), meta="cloud")
    spaces = {"line": interval_space(24), "grid": build_grid_space(2, 9, 0.5), "cloud": cloud}
    out = {}
    for name, space in spaces.items():
        out[f"{name}-coords"] = space
        out[f"{name}-matrix"] = space_from_matrix(space.dist_matrix(), space.mu)
    return out


VIEW_SPACES = _view_spaces()


def _view_subset(n, kind, rng):
    if kind == "one point":
        return np.array([n // 3])
    if kind == "a random half":
        return np.flatnonzero(rng.permutation(n) < n // 2)
    if kind == "all but one":
        return np.delete(np.arange(n), n // 3)
    return np.arange(n)


@pytest.mark.parametrize("size", [None, 7])
@pytest.mark.parametrize("kind", ["one point", "a random half", "all but one", "all"])
@pytest.mark.parametrize("name", VIEW_SPACES)
def test_the_sweep_on_e_columns_is_maximal_fn_at_e(blocks, name, kind, size):
    # The factorization's warm-up sweep: f on E, zeros and values over 10^+-8.
    space = blocks(VIEW_SPACES[name], size)
    rng = np.random.default_rng(len(name) + len(kind))
    ids = _view_subset(space.n, kind, rng)
    f = 10.0 ** rng.uniform(-8.0, 8.0, ids.size)
    f[rng.random(ids.size) < 0.3] = 0.0
    view = space.canonical.columns(ids)
    got = _sweep(view.sweep(scatter(space, ids, f) * space.mu, np.zeros(ids.size)))
    assert got.tobytes() == maximal_fn(space, f, ids)[ids].tobytes()
    mask = np.zeros(space.n, dtype=bool)
    mask[ids] = True
    want = oracles.naive_maximal(space, scatter(space, ids, f), mask)[ids]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    if ids.size == space.n:
        assert view is space.canonical  # the cache's own sweep, no table added
    else:
        assert isinstance(view, space_mod._ColumnView)


@pytest.mark.parametrize("size", [None, 7])
def test_the_view_holds_each_cells_point_smallest_ball_mass_and_reversed_index(blocks, size):
    space = blocks(build_grid_space(2, 9, 0.5), size)
    ids = np.flatnonzero(np.random.default_rng(3).random(space.n) < 0.4)
    mask = np.zeros(space.n, dtype=bool)
    mask[ids] = True
    m, cells = ids.size, 0
    view = space.canonical.columns(ids)
    assert len(view.blocks) == len(list(space.canonical))
    for full, (order, mass, at) in zip(space.canonical, view.blocks):
        b = full.order.shape[0]
        assert order.shape == mass.shape == at.shape == (b, m)
        assert order.dtype == at.dtype == np.int16 and mass.dtype == np.float64
        for i in range(b):
            # E's points in canonical order
            np.testing.assert_array_equal(order[i], full.order[i][mask[full.order[i]]])
            # each cell's mass is that of its point's distance group's ball,
            # the smallest ball of the center that holds the point (kept, as
            # its last group holds the point), summed in canonical order
            row = space.dist_row(full.c0 + i)
            sizes = np.count_nonzero(row[None, :] <= row[order[i], None], axis=1)
            want = np.cumsum(space.mu[full.order[i]])[sizes - 1]
            assert mass[i].tobytes() == want.tobytes()
            # column j's index in the row-reversed table is that of its cell
            k = m - 1 - (at[i] - i * m)
            np.testing.assert_array_equal(order[i, k], ids)
        cells += order.size
    nbytes = sum(table.nbytes for tables in view.blocks for table in tables)
    assert cells == space.n * m and nbytes == 12 * space.n * m


def test_a_cell_mass_one_ulp_low_moves_the_view_sweep():
    # A planted fault: with f the indicator of a point x of E, m_E f(x) = 1,
    # the average over the singleton {x}, read at x's own cell of center x's
    # row; a mass one ulp low there gives mu(x) / mu(x)- > 1.
    space = build_grid_space(2, 9, 0.5)
    ids = np.flatnonzero(np.random.default_rng(4).random(space.n) < 0.5)
    j = ids.size // 2
    x = int(ids[j])
    f = (ids == x).astype(float)
    view = space.canonical.columns(ids)
    fx_mu = scatter(space, ids, f) * space.mu
    want = maximal_fn(space, f, ids)[ids]
    assert _sweep(view.sweep(fx_mu, np.zeros(ids.size))).tobytes() == want.tobytes()
    rows = list(space.canonical)[0].order.shape[0]
    order, mass, _ = view.blocks[x // rows]
    cell = x % rows, int(np.flatnonzero(order[x % rows] == x)[0])
    mass[cell] = np.nextafter(mass[cell], 0.0)
    got = _sweep(view.sweep(fx_mu, np.zeros(ids.size)))
    assert got.tobytes() != want.tobytes()
    assert got[j] > 1.0 == want[j]
