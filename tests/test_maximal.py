import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from metricweights import (
    ap_tilde_characteristic,
    build_grid_space,
    coifman_rochberg_weight,
    maximal_fn,
)
from metricweights.errors import (
    EmptySubset,
    ExponentRange,
    InvalidParameter,
    NonpositiveG,
    ZeroFunction,
)
from metricweights.maximal import as_subset
from metricweights.studies import interval_space, unit_band_subset
from metricweights.weights import holder_average_bound_margin, power_weight


def test_indicator_average_at_far_endpoint(s3):
    out = maximal_fn(s3, np.array([1.0]), E=np.array([0]))
    # balls containing point 2: {2}, {1,2}, {0,1,2}; best average is 1/3
    assert out[2] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_radius_cap_removes_large_balls(s3):
    out = maximal_fn(s3, np.array([1.0]), E=np.array([0]), radius_cap=1.0)
    assert out[2] == 0.0


def test_radius_cap_keeps_exactly_the_balls_of_radius_at_most_the_cap(s3):
    # The ball {1, 2} is B(2, r) for every r in (1, 2]: a cap just above 1
    # keeps it, a cap of 1 does not.
    f, E = np.array([1.0]), np.array([1])
    assert maximal_fn(s3, f, E=E, radius_cap=1.0)[2] == 0.0
    assert maximal_fn(s3, f, E=E, radius_cap=np.nextafter(1.0, 2.0))[2] == 0.5


def test_a_nan_in_f_is_an_invalid_parameter(s3):
    f = np.array([1.0, np.nan, 2.0])
    with pytest.raises(InvalidParameter):
        maximal_fn(s3, f)
    with pytest.raises(InvalidParameter):
        maximal_fn(s3, f[1:2], E=np.array([1]))


def test_cap_is_pointwise_monotone(rng):
    space = oracles.random_metric_space(rng, 12)
    f = oracles.random_weight(rng, 12)
    capped = maximal_fn(space, f, radius_cap=1.5)
    free = maximal_fn(space, f)
    assert np.all(capped <= free + 1e-15)


def test_restricted_equals_global_of_masked_function(rng):
    space = oracles.random_metric_space(rng, 15)
    f = oracles.random_weight(rng, 15)
    e_mask = rng.random(15) < 0.5
    e_mask[0] = True
    restricted = maximal_fn(space, f[np.flatnonzero(e_mask)], E=e_mask)
    masked = maximal_fn(space, np.where(e_mask, f, 0.0))
    assert np.array_equal(restricted, masked)


def test_maximal_dominates_the_function(rng):
    space = oracles.random_metric_space(rng, 20)
    f = oracles.random_weight(rng, 20)
    out = maximal_fn(space, f)
    assert np.all(out >= f * (1 - 1e-12))


@given(st.integers(min_value=0, max_value=10_000))
def test_maximal_matches_naive_enumeration(seed):
    rng = np.random.default_rng(seed)
    space = oracles.random_metric_space(rng, int(rng.integers(2, 12)))
    f = oracles.random_weight(rng, space.n)
    e_mask = rng.random(space.n) < 0.6
    if not e_mask.any():
        e_mask[int(rng.integers(space.n))] = True
    cap = float(rng.uniform(0.5, 4.0)) if rng.random() < 0.5 else None
    fast = maximal_fn(space, f[np.flatnonzero(e_mask)], E=e_mask, radius_cap=cap)
    slow = oracles.naive_maximal(space, f, e_mask, cap)
    assert np.allclose(fast, slow, rtol=1e-12, atol=0)


def test_empty_subset_rejected(s3):
    with pytest.raises(EmptySubset):
        maximal_fn(s3, np.ones(3), E=np.zeros(3, dtype=bool))


def test_subset_ids_must_be_whole_numbers():
    line = build_grid_space(1, 8, 1.0)
    np.testing.assert_array_equal(as_subset(line, [2.0, 3.0])[0], [2, 3])
    for ids in ([2.7, 3.0], [np.nan, 3.0], [np.inf], ["2"]):
        with pytest.raises(InvalidParameter):
            as_subset(line, ids)


def test_subset_ids_out_of_range_are_an_invalid_parameter():
    line = build_grid_space(1, 8, 1.0)
    for ids in ([-1, 3], [3, 8]):
        with pytest.raises(InvalidParameter):
            as_subset(line, ids)
        with pytest.raises(ValueError):  # InvalidParameter is also a ValueError
            maximal_fn(line, np.ones(2), E=ids)


def test_power_of_maximal_frozen_three_point_weight(s3):
    f = np.array([1.0, 0.0, 0.0])
    w, a1 = coifman_rochberg_weight(s3, f, eps=0.5)
    assert np.allclose(w, [1.0, np.sqrt(0.5), np.sqrt(1.0 / 3.0)], rtol=1e-12)
    expected = ((1.0 + np.sqrt(0.5) + np.sqrt(1.0 / 3.0)) / 3.0) / np.sqrt(1.0 / 3.0)
    assert a1 == pytest.approx(expected, rel=1e-12)
    assert a1 == pytest.approx(1.3190, abs=5e-4)


def test_power_of_maximal_constant_function(s3):
    w, a1 = coifman_rochberg_weight(s3, np.ones(3), eps=0.7)
    assert np.allclose(w, 1.0)
    assert a1 == pytest.approx(1.0, rel=1e-12)


def test_power_of_maximal_rejects_zero_function(s3):
    with pytest.raises(ZeroFunction):
        coifman_rochberg_weight(s3, np.zeros(3), eps=0.5)


def test_power_of_maximal_rejects_bad_exponent_and_g(s3):
    f = np.ones(3)
    with pytest.raises(ExponentRange):
        coifman_rochberg_weight(s3, f, eps=1.0)
    with pytest.raises(ExponentRange):
        coifman_rochberg_weight(s3, f, eps=0.0)
    # NaN passes a "g <= 0" test; it and inf are g's fault, not the weight's.
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(NonpositiveG):
            coifman_rochberg_weight(s3, f, eps=0.5, g=np.array([1.0, bad, 1.0]))


def test_generated_weights_satisfy_the_pointwise_sandwich(rng):
    # w <= m_E w <= K w on E, K the subset-induced avg/min characteristic
    for _ in range(8):
        space = oracles.random_metric_space(rng, int(rng.integers(4, 24)))
        f = oracles.random_weight(rng, space.n)
        w, _ = coifman_rochberg_weight(space, f, eps=float(rng.uniform(0.1, 0.9)))
        e_mask = rng.random(space.n) < 0.5
        if not e_mask.any():
            e_mask[0] = True
        ids = np.flatnonzero(e_mask)
        k = ap_tilde_characteristic(space, ids, w[ids], 1.0).value
        m = maximal_fn(space, w[ids], E=ids)[ids]
        assert np.all(w[ids] <= m * (1 + 1e-12))
        assert np.all(m <= k * w[ids] * (1 + 1e-12))


def test_average_bound_by_characteristic_over_all_balls(rng):
    # v(B n E) (avg_B |g|)^q <= [v]_q * integral of |g|^q v over B n E
    for q in (1.0, 2.0, 3.5):
        space = oracles.random_metric_space(rng, 14)
        e_mask = rng.random(space.n) < 0.6
        e_mask[:2] = True
        ids = np.flatnonzero(e_mask)
        v = oracles.random_weight(rng, ids.size)
        char = ap_tilde_characteristic(space, ids, v, q).value
        for _ in range(10):
            g = rng.normal(size=ids.size)
            margin = holder_average_bound_margin(space, ids, v, q, g)
            assert margin <= char * (1 + 1e-10)


def _weak_type_constant(space, e_ids, v, f_on_e, q):
    m = maximal_fn(space, np.abs(f_on_e), E=e_ids)[e_ids]
    mu_e = space.mu[e_ids]
    rhs = float(np.sum(np.abs(f_on_e) ** q * v * mu_e))
    best = 0.0
    for t in np.quantile(m, [0.1, 0.3, 0.5, 0.7, 0.9]):
        if t <= 0:
            continue
        lhs = float(np.sum(v[m > t] * mu_e[m > t]))
        best = max(best, lhs * t**q / rhs)
    return best


def test_weak_type_constant_is_refinement_stable():
    # same continuous scenario at doubling resolutions; the empirical
    # weak-type constant may wobble but not blow up
    q = 2.0
    consts = []
    for side in (8, 16, 32):
        space = interval_space(side)
        e_ids = unit_band_subset(space)
        v = power_weight(space, 0.5, ids=e_ids) ** (1.0 + 0.25)
        f_on_e = 1.0 + np.sin(np.arange(e_ids.size))
        consts.append(_weak_type_constant(space, e_ids, v, f_on_e, q))
    assert consts[1] <= 4.0 * consts[0]
    assert consts[2] <= 4.0 * consts[1]


def test_strong_type_constant_is_refinement_stable():
    p, eps = 2.0, 0.25
    consts = []
    for side in (8, 16, 32):
        space = interval_space(side)
        e_ids = unit_band_subset(space)
        v = power_weight(space, 0.5, ids=e_ids) ** (1.0 + eps)
        f_on_e = 1.0 + np.cos(np.arange(e_ids.size))
        m = maximal_fn(space, f_on_e, E=e_ids)[e_ids]
        mu_e = space.mu[e_ids]
        num = float(np.sum(m**p * v * mu_e))
        den = float(np.sum(f_on_e**p * v * mu_e))
        consts.append(num / den)
    assert consts[1] <= 4.0 * consts[0]
    assert consts[2] <= 4.0 * consts[1]
