import numpy as np
import pytest

import metricweights
import oracles
from metricweights import (
    ap_tilde_characteristic,
    check_extension_condition,
    maximal_fn,
    restrict_weight_report,
    wolff_extend,
)
from metricweights.errors import ExponentRange, InvalidParameter, NonpositiveWeight
from metricweights.maximal import as_subset
from metricweights.space import REL_TOL
from metricweights.studies import interval_space, unit_band_subset
from metricweights.weights import power_weight

P_GRID = [1.0, 1.5, 2.0, 3.0]


def _random_fixture(rng, n_max=25, n_min=2):
    n = int(rng.integers(n_min, n_max))
    space = oracles.random_metric_space(rng, n)
    e_mask = rng.random(n) < 0.6
    e_mask[int(rng.integers(0, n))] = True
    ids = np.flatnonzero(e_mask)
    w = oracles.random_weight(rng, ids.size, sigma=0.8)
    return space, e_mask, ids, w


# -- the extension pipeline ----------------------------------------------------------


def test_singleton_subset_extension_pins_the_value(s3):
    rep = wolff_extend(s3, np.array([0]), np.array([4.0]), 2.0, eps=1.0)
    assert rep.W[0] == pytest.approx(4.0, rel=1e-12)
    assert np.all(rep.W > 0)
    assert rep.delta == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert rep.agreement_error <= 1e-12


@pytest.mark.parametrize("kind", ["line", "grid", "matrix"])
def test_at_p_1_W_is_g_times_the_damped_maximal_function_bit_for_bit(kind):
    # p = 1 takes the formula of every p: the v2 factors are powers 0.0, so 1.0
    rng = np.random.default_rng(7)
    space = {
        "line": lambda: interval_space(8),
        "grid": lambda: metricweights.build_grid_space(2, 6, 0.5),
        "matrix": lambda: oracles.random_metric_space(rng, 23),
    }[kind]()
    e_mask = rng.random(space.n) < 0.5
    e_mask[0] = True
    ids = np.flatnonzero(e_mask)
    rep = wolff_extend(space, e_mask, oracles.random_weight(rng, ids.size), 1.0, eps=0.5)
    fact = rep.factorization
    assert fact.branch == "p=1"
    np.testing.assert_array_equal(fact.v2, 1.0)
    assert rep.W.tobytes() == (rep.g * fact.m_v1**rep.delta).tobytes()
    g = np.ones(space.n)
    g[ids] = (fact.v1 / fact.m_v1[ids]) ** rep.delta
    assert rep.g.tobytes() == g.tobytes()


def test_agreement_on_random_fixtures(rng):
    for p in P_GRID:
        for _ in range(3):
            space, e_mask, ids, w = _random_fixture(rng)
            rep = wolff_extend(space, e_mask, w, p, eps=0.7)
            assert rep.agreement_error <= 1e-9
            np.testing.assert_allclose(rep.W[ids], w, rtol=1e-9)
            assert np.all(rep.W > 0)
            assert np.all(np.isfinite(rep.W))


def test_correction_factor_is_one_off_the_subset_and_sandwiched_on_it(rng):
    space, e_mask, ids, w = _random_fixture(rng)
    p = 2.0
    rep = wolff_extend(space, e_mask, w, p, eps=1.0)
    off = np.ones(space.n, dtype=bool)
    off[ids] = False
    np.testing.assert_array_equal(rep.g[off], 1.0)

    fact = rep.factorization
    m1 = maximal_fn(space, fact.v1, e_mask)[ids]
    m2 = maximal_fn(space, fact.v2, e_mask)[ids]
    g1 = fact.v1 / m1
    g2 = fact.v2 / m2
    assert np.all(g1 <= 1.0 + 1e-12)
    assert np.all(g2 <= 1.0 + 1e-12)
    assert np.all(g1 >= rep.g_lower_bound_v1 * (1.0 - 1e-12))
    assert np.all(g2 >= rep.g_lower_bound_v2 * (1.0 - 1e-12))


def test_subset_characteristic_never_exceeds_the_global_one(rng):
    for p in (1.0, 2.0, 3.0):
        space, e_mask, ids, w = _random_fixture(rng)
        rep = wolff_extend(space, e_mask, w, p, eps=0.5)
        inner = ap_tilde_characteristic(space, e_mask, w, p).value
        assert inner <= rep.ap_constant_W * (1.0 + 1e-6)


def test_p_equal_one_pipeline(rng):
    space, e_mask, ids, w = _random_fixture(rng)
    rep = wolff_extend(space, e_mask, w, 1.0, eps=0.8)
    assert rep.agreement_error <= 1e-9
    fact = rep.factorization
    np.testing.assert_array_equal(fact.v2, 1.0)
    m1 = maximal_fn(space, fact.v1, e_mask)
    np.testing.assert_allclose(
        rep.W, rep.g * m1**rep.delta, rtol=1e-12
    )


def _reverse_factorization_bound(space, rep):
    """sup g * sup(1/g) * [V1]_{A_1} * [V2]_{A_1}^{p-1}, V_i = (m_E v_i)^delta on X;
    at p = 1, (sup g / inf g) * [V1]_{A_1}."""
    fact = rep.factorization

    def a1(m):
        return ap_tilde_characteristic(space, None, m**rep.delta, 1.0).value

    bound = rep.g.max() / rep.g.min() * a1(fact.m_v1)
    return bound * a1(fact.m_v2) ** (rep.p - 1.0) if rep.p > 1 else bound


def _assert_within_reverse_factorization_bound(space, rep, W):
    # Both sides are maxima over the same canonical balls, so W = g V1 V2^{1-p}
    # meets the bound in exact arithmetic. In floats the two sides can tie
    # (measured at p = 1 with |E| of 1 or 2), and W, the V_i and every ball
    # average each round by a few ulps per term over at most n terms, so the
    # left side may pass the computed bound by some n * 1e-16: allow REL_TOL.
    ap_w = ap_tilde_characteristic(space, None, W, rep.p).value
    assert ap_w <= _reverse_factorization_bound(space, rep) * (1.0 + REL_TOL)


def test_extension_meets_the_reverse_factorization_bound_on_random_fixtures(rng):
    for p in P_GRID:
        for _ in range(60):
            space, e_mask, _, w = _random_fixture(rng, n_max=60, n_min=3)
            rep = wolff_extend(space, e_mask, w, p, eps=0.5)
            _assert_within_reverse_factorization_bound(space, rep, rep.W)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_extension_meets_the_reverse_factorization_bound_on_the_band(p):
    space = interval_space(64)
    e_ids = unit_band_subset(space)
    rep = wolff_extend(space, e_ids, power_weight(space, 0.5, ids=e_ids), p, eps=0.5)
    _assert_within_reverse_factorization_bound(space, rep, rep.W)
    # The check sees a W raised past the bound at one point.
    planted = rep.W.copy()
    planted[space.n // 4] *= 1e3 * _reverse_factorization_bound(space, rep)
    with pytest.raises(AssertionError):
        _assert_within_reverse_factorization_bound(space, rep, planted)


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_extension_takes_at_most_twenty_maximal_sweeps(monkeypatch, p):
    space = interval_space(64)
    e_ids = unit_band_subset(space)
    w = power_weight(space, 0.5, ids=e_ids)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return maximal_fn(*args, **kwargs)

    # the binding sites the pipeline can reach it through
    for name in ("factorization", "extension"):
        module = getattr(metricweights, name)
        if getattr(module, "maximal_fn", None) is maximal_fn:
            monkeypatch.setattr(module, "maximal_fn", counted)
    rep = wolff_extend(space, e_ids, w, p, eps=0.5)
    # one two-sweep verification; the 8 warm-up iterates of two sweeps each
    # run on the cache's view on E's columns, not through maximal_fn; summing
    # the series to a 1e-12 tail took 86
    assert 0 < len(calls) <= 20

    fact = rep.factorization
    m1 = maximal_fn(space, fact.v1, e_ids)
    m2 = maximal_fn(space, fact.v2, e_ids)
    expected = rep.g * m1**rep.delta * m2 ** (rep.delta * (1.0 - p))
    np.testing.assert_array_equal(rep.W, expected)


def test_extend_rejects_bad_inputs(s3):
    w = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ExponentRange):
        wolff_extend(s3, None, w, 0.5, eps=1.0)
    with pytest.raises(ExponentRange):
        wolff_extend(s3, None, w, 2.0, eps=0.0)
    with pytest.raises(NonpositiveWeight):
        wolff_extend(s3, None, np.array([1.0, 0.0, 3.0]), 2.0, eps=1.0)
    with pytest.raises(ValueError):
        wolff_extend(s3, np.array([0]), w, 2.0, eps=1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w", [np.ones(5), np.array([2.0, 1.0, 1.0, 1.0, 1.0])])
def test_an_infinite_margin_is_an_exponent_range(w):
    # It returned delta 0.0 and eps inf for w = 1, which no report can hold,
    # and blamed w ** (1 + eps/2) for w = [2, 1, 1, 1, 1].
    with pytest.raises(ExponentRange, match="eps must be positive and finite"):
        wolff_extend(interval_space(2), None, w, 2.0, np.inf)


def test_a_nan_weight_is_an_input_error(line11):
    # Not a NoConvergence from the factorization it would reach.
    w = np.where(np.arange(line11.n) == 4, np.nan, 1.0)
    with pytest.raises(NonpositiveWeight):
        wolff_extend(line11, None, w, 2.0, eps=1.0)
    with pytest.raises(NonpositiveWeight):
        restrict_weight_report(line11, None, w, 2.0)


def test_report_dict_round_trips_the_diagnostics(s3):
    rep = wolff_extend(s3, np.array([0, 1]), np.array([1.0, 4.0]), 2.0, eps=1.0)
    doc = rep.to_dict()
    assert doc["agreement_error"] == rep.agreement_error
    assert doc["ap_constant_W"] == rep.ap_constant_W
    assert set(doc) >= {"delta", "p", "eps", "g_lower_bound_v1", "g_lower_bound_v2"}


# -- the raised-power condition ------------------------------------------------------


def test_condition_table_on_the_two_point_space(s2):
    rep = check_extension_condition(
        s2, None, np.array([1.0, 4.0]), 2.0, [0.0, 1.0], budget=2.0
    )
    assert rep.best_eps == 0.0
    table = dict(rep.table)
    assert table[0.0] == pytest.approx(1.5625, rel=1e-12)
    assert table[1.0] == pytest.approx(4.515625, rel=1e-12)


def test_condition_budget_edge_cases(s2):
    w = np.array([1.0, 4.0])
    roomy = check_extension_condition(s2, None, w, 2.0, [0.0, 1.0], budget=5.0)
    assert roomy.best_eps == 1.0
    hopeless = check_extension_condition(s2, None, w, 2.0, [0.0, 1.0], budget=1.1)
    assert hopeless.best_eps is None
    with pytest.raises(ValueError):
        check_extension_condition(s2, None, w, 2.0, [], budget=1.0)
    with pytest.raises(ValueError):
        check_extension_condition(s2, None, w, 2.0, [-0.5], budget=1.0)
    for grid in ([0.0, -0.5], [0.0, np.nan], [np.inf]):
        with pytest.raises(InvalidParameter):
            check_extension_condition(s2, None, w, 2.0, grid, budget=1.0)


# -- restriction ---------------------------------------------------------------------


def test_restriction_never_amplifies(rng):
    for p in (1.0, 2.0):
        for _ in range(4):
            n = int(rng.integers(2, 20))
            space = oracles.random_metric_space(rng, n)
            W = oracles.random_weight(rng, n)
            e_mask = rng.random(n) < 0.5
            e_mask[int(rng.integers(0, n))] = True
            rep = restrict_weight_report(space, e_mask, W, p, eps=0.3)
            assert rep.max_ratio <= 1.0
            assert rep.restricted.value <= rep.global_.value * (1.0 + 1e-12)


def test_restriction_characteristics_match_direct_calls(rng):
    for p in P_GRID:
        n = int(rng.integers(2, 20))
        space = oracles.random_metric_space(rng, n)
        W = oracles.random_weight(rng, n)
        e_mask = rng.random(n) < 0.5
        e_mask[int(rng.integers(0, n))] = True
        ids = np.flatnonzero(e_mask)
        rep = restrict_weight_report(space, e_mask, W, p, eps=0.3)
        u = W ** (1.0 + 0.3)
        assert rep.restricted == ap_tilde_characteristic(space, e_mask, u[ids], p)
        assert rep.global_ == ap_tilde_characteristic(space, None, u, p)


def test_restricting_to_everything_is_an_identity(line11, rng):
    W = oracles.random_weight(rng, line11.n)
    rep = restrict_weight_report(line11, None, W, 2.0)
    assert rep.max_ratio == 1.0
    assert rep.restricted.value == rep.global_.value


def test_restriction_of_an_extended_weight(s3):
    e_ids = np.array([0, 1])
    ext = wolff_extend(s3, e_ids, np.array([1.0, 4.0]), 2.0, eps=1.0)
    rep = restrict_weight_report(s3, e_ids, ext.W, 2.0)
    assert rep.max_ratio <= 1.0


def test_restrict_rejects_bad_inputs(s3):
    W = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        restrict_weight_report(s3, None, W[:-1], 2.0)
    with pytest.raises(ExponentRange):
        restrict_weight_report(s3, None, W, 2.0, eps=-0.1)
    with pytest.raises(NonpositiveWeight):
        restrict_weight_report(s3, None, np.array([1.0, -2.0, 3.0]), 2.0)
