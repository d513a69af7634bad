import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from metricweights import (
    ap_domain_characteristic,
    ap_tilde_characteristic,
    build_grid_space,
    conjugate_exponent,
    power_weight,
    reverse_holder_constant,
    self_improve_epsilon,
)
from metricweights.errors import BudgetExceededAtZero, ExponentRange, NonpositiveWeight
from metricweights.extension import check_extension_condition, restrict_weight_report, wolff_extend
from metricweights.factorization import jones_factorize, rdf_apply_T
from metricweights.space import REL_TOL
from metricweights.studies import interval_space
from metricweights.weights import holder_average_bound_margin

P_GRID = [1.0, 1.5, 2.0, 3.0]


# -- frozen small-space values ---------------------------------------------------


def test_singleton_subset_has_unit_characteristic(s2):
    rep = ap_tilde_characteristic(s2, np.array([0]), np.array([1.0]), 2.0)
    assert rep.value == 1.0
    assert (rep.witness_center, rep.witness_prefix) == (0, 0)


def test_two_point_global_a2(s2):
    # ball {0,1}: avg w = 5/2, avg 1/w = 5/8, product 25/16
    rep = ap_tilde_characteristic(s2, None, np.array([1.0, 4.0]), 2.0)
    assert rep.value == pytest.approx(1.5625, rel=1e-15)
    assert rep.witness_prefix == 1


def test_two_point_global_a1(s2):
    rep = ap_tilde_characteristic(s2, None, np.array([1.0, 4.0]), 1.0)
    assert rep.value == pytest.approx(2.5, rel=1e-15)


def test_domain_characteristic_ignores_balls_leaving_the_domain(s3):
    d_ids = np.array([0, 1])
    rep = ap_domain_characteristic(s3, d_ids, np.array([1.0, 4.0]), 2.0)
    assert rep.value == pytest.approx(1.5625, rel=1e-15)
    rep1 = ap_domain_characteristic(s3, d_ids, np.array([1.0, 4.0]), 1.0)
    assert rep1.value == pytest.approx(2.5, rel=1e-15)


def test_constant_weight_is_extremal_everywhere(line11):
    w = np.full(line11.n, 3.7)
    for p in P_GRID:
        assert ap_tilde_characteristic(line11, None, w, p).value == pytest.approx(
            1.0, rel=1e-14
        )
        # with w = 1 every ball ties at exactly 1, and the first ball wins
        rep = ap_tilde_characteristic(line11, None, np.ones(line11.n), p)
        assert (rep.value, rep.witness_center, rep.witness_prefix) == (1.0, 0, 0)


def test_witness_ball_attains_the_reported_value(line11, rng):
    w = oracles.random_weight(rng, line11.n)
    for p in P_GRID:
        rep = ap_tilde_characteristic(line11, None, w, p)
        data = line11.canonical.center(rep.witness_center)
        mem = data.order[: data.counts[rep.witness_prefix]]
        mu_b = float(np.sum(line11.mu[mem]))
        avg = float(np.sum(w[mem] * line11.mu[mem])) / mu_b
        if p > 1:
            dual = float(np.sum(w[mem] ** (-1.0 / (p - 1.0)) * line11.mu[mem])) / mu_b
            val = avg * dual ** (p - 1.0)
        else:
            val = avg / float(np.min(w[mem]))
        assert val == pytest.approx(rep.value, rel=1e-12)


# -- oracle agreement --------------------------------------------------------------


def test_tilde_characteristic_matches_naive_enumeration(rng):
    for _ in range(10):
        n = int(rng.integers(2, 25))
        space = oracles.random_metric_space(rng, n)
        w = oracles.random_weight(rng, n)
        e_mask = rng.random(n) < 0.6
        e_mask[int(rng.integers(0, n))] = True
        ids = np.flatnonzero(e_mask)
        for p in P_GRID:
            got = ap_tilde_characteristic(space, e_mask, w[ids], p).value
            want = oracles.naive_tilde_char(space, e_mask, w, p)
            assert got == pytest.approx(want, rel=1e-12)


def test_domain_characteristic_matches_naive_enumeration(rng):
    for _ in range(10):
        n = int(rng.integers(2, 25))
        space = oracles.random_metric_space(rng, n)
        w = oracles.random_weight(rng, n)
        d_mask = rng.random(n) < 0.6
        d_mask[int(rng.integers(0, n))] = True
        ids = np.flatnonzero(d_mask)
        for p in P_GRID:
            got = ap_domain_characteristic(space, d_mask, w[ids], p).value
            want = oracles.naive_domain_char(space, d_mask, w, p)
            assert got == pytest.approx(want, rel=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
def test_reverse_holder_matches_naive_enumeration(seed):
    rng = np.random.default_rng(seed)
    space = oracles.random_metric_space(rng, int(rng.integers(2, 12)))
    w = oracles.random_weight(rng, space.n)
    delta = float(rng.uniform(0.1, 3.0))
    got = reverse_holder_constant(space, w, delta)
    assert got == pytest.approx(oracles.naive_reverse_holder(space, w, delta), rel=1e-12)
    d_mask = rng.random(space.n) < 0.6
    d_mask[int(rng.integers(space.n))] = True
    ids = np.flatnonzero(d_mask)
    got = reverse_holder_constant(space, w[ids], delta, domain=d_mask)
    want = oracles.naive_reverse_holder(space, w, delta, d_mask)
    assert got == pytest.approx(want, rel=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
def test_holder_margin_matches_naive_enumeration(seed):
    rng = np.random.default_rng(seed)
    space = oracles.random_metric_space(rng, int(rng.integers(2, 12)))
    v = oracles.random_weight(rng, space.n)
    e_mask = rng.random(space.n) < 0.6
    e_mask[int(rng.integers(space.n))] = True
    ids = np.flatnonzero(e_mask)
    # zeros in g leave balls with a vanishing right side, which are skipped
    g = np.where(rng.random(space.n) < 0.3, 0.0, rng.normal(size=space.n))
    q = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
    got = holder_average_bound_margin(space, e_mask, v[ids], q, g[ids])
    want = oracles.naive_holder_margin(space, e_mask, v, q, g)
    assert got == pytest.approx(want, rel=1e-12)


# -- structural inequalities -------------------------------------------------------


def test_duality_swaps_the_exponent(rng):
    for p in (1.5, 2.0, 3.0):
        pp = conjugate_exponent(p)
        for _ in range(5):
            n = int(rng.integers(2, 20))
            space = oracles.random_metric_space(rng, n)
            w = oracles.random_weight(rng, n)
            lhs = ap_tilde_characteristic(space, None, w, p).value
            rhs = ap_tilde_characteristic(space, None, w ** (1.0 - pp), pp).value
            assert lhs == pytest.approx(rhs ** (p - 1.0), rel=1e-10)


def test_characteristic_is_nonincreasing_in_p(rng):
    for _ in range(5):
        n = int(rng.integers(2, 20))
        space = oracles.random_metric_space(rng, n)
        w = oracles.random_weight(rng, n)
        e_mask = rng.random(n) < 0.7
        e_mask[0] = True
        ids = np.flatnonzero(e_mask)
        chars = [
            ap_tilde_characteristic(space, e_mask, w[ids], p).value for p in P_GRID
        ]
        for lo, hi in zip(chars[1:], chars[:-1]):
            assert lo <= hi * (1.0 + REL_TOL)


def test_raising_to_a_small_power_contracts_the_characteristic(rng):
    # [v^d]_q <= [v]_p^d for 0 <= d <= min(1, (q-1)/(p-1)); p = 1 allows d in [0,1]
    for _ in range(8):
        n = int(rng.integers(2, 20))
        space = oracles.random_metric_space(rng, n)
        v = oracles.random_weight(rng, n)
        e_mask = rng.random(n) < 0.7
        e_mask[0] = True
        ids = np.flatnonzero(e_mask)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        q = float(rng.choice([1.5, 2.0, 3.0]))
        cap = 1.0 if p == 1.0 else min(1.0, (q - 1.0) / (p - 1.0))
        base = ap_tilde_characteristic(space, e_mask, v[ids], p).value
        for delta in (0.0, 0.5 * cap, cap):
            raised = ap_tilde_characteristic(space, e_mask, v[ids] ** delta, q).value
            assert raised <= base**delta * (1.0 + 1e-12)


def test_average_bound_margin_stays_below_the_characteristic(rng):
    for q in (1.5, 2.0, 3.0):
        for _ in range(5):
            n = int(rng.integers(2, 20))
            space = oracles.random_metric_space(rng, n)
            v = oracles.random_weight(rng, n)
            e_mask = rng.random(n) < 0.7
            e_mask[0] = True
            ids = np.flatnonzero(e_mask)
            g = rng.normal(size=ids.size)
            margin = holder_average_bound_margin(space, e_mask, v[ids], q, g)
            char = ap_tilde_characteristic(space, e_mask, v[ids], q).value
            assert margin <= char * (1.0 + 1e-10)


def test_jensen_bound_on_domain_balls(rng):
    for _ in range(5):
        n = int(rng.integers(3, 20))
        space = oracles.random_metric_space(rng, n)
        w = oracles.random_weight(rng, n)
        d_mask = rng.random(n) < 0.8
        d_mask[:2] = True
        ids = np.flatnonzero(d_mask)
        for p in (1.0, 2.0):
            char = ap_domain_characteristic(space, d_mask, w[ids], p).value
            for c, _, mem in oracles.ball_system(space):
                if not d_mask[c] or not d_mask[mem].all():
                    continue
                mu_b = float(np.sum(space.mu[mem]))
                avg = float(np.sum(w[mem] * space.mu[mem])) / mu_b
                geo = np.exp(float(np.sum(np.log(w[mem]) * space.mu[mem])) / mu_b)
                assert avg <= char * geo * (1.0 + 1e-12)


def test_subset_measure_comparison_on_domain_balls(rng):
    # mu(S)^p <= [w]_p * mu(B)^p * w(S) / w(B) for S inside a domain ball B
    for _ in range(5):
        n = int(rng.integers(3, 16))
        space = oracles.random_metric_space(rng, n)
        w = oracles.random_weight(rng, n)
        d_mask = np.ones(n, dtype=bool)
        p = 2.0
        char = ap_domain_characteristic(space, d_mask, w, p).value
        for _, _, mem in oracles.ball_system(space):
            if mem.size < 2:
                continue
            take = int(rng.integers(1, mem.size))
            sub = rng.choice(mem, size=take, replace=False)
            mu_b = float(np.sum(space.mu[mem]))
            mu_s = float(np.sum(space.mu[sub]))
            w_b = float(np.sum(w[mem] * space.mu[mem]))
            w_s = float(np.sum(w[sub] * space.mu[sub]))
            assert w_b <= char * (mu_b / mu_s) ** p * w_s * (1.0 + 1e-12)


# -- reverse Holder ----------------------------------------------------------------


def test_reverse_holder_frozen_two_point_value(s2):
    got = reverse_holder_constant(s2, np.array([1.0, 4.0]), 1.0)
    assert got == pytest.approx(np.sqrt(8.5) / 2.5, rel=1e-14)


def test_reverse_holder_grows_with_delta(line11, rng):
    w = oracles.random_weight(rng, line11.n)
    c1 = reverse_holder_constant(line11, w, 0.5)
    c2 = reverse_holder_constant(line11, w, 2.0)
    assert 1.0 <= c1 <= c2 * (1.0 + REL_TOL)


def test_reverse_holder_domain_scope(s3):
    w_x = np.array([1.0, 4.0, 100.0])
    scoped = reverse_holder_constant(s3, np.array([1.0, 4.0]), 1.0, domain=np.array([0, 1]))
    assert scoped == pytest.approx(np.sqrt(8.5) / 2.5, rel=1e-14)
    assert reverse_holder_constant(s3, w_x, 1.0) > scoped


def test_reverse_holder_rejects_zero_delta(s2):
    with pytest.raises(ExponentRange):
        reverse_holder_constant(s2, np.array([1.0, 4.0]), 0.0)
    # An infinite delta, and one whose w ** (1 + delta) overflows (3.0 ** 1e6),
    # are refused too rather than read as 2.0 or inf.
    space, w = build_grid_space(1, 9, 1.0), np.linspace(0.5, 3.0, 9)
    for delta in (np.inf, 1e6):
        with pytest.raises(ExponentRange):
            reverse_holder_constant(space, w, delta)


def test_reverse_holder_refuses_a_ball_sum_that_overflows():
    # Each w ** (1 + delta) is about 1.0e308, finite, but two of them sum
    # past max float; the constant came back inf.
    space, w = build_grid_space(1, 9, 1.0), np.full(9, 1e300)
    assert reverse_holder_constant(space, w, 0.02) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ExponentRange, match="sum .* overflows"):
        reverse_holder_constant(space, w, 0.0267)



# w = 1e250 at one point of interval_space(2): w ** 1.25 and w ** 1.5 overflow;
# w = 1e-300 there underflows to 0 instead.
RAISED_POWERS = {
    "wolff_extend": lambda sp, w: wolff_extend(sp, None, w, 2.0, 1.0),
    "check_extension_condition": lambda sp, w: check_extension_condition(
        sp, None, w, 2.0, [0, 0.5], 10.0),
    "self_improve_epsilon": lambda sp, w: self_improve_epsilon(sp, w, 2.0, [0, 0.5], np.inf),
    "restrict_weight_report": lambda sp, w: restrict_weight_report(sp, None, w, 2.0, eps=0.25),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e250, 1e-300])
@pytest.mark.parametrize("call", RAISED_POWERS.values(), ids=RAISED_POWERS.keys())
def test_a_raised_weight_out_of_float_range_is_an_exponent_range(call, scale):
    # It was NonpositiveWeight, after an "overflow encountered in power" warning.
    with pytest.raises(ExponentRange, match=r"[wW] \*\* \(1 \+ eps(/2)?\) over- or underflows at eps"):
        call(interval_space(2), np.array([scale, 1.0, 1.0, 1.0, 1.0]))


@pytest.mark.filterwarnings("error")
def test_a_dual_weight_that_overflows_is_an_exponent_range():
    # At p = 1.5 the dual weight is w ** -2: 1e-200 gives 1e400, which overflows,
    # and the characteristic read inf with a warning; 1e200 underflows to 0 and
    # takes part as 0.
    space, w = interval_space(2), np.array([1e-200, 1.0, 1.0, 1.0, 1.0])
    for characteristic, scope in ((ap_tilde_characteristic, None), (ap_domain_characteristic, [0, 1, 2])):
        with pytest.raises(ExponentRange, match=r"dual weight w \*\* \(-1/\(p-1\)\) overflows at p = 1.5"):
            characteristic(space, scope, w[:len(scope or w)], 1.5)
    assert np.isfinite(ap_tilde_characteristic(space, None, 1.0 / w, 1.5).value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_a_ball_functional_out_of_float_range_is_an_exponent_range(p):
    # The ball {0, 1} has the A_p functional ~1e600 at p = 2 (an overflow in
    # multiply) and ~1e600 at p = 1 (in divide); both read inf with a warning.
    space, w = interval_space(2), np.array([1e300, 1e-300, 1.0, 1.0, 1.0])
    for call in (lambda: ap_tilde_characteristic(space, None, w, p),
                 lambda: ap_domain_characteristic(space, [0, 1, 2], w[:3], p),
                 lambda: restrict_weight_report(space, [0, 1, 2], w, p)):
        with pytest.raises(ExponentRange, match=f"functional leaves float range at p = {p}"):
            call()
    # a ball out of scope (-inf at p = 1: it misses E) is no range fault
    assert ap_tilde_characteristic(space, [4], w[4:], 1.0).value == 1.0


EXPONENT_CALLS = {
    "conjugate": lambda s, w, x: conjugate_exponent(x),
    "ap_tilde": lambda s, w, x: ap_tilde_characteristic(s, None, w, x),
    "ap_domain": lambda s, w, x: ap_domain_characteristic(s, None, w, x),
    "jones": lambda s, w, x: jones_factorize(s, None, w, x),
    "rdf_T": lambda s, w, x: rdf_apply_T(s, None, w, x, w),
    "wolff_p": lambda s, w, x: wolff_extend(s, None, w, x, 0.5),
    "wolff_eps": lambda s, w, x: wolff_extend(s, None, w, 2.0, x),
    "condition": lambda s, w, x: check_extension_condition(s, None, w, x, [0.0], 10.0),
    "self_improve": lambda s, w, x: self_improve_epsilon(s, w, x, [0.0], 10.0),
    "restrict_p": lambda s, w, x: restrict_weight_report(s, None, w, x),
    "restrict_eps": lambda s, w, x: restrict_weight_report(s, None, w, 2.0, x),
    "reverse_holder": lambda s, w, x: reverse_holder_constant(s, w, x),
    "holder_margin": lambda s, w, x: holder_average_bound_margin(s, None, w, x, w),
}


@pytest.mark.parametrize("call, bad", [
    pytest.param(call, bad, id=name + suffix)
    for suffix, bad in (("", float("nan")), ("-inf", float("inf")))
    for name, call in EXPONENT_CALLS.items()
])
def test_a_nan_exponent_is_out_of_range(call, bad):
    # Each guard is written "least <= p < inf", so that NaN and inf fail it;
    # before, inf passed "p >= 1" and came back as nan, 2.0 or NoConvergence.
    space = interval_space(8)
    with pytest.raises(ExponentRange):
        call(space, np.linspace(1.0, 2.0, space.n), bad)


# -- self-improvement of the exponent ----------------------------------------------


def test_constant_weight_improves_to_the_whole_grid(line11):
    w = np.ones(line11.n)
    rep = self_improve_epsilon(line11, w, 2.0, [0.0, 0.5, 1.0], budget=10.0)
    assert rep.best_eps == 1.0
    assert [e for e, _ in rep.table] == [0.0, 0.5, 1.0]
    assert all(c == pytest.approx(1.0, rel=1e-14) for _, c in rep.table)


def test_square_root_power_weight_keeps_a_quarter_of_room():
    space = interval_space(50)
    w = power_weight(space, 0.5)
    char0 = ap_tilde_characteristic(space, None, w, 2.0).value
    rep = self_improve_epsilon(
        space, w, 2.0, [0.0, 0.25, 0.5, 0.75, 1.0], budget=4.0 * char0
    )
    assert rep.best_eps >= 0.25
    table = dict(rep.table)
    assert table[1.0] > table[0.0]


def test_tight_budget_pins_eps_at_zero():
    space = interval_space(50)
    w = power_weight(space, 0.5)
    char0 = ap_tilde_characteristic(space, None, w, 2.0).value
    rep = self_improve_epsilon(space, w, 2.0, [0.0, 1.0], budget=char0 * 1.0001)
    assert rep.best_eps == 0.0


def test_budget_below_baseline_raises():
    space = interval_space(50)
    w = power_weight(space, 0.5)
    char0 = ap_tilde_characteristic(space, None, w, 2.0).value
    with pytest.raises(BudgetExceededAtZero):
        self_improve_epsilon(space, w, 2.0, [0.0, 0.5], budget=0.9 * char0)


# -- power weights -----------------------------------------------------------------


def test_power_weight_clamps_the_origin(s3):
    w = power_weight(s3, -0.5)
    assert w[0] == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert w[1] == 1.0
    assert w[2] == pytest.approx(2.0**-0.5, rel=1e-15)


def test_power_weight_respects_id_selection(s3):
    np.testing.assert_allclose(power_weight(s3, 2.0, ids=np.array([1, 2])), [1.0, 4.0])


def test_power_weight_needs_coordinates(rng):
    space = oracles.random_metric_space(rng, 5)
    with pytest.raises(ValueError):
        power_weight(space, 0.5)


# -- parameter plumbing --------------------------------------------------------------


def test_conjugate_exponent_values():
    assert conjugate_exponent(1.0) == np.inf
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(1.5) == pytest.approx(3.0, rel=1e-15)
    with pytest.raises(ExponentRange):
        conjugate_exponent(0.5)


def test_weights_must_be_positive(s2):
    with pytest.raises(NonpositiveWeight):
        ap_tilde_characteristic(s2, None, np.array([1.0, 0.0]), 2.0)
    with pytest.raises(ValueError):
        ap_tilde_characteristic(s2, None, np.array([1.0]), 2.0)
    with pytest.raises(ExponentRange):
        ap_tilde_characteristic(s2, None, np.array([1.0, 2.0]), 0.5)
