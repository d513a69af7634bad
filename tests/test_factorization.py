import numpy as np
import pytest

import oracles
from metricweights import (
    FactorizationResult,
    MetricMeasureSpace,
    a1_bounds,
    ap_tilde_characteristic,
    build_grid_space,
    conjugate_exponent,
    jones_factorize,
    maximal_fn,
    rdf_apply_T,
    space_from_matrix,
    wolff_extend,
)
from metricweights import factorization
from metricweights import space as space_mod
from metricweights.errors import ExponentRange, NoConvergence, NonpositiveWeight
from metricweights.maximal import as_subset
from metricweights.studies import interval_space


def _recovered_base_bound(fact):
    # the fixed point was verified at the iteration exponent; undo the
    # constant translation done for the swapped branch
    if fact.branch == "1<p<2":
        return (2.0 * fact.c) ** (fact.p / fact.base_p)
    return 2.0 * fact.c


def _check_certificates(space, E, v, fact):
    ids, _ = as_subset(space, E)
    k1, k2 = fact.bounds()
    # the maximal functions handed to the extension are the ones a fresh sweep gives
    np.testing.assert_array_equal(fact.m_v1, maximal_fn(space, fact.v1, E))
    np.testing.assert_array_equal(fact.m_v2, maximal_fn(space, fact.v2, E))
    assert fact.eta.max() == 1.0
    m1 = fact.m_v1[ids]
    m2 = fact.m_v2[ids]
    assert np.all(m1 <= k1 * fact.v1 * (1.0 + 1e-12))
    assert np.all(m2 <= k2 * fact.v2 * (1.0 + 1e-12))
    recomposed = fact.v1 * fact.v2 ** (1.0 - fact.p)
    assert float(np.max(np.abs(recomposed / v - 1.0))) <= 1e-9
    if fact.p > 1:
        t_eta = rdf_apply_T(space, E, fact.base_weight, fact.base_p, fact.eta)
        two_c = _recovered_base_bound(fact)
        assert np.all(t_eta <= two_c * fact.eta * (1.0 + 1e-12))


# -- the iteration operator ---------------------------------------------------------


def test_operator_on_the_constant_weight_doubles(line11):
    v = np.ones(line11.n)
    f = np.ones(line11.n)
    out = rdf_apply_T(line11, None, v, 2.0, f)
    np.testing.assert_array_equal(out, np.full(line11.n, 2.0))


def test_operator_is_positively_homogeneous(line11, rng):
    v = oracles.random_weight(rng, line11.n)
    f = rng.uniform(0.1, 2.0, size=line11.n)
    one = rdf_apply_T(line11, None, v, 3.0, f)
    two = rdf_apply_T(line11, None, v, 3.0, 2.0 * f)
    np.testing.assert_allclose(two, 2.0 * one, rtol=1e-12)


def test_operator_is_subadditive(line11, rng):
    v = oracles.random_weight(rng, line11.n)
    f = rng.uniform(0.1, 2.0, size=line11.n)
    g = rng.uniform(0.1, 2.0, size=line11.n)
    both = rdf_apply_T(line11, None, v, 2.0, f + g)
    split = rdf_apply_T(line11, None, v, 2.0, f) + rdf_apply_T(line11, None, v, 2.0, g)
    assert np.all(both <= split * (1.0 + 1e-12))


def test_operator_dominates_twice_the_input(line11, rng):
    v = oracles.random_weight(rng, line11.n)
    f = rng.uniform(0.1, 2.0, size=line11.n)
    out = rdf_apply_T(line11, None, v, 2.5, f)
    assert np.all(out >= 2.0 * f * (1.0 - 1e-12))


def test_operator_rejects_bad_inputs(line11):
    ones = np.ones(line11.n)
    with pytest.raises(ExponentRange):
        rdf_apply_T(line11, None, ones, 1.5, ones)
    with pytest.raises(NonpositiveWeight):
        rdf_apply_T(line11, None, 0.0 * ones, 2.0, ones)
    with pytest.raises(ValueError):
        rdf_apply_T(line11, None, ones, 2.0, -ones)
    with pytest.raises(ValueError):
        rdf_apply_T(line11, None, ones[:-1], 2.0, ones)


# -- the factorization --------------------------------------------------------------


def test_constant_weight_factorization_is_exact(line11):
    v = np.ones(line11.n)
    fact = jones_factorize(line11, None, v, 2.0)
    assert fact.branch == "p>=2"
    assert fact.c == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(fact.eta, 1.0, atol=1e-9)
    np.testing.assert_allclose(fact.v1, 1.0, atol=1e-9)
    np.testing.assert_allclose(fact.v2, 1.0, atol=1e-9)
    assert fact.residual == 0.0
    assert fact.a1_char_v1 == pytest.approx(1.0, rel=1e-9)
    k1, k2 = fact.bounds()
    assert k1 == pytest.approx(2.0 * fact.c, rel=1e-12)
    assert k2 == pytest.approx(2.0 * fact.c, rel=1e-12)


def test_p_equal_one_is_trivial(line11, rng):
    v = oracles.random_weight(rng, line11.n)
    fact = jones_factorize(line11, None, v, 1.0)
    assert fact.branch == "p=1"
    # 2c is the largest m_E v_i / v_i, which the A1 characteristic of v1
    # bounds (it was c = 1, whatever v), and both bounds hold exactly
    two_c = np.max(fact.m_v1 / v)
    assert two_c <= 2.0 * fact.c <= two_c * (1.0 + 1e-15)
    assert fact.bounds() == (2.0 * fact.c, 2.0 * fact.c)
    assert 2.0 * fact.c <= fact.a1_char_v1 * (1.0 + 1e-15)
    assert np.all(fact.m_v1 <= 2.0 * fact.c * fact.v1)
    assert np.all(fact.m_v2 <= 2.0 * fact.c * fact.v2)
    assert fact.residual == 0.0
    np.testing.assert_array_equal(fact.v1, v)
    np.testing.assert_array_equal(fact.v2, 1.0)
    assert fact.a1_char_v2 == pytest.approx(1.0, rel=1e-14)
    _check_certificates(line11, None, v, fact)


def test_p_equal_one_reports_the_bounds_that_hold():
    # m_E v1 / v1 reaches 50.5 at the point beside the peak; c = 1 reported 2
    fact = jones_factorize(interval_space(2), None, np.array([1.0, 100.0, 1.0, 1.0, 1.0]), 1.0)
    assert (fact.c, fact.bounds(), fact.a1_char_v1) == (25.25, (50.5, 50.5), 50.5)
    assert np.max(fact.m_v1 / fact.v1) == 50.5


def test_p_equal_one_raises_c_by_ulps_until_the_certificates_hold():
    # here the largest m_E v / v, times v, rounds below m_E v at some point
    space = interval_space(2)
    v = np.array([1.133976204153072, 0.8762491038964166, 1.8972825972005432,
                  1.1105996749581577, 0.5852773900190299])
    m = maximal_fn(space, v)
    ratio = np.max(m / v)
    assert not np.all(m <= ratio * v)
    fact = jones_factorize(space, None, v, 1.0)
    assert 2.0 * fact.c == np.nextafter(ratio, np.inf)
    assert np.all(fact.m_v1 <= 2.0 * fact.c * fact.v1)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_random_weights_factor_with_verified_bounds(p, rng):
    for _ in range(4):
        n = int(rng.integers(3, 30))
        space = oracles.random_metric_space(rng, n)
        v = oracles.random_weight(rng, n)
        fact = jones_factorize(space, None, v, p)
        assert isinstance(fact, FactorizationResult)
        assert fact.residual <= 1e-9
        _check_certificates(space, None, v, fact)


def test_factorization_on_a_strict_subset(line11, rng):
    e_ids = np.arange(2, 9)
    v = oracles.random_weight(rng, e_ids.size)
    for p in (1.5, 3.0):
        fact = jones_factorize(line11, e_ids, v, p)
        assert fact.residual <= 1e-9
        _check_certificates(line11, e_ids, v, fact)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_series_stops_at_the_first_verified_partial_sum(line11, rng, p, monkeypatch):
    v = oracles.random_weight(rng, line11.n)
    fact = jones_factorize(line11, None, v, p)
    # K = 8 reuses the warm-up iterates, and its certificates already verify
    assert fact.k_max == 8
    _check_certificates(line11, None, v, fact)
    # the tail limit stays an upper limit: a tail below 1e-2 comes before
    # the eighth term
    monkeypatch.setattr(factorization, "_TAIL_TOL", 1e-2)
    capped = jones_factorize(line11, None, v, p)
    assert capped.k_max < 8
    assert capped.c == fact.c
    _check_certificates(line11, None, v, capped)
    monkeypatch.undo()
    # extreme weights reach such a tail with no patch: at c ~ 3.1e16 the
    # sixth term is below 1e-12 times the sum of five
    line5 = interval_space(2)
    v = 10.0 ** np.random.default_rng(0).uniform(-8, 8, line5.n)
    early = jones_factorize(line5, None, v, 1.5)
    assert early.k_max == 5 and early.c == pytest.approx(3.1257e16, rel=1e-4)
    _check_certificates(line5, None, v, early)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weight", [[1e-8, 1, 1, 1, 1], [1e8, 1, 1, 1, 1]])
def test_a_dual_weight_out_of_float_range_is_an_exponent_range(weight):
    # at p = 1.02 the dual weight is v ** -50: 1e400 overflows, 1e-400 underflows to 0
    with pytest.raises(ExponentRange, match=r"dual weight v \*\* \(1 - p'\).* p = 1.02"):
        jones_factorize(interval_space(2), None, weight, 1.02)
    # the same weight factorizes at p = 2, which needs no dual weight
    assert jones_factorize(interval_space(2), None, weight, 2.0).branch == "p>=2"


def _count_applications(monkeypatch, failed):
    """Count the operator applications of the factorization, one list entry
    each. The first `failed` after the 8 warm-up applications are
    certifications; their T eta is scaled by 1e6, so that they fail."""
    calls = []
    parts = factorization._rdf_parts

    def counted(*args):
        t_f, m_first, m_second = parts(*args)
        calls.append(None)
        if factorization._WARMUP_ITERS < len(calls) <= factorization._WARMUP_ITERS + failed:
            t_f = 1e6 * t_f
        return t_f, m_first, m_second

    monkeypatch.setattr(factorization, "_rdf_parts", counted)
    return calls


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_a_failed_certificate_doubles_c(line11, rng, p, monkeypatch):
    v = oracles.random_weight(rng, line11.n)
    plain = jones_factorize(line11, None, v, p)
    calls = _count_applications(monkeypatch, failed=1)
    fact = jones_factorize(line11, None, v, p)
    # the one fallback: the same 8 terms at twice the base c, one more application
    assert len(calls) == 10
    assert fact.k_max == 8
    # the swapped branch reports (2 * 2c)^{p'/p} / 2, 2^{p'/p} times the plain bound
    assert fact.c == 2.0 ** (fact.base_p / p) * plain.c
    monkeypatch.undo()
    _check_certificates(line11, None, v, fact)


def test_no_convergence_when_every_certificate_fails(line11, rng, monkeypatch):
    v = oracles.random_weight(rng, line11.n)
    calls = _count_applications(monkeypatch, failed=np.inf)
    with pytest.raises(NoConvergence, match="doublings"):
        jones_factorize(line11, None, v, 2.0)
    # the warm-up, then one certificate per c: c_hat and its 10 doublings
    assert len(calls) == 8 + 11


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("share", [0.1, 0.5, 1.0])
def test_the_warm_up_applies_the_operator_bit_for_bit(monkeypatch, p, share):
    # The warm-up sweeps the cache's view on E's columns; each of its
    # iterates is the public operator's, bit for bit.
    rng = np.random.default_rng(int(10 * p + 10 * share))
    space = build_grid_space(2, 8, 0.5)
    mask = rng.random(space.n) < share
    mask[0] = True
    v = 10.0 ** rng.uniform(-2.0, 2.0, int(mask.sum()))
    seen = []
    parts = factorization._rdf_parts

    def recorded(*args):
        out = parts(*args)
        seen.append((args[-1], out[0]))
        return out

    monkeypatch.setattr(factorization, "_rdf_parts", recorded)
    fact = jones_factorize(space, mask, v, p)
    monkeypatch.undo()
    assert len(seen) == 9
    for f, t_f in seen[:8]:
        want = rdf_apply_T(space, mask, fact.base_weight, fact.base_p, f)
        assert t_f.tobytes() == want.tobytes()
    _check_certificates(space, mask, v, fact)


def test_the_factorization_leaves_no_state_on_the_space(rng):
    space = build_grid_space(2, 8, 0.5)
    space.canonical
    before = dict(vars(space))
    mask = rng.random(space.n) < 0.5
    mask[0] = True
    jones_factorize(space, mask, oracles.random_weight(rng, int(mask.sum())), 2.0)
    assert vars(space).keys() == before.keys()
    assert all(vars(space)[key] is value for key, value in before.items())


def test_random_factorizations_verify_on_their_first_certificate(monkeypatch):
    rng = np.random.default_rng(22)
    calls = _count_applications(monkeypatch, failed=0)
    for _ in range(200):
        n = int(rng.integers(3, 31))
        space = MetricMeasureSpace(mu=rng.lognormal(sigma=0.5, size=n),
                                   coords=rng.uniform(size=(n, 2)))
        p = float(rng.choice([1.2, 1.5, 2.0, 3.0, 6.0]))
        v = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        calls.clear()
        jones_factorize(space, None, v, p)
        assert len(calls) == 9, (n, p)


def test_a_factor_bound_that_overflows_is_no_convergence():
    assert a1_bounds(1e300, 12.0) == (np.inf, 2e300)
    # at p = 1.02 the reported bound is (2c)^{p'/p} / 2 with p'/p = 50
    v = 10.0 ** np.linspace(-4, 4, 5)
    with pytest.raises(NoConvergence, match="overflow"):
        jones_factorize(interval_space(2), None, v, 1.02)


def test_a_certificate_whose_right_side_overflows_is_no_convergence():
    # k2 * v2 overflowed here, so the check held against inf, and c =
    # 2.25e303 came back certified.
    space = MetricMeasureSpace(mu=np.ones(9), coords=np.arange(9.0)[:, None])
    v = 10.0 ** np.array([6.67, -1.21, 1.83, -1.66, -3.51, -7.75, -7.92, 7.88, 7.99])
    with pytest.raises(NoConvergence, match="times its factor overflows"):
        jones_factorize(space, None, v, 1.05)


def test_swapped_branch_bookkeeping(line11, rng):
    v = oracles.random_weight(rng, line11.n)
    fact = jones_factorize(line11, None, v, 1.5)
    assert fact.branch == "1<p<2"
    assert fact.base_p == pytest.approx(conjugate_exponent(1.5), rel=1e-15)
    np.testing.assert_allclose(fact.base_weight, v ** (1.0 - fact.base_p), rtol=1e-12)


def test_a1_bounds_shape():
    k1, k2 = a1_bounds(3.0, 2.0)
    assert k2 == 6.0
    assert k1 == pytest.approx(6.0, rel=1e-15)
    k1, k2 = a1_bounds(3.0, 3.0)
    assert k1 == pytest.approx(6.0**2, rel=1e-15)


def test_factorize_rejects_bad_inputs(line11):
    ones = np.ones(line11.n)
    with pytest.raises(ExponentRange):
        jones_factorize(line11, None, ones, 0.9)
    with pytest.raises(NonpositiveWeight):
        jones_factorize(line11, None, 0.0 * ones, 2.0)
    with pytest.raises(ValueError):
        jones_factorize(line11, None, ones[:-1], 2.0)


def test_a_nan_weight_is_an_input_error(line11):
    ones = np.ones(line11.n)
    v = np.where(np.arange(line11.n) == 4, np.nan, 1.0)
    for p in (1.0, 1.5, 2.0):
        with pytest.raises(NonpositiveWeight):
            jones_factorize(line11, None, v, p)
    with pytest.raises(NonpositiveWeight):
        rdf_apply_T(line11, None, v, 2.0, ones)


def _a1_spaces():
    """A line, a 2-D grid and a 3-D cloud, each on coordinates and as a matrix."""
    rng = np.random.default_rng(20261021)
    cloud = MetricMeasureSpace(mu=rng.lognormal(sigma=0.5, size=40),
                               coords=rng.uniform(size=(40, 3)))
    spaces = []
    for space in (interval_space(12), build_grid_space(2, 6, 0.5), cloud):
        spaces += [space, space_from_matrix(space.dist_matrix(), space.mu)]
    return spaces


A1_SPACES = _a1_spaces()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("kind", ["random", "one point", "X"])
def test_the_a1_characteristics_are_the_tilde_characteristics_bit_for_bit(p, kind):
    # a1_char_v_i is read off m_v_i, the certified maximal function; it is
    # ap_tilde_characteristic(v_i, 1), which scans every ball again
    for s, space in enumerate(A1_SPACES):
        rng = np.random.default_rng(100 * s + int(10 * p) + len(kind))
        if kind == "random":
            mask = rng.random(space.n) < 0.5
            mask[rng.integers(space.n)] = True
        elif kind == "one point":
            mask = np.arange(space.n) == space.n // 3
        else:
            mask = np.ones(space.n, dtype=bool)
        fact = jones_factorize(space, mask, 10.0 ** rng.uniform(-3.0, 3.0, mask.sum()), p)
        for got, v in ((fact.a1_char_v1, fact.v1), (fact.a1_char_v2, fact.v2)):
            want = ap_tilde_characteristic(space, mask, v, 1.0).value
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (s, got, want)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_a_factorization_scans_no_ball_functional_and_an_extension_one(monkeypatch, p):
    # the A1 constants come from the certificates' sweeps; the extension
    # scans once, for W's characteristic
    space = interval_space(16)
    e_ids = np.arange(0, space.n, 2)
    w = 10.0 ** np.random.default_rng(5).uniform(-1.0, 1.0, e_ids.size)
    calls = []
    sups = space_mod.CanonicalBallSet.sups

    def counted(*args, **kwargs):
        calls.append(None)
        return sups(*args, **kwargs)

    monkeypatch.setattr(space_mod.CanonicalBallSet, "sups", counted)
    jones_factorize(space, e_ids, w, p)
    assert calls == []
    wolff_extend(space, e_ids, w, p, eps=0.5)
    assert len(calls) == 1
