"""The range contract of every public entry point.

A seeded sweep over spaces whose spacings or masses span 10^U(-3, 3), weights
spanning 10^U(-s, s) and exponents from 1 to 60. Each call gives a result
whose every number is finite, or raises a MetricWeightsError; it never emits
a RuntimeWarning.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from metricweights import (
    MetricMeasureSpace,
    ap_domain_characteristic,
    ap_tilde_characteristic,
    build_grid_space,
    chain_weight_ratio,
    check_extension_condition,
    cli,
    coifman_rochberg_weight,
    doubling_constant,
    io,
    jones_factorize,
    make_domain,
    maximal_fn,
    rdf_apply_T,
    restrict_weight_report,
    reverse_holder_constant,
    self_improve_epsilon,
    whitney_cover,
    wolff_extend,
)
from metricweights.errors import ExponentRange, MetricWeightsError
from metricweights.studies import square_domain
from metricweights.weights import holder_average_bound_margin, power_weight

P_VALUES = (1.0, 1.01, 1.5, 2.0, 3.0, 12.0, 60.0)
SPANS = (2, 8, 50, 150, 300)
SEEDS = range(250)


def _input(seed: int) -> dict:
    """A space, a weight w and a function g on X (10^U(-s, s) each), an
    exponent p, and E: a random proper subset."""
    rng = np.random.default_rng(seed)
    kind, scale = seed % 3, 10.0 ** rng.uniform(-3, 3)
    if kind == 0:
        space = build_grid_space(1, int(rng.integers(2, 40)), scale)
    elif kind == 1:
        space = build_grid_space(2, int(rng.integers(2, 8)), scale)
    else:
        n = int(rng.integers(2, 30))
        space = MetricMeasureSpace(mu=10.0 ** rng.uniform(-3, 3, n),
                                   coords=rng.uniform(0, scale, (n, 2)))
    s = SPANS[seed % len(SPANS)]
    w, g = 10.0 ** rng.uniform(-s, s, (2, space.n))
    mask = rng.random(space.n) < 0.5
    mask[rng.permutation(space.n)[:2]] = [True, False]
    return dict(space=space, w=w, g=g, p=P_VALUES[seed % len(P_VALUES)], E=mask,
                ids=np.flatnonzero(mask))


@pytest.fixture(scope="module")
def inputs():
    return [_input(seed) for seed in SEEDS]


ENTRY_POINTS = {
    "ap_tilde_characteristic": lambda c: ap_tilde_characteristic(
        c["space"], c["E"], c["w"][c["ids"]], c["p"]),
    "ap_domain_characteristic": lambda c: ap_domain_characteristic(
        c["space"], c["E"], c["w"][c["ids"]], c["p"]),
    "reverse_holder_constant": lambda c: reverse_holder_constant(c["space"], c["w"], c["p"] - 0.5),
    "maximal_fn": lambda c: maximal_fn(c["space"], c["w"][c["ids"]], c["E"]),
    "coifman_rochberg_weight": lambda c: coifman_rochberg_weight(c["space"], c["w"], 0.5, c["g"]),
    "jones_factorize": lambda c: jones_factorize(c["space"], c["E"], c["w"][c["ids"]], c["p"]),
    "wolff_extend": lambda c: wolff_extend(c["space"], c["E"], c["w"][c["ids"]], c["p"], 0.5),
    "check_extension_condition": lambda c: check_extension_condition(
        c["space"], c["E"], c["w"][c["ids"]], c["p"], [0.0, 0.01, 0.5], 10.0),
    "restrict_weight_report": lambda c: restrict_weight_report(
        c["space"], c["E"], c["w"], c["p"], eps=0.25),
    "self_improve_epsilon": lambda c: self_improve_epsilon(
        c["space"], c["w"], c["p"], [0.0, 0.01, 0.5], 1e12),
    "doubling_constant": lambda c: doubling_constant(c["space"]),
    "holder_average_bound_margin": lambda c: holder_average_bound_margin(
        c["space"], c["E"], c["w"][c["ids"]], c["p"], c["g"][c["ids"]]),
    "power_weight": lambda c: power_weight(c["space"], -5.0 * c["p"]),
    "WhitneyCover.ball_averages": lambda c: whitney_cover(
        c["space"], make_domain(c["space"], c["E"])).ball_averages(c["w"]),
    "rdf_apply_T": lambda c: rdf_apply_T(
        c["space"], c["E"], c["w"][c["ids"]], max(c["p"], 2.0), c["g"][c["ids"]]),
    "chain_weight_ratio": lambda c: _chain_ratio(c),
}


def _farthest_ball(cover) -> int:
    """The cover ball the most chain steps from ball 0 (0 when it has no neighbour)."""
    steps = dijkstra(cover.adjacency, unweighted=True, indices=0)
    return int(np.argmax(np.where(np.isfinite(steps), steps, -1.0)))


def _chain_ratio(c):
    """chain_weight_ratio from the first ball of E's Whitney cover to the farthest it reaches."""
    domain = make_domain(c["space"], c["E"])
    cover = whitney_cover(c["space"], domain)
    return chain_weight_ratio(c["space"], domain, c["w"][c["ids"]], c["p"], cover,
                              0, _farthest_ball(cover))


def _numbers(value) -> list[float]:
    """Every number a result holds: in arrays, tuples, lists, dicts and dataclasses."""
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _numbers(item)]
    if isinstance(value, (float, int, np.ndarray, np.generic)):
        return np.asarray(value, dtype=float).ravel().tolist()
    return []


def _outcome(call, case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(case)
        except MetricWeightsError as exc:
            return exc


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_result_is_finite_or_a_typed_error(inputs, name):
    faults, raised = [], 0
    for seed, case in zip(SEEDS, inputs):
        try:
            out = _outcome(ENTRY_POINTS[name], case)
        except Exception as exc:  # a warning, or an untyped error
            faults.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            continue
        raised += isinstance(out, MetricWeightsError)
        if not isinstance(out, MetricWeightsError) and not np.isfinite(_numbers(out)).all():
            faults.append(f"seed {seed}: a result that is not finite")
    assert faults == []
    assert raised < len(SEEDS)  # the sweep reaches the computation, not only the checks


def test_the_numbers_of_a_result_are_all_read():
    report = ap_tilde_characteristic(build_grid_space(1, 3, 1.0), None, np.ones(3), 2.0)
    assert _numbers(report) == [1.0, 0, 0, 2.0]
    assert _numbers({"a": (np.array([[1.0, np.inf]]), None, "text")}) == [1.0, np.inf]


def test_cli_maximal_out_of_float_range_exits_2(capsys, tmp_path):
    # f * mu = 1e300 * 1e10 overflows; it exited 4, refusing to write inf
    space, f = tmp_path / "space.json", tmp_path / "f.json"
    io.save_space(space, build_grid_space(1, 4, 1e10))
    io.save_function(f, np.array([1e300, 1.0, 1.0, 1.0]))
    rc = cli.main(["maximal", "--space", str(space), "--function", str(f)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert '"ExponentRange"' in captured.err


def _line(n, spacing=1.0):
    return build_grid_space(1, n, spacing)


RANGE_FAULTS = {
    # f * mu = 1e300 * 1e10 leaves float range where it is formed
    "product": (lambda: maximal_fn(_line(4, 1e10), np.array([1e300, 1.0, 1.0, 1.0])),
                "a value times its point's mass"),
    # each f * mu is finite, the sum of two is not
    "sweep": (lambda: maximal_fn(_line(4), np.array([1e308, 1e308, 1.0, 1.0])),
              "a ball average of |f|"),
    "ball_sums": (lambda: whitney_cover(_line(12), make_domain(_line(12), np.arange(1, 11)))
                  .ball_averages(np.full(12, 1e308)), "a ball's sum"),
    # 1e10 ** 60 overflows in |g| ** q v
    "holder_margin": (lambda: holder_average_bound_margin(
        _line(9), None, np.ones(9), 60.0, np.array([1e10] + [1.0] * 8)), "float range"),
    # mu(B(0, 2)) / mu({0}) = 1e300 / 1e-320
    "doubling": (lambda: doubling_constant(MetricMeasureSpace(
        mu=[1e-320, 1e300], coords=[[0.0], [1.0]])), "doubling ratio"),
    "power_weight": (lambda: power_weight(_line(9, 1e-3), -300.0), "power weight"),
    # at p = 2 and v = 1, T f = 2 m(f), which is 2e308 where f is 1e308
    "rdf_apply_T": (lambda: rdf_apply_T(_line(9), None, np.ones(9), 2.0,
                                        np.array([1e308] + [1.0] * 8)), "T f"),
    "chain_weight_ratio": (lambda: _far_chain_ratio(), "ratio of two cover ball averages"),
}


def _far_chain_ratio():
    """1e300 on one cover ball of the square's domain and 1e-300 on another
    of its chain component, two steps away, which shares no point with it."""
    space, domain = square_domain(12)
    cover = whitney_cover(space, domain)
    j = _farthest_ball(cover)
    assert j != 0 and cover.adjacency[0, j] == 0
    w = np.ones(space.n)
    w[cover.members[cover.offsets[0]:cover.offsets[1]]] = 1e300
    w[cover.members[cover.offsets[j]:cover.offsets[j + 1]]] = 1e-300
    return chain_weight_ratio(space, domain, w[domain.ids], 2.0, cover, 0, j)


@pytest.mark.parametrize("call, message", RANGE_FAULTS.values(), ids=RANGE_FAULTS.keys())
def test_each_range_fault_is_an_exponent_range(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExponentRange, match=message):
            call()


def test_a_power_that_underflows_to_zero_takes_part_in_reverse_holder():
    # 1e-300 ** 2 is 0.0: the constant stays finite, the other balls set it
    w = np.array([1e-300] + [1.0] * 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert 1.0 <= reverse_holder_constant(_line(9), w, 1.0) < np.inf
