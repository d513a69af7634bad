import warnings

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

import oracles
from metricweights import MetricMeasureSpace, make_domain, whitney_cover
from metricweights.errors import InvalidParameter
from metricweights.studies import (
    GROWTH_W_EXPONENT,
    HOLD2_BALLS,
    HOLD2_QH_GATE,
    HOLD2_T_RANGE,
    _band_centers,
    _whitney_like_band,
    chain_growth_study,
    chain_report,
    condition_refinement_study,
    extension_refinement_study,
    interval_space,
    qh_interval_study,
    random_grid_domain,
    square_domain,
    unit_band_subset,
    whitney_refinement_study,
)


def test_interval_space_layout():
    space = interval_space(4)
    assert space.n == 9
    np.testing.assert_allclose(space.coords[:, 0], -1.0 + 0.25 * np.arange(9))
    np.testing.assert_allclose(space.mu, 0.25)
    band = unit_band_subset(space)
    np.testing.assert_array_equal(band, np.arange(4, 9))
    with pytest.raises(ValueError):
        interval_space(0)


def test_square_domain_is_the_interior():
    space, domain = square_domain(5)
    assert space.n == 25
    assert domain.ids.size == 9
    assert not domain.mask[0] and domain.mask[6]


def test_qh_interval_tracks_the_closed_form():
    report = qh_interval_study(1e-3)
    assert report["expected"] == pytest.approx(np.log(2.0), rel=1e-15)
    assert report["rel_error"] < 0.05


def test_whitney_refinement_rows():
    rows = whitney_refinement_study([8, 16])
    assert [r["side"] for r in rows] == [8, 16]
    for row in rows:
        assert row["all_invariants"]
        assert row["overlap_n"] >= 1
        assert row["radius_ratio_max"] <= 4.0
    assert rows[1]["n_balls"] > rows[0]["n_balls"]


def test_chain_report_bands_and_correlation():
    space, domain = square_domain(16)
    report = chain_report(space, domain, seed=1)
    assert report["n_pairs"] > 0
    assert report["alpha"] >= 1.0
    assert -1.0 <= report["corr"] <= 1.0
    for pair in report["pairs"]:
        assert pair["k_tilde"] >= 1.0
        assert pair["qh"] > 0.0
        assert pair["ratio"] == pytest.approx(
            pair["k_tilde"] / max(pair["qh"], 1.0), rel=1e-12
        )


def test_chain_report_has_no_correlation_for_a_constant_chain_length(cube_path):
    space, mask = cube_path
    domain = make_domain(space, mask)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = chain_report(space, domain)
    assert report["n_pairs"] >= 2
    assert {p["k_tilde"] for p in report["pairs"]} == {1.0}
    assert report["corr"] is None


def test_gated_qh_rows_are_the_full_rows_inside_the_gate():
    _, domain = square_domain(64)
    _, centers = _band_centers(domain)
    assert centers.size > 1
    graph = domain.qh_graph()
    full = dijkstra(graph, indices=centers)
    gated = dijkstra(graph, indices=centers, limit=HOLD2_QH_GATE)
    inside = full <= HOLD2_QH_GATE
    assert gated[inside].tobytes() == full[inside].tobytes()
    assert np.isinf(gated[~inside]).all()
    # scipy's limit is inclusive: nodes exactly at the gate keep their value.
    at_gate = full == HOLD2_QH_GATE
    assert at_gate.any() and (gated[at_gate] == HOLD2_QH_GATE).all()


def test_chain_report_falls_back_when_nothing_is_resolved(line11):
    domain = make_domain(line11, np.arange(1, 10))
    report = chain_report(line11, domain, seed=0)
    assert report["n_resolved"] < 2
    assert report["n_pairs"] == 6
    assert {p["k_tilde"] for p in report["pairs"]} == {1.0, 2.0}


def test_chain_report_rejects_a_negative_seed(line11):
    domain = make_domain(line11, np.arange(1, 10))
    with pytest.raises(InvalidParameter, match="seed"):
        chain_report(line11, domain, seed=-1)


def test_chain_growth_has_no_holdout_violations():
    report = chain_growth_study(16, seed=2)
    assert report["violations"] == 0
    assert report["n_holdout"] > 0
    assert report["alpha"] >= 0.0
    assert report["hold2_band"] >= 1.0
    assert report["qh_gate"] == 1.0
    assert report["t_range"] == [1.5, 5.0]


def _growth_weight(domain):
    """chain_growth_study's weight, (boundary distance)^GROWTH_W_EXPONENT on D."""
    return np.where(domain.mask, domain.boundary_dist, 1.0) ** GROWTH_W_EXPONENT


def _naive_band(space, domain):
    return oracles.naive_whitney_like_band(
        space, domain, _growth_weight(domain), HOLD2_T_RANGE, HOLD2_QH_GATE, HOLD2_BALLS
    )


@pytest.mark.parametrize("side", [16, 24, 32])
def test_growth_band_matches_the_naive_band_on_squares(side):
    report = chain_growth_study(side, seed=0)
    naive = _naive_band(*square_domain(side))
    assert report["hold2_band"].hex() == naive["band"].hex()
    assert report["hold2_pairs"] == naive["n_pairs"] > 0
    assert report["hold2_samples"] == naive["n_samples"] > 0


# 2-D domains with 5, 40, 40 and 4 centers, a 1-D one whose single center
# has no partner but itself, and a 2-D one without candidates.
@pytest.mark.parametrize("seed", [2, 4, 7, 15, 14, 0])
def test_growth_band_matches_the_naive_band_on_random_domains(seed):
    space, domain = random_grid_domain(seed)
    band = _whitney_like_band(space, domain, _growth_weight(domain))
    naive = _naive_band(space, domain)
    assert band["band"].hex() == naive["band"].hex()
    assert (band["n_pairs"], band["n_samples"]) == (naive["n_pairs"], naive["n_samples"])


def test_ball_integrals_compute_no_distance(monkeypatch):
    # balls_members hands each ball out in (distance, id) order, so summing
    # in that order needs no distance.
    space, domain = random_grid_domain(4)
    cover = whitney_cover(space, domain)
    domain.qh_graph()  # its edge weights are distances, computed once here
    values = np.random.default_rng(4).normal(size=space.n)
    averages = cover.ball_averages(values)
    band = _whitney_like_band(space, domain, _growth_weight(domain))

    def refuse(*args):
        raise AssertionError("pair_dists called")

    monkeypatch.setattr(MetricMeasureSpace, "pair_dists", refuse)
    assert cover.ball_averages(values).tobytes() == averages.tobytes()
    assert _whitney_like_band(space, domain, _growth_weight(domain)) == band


def test_extension_refinement_rows():
    rows = extension_refinement_study([16, 32])
    assert [r["n_points"] for r in rows] == [33, 65]
    for row in rows:
        assert row["agreement_error"] <= 1e-9
        assert row["condition_value"] >= 1.0
        assert row["extension_ap"] >= 1.0
    assert rows[1]["n_balls"] > rows[0]["n_balls"]


def test_condition_growth_separates_the_exponents():
    p, eps, steep_exponent = 2.0, 0.5, 0.9
    mild = condition_refinement_study([16, 32], exponent=0.5, p=p, eps=eps)
    steep = condition_refinement_study([16, 32], exponent=steep_exponent, p=p, eps=eps)
    mild_ratio = mild[1]["value"] / mild[0]["value"]
    steep_ratio = steep[1]["value"] / steep[0]["value"]
    # the divergent characteristic grows by at least 2^gamma per side
    # doubling, gamma = a(1+eps) - (p-1); see acceptance criterion 07
    gamma = steep_exponent * (1.0 + eps) - (p - 1.0)
    assert mild_ratio <= 1.5
    assert steep_ratio >= 2.0**gamma
    assert steep_ratio > mild_ratio


def test_random_grid_domains_are_proper_and_reproducible():
    dims = set()
    for seed in range(10):
        space, domain = random_grid_domain(seed)
        assert 0 < domain.ids.size < space.n
        again_space, again_domain = random_grid_domain(seed)
        np.testing.assert_array_equal(domain.ids, again_domain.ids)
        assert space.n == again_space.n
        dims.add(1 if space.coords.shape[1] == 1 else 2)
    assert dims == {1, 2}
