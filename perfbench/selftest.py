"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/selftest.py

Run from the root of a checkout. The file name does not match pytest's
default test pattern on purpose, so the library's own suite does not
collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import compare  # noqa: E402
import metricweights as mw  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import sweep  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from metricweights import io  # noqa: E402


def _fake_pass(outputs):
    return {"outputs": outputs}


def _extend_output(tmp_path, W, exit_code=0, report=None):
    io.save_function(tmp_path / "W.json", W)
    report = report if report is not None else {"agreement_error": 0.0, "ap_constant_W": 2.5}
    return {"exit": exit_code, "report": json.dumps(report).encode(),
            "W": (tmp_path / "W.json").read_bytes()}


def test_corrupted_outputs_are_counted_as_failed(tmp_path):
    e_ids = np.array([1, 2, 3])
    w = np.array([1.0, 2.0, 3.0])
    good_W = np.array([5.0, 1.0, 2.0, 3.0])
    task = workloads.Task("extend", run=None, check=lambda o: check.extend_output(o, e_ids, w))
    good = _extend_output(tmp_path, good_W)
    assert check.extend_output(good, e_ids, w) == []

    corrupted = [
        _extend_output(tmp_path, good_W * np.array([1, 1, 1.001, 1])),       # disagrees on E
        _extend_output(tmp_path, good_W, exit_code=2),                        # CLI failure
        dict(good, report=b'{"agreement_error": NaN, "ap_constant_W": 2.5}'),  # not strict JSON
        dict(good, report=b'{"agreement_error": 0.0, "ap_constant_W": 0.5}'),  # constant below 1
        dict(good, W=b"garbage"),                                             # unreadable file
        None,                                                                 # checker raises
    ]
    passes = [_fake_pass([(good, None)])]
    passes += [_fake_pass([(out, None)]) for out in corrupted]
    passes.append(_fake_pass([(None, "Traceback: task raised")]))
    attempted, failed, messages = run.check_passes([task], passes, workloads.fingerprint)
    assert attempted == len(passes)
    assert failed == len(passes) - 1
    assert any("checker raised" in m for m in messages)


def test_output_differing_between_passes_fails():
    task = workloads.Task("t", run=None, check=lambda o: [])
    passes = [_fake_pass([({"v": 1.0}, None)]), _fake_pass([({"v": 1.0000000001}, None)])]
    attempted, failed, messages = run.check_passes([task], passes, workloads.fingerprint)
    assert (attempted, failed) == (2, 1)
    assert "differs from the first pass" in messages[0]


def _brute_balls(space):
    for c in range(space.n):
        row = space.dist_row(c)
        vals = np.unique(row)
        for k in range(vals.size):
            r = (vals[k] + vals[k + 1]) / 2 if k + 1 < vals.size else vals[-1] + 1
            yield c, k, np.flatnonzero(row < r)


def test_ball_table_matches_brute_force():
    space = mw.build_grid_space(2, 6, 0.5)
    rng = np.random.default_rng(3)
    w = np.exp(rng.normal(size=space.n))
    scope = space.coords[:, 0] < 1.2
    table = oracle.BallTable(space.coords, space.mu)
    for p in (1.0, 2.0, 3.0):
        best = (-np.inf, -1, -1)
        for c, k, mem in _brute_balls(space):
            sel = mem[scope[mem]]
            mu_b = space.mu[mem].sum()
            if p > 1:
                val = (w[sel] * space.mu[sel]).sum() / mu_b * (
                    (w[sel] ** (-1 / (p - 1)) * space.mu[sel]).sum() / mu_b) ** (p - 1)
            elif sel.size:
                val = (w[sel] * space.mu[sel]).sum() / mu_b / w[sel].min()
            else:
                continue
            if val > best[0]:
                best = (val, c, k)
        got = table.ap(w, scope, p)
        assert got[1:] == best[1:]
        assert got[0] == pytest.approx(best[0], rel=1e-12)
    brute_m = np.zeros(space.n)
    for _, _, mem in _brute_balls(space):
        brute_m[mem] = np.maximum(brute_m[mem], (w[mem] * space.mu[mem]).sum() / space.mu[mem].sum())
    np.testing.assert_allclose(table.maximal(w), brute_m, rtol=1e-12)


def test_grid_cover_matches_library():
    rng = np.random.default_rng(5)
    mask = workloads.holes_mask(32, rng)
    space = mw.build_grid_space(2, 32, 1.0)
    domain = mw.make_domain(space, mask)
    cover = mw.whitney_cover(space, domain)
    ref = oracle.GridCover(32, mask)
    np.testing.assert_array_equal(cover.centers, ref.centers)
    assert cover.overlap_n == ref.overlap_n
    sources = cover.centers[:3]
    np.testing.assert_allclose(mw.qh_distances(space, domain, sources), ref.qh(sources), rtol=1e-12)


def test_tracer_restores_the_library():
    import metricweights.factorization as fact

    before = (mw.maximal_fn, fact.maximal_fn, mw.space.CanonicalBallSet.ensure_all)
    t = tracer.Tracer()
    t.install()
    try:
        assert fact.maximal_fn is not before[1]
        space = mw.build_grid_space(1, 8, 1.0)
        mw.maximal_fn(space, np.ones(space.n))
    finally:
        t.uninstall()
    assert (mw.maximal_fn, fact.maximal_fn, mw.space.CanonicalBallSet.ensure_all) == before
    self_s, calls = t.self_times()
    assert calls["maximal.maximal_fn"] == 1
    assert calls["space.CanonicalBallSet.ensure_all"] == 1
    assert t.counts["maximal.balls_visited"] == space.canonical.ball_count()


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05]
    faster = [8.0, 8.1, 7.9, 8.0, 8.05]
    assert compare.verdict(parent, faster, list(zip(parent, faster)), "lower", 0.1)[1] == "improved"
    slower = [v * 1.2 for v in parent]
    assert compare.verdict(parent, slower, list(zip(parent, slower)), "lower", 0.1)[1] == "worse"
    assert compare.verdict(parent, parent, list(zip(parent, parent)), "lower", 0.1)[1] == "no worse"
    noisy = [5.0, 10.0, 15.0, 10.0, 12.0]
    assert compare.verdict(noisy, noisy, list(zip(noisy, noisy)), "lower", 0.1)[1] == "unresolved"


def test_sweep_alternates_which_side_runs_first(tmp_path, monkeypatch):
    calls = []

    def fake_run_one(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        metrics = {m: {"value": 1.0 + seed / 100, "unit": "s"}
                   for m in ("setup_s", "wall_s", "task_max_s", "peak_rss_mb")}
        return json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics})

    monkeypatch.setattr(sweep, "run_one", fake_run_one)
    (tmp_path / "change").mkdir()
    (tmp_path / "parent").mkdir()
    monkeypatch.chdir(tmp_path / "change")
    assert sweep.main(["--out", str(tmp_path / "out"), "--seeds", "1-2",
                       "--parent", str(tmp_path / "parent")]) == 0
    spec = json.loads(compare.BENCHMARK.read_text())
    firsts = [side for side, _, _, _ in calls[::2]]
    assert firsts == ["change", "parent"] * len(spec["workloads"])
    assert {seconds for *_, seconds in calls} == {spec["run_seconds"]}
    assert len(list((tmp_path / "out" / "parent").glob("*.json"))) == 2 * len(spec["workloads"])


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "whitney", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


# The exact counts each workload does work for, so that the cross-run check
# below compares counts that are not 0; together they are all of them.
NONZERO_COUNTS = {
    "whitney": {"space.ball_members.calls", "whitney.cover_balls"},
    "extend": {"maximal.sweeps", "maximal.balls_visited", "factorization.series_terms",
               "factorization.rdf_T.calls", "space.canonical_balls"},
}


def test_nonzero_counts_cover_every_exact_count():
    assert set().union(*NONZERO_COUNTS.values()) == set(tracer.EXACT_COUNTS)


@pytest.mark.parametrize("workload", sorted(NONZERO_COUNTS))
def test_traced_runs_repeat_their_exact_counts(workload):
    results, stderrs = [], []
    for _ in range(2):
        proc = _run(ROOT, "--workload", workload, "--seed", "4", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
        stderrs.append(proc.stderr)
    for result in results:
        assert result["correct"] and result["failed"] == 0
    counts = [{k: r["metrics"][k]["value"] for k in tracer.EXACT_COUNTS} for r in results]
    assert counts[0] == counts[1]
    for name in NONZERO_COUNTS[workload]:
        assert counts[0][name] > 0, name
    if workload == "extend":
        # The n = 1025, x^0.5, p = 2 extension takes 86 maximal sweeps.
        for text in stderrs:
            row = next(line for line in text.splitlines() if line.startswith("  extend_i512 "))
            assert int(row.split()[2]) == 86
