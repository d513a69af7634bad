import json

import numpy as np
import pytest

import oracles
from metricweights import (
    ap_domain_characteristic,
    build_grid_space,
    cli,
    io,
    maximal_fn,
    reverse_holder_constant,
)
from metricweights.errors import (
    GraphDisconnected,
    NoConvergence,
    ParseError,
    SizeOverflow,
    VersionMismatch,
)
from metricweights.space import DENSE_CAP
from metricweights.studies import interval_space


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# -- space files -----------------------------------------------------------------


def test_matrix_space_round_trip(tmp_path, s2):
    target = tmp_path / "space.json"
    io.save_space(target, s2)
    loaded = io.load_space(target)
    assert loaded.n == s2.n
    np.testing.assert_array_equal(loaded.mu, s2.mu)
    np.testing.assert_array_equal(loaded.dist_matrix(), s2.dist_matrix())
    assert loaded.meta == s2.meta
    assert loaded.edges == s2.edges  # grid edges survive the matrix format


def test_version_mismatch_is_reported(tmp_path, s2):
    doc = io.space_to_dict(s2)
    doc["version"] = 2
    with pytest.raises(VersionMismatch):
        io.load_space(_write(tmp_path / "v2.json", doc))


def test_parse_error_carries_line_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "version": 1,\n  oops\n}\n')
    with pytest.raises(ParseError, match="line 3"):
        io.load_space(bad)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.pop("n"),
        lambda d: d.pop("mu"),
        lambda d: d.update(n=0),
        lambda d: d.update(mu=[1.0]),
        lambda d: d.update(metric={"type": "wedge"}),
        lambda d: d["metric"].update(data=[[0.0]]),
    ],
)
def test_malformed_space_documents_fail_to_parse(tmp_path, s2, mangle):
    doc = io.space_to_dict(s2)
    mangle(doc)
    with pytest.raises(ParseError):
        io.load_space(_write(tmp_path / "mangled.json", doc))


def test_graph_space_resolves_shortest_paths(tmp_path):
    edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (0, 3, 10.0), (3, 4, 0.5)]
    doc = {
        "version": 1,
        "n": 5,
        "mu": [1.0] * 5,
        "metric": {"type": "graph", "edges": edges},
        "meta": "wedge",
    }
    space = io.load_space(_write(tmp_path / "graph.json", doc))
    want = oracles.floyd_shortest_paths(5, edges)
    np.testing.assert_allclose(space.dist_matrix(), want, rtol=1e-12)
    assert space.edges == edges
    assert space.meta == "wedge"


def test_graph_space_must_be_connected(tmp_path):
    doc = {
        "version": 1,
        "n": 4,
        "mu": [1.0] * 4,
        "metric": {"type": "graph", "edges": [(0, 1, 1.0), (2, 3, 1.0)]},
    }
    with pytest.raises(GraphDisconnected):
        io.load_space(_write(tmp_path / "split.json", doc))


def test_graph_space_validates_edges(tmp_path):
    base = {"version": 1, "n": 3, "mu": [1.0] * 3}
    with pytest.raises(ParseError):
        io.load_space(
            _write(
                tmp_path / "range.json",
                {**base, "metric": {"type": "graph", "edges": [(0, 9, 1.0)]}},
            )
        )
    with pytest.raises(ParseError):
        io.load_space(
            _write(
                tmp_path / "len.json",
                {**base, "metric": {"type": "graph", "edges": [(0, 1, 0.0)]}},
            )
        )
    for name, bad in [("arity", (1, 2)), ("field", (1, "two", 1.0))]:
        with pytest.raises(ParseError, match=r"edges\[1\]"):
            io.load_space(
                _write(
                    tmp_path / f"{name}.json",
                    {**base, "metric": {"type": "graph", "edges": [(0, 1, 1.0), bad]}},
                )
            )


def test_oversized_graph_space_is_rejected(tmp_path):
    n = DENSE_CAP + 1
    doc = {
        "version": 1,
        "n": n,
        "mu": [1.0] * n,
        "metric": {"type": "graph", "edges": [(i, i + 1, 1.0) for i in range(n - 1)]},
    }
    with pytest.raises(SizeOverflow):
        io.load_space(_write(tmp_path / "huge.json", doc))


# -- function and subset files ------------------------------------------------------


def test_function_round_trip_on_x(tmp_path):
    target = tmp_path / "f.json"
    io.save_function(target, np.array([1.0, 2.5, 3.0]))
    ids, values = io.load_function(target)
    assert ids is None
    np.testing.assert_array_equal(values, [1.0, 2.5, 3.0])


def test_function_on_subset_sorts_ids(tmp_path):
    target = tmp_path / "f.json"
    io.save_function(target, np.array([30.0, 10.0]), e_ids=np.array([3, 1]))
    ids, values = io.load_function(target)
    np.testing.assert_array_equal(ids, [1, 3])
    np.testing.assert_array_equal(values, [10.0, 30.0])


def test_function_documents_are_validated(tmp_path):
    with pytest.raises(ParseError):
        io.load_function(
            _write(
                tmp_path / "dup.json",
                {"version": 1, "domain": "E", "E": [1, 1], "values": [1.0, 2.0]},
            )
        )
    with pytest.raises(ParseError):
        io.load_function(
            _write(
                tmp_path / "len.json",
                {"version": 1, "domain": "E", "E": [1], "values": [1.0, 2.0]},
            )
        )
    with pytest.raises(ParseError):
        io.load_function(
            _write(tmp_path / "dom.json", {"version": 1, "domain": "Y", "values": [1.0]})
        )


def test_subset_round_trip_sorts_and_rejects_duplicates(tmp_path):
    target = tmp_path / "e.json"
    io.save_subset(target, np.array([4, 0, 2]))
    np.testing.assert_array_equal(io.load_subset(target), [0, 2, 4])
    with pytest.raises(ParseError):
        io.load_subset(_write(tmp_path / "dup.json", {"version": 1, "ids": [1, 1]}))


# -- reports ---------------------------------------------------------------------------


def test_report_bytes_are_deterministic():
    payload = {"b": np.float64(1.5), "a": np.arange(3), "flag": np.bool_(True)}
    one = io.report_bytes(payload)
    two = io.report_bytes(dict(reversed(payload.items())))
    assert one == two
    doc = json.loads(one)
    assert doc == {"a": [0, 1, 2], "b": 1.5, "flag": True}
    assert one.endswith(b"\n")


def test_write_report_splits_payload_and_metadata(tmp_path):
    target = io.write_report(tmp_path, "answer", {"value": 42}, meta={"argv": ["x"]})
    assert target.read_bytes() == io.report_bytes({"value": 42})
    side = json.loads((tmp_path / "answer.meta.json").read_text())
    assert side["argv"] == ["x"]
    assert {"written_at", "host", "python", "numpy"} <= set(side)


def test_write_csv_encodes_nested_cells(tmp_path):
    target = tmp_path / "rows.csv"
    io.write_csv(target, [{"side": 8, "tags": [1, 2]}, {"side": 16, "tags": []}])
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "side,tags"
    assert lines[1].startswith("8,")
    io.write_csv(tmp_path / "empty.csv", [])
    assert (tmp_path / "empty.csv").read_text() == ""


# -- command line ----------------------------------------------------------------------


@pytest.fixture
def artifacts(tmp_path, s2, s3, line11):
    paths = {}
    for name, space in [("s2", s2), ("s3", s3), ("line11", line11)]:
        paths[name] = str(tmp_path / f"{name}.json")
        io.save_space(paths[name], space)
    paths["w14"] = str(tmp_path / "w14.json")
    io.save_function(paths["w14"], np.array([1.0, 4.0]))
    paths["ones3"] = str(tmp_path / "ones3.json")
    io.save_function(paths["ones3"], np.ones(3))
    paths["interior"] = str(tmp_path / "interior.json")
    io.save_subset(paths["interior"], np.arange(1, 10))
    paths["pair"] = str(tmp_path / "pair.json")
    io.save_subset(paths["pair"], np.array([0, 1]))
    paths["dir"] = str(tmp_path)
    return paths


def _run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_cli_characteristic_frozen_value(capsys, artifacts):
    rc, out, _ = _run(
        capsys,
        [
            "characteristic",
            "--space",
            artifacts["s2"],
            "--weight",
            artifacts["w14"],
            "--p",
            "2",
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(1.5625, rel=1e-12)
    assert doc["witness"]["prefix"] == 1


@pytest.fixture
def domain_artifacts(tmp_path):
    """A 6x6 grid, a weight on X and on a 16-point domain D, and D itself."""
    space = build_grid_space(2, 6, 1.0)
    w = oracles.random_weight(np.random.default_rng(11), space.n)
    d_ids = np.array([7, 8, 9, 10, 13, 14, 15, 16, 19, 20, 21, 22, 25, 26, 27, 28])
    paths = {"space": space, "w": w, "d_ids": d_ids}
    for name, save in [
        ("grid", lambda p: io.save_space(p, space)),
        ("w_x", lambda p: io.save_function(p, w)),
        ("w_d", lambda p: io.save_function(p, w[d_ids], d_ids)),
        ("domain", lambda p: io.save_subset(p, d_ids)),
    ]:
        paths[name] = str(tmp_path / f"{name}.json")
        save(paths[name])
    return paths


@pytest.mark.parametrize("weight", ["w_x", "w_d"])
def test_cli_characteristic_on_a_domain(capsys, domain_artifacts, weight):
    a = domain_artifacts
    space, w_d = a["space"], a["w"][a["d_ids"]]
    argv = ["characteristic", "--space", a["grid"], "--weight", a[weight],
            "--domain", a["domain"], "--p", "2"]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    want = ap_domain_characteristic(space, a["d_ids"], w_d, 2.0)
    assert out == io.report_bytes(want.to_dict()).decode()

    rc, out, _ = _run(capsys, argv + ["--eps-grid", "0,0.5"])
    assert rc == 0
    table = [
        {"eps": e, "value": ap_domain_characteristic(space, a["d_ids"], w_d ** (1.0 + e), 2.0).value}
        for e in (0.0, 0.5)
    ]
    assert out == io.report_bytes({"p": 2.0, "scope": "domain", "table": table}).decode()


@pytest.mark.parametrize("weight", ["w_x", "w_d"])
def test_cli_rhi_on_a_domain(capsys, domain_artifacts, weight):
    a = domain_artifacts
    rc, out, _ = _run(
        capsys,
        ["rhi", "--space", a["grid"], "--weight", a[weight], "--domain", a["domain"],
         "--delta", "0.5"],
    )
    assert rc == 0
    value = reverse_holder_constant(a["space"], a["w"][a["d_ids"]], 0.5, domain=a["d_ids"])
    assert out == io.report_bytes({"delta": 0.5, "value": value}).decode()


def test_cli_space_build_validate_doubling(capsys, tmp_path):
    target = tmp_path / "grid.json"
    rc, _, _ = _run(
        capsys,
        ["space", "build", "--dim", "1", "--side", "5", "--out", str(target)],
    )
    assert rc == 0
    rc, out, _ = _run(capsys, ["space", "validate", "--space", str(target)])
    assert rc == 0
    assert json.loads(out)["ok"] is True
    rc, out, _ = _run(capsys, ["ball", "doubling", "--space", str(target)])
    assert rc == 0
    assert json.loads(out)["doubling_constant"] == pytest.approx(3.0, rel=1e-12)


def test_cli_space_build_stdout(capsys):
    rc, out, _ = _run(capsys, ["space", "build", "--dim", "2", "--side", "3"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 9
    assert doc["metric"]["type"] == "matrix"


def test_cli_maximal_restricts_to_the_subset(capsys, tmp_path, line11, artifacts):
    f = 1.0 + np.sin(np.arange(11))
    f_path = tmp_path / "f.json"
    io.save_function(f_path, f)
    rc, out, _ = _run(
        capsys,
        [
            "maximal",
            "--space",
            artifacts["line11"],
            "--function",
            str(f_path),
            "--subset",
            artifacts["interior"],
        ],
    )
    assert rc == 0
    got = np.array(json.loads(out)["values"])
    ids = np.arange(1, 10)
    want = maximal_fn(line11, f[ids], E=ids)
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_cli_maximal_rejects_subset_functions(capsys, tmp_path, artifacts):
    f_path = tmp_path / "fe.json"
    io.save_function(f_path, np.array([1.0]), e_ids=np.array([0]))
    rc, _, err = _run(
        capsys,
        ["maximal", "--space", artifacts["s3"], "--function", str(f_path)],
    )
    assert rc == 4
    assert json.loads(err)["error"]["type"] == "FormatError"


def test_cli_extend_constant_weight(capsys, tmp_path, artifacts):
    out_dir = tmp_path / "ext"
    rc, _, _ = _run(
        capsys,
        [
            "extend",
            "--space",
            artifacts["s3"],
            "--weight",
            artifacts["ones3"],
            "--p",
            "2",
            "--eps",
            "1",
            "--out",
            str(out_dir),
        ],
    )
    assert rc == 0
    doc = json.loads((out_dir / "extend.json").read_text())
    assert doc["agreement_error"] <= 1e-12
    assert doc["ap_constant_W"] == pytest.approx(1.0, rel=1e-9)
    ids, w_values = io.load_function(out_dir / "W.json")
    assert ids is None
    np.testing.assert_allclose(w_values, 1.0, rtol=1e-9)


def test_cli_factorize_writes_the_factors(capsys, tmp_path, artifacts):
    out_dir = tmp_path / "fact"
    rc, _, _ = _run(
        capsys,
        [
            "factorize",
            "--space",
            artifacts["s3"],
            "--weight",
            artifacts["ones3"],
            "--p",
            "2",
            "--out",
            str(out_dir),
        ],
    )
    assert rc == 0
    doc = json.loads((out_dir / "factorize.json").read_text())
    assert doc["residual"] == 0.0
    assert doc["c"] == pytest.approx(2.0, rel=1e-12)
    for name in ("v1", "v2", "eta"):
        ids, values = io.load_function(out_dir / f"{name}.json")
        assert values.shape == (3,)


def test_cli_condition_and_restrict(capsys, artifacts):
    rc, out, _ = _run(
        capsys,
        [
            "condition",
            "--space",
            artifacts["s2"],
            "--weight",
            artifacts["w14"],
            "--p",
            "2",
            "--eps-grid",
            "0,1",
            "--budget",
            "2",
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["best_eps"] == 0.0
    assert doc["table"][1]["char"] == pytest.approx(4.515625, rel=1e-12)

    rc, out, _ = _run(
        capsys,
        [
            "restrict",
            "--space",
            artifacts["s2"],
            "--weight",
            artifacts["w14"],
            "--subset",
            artifacts["pair"],
            "--p",
            "2",
        ],
    )
    assert rc == 0
    assert json.loads(out)["max_ratio"] <= 1.0


def test_cli_whitney_chains_qh(capsys, artifacts):
    rc, out, _ = _run(
        capsys,
        [
            "whitney",
            "--space",
            artifacts["line11"],
            "--domain",
            artifacts["interior"],
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["balls"]) == 9
    assert doc["invariants"]["covers_domain"] is True

    rc, out, _ = _run(
        capsys,
        [
            "chains",
            "--space",
            artifacts["line11"],
            "--domain",
            artifacts["interior"],
        ],
    )
    assert rc == 0
    assert json.loads(out)["n_pairs"] == 6

    rc, out, _ = _run(
        capsys,
        [
            "qh",
            "--space",
            artifacts["line11"],
            "--domain",
            artifacts["interior"],
            "--x",
            "2",
            "--y",
            "7",
        ],
    )
    assert rc == 0
    assert json.loads(out)["qh"] > 0


def test_cli_study_refine_writes_csv(capsys, tmp_path):
    out_dir = tmp_path / "study"
    rc, _, _ = _run(
        capsys,
        [
            "study",
            "refine",
            "--scenario",
            "whitney",
            "--sides",
            "8,16",
            "--out",
            str(out_dir),
        ],
    )
    assert rc == 0
    doc = json.loads((out_dir / "study.json").read_text())
    balls = [row["n_balls"] for row in doc["rows"]]
    assert balls == sorted(balls) and balls[0] < balls[-1]
    lines = (out_dir / "study.csv").read_text().strip().splitlines()
    assert lines[0].startswith("side,")
    assert len(lines) == 3


def test_cli_exit_codes(capsys, tmp_path, artifacts):
    rc, _, err = _run(
        capsys,
        ["characteristic", "--space", str(tmp_path / "nope.json"), "--weight", artifacts["w14"], "--p", "2"],
    )
    assert rc == 4
    assert json.loads(err)["error"]["exit_code"] == 4

    full = tmp_path / "full.json"
    io.save_subset(full, np.arange(11))
    rc, _, err = _run(
        capsys,
        ["whitney", "--space", artifacts["line11"], "--domain", str(full)],
    )
    assert rc == 2
    assert json.loads(err)["error"]["type"] == "NotProper"

    assert cli._exit_code(NoConvergence("stalled")) == 3


def test_cli_reports_are_identical_for_any_worker_count(capsys, tmp_path):
    space = interval_space(20)
    space_path = tmp_path / "interval.json"
    io.save_space(space_path, space)
    w_path = tmp_path / "w.json"
    io.save_function(w_path, np.abs(space.coords[:, 0]) + 0.25)

    outputs = []
    for workers in (1, 2, 8):
        out_dir = tmp_path / f"w{workers}"
        rc, _, _ = _run(
            capsys,
            [
                "characteristic",
                "--space",
                str(space_path),
                "--weight",
                str(w_path),
                "--p",
                "2",
                "--eps-grid",
                "0,0.5,1",
                "--workers",
                str(workers),
                "--out",
                str(out_dir),
            ],
        )
        assert rc == 0
        outputs.append((out_dir / "characteristic.json").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
