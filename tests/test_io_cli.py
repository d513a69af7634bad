import copy
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import metricweights
import oracles
from metricweights import (
    MetricMeasureSpace,
    ap_domain_characteristic,
    build_grid_space,
    cli,
    io,
    maximal_fn,
    reverse_holder_constant,
    space_from_matrix,
)
from metricweights import errors
from metricweights.errors import (
    FormatError,
    GraphDisconnected,
    NoConvergence,
    ParseError,
    SizeOverflow,
    VersionMismatch,
)
from metricweights.space import DENSE_CAP
from metricweights import studies
from metricweights.studies import interval_space, unit_band_subset
from metricweights.whitney import check_cover_invariants, make_domain, whitney_cover


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# -- space files -----------------------------------------------------------------


def test_matrix_space_round_trip(tmp_path, s2):
    target = tmp_path / "space.json"
    dense = space_from_matrix(s2.dist_matrix(), s2.mu, s2.edges, s2.meta)
    for space, kind in [(dense, "matrix"), (s2, "coords")]:
        io.save_space(target, space)
        assert json.loads(target.read_text())["metric"]["type"] == kind
        loaded = io.load_space(target)
        assert loaded.n == s2.n
        assert (loaded.coords is None) == (kind == "matrix")
        np.testing.assert_array_equal(loaded.mu, s2.mu)
        np.testing.assert_array_equal(loaded.dist_matrix(), s2.dist_matrix())
        assert loaded.meta == s2.meta
        assert loaded.edges == s2.edges  # grid edges survive either format


def test_version_mismatch_is_reported(tmp_path, s2):
    docs = {
        io.load_space: io.space_to_dict(s2),
        io.load_function: io.function_to_dict(np.ones(s2.n)),
        io.load_subset: {"ids": [0, 1]},
    }
    for loader, doc in docs.items():
        doc["version"] = 2
        with pytest.raises(VersionMismatch):
            loader(_write(tmp_path / "v2.json", doc))


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
        lambda d: d["mu"].__setitem__(1, float("nan")),
        lambda d: d["metric"]["data"][0].__setitem__(1, float("inf")),
        lambda d: d["metric"]["data"][1].__setitem__(0, float("nan")),
        lambda d: d["metric"]["edges"][0].__setitem__(2, float("nan")),
        lambda d: d["metric"]["edges"][0].__setitem__(2, float("inf")),
        lambda d: d["metric"].update(type="coords", data=[[0.0], [float("nan")]]),
        lambda d: d["metric"].update(type="coords", data=[[0.0], [float("inf")]]),
        lambda d: d["metric"].update(type="coords", data=[[0.0]]),
        lambda d: d["metric"].update(type="coords", data=[0.0, 1.0]),
        lambda d: d["metric"].update(type="coords", data=[[], []]),
        lambda d: d["metric"].update(type="coords", data=[[0.0], ["one"]]),
        lambda d: d["metric"].pop("data"),
        # numbers written as strings, and booleans, are refused, not cast
        lambda d: d.update(n=True, mu=[1.0], metric={"type": "coords", "data": [[0.0]]}),
        lambda d: d.update(mu=[str(m) for m in d["mu"]]),
        lambda d: d.update(mu=[True] * len(d["mu"])),
        lambda d: d["metric"].update(data=[[str(x) for x in row] for row in d["metric"]["data"]]),
        lambda d: d["metric"].update(type="coords", data=[[str(i)] for i in range(d["n"])]),
        lambda d: d["metric"]["edges"][0].__setitem__(2, "1.0"),
        lambda d: d["metric"]["edges"][0].__setitem__(0, True),
    ],
)
def test_malformed_space_documents_fail_to_parse(tmp_path, s2, mangle):
    # A dense space, so the document holds a matrix for the matrix mangles;
    # the coords mangles replace it with bad coordinates.
    doc = io.space_to_dict(space_from_matrix(s2.dist_matrix(), s2.mu, s2.edges))
    assert doc["metric"]["type"] == "matrix"
    mangle(doc)
    with pytest.raises(ParseError):
        io.load_space(_write(tmp_path / "mangled.json", doc))


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda d: d.update(metric=[0.0]), "'metric' must be an object with a type"),
        (lambda d: d["metric"].pop("type"), "'metric' must be an object with a type"),
        (lambda d: d["metric"].update(edges={"0": [0, 1, 1.0]}), "'edges' must be a list"),
        (lambda d: d["metric"].update(type="graph", edges=[]), "nonempty edge list"),
        (lambda d: d["metric"].update(type="graph", edges=None), "nonempty edge list"),
    ],
)
def test_space_documents_with_a_malformed_metric_fail_to_parse(tmp_path, s2, mangle, message):
    doc = io.space_to_dict(s2)
    mangle(doc)
    with pytest.raises(ParseError, match=message):
        io.load_space(_write(tmp_path / "mangled.json", doc))


@pytest.mark.parametrize("loader", [io.load_space, io.load_function, io.load_subset])
def test_a_document_that_is_not_an_object_fails_to_parse(tmp_path, loader):
    with pytest.raises(ParseError, match="top-level value must be an object"):
        loader(_write(tmp_path / "list.json", [1, {"version": 1}]))


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
    for name, bad in [("arity", (1, 2)), ("field", (1, "two", 1.0)),
                      ("fraction", (0.6, 1.9, 1.0)), ("overflow", (0, float("inf"), 1.0))]:
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


def test_space_with_more_points_than_a_file_holds_is_not_saved(tmp_path):
    n = DENSE_CAP + 1
    dense = space_from_matrix(np.zeros((n, n)), np.ones(n))
    target = tmp_path / "dense.json"
    with pytest.raises(SizeOverflow):
        io.save_space(target, dense)
    assert not target.exists()
    # A space with coordinates is saved as them, at any size.
    grid = build_grid_space(2, 64, 1.0)
    io.save_space(target, grid)
    loaded = io.load_space(target)
    assert loaded.n == grid.n > DENSE_CAP
    np.testing.assert_array_equal(loaded.coords, grid.coords)
    np.testing.assert_array_equal(loaded.mu, grid.mu)
    assert loaded.edges == grid.edges


def _space_inputs(space, e_ids, d_ids, tmp_path):
    """The space as a coords file and as a matrix file, plus a weight on X, a
    weight on E, E itself and a domain D."""
    paths = {"coords": tmp_path / "coords.json", "matrix": tmp_path / "matrix.json"}
    io.save_space(paths["coords"], space)
    io.save_space(paths["matrix"], space_from_matrix(
        space.dist_matrix(), space.mu, space.edges, space.meta))
    for kind, path in list(paths.items()):
        assert json.loads(path.read_text())["metric"]["type"] == kind
    w = np.exp(np.random.default_rng(space.n).normal(0.0, 0.5, space.n))
    for name, save in [
        ("W_X", lambda p: io.save_function(p, w)),
        ("W_E", lambda p: io.save_function(p, w[e_ids], e_ids)),
        ("E", lambda p: io.save_subset(p, e_ids)),
        ("D", lambda p: io.save_subset(p, d_ids)),
    ]:
        paths[name] = tmp_path / f"{name}.json"
        save(paths[name])
    paths["x"], paths["y"] = str(d_ids[0]), str(d_ids[-1])
    return {k: str(v) for k, v in paths.items()}


def _grid_inputs(tmp_path):
    # Spacing 1/22 is not dyadic, so KD-tree distances could differ from the
    # dist_row formula in the last bit: make_domain and
    # min_positive_distance must not let that show.
    side = 12
    space = build_grid_space(2, side, 1.0 / 22.0)
    i, j = np.divmod(np.arange(space.n), side)
    e_ids = np.flatnonzero(i < side // 2)
    d_ids = np.flatnonzero((i > 0) & (i < side - 1) & (j > 0) & (j < side - 1))
    return _space_inputs(space, e_ids, d_ids, tmp_path)


def _interval_inputs(tmp_path):
    space = interval_space(16)
    return _space_inputs(space, unit_band_subset(space), np.arange(1, space.n - 1), tmp_path)


def _cloud_inputs(tmp_path):
    # In 3-D, KD-tree distances differ from the dist_row formula in the last
    # bit; only the formula may decide a boundary distance or the resolution.
    rng = np.random.default_rng(5)
    coords = rng.uniform(size=(300, 3)) * [1.0, 0.1, 0.1]
    coords = coords[np.argsort(coords[:, 0])]
    mu = rng.uniform(0.5, 1.5, size=300)
    us = np.arange(299)
    lengths = MetricMeasureSpace(mu=mu, coords=coords).pair_dists(us, us + 1)
    space = MetricMeasureSpace(mu=mu, coords=coords, meta="cloud(n=300, dim=3)",
                               edges=np.column_stack([us, us + 1, lengths]))
    e_ids = np.flatnonzero(coords[:, 1] < 0.05)
    d_ids = np.flatnonzero((coords[:, 0] > 0.2) & (coords[:, 0] < 0.8))
    return _space_inputs(space, e_ids, d_ids, tmp_path)


# Every subcommand that reads a space file; keys of the inputs stand for paths.
_DATA_COMMANDS = [
    ["space", "validate"],
    ["ball", "doubling"],
    ["maximal", "--function", "W_X"],
    ["maximal", "--function", "W_X", "--subset", "E", "--radius-cap", "0.2"],
    ["characteristic", "--weight", "W_E", "--subset", "E", "--p", "2", "--eps-grid", "0,0.5"],
    ["characteristic", "--weight", "W_X", "--domain", "D", "--p", "1.5"],
    ["rhi", "--weight", "W_X", "--domain", "D", "--delta", "0.5"],
    ["factorize", "--weight", "W_E", "--subset", "E", "--p", "2"],
    ["extend", "--weight", "W_E", "--subset", "E", "--p", "1.5", "--eps", "0.5"],
    ["condition", "--weight", "W_E", "--subset", "E", "--p", "2", "--eps-grid", "0,0.5",
     "--budget", "30"],
    ["restrict", "--weight", "W_X", "--subset", "E", "--p", "2", "--eps", "0.25"],
    ["whitney", "--domain", "D"],
    ["chains", "--domain", "D"],
    ["qh", "--domain", "D", "--x", "x", "--y", "y"],
]


@pytest.mark.parametrize("make_inputs", [_grid_inputs, _interval_inputs, _cloud_inputs],
                         ids=["grid", "interval", "cloud"])
def test_coords_and_matrix_files_give_identical_reports(capsys, tmp_path, make_inputs):
    inputs = make_inputs(tmp_path)
    for command in _DATA_COMMANDS:
        argv = [inputs.get(a, a) for a in command]
        reports = []
        for kind in ("coords", "matrix"):
            rc, out, err = _run(capsys, argv + ["--space", inputs[kind]])
            assert (rc, err) == (0, ""), (command, kind)
            reports.append(out)
        assert reports[0] == reports[1], command
        json.loads(reports[0])


def test_a_grid_too_large_for_a_matrix_round_trips_to_whitney(capsys, tmp_path):
    target = tmp_path / "grid64.json"
    argv = ["space", "build", "--dim", "2", "--side", "64", "--out", str(target)]
    assert _run(capsys, argv) == (0, "", "")
    grid = build_grid_space(2, 64, 1.0)
    assert grid.n > DENSE_CAP
    xy = grid.coords
    d_ids = np.flatnonzero(np.hypot(xy[:, 0] - 31.5, xy[:, 1] - 31.5) < 24.0)
    domain_path = tmp_path / "disk.json"
    io.save_subset(domain_path, d_ids)
    rc, out, err = _run(capsys, ["whitney", "--space", str(target), "--domain", str(domain_path)])
    assert (rc, err) == (0, "")
    cover = whitney_cover(grid, make_domain(grid, d_ids))
    want = {
        "balls": [
            {"center": int(c), "radius": float(r), "members_count": int(m.size)}
            for c, r, m in zip(
                cover.centers, cover.radii, np.split(cover.members, cover.offsets[1:-1])
            )
        ],
        "overlap_n": cover.overlap_n,
        "n_edges": int(cover.edges.shape[0]),
        "invariants": check_cover_invariants(cover),
    }
    assert out == io.report_bytes(want).decode()


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
    for values in (["1", "2", "3e0"], [True, False]):
        with pytest.raises(ParseError, match="'values' must hold numbers"):
            io.load_function(
                _write(tmp_path / "str.json", {"version": 1, "domain": "X", "values": values})
            )
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ParseError, match="values"):
            io.load_function(
                _write(tmp_path / "nan.json", {"version": 1, "domain": "X", "values": [1.0, bad]})
            )


def test_subset_round_trip_sorts_and_rejects_duplicates(tmp_path):
    target = tmp_path / "e.json"
    io.save_subset(target, np.array([4, 0, 2]))
    np.testing.assert_array_equal(io.load_subset(target), [0, 2, 4])
    whole = io.load_subset(_write(tmp_path / "whole.json", {"version": 1, "ids": [3.0, 1]}))
    assert whole.dtype == np.intp and whole.tolist() == [1, 3]
    with pytest.raises(ParseError):
        io.load_subset(_write(tmp_path / "dup.json", {"version": 1, "ids": [1, 1]}))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "ids",
    [[2.7, 3], [[1, 2]], 3, ["1"], [1, None], [2, [3], 4], [1, 2**63], [1, 1e308], [True, False]],
)
def test_id_lists_in_files_must_be_integers(tmp_path, ids):
    with pytest.raises(ParseError, match="integer ids"):
        io.load_subset(_write(tmp_path / "e.json", {"version": 1, "ids": ids}))
    doc = {"version": 1, "domain": "E", "E": ids, "values": [1.0, 2.0]}
    with pytest.raises(ParseError, match="integer ids"):
        io.load_function(_write(tmp_path / "f.json", doc))


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
    assert doc["metric"]["type"] == "coords"


@pytest.mark.parametrize("spacing", ["1e200", "1e-200"])
def test_cli_space_build_refuses_a_spacing_out_of_float_range(capsys, spacing):
    # 1e200 overflowed the point mass, 1e-200 wrote masses of 0.0
    rc, out, err = _run(capsys, ["space", "build", "--dim", "2", "--side", "3",
                                 "--spacing", spacing])
    assert out == ""
    assert "spacing" in _assert_error(rc, err, 2, "InvalidParameter")


def test_cli_factorize_reports_a_factor_bound_that_overflows(capsys, tmp_path):
    space, weight = tmp_path / "space.json", tmp_path / "w.json"
    io.save_space(space, interval_space(2))
    argv = ["factorize", "--space", str(space), "--weight", str(weight), "--p", "1.05"]
    io.save_function(weight, 10.0 ** np.linspace(-8, 8, 5))
    assert _run(capsys, argv)[0] == 0
    # at p = 1.05 the reported bound is (2c)^20 / 2; on the wider weight it overflows
    io.save_function(weight, 10.0 ** np.linspace(-9, 9, 5))
    rc, out, err = _run(capsys, argv)
    assert out == ""
    assert "overflow" in _assert_error(rc, err, 3, "NoConvergence")


def test_cli_factorize_reports_a_certificate_that_overflows(capsys, tmp_path):
    space, weight = tmp_path / "space.json", tmp_path / "w.json"
    io.save_space(space, MetricMeasureSpace(mu=np.ones(9), coords=np.arange(9.0)[:, None]))
    io.save_function(weight, 10.0 ** np.array(
        [6.67, -1.21, 1.83, -1.66, -3.51, -7.75, -7.92, 7.88, 7.99]))
    rc, out, err = _run(capsys, ["factorize", "--space", str(space), "--weight", str(weight),
                                 "--p", "1.05"])
    assert out == ""
    assert "overflows" in _assert_error(rc, err, 3, "NoConvergence")


@pytest.mark.parametrize("scale", [1e-8, 1e8])
def test_cli_factorize_reports_a_dual_weight_out_of_float_range(capsys, tmp_path, scale):
    # at p = 1.02 the dual weight v ** -50 of 1e-8 overflows, and that of 1e8 underflows
    space, weight = tmp_path / "space.json", tmp_path / "w.json"
    io.save_space(space, interval_space(2))
    io.save_function(weight, np.array([scale, 1.0, 1.0, 1.0, 1.0]))
    rc, out, err = _run(capsys, ["factorize", "--space", str(space), "--weight", str(weight),
                                 "--p", "1.02"])
    assert out == ""
    assert "dual weight" in _assert_error(rc, err, 2, "ExponentRange")



@pytest.mark.parametrize("command, power", [
    (["extend", "--p", "2", "--eps", "1"], "w ** (1 + eps/2)"),
    (["condition", "--p", "2", "--eps-grid", "0,0.5", "--budget", "10"], "w ** (1 + eps)"),
    (["restrict", "--p", "2", "--eps", "0.25"], "W ** (1 + eps)"),
    (["characteristic", "--p", "2", "--eps-grid", "0,0.5"], "w ** (1 + eps)"),
    (["characteristic", "--p", "1.5"], "dual weight w ** (-1/(p-1))"),
])
def test_cli_reports_a_raised_weight_out_of_float_range(capsys, tmp_path, command, power):
    # 1e250 ** 1.25 overflows, and so does the dual weight 1e-250 ** -2 at p = 1.5
    space, weight = tmp_path / "space.json", tmp_path / "w.json"
    io.save_space(space, interval_space(2))
    extreme = 1e-250 if command[-1] == "1.5" else 1e250
    io.save_function(weight, np.array([extreme, 1.0, 1.0, 1.0, 1.0]))
    rc, out, err = _run(capsys, command + ["--space", str(space), "--weight", str(weight)])
    assert out == ""
    assert power in _assert_error(rc, err, 2, "ExponentRange")


@pytest.mark.parametrize("p", ["1", "2"])
def test_cli_reports_a_characteristic_out_of_float_range(capsys, tmp_path, p):
    # It exited 4 as FormatError, refusing to write the characteristic inf.
    space, weight = tmp_path / "space.json", tmp_path / "w.json"
    io.save_space(space, interval_space(2))
    io.save_function(weight, np.array([1e300, 1e-300, 1.0, 1.0, 1.0]))
    rc, out, err = _run(capsys, ["characteristic", "--p", p, "--space", str(space),
                                 "--weight", str(weight)])
    assert out == ""
    assert "leaves float range" in _assert_error(rc, err, 2, "ExponentRange")


def test_cli_factorize_at_p_1_bounds_both_factors_by_2c(capsys, line12):
    argv = ["factorize", "--space", line12["space"], "--weight", line12["w"], "--p", "1"]
    rc, out, err = _run(capsys, argv)
    assert (rc, err) == (0, "")
    report = json.loads(out)
    # w rises from 1 to 2 along the line, so m_E w / w peaks at the first
    # point, at the mean 1.5 (c read 1.0 for every weight)
    assert (report["branch"], report["k_max"], report["c"]) == ("p=1", 0, 0.75)
    assert report["bound_v1"] == report["bound_v2"] == 2.0 * report["c"] <= report["a1_char_v1"]


def test_cli_characteristic_refuses_both_a_subset_and_a_domain(capsys, line12):
    argv = ["characteristic", "--space", line12["space"], "--weight", line12["w"], "--p", "2",
            "--subset", line12["subset"], "--domain", line12["subset"]]
    rc, out, err = _run(capsys, argv)
    assert out == ""
    assert "not both" in _assert_error(rc, err, 4, "FormatError")


@pytest.mark.parametrize("command", [["factorize", "--p", "2"], ["extend", "--p", "2", "--eps", "0.5"]])
def test_cli_rejects_a_function_on_another_subset(capsys, tmp_path, line12, command):
    weight = tmp_path / "w_on_123.json"
    io.save_function(weight, np.ones(3), np.array([1, 2, 3]))
    argv = command + ["--space", line12["space"], "--weight", str(weight),
                      "--subset", line12["subset"]]
    rc, out, err = _run(capsys, argv)
    assert out == ""
    assert "does not match" in _assert_error(rc, err, 4, "FormatError")


def test_cli_rhi_reports_a_ball_sum_that_overflows(capsys, tmp_path):
    space, weight = tmp_path / "space.json", tmp_path / "w.json"
    io.save_space(space, build_grid_space(1, 9, 1.0))
    io.save_function(weight, np.full(9, 1e300))
    rc, out, err = _run(capsys, ["rhi", "--space", str(space), "--weight", str(weight),
                                 "--delta", "0.0267"])
    assert out == ""
    assert "overflows" in _assert_error(rc, err, 2, "ExponentRange")


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


@pytest.mark.parametrize("subset", [False, True])
def test_cli_maximal_rejects_a_function_of_the_wrong_length(capsys, tmp_path, line12, subset):
    argv = ["maximal", "--space", line12["space"]]
    if subset:
        argv += ["--subset", line12["subset"]]
    argv.append("--function")
    assert _run(capsys, argv + [line12["w"]])[0] == 0
    short = tmp_path / "short.json"
    io.save_function(short, np.ones(11))
    rc, out, err = _run(capsys, argv + [str(short)])
    assert out == ""
    assert "length" in _assert_error(rc, err, 4, "FormatError")


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


def test_cli_study_refine_chains_rows_hold_no_pairs(capsys, tmp_path):
    out_dir = tmp_path / "chains"
    argv = ["study", "refine", "--scenario", "chains", "--sides", "12,16", "--seed", "3",
            "--out", str(out_dir)]
    rc, _, err = _run(capsys, argv)
    assert (rc, err) == (0, "")
    doc = json.loads((out_dir / "study.json").read_text())
    assert [row["side"] for row in doc["rows"]] == [12, 16]
    for row in doc["rows"]:
        full = studies.chain_comparability_study(row["side"], seed=3)
        assert full["pairs"] and row == {k: v for k, v in full.items() if k != "pairs"}
    header = (out_dir / "study.csv").read_text().splitlines()[0].split(",")
    assert "pairs" not in header and "alpha" in header


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

    assert NoConvergence("stalled").exit_code == 3


# The CLI exit code of every error class: 2 for a domain error, 3 for a
# convergence error and 4 for a format error.
EXIT_CODES = {
    "MetricWeightsError": 2, "DomainError": 2, "ConvergenceError": 3, "FormatError": 4,
    "SizeOverflow": 2, "NonpositiveMass": 2, "GraphDisconnected": 2, "EmptySubset": 2,
    "ZeroFunction": 2, "NonpositiveG": 2, "NonpositiveWeight": 2, "ExponentRange": 2,
    "InvalidParameter": 2, "NoConvergence": 3, "BudgetExceededAtZero": 3, "NotProper": 2,
    "Unreachable": 2, "Disconnected": 2, "PreconditionFail": 2, "InclusionFail": 2,
    "ParseError": 4, "VersionMismatch": 4,
}


def test_every_error_class_keeps_its_exit_code():
    classes = {
        name: cls for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.MetricWeightsError)
    }
    assert {name: cls.exit_code for name, cls in classes.items()} == EXIT_CODES


@pytest.fixture
def line12(tmp_path):
    """A 12-point line, a weight on X, a subset file, and two with ids off the line."""
    paths = {}
    for name, save in [
        ("space", lambda p: io.save_space(p, build_grid_space(1, 12, 1.0))),
        ("w", lambda p: io.save_function(p, np.linspace(1.0, 2.0, 12))),
        ("subset", lambda p: io.save_subset(p, np.arange(1, 11))),
        ("outside", lambda p: io.save_subset(p, np.array([1, 2, 12]))),
        ("negative", lambda p: io.save_subset(p, np.array([-1, 2, 3]))),
    ]:
        paths[name] = str(tmp_path / f"{name}.json")
        save(paths[name])
    return paths


def _assert_error(rc, err, code, kind):
    assert rc == code
    doc = json.loads(err)["error"]
    assert (doc["type"], doc["exit_code"]) == (kind, code)
    return doc["message"]


def test_tol_is_a_usage_error_on_factorize_and_extend(capsys, line12):
    for command, extra in (("factorize", []), ("extend", ["--eps", "0.5"])):
        argv = [command, "--space", line12["space"], "--weight", line12["w"], "--p", "2"]
        argv += extra
        assert _run(capsys, argv)[0] == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--tol", "1e-3"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


def test_cli_maximal_rejects_a_nan_in_the_function_file(capsys, tmp_path, line12):
    argv = ["maximal", "--space", line12["space"], "--function"]
    rc, out, _ = _run(capsys, argv + [line12["w"]])
    assert rc == 0 and len(json.loads(out)["values"]) == 12
    values = np.linspace(1.0, 2.0, 12).tolist()
    values[4] = float("nan")
    nan_file = _write(tmp_path / "nan.json", {"version": 1, "domain": "X", "values": values})
    rc, out, err = _run(capsys, argv + [nan_file])
    assert out == ""
    assert nan_file in _assert_error(rc, err, 4, "ParseError")


def test_seed_is_a_usage_error_on_maximal(capsys, line12):
    argv = ["maximal", "--space", line12["space"], "--function", line12["w"]]
    assert _run(capsys, argv)[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["characteristic", "condition"])
def test_cli_rejects_a_negative_eps_grid(capsys, line12, command):
    argv = [command, "--space", line12["space"], "--weight", line12["w"], "--p", "2",
            "--eps-grid", "0,-0.5"]
    if command == "condition":
        argv += ["--budget", "10"]
    rc, out, err = _run(capsys, argv)
    assert out == ""
    _assert_error(rc, err, 2, "InvalidParameter")


@pytest.mark.parametrize("ids", ["outside", "negative"])
@pytest.mark.parametrize(
    "argv",
    [
        ["extend", "--weight", "w", "--p", "2", "--eps", "0.5"],
        ["factorize", "--weight", "w", "--p", "2"],
        ["characteristic", "--weight", "w", "--p", "2"],
        ["condition", "--weight", "w", "--p", "2", "--eps-grid", "0", "--budget", "10"],
        ["restrict", "--weight", "w", "--p", "2"],
        ["maximal", "--function", "w"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_rejects_subset_ids_outside_the_space(capsys, line12, argv, ids):
    # "w" in argv stands for the weight file
    argv = [line12.get(a, a) for a in argv] + ["--space", line12["space"], "--subset"]
    assert _run(capsys, argv + [line12["subset"]])[0] == 0
    rc, out, err = _run(capsys, argv + [line12[ids]])
    assert out == ""
    assert line12[ids] in _assert_error(rc, err, 4, "ParseError")


@pytest.mark.parametrize("ids", ["outside", "negative"])
@pytest.mark.parametrize(
    "argv",
    [
        ["characteristic", "--weight", "w", "--p", "2"],
        ["rhi", "--weight", "w", "--delta", "0.5"],
        ["whitney"],
        ["chains"],
        ["qh", "--x", "1", "--y", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_rejects_domain_ids_outside_the_space(capsys, line12, argv, ids):
    argv = [line12.get(a, a) for a in argv] + ["--space", line12["space"], "--domain"]
    assert _run(capsys, argv + [line12["subset"]])[0] == 0
    rc, out, err = _run(capsys, argv + [line12[ids]])
    assert out == ""
    assert line12[ids] in _assert_error(rc, err, 4, "ParseError")


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


@pytest.fixture
def line7(tmp_path):
    """A 7-point line with its 5 interior points, one interior point, and a longer line."""
    paths = {}
    for name, save in [
        ("space", lambda p: io.save_space(p, build_grid_space(1, 7, 1.0))),
        ("interior", lambda p: io.save_subset(p, np.arange(1, 6))),
        ("point", lambda p: io.save_subset(p, np.array([3]))),
        ("line11", lambda p: io.save_space(p, build_grid_space(1, 11, 1.0))),
        ("interior11", lambda p: io.save_subset(p, np.arange(1, 10))),
    ]:
        paths[name] = str(tmp_path / f"{name}.json")
        save(paths[name])
    return paths


@pytest.mark.parametrize("domain", ["interior", "point"])
def test_cli_chains_on_a_domain_too_small_to_sample(capsys, line7, domain):
    valid = ["chains", "--space", line7["line11"], "--domain", line7["interior11"]]
    assert _run(capsys, valid)[0] == 0
    rc, out, err = _run(capsys, ["chains", "--space", line7["space"], "--domain", line7[domain]])
    assert out == ""
    _assert_error(rc, err, 2, "PreconditionFail")


@pytest.mark.parametrize("command", [
    ["chains", "--space", "line11", "--domain", "interior11"],
    ["study", "refine", "--scenario", "chains", "--sides", "16"],
    ["study", "refine", "--scenario", "growth", "--sides", "8"],
])
def test_cli_rejects_a_negative_seed(capsys, line7, command):
    rc, out, err = _run(capsys, [line7.get(a, a) for a in command] + ["--seed", "-1"])
    assert out == ""
    assert "seed" in _assert_error(rc, err, 2, "InvalidParameter")


def test_cli_rejects_a_domain_point_with_a_copy_outside_the_domain(capsys, tmp_path):
    # Points 1 and 2 coincide; a domain holding only one of them has a
    # point at boundary distance 0.
    coords = np.array([[0, 0], [1, 0], [1, 0], [2, 0], [3, 0]], dtype=float)
    io.save_space(tmp_path / "space.json", MetricMeasureSpace(mu=np.ones(5), coords=coords))
    for ids in ([1, 2, 3], [1, 3]):
        io.save_subset(tmp_path / f"d{len(ids)}.json", np.array(ids))
    argv = ["whitney", "--space", str(tmp_path / "space.json"), "--domain"]
    assert _run(capsys, argv + [str(tmp_path / "d3.json")])[::2] == (0, "")
    for command in ("whitney", "chains"):
        argv[0] = command
        rc, out, err = _run(capsys, argv + [str(tmp_path / "d2.json")])
        assert out == ""
        assert "domain point 1 " in _assert_error(rc, err, 2, "PreconditionFail")


def test_cli_chains_reports_a_null_correlation_for_a_constant_sample(capsys, tmp_path, cube_path):
    space, mask = cube_path
    io.save_space(tmp_path / "space.json", space)
    io.save_subset(tmp_path / "domain.json", np.flatnonzero(mask))
    argv = ["chains", "--space", str(tmp_path / "space.json"), "--domain", str(tmp_path / "domain.json")]
    rc, out, err = _run(capsys, argv)
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert report["corr"] is None and report["n_pairs"] >= 2


@pytest.mark.parametrize(
    "x, y, flag",
    [("40", "2", "--x"), ("2", "40", "--y"), ("-1", "2", "--x"), ("0", "2", None), ("2", "6", None)],
)
def test_cli_qh_rejects_bad_endpoints(capsys, line7, x, y, flag):
    argv = ["qh", "--space", line7["space"], "--domain", line7["interior"]]
    rc, out, _ = _run(capsys, argv + ["--x", "2", "--y", "4"])
    assert rc == 0 and json.loads(out)["qh"] > 0
    rc, out, err = _run(capsys, argv + ["--x", x, "--y", y])
    assert out == ""
    message = _assert_error(rc, err, 2, "InvalidParameter")
    assert (flag or "domain") in message


@pytest.fixture
def line8(tmp_path):
    """An 8-point line from `space build`, saved as coords, as a matrix and as
    a graph, and a weight on it."""
    space = build_grid_space(1, 8, 1.0)
    docs = {
        "coords": io.space_to_dict(space),
        "matrix": io.space_to_dict(space_from_matrix(space.dist_matrix(), space.mu, space.edges)),
        "graph": {"version": 1, "n": 8, "mu": space.mu.tolist(),
                  "metric": {"type": "graph", "edges": space.edges}},
    }
    paths = {kind: _write(tmp_path / f"{kind}.json", doc) for kind, doc in docs.items()}
    paths["docs"] = docs
    paths["w"] = str(tmp_path / "w.json")
    io.save_function(paths["w"], np.linspace(1.0, 2.0, 8))
    return paths


@pytest.mark.parametrize("kind", ["coords", "matrix", "graph"])
@pytest.mark.parametrize("mass", [-1.0, 0.0])
def test_cli_rejects_a_space_file_with_a_nonpositive_mass(capsys, tmp_path, line8, kind, mass):
    argv = ["ball", "doubling", "--space"]
    rc, out, _ = _run(capsys, argv + [line8[kind]])
    assert rc == 0 and json.loads(out)["doubling_constant"] == pytest.approx(3.0)
    doc = line8["docs"][kind]
    doc["mu"][2] = mass
    doc["mu"][5] = -2.0
    rc, out, err = _run(capsys, argv + [_write(tmp_path / "bad.json", doc)])
    assert out == ""
    assert "point 2 " in _assert_error(rc, err, 2, "NonpositiveMass")


@pytest.mark.parametrize(
    "data",
    # the last one overflowed the KD-tree of `whitney` and `chains`
    [[[0.0]] * 7 + [[float("nan")]], [[0.0]] * 7, list(range(8)), [[0.0]] * 7 + [[1e308]]],
)
def test_cli_rejects_a_coords_file_with_bad_coordinates(capsys, tmp_path, line8, data):
    argv = ["ball", "doubling", "--space"]
    assert _run(capsys, argv + [line8["coords"]])[0] == 0
    doc = line8["docs"]["coords"]
    doc["metric"]["data"] = data
    bad = _write(tmp_path / "bad.json", doc)
    rc, out, err = _run(capsys, argv + [bad])
    assert out == ""
    assert bad in _assert_error(rc, err, 4, "ParseError")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["condition", "--p", "2", "--eps-grid", "0", "--budget", "{}"], "--budget"),
        (["condition", "--p", "2", "--eps-grid", "0,{}", "--budget", "10"], "--eps-grid"),
        (["characteristic", "--p", "{}"], "--p"),
        (["factorize", "--p", "{}"], "--p"),
        (["extend", "--p", "2", "--eps", "{}"], "--eps"),
        (["restrict", "--p", "2", "--eps", "{}"], "--eps"),
        (["rhi", "--delta", "{}"], "--delta"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_rejects_non_finite_parameters(capsys, line8, argv, flag, bad):
    base = ["--space", line8["coords"], "--weight", line8["w"]]
    good = [a.format("1.5") for a in argv] + base
    rc, out, _ = _run(capsys, good)
    assert rc == 0 and json.loads(out)
    rc, out, err = _run(capsys, [a.format(bad) for a in argv] + base)
    assert out == ""
    assert flag in _assert_error(rc, err, 2, "InvalidParameter")


def test_cli_rhi_refuses_a_delta_whose_power_overflows(capsys, line8):
    # 2.0 ** 1e6 is no float: a usage error, not a non-finite report (exit 4).
    argv = ["rhi", "--space", line8["coords"], "--weight", line8["w"], "--delta", "1e6"]
    rc, out, err = _run(capsys, argv)
    assert out == ""
    assert "delta" in _assert_error(rc, err, 2, "ExponentRange")


@pytest.mark.parametrize("cap", ["-1", "0", "nan"])
def test_cli_maximal_rejects_a_nonpositive_radius_cap(capsys, line8, cap):
    argv = ["maximal", "--space", line8["coords"], "--function", line8["w"], "--radius-cap"]
    rc, out, _ = _run(capsys, argv + ["2.5"])
    assert rc == 0 and json.loads(out)["radius_cap"] == 2.5
    rc, out, err = _run(capsys, argv + [cap])
    assert out == ""
    assert "radius" in _assert_error(rc, err, 2, "InvalidParameter")


@pytest.mark.parametrize(
    "argv",
    [
        ["study", "refine", "--scenario", "extension", "--sides", "{}"],
        ["study", "refine", "--scenario", "whitney", "--sides", "{}"],
        ["space", "build", "--dim", "1", "--side", "{}"],
    ],
    ids=["extension", "whitney", "build"],
)
def test_cli_rejects_a_side_of_zero(capsys, argv):
    rc, out, _ = _run(capsys, [a.format("4") for a in argv])
    assert rc == 0 and json.loads(out)
    rc, out, err = _run(capsys, [a.format("0") for a in argv])
    assert out == ""
    assert "side" in _assert_error(rc, err, 2, "InvalidParameter")


@pytest.mark.parametrize(
    "argv, kind, message",
    [
        (["condition", "--sides", "3", "--eps", "-5"], "InvalidParameter", "eps grid"),
        (["condition", "--sides", "4", "--exponent", "300"], "ExponentRange",
         "w ** (1 + eps) over- or underflows at eps = 0.5"),
        (["extension", "--sides", "4", "--eps", "-1"], "ExponentRange",
         "eps must be positive and finite"),
    ],
    ids=["condition-eps", "condition-power", "extension-eps"],
)
def test_cli_studies_check_eps_and_the_raised_weight(capsys, argv, kind, message):
    # Both studies take w ** (1 + eps) from the condition table, which checks both.
    rc, out, err = _run(capsys, ["study", "refine", "--scenario", *argv])
    assert out == ""
    assert message in _assert_error(rc, err, 2, kind)


def test_cli_takes_a_negative_number_after_its_flag(capsys, line12):
    # argparse alone reads "-1e-3" or "-0.5,0" after a flag as another flag
    argv = ["study", "refine", "--scenario", "condition", "--sides", "4"]
    rc, joined, _ = _run(capsys, argv + ["--exponent=-1e-3"])
    assert rc == 0 and json.loads(joined)["rows"]
    assert _run(capsys, argv + ["--exponent", "-1e-3"]) == (0, joined, "")
    argv = ["characteristic", "--space", line12["space"], "--weight", line12["w"], "--p", "2"]
    rc, out, _ = _run(capsys, argv + ["--eps-grid", "0,0.5"])
    assert rc == 0 and json.loads(out)
    rc, out, err = _run(capsys, argv + ["--eps-grid", "-0.5,0"])
    assert out == ""
    _assert_error(rc, err, 2, "InvalidParameter")


@pytest.mark.parametrize("argv", [["extend", "--p", "2", "--eps", "0.5"], ["rhi", "--delta", "0.5"]])
def test_cli_stderr_is_one_json_error_when_numpy_overflows(tmp_path, argv):
    # w ** (1 + eps/2) overflows at 1e308; numpy's warning must not reach
    # stderr ahead of the error. pytest captures warnings in process, so the
    # CLI runs in a process of its own.
    space, weight = tmp_path / "space.json", tmp_path / "w.json"
    io.save_space(space, build_grid_space(1, 12, 1.0))
    io.save_function(weight, np.where(np.arange(12) == 5, 1e308, np.linspace(1.0, 2.0, 12)))
    env = {**os.environ, "PYTHONPATH": str(Path(metricweights.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "metricweights.cli", *argv,
         "--space", str(space), "--weight", str(weight)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode in (2, 3, 4)
    assert done.stdout == ""
    assert json.loads(done.stderr)["error"]["exit_code"] == done.returncode


def test_writers_refuse_non_finite_numbers(tmp_path):
    with pytest.raises(FormatError, match="non-finite"):
        io.report_bytes({"value": float("nan")})
    target = tmp_path / "f.json"
    with pytest.raises(FormatError, match="non-finite"):
        io.save_function(target, np.array([1.0, np.inf]))
    assert not target.exists()
    with pytest.raises(FormatError, match="non-finite"):
        io.write_report(tmp_path, "r", {"value": 1.0}, meta={"seconds": np.float64("nan")})
    assert not (tmp_path / "r.meta.json").exists()
    assert not (tmp_path / "r.json").exists()


# -- fuzzing -----------------------------------------------------------------------------

_NESTED = [[0], [1, 2]]
_DELETE = "<delete>"
_FILE_KEYS = ("W_X", "W_E", "E", "D")


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    inputs = _space_inputs(build_grid_space(1, 12, 1.0), np.arange(6), np.arange(1, 11), tmp)
    inputs["mutated"] = str(tmp / "mutated.json")
    return inputs


def _nodes(doc, path=()):
    """The path of every value inside a JSON document, depth first."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield path + (key,)
            yield from _nodes(value, path + (key,))


def _refuse(constant):
    raise AssertionError(f"{constant} in the JSON output")


@given(
    command=st.sampled_from(_DATA_COMMANDS),
    kind=st.sampled_from(["coords", "matrix"]),
    target=st.integers(0, 3),
    node=st.integers(0, 10**4),
    value=st.sampled_from([None, True, "x", [], {}, _NESTED, 1e308, float("inf"), -1, 2**63,
                           _DELETE]),
)
@example(command=["whitney", "--domain", "D"], kind="coords", target=1, node=2, value=_NESTED)
# Node 30 of the coords file is the second id of its first edge.
@example(command=["ball", "doubling"], kind="coords", target=0, node=30, value=float("inf"))
def test_cli_fails_cleanly_on_a_mutated_input_file(fuzz_inputs, command, kind, target, node,
                                                   value):
    # Replace or delete one node of one file the command reads: the space
    # file or one of its function and subset files.
    files = [kind] + [a for a in command if a in _FILE_KEYS]
    key = files[target % len(files)]
    doc = json.loads(Path(fuzz_inputs[key]).read_text())
    paths = list(_nodes(doc))
    *parent, last = paths[node % len(paths)]
    holder = reduce(lambda d, k: d[k], parent, doc)
    if value == _DELETE:
        del holder[last]
    else:
        holder[last] = copy.deepcopy(value)
    _write(Path(fuzz_inputs["mutated"]), doc)
    inputs = {**fuzz_inputs, key: fuzz_inputs["mutated"]}
    argv = [inputs.get(a, a) for a in command] + ["--space", inputs[kind]]

    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 2, 3, 4), argv
    if rc:
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["error"]["exit_code"] == rc
    else:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=_refuse)
