"""Byte-identity manifest: the sha256 of every output of a fixed list of runs.

    python tests/manifest.py <checkout> <out>

imports metricweights from <checkout>/src, runs a fixed list of CLI commands
on a coordinate file and a matrix file of each space, and a fixed list of
library calls, and writes to <out> one JSON object that maps each output to
the sha256 of its bytes:

* every CLI report (<name>.json; never the .meta.json beside it), function
  file and study CSV, the stdout of a command run without --out, and the
  error object and exit code of a command that fails;
* the raw bytes (with dtype and shape) of library arrays: extensions at p = 1,
  1.5, 2 and 3 (at p = 1.5 and 2 also on E = one point and E = X minus one
  point), characteristics, maximal functions and doubling constants at
  n = 64 to 2025, and six random Whitney domains with their covers, chains
  and quasihyperbolic distances; and the JSON of the studies.

Every input file is written here with plain json, so two checkouts read the
same bytes. Diffing the manifests of two checkouts lists the outputs that
moved: `diff <(python -m json.tool a.json) <(python -m json.tool b.json)`.
pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import io as stdio
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(value) -> str:
    """sha256 of an array's dtype, shape and bytes, or of a value's sorted JSON."""
    if isinstance(value, np.ndarray):
        head = f"{value.dtype.str}{value.shape}".encode()
        return _sha(head + np.ascontiguousarray(value).tobytes())
    return _sha(json.dumps(value, sort_keys=True, default=_plain).encode())


def _plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if hasattr(obj, "__dict__"):
        return {k: v for k, v in vars(obj).items() if not k.startswith("_")}
    raise TypeError(type(obj).__name__)


def _save(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _grid(dim: int, side: int, spacing: float):
    """Coordinates, masses and axis edges of a lattice, as build_grid_space lays them out."""
    lattice = np.stack(np.meshgrid(*[np.arange(side)] * dim, indexing="ij"), -1).reshape(-1, dim)
    edges = []
    for a in range(dim):
        step = side ** (dim - 1 - a)
        edges += [[int(u), int(u + step), spacing] for u in np.flatnonzero(lattice[:, a] < side - 1)]
    return lattice * spacing, np.full(len(lattice), spacing**dim), edges


def _space_files(work: Path, name: str, coords, mu, edges) -> dict:
    """The space as a coords file and as a matrix file."""
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1))
    files = {}
    for kind, data in (("coords", coords), ("matrix", dist)):
        metric = {"type": kind, "data": data.tolist(), "edges": edges}
        doc = {"version": 1, "n": len(mu), "metric": metric, "mu": mu.tolist(), "meta": name}
        files[kind] = _save(work / f"{name}_{kind}.json", doc)
    return files


def _cli_inputs(work: Path) -> list[dict]:
    """Spaces with a weight on X, a subset E with a weight on it, and a domain D."""
    rng = np.random.default_rng(24)
    cases = []
    for name, (dim, side, spacing) in {"line": (1, 33, 1 / 16), "grid": (2, 12, 0.5)}.items():
        coords, mu, edges = _grid(dim, side, spacing)
        n = len(mu)
        interior = np.flatnonzero(((coords > 0) & (coords < (side - 1) * spacing)).all(axis=1))
        e_ids = np.flatnonzero(rng.random(n) < 0.5)
        case = {
            "name": name,
            "spaces": _space_files(work, name, coords, mu, edges),
            "w": _save(work / f"{name}_w.json", {
                "version": 1, "domain": "X", "values": rng.lognormal(size=n).tolist()}),
            "e": _save(work / f"{name}_e.json", {"version": 1, "ids": e_ids.tolist()}),
            "we": _save(work / f"{name}_we.json", {
                "version": 1, "domain": "E", "E": e_ids.tolist(),
                "values": rng.lognormal(size=e_ids.size).tolist()}),
            "d": _save(work / f"{name}_d.json", {"version": 1, "ids": interior.tolist()}),
            "wd": _save(work / f"{name}_wd.json", {
                "version": 1, "domain": "E", "E": interior.tolist(),
                "values": rng.lognormal(size=interior.size).tolist()}),
            "x": int(interior[0]),
            "y": int(interior[-1]),
        }
        cases.append(case)
    return cases


def _commands(work: Path, case: dict, kind: str) -> list[list[str]]:
    c, space = case, case["spaces"][kind]
    out = lambda tag: ["--out", str(work / "out" / f"{c['name']}_{kind}_{tag}")]  # noqa: E731
    cmds = [
        ["space", "validate", "--space", space],
        ["ball", "doubling", "--space", space],
        ["maximal", "--space", space, "--function", c["w"]],
        ["maximal", "--space", space, "--function", c["w"], "--subset", c["e"],
         "--radius-cap", "0.75"],
        ["characteristic", "--space", space, "--weight", c["w"], "--p", "2"],
        ["characteristic", "--space", space, "--weight", c["we"], "--subset", c["e"], "--p", "1"],
        ["characteristic", "--space", space, "--weight", c["wd"], "--domain", c["d"], "--p", "1.5"],
        ["characteristic", "--space", space, "--weight", c["w"], "--p", "2",
         "--eps-grid", "0,0.5,1"],
        ["rhi", "--space", space, "--weight", c["w"], "--delta", "0.5"],
        ["rhi", "--space", space, "--weight", c["wd"], "--domain", c["d"], "--delta", "0.25"],
        ["condition", "--space", space, "--weight", c["we"], "--subset", c["e"], "--p", "2",
         "--eps-grid", "0,0.25,0.5", "--budget", "10"],
        ["restrict", "--space", space, "--weight", c["w"], "--subset", c["e"], "--p", "2",
         "--eps", "0.25"],
        ["whitney", "--space", space, "--domain", c["d"]],
        ["chains", "--space", space, "--domain", c["d"], "--seed", "1"],
        ["qh", "--space", space, "--domain", c["d"], "--x", str(c["x"]), "--y", str(c["y"])],
    ]
    for p in ("1", "1.5", "2", "3"):
        cmds.append(["factorize", "--space", space, "--weight", c["we"], "--subset", c["e"],
                     "--p", p] + out(f"factorize_{p}"))
        cmds.append(["extend", "--space", space, "--weight", c["we"], "--subset", c["e"],
                     "--p", p, "--eps", "0.5"] + out(f"extend_{p}"))
    return cmds


def _run_cli(cli, argv: list[str]) -> dict:
    """The hashes of one command's exit code, stdout, stderr and files under --out."""
    out_dir = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    stdout, stderr = stdio.StringIO(), stdio.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        rc = cli.main(argv)
    found = {"exit": str(rc), "stdout": _sha(stdout.getvalue().encode())}
    found["stderr"] = _sha(stderr.getvalue().encode())
    if out_dir is not None and out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            if not path.name.endswith(".meta.json"):
                found[path.name] = _sha(path.read_bytes())
    return found


def cli_manifest(work: Path) -> dict:
    from metricweights import cli

    manifest = {}

    def record(tag: str, argv: list[str]) -> None:
        shown = [a.replace(str(work), "") for a in argv]
        for key, value in _run_cli(cli, argv).items():
            manifest[f"cli {tag} {' '.join(shown)} :: {key}"] = value

    for case in _cli_inputs(work):
        for kind in case["spaces"]:
            for k, argv in enumerate(_commands(work, case, kind)):
                record(f"{case['name']}/{kind}#{k}", argv)
    # weights whose dual power v ** (1 - p') leaves float range at p = 1.02
    coords, mu, edges = _grid(1, 5, 0.5)
    for kind, space in _space_files(work, "line5", coords, mu, edges).items():
        for scale in (1e-8, 1e8):
            weight = _save(work / "dual.json", {
                "version": 1, "domain": "X", "values": [scale, 1.0, 1.0, 1.0, 1.0]})
            record(f"dual/{kind}/{scale:g}",
                   ["factorize", "--space", space, "--weight", weight, "--p", "1.02"])
    for scenario, sides in (("extension", "8,16"), ("condition", "8,16"), ("whitney", "8,12"),
                            ("chains", "12,16"), ("growth", "8,12")):
        argv = ["study", "refine", "--scenario", scenario, "--sides", sides, "--exponent", "-0.3",
                "--seed", "2", "--out", str(work / "out" / f"study_{scenario}")]
        record(f"study/{scenario}", argv)
    record("space-build", ["space", "build", "--dim", "2", "--side", "5", "--spacing", "0.5"])
    return manifest


def _both_backends(mw, space):
    return {"coords": space, "matrix": mw.space_from_matrix(space.dist_matrix(), space.mu,
                                                            space.edges, space.meta)}


def library_manifest(mw) -> dict:
    from metricweights import studies, whitney

    manifest = {}

    def record(tag: str, fn) -> None:
        try:
            value = fn()
        except mw.errors.MetricWeightsError as exc:
            value = f"{type(exc).__name__}: {exc}"
        manifest[f"lib {tag}"] = _digest(value)

    # extensions
    rng = np.random.default_rng(7)
    line = studies.interval_space(32)
    band = studies.unit_band_subset(line)
    for p in (1.0, 1.5, 2.0, 3.0):
        for kind, space in _both_backends(mw, line).items():
            w = mw.power_weight(line, -0.3, ids=band)
            ext = mw.wolff_extend(space, band, w, p, 0.5)
            fact = ext.factorization
            for field in ("W", "g"):
                record(f"extend/line/{kind}/p={p}/{field}", lambda: getattr(ext, field))
            for field in ("v1", "v2", "eta", "m_v1", "m_v2"):
                record(f"extend/line/{kind}/p={p}/{field}", lambda: getattr(fact, field))
            record(f"extend/line/{kind}/p={p}/report", lambda: ext.to_dict())
            record(f"extend/line/{kind}/p={p}/fact", lambda: [
                fact.c, fact.k_max, fact.residual, fact.branch, fact.a1_char_v1,
                fact.a1_char_v2, list(fact.bounds())])
        if p in (1.5, 2.0):
            # the warm-up's extreme views: one column, and all columns but one
            for name, e_ids in (("one-point", np.array([line.n // 3])),
                                ("all-but-one", np.delete(np.arange(line.n), line.n // 3))):
                w = mw.power_weight(line, -0.3, ids=e_ids)
                for kind, space in _both_backends(mw, line).items():
                    tag = f"extend/{name}/{kind}/p={p}"
                    record(tag, lambda: mw.wolff_extend(space, e_ids, w, p, 0.5).W)
                    record(f"{tag}/fact", lambda: mw.jones_factorize(space, e_ids, w, p).eta)
        grid = mw.build_grid_space(2, 7, 0.5)
        e_mask = rng.random(grid.n) < 0.5
        e_mask[0] = True
        w = rng.lognormal(size=int(e_mask.sum()))
        record(f"extend/grid/p={p}/W", lambda: mw.wolff_extend(grid, e_mask, w, p, 0.5).W)

    # characteristics, maximal functions and doubling, n = 64 to 2025
    for side in (8, 16, 32, 45):
        space = mw.build_grid_space(2, side, 1.0 / side)
        w = 10.0 ** rng.uniform(-1, 1, space.n)
        e_mask = rng.random(space.n) < 0.6
        e_mask[0] = True
        spaces = _both_backends(mw, space) if side <= 16 else {"coords": space}
        for kind, sp in spaces.items():
            tag = f"chars/n={space.n}/{kind}"
            for p in (1.0, 2.0, 3.0):
                record(f"{tag}/tilde/p={p}",
                       lambda: mw.ap_tilde_characteristic(sp, None, w, p).to_dict())
                record(f"{tag}/subset/p={p}",
                       lambda: mw.ap_tilde_characteristic(sp, e_mask, w[e_mask], p).to_dict())
                record(f"{tag}/domain/p={p}",
                       lambda: mw.ap_domain_characteristic(sp, e_mask, w[e_mask], p).to_dict())
            record(f"{tag}/rhi", lambda: mw.reverse_holder_constant(sp, w, 0.5))
            record(f"{tag}/rhi-domain",
                   lambda: mw.reverse_holder_constant(sp, w[e_mask], 0.5, domain=e_mask))
            record(f"{tag}/maximal", lambda: mw.maximal_fn(sp, w))
            record(f"{tag}/maximal-E", lambda: mw.maximal_fn(sp, w[e_mask], E=e_mask))
            record(f"{tag}/doubling", lambda: mw.doubling_constant(sp))
            record(f"{tag}/balls", lambda: sp.canonical.ball_count())

    # six random Whitney domains
    for seed in range(6):
        space, domain = studies.random_grid_domain(seed)
        cover = whitney.whitney_cover(space, domain)
        tag = f"whitney/seed={seed}"
        for field in ("centers", "radii", "members", "offsets", "mu_balls", "edges"):
            record(f"{tag}/{field}", lambda: getattr(cover, field))
        record(f"{tag}/invariants", lambda: whitney.check_cover_invariants(cover))
        record(f"{tag}/boundary", lambda: domain.boundary_dist)
        record(f"{tag}/chains", lambda: whitney.chain_distances(cover, np.arange(min(5, len(cover)))))
        record(f"{tag}/qh", lambda: whitney.qh_distances(space, domain, domain.ids[:3]))
        record(f"{tag}/averages", lambda: cover.ball_averages(np.arange(space.n) % 7 + 1.0))

    # studies
    record("study/growth", lambda: studies.chain_growth_study(8, seed=1))
    record("study/chains", lambda: studies.chain_comparability_study(12, seed=1))
    record("study/whitney", lambda: studies.whitney_refinement_study([8, 12]))
    record("study/extension", lambda: studies.extension_refinement_study([8, 16], -0.3))
    record("study/qh", lambda: studies.qh_interval_study(1 / 16))
    return manifest


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    checkout, out = Path(argv[0]).resolve(), Path(argv[1])
    sys.path.insert(0, str(checkout / "src"))
    import metricweights as mw
    import metricweights.errors  # noqa: F401  (mw.errors in library_manifest)

    if Path(mw.__file__).resolve().parent != checkout / "src" / "metricweights":
        sys.stderr.write(f"error: imported metricweights from {mw.__file__}\n")
        return 2
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        manifest = {**cli_manifest(Path(tmp)), **library_manifest(mw)}
    out.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    print(f"{len(manifest)} hashes written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
