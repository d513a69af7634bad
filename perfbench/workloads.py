"""The benchmark's three workloads: seeded inputs, timed tasks, checkers.

Each workload is a closed loop with one client: one process runs its tasks
back to back, and a task starts only after the previous one returned. A
workload's ``setup`` makes every input from the seed and writes the input
files; the library sees only those inputs. ``Task.run`` is the timed part.
``Task.collect`` turns what ``run`` returned into the output the checker
reads (files are read here, outside the timed region), and ``Task.check``
returns a list of problems, empty when the output is correct.

Why these three (see README.md for the full map of layers to metrics):

* extend: about 85% of its time is maximal-sweep self time, over a
  canonical cache that is built once per space and then reused by about 86
  sweeps per extension. Changes to the sweep count or cost show here.
* characteristics: many distinct per-center scans over a cold cache with
  about one sweep, plus validate_space; the only workload with threads.
* whitney: KD-tree ball queries, sparse incidence products and Dijkstra;
  never touches the canonical cache or maximal_fn, so it is the control for
  sweep and ball-scan changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import metricweights as mw
import metricweights.cli
from metricweights import io, studies

import check

WORKERS = 2  # nproc on the reference machine; only `characteristics` uses it


@dataclass
class Task:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object], list[str]]
    collect: Callable[[object], object] = field(default=lambda raw: raw)


def cli(argv: list[str]) -> int:
    # Looked up at call time, so the tracer's wrapper on cli.main is used.
    return metricweights.cli.main(argv)


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


# -- extend --------------------------------------------------------------------------


def setup_extend(work: Path, seed: int) -> list[Task]:
    rng = np.random.default_rng(seed)
    files = {}
    for tag, side in (("i512", 512), ("i256", 256)):
        space = studies.interval_space(side)
        e_ids = studies.unit_band_subset(space)
        if side == 512:
            w = mw.power_weight(space, 0.5, ids=e_ids)
        else:
            w = np.exp(rng.normal(0.0, 0.5, e_ids.size))
        io.save_space(work / f"{tag}.space.json", space)
        io.save_subset(work / f"{tag}.subset.json", e_ids)
        io.save_function(work / f"{tag}.weight.json", w, e_ids)
        files[tag] = (e_ids, w)

    def extend_task(tag: str, p: float) -> Task:
        out = work / f"out_{tag}"
        argv = ["extend", "--space", str(work / f"{tag}.space.json"),
                "--weight", str(work / f"{tag}.weight.json"),
                "--subset", str(work / f"{tag}.subset.json"),
                "--p", repr(p), "--eps", "0.5", "--out", str(out)]
        e_ids, w = files[tag]
        return Task(
            name=f"extend_{tag}",
            run=lambda ctx: cli(argv),
            collect=lambda code: {"exit": code, "report": _read(out / "extend.json"),
                                  "W": _read(out / "W.json")},
            check=lambda o: check.extend_output(o, e_ids, w),
        )

    study_out = work / "out_study"
    study_argv = ["study", "refine", "--scenario", "extension",
                  "--sides", "64,128,256", "--out", str(study_out)]
    return [
        extend_task("i512", 2.0),
        extend_task("i256", 1.5),
        Task(
            name="study_extension",
            run=lambda ctx: cli(study_argv),
            collect=lambda code: {"exit": code, "report": _read(study_out / "study.json")},
            check=check.study_extension_output,
        ),
    ]


# -- characteristics ------------------------------------------------------------------

GRID = (2, 45, 1.0 / 22.0)
EPS_GRID = (0.0, 0.25, 0.5, 1.0)
BUDGET = 30.0  # far above the eps = 0 characteristic of any seed, so no run raises


def setup_characteristics(work: Path, seed: int) -> list[Task]:
    rng = np.random.default_rng(seed)
    probe = mw.build_grid_space(*GRID)
    n = probe.n
    half = np.flatnonzero(probe.coords[:, 0] < 1.0 - 1e-9)  # the half-plane x < 1
    w_half = np.exp(rng.normal(0.0, 0.5, half.size))
    w_x = np.exp(rng.normal(0.0, 0.5, n))
    f_x = np.exp(rng.normal(0.0, 1.0, n))
    inputs = {"coords": probe.coords, "mu": probe.mu, "half": half,
              "w_half": w_half, "w_x": w_x, "f_x": f_x,
              "eps_grid": EPS_GRID, "budget": BUDGET}
    ref = check.CharacteristicsReference(inputs)

    def fresh_space(ctx):
        ctx["space"] = mw.build_grid_space(*GRID)
        return mw.check_extension_condition(
            ctx["space"], half, w_half, 2.0, EPS_GRID, BUDGET, workers=WORKERS
        ).to_dict()

    def crw(ctx):
        w, a1 = mw.coifman_rochberg_weight(ctx["space"], f_x, 0.5, workers=WORKERS)
        return {"a1": a1, "w": w}

    def validate(ctx):
        return mw.validate_space(mw.build_grid_space(2, 24, 1.0)).to_dict()

    def task(name, fn):
        return Task(name=name, run=fn, check=lambda o: ref.check(name, o))

    return [
        task("condition", fresh_space),
        task("ap_domain_p1", lambda ctx: mw.ap_domain_characteristic(
            ctx["space"], half, w_half, 1.0, workers=WORKERS).to_dict()),
        task("ap_domain_p2", lambda ctx: mw.ap_domain_characteristic(
            ctx["space"], half, w_half, 2.0, workers=WORKERS).to_dict()),
        task("reverse_holder", lambda ctx: {"value": mw.reverse_holder_constant(
            ctx["space"], w_x, 0.5, workers=WORKERS)}),
        task("doubling", lambda ctx: {"value": mw.doubling_constant(
            ctx["space"], workers=WORKERS)}),
        task("coifman_rochberg", crw),
        task("restrict", lambda ctx: mw.restrict_weight_report(
            ctx["space"], half, w_x, 2.0, eps=0.25, workers=WORKERS).to_dict()),
        task("self_improve", lambda ctx: mw.self_improve_epsilon(
            ctx["space"], w_x, 2.0, EPS_GRID, BUDGET, workers=WORKERS).to_dict()),
        task("validate", validate),
    ]


# -- whitney ---------------------------------------------------------------------------

HOLES_SIDE = 128
N_QH_SOURCES = 12


def holes_mask(side: int, rng: np.random.Generator) -> np.ndarray:
    """Interior of the side x side square minus three seeded rectangles."""
    lattice = np.stack(np.unravel_index(np.arange(side * side), (side, side)), axis=1)
    mask = ((lattice >= 1) & (lattice <= side - 2)).all(axis=1)
    for _ in range(3):
        lo = rng.integers(side // 8, side - side // 4, size=2)
        hi = lo + rng.integers(side // 32, side // 8, size=2)
        mask &= ~((lattice >= lo) & (lattice <= hi)).all(axis=1)
    return mask


def setup_whitney(work: Path, seed: int) -> list[Task]:
    rng = np.random.default_rng(seed)
    mask = holes_mask(HOLES_SIDE, rng)
    sources = np.sort(rng.choice(np.flatnonzero(mask), N_QH_SOURCES, replace=False))
    ref = check.WhitneyReference(HOLES_SIDE, mask, sources, seed)

    def holes(ctx):
        space = mw.build_grid_space(2, HOLES_SIDE, 1.0)
        domain = mw.make_domain(space, mask)
        cover = mw.whitney_cover(space, domain)
        return {
            "invariants": mw.check_cover_invariants(cover),
            "centers": cover.centers,
            "qh": mw.qh_distances(space, domain, sources),
        }

    tasks = []
    for scenario in ("chains", "growth"):
        out = work / f"out_{scenario}"
        argv = ["study", "refine", "--scenario", scenario, "--sides", "64,128",
                "--seed", str(seed), "--out", str(out)]
        tasks.append(Task(
            name=f"study_{scenario}",
            run=lambda ctx, argv=argv: cli(argv),
            collect=lambda code, out=out: {"exit": code,
                                           "report": _read(out / "study.json")},
            check=lambda o, scenario=scenario: ref.check_study(scenario, o),
        ))
    tasks.append(Task(name="holes", run=holes, check=ref.check_holes))
    return tasks


WORKLOADS = {
    "extend": setup_extend,
    "characteristics": setup_characteristics,
    "whitney": setup_whitney,
}


def warm_up(work: Path) -> None:
    """A tiny task through the same paths, so scipy's lazy imports are paid in set-up."""
    space = mw.build_grid_space(2, 8, 1.0)
    domain = mw.make_domain(space, np.arange(space.n) % 8 > 0)
    cover = mw.whitney_cover(space, domain)
    mw.check_cover_invariants(cover)
    mw.qh_distances(space, domain, cover.centers[:1])
    line = studies.interval_space(4)
    e_ids = studies.unit_band_subset(line)
    mw.wolff_extend(line, e_ids, np.ones(e_ids.size), 2.0, 0.5)
    io.save_space(work / "warm.space.json", line)
    io.load_space(work / "warm.space.json")


def fingerprint(output) -> bytes:
    """Canonical bytes of an output, for byte-identity across passes."""
    def enc(obj):
        if isinstance(obj, np.ndarray):
            return {"dtype": str(obj.dtype), "shape": obj.shape, "hex": obj.tobytes().hex()}
        if isinstance(obj, bytes):
            return obj.hex()
        if isinstance(obj, (np.integer, np.floating, np.bool_)):
            return obj.item()
        raise TypeError(type(obj).__name__)
    return json.dumps(output, sort_keys=True, default=enc).encode()
