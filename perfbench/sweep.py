"""Run the workloads over several seeds into result sets, and print the spreads.

    python3 perfbench/sweep.py --out .bench_results --seeds 1-10
    python3 perfbench/sweep.py --out .bench_results --seeds 1-10 --parent ../parent

Each run is the checkout's own ``perfbench/run.py`` in its own process,
started from the root of that checkout, one run after another, with
BENCHMARK.json's ``run_seconds`` and ``--trace 0``. The current directory
is the checkout under test, the change. With ``--parent`` the two
checkouts are run pair by pair: for each workload and seed, the parent
and the change run back to back, and the side that goes first alternates,
so drift of the machine falls on both sides alike. The last output line of
each run is written to ``<out>/<side>/<workload>.<seed>.json``. For each
side, workload and metric the summary gives the median and the distance
between the first and third quartile as a share of the median, which is
what BENCHMARK.json's bounds are set against. With ``--parent`` it then
prints ``compare.py``'s table of the two sides.

For per-layer figures, run ``run.py --trace 1`` directly.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
from pathlib import Path

import compare
from compare import BENCHMARK, load_set, spread


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(checkout: Path, workload: str, seed: int, seconds: int) -> str:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed}: exit {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def summary(side: str, directory: Path, bounds: dict) -> None:
    for workload, runs in load_set(directory).items():
        for name in next(iter(runs.values()))["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs.values()]
            bound = bounds.get(name)
            flag = "" if bound is None else \
                f"  bound {bound}  {'ok' if spread(values) < bound / 3 else 'WIDE'}"
            print(f"{side:<7} {workload:<16} {name:<12} median {statistics.median(values):<12.6g} "
                  f"spread {spread(values):.4f}  n={len(values)}{flag}")


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--parent")
    args = parser.parse_args(argv)

    sides = {"change": Path.cwd()}
    if args.parent:
        sides["parent"] = Path(args.parent).resolve()
    out = Path(args.out)
    for side in sides:
        (out / side).mkdir(parents=True, exist_ok=True)
    pairs = itertools.product(args.workloads.split(","), args.seeds)
    for k, (workload, seed) in enumerate(pairs):
        for side in list(sides)[::1 if k % 2 == 0 else -1]:
            last = run_one(sides[side], workload, seed, spec["run_seconds"])
            (out / side / f"{workload}.{seed}.json").write_text(last + "\n")
            result = json.loads(last)
            print(f"{side:<7} {workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for side in sides:
        summary(side, out / side, bounds)
    if args.parent:
        return compare.main([str(out / "parent"), str(out / "change")])
    return 0


if __name__ == "__main__":
    sys.exit(main())
