"""Compare two result sets, one row per workload x end-to-end metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory of ``<workload>.<seed>.json`` files, each the
last output line of one untraced run (``sweep.py`` writes them). Runs are
paired by workload and seed. Each row gives both sides' median and
quartiles, the share of pairs the change won (ties count for neither), and
a verdict against the bound in BENCHMARK.json:

* improved: the change won at least 9 in 10 pairs and its median is better
  by more than the parent's own quartile spread;
* worse: the change's median is worse than the parent's by more than the
  bound (as a share of the parent's median);
* unresolved: not worse, but the parent's quartile spread is wider than the
  bound, and not every change run beats every parent run;
* no worse: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_set(directory) -> dict[str, dict[int, dict]]:
    """{workload: {seed: result}} from a result-set directory."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        workload, seed = path.stem.rsplit(".", 1)
        out.setdefault(workload, {})[int(seed)] = json.loads(path.read_text())
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[float, str]:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    share = wins / len(pairs) if pairs else float("nan")
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, _, p_q3 = quartiles(parent)
    gain = sign * (p_med - c_med)
    if pairs and share >= 0.9 and gain > p_q3 - p_q1:
        return share, "improved"
    if -gain > bound * abs(p_med):
        return share, "worse"
    all_better = all(sign * (a - b) > 0 for a in parent for b in change)
    if spread(parent) > bound and not all_better:
        return share, "unresolved"
    return share, "no worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    before, after = load_set(args.parent), load_set(args.change)
    header = (f"{'workload':<16} {'metric':<12} {'parent q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'won':>5}  verdict")
    print(header)
    worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        a_runs, b_runs = before.get(workload, {}), after.get(workload, {})
        if not a_runs or not b_runs:
            print(f"{workload:<16} (missing from one side)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs.values()]
            b = [r["metrics"][name]["value"] for r in b_runs.values()]
            pairs = [(a_runs[s]["metrics"][name]["value"], b_runs[s]["metrics"][name]["value"])
                     for s in sorted(set(a_runs) & set(b_runs))]
            share, word = verdict(a, b, pairs, metric["better"], metric["bound"])
            worse |= word == "worse"
            fa = "/".join(f"{v:.4g}" for v in quartiles(a))
            fb = "/".join(f"{v:.4g}" for v in quartiles(b))
            print(f"{workload:<16} {name:<12} {fa:>30} {fb:>30} {share:>5.2f}  {word}")
        failed = [r["failed"] for r in b_runs.values()]
        if any(failed):
            print(f"{workload:<16} change failed {sum(failed)} tasks")
            worse = True
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
