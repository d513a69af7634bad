"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload extend --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
./src, never from an installed copy. Inputs and outputs go to
./.bench_work/<workload>/. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; everything else goes
to standard error, including a readable table of every metric with its
unit and the error rate.

setup_s is the median of SETUP_SAMPLES cold set-ups, each timed from the
start of its own Python process to the point where the first timed task
would start: this process's own, plus set-up-only runs of this script in
fresh processes after the timed passes, so every sample pays the imports,
scipy's lazy imports and the first writes of the input files.

--trace 0 reports the end-to-end metrics of untraced passes. --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, the tracing overhead, and checks that the exact work
counts repeat between traced passes; its readable table on standard error
also carries the end-to-end metrics of its untraced passes.
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_SAMPLES = 3  # this process's set-up plus two set-up-only processes
MIN_TRACED_PASSES = 2


def import_library(root: Path):
    src = root / "src"
    if not (src / "metricweights" / "__init__.py").is_file():
        sys.stderr.write(f"error: no library source at {src}/metricweights; "
                         "run from the root of a checkout\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import metricweights

    if Path(metricweights.__file__).resolve().parent != (src / "metricweights").resolve():
        sys.stderr.write(f"error: imported metricweights from {metricweights.__file__}\n")
        raise SystemExit(2)


def fresh_dir(path: Path) -> float:
    """Empty `path` of an earlier run's files; returns the seconds this took,
    which are the benchmark's housekeeping, not set-up."""
    t = time.perf_counter()
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return time.perf_counter() - t


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    """set-up seconds of `count` fresh set-up-only processes, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up-only run exited {proc.returncode}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_pass(tasks, tracer=None, label=""):
    """One closed-loop pass: every task, back to back. Returns timings and raw results."""
    ctx: dict = {}
    times, raws = [], []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for task in tasks:
        if tracer is not None:
            tracer.task = f"{label}:{task.name}"
        t = time.perf_counter()
        try:
            raw, err = task.run(ctx), None
        except Exception:  # the task failed; the run goes on and counts it
            raw, err = None, traceback.format_exc()
        times.append(time.perf_counter() - t)
        raws.append((raw, err))
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    outputs = []
    for task, (raw, err) in zip(tasks, raws):
        if err is None:
            try:
                outputs.append((task.collect(raw), None))
            except Exception:
                outputs.append((None, traceback.format_exc()))
        else:
            outputs.append((None, err))
    return {"wall": wall, "cpu": cpu, "times": times, "outputs": outputs}


def check_passes(tasks, passes, fingerprint):
    """Check every output of every pass. Returns (attempted, failed, messages).

    A task fails when it raised, when its checker reports a problem or
    raises, or when its output differs from the same task's output in the
    first pass (reports must be byte-identical across passes, traced or not).
    """
    attempted = failed = 0
    messages = []
    verdicts: dict[bytes, list[str]] = {}
    first: dict[str, bytes] = {}
    for index, p in enumerate(passes):
        for task, (output, err) in zip(tasks, p["outputs"]):
            attempted += 1
            if err is not None:
                failed += 1
                messages.append(f"pass {index} {task.name}: raised\n{err}")
                continue
            try:
                fp = fingerprint(output)
                if fp not in verdicts:
                    verdicts[fp] = task.check(output)
                problems = list(verdicts[fp])
            except Exception:
                fp, problems = None, [f"checker raised\n{traceback.format_exc()}"]
            if fp is not None and first.setdefault(task.name, fp) != fp:
                problems.append("output differs from the first pass")
            if problems:
                failed += 1
                messages.extend(f"pass {index} {task.name}: {m}" for m in problems)
    return attempted, failed, messages


def timed_passes(seconds, plan):
    """Run passes from `plan` (an iterator of pass kinds) until `seconds` have
    elapsed and the plan's required prefix is done."""
    start = time.perf_counter()
    for kind, required in plan:
        if not required and time.perf_counter() - start >= seconds:
            break
        yield kind


def untraced_plan():
    yield "plain", True
    while True:
        yield "plain", False


def traced_plan():
    yield "plain", True
    for _ in range(MIN_TRACED_PASSES):
        yield "traced", True
    while True:
        yield "plain", False
        yield "traced", False


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    import_library(root)
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    setup = workloads.WORKLOADS[args.workload]

    work = root / ".bench_work" / (args.workload + (".setup" if args.setup_only else ""))
    housekeeping_s = fresh_dir(work)
    seed = args.seed % 2**32  # numpy generators take only non-negative seeds
    tasks = setup(work, seed)
    workloads.warm_up(work)
    gc.collect()
    own_setup_s = time.perf_counter() - T_PROCESS - housekeeping_s
    if args.setup_only:
        shutil.rmtree(work, ignore_errors=True)
        return {"setup_s": own_setup_s}

    tracer = tracing.Tracer() if args.trace else None
    plan = traced_plan() if args.trace else untraced_plan()
    passes, span_log, layer_runs = [], [], []
    for kind in timed_passes(args.seconds, plan):
        label = f"p{len(passes)}"
        if kind == "traced":
            tracer.reset()
            missing = tracer.install()
            try:
                p = run_pass(tasks, tracer, label)
            finally:
                tracer.uninstall()
            self_s, calls = tracer.self_times()
            layer_runs.append((p, tracing.layer_metrics(self_s, calls, tracer.counts),
                               tracer.by_task()))
            span_log.extend(tracer.spans)
            if missing:
                sys.stderr.write(f"trace: not found, not traced: {missing}\n")
        else:
            p = run_pass(tasks)
        p["kind"], p["label"] = kind, label
        passes.append(p)
        gc.collect()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(
        [own_setup_s] + setup_samples(args.workload, args.seed, SETUP_SAMPLES - 1))

    attempted, failed, messages = check_passes(tasks, passes, workloads.fingerprint)
    plain = [p for p in passes if p["kind"] == "plain"]
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p["wall"] for p in plain), "s"),
        "task_max_s": (statistics.median(max(p["times"]) for p in plain), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    per_layer = {}
    if args.trace:
        counts = [{k: m[k][0] for k in tracing.EXACT_COUNTS} for _, m, _ in layer_runs]
        attempted += 1
        if any(c != counts[0] for c in counts[1:]):
            failed += 1
            messages.append(f"exact counts differ between traced passes: {counts}")
        for name, (_, unit) in layer_runs[0][1].items():
            per_layer[name] = (statistics.median(m[name][0] for _, m, _ in layer_runs), unit)
        traced_wall = statistics.median(p["wall"] for p, _, _ in layer_runs)
        per_layer["maximal.sweep_share"] = (
            per_layer["maximal.sweep_s"][0] / end_to_end["wall_s"][0], "ratio")
        per_layer["parallel.cpu_per_wall"] = (statistics.median(
            p["cpu"] / p["wall"] for p in plain), "ratio")
        per_layer["tracing.overhead_frac"] = (traced_wall / end_to_end["wall_s"][0] - 1.0, "ratio")
        spans_path = work / "spans.jsonl"
        tracing.write_spans(spans_path, span_log)
        sys.stderr.write(f"spans: {len(span_log)} written to {spans_path}\n")
        for hook_error in sorted(tracer.hook_errors):
            sys.stderr.write(f"trace: count lost: {hook_error}\n")
        sys.stderr.write("per task (first traced pass): seconds, maximal sweeps, "
                         "sweep self s, sweep share\n")
        p, _, per_task = layer_runs[0]
        for task, secs in zip(tasks, p["times"]):
            row = per_task.get(f"{p['label']}:{task.name}", {"sweeps": 0, "sweep_s": 0.0})
            sys.stderr.write(f"  {task.name:<20} {secs:9.4f} {row['sweeps']:6d} "
                             f"{row['sweep_s']:9.4f} {row['sweep_s'] / secs:6.3f}\n")

    for p in passes:
        sys.stderr.write(f"pass {p['label']} {p['kind']:<6} wall {p['wall']:.4f} s, "
                         f"cpu {p['cpu']:.4f} s, tasks "
                         + " ".join(f"{t:.4f}" for t in p["times"]) + "\n")
    for message in messages:
        sys.stderr.write(f"FAILED {message}\n")
    sys.stderr.write(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
                     f"({len(plain)} untraced), {len(tasks)} tasks each\n")
    for name, (value, unit) in {**end_to_end, **per_layer}.items():
        sys.stderr.write(f"  {name:<32} {value:>16.6g} {unit}\n")
    sys.stderr.write(f"  {'error_rate':<32} {failed / attempted:>16.6g} ratio"
                     f"  ({failed} of {attempted})\n")
    reported = per_layer if args.trace else end_to_end
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in reported.items()},
    }


if __name__ == "__main__":
    with contextlib.redirect_stdout(sys.stderr):
        result = main()
    sys.stdout.write(json.dumps(result) + "\n")
