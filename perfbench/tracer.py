"""Span tracing of the library, installed from outside it.

The tracer wraps every public function of each library module, plus a few
methods, and records one span per call: name, start, end, parent span and
task id. Spans stay in memory until the run writes them out. Modules bind
names at import time (``from .maximal import maximal_fn``), so each wrapper
is installed at every binding site in the package, not only where the
function is defined. Hooks on a few calls also record exact work counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
import weakref
from collections import defaultdict

import numpy as np

LAYERS = (
    "space", "maximal", "weights", "factorization", "extension",
    "whitney", "studies", "io", "cli", "parallel",
)

# The parallel layer runs the caller's own scan closures, so its calls are
# counted but get no span: a span there would take the scan time away from
# the layer that does the work.
COUNT_ONLY = ("parallel",)

# Methods are wrapped on their class. CanonicalBallSet.center is left out on
# purpose: it runs once per center inside every sweep, and a span there
# would cost more than the work it measures.
METHODS = (
    ("space", "CanonicalBallSet", "ensure_all"),
    ("space", "MetricMeasureSpace", "ball_members"),
)


class Tracer:
    """Records spans and work counts while installed; a no-op otherwise."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.task = ""
        self.hook_errors: set[str] = set()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._ball_counts = weakref.WeakKeyDictionary()
        self._built = weakref.WeakSet()
        self._hooks = {
            "maximal.maximal_fn": self._on_sweep,
            "factorization.jones_factorize": self._on_jones,
            "space.CanonicalBallSet.ensure_all": self._on_ensure_all,
            "weights.ap_tilde_characteristic": self._on_scan,
            "weights.ap_domain_characteristic": self._on_domain_scan,
            "weights.reverse_holder_constant": self._on_rh_scan,
            "whitney.whitney_cover": self._on_cover,
            "whitney.qh_distances": self._on_qh,
            "io.load_space": self._on_load,
            "io.load_function": self._on_load,
            "io.load_subset": self._on_load,
            "parallel.run_chunks": self._on_chunks,
        }

    # -- installation ----------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap the library in place; returns the targets that were not found."""
        import metricweights

        modules = {
            name: sys.modules.get(f"metricweights.{name}") for name in LAYERS
        }
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}",
                                                   span=layer not in COUNT_ONLY)
        missing = [name for name in LAYERS if modules[name] is None]
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            orig = getattr(cls, meth, None) if cls is not None else None
            if orig is None:
                missing.append(f"{layer}.{cls_name}.{meth}")
                continue
            self._set(cls, meth, self._wrap(orig, f"{layer}.{cls_name}.{meth}"))
        sites = [metricweights] + [m for m in modules.values() if m is not None]
        for site in sites:
            for attr, obj in list(vars(site).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._set(site, attr, wrapper)
        return missing

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str, span: bool = True):
        hook = self._hooks.get(name)
        if not span and hook is None:
            return fn
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            if getattr(local, "paused", False):
                return fn(*args, **kwargs)
            if not span:
                result = fn(*args, **kwargs)
                tracer._run_hook(name, hook, args, kwargs, result)
                return result
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.task)
            if hook is not None:
                tracer._run_hook(name, hook, args, kwargs, result)
            return result

        return wrapper

    def _run_hook(self, name, hook, args, kwargs, result) -> None:
        local = self._local
        local.paused = True
        try:
            hook(args, kwargs, result)
        except Exception as exc:  # a count lost must not stop the run
            self.hook_errors.add(f"{name}: {type(exc).__name__}: {exc}")
        finally:
            local.paused = False

    # -- work-count hooks ------------------------------------------------------------

    def _space_balls(self, space) -> int:
        cb = space.canonical
        count = self._ball_counts.get(cb)
        if count is None:
            count = self._ball_counts[cb] = cb.ball_count()
        return count

    def _on_sweep(self, args, kwargs, result) -> None:
        self.counts["maximal.balls_visited"] += self._space_balls(args[0])

    def _on_jones(self, args, kwargs, result) -> None:
        self.counts["factorization.series_terms"] += int(result.k_max)

    def _on_ensure_all(self, args, kwargs, result) -> None:
        cb = args[0]
        if cb not in self._built:
            self._built.add(cb)
            self.counts["space.canonical_balls"] += cb.ball_count()

    def _on_scan(self, args, kwargs, result) -> None:
        self.counts["weights.balls_scanned"] += self._space_balls(args[0])

    def _on_domain_scan(self, args, kwargs, result) -> None:
        space, domain = args[0], args[1]
        self._count_centers(space, domain)

    def _on_rh_scan(self, args, kwargs, result) -> None:
        domain = args[3] if len(args) > 3 else kwargs.get("domain")
        if domain is None:
            self._on_scan(args, kwargs, result)
        else:
            self._count_centers(args[0], domain)

    def _count_centers(self, space, domain) -> None:
        ids = np.asarray(domain)
        ids = np.flatnonzero(ids) if ids.dtype == bool else np.unique(ids)
        cb = space.canonical
        self.counts["weights.balls_scanned"] += sum(
            int(cb.center(int(c)).counts.shape[0]) for c in ids
        )

    def _on_cover(self, args, kwargs, result) -> None:
        self.counts["whitney.cover_balls"] += len(result)

    def _on_qh(self, args, kwargs, result) -> None:
        self.counts["whitney.qh_sources"] += int(result.shape[0])

    def _on_load(self, args, kwargs, result) -> None:
        path = args[0] if args else kwargs.get("path")
        self.counts["io.load_bytes"] += os.path.getsize(path)

    def _on_chunks(self, args, kwargs, result) -> None:
        workers = args[1] if len(args) > 1 else kwargs.get("workers", 1)
        if workers > 1 and len(result) > 1:
            self.counts["parallel.threaded_calls"] += 1

    # -- reduction ---------------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _self_durations(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for (_, start, end, parent, _) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time and number of calls."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span, own in zip(self.spans, self._self_durations()):
            self_s[span[0]] += own
            calls[span[0]] += 1
        return self_s, calls

    def by_task(self) -> dict[str, dict[str, float]]:
        """Per task: maximal sweeps and their self time, for the readable summary."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"sweeps": 0, "sweep_s": 0.0})
        for span, own in zip(self.spans, self._self_durations()):
            if span[0] == "maximal.maximal_fn":
                out[span[4]]["sweeps"] += 1
                out[span[4]]["sweep_s"] += own
        return dict(out)


def write_spans(path, spans) -> None:
    with open(path, "w") as fh:
        for name, start, end, parent, task in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "task": task}) + "\n")


def layer_metrics(self_s: dict[str, float], calls: dict[str, int],
                  counts: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Names ending in ``_s`` are self times; ``.calls`` and the other plain
    names are exact counts.
    """
    sweeps = calls["maximal.maximal_fn"]
    sweep_s = self_s["maximal.maximal_fn"]
    studies_self = sum(v for k, v in self_s.items() if k.startswith("studies."))
    return {
        "maximal.sweeps": (sweeps, "count"),
        "maximal.sweep_s": (sweep_s, "s"),
        "maximal.s_per_sweep": (sweep_s / sweeps if sweeps else 0.0, "s"),
        "maximal.balls_visited": (counts["maximal.balls_visited"], "count"),
        "factorization.jones.calls": (calls["factorization.jones_factorize"], "count"),
        "factorization.jones_self_s": (self_s["factorization.jones_factorize"], "s"),
        "factorization.rdf_T.calls": (calls["factorization.rdf_apply_T"], "count"),
        "factorization.rdf_T_self_s": (self_s["factorization.rdf_apply_T"], "s"),
        "factorization.series_terms": (counts["factorization.series_terms"], "count"),
        "extension.wolff_extend_self_s": (self_s["extension.wolff_extend"], "s"),
        "extension.condition_s": (self_s["extension.check_extension_condition"], "s"),
        "extension.restrict_self_s": (self_s["extension.restrict_weight_report"], "s"),
        "space.canonical_build_s": (self_s["space.CanonicalBallSet.ensure_all"], "s"),
        "space.canonical_balls": (counts["space.canonical_balls"], "count"),
        "space.validate_space_s": (self_s["space.validate_space"], "s"),
        "space.doubling_constant_s": (self_s["space.doubling_constant"], "s"),
        "space.ball_members.calls": (calls["space.MetricMeasureSpace.ball_members"], "count"),
        "space.ball_members_s": (self_s["space.MetricMeasureSpace.ball_members"], "s"),
        "weights.ap_tilde.calls": (calls["weights.ap_tilde_characteristic"], "count"),
        "weights.ap_tilde_s": (self_s["weights.ap_tilde_characteristic"], "s"),
        "weights.ap_domain_s": (self_s["weights.ap_domain_characteristic"], "s"),
        "weights.reverse_holder_s": (self_s["weights.reverse_holder_constant"], "s"),
        "weights.self_improve_s": (self_s["weights.self_improve_epsilon"], "s"),
        "weights.balls_scanned": (counts["weights.balls_scanned"], "count"),
        "whitney.make_domain_s": (self_s["whitney.make_domain"], "s"),
        "whitney.cover.calls": (calls["whitney.whitney_cover"], "count"),
        "whitney.cover_self_s": (self_s["whitney.whitney_cover"], "s"),
        "whitney.cover_balls": (counts["whitney.cover_balls"], "count"),
        "whitney.invariants_s": (self_s["whitney.check_cover_invariants"], "s"),
        "whitney.qh_s": (self_s["whitney.qh_distances"], "s"),
        "whitney.qh_sources": (counts["whitney.qh_sources"], "count"),
        "whitney.chain_s": (self_s["whitney.chain_distances"], "s"),
        "studies.self_s": (studies_self, "s"),
        "io.load_space_s": (self_s["io.load_space"], "s"),
        "io.load_bytes": (counts["io.load_bytes"], "bytes"),
        "io.write_report_s": (self_s["io.write_report"], "s"),
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.main_self_s": (self_s["cli.main"], "s"),
        "parallel.threaded_calls": (counts["parallel.threaded_calls"], "count"),
    }


# Counts that must repeat exactly between two traced passes over one seed.
EXACT_COUNTS = (
    "maximal.sweeps", "maximal.balls_visited", "factorization.series_terms",
    "factorization.rdf_T.calls", "space.canonical_balls",
    "space.ball_members.calls", "whitney.cover_balls",
)
