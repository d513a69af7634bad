"""Output checkers. They run outside the timed region and never read timing.

Every checker returns a list of problems; an empty list means the output is
correct. A checker that raises is treated by the runner as a failed task, so
a corrupted output can never crash a run.

Values that do not depend on the seed are pinned below; they are exact
mathematics of the fixed inputs, measured when the benchmark was added.
Seed-dependent values are recomputed by ``oracle``.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracle

REL = 1e-9

# study refine --scenario extension --sides 64,128,256 (w = x^0.5, p = 2, eps = 0.5).
# extension_ap is not pinned: a factorization with fewer series terms may
# legitimately certify a different global constant.
STUDY_EXTENSION_PINS = [
    # (side, n_points, n_balls, condition_value)
    (64, 129, 12545, 1.90236563165029),
    (128, 257, 49665, 1.9720359488037909),
    (256, 513, 197633, 2.0266702479514986),
]

# Doubling constant of build_grid_space(2, 45, 1/22).
DOUBLING_45 = 13.0

# validate_space(build_grid_space(2, 24, 1.0)).to_dict()
VALIDATE_24 = {"ok": True, "kind": None, "witness": None, "mode": "full"}

# study refine --scenario growth --sides 64,128: seed-independent fields.
GROWTH_PINS = {
    # side: (hold2_band, hold2_pairs, hold2_samples)
    64: (316.7913114825585, 78, 40),
    128: (316.7913114825585, 78, 40),
}


def close(a, b, rel: float = REL) -> bool:
    a, b = float(a), float(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def strict_json(raw: bytes | None):
    """Parse a report; NaN or Infinity are errors, as in strict JSON."""
    if raw is None:
        raise ValueError("report file missing")

    def refuse(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads(raw, parse_constant=refuse)


def _cli_report(out: dict, problems: list[str]):
    if out.get("exit") != 0:
        problems.append(f"CLI exit code {out.get('exit')}")
        return None
    try:
        return strict_json(out.get("report"))
    except ValueError as exc:
        problems.append(f"report: {exc}")
        return None


# -- extend ---------------------------------------------------------------------------


def extend_output(out: dict, e_ids: np.ndarray, w: np.ndarray) -> list[str]:
    problems: list[str] = []
    report = _cli_report(out, problems)
    if report is None:
        return problems
    try:
        W = np.asarray(strict_json(out.get("W"))["values"], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"W.json: {exc}"]
    if W.ndim != 1 or W.size <= int(e_ids.max()):
        return problems + ["W.json has the wrong length"]
    if not (np.all(np.isfinite(W)) and np.all(W > 0)):
        problems.append("W is not positive and finite")
    agreement = float(np.max(np.abs(W[e_ids] / w - 1.0)))
    if not agreement <= 1e-10:
        problems.append(f"W disagrees with w on E by {agreement:.3e}")
    ap_w = report.get("ap_constant_W")
    if not (isinstance(ap_w, (int, float)) and math.isfinite(ap_w) and ap_w >= 1.0):
        problems.append(f"ap_constant_W = {ap_w!r} is not finite and >= 1")
    if not report.get("agreement_error", 1.0) <= 1e-10:
        problems.append("reported agreement_error above 1e-10")
    return problems


def study_extension_output(out: dict) -> list[str]:
    problems: list[str] = []
    report = _cli_report(out, problems)
    if report is None:
        return problems
    rows = report.get("rows", [])
    if len(rows) != len(STUDY_EXTENSION_PINS):
        return problems + [f"expected {len(STUDY_EXTENSION_PINS)} rows, got {len(rows)}"]
    for row, (side, n_points, n_balls, cond) in zip(rows, STUDY_EXTENSION_PINS):
        if (row.get("side"), row.get("n_points"), row.get("n_balls")) != (side, n_points, n_balls):
            problems.append(f"side {side}: side/n_points/n_balls differ from the pins")
        if not close(row.get("condition_value", math.nan), cond):
            problems.append(f"side {side}: condition_value {row.get('condition_value')} != {cond}")
        ap = row.get("extension_ap")
        if not (isinstance(ap, float) and math.isfinite(ap) and ap >= 1.0):
            problems.append(f"side {side}: extension_ap {ap!r} is not finite and >= 1")
        if not row.get("agreement_error", 1.0) <= 1e-10:
            problems.append(f"side {side}: agreement_error above 1e-10")
    return problems


# -- characteristics ------------------------------------------------------------------


def _report_problems(name: str, got: dict, value: float, center: int, prefix: int) -> list[str]:
    problems = []
    if not close(got.get("value", math.nan), value):
        problems.append(f"{name}: value {got.get('value')} != reference {value}")
    witness = got.get("witness", {})
    if (witness.get("center"), witness.get("prefix")) != (center, prefix):
        problems.append(f"{name}: witness {witness} != reference ({center}, {prefix})")
    return problems


def _table_problems(name: str, got: dict, table: list[tuple[float, float]],
                    budget: float) -> list[str]:
    problems = []
    rows = got.get("table", [])
    if [r.get("eps") for r in rows] != [e for e, _ in table]:
        return [f"{name}: eps grid differs"]
    for row, (eps, char) in zip(rows, table):
        if not close(row.get("char", math.nan), char):
            problems.append(f"{name}: eps {eps}: char {row.get('char')} != reference {char}")
    fitting = [e for e, c in table if c <= budget]
    if got.get("best_eps") != (fitting[-1] if fitting else None):
        problems.append(f"{name}: best_eps {got.get('best_eps')} is not the reference")
    return problems


class CharacteristicsReference:
    """Reference values for the characteristics workload, built on first use."""

    def __init__(self, inputs: dict) -> None:
        self.inputs = inputs
        self._ref: dict | None = None

    def _build(self) -> dict:
        x = self.inputs
        table = oracle.BallTable(x["coords"], x["mu"])
        n = table.n
        half = np.zeros(n, dtype=bool)
        half[x["half"]] = True
        w_half = np.ones(n)
        w_half[x["half"]] = x["w_half"]
        w_x, everywhere = x["w_x"], np.ones(n, dtype=bool)
        ref: dict = {"budget": x["budget"]}
        ref["condition"] = [(e, table.ap(w_half ** (1 + e), half, 2.0)[0]) for e in x["eps_grid"]]
        ref["ap_domain_p1"] = table.ap(w_half, half, 1.0, centers=x["half"], whole_balls_only=True)
        ref["ap_domain_p2"] = table.ap(w_half, half, 2.0, centers=x["half"], whole_balls_only=True)
        hi = table.sums(w_x ** 1.5 * table.mu) / table.mu_ball
        lo = table.sums(w_x * table.mu) / table.mu_ball
        ref["reverse_holder"] = table.best(hi ** (1 / 1.5) / lo)[0]
        cr = table.maximal(x["f_x"]) ** 0.5
        ref["coifman_rochberg"] = (cr, table.ap(cr, everywhere, 1.0)[0])
        u = w_x ** 1.25
        sums = {}
        for tag, scope in (("e", half), ("x", everywhere)):
            a = table.sums(np.where(scope, u, 0.0) * table.mu) / table.mu_ball
            b = table.sums(np.where(scope, u ** -1.0, 0.0) * table.mu) / table.mu_ball
            sums[tag] = a * b
        ratio = np.where(table.is_end, sums["e"] / sums["x"], -np.inf)
        ref["restrict"] = (float(ratio.max()), table.ap(np.where(half, u, 1.0), half, 2.0),
                           table.ap(u, everywhere, 2.0))
        ref["self_improve"] = [(e, table.ap(w_x ** (1 + e), everywhere, 2.0)[0]) for e in x["eps_grid"]]
        return ref

    def check(self, name: str, got) -> list[str]:
        if self._ref is None:
            self._ref = self._build()
        ref = self._ref
        if name in ("condition", "self_improve"):
            return _table_problems(name, got, ref[name], ref["budget"])
        if name.startswith("ap_domain"):
            return _report_problems(name, got, *ref[name])
        if name == "reverse_holder":
            return [] if close(got["value"], ref[name]) else [f"{name}: {got['value']} != {ref[name]}"]
        if name == "doubling":
            return [] if close(got["value"], DOUBLING_45) else [f"{name}: {got['value']} != {DOUBLING_45}"]
        if name == "coifman_rochberg":
            w_ref, a1_ref = ref[name]
            w = np.asarray(got["w"], dtype=float)
            problems = []
            if w.shape != w_ref.shape or not np.allclose(w, w_ref, rtol=REL, atol=0.0):
                problems.append(f"{name}: weight differs from the reference")
            if not close(got["a1"], a1_ref):
                problems.append(f"{name}: a1 {got['a1']} != {a1_ref}")
            return problems
        if name == "restrict":
            worst, restricted, global_ = ref[name]
            problems = [] if close(got["max_ratio"], worst) else [f"{name}: max_ratio differs"]
            problems += _report_problems("restrict.restricted", got["restricted"], *restricted)
            problems += _report_problems("restrict.global", got["global"], *global_)
            return problems
        if name == "validate":
            return [] if got == VALIDATE_24 else [f"{name}: {got} != {VALIDATE_24}"]
        return [f"no checker for task {name}"]


# -- whitney ----------------------------------------------------------------------------


class WhitneyReference:
    """Brute-force covers of the studied domains, built on first use."""

    def __init__(self, holes_side: int, holes_mask: np.ndarray, sources, seed: int) -> None:
        self.holes_side = holes_side
        self.holes_mask = holes_mask
        self.sources = sources
        self.seed = seed
        self._covers: dict = {}

    def _cover(self, key):
        if key not in self._covers:
            if key == "holes":
                self._covers[key] = oracle.GridCover(self.holes_side, self.holes_mask)
            else:
                side = key
                lattice = np.stack(np.unravel_index(np.arange(side * side), (side, side)), axis=1)
                interior = ((lattice >= 1) & (lattice <= side - 2)).all(axis=1)
                self._covers[key] = oracle.GridCover(side, interior)
        return self._covers[key]

    def check_holes(self, got: dict) -> list[str]:
        problems = []
        inv = got["invariants"]
        for flag in ("quarter_disjoint", "covers_domain", "doubles_inside",
                     "sandwich_ok", "radius_ratio_ok"):
            if inv.get(flag) is not True:
                problems.append(f"holes: invariant {flag} is {inv.get(flag)}")
        ref = self._cover("holes")
        if not np.array_equal(np.asarray(got["centers"]), ref.centers):
            problems.append("holes: cover centers differ from the brute-force cover")
        if (inv.get("n_balls"), inv.get("overlap_n")) != (ref.centers.size, ref.overlap_n):
            problems.append(f"holes: n_balls/overlap_n {inv.get('n_balls')}/{inv.get('overlap_n')}"
                            f" != {ref.centers.size}/{ref.overlap_n}")
        qh, qh_ref = np.asarray(got["qh"]), ref.qh(self.sources)
        if qh.shape != qh_ref.shape or not np.array_equal(np.isinf(qh), np.isinf(qh_ref)) \
                or not np.allclose(qh[np.isfinite(qh)], qh_ref[np.isfinite(qh_ref)], rtol=REL, atol=0):
            problems.append("holes: quasihyperbolic distances differ from the reference")
        return problems

    def check_study(self, scenario: str, out: dict) -> list[str]:
        problems: list[str] = []
        report = _cli_report(out, problems)
        if report is None:
            return problems
        rows = report.get("rows", [])
        if [r.get("side") for r in rows] != [64, 128]:
            return problems + [f"{scenario}: expected sides 64,128"]
        for row in rows:
            side = row["side"]
            ref_cover = self._cover(side)
            if scenario == "chains":
                ref = ref_cover.chain_report(self.seed)
                exact = ("n_balls", "n_resolved", "n_pairs")
                approx = ("alpha", "corr")
            else:
                ref = ref_cover.growth_report(self.seed)
                exact = ("n_balls", "n_edges", "n_holdout")
                approx = ("alpha",)
                if row.get("violations") != 0:
                    problems.append(f"growth side {side}: {row.get('violations')} chain-bound violations")
                pins = GROWTH_PINS[side]
                if (row.get("hold2_pairs"), row.get("hold2_samples")) != pins[1:] \
                        or not close(row.get("hold2_band", math.nan), pins[0]):
                    problems.append(f"growth side {side}: hold2 band differs from the pins")
            for key in exact:
                if row.get(key) != ref[key]:
                    problems.append(f"{scenario} side {side}: {key} {row.get(key)} != {ref[key]}")
            for key in approx:
                if not close(row.get(key, math.nan), ref[key]):
                    problems.append(f"{scenario} side {side}: {key} {row.get(key)} != {ref[key]}")
            if row.get("seed") != self.seed:
                problems.append(f"{scenario} side {side}: seed not echoed")
        return problems
