"""Command-line interface.

Every subcommand reads JSON artifacts (space, function, subset files), runs
one library operation, and emits a deterministic JSON report either to
stdout or, with --out DIR, to <out>/<command>.json next to a metadata file
carrying the non-deterministic context (timestamp, host, argv).

Exit codes: 0 ok, 2 validation or precondition error, 3 convergence error,
4 parse or format error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io, studies
from .errors import (
    ConvergenceError,
    FormatError,
    InvalidParameter,
    MetricWeightsError,
    ParseError,
)
from .extension import check_extension_condition, restrict_weight_report, wolff_extend
from .factorization import jones_factorize
from .maximal import maximal_fn
from .space import build_grid_space, doubling_constant, validate_space
from .weights import (
    _eps_table,
    ap_domain_characteristic,
    ap_tilde_characteristic,
    reverse_holder_constant,
)
from .whitney import check_cover_invariants, make_domain, qh_distance, whitney_cover


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _check_finite(args) -> None:
    """Reject a NaN or infinite number in any float flag; no operation takes one."""
    for name, value in vars(args).items():
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not np.isfinite(v):
                flag = "--" + name.replace("_", "-")
                raise InvalidParameter(f"{flag} must be a finite number, got {v}")


def _emit(args, name: str, payload: dict) -> None:
    if args.out:
        meta = {"argv": sys.argv[1:], "workers": getattr(args, "workers", 1)}
        io.write_report(args.out, name, payload, meta)
    else:
        sys.stdout.write(io.report_bytes(payload).decode())


def _load_weight_on(space, path, expect_ids=None):
    """Load a function file and check its domain matches the expectation."""
    ids, values = io.load_function(path)
    if expect_ids is None:
        if ids is not None:
            raise FormatError("expected a function on X, got one on a subset")
        if values.shape != (space.n,):
            raise FormatError("function length does not match the space")
        return values
    if ids is None:
        if values.shape != (space.n,):
            raise FormatError("function length does not match the space")
        return values[expect_ids]
    if not np.array_equal(ids, expect_ids):
        raise FormatError("function subset does not match the requested subset")
    return values


def _subset_arg(space, args, flag: str = "subset"):
    """The ids of the --subset (or --domain) file, checked against the space."""
    path = getattr(args, flag, None)
    if path is None:
        return None
    ids = io.load_subset(path)
    if ids.size and (ids[0] < 0 or ids[-1] >= space.n):
        raise ParseError(f"{path}: 'ids' must lie in [0, {space.n})")
    return ids


# -- handlers ------------------------------------------------------------------


def _cmd_space_build(args) -> int:
    space = build_grid_space(args.dim, args.side, args.spacing)
    doc = io.space_to_dict(space)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, sort_keys=True) + "\n")
    else:
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return 0


def _cmd_space_validate(args) -> int:
    space = io.load_space(args.space)
    report = validate_space(space)
    _emit(args, "validate", report.to_dict())
    return 0


def _cmd_ball_doubling(args) -> int:
    space = io.load_space(args.space)
    value = doubling_constant(space)
    _emit(args, "doubling", {"doubling_constant": value, "n": space.n})
    return 0


def _cmd_maximal(args) -> int:
    space = io.load_space(args.space)
    f = _load_weight_on(space, args.function)
    subset = _subset_arg(space, args)
    if subset is not None:
        f = f[subset]
    values = maximal_fn(space, f, E=subset, radius_cap=args.radius_cap)
    payload = io.function_to_dict(values)
    payload["radius_cap"] = args.radius_cap
    _emit(args, "maximal", payload)
    return 0


def _cmd_characteristic(args) -> int:
    space = io.load_space(args.space)
    if args.domain and args.subset:
        raise FormatError("pass either --subset or --domain, not both")
    if args.domain:
        scope, ids = "domain", _subset_arg(space, args, "domain")
        characteristic = ap_domain_characteristic
    else:
        scope, ids = "subset", _subset_arg(space, args)
        characteristic = ap_tilde_characteristic
    expect = ids if ids is not None else np.arange(space.n)
    w = _load_weight_on(space, args.weight, expect_ids=expect)
    if args.eps_grid:
        report = _eps_table(
            lambda v: characteristic(space, ids, v, args.p).value,
            w, args.p, args.eps_grid, np.inf,
        )
        table = [{"eps": e, "value": c} for e, c in report.table]
        payload = {"p": args.p, "scope": scope, "table": table}
    else:
        payload = characteristic(space, ids, w, args.p).to_dict()
    _emit(args, "characteristic", payload)
    return 0


def _cmd_rhi(args) -> int:
    space = io.load_space(args.space)
    domain = _subset_arg(space, args, "domain")
    w = _load_weight_on(space, args.weight, expect_ids=domain)
    value = reverse_holder_constant(space, w, args.delta, domain=domain)
    _emit(args, "rhi", {"delta": args.delta, "value": value})
    return 0


def _cmd_factorize(args) -> int:
    space = io.load_space(args.space)
    e_ids = _subset_arg(space, args)
    expect = e_ids if e_ids is not None else np.arange(space.n)
    v = _load_weight_on(space, args.weight, expect_ids=expect)
    fact = jones_factorize(space, e_ids, v, args.p)
    k1, k2 = fact.bounds()
    payload = {
        "p": fact.p,
        "branch": fact.branch,
        "c": fact.c,
        "k_max": fact.k_max,
        "residual": fact.residual,
        "a1_char_v1": fact.a1_char_v1,
        "a1_char_v2": fact.a1_char_v2,
        "bound_v1": k1,
        "bound_v2": k2,
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        io.save_function(out / "v1.json", fact.v1, expect)
        io.save_function(out / "v2.json", fact.v2, expect)
        io.save_function(out / "eta.json", fact.eta, expect)
    _emit(args, "factorize", payload)
    return 0


def _cmd_extend(args) -> int:
    space = io.load_space(args.space)
    e_ids = _subset_arg(space, args)
    expect = e_ids if e_ids is not None else np.arange(space.n)
    w = _load_weight_on(space, args.weight, expect_ids=expect)
    report = wolff_extend(space, e_ids, w, args.p, args.eps)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        io.save_function(out / "W.json", report.W)
        io.save_function(out / "g.json", report.g)
        io.save_function(out / "v1.json", report.factorization.v1, expect)
        io.save_function(out / "v2.json", report.factorization.v2, expect)
    _emit(args, "extend", report.to_dict())
    return 0


def _cmd_condition(args) -> int:
    space = io.load_space(args.space)
    e_ids = _subset_arg(space, args)
    expect = e_ids if e_ids is not None else np.arange(space.n)
    w = _load_weight_on(space, args.weight, expect_ids=expect)
    report = check_extension_condition(
        space, e_ids, w, args.p, args.eps_grid, args.budget
    )
    _emit(args, "condition", report.to_dict())
    return 0


def _cmd_restrict(args) -> int:
    space = io.load_space(args.space)
    e_ids = _subset_arg(space, args)
    w = _load_weight_on(space, args.weight, expect_ids=None)
    report = restrict_weight_report(space, e_ids, w, args.p, eps=args.eps)
    _emit(args, "restrict", report.to_dict())
    return 0


def _cmd_whitney(args) -> int:
    space = io.load_space(args.space)
    domain = make_domain(space, _subset_arg(space, args, "domain"))
    cover = whitney_cover(space, domain)
    checks = check_cover_invariants(cover)
    payload = {
        "balls": [
            {"center": int(c), "radius": float(r), "members_count": int(m.size)}
            for c, r, m in zip(cover.centers, cover.radii, cover.members)
        ],
        "overlap_n": cover.overlap_n,
        "n_edges": int(cover.edges.shape[0]),
        "invariants": checks,
    }
    _emit(args, "whitney", payload)
    return 0


def _cmd_chains(args) -> int:
    space = io.load_space(args.space)
    domain = make_domain(space, _subset_arg(space, args, "domain"))
    payload = studies.chain_report(space, domain, seed=args.seed)
    _emit(args, "chains", payload)
    return 0


def _cmd_qh(args) -> int:
    space = io.load_space(args.space)
    domain = make_domain(space, _subset_arg(space, args, "domain"))
    for flag in ("x", "y"):
        if not 0 <= getattr(args, flag) < space.n:
            raise InvalidParameter(f"--{flag} must be a point id in [0, {space.n})")
    value = qh_distance(space, domain, args.x, args.y)
    _emit(args, "qh", {"x": args.x, "y": args.y, "qh": value})
    return 0


_SCENARIOS = {
    "extension": lambda args: studies.extension_refinement_study(
        args.sides, exponent=args.exponent, p=args.p, eps=args.eps
    ),
    "condition": lambda args: studies.condition_refinement_study(
        args.sides, exponent=args.exponent, p=args.p, eps=args.eps
    ),
    "whitney": lambda args: studies.whitney_refinement_study(args.sides),
    "chains": lambda args: [
        {
            k: v
            for k, v in studies.chain_comparability_study(s, seed=args.seed).items()
            if k != "pairs"
        }
        for s in args.sides
    ],
    "growth": lambda args: [
        studies.chain_growth_study(s, seed=args.seed) for s in args.sides
    ],
}


def _cmd_study_refine(args) -> int:
    rows = _SCENARIOS[args.scenario](args)
    payload = {"scenario": args.scenario, "rows": rows, "seed": args.seed}
    _emit(args, "study", payload)
    if args.out:
        io.write_csv(Path(args.out) / "study.csv", rows)
    return 0


# -- parser ---------------------------------------------------------------------


def _add_common(sp, out_help: str = "directory for report files") -> None:
    sp.add_argument("--out", help=out_help)
    sp.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricweights",
        description="Weights, maximal operators, and Whitney geometry on finite metric measure spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    space_p = sub.add_parser("space", help="build or validate space files")
    space_sub = space_p.add_subparsers(dest="action", required=True)
    b = space_sub.add_parser("build", help="uniform grid space")
    b.add_argument("--dim", type=int, required=True, choices=(1, 2, 3))
    b.add_argument("--side", type=int, required=True)
    b.add_argument("--spacing", type=float, default=1.0)
    b.add_argument("--out", help="target space file (stdout when omitted)")
    b.set_defaults(func=_cmd_space_build)
    v = space_sub.add_parser("validate", help="check the metric axioms")
    v.add_argument("--space", required=True)
    _add_common(v)
    v.set_defaults(func=_cmd_space_validate)

    ball_p = sub.add_parser("ball", help="ball-family statistics")
    ball_sub = ball_p.add_subparsers(dest="action", required=True)
    d = ball_sub.add_parser("doubling", help="doubling constant of the measure")
    d.add_argument("--space", required=True)
    _add_common(d)
    d.set_defaults(func=_cmd_ball_doubling)

    m = sub.add_parser("maximal", help="restricted maximal function")
    m.add_argument("--space", required=True)
    m.add_argument("--function", required=True)
    m.add_argument("--subset")
    m.add_argument("--radius-cap", type=float, default=None)
    _add_common(m)
    m.set_defaults(func=_cmd_maximal)

    c = sub.add_parser("characteristic", help="weight class characteristics")
    c.add_argument("--space", required=True)
    c.add_argument("--weight", required=True)
    c.add_argument("--subset")
    c.add_argument("--domain")
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--eps-grid", type=_floats, default=None)
    _add_common(c)
    c.set_defaults(func=_cmd_characteristic)

    r = sub.add_parser("rhi", help="reverse Holder constant")
    r.add_argument("--space", required=True)
    r.add_argument("--weight", required=True)
    r.add_argument("--domain")
    r.add_argument("--delta", type=float, required=True)
    _add_common(r)
    r.set_defaults(func=_cmd_rhi)

    f = sub.add_parser("factorize", help="two-factor decomposition of a weight")
    f.add_argument("--space", required=True)
    f.add_argument("--weight", required=True)
    f.add_argument("--subset")
    f.add_argument("--p", type=float, required=True)
    _add_common(f)
    f.set_defaults(func=_cmd_factorize)

    e = sub.add_parser("extend", help="extend a weight from a subset")
    e.add_argument("--space", required=True)
    e.add_argument("--weight", required=True)
    e.add_argument("--subset")
    e.add_argument("--p", type=float, required=True)
    e.add_argument("--eps", type=float, required=True)
    _add_common(e)
    e.set_defaults(func=_cmd_extend)

    co = sub.add_parser("condition", help="epsilon table for the extension condition")
    co.add_argument("--space", required=True)
    co.add_argument("--weight", required=True)
    co.add_argument("--subset")
    co.add_argument("--p", type=float, required=True)
    co.add_argument("--eps-grid", type=_floats, required=True)
    co.add_argument("--budget", type=float, required=True)
    _add_common(co)
    co.set_defaults(func=_cmd_condition)

    re = sub.add_parser("restrict", help="compare a global weight with its restriction")
    re.add_argument("--space", required=True)
    re.add_argument("--weight", required=True)
    re.add_argument("--subset")
    re.add_argument("--p", type=float, required=True)
    re.add_argument("--eps", type=float, default=0.0)
    _add_common(re)
    re.set_defaults(func=_cmd_restrict)

    w = sub.add_parser("whitney", help="cover a proper domain")
    w.add_argument("--space", required=True)
    w.add_argument("--domain", required=True)
    _add_common(w)
    w.set_defaults(func=_cmd_whitney)

    ch = sub.add_parser("chains", help="chain statistics over sampled ball pairs")
    ch.add_argument("--space", required=True)
    ch.add_argument("--domain", required=True)
    ch.add_argument("--seed", type=int, default=0)
    _add_common(ch)
    ch.set_defaults(func=_cmd_chains)

    q = sub.add_parser("qh", help="quasihyperbolic distance between two points")
    q.add_argument("--space", required=True)
    q.add_argument("--domain", required=True)
    q.add_argument("--x", type=int, required=True)
    q.add_argument("--y", type=int, required=True)
    _add_common(q)
    q.set_defaults(func=_cmd_qh)

    st = sub.add_parser("study", help="refinement studies")
    st_sub = st.add_subparsers(dest="action", required=True)
    sr = st_sub.add_parser("refine", help="run a scenario over a side list")
    sr.add_argument("--scenario", required=True, choices=sorted(_SCENARIOS))
    sr.add_argument("--sides", type=_ints, required=True)
    sr.add_argument("--exponent", type=float, default=0.5)
    sr.add_argument("--p", type=float, default=2.0)
    sr.add_argument("--eps", type=float, default=0.5)
    sr.add_argument("--seed", type=int, default=0)
    _add_common(sr)
    sr.set_defaults(func=_cmd_study_refine)

    return parser


def _exit_code(exc: MetricWeightsError) -> int:
    if isinstance(exc, FormatError):
        return 4
    if isinstance(exc, ConvergenceError):
        return 3
    return 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_finite(args)
        return args.func(args)
    except MetricWeightsError as exc:
        code = _exit_code(exc)
        error = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "exit_code": code,
            }
        }
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return code


if __name__ == "__main__":
    raise SystemExit(main())
