"""Command-line interface.

Every subcommand reads JSON artifacts (space, function, subset files), runs
one library operation, and emits a deterministic JSON report either to
stdout or, with --out DIR, to <out>/<command>.json next to a metadata file
carrying the non-deterministic context (timestamp, host, argv).

Exit codes: 0 ok, else the exit_code of the error (errors.py): 2 validation
or precondition error, 3 convergence error, 4 parse or format error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io, studies
from .errors import FormatError, InvalidParameter, MetricWeightsError, ParseError
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
        meta = {"argv": sys.argv[1:], "workers": args.workers}
        io.write_report(args.out, name, payload, meta)
    else:
        sys.stdout.write(io.report_bytes(payload).decode())


def _load_weight_on(space, path, expect_ids=None):
    """Load a function file and check its domain matches the expectation."""
    ids, values = io.load_function(path)
    if ids is None:
        if values.shape != (space.n,):
            raise FormatError("function length does not match the space")
        return values if expect_ids is None else values[expect_ids]
    if expect_ids is None:
        raise FormatError("expected a function on X, got one on a subset")
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


def _scoped_weight(args, flag: str):
    """The space, the ids of the --subset or --domain file (None without one),
    the ids the weight is aligned to (every point without one), and the
    --weight values on those ids."""
    space = io.load_space(args.space)
    if args.subset and getattr(args, "domain", None):
        raise FormatError("pass either --subset or --domain, not both")
    ids = _subset_arg(space, args, flag)
    expect = ids if ids is not None else np.arange(space.n)
    return space, ids, expect, _load_weight_on(space, args.weight, expect_ids=expect)


def _out_dir(args) -> Path | None:
    """The --out directory, created, for files written beside the report."""
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return Path(args.out)


# -- handlers: each returns (report name, payload) -----------------------------


def _cmd_space_build(args) -> None:
    space = build_grid_space(args.dim, args.side, args.spacing)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        io.save_space(args.out, space)
    else:
        sys.stdout.write(io._dumps(io.space_to_dict(space), sort_keys=True) + "\n")


def _cmd_space_validate(args):
    return "validate", validate_space(io.load_space(args.space)).to_dict()


def _cmd_ball_doubling(args):
    space = io.load_space(args.space)
    return "doubling", {"doubling_constant": doubling_constant(space), "n": space.n}


def _cmd_maximal(args):
    space = io.load_space(args.space)
    f = _load_weight_on(space, args.function)
    subset = _subset_arg(space, args)
    if subset is not None:
        f = f[subset]
    values = maximal_fn(space, f, E=subset, radius_cap=args.radius_cap)
    return "maximal", {**io.function_to_dict(values), "radius_cap": args.radius_cap}


def _cmd_characteristic(args):
    scope = "domain" if args.domain else "subset"
    space, ids, _, w = _scoped_weight(args, scope)
    characteristic = ap_domain_characteristic if args.domain else ap_tilde_characteristic
    if not args.eps_grid:
        return "characteristic", characteristic(space, ids, w, args.p).to_dict()
    report = _eps_table(
        lambda v: characteristic(space, ids, v, args.p).value,
        w, args.p, args.eps_grid, np.inf,
    )
    table = [{"eps": e, "value": c} for e, c in report.table]
    return "characteristic", {"p": args.p, "scope": scope, "table": table}


def _cmd_rhi(args):
    space = io.load_space(args.space)
    domain = _subset_arg(space, args, "domain")
    w = _load_weight_on(space, args.weight, expect_ids=domain)
    value = reverse_holder_constant(space, w, args.delta, domain=domain)
    return "rhi", {"delta": args.delta, "value": value}


def _cmd_factorize(args):
    space, e_ids, expect, v = _scoped_weight(args, "subset")
    fact = jones_factorize(space, e_ids, v, args.p)
    fields = ("p", "branch", "c", "k_max", "residual", "a1_char_v1", "a1_char_v2")
    payload = {key: getattr(fact, key) for key in fields}  # reports sort their keys
    payload["bound_v1"], payload["bound_v2"] = fact.bounds()
    if out := _out_dir(args):
        io.save_function(out / "v1.json", fact.v1, expect)
        io.save_function(out / "v2.json", fact.v2, expect)
        io.save_function(out / "eta.json", fact.eta, expect)
    return "factorize", payload


def _cmd_extend(args):
    space, e_ids, expect, w = _scoped_weight(args, "subset")
    report = wolff_extend(space, e_ids, w, args.p, args.eps)
    if out := _out_dir(args):
        io.save_function(out / "W.json", report.W)
        io.save_function(out / "g.json", report.g)
        io.save_function(out / "v1.json", report.factorization.v1, expect)
        io.save_function(out / "v2.json", report.factorization.v2, expect)
    return "extend", report.to_dict()


def _cmd_condition(args):
    space, e_ids, _, w = _scoped_weight(args, "subset")
    report = check_extension_condition(space, e_ids, w, args.p, args.eps_grid, args.budget)
    return "condition", report.to_dict()


def _cmd_restrict(args):
    space = io.load_space(args.space)
    e_ids = _subset_arg(space, args)
    w = _load_weight_on(space, args.weight, expect_ids=None)
    return "restrict", restrict_weight_report(space, e_ids, w, args.p, eps=args.eps).to_dict()


def _space_and_domain(args):
    space = io.load_space(args.space)
    return space, make_domain(space, _subset_arg(space, args, "domain"))


def _cmd_whitney(args):
    cover = whitney_cover(*_space_and_domain(args))
    checks = check_cover_invariants(cover)
    payload = {
        "balls": [
            {"center": int(c), "radius": float(r), "members_count": int(m)}
            for c, r, m in zip(cover.centers, cover.radii, np.diff(cover.offsets))
        ],
        "overlap_n": cover.overlap_n,
        "n_edges": int(cover.edges.shape[0]),
        "invariants": checks,
    }
    return "whitney", payload


def _cmd_chains(args):
    return "chains", studies.chain_report(*_space_and_domain(args), seed=args.seed)


def _cmd_qh(args):
    space, domain = _space_and_domain(args)
    for flag in ("x", "y"):
        if not 0 <= getattr(args, flag) < space.n:
            raise InvalidParameter(f"--{flag} must be a point id in [0, {space.n})")
    return "qh", {"x": args.x, "y": args.y, "qh": qh_distance(space, domain, args.x, args.y)}


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


def _cmd_study_refine(args):
    rows = _SCENARIOS[args.scenario](args)
    if out := _out_dir(args):
        io.write_csv(out / "study.csv", rows)
    return "study", {"scenario": args.scenario, "rows": rows, "seed": args.seed}


# -- parser ---------------------------------------------------------------------

# argparse settings of every flag but --out and --workers, written once.
_FLAGS = {
    "space": dict(required=True),
    "weight": dict(required=True),
    "function": dict(required=True),
    "subset": dict(),
    "domain": dict(),
    "p": dict(type=float, required=True),
    "eps": dict(type=float, required=True),
    "eps-grid": dict(type=_floats, required=True),
    "budget": dict(type=float, required=True),
    "delta": dict(type=float, required=True),
    "radius-cap": dict(type=float, default=None),
    "seed": dict(type=int, default=0),
    "x": dict(type=int, required=True),
    "y": dict(type=int, required=True),
    "scenario": dict(required=True, choices=sorted(_SCENARIOS)),
    "sides": dict(type=_ints, required=True),
    "exponent": dict(type=float, default=0.5),
    "dim": dict(type=int, required=True, choices=(1, 2, 3)),
    "side": dict(type=int, required=True),
    "spacing": dict(type=float, default=1.0),
}

# (name, help, handler, flags) of every subcommand but `space build`, in help
# order. A flag is a name of _FLAGS, or (name, settings) where the settings
# override those of _FLAGS for this subcommand.
_COMMANDS = [
    ("space validate", "check the metric axioms", _cmd_space_validate, ["space"]),
    ("ball doubling", "doubling constant of the measure", _cmd_ball_doubling, ["space"]),
    ("maximal", "restricted maximal function", _cmd_maximal,
     ["space", "function", "subset", "radius-cap"]),
    ("characteristic", "weight class characteristics", _cmd_characteristic,
     ["space", "weight", "subset", "domain", "p", ("eps-grid", dict(required=False))]),
    ("rhi", "reverse Holder constant", _cmd_rhi, ["space", "weight", "domain", "delta"]),
    ("factorize", "two-factor decomposition of a weight", _cmd_factorize,
     ["space", "weight", "subset", "p"]),
    ("extend", "extend a weight from a subset", _cmd_extend,
     ["space", "weight", "subset", "p", "eps"]),
    ("condition", "epsilon table for the extension condition", _cmd_condition,
     ["space", "weight", "subset", "p", "eps-grid", "budget"]),
    ("restrict", "compare a global weight with its restriction", _cmd_restrict,
     ["space", "weight", "subset", "p", ("eps", dict(required=False, default=0.0))]),
    ("whitney", "cover a proper domain", _cmd_whitney, ["space", ("domain", dict(required=True))]),
    ("chains", "chain statistics over sampled ball pairs", _cmd_chains,
     ["space", ("domain", dict(required=True)), "seed"]),
    ("qh", "quasihyperbolic distance between two points", _cmd_qh,
     ["space", ("domain", dict(required=True)), "x", "y"]),
    ("study refine", "run a scenario over a side list", _cmd_study_refine,
     ["scenario", "sides", "exponent", ("p", dict(required=False, default=2.0)),
      ("eps", dict(required=False, default=0.5)), "seed"]),
]

# help of the commands that group subcommands
_GROUPS = {
    "space": "build or validate space files",
    "ball": "ball-family statistics",
    "study": "refinement studies",
}

# Flags that take a number, or a comma-separated list of numbers.
_NUMBER_FLAGS = {"--workers"} | {
    "--" + name for name, settings in _FLAGS.items()
    if settings.get("type") in (int, float, _floats, _ints)
}


def _negative_numbers(token: str) -> bool:
    """True for a value like -1, -inf, -1e-3 or -0.5,0."""
    try:
        return token.startswith("-") and bool(_floats(token))
    except ValueError:
        return False


def _number_values(argv: list[str]) -> list[str]:
    """Join a number flag and a negative value after it into `--flag=value`.

    argparse takes a token that starts with '-' for a flag unless it is a
    plain negative number, so `--delta -inf` or `--exponent -1e-3` would fail.
    """
    out = []
    for token in argv:
        if out and out[-1] in _NUMBER_FLAGS and _negative_numbers(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricweights",
        description="Weights, maximal operators, and Whitney geometry on finite metric measure spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}

    def add_parser(name: str, text: str) -> argparse.ArgumentParser:
        *group, leaf = name.split()
        if not group:
            return sub.add_parser(leaf, help=text)
        if group[0] not in groups:
            parent = sub.add_parser(group[0], help=_GROUPS[group[0]])
            groups[group[0]] = parent.add_subparsers(dest="action", required=True)
        return groups[group[0]].add_parser(leaf, help=text)

    b = add_parser("space build", "uniform grid space")
    for flag in ("dim", "side", "spacing"):
        b.add_argument("--" + flag, **_FLAGS[flag])
    b.add_argument("--out", help="target space file (stdout when omitted)")
    b.set_defaults(func=_cmd_space_build)
    for name, text, handler, flags in _COMMANDS:
        sp = add_parser(name, text)
        for flag in flags:
            key, override = (flag, {}) if isinstance(flag, str) else flag
            sp.add_argument("--" + key, **{**_FLAGS[key], **override})
        sp.add_argument("--out", help="directory for report files")
        sp.add_argument("--workers", type=int, default=1)
        sp.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(_number_values(sys.argv[1:] if argv is None else argv))
    try:
        # stderr holds only the error; the strict writers still refuse inf and NaN.
        with np.errstate(all="ignore"):
            _check_finite(args)
            report = args.func(args)
            if report is not None:
                _emit(args, *report)
        return 0
    except MetricWeightsError as exc:
        error = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "exit_code": exc.exit_code,
            }
        }
        sys.stderr.write(io._dumps(error, sort_keys=True) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
