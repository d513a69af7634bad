"""Muckenhoupt-type characteristics of weights on finite spaces.

Two scopes matter here and differ only in which balls participate and where
the integrals live:

* subset-induced (tilde) classes: all balls of X participate, integrals run
  over B intersect E, and the normalization keeps mu of the full ball;
* domain classes: only balls entirely contained in the domain participate,
  and integrals run over the full ball.

With E = X the tilde functional is the ordinary global characteristic. The
essential infimum in the p = 1 functionals is the minimum, since spaces are
finite and every point has positive mass.

Every constant here is a supremum of one ball functional over the canonical
balls, taken by ``CanonicalBallSet.sup``. The ``workers`` keywords are
accepted for compatibility and have no effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededAtZero, ExponentRange, InvalidParameter, NonpositiveWeight
from .maximal import _mu_weighted, as_subset
from .space import MetricMeasureSpace, _distances


def _check_exponent(p: float, least: float = 1.0) -> None:
    """ExponentRange unless least <= p < inf; NaN fails too."""
    if not least <= p < np.inf:
        raise ExponentRange(f"the exponent must be finite and at least {least:g}, got {p}")


def conjugate_exponent(p: float) -> float:
    """Holder conjugate p' = p/(p-1) of a finite p >= 1; infinity when p = 1."""
    _check_exponent(p)
    if p == 1:
        return np.inf
    return p / (p - 1.0)


@dataclass(frozen=True)
class CharacteristicReport:
    """Supremum of a ball functional with the ball realizing it."""

    value: float
    witness_center: int
    witness_prefix: int
    p: float
    kind: str

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": {"center": self.witness_center, "prefix": self.witness_prefix},
            "p": self.p,
            "kind": self.kind,
        }


def _check_weight(w: np.ndarray, size: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (size,):
        raise InvalidParameter("weight length does not match its domain")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise NonpositiveWeight("weights must be strictly positive and finite")
    return w


def _power(w: np.ndarray, exponent: float, name: str, where: str, zero_ok: bool = False):
    """w ** exponent, with no RuntimeWarning: ExponentRange, naming the power,
    when a value overflows, or unless zero_ok underflows to 0."""
    with np.errstate(over="ignore"):
        out = w ** exponent
    if not (np.isfinite(out).all() and (zero_ok or (out > 0).all())):
        raise ExponentRange(f"{name} {'overflows' if zero_ok else 'over- or underflows'} at {where}")
    return out


def _ap_functional(space: MetricMeasureSpace, E, w: np.ndarray, p: float):
    """The ball functional of ap_tilde_characteristic, as values for sup, and its range message.

    At p = 1 a ball that misses E is out of scope (-inf): it is the one
    kind of ball whose minimum over B cap E is still infinite. At p > 1 a
    dual weight w^{-1/(p-1)} that overflows is an ExponentRange; one that
    underflows to 0 takes part as 0.
    """
    _check_exponent(p)
    ids, _ = as_subset(space, E)
    w = _check_weight(w, ids.size)
    w_mu = _mu_weighted(space, ids, w)
    if p > 1:
        sigma = _power(w, -1.0 / (p - 1.0), "the dual weight w ** (-1/(p-1))", f"p = {p}",
                       zero_ok=True)
        sig_mu = _mu_weighted(space, ids, sigma)

        def values(data) -> np.ndarray:
            return data.averages(w_mu) * data.averages(sig_mu) ** (p - 1.0)
    else:
        w_inf = np.full(space.n, np.inf)
        w_inf[ids] = w

        def values(data) -> np.ndarray:
            mins = data.prefix_mins(w_inf)
            return np.where(mins < np.inf, data.averages(w_mu) / mins, -np.inf)

    return values, f"a ball's A_p functional leaves float range at p = {p}"


def _characteristic(found, p: float, scope: str) -> CharacteristicReport:
    """The report of one answer (value, (center, prefix)) of CanonicalBallSet.sup."""
    value, (center, prefix) = found
    kind = ("Ap_" if p > 1 else "A1_") + scope
    return CharacteristicReport(value, center, prefix, p, kind)


def ap_tilde_characteristic(
    space: MetricMeasureSpace,
    E,
    w: np.ndarray,
    p: float,
) -> CharacteristicReport:
    """Characteristic of w in the subset-induced class of exponent p.

    For p > 1 the ball functional is
    (1/mu(B)) int_{B cap E} w dmu * ((1/mu(B)) int_{B cap E} w^{-1/(p-1)} dmu)^{p-1},
    with empty intersections contributing 0. For p = 1 it is the restricted
    average divided by min over B cap E of w, skipping empty intersections.
    w is given on E (sorted-id alignment); E = None means all of X.
    """
    return _characteristic(space.canonical.sup(*_ap_functional(space, E, w, p)), p, "tilde")


def ap_domain_characteristic(
    space: MetricMeasureSpace,
    D,
    w: np.ndarray,
    p: float,
    workers: int = 1,
) -> CharacteristicReport:
    """Characteristic of w over balls entirely contained in the domain D.

    Integrals run over the full ball and the normalization is mu(B).
    Singleton balls always qualify, so the supremum is over a nonempty
    family whenever D is nonempty. w is given on D (sorted-id alignment).
    A ball inside D has B cap D = B, so this is the subset-induced
    functional of D restricted to those balls.
    """
    values, message = _ap_functional(space, D, w, p)
    _, mask = as_subset(space, D)
    return _characteristic(space.canonical.sup(values, message, mask), p, "domain")


def reverse_holder_constant(
    space: MetricMeasureSpace,
    w: np.ndarray,
    delta: float,
    domain=None,
    workers: int = 1,
) -> float:
    """sup over scoped balls of (avg_B w^{1+delta})^{1/(1+delta)} / avg_B w.

    Scope is every canonical ball when domain is None (w on X), otherwise
    only balls entirely contained in the domain (w on the domain ids).
    Always >= 1 by the power mean inequality. ExponentRange unless delta is
    positive and finite and w^{1+delta} (0 if it underflows) and every ball sum is finite.
    """
    if not 0 < delta < np.inf:
        raise ExponentRange("delta must be positive and finite")
    ids, mask = as_subset(space, domain)
    w = _check_weight(w, ids.size)
    w_mu = _mu_weighted(space, ids, w)
    whi_mu = _mu_weighted(space, ids, _power(w, 1.0 + delta, "w ** (1 + delta)",
                                             f"delta = {delta}", zero_ok=True))
    inv = 1.0 / (1.0 + delta)

    def values(data) -> np.ndarray:
        return data.averages(whi_mu) ** inv / data.averages(w_mu)

    return space.canonical.sup(values, "a ball's sum of w ** (1 + delta) or of w overflows",
                               None if domain is None else mask)[0]


@dataclass(frozen=True)
class ConditionReport:
    """Largest grid eps whose raised weight stays within budget, with table."""

    best_eps: float | None
    budget: float
    p: float
    table: tuple[tuple[float, float], ...]

    def to_dict(self) -> dict:
        return {
            "best_eps": self.best_eps,
            "budget": self.budget,
            "p": self.p,
            "table": [{"eps": e, "char": c} for e, c in self.table],
        }


def _eps_table(
    characteristic, w: np.ndarray, p: float, eps_grid, budget: float
) -> ConditionReport:
    """characteristic(w^{1+eps}) over the sorted grid, and the largest eps within
    budget; ExponentRange when some w^{1+eps} leaves float range."""
    grid = sorted(float(e) for e in eps_grid)
    if not grid or not all(np.isfinite(e) and e >= 0 for e in grid):
        raise InvalidParameter(f"eps grid must be nonempty, finite and nonnegative, got {grid}")
    table = tuple(
        (eps, characteristic(_power(w, 1.0 + eps, "w ** (1 + eps)", f"eps = {eps}")))
        for eps in grid
    )
    best = max((eps for eps, char in table if char <= budget), default=None)
    return ConditionReport(best, float(budget), float(p), table)


def self_improve_epsilon(
    space: MetricMeasureSpace,
    w: np.ndarray,
    p: float,
    eps_grid,
    budget: float,
    workers: int = 1,
) -> ConditionReport:
    """Largest grid eps whose raised weight w^{1+eps} keeps its global
    characteristic within budget, plus the full (eps, characteristic) table."""
    w = _check_weight(w, space.n)
    report = _eps_table(
        lambda v: ap_tilde_characteristic(space, None, v, p).value, w, p, eps_grid, budget
    )
    if report.best_eps is None:
        raise BudgetExceededAtZero(
            f"characteristic exceeds budget {budget} on the whole grid"
        )
    return report


def power_weight(
    space: MetricMeasureSpace,
    exponent: float,
    ids: np.ndarray | None = None,
) -> np.ndarray:
    """|x|^exponent on a coordinate-backed space, with the origin clamped.

    Points whose coordinate norm is exactly zero get (h/2)^exponent where h
    is the resolution, keeping the weight finite and positive for negative
    exponents and zero-free for positive ones; ExponentRange if one over- or underflows.
    """
    if space.coords is None:
        raise InvalidParameter("power weights need a coordinate-backed space")
    points = space.coords if ids is None else space.coords[ids]
    r = _distances(points, np.zeros(points.shape[1]))
    half = 0.5 * space.min_positive_distance()
    r = np.where(r == 0.0, half, r)
    return _power(r, exponent, "the power weight |x| ** exponent", f"exponent = {exponent}")


def holder_average_bound_margin(
    space: MetricMeasureSpace,
    E,
    v: np.ndarray,
    q: float,
    g: np.ndarray,
) -> float:
    """Worst ratio, over all canonical balls, of
    v(B cap E) * ((1/mu(B)) int_{B cap E} |g| dmu)^q
    against int_{B cap E} |g|^q v dmu.

    The subset-induced characteristic of v at exponent q is an upper bound
    for this ratio; callers assert margin <= characteristic. Balls where the
    right side vanishes have a vanishing left side and are skipped.
    """
    _check_exponent(q)
    ids, _ = as_subset(space, E)
    v = _check_weight(v, ids.size)
    g = np.abs(np.asarray(g, dtype=float))  # _mu_weighted's scatter checks its shape
    v_mu, g_mu = _mu_weighted(space, ids, v), _mu_weighted(space, ids, g)
    with np.errstate(over="ignore"):  # _mu_weighted refuses a product of inf
        gqv_mu = _mu_weighted(space, ids, g**q * v)

    def ratios(data) -> np.ndarray:
        lhs = data.prefix_sums(v_mu) * data.averages(g_mu) ** q
        rhs = data.prefix_sums(gqv_mu)
        return np.divide(lhs, rhs, out=np.full_like(lhs, -np.inf), where=rhs > 0)

    worst, _ = space.canonical.sup(ratios, f"a ball's Holder ratio leaves float range at q = {q}")
    return max(0.0, worst)
