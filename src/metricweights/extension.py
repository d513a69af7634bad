"""Extending a weight from a subset to the whole space.

Given w on E whose slightly raised power stays in the subset-induced class,
the pipeline produces a weight W on all of X that agrees with w on E and
belongs to the global class with the same exponent:

1. raise: v = w^{1 + eps/2} on E;
2. factorize v = v1 * v2^{1-p} with both factors satisfying a pointwise
   maximal bound on E;
3. extend each factor by the damped maximal function
   V_i = (m_E v_i)^delta on X, with delta = 1/(1 + eps/2);
4. correct on E so the product collapses back to w there:
   g = (v1/m_E v1)^delta * (v2/m_E v2)^{delta (1-p)} on E and g = 1 off E;
5. W = g * V1 * V2^{1-p}, at every p >= 1 (at p = 1, v2 = 1 and V2^0 = 1).

On E the chain cancels algebraically, W = (v1 v2^{1-p})^delta = v^delta = w,
so the agreement error is pure floating-point noise. g and 1/g are bounded,
with g_i = v_i / m_E v_i pinched between 1/K_i and 1 on E.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExponentRange
from .maximal import as_subset
from .factorization import FactorizationResult, jones_factorize
from .space import MetricMeasureSpace
from .weights import (
    CharacteristicReport,
    ConditionReport,
    _ap_functional,
    _characteristic,
    _check_exponent,
    _check_weight,
    _eps_table,
    _power,
    ap_tilde_characteristic,
)


@dataclass
class ExtensionReport:
    """W together with the diagnostics the pipeline guarantees."""

    W: np.ndarray
    agreement_error: float
    ap_constant_W: float
    delta: float
    p: float
    eps: float
    factorization: FactorizationResult
    g: np.ndarray
    g_lower_bound_v1: float
    g_lower_bound_v2: float

    def to_dict(self) -> dict:
        return {
            "agreement_error": self.agreement_error,
            "ap_constant_W": self.ap_constant_W,
            "delta": self.delta,
            "p": self.p,
            "eps": self.eps,
            "g_lower_bound_v1": self.g_lower_bound_v1,
            "g_lower_bound_v2": self.g_lower_bound_v2,
        }


def wolff_extend(
    space: MetricMeasureSpace,
    E,
    w: np.ndarray,
    p: float,
    eps: float,
) -> ExtensionReport:
    """Extend w (on E, exponent p >= 1, finite margin eps > 0) to a global
    weight; ExponentRange when w^{1+eps/2} leaves float range."""
    _check_exponent(p)
    if not 0 < eps < np.inf:
        raise ExponentRange("eps must be positive and finite")
    ids, _ = as_subset(space, E)
    w = _check_weight(w, ids.size)

    v = _power(w, 1.0 + eps / 2.0, "w ** (1 + eps/2)", f"eps = {eps}")
    fact = jones_factorize(space, E, v, p)
    delta = 1.0 / (1.0 + eps / 2.0)

    # the factorization hands over the maximal functions it verified with;
    # at p = 1 the second factors are powers 0.0 of positive floats, so 1.0
    m1, m2 = fact.m_v1, fact.m_v2
    g = np.ones(space.n)
    g[ids] = (fact.v1 / m1[ids]) ** delta * (fact.v2 / m2[ids]) ** (delta * (1.0 - p))
    W = g * m1**delta * m2 ** (delta * (1.0 - p))

    agreement = float(np.max(np.abs(W[ids] / w - 1.0)))
    ap_w = ap_tilde_characteristic(space, None, W, p).value
    return ExtensionReport(
        W=W,
        agreement_error=agreement,
        ap_constant_W=ap_w,
        delta=delta,
        p=float(p),
        eps=float(eps),
        factorization=fact,
        g=g,
        g_lower_bound_v1=1.0 / fact.a1_char_v1,
        g_lower_bound_v2=1.0 / fact.a1_char_v2,
    )


def check_extension_condition(
    space: MetricMeasureSpace,
    E,
    w: np.ndarray,
    p: float,
    eps_grid,
    budget: float,
    workers: int = 1,
) -> ConditionReport:
    """Tabulate the subset-induced characteristic of w^{1+eps} over the grid."""
    _check_exponent(p)
    ids, _ = as_subset(space, E)
    w = _check_weight(w, ids.size)
    return _eps_table(
        lambda v: ap_tilde_characteristic(space, E, v, p).value, w, p, eps_grid, budget
    )


@dataclass(frozen=True)
class RestrictionReport:
    """Ball-by-ball domination of the restricted functional by the global one."""

    max_ratio: float
    restricted: CharacteristicReport
    global_: CharacteristicReport
    p: float
    eps: float

    def to_dict(self) -> dict:
        return {
            "max_ratio": self.max_ratio,
            "restricted": self.restricted.to_dict(),
            "global": self.global_.to_dict(),
            "p": self.p,
            "eps": self.eps,
        }


def restrict_weight_report(
    space: MetricMeasureSpace,
    E,
    W: np.ndarray,
    p: float,
    eps: float = 0.0,
    workers: int = 1,
) -> RestrictionReport:
    """Verify that restricting W^{1+eps} to E can only shrink ball functionals.

    For every canonical ball, the subset-induced functional of (W^{1+eps})|_E
    is compared against the global functional of W^{1+eps}; the report carries
    the worst ratio (at most 1 up to roundoff) and both characteristics.
    ExponentRange when W^{1+eps} leaves float range.
    """
    _check_exponent(p)
    if not 0 <= eps < np.inf:
        raise ExponentRange("eps must be nonnegative and finite")
    ids, _ = as_subset(space, E)
    W = _check_weight(W, space.n)

    u = _power(W, 1.0 + eps, "W ** (1 + eps)", f"eps = {eps}")
    restr, message = _ap_functional(space, E, u[ids], p)
    glob, _ = _ap_functional(space, None, u, p)

    def values(data) -> np.ndarray:
        r, g = restr(data), glob(data)
        return np.stack([r / g, r, g])

    (worst, _), found_restr, found_glob = space.canonical.sups(values, 3, message)
    return RestrictionReport(
        max(0.0, worst),
        _characteristic(found_restr, p, "tilde"),
        _characteristic(found_glob, p, "tilde"),
        float(p),
        float(eps),
    )
