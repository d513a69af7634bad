"""Factorization of subset-induced weights into a pair of A1-class factors.

A weight v of exponent p on E splits as v = v1 * v2^{1-p} where both factors
satisfy a pointwise maximal bound m_E v_i <= K_i v_i. The factors come from a
fixed point of the sublinear operator

    T f = (v^{-1/p} m_E(v^{1/p} f^{p-1}))^{1/(p-1)} + v^{1/p} m_E(v^{-1/p} f),

defined for p >= 2. Starting from f = 1, the geometric series
eta = sum_{k>=1} (2c)^{-k} T^k 1 converges once c dominates the empirical
growth ratio of the iterates, and then T eta <= 2c eta, which yields the two
factors v1 = v^{1/p} eta^{p-1} and v2 = v^{-1/p} eta. The two maximal
functions inside T eta are m_E v1 and m_E v2, so one application of T checks
all three bounds.

For 1 < p < 2 the same construction runs on the dual weight u = v^{1-p'} at
exponent p' and the factors swap. For p = 1 the factorization is trivial.

The growth constant c is estimated from norm ratios of the first 8 iterates.
The warm-up reads m_E only at E's points, so it sweeps the canonical cache's
view on E's columns (CanonicalBallSet.columns), which gives the same bits
from about |E|/n of the cells.
The series is not summed to convergence, since only the certificates are
needed. By subadditivity and homogeneity the partial sum eta_K of K terms has

    T eta_K <= sum_{k=1}^K (2c)^{-k} T^{k+1} 1 = 2c eta_K - T 1 + (2c)^{-K} T^{K+1} 1,

so T eta_K <= 2c eta_K as soon as the tail (2c)^{-K} T^{K+1} 1 stays below
T 1. Each attempt certifies one partial sum: K = 8, which reuses the warm-up
iterates, or the first K < 8 whose next term falls below _TAIL_TOL times the
sum. If a certificate fails, c doubles (at most _MAX_DOUBLINGS times). Each
doubling divides the K = 8 tail by 2^8 = 256 and leaves T 1 as it is, so
this one fallback ends, certified or in NoConvergence; so does a factor
bound that overflows, or a bound times its factor, as a doubling only makes
it larger. Every bound is verified pointwise, a posteriori, in the
arithmetic the caller re-checks.
eta is returned scaled to maximum 1; T is positively homogeneous, so the
scale changes neither the certificates nor v1 * v2^{1-p}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ExponentRange, NoConvergence
from .maximal import _sweep, as_subset, maximal_fn, scatter
from .space import MetricMeasureSpace
from .weights import _check_weight, _power, ap_tilde_characteristic, conjugate_exponent

# Iteration budget all told: the warm-up, which is also the longest partial
# sum, and the doublings of c.
_WARMUP_ITERS = 8
_MAX_DOUBLINGS = 10
# Relative size of the next term at which a partial sum shorter than 8 terms
# is certified. Moderate weights verify at K = 8, long before such a term;
# extreme ones (weights spanning 10^±8, p near 1) can stop at K = 1 to 7.
_TAIL_TOL = 1e-12


def a1_bounds(c: float, p: float) -> tuple[float, float]:
    """The verified pointwise constants: m_E v1 <= k1 v1 and m_E v2 <= k2 v2.
    A constant that overflows is inf."""
    k2 = 2.0 * c
    if p == 1:
        return k2, k2
    with np.errstate(over="ignore"):
        k1 = np.float64(k2) ** (p / conjugate_exponent(p))
    return float(k1), k2


@dataclass
class FactorizationResult:
    """Outcome of the factorization v = v1 * v2^{1-p} on E.

    eta and the accepted bound c refer to the iteration actually run, which
    for 1 < p < 2 happens at base_p = p' on base_weight = v^{1-p'}; branch
    records which route was taken. eta has maximum 1, and k_max is the
    number of series terms in the partial sum that verified. m_v1 and m_v2
    are m_E v1 and m_E v2 on all of X, the maximal functions the
    certificates were checked with. residual is the worst relative
    recomposition error over E.
    """

    v1: np.ndarray
    v2: np.ndarray
    eta: np.ndarray
    c: float
    k_max: int
    residual: float
    branch: str
    p: float
    base_p: float
    base_weight: np.ndarray
    a1_char_v1: float
    a1_char_v2: float
    m_v1: np.ndarray
    m_v2: np.ndarray

    def bounds(self) -> tuple[float, float]:
        return a1_bounds(self.c, self.p)


def _rdf_parts(
    m_E: Callable[[np.ndarray], np.ndarray],
    at,
    root: np.ndarray,
    p: float,
    f: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T f on E at exponent p, with root = v^{1/p}, and the two maximal
    functions it is made of, m_E(root f^{p-1}) and m_E(f / root), at the
    points m_E gives them at; E's points are those at `at` among them."""
    m_first = m_E(root * f ** (p - 1.0))
    m_second = m_E(f / root)
    t_f = (m_first[at] / root) ** (1.0 / (p - 1.0)) + root * m_second[at]
    return t_f, m_first, m_second


def rdf_apply_T(
    space: MetricMeasureSpace,
    E,
    v: np.ndarray,
    p: float,
    f: np.ndarray,
) -> np.ndarray:
    """One application of the iteration operator at exponent p >= 2.

    All functions live on E (sorted-id alignment); the result does too.
    Sublinear, positively homogeneous, and bounded below by 2f for f >= 0.
    """
    if not p >= 2:
        raise ExponentRange("the iteration operator needs p >= 2")
    ids, _ = as_subset(space, E)
    v = _check_weight(v, ids.size)
    f = np.asarray(f, dtype=float)
    if f.shape != ids.shape or np.any(f < 0):
        raise ValueError("f must be nonnegative and aligned with E")
    return _rdf_parts(lambda g: maximal_fn(space, g, E), ids, v ** (1.0 / p), p, f)[0]


def _weighted_norm(values: np.ndarray, mu_e: np.ndarray, q: float) -> float:
    return float(np.sum(values**q * mu_e) ** (1.0 / q))


def _result(space, E, v, p, v1, v2, m_v1, m_v2, **run) -> FactorizationResult:
    """The FactorizationResult of v = v1 * v2^{1-p}: its residual and A1
    characteristics; run holds the fields of the iteration."""
    residual = float(np.max(np.abs(v1 * v2 ** (1.0 - p) / v - 1.0)))
    return FactorizationResult(
        v1=v1,
        v2=v2,
        residual=residual,
        p=float(p),
        a1_char_v1=ap_tilde_characteristic(space, E, v1, 1.0).value,
        a1_char_v2=ap_tilde_characteristic(space, E, v2, 1.0).value,
        m_v1=m_v1,
        m_v2=m_v2,
        **run,
    )


def jones_factorize(
    space: MetricMeasureSpace,
    E,
    v: np.ndarray,
    p: float,
) -> FactorizationResult:
    """Split v (exponent p >= 1, on E) into verified A1-class factors.

    Each attempt, at c = c_hat * 2^j for j = 0, .., _MAX_DOUBLINGS, certifies
    one partial sum: K = 8 terms, or the first K < 8 whose next term is below
    _TAIL_TOL times the sum; k_max records the K accepted. ExponentRange when
    1 < p < 2 and the dual weight v^{1-p'} is not a positive finite float.
    NoConvergence when no attempt verifies, or when a factor bound, or a bound
    times its factor at a point of E, is not finite.
    """
    if not p >= 1:
        raise ExponentRange("p must be >= 1")
    ids, _ = as_subset(space, E)
    v = _check_weight(v, ids.size)
    m = ids.size

    if p == 1:
        ones = np.ones(m)
        return _result(
            space, E, v, 1.0, v.copy(), ones, maximal_fn(space, v, E), maximal_fn(space, ones, E),
            eta=ones.copy(), c=1.0, k_max=0, branch="p=1", base_p=1.0, base_weight=v.copy(),
        )

    if p >= 2:
        branch, q, vv = "p>=2", float(p), v
    else:
        branch, q = "1<p<2", conjugate_exponent(p)
        vv = _power(v, 1.0 - q, "the dual weight v ** (1 - p')", f"p = {p}")
    root = vv ** (1.0 / q)
    mu_e = space.mu[ids]
    # The warm-up reads m_E only on E: it sweeps the cache's view on E's columns.
    view = space.canonical.columns(ids)

    def m_on_e(g: np.ndarray) -> np.ndarray:
        return _sweep(view, scatter(space, ids, np.abs(g)) * space.mu, np.zeros(m))

    # Normalized iterates: terms[k] has sup 1 and T^k 1 = terms[k] * exp(logscale[k]).
    # T is positively homogeneous, so rescaling commutes with iteration and
    # keeps growing iterates inside float range.
    terms: list[np.ndarray] = [np.ones(m)]
    logscale: list[float] = [0.0]
    norms: list[float] = [_weighted_norm(terms[0], mu_e, q)]
    for _ in range(_WARMUP_ITERS):
        raw = _rdf_parts(m_on_e, slice(None), root, q, terms[-1])[0]
        peak = float(raw.max())
        if not np.isfinite(peak) or peak <= 0:
            raise NoConvergence("iteration produced a degenerate iterate")
        terms.append(raw / peak)
        logscale.append(logscale[-1] + float(np.log(peak)))
        norms.append(_weighted_norm(terms[-1], mu_e, q))
    ratios = [
        np.exp(logscale[k + 1] - logscale[k]) * norms[k + 1] / norms[k]
        for k in range(_WARMUP_ITERS)
    ]
    c_hat = float(max(ratios))
    del view  # the certificates need m_E on all of X

    for attempt in range(_MAX_DOUBLINGS + 1):
        c = c_hat * 2.0**attempt
        # the swapped branch reports the bound translated back to exponent p
        with np.errstate(over="ignore"):
            c_rep = c if branch == "p>=2" else float(0.5 * np.float64(2.0 * c) ** (q / p))
        k1, k2 = a1_bounds(c_rep, p)
        if not np.isfinite([k1, k2]).all():
            raise NoConvergence(f"the factor bounds overflow at c = {c}")

        log2c = np.log(2.0 * c)
        eta = np.zeros(m)
        for k in range(1, _WARMUP_ITERS + 1):
            eta = eta + np.exp(logscale[k] - k * log2c) * terms[k]
            if k < _WARMUP_ITERS and (
                np.exp(logscale[k + 1] - (k + 1) * log2c) < _TAIL_TOL * float(eta.max())
            ):
                break
        eta = eta / eta.max()

        t_eta, m_first, m_second = _rdf_parts(
            lambda g: maximal_fn(space, g, E), ids, root, q, eta
        )
        v1q = root * eta ** (q - 1.0)
        v2q = eta / root
        if branch == "p>=2":
            v1, v2, m1, m2 = v1q, v2q, m_first, m_second
        else:
            v1, v2, m1, m2 = v2q, v1q, m_second, m_first
        # A right side of inf would hold vacuously, and doubling c only raises it.
        with np.errstate(over="ignore"):
            bound1, bound2 = k1 * v1, k2 * v2
        if not (np.isfinite(bound1).all() and np.isfinite(bound2).all()):
            raise NoConvergence(f"a factor bound times its factor overflows at c = {c}")
        if (
            np.all(t_eta <= 2.0 * c * eta)
            and np.all(t_eta <= 2.0 * c_rep * eta)
            and np.all(m1[ids] <= bound1)
            and np.all(m2[ids] <= bound2)
        ):
            return _result(
                space, E, v, p, v1, v2, m1, m2,
                eta=eta, c=c_rep, k_max=k, branch=branch, base_p=q, base_weight=vv,
            )

    raise NoConvergence(
        f"no verified operator bound within {_MAX_DOUBLINGS} doublings of {c_hat}"
    )
