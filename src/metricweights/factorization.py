"""Factorization of subset-induced weights into a pair of A1-class factors.

A weight v of exponent p on E splits as v = v1 * v2^{1-p} where both factors
satisfy a pointwise maximal bound m_E v_i <= K_i v_i. The factors come from a
fixed point of the sublinear operator

    T f = (v^{-1/p} m_E(v^{1/p} f^{p-1}))^{1/(p-1)} + v^{1/p} m_E(v^{-1/p} f),

defined for p >= 2. Starting from f = 1, the geometric series
eta = sum_k (2c)^{-k} T^k f converges once c dominates the empirical growth
ratio of the iterates, and then T eta <= 2c eta, which yields the two factors
v1 = v^{1/p} eta^{p-1} and v2 = v^{-1/p} eta.

For 1 < p < 2 the same construction runs on the dual weight u = v^{1-p'} at
exponent p' and the factors swap. For p = 1 the factorization is trivial.

The growth constant is estimated from norm ratios of the first iterates and
verified a posteriori: the accepted c must satisfy the fixed-point bound and
both membership bounds pointwise in the exact arithmetic the caller will
re-check, doubling c on any failure (at most 10 times).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExponentRange, NoConvergence, NonpositiveWeight
from .maximal import as_subset, maximal_fn
from .space import MetricMeasureSpace
from .weights import ap_tilde_characteristic, conjugate_exponent

# Iteration budget all told: estimation warmup, series truncation, doublings.
_WARMUP_ITERS = 8
_MAX_DOUBLINGS = 10
_MAX_TERMS = 400

DEFAULT_TRUNCATION_TOL = 1e-12


def a1_bounds(c: float, p: float) -> tuple[float, float]:
    """The verified pointwise constants: m_E v1 <= k1 v1 and m_E v2 <= k2 v2."""
    k2 = 2.0 * c
    if p == 1:
        return k2, k2
    k1 = k2 ** (p / conjugate_exponent(p))
    return k1, k2


@dataclass
class FactorizationResult:
    """Outcome of the factorization v = v1 * v2^{1-p} on E.

    eta and the accepted bound c refer to the iteration actually run, which
    for 1 < p < 2 happens at base_p = p' on base_weight = v^{1-p'}; branch
    records which route was taken. residual is the worst relative
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

    def bounds(self) -> tuple[float, float]:
        return a1_bounds(self.c, self.p)


def rdf_apply_T(
    space: MetricMeasureSpace,
    E,
    v: np.ndarray,
    p: float,
    f: np.ndarray,
    workers: int = 1,
) -> np.ndarray:
    """One application of the iteration operator at exponent p >= 2.

    All functions live on E (sorted-id alignment); the result does too.
    Sublinear, positively homogeneous, and bounded below by 2f for f >= 0.
    """
    if p < 2:
        raise ExponentRange("the iteration operator needs p >= 2")
    ids, _ = as_subset(space, E)
    v = np.asarray(v, dtype=float)
    f = np.asarray(f, dtype=float)
    if v.shape != ids.shape or f.shape != ids.shape:
        raise ValueError("v and f must be aligned with E")
    if np.any(v <= 0):
        raise NonpositiveWeight("v must be strictly positive")
    if np.any(f < 0):
        raise ValueError("f must be nonnegative")

    root = v ** (1.0 / p)
    first = maximal_fn(space, root * f ** (p - 1.0), E)[ids]
    second = maximal_fn(space, f / root, E)[ids]
    return (first / root) ** (1.0 / (p - 1.0)) + root * second


def _weighted_norm(values: np.ndarray, mu_e: np.ndarray, q: float) -> float:
    return float(np.sum(values**q * mu_e) ** (1.0 / q))


def jones_factorize(
    space: MetricMeasureSpace,
    E,
    v: np.ndarray,
    p: float,
    tol: float = DEFAULT_TRUNCATION_TOL,
    workers: int = 1,
) -> FactorizationResult:
    """Split v (exponent p >= 1, on E) into verified A1-class factors."""
    if p < 1:
        raise ExponentRange("p must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    ids, _ = as_subset(space, E)
    v = np.asarray(v, dtype=float)
    if v.shape != ids.shape:
        raise ValueError("v must be aligned with E")
    if np.any(v <= 0):
        raise NonpositiveWeight("v must be strictly positive")
    m = ids.size

    if p == 1:
        ones = np.ones(m)
        return FactorizationResult(
            v1=v.copy(),
            v2=ones,
            eta=ones.copy(),
            c=1.0,
            k_max=0,
            residual=0.0,
            branch="p=1",
            p=1.0,
            base_p=1.0,
            base_weight=v.copy(),
            a1_char_v1=ap_tilde_characteristic(space, E, v, 1.0).value,
            a1_char_v2=ap_tilde_characteristic(space, E, ones, 1.0).value,
        )

    if p >= 2:
        branch, q, vv = "p>=2", float(p), v
    else:
        branch, q = "1<p<2", conjugate_exponent(p)
        vv = v ** (1.0 - q)

    def apply_t(f: np.ndarray) -> np.ndarray:
        return rdf_apply_T(space, E, vv, q, f)

    mu_e = space.mu[ids]

    # Normalized iterates: terms[k] has sup 1 and T^k f = terms[k] * exp(logscale[k]).
    # T is positively homogeneous, so rescaling commutes with iteration and
    # keeps growing iterates inside float range.
    terms: list[np.ndarray] = [np.ones(m)]
    logscale: list[float] = [0.0]
    norms: list[float] = [_weighted_norm(terms[0], mu_e, q)]

    def extend() -> None:
        raw = apply_t(terms[-1])
        peak = float(raw.max())
        if not np.isfinite(peak) or peak <= 0:
            raise NoConvergence("iteration produced a degenerate iterate")
        terms.append(raw / peak)
        logscale.append(logscale[-1] + float(np.log(peak)))
        norms.append(_weighted_norm(terms[-1], mu_e, q))

    for _ in range(_WARMUP_ITERS):
        extend()
    ratios = [
        np.exp(logscale[k + 1] - logscale[k]) * norms[k + 1] / norms[k]
        for k in range(_WARMUP_ITERS)
    ]
    c_hat = float(max(ratios))

    for attempt in range(_MAX_DOUBLINGS + 1):
        c = c_hat * 2.0**attempt
        log2c = np.log(2.0 * c)

        eta = np.zeros(m)
        k = 0
        while True:
            k += 1
            while len(terms) <= k + 1:
                extend()
            eta = eta + np.exp(logscale[k] - k * log2c) * terms[k]
            tail = np.exp(logscale[k + 1] - (k + 1) * log2c)
            if tail < tol * float(eta.max()):
                break
            if k >= _MAX_TERMS:
                raise NoConvergence("series truncation did not settle")
        k_max = k

        v1q = vv ** (1.0 / q) * eta ** (q - 1.0)
        v2q = vv ** (-1.0 / q) * eta
        if branch == "p>=2":
            v1, v2, c_rep = v1q, v2q, c
        else:
            v1, v2 = v2q, v1q
            c_rep = 0.5 * (2.0 * c) ** (q / p)

        k1, k2 = a1_bounds(c_rep, p)
        t_eta = apply_t(eta)
        m1 = maximal_fn(space, v1, E)[ids]
        m2 = maximal_fn(space, v2, E)[ids]
        ok = (
            np.all(t_eta <= 2.0 * c * eta)
            and np.all(t_eta <= 2.0 * c_rep * eta)
            and np.all(m1 <= k1 * v1)
            and np.all(m2 <= k2 * v2)
        )
        if not ok:
            continue

        recomposed = v1 * v2 ** (1.0 - p)
        residual = float(np.max(np.abs(recomposed / v - 1.0)))
        return FactorizationResult(
            v1=v1,
            v2=v2,
            eta=eta,
            c=c_rep,
            k_max=k_max,
            residual=residual,
            branch=branch,
            p=float(p),
            base_p=q,
            base_weight=vv,
            a1_char_v1=ap_tilde_characteristic(space, E, v1, 1.0).value,
            a1_char_v2=ap_tilde_characteristic(space, E, v2, 1.0).value,
        )

    raise NoConvergence(
        f"no verified operator bound within {_MAX_DOUBLINGS} doublings of {c_hat}"
    )
