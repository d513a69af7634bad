"""Hardy-Littlewood maximal operators, plain and subset-relative.

The subset-relative operator at x takes the supremum, over every ball B
containing x (any center), of the average (1/mu(B)) * integral of |f| over
B intersect E. Normalization always uses the mass of the full ball, which is
what makes the operator useful for extending weights off E.

Enumeration is exact: every real radius produces one of the canonical
distance-sorted prefixes, so per center a cumulative-sum plus suffix-maximum
sweep covers all balls in O(n log n). The sweeps are methods of the cache and its
view in space.py, which owns their layouts; this module forms f * mu and checks the result.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptySubset, ExponentRange, InvalidParameter, NonpositiveG, ZeroFunction
from .space import MetricMeasureSpace, point_ids


def as_subset(space: MetricMeasureSpace, E) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a subset given as bool mask or id array (None: all of X) to
    (sorted ids, mask). Ids must be point ids (space.point_ids)."""
    E = np.ones(space.n, dtype=bool) if E is None else np.asarray(E)
    if E.dtype == bool:
        if E.shape != (space.n,):
            raise InvalidParameter("subset mask length does not match the space")
        mask = E.copy()
    else:
        mask = np.zeros(space.n, dtype=bool)
        mask[point_ids(E, space.n, "subset members")] = True
    ids = np.flatnonzero(mask)
    if ids.size == 0:
        raise EmptySubset("subset must have positive measure")
    return ids, mask


def scatter(space: MetricMeasureSpace, ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Extend values given on sorted subset ids to all of X by zero."""
    values = np.asarray(values, dtype=float)
    if values.shape != ids.shape:
        raise InvalidParameter("values length does not match subset size")
    full = np.zeros(space.n)
    full[ids] = values
    return full


def _mu_weighted(space: MetricMeasureSpace, ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """scatter(space, ids, values) * space.mu, the one place an integrand f * mu is
    formed; ExponentRange, with no RuntimeWarning, for a product that is not finite."""
    with np.errstate(all="ignore"):
        out = scatter(space, ids, values) * space.mu
    if not np.isfinite(out).all():
        raise ExponentRange("a value times its point's mass leaves float range")
    return out


def maximal_fn(
    space: MetricMeasureSpace,
    f: np.ndarray,
    E=None,
    radius_cap: float | None = None,
) -> np.ndarray:
    """Subset-relative maximal function of f, evaluated at every point of X.

    Parameters
    ----------
    f : values of f on E (aligned with the sorted ids of E), or on all of X
        when E is None.
    E : optional subset (bool mask or id array); None means all of X.
    radius_cap : optional R > 0; only balls B(x, r) with r <= R participate,
        that is the prefixes whose distance v is below R. Points contained in
        no such ball get 0.
    """
    ids, _ = as_subset(space, E)
    f = np.asarray(f, dtype=float)
    if np.isnan(f).any():
        raise InvalidParameter("f must not contain NaN")
    if radius_cap is not None and not radius_cap > 0:
        raise InvalidParameter("radius_cap must be positive")
    return _sweep(space.canonical.sweep(_mu_weighted(space, ids, np.abs(f)), np.zeros(space.n),
                                        radius_cap))


def _sweep(out: np.ndarray) -> np.ndarray:
    """out, the largest ball averages of |f| as CanonicalBallSet.sweep or _ColumnView.sweep
    wrote them; ExponentRange, with no RuntimeWarning, when one is not finite."""
    if not np.isfinite(out).all():
        raise ExponentRange("a ball average of |f| leaves float range")
    return out


def coifman_rochberg_weight(
    space: MetricMeasureSpace,
    f: np.ndarray,
    eps: float,
    g: np.ndarray | None = None,
    workers: int = 1,
) -> tuple[np.ndarray, float]:
    """Build the A1-class weight g * (Mf)^eps and report its A1 constant.

    Requires 0 < eps < 1, f >= 0 on X and not identically zero, and g
    strictly positive and finite (so 1/g is bounded on a finite space).
    Returns (weight on X, A1 characteristic of the weight).
    """
    from .weights import ap_tilde_characteristic

    f = np.asarray(f, dtype=float)  # maximal_fn's scatter refuses one not on all of X
    if np.any(f < 0):
        raise InvalidParameter("f must be nonnegative")
    if not np.any(f > 0):
        raise ZeroFunction("f must not be identically zero")
    if not 0 < eps < 1:
        raise ExponentRange("eps must lie in (0, 1)")
    if g is None:
        g = np.ones(space.n)
    else:
        g = np.asarray(g, dtype=float)
        if g.shape != (space.n,):
            raise InvalidParameter("g must be defined on all of X")
        if not np.all((0 < g) & (g < np.inf)):
            raise NonpositiveG("g must be strictly positive and finite")

    with np.errstate(over="ignore"):  # the A1 characteristic refuses a w of inf
        w = g * maximal_fn(space, f, E=None) ** eps
    a1 = ap_tilde_characteristic(space, None, w, 1.0).value
    return w, a1
