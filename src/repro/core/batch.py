"""Vectorised (NumPy) evaluation of all five dominance criteria.

The paper's dominance experiments run workloads of 10,000 random
``(Sa, Sb, Sq)`` triples; evaluating those one Python call at a time
would measure interpreter overhead rather than the criteria.  This
module evaluates a whole workload at once with array kernels that
mirror the scalar implementations exactly (the test suite asserts
agreement element-by-element).

All functions share the same signature: six arrays describing ``n``
triples —

- ``ca, cb, cq`` : ``(n, d)`` center arrays,
- ``ra, rb, rq`` : ``(n,)`` radius arrays,

and return a boolean array of shape ``(n,)``.

:func:`batch_dominates` is the query layer's guarded entry point: it
takes a criterion object and declines (returns ``None``) wherever the
caller's scalar guarded path must decide instead.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.core.base import DominanceCriterion, is_registered
from repro.core.hyperbola import _distance_to_hyperbola_2d
from repro.geometry import quartic
from repro.obs import names

#: Anything convertible to an ``(n, d)`` float array of centers.
Centers = Sequence[Sequence[float]] | np.ndarray
#: Anything convertible to an ``(n,)`` float array of radii.
Radii = Sequence[float] | np.ndarray

__all__ = [
    "batch_minmax",
    "batch_mbr",
    "batch_gp",
    "batch_trigonometric",
    "batch_hyperbola",
    "batch_evaluate",
    "batch_dominates",
    "MIN_BATCH_ROWS",
]


def _validate(
    ca: Centers,
    cb: Centers,
    cq: Centers,
    ra: Radii,
    rb: Radii,
    rq: Radii,
) -> tuple[np.ndarray, ...]:
    arrays = [np.asarray(a, dtype=np.float64) for a in (ca, cb, cq)]
    radii = [np.asarray(r, dtype=np.float64) for r in (ra, rb, rq)]
    n, d = arrays[0].shape
    for a in arrays:
        if a.shape != (n, d):
            raise ValueError("center arrays must share the same (n, d) shape")
    for r in radii:
        if r.shape != (n,):
            raise ValueError("radius arrays must have shape (n,)")
    return (*arrays, *radii)


def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def batch_minmax(
    ca: Centers,
    cb: Centers,
    cq: Centers,
    ra: Radii,
    rb: Radii,
    rq: Radii,
) -> np.ndarray:
    """Vectorised MinMax criterion."""
    ca, cb, cq, ra, rb, rq = _validate(ca, cb, cq, ra, rb, rq)
    max_dist_aq = _row_norms(ca - cq) + ra + rq
    min_dist_bq = np.maximum(_row_norms(cb - cq) - rb - rq, 0.0)
    return max_dist_aq < min_dist_bq


def batch_mbr(
    ca: Centers,
    cb: Centers,
    cq: Centers,
    ra: Radii,
    rb: Radii,
    rq: Radii,
) -> np.ndarray:
    """Vectorised MBR criterion (per-dimension candidate maximisation)."""
    ca, cb, cq, ra, rb, rq = _validate(ca, cb, cq, ra, rb, rq)
    a_lo, a_hi = ca - ra[:, None], ca + ra[:, None]
    b_lo, b_hi = cb - rb[:, None], cb + rb[:, None]
    q_lo, q_hi = cq - rq[:, None], cq + rq[:, None]

    def margin(q: np.ndarray) -> np.ndarray:
        far_a = np.maximum(np.abs(q - a_lo), np.abs(a_hi - q))
        near_b = np.maximum(np.maximum(b_lo - q, q - b_hi), 0.0)
        return far_a * far_a - near_b * near_b

    best = np.maximum(margin(q_lo), margin(q_hi))
    # Interior breakpoints, clipped into the query interval (clipping to
    # an endpoint just re-evaluates an endpoint, which is harmless).
    for breakpoint in (ca, b_lo, b_hi):  # ca == midpoint of Ra's MBR
        clipped = np.clip(breakpoint, q_lo, q_hi)
        best = np.maximum(best, margin(clipped))
    return best.sum(axis=1) < 0.0


def batch_trigonometric(
    ca: Centers,
    cb: Centers,
    cq: Centers,
    ra: Radii,
    rb: Radii,
    rq: Radii,
) -> np.ndarray:
    """Vectorised Trigonometric criterion."""
    ca, cb, cq, ra, rb, rq = _validate(ca, cb, cq, ra, rb, rq)
    rab = ra + rb
    direction = cb - ca
    separation = _row_norms(direction)
    safe = np.where(separation == 0.0, 1.0, separation)
    step = direction * (rq / safe)[:, None]

    def true_margin(q: np.ndarray) -> np.ndarray:
        return _row_norms(cb - q) - _row_norms(ca - q) - rab

    margin_1 = true_margin(cq + step)
    margin_2 = true_margin(cq - step)
    rejected = (
        (margin_1 == 0.0)
        | (margin_2 == 0.0)
        | ((margin_1 > 0.0) != (margin_2 > 0.0))
    )
    result = ~rejected
    degenerate = separation == 0.0
    if np.any(degenerate):
        result[degenerate] = true_margin(cq)[degenerate] != 0.0
    return result


def _reduce_to_half_plane(
    ca: np.ndarray, cb: np.ndarray, cq: np.ndarray, gap: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``(t, rho)`` coordinates of ``cq`` in the focal frame."""
    safe_gap = np.where(gap == 0.0, 1.0, gap)
    axis = (cb - ca) / safe_gap[:, None]
    offset = cq - (ca + cb) / 2.0
    t = np.einsum("ij,ij->i", offset, axis)
    rho_sq = np.einsum("ij,ij->i", offset, offset) - t * t
    return t, np.sqrt(np.maximum(rho_sq, 0.0))


def _batch_distance_to_hyperbola(
    t: np.ndarray, rho: np.ndarray, alpha: np.ndarray, rab: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`repro.core.hyperbola._distance_to_hyperbola_2d`.

    Rows must satisfy ``0 < rab < 2 * alpha``.
    """
    rab_sq = rab * rab
    alpha_sq = alpha * alpha
    a1 = (16.0 * alpha_sq - 4.0 * rab_sq) * t * t
    a2 = rab_sq * rab_sq - 4.0 * rab_sq * alpha_sq
    a3 = 4.0 * rab_sq * rho * rho
    a4 = 4.0 * rab_sq
    a5 = 4.0 * rab_sq - 16.0 * alpha_sq

    coefficients = np.stack(
        [
            a2 * a4 * a4 * a5 * a5,
            2.0 * a2 * a4 * a4 * a5 + 2.0 * a2 * a4 * a5 * a5,
            a1 * a4 * a4 + a2 * a4 * a4 + 4.0 * a2 * a4 * a5 + a2 * a5 * a5
            - a3 * a5 * a5,
            2.0 * a1 * a4 + 2.0 * a2 * a4 + 2.0 * a2 * a5 - 2.0 * a3 * a5,
            a1 + a2 - a3,
        ],
        axis=1,
    )
    # Resolved at call time so the ``quartic`` fault seam reaches it.
    lam = quartic.solve_quartic_real_batch(coefficients)  # (n, 4), nan padded
    if np.any(np.isinf(lam)):
        # As in the scalar kernel: a dropped infinite root would inflate
        # the minimum and certify a wrong "dominates".
        raise ArithmeticError("quartic solver produced a non-finite root")

    def quadric_y_sq(x: np.ndarray) -> np.ndarray:
        """``y^2`` placing ``(x, y)`` on the quadric (may be negative)."""
        return (
            (16.0 * alpha_sq - 4.0 * rab_sq)[..., None] * x * x
            / (4.0 * rab_sq)[..., None]
            - alpha_sq[..., None]
            + rab_sq[..., None] / 4.0
        )

    denom_x = 1.0 + a5[:, None] * lam
    bad = np.isnan(lam) | (np.abs(denom_x) < 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = t[:, None] / denom_x
    # As in the scalar kernel: re-derive y from the quadric so every
    # candidate is genuinely on the curve (off-quadric candidates from
    # near-degenerate roots would underestimate the distance).
    y_sq = quadric_y_sq(np.where(bad, 0.0, x))
    bad |= y_sq < 0.0
    y = np.sqrt(np.maximum(y_sq, 0.0))
    dist_sq = (t[:, None] - x) ** 2 + (rho[:, None] - y) ** 2
    dist_sq = np.where(bad, np.inf, dist_sq)
    best_sq = np.min(dist_sq, axis=1, initial=np.inf)

    # Vertex candidates.
    half_rab = rab / 2.0
    best_sq = np.minimum(best_sq, (t - half_rab) ** 2 + rho * rho)
    best_sq = np.minimum(best_sq, (t + half_rab) ** 2 + rho * rho)

    # Off-axis critical ring.
    x_ring = t * rab_sq / (4.0 * alpha_sq)
    y_ring_sq = quadric_y_sq(x_ring[:, None])[:, 0]
    valid_ring = y_ring_sq >= 0.0
    y_ring = np.sqrt(np.maximum(y_ring_sq, 0.0))
    ring_sq = (t - x_ring) ** 2 + (rho - y_ring) ** 2
    best_sq = np.where(valid_ring, np.minimum(best_sq, ring_sq), best_sq)
    dmin = np.sqrt(best_sq)

    # Off the focal axis the nearest boundary point is a generic
    # stationary point, so its quartic has a real root.  A row without
    # one (a poisoned solve looks exactly like nan padding) is re-solved
    # by the scalar kernel, which raises on a non-finite root.
    for i in np.flatnonzero(np.all(np.isnan(lam), axis=1) & (rho > 0.0)):
        dmin[i] = _distance_to_hyperbola_2d(
            float(t[i]), float(rho[i]), float(alpha[i]), float(rab[i])
        )
    return dmin


def batch_hyperbola(
    ca: Centers,
    cb: Centers,
    cq: Centers,
    ra: Radii,
    rb: Radii,
    rq: Radii,
) -> np.ndarray:
    """Vectorised Hyperbola criterion (the paper's optimal decision)."""
    ca, cb, cq, ra, rb, rq = _validate(ca, cb, cq, ra, rb, rq)
    rab = ra + rb
    gap = _row_norms(cb - ca)
    result = np.zeros(gap.shape, dtype=bool)

    live = gap > rab  # Lemma 1 fast-path: overlapping rows stay false.
    if obs.ENABLED:
        obs.incr(names.BATCH_HYPERBOLA_ROWS, int(gap.size))
        obs.incr(names.BATCH_HYPERBOLA_OVERLAP_ROWS, int(gap.size - live.sum()))
    if not np.any(live):
        return result

    margin_cq = _row_norms(cb - cq) - _row_norms(ca - cq) - rab
    center_inside = margin_cq > 0.0
    if obs.ENABLED:
        obs.incr(
            names.BATCH_HYPERBOLA_CENTER_OUTSIDE_ROWS,
            int((live & ~center_inside).sum()),
        )
    live &= center_inside
    if not np.any(live):
        return result

    # Point queries inside the open region Ra are decided already.
    point_query = live & (rq == 0.0)
    result[point_query] = True
    if obs.ENABLED:
        obs.incr(names.BATCH_HYPERBOLA_POINT_QUERY_ROWS, int(point_query.sum()))
    live &= rq > 0.0
    if not np.any(live):
        return result

    t, rho = _reduce_to_half_plane(ca, cb, cq, gap)

    if ca.shape[1] == 1:
        # One-dimensional data: the boundary of Ra is the vertex point
        # (no perpendicular dimension exists for the curve to bend into).
        result[live] = np.abs(t[live] + rab[live] / 2.0) > rq[live]
        return result

    # Same threshold as the scalar kernel: a hyperbola this flat is the
    # bisector hyperplane to within float resolution (and the quartic
    # coefficients would underflow).
    flat = rab <= 0.5e-9 * gap  # alpha = gap / 2
    bisector = live & flat
    result[bisector] = np.abs(t[bisector]) > rq[bisector]

    curved = live & ~flat
    if obs.ENABLED:
        obs.incr(names.BATCH_HYPERBOLA_BISECTOR_ROWS, int(bisector.sum()))
        obs.incr(names.BATCH_HYPERBOLA_QUARTIC_ROWS, int(curved.sum()))
    if np.any(curved):
        idx = np.flatnonzero(curved)
        dmin = _batch_distance_to_hyperbola(
            t[idx], rho[idx], gap[idx] / 2.0, rab[idx]
        )
        result[idx] = dmin > rq[idx]
    return result


def batch_gp(
    ca: Centers,
    cb: Centers,
    cq: Centers,
    ra: Radii,
    rb: Radii,
    rq: Radii,
) -> np.ndarray:
    """Vectorised GP criterion (2-D projection anchored at ``ca``)."""
    ca, cb, cq, ra, rb, rq = _validate(ca, cb, cq, ra, rb, rq)
    if ca.shape[1] <= 2:
        return batch_hyperbola(ca, cb, cq, ra, rb, rq)

    def project(points: np.ndarray) -> np.ndarray:
        offset = points - ca
        collapsed = _row_norms(offset[:, :-1])
        return np.stack([collapsed, offset[:, -1]], axis=1)

    return batch_hyperbola(project(ca), project(cb), project(cq), ra, rb, rq)


_BATCH_KERNELS = {
    "minmax": batch_minmax,
    "mbr": batch_mbr,
    "gp": batch_gp,
    "trigonometric": batch_trigonometric,
    "hyperbola": batch_hyperbola,
}


def batch_evaluate(
    name: str,
    ca: Centers,
    cb: Centers,
    cq: Centers,
    ra: Radii,
    rb: Radii,
    rq: Radii,
) -> np.ndarray:
    """Evaluate the named criterion over a whole workload at once."""
    try:
        kernel = _BATCH_KERNELS[name]
    except KeyError:
        known = ", ".join(sorted(_BATCH_KERNELS))
        raise ValueError(f"no batch kernel named {name!r}; known: {known}") from None
    if obs.ENABLED:
        obs.incr(names.BATCH_CALLS)
        obs.incr(names.batch_calls(name))
        obs.observe(names.BATCH_WORKLOAD_ROWS, int(np.asarray(ca).shape[0]))
    return kernel(ca, cb, cq, ra, rb, rq)


#: Below this many rows one batch call costs more than the scalar checks.
MIN_BATCH_ROWS = 4


def batch_dominates(
    criterion: DominanceCriterion,
    ca: np.ndarray,
    cb: np.ndarray,
    cq: np.ndarray,
    ra: np.ndarray,
    rb: np.ndarray,
    rq: np.ndarray,
) -> "np.ndarray | None":
    """*criterion*'s verdict per row in one kernel call, or ``None``.

    The guarded batch route of the query layer: ``None`` tells the
    caller to take its scalar guarded path instead, which keeps every
    fault tally, fallback decision and certified-criterion count
    exactly as the scalar path keeps them.  That happens when

    - *criterion* is not exactly a registered class with a batch kernel
      (``verified``, ``cascade``, any subclass);
    - there are fewer than :data:`MIN_BATCH_ROWS` rows;
    - any input is non-finite;
    - the kernel raises :class:`ArithmeticError` (a broken quartic
      solve, including the ``quartic`` fault seam).

    Otherwise the verdicts equal the scalar criterion's row for row.
    """
    if (
        criterion.name not in _BATCH_KERNELS
        or ra.shape[0] < MIN_BATCH_ROWS
        or not is_registered(criterion)
    ):
        return None
    if not all(np.isfinite(a).all() for a in (ca, cb, cq, ra, rb, rq)):
        return None
    try:
        return batch_evaluate(criterion.name, ca, cb, cq, ra, rb, rq)
    except ArithmeticError:
        return None
