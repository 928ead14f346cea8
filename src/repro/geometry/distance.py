"""Euclidean distance helpers (Equations 1, 3 and 4 of the paper).

The paper manipulates three flavours of distance:

- ``Dist(p, p')`` — plain Euclidean distance between points (Eq. 1);
- ``MaxDist(Sa, Sb) = Dist(ca, cb) + ra + rb`` (Eq. 3);
- ``MinDist(Sa, Sb) = max(Dist(ca, cb) - ra - rb, 0)`` (Eq. 4).

Every function accepts either :class:`~repro.geometry.hypersphere.Hypersphere`
objects or raw point arrays where noted, and runs in O(d).  The row
forms (:func:`row_dists`, :func:`max_dists`, :func:`min_dists`) evaluate
many spheres against one at once and equal the scalar functions bit
for bit (the test suite checks it): ``sqrt(vecdot(D, D))`` reproduces
the 1-D ``np.linalg.norm``, whereas ``norm(D, axis=1)`` differs in the
last place on about one G-G row in eight.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import DimensionalityMismatchError
from repro.geometry.hypersphere import Hypersphere

__all__ = [
    "dist",
    "min_dist",
    "max_dist",
    "min_dist_point",
    "max_dist_point",
    "row_dists",
    "max_dists",
    "min_dists",
]


def dist(p: Sequence[float] | np.ndarray, q: Sequence[float] | np.ndarray) -> float:
    """Euclidean distance between two points (Equation 1)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DimensionalityMismatchError(p.shape[-1], q.shape[-1])
    return float(np.linalg.norm(p - q))


def max_dist(a: Hypersphere, b: Hypersphere) -> float:
    """Maximum distance between a point of *a* and a point of *b* (Eq. 3)."""
    a.require_same_dimension(b)
    return dist(a.center, b.center) + a.radius + b.radius


def min_dist(a: Hypersphere, b: Hypersphere) -> float:
    """Minimum distance between a point of *a* and a point of *b* (Eq. 4).

    Zero when the spheres overlap or touch.
    """
    a.require_same_dimension(b)
    gap = dist(a.center, b.center) - a.radius - b.radius
    return gap if gap > 0.0 else 0.0


def max_dist_point(a: Hypersphere, q: Sequence[float] | np.ndarray) -> float:
    """Maximum distance between a point of *a* and the point *q*."""
    return dist(a.center, q) + a.radius


def min_dist_point(a: Hypersphere, q: Sequence[float] | np.ndarray) -> float:
    """Minimum distance between a point of *a* and the point *q*.

    Zero when *q* lies inside the closed ball.
    """
    gap = dist(a.center, q) - a.radius
    return gap if gap > 0.0 else 0.0


def row_dists(points: np.ndarray, q: Sequence[float] | np.ndarray) -> np.ndarray:
    """:func:`dist` from every row of *points* to the point *q*."""
    offsets = np.asarray(points, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    return np.sqrt(np.vecdot(offsets, offsets))


def max_dists(centers: np.ndarray, radii: np.ndarray, b: Hypersphere) -> np.ndarray:
    """:func:`max_dist` from every sphere ``(centers[i], radii[i])`` to *b*."""
    return row_dists(centers, b.center) + radii + b.radius


def min_dists(centers: np.ndarray, radii: np.ndarray, b: Hypersphere) -> np.ndarray:
    """:func:`min_dist` from every sphere ``(centers[i], radii[i])`` to *b*."""
    gaps = row_dists(centers, b.center) - radii - b.radius
    return np.where(gaps > 0.0, gaps, 0.0)
