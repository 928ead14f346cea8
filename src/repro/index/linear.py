"""A flat linear-scan "index" used as the exact baseline.

The paper compares index-accelerated kNN algorithms against each other;
this reproduction additionally needs a trivially correct reference to
compute the *precision* of each algorithm.  :class:`LinearIndex` stores
the dataset as dense arrays so the reference answer (Definition 2 of
the paper) can be computed with vectorised NumPy in one pass.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.exceptions import IndexStructureError
from repro.geometry import distance
from repro.geometry.hypersphere import Hypersphere
from repro.index.instrumentation import IndexStatsMixin

__all__ = ["LinearIndex"]


class LinearIndex(IndexStatsMixin):
    """Dense storage of keyed hyperspheres with vectorised distance bounds."""

    def __init__(self, items: Iterable[tuple[object, Hypersphere]]) -> None:
        items = list(items)
        if not items:
            raise IndexStructureError("cannot build an index over an empty dataset")
        self.keys = [key for key, _ in items]
        self.spheres = [sphere for _, sphere in items]
        dimension = self.spheres[0].dimension
        for sphere in self.spheres:
            if sphere.dimension != dimension:
                raise IndexStructureError("all spheres must share one dimensionality")
        self.dimension = dimension
        self.centers = np.stack([sphere.center for sphere in self.spheres])
        self.radii = np.array([sphere.radius for sphere in self.spheres])
        self._init_stats()

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[tuple[object, Hypersphere]]:
        yield from zip(self.keys, self.spheres)

    @property
    def height(self) -> int:
        """A flat scan is one level deep by definition."""
        return 1

    def node_count(self) -> int:
        """The whole structure is a single "node"."""
        return 1

    def max_dists(self, query: Hypersphere) -> np.ndarray:
        """``MaxDist(S_i, query)`` for every stored hypersphere."""
        return distance.max_dists(self.centers, self.radii, query)

    def min_dists(self, query: Hypersphere) -> np.ndarray:
        """``MinDist(S_i, query)`` for every stored hypersphere."""
        return distance.min_dists(self.centers, self.radii, query)
