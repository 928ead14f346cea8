"""Leaf-at-a-time kNN offers against the paper's per-entry algorithm.

The best-known list takes a block of entries (a leaf, or a chunk of a
linear scan or an overlay memtable) at a time and defers every Case-2
and eviction check to one batch at the end of the block.  The oracle
here is the Section 6 algorithm as written: one scalar offer at a time,
a Case-2 entry checked before it is inserted, and every row beyond k
evicted at once when a Case-1 insert moves ``Sk``.  Driven through the
same traversal, both must give the same answer and the same tallies.
The vectorised MaxDist/MinDist behind the blocks must equal the scalar
distances bit for bit.
"""

from __future__ import annotations

import bisect
import itertools
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from repro.core.base import get_criterion
from repro.core.hyperbola import HyperbolaCriterion
from repro.data.synthetic import synthetic_dataset
from repro.data.workload import knn_queries
from repro.exceptions import ValidationError
from repro.geometry.distance import (
    dist,
    max_dist,
    max_dists,
    min_dist,
    min_dists,
    row_dists,
)
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.index.sstree import SSTree
from repro.index.vptree import VPTree
from repro.queries import knn as knn_module
from repro.queries.knn import knn_query
from repro.robust import faults
from repro.stream.overlay import DeltaOverlay

from conftest import finite_coordinates, small_radii


class PerEntryList:
    """Section 6's best-known list, one scalar offer at a time."""

    def __init__(self, k, query, criterion):
        self.k = k
        self.query = query
        self.criterion = criterion
        self.fallback = get_criterion("minmax")
        self.degraded = False
        self.rows = []  # (MaxDist, offer order, key, sphere), sorted
        self.order = itertools.count()
        self.dominance_checks = 0
        self.pruned_case3 = 0
        self.absorbed_faults = 0
        self.degraded_checks = 0
        self.speculative_rows = 0

    @property
    def distk(self):
        return self.rows[self.k - 1][0] if len(self.rows) >= self.k else math.inf

    def degrade(self):
        self.criterion = self.fallback
        self.degraded = True

    def dominated(self, anchor, sphere):
        self.dominance_checks += 1
        if self.degraded:
            self.degraded_checks += 1
        return self.criterion.dominates(anchor, sphere, self.query)

    def insert(self, dist_max, key, sphere):
        bisect.insort(self.rows, (dist_max, next(self.order), key, sphere))

    def evict(self):
        kth = self.rows[self.k - 1][3]
        self.rows = self.rows[: self.k] + [
            row for row in self.rows[self.k:] if not self.dominated(kth, row[3])
        ]

    def offer(self, key, sphere):
        dist_max = max_dist(sphere, self.query)
        if len(self.rows) < self.k:
            self.insert(dist_max, key, sphere)
            return
        distk = self.distk
        if min_dist(sphere, self.query) > distk:  # Case 3
            self.pruned_case3 += 1
        elif dist_max <= distk:  # Case 1
            self.insert(dist_max, key, sphere)
            self.evict()
        elif not self.dominated(self.rows[self.k - 1][3], sphere):  # Case 2
            self.insert(dist_max, key, sphere)

    def offer_block(self, block):
        for key, sphere in block:
            self.offer(key, sphere)

    def finalize(self):
        if len(self.rows) > self.k:
            self.evict()
        return [r[2] for r in self.rows], [r[3] for r in self.rows], self.distk


TALLIES = (
    "nodes_visited",
    "entries_considered",
    "dominance_checks",
    "pruned_case3",
    "uncertain_decisions",
    "absorbed_faults",
    "degraded_checks",
)


def per_entry(monkeypatch, *args, **kwargs):
    """``knn_query`` with the per-entry list in place of the block list."""
    with monkeypatch.context() as patch:
        patch.setattr(knn_module, "_BestKnownList", PerEntryList)
        return knn_query(*args, **kwargs)


def assert_same(block, reference):
    assert block.keys == reference.keys
    assert block.distk == reference.distk
    for name in TALLIES:
        assert getattr(block, name) == getattr(reference, name), name


def indexes(items):
    return (
        SSTree.bulk_load(items, max_entries=8),
        VPTree.build(items, leaf_capacity=8),
        LinearIndex(items),
    )


def tied_items():
    """Duplicate spheres and exact MaxDist ties around the origin."""
    ring = [(3.0, 4.0, 0.0), (4.0, 3.0, 0.0), (5.0, 0.0, 0.0), (0.0, 5.0, 0.0),
            (0.0, 0.0, 5.0), (0.0, -3.0, 4.0), (-4.0, 0.0, -3.0)]
    spheres = [Hypersphere(center, 1.0) for center in ring]
    spheres += [Hypersphere(center, 1.0) for center in ring[:4]]  # duplicates
    spheres += [Hypersphere((x, 0.0, 0.0), 0.5) for x in (8.0, 9.0, 13.0, 21.0)]
    spheres += [Hypersphere((-x, x, 0.0), 2.0) for x in (6.0, 7.0, 11.0)]
    return list(enumerate(spheres))


@pytest.fixture(scope="module")
def world():
    dataset = synthetic_dataset(180, 3, mu=10.0, seed=61)
    items = list(dataset.items())
    return items, indexes(items), knn_queries(dataset, count=3, seed=67)


class TestRowDistances:
    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda d: st.tuples(
                st.lists(
                    st.tuples(
                        st.lists(finite_coordinates, min_size=d, max_size=d),
                        small_radii,
                    ),
                    min_size=1,
                    max_size=12,
                ),
                st.lists(finite_coordinates, min_size=d, max_size=d),
                small_radii,
            )
        )
    )
    def test_rows_equal_the_scalar_distances_bit_for_bit(self, case):
        rows, center, radius = case
        query = Hypersphere(center, radius)
        spheres = [Hypersphere(c, r) for c, r in rows]
        centers = np.array([sphere.center for sphere in spheres])
        radii = np.array([sphere.radius for sphere in spheres])
        linear = LinearIndex(enumerate(spheres))
        want_gap = [dist(sphere.center, query.center) for sphere in spheres]
        want_max = [max_dist(sphere, query) for sphere in spheres]
        want_min = [min_dist(sphere, query) for sphere in spheres]
        assert row_dists(centers, query.center).tolist() == want_gap
        assert max_dists(centers, radii, query).tolist() == want_max
        assert min_dists(centers, radii, query).tolist() == want_min
        assert linear.max_dists(query).tolist() == want_max
        assert linear.min_dists(query).tolist() == want_min


class TestBlockDifferential:
    @pytest.mark.parametrize("strategy", ("hs", "df"))
    def test_every_index_and_k(self, world, monkeypatch, strategy):
        items, trees, queries = world
        for index in trees:
            for query in queries:
                for k in (1, 7, len(items)):
                    assert_same(
                        knn_query(index, query, k, strategy=strategy),
                        per_entry(monkeypatch, index, query, k, strategy=strategy),
                    )

    @pytest.mark.parametrize("strategy", ("hs", "df"))
    def test_duplicates_and_maxdist_ties(self, monkeypatch, strategy):
        items = tied_items()
        for index in indexes(items):
            for radius in (0.0, 0.5, 3.0):
                query = Hypersphere((0.0, 0.0, 0.0), radius)
                for k in (1, 3, 4, 11, len(items)):
                    block = knn_query(index, query, k, strategy=strategy)
                    assert_same(
                        block,
                        per_entry(monkeypatch, index, query, k, strategy=strategy),
                    )

    @pytest.mark.parametrize("strategy", ("hs", "df"))
    def test_overlay_with_tombstones(self, world, monkeypatch, strategy):
        items, trees, queries = world
        overlay = DeltaOverlay()
        rng = np.random.default_rng(71)
        for key, _ in items[::9]:
            overlay.delete(key)
        for key, sphere in items[1::13]:  # re-inserted keys shadow the base
            overlay.insert(key, Hypersphere(sphere.center + 1.0, sphere.radius))
        for i in range(150):  # more than one memtable block
            overlay.insert(("new", i), Hypersphere(rng.normal(100.0, 25.0, 3), 10.0))
        for index in trees:
            for query in queries:
                for k in (1, 9):
                    assert_same(
                        knn_query(index, query, k, strategy=strategy, overlay=overlay),
                        per_entry(
                            monkeypatch, index, query, k, strategy=strategy,
                            overlay=overlay,
                        ),
                    )

    @pytest.mark.parametrize("criterion", ("verified", "subclass"))
    def test_declined_route_keeps_every_tally(self, world, monkeypatch, criterion):
        # Neither criterion has a batch route: the flush runs the guarded
        # scalar checks lazily, in the per-entry order.
        items, trees, queries = world

        class ScalarHyperbola(HyperbolaCriterion):
            pass

        def make():
            if criterion == "verified":
                return get_criterion("verified")
            return ScalarHyperbola()

        for index in trees:
            for query in queries[:2]:
                assert_same(
                    knn_query(index, query, 7, criterion=make()),
                    per_entry(monkeypatch, index, query, 7, criterion=make()),
                )


class TestBlockFaults:
    @pytest.mark.parametrize("every", (1, 3))
    def test_raising_kernel_during_block_offers_widens(self, world, every):
        _, trees, queries = world
        for index in trees:
            for query in queries:
                clean = knn_query(index, query, 7)
                with faults.inject("quartic", "raise", every=every) as fault:
                    faulted = knn_query(index, query, 7)
                assert fault.hits > 0
                assert faulted.absorbed_faults > 0
                assert clean.key_set() <= faulted.key_set()

    @pytest.mark.parametrize("mode", faults.MODES)
    @pytest.mark.parametrize("every", (1, 5))
    def test_corrupted_row_distances_are_absorbed(self, world, mode, every):
        # A raising or non-finite row sends its block through the guarded
        # scalar distances, which absorb what the seam corrupts there.
        # A corrupted MaxDist can pick a wrong Sk, so the answer may move
        # either way; the test is that it never moves unflagged.
        _, trees, queries = world
        for index in trees:
            for query in queries:
                clean = knn_query(index, query, 7)
                with faults.inject("distance", mode, every=every) as fault:
                    faulted = knn_query(index, query, 7)
                assert fault.hits > 0
                if mode != "perturb":
                    assert faulted.absorbed_faults > 0
                assert faulted.key_set() == clean.key_set() or (
                    faulted.absorbed_faults > 0
                )


    @pytest.mark.parametrize("mode", faults.MODES)
    def test_two_phase_scan_flags_corrupted_row_distances(self, world, mode):
        # The linear two-phase path reads the same row helper; a poisoned
        # row sends it through the guarded per-entry MaxDist.
        _, (_, _, linear), queries = world
        for query in queries:
            clean = knn_query(linear, query, 7, algorithm="two-phase")
            with faults.inject("distance", mode, every=4) as fault:
                faulted = knn_query(linear, query, 7, algorithm="two-phase")
            assert fault.hits > 0
            assert faulted.key_set() == clean.key_set() or (
                faulted.absorbed_faults > 0
            )


class TestOverlayK:
    def test_k_up_to_the_live_count_is_accepted(self, world):
        items, (tree, _, _), queries = world
        overlay = DeltaOverlay()
        for key, _ in items[:10]:
            overlay.delete(key)
        overlay.delete("never-in-the-base")  # shadows nothing
        overlay.insert("fresh", Hypersphere((100.0, 100.0, 100.0), 5.0))
        live = len(items) - 10 + 1
        result = knn_query(tree, queries[0], live, overlay=overlay)
        assert len(result) >= 1
        with pytest.raises(ValidationError):
            knn_query(tree, queries[0], live + 1, overlay=overlay)

    def test_oversized_k_still_raises(self, world):
        items, (tree, _, _), queries = world
        overlay = DeltaOverlay()
        overlay.insert("fresh", Hypersphere((100.0, 100.0, 100.0), 5.0))
        with pytest.raises(ValidationError):
            knn_query(tree, queries[0], len(items) + 2, overlay=overlay)
