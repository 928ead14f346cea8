"""The query layer's batch dominance route against its scalar path.

kNN best-known-list evictions and finalize, two-phase collection and
the RkNN exact pass decide "does this anchor dominate each of these
rows?" in one :func:`repro.core.batch.batch_dominates` call.  That call
declines for any criterion that is not exactly a registered class with
a batch kernel, so a trivial :class:`HyperbolaCriterion` subclass
forces the old scalar path and serves as the differential oracle:
answers and every traversal tally must be identical.  Fault seams must
still reach the batch kernel, and a corrupted solve must only ever
widen an answer, with the widening flagged.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from repro import obs
from repro.core.base import get_criterion, is_registered
from repro.core.batch import MIN_BATCH_ROWS, batch_dominates
from repro.core.hyperbola import HyperbolaCriterion
from repro.data.synthetic import synthetic_dataset
from repro.data.workload import knn_queries
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.index.sstree import SSTree
from repro.index.vptree import VPTree
from repro.queries import knn as knn_module
from repro.queries.knn import knn_query, knn_reference
from repro.queries.rknn import rnn_candidates
from repro.resilience import Budget, PartialResult, scope
from repro.robust import faults


class ScalarHyperbola(HyperbolaCriterion):
    """The Hyperbola decision without a batch kernel (a subclass)."""


#: Every tally the two routes must agree on, besides keys and distk.
TALLIES = (
    "nodes_visited",
    "entries_considered",
    "dominance_checks",
    "pruned_case3",
    "uncertain_decisions",
    "absorbed_faults",
    "degraded_checks",
)


def _same(batched, scalar) -> None:
    assert batched.keys == scalar.keys
    assert batched.distk == scalar.distk
    for name in TALLIES:
        assert getattr(batched, name) == getattr(scalar, name), name


def _indexes(items):
    return (
        SSTree.bulk_load(items, max_entries=8),
        VPTree.build(items, leaf_capacity=8),
        LinearIndex(items),
    )


@pytest.fixture(scope="module")
def world():
    dataset = synthetic_dataset(200, 3, mu=10.0, seed=41)
    items = list(dataset.items())
    return items, _indexes(items), knn_queries(dataset, count=4, seed=43)


class TestHelper:
    def test_declines_for_unregistered_and_kernel_less_criteria(self):
        rng = np.random.default_rng(0)
        n = MIN_BATCH_ROWS
        arrays = (
            rng.random((n, 2)),
            rng.random((n, 2)) + 5.0,
            rng.random((n, 2)) - 5.0,
            np.full(n, 0.1),
            np.full(n, 0.1),
            np.full(n, 0.1),
        )
        assert batch_dominates(HyperbolaCriterion(), *arrays) is not None
        assert not is_registered(ScalarHyperbola())
        assert batch_dominates(ScalarHyperbola(), *arrays) is None
        for name in ("cascade", "verified"):
            assert batch_dominates(get_criterion(name), *arrays) is None
        short = tuple(a[: n - 1] for a in arrays)
        assert batch_dominates(HyperbolaCriterion(), *short) is None
        poisoned = list(arrays)
        poisoned[1] = arrays[1].copy()
        poisoned[1][0, 0] = np.nan
        assert batch_dominates(HyperbolaCriterion(), *poisoned) is None


class TestDifferential:
    @pytest.mark.parametrize("strategy", ("hs", "df"))
    def test_incremental_matches_scalar_on_every_index(self, world, strategy):
        _, indexes, queries = world
        for index in indexes:
            for query in queries:
                batched = knn_query(index, query, 6, strategy=strategy)
                scalar = knn_query(
                    index, query, 6, strategy=strategy, criterion=ScalarHyperbola()
                )
                _same(batched, scalar)

    def test_two_phase_equals_reference_by_name_and_instance(self, world):
        items, indexes, queries = world
        for query in queries:
            expected = knn_reference(items, query, 6).key_set()
            for index in indexes:
                for criterion in ("hyperbola", HyperbolaCriterion()):
                    got = knn_query(
                        index, query, 6, algorithm="two-phase", criterion=criterion
                    )
                    assert got.key_set() == expected
                scalar = knn_query(
                    index,
                    query,
                    6,
                    algorithm="two-phase",
                    criterion=ScalarHyperbola(),
                )
                _same(knn_query(index, query, 6, algorithm="two-phase"), scalar)

    def test_two_phase_with_tied_anchors_equals_reference(self):
        # Two anchors share distk but not their geometry, so some rows
        # are dominated by one anchor only: a row must leave the batch
        # at its first dominating anchor and stay dominated.
        query = Hypersphere([0.0, 0.0], 1.0)
        first, second = Hypersphere([4.0, 0.0], 1.0), Hypersphere([0.0, 4.5], 0.5)
        rng = np.random.default_rng(3)
        rows = []
        while len(rows) < 300:
            sphere = Hypersphere(rng.uniform(-30.0, 30.0, 2), rng.uniform(0.0, 3.0))
            if np.linalg.norm(sphere.center) + sphere.radius + 1.0 > 6.0:
                rows.append(sphere)
        criterion = HyperbolaCriterion()
        assert any(
            criterion.dominates(first, row, query)
            != criterion.dominates(second, row, query)
            for row in rows
        )
        near = Hypersphere([1.0, 0.0], 0.5)
        items = list(enumerate([near, first, second, *rows]))
        expected = knn_reference(items, query, 2)
        assert expected.distk == 6.0
        for index in _indexes(items):
            got = knn_query(index, query, 2, algorithm="two-phase")
            assert got.key_set() == expected.key_set()
            _same(
                got,
                knn_query(
                    index,
                    query,
                    2,
                    algorithm="two-phase",
                    criterion=ScalarHyperbola(),
                ),
            )

    def test_rnn_candidates_match_scalar(self, world):
        items, _, queries = world
        for query in queries:
            assert rnn_candidates(items[:50], query) == rnn_candidates(
                items[:50], query, criterion=ScalarHyperbola()
            )

    def test_degraded_minmax_tier_matches_scalar(self, world, monkeypatch):
        # After budget exhaustion the list degrades to MinMax, which has
        # a batch kernel too; the scalar reference disables the route.
        _, (tree, _, _), queries = world

        def run():
            with scope(Budget(max_candidates=120)):
                return knn_query(tree, queries[0], 6)

        batched = run()
        monkeypatch.setattr(knn_module, "batch_dominates", lambda *a: None)
        scalar = run()
        assert isinstance(batched, PartialResult)
        assert batched.degraded_checks > 0
        _same(batched.value, scalar.value)


@st.composite
def gg_worlds(draw):
    """A G-G dataset, a query and a k; covers points and heavy overlap."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=8, max_value=60))
    d = draw(st.sampled_from((1, 2, 3, 8)))
    mu = draw(st.sampled_from((0.0, 10.0, 60.0)))  # 60: overlap-heavy
    dataset = synthetic_dataset(n, d, mu=mu, seed=seed)
    rng = np.random.default_rng(seed + 1)
    radius = draw(st.sampled_from((0.0, mu / 2.0, mu)))  # 0: point query
    query = Hypersphere(rng.normal(100.0, 25.0, d), radius)
    k = draw(st.sampled_from((1, 1, 3, min(n, 10))))
    return list(dataset.items()), query, k


class TestBatchScalarProperty:
    @given(gg_worlds())
    def test_every_route_matches_scalar(self, world):
        items, query, k = world
        scalar = ScalarHyperbola()
        tree = SSTree.bulk_load(items, max_entries=4)
        for strategy in ("hs", "df"):
            _same(
                knn_query(tree, query, k, strategy=strategy),
                knn_query(tree, query, k, strategy=strategy, criterion=scalar),
            )
        expected = knn_reference(items, query, k).key_set()
        for index in (tree, LinearIndex(items)):
            two_phase = knn_query(index, query, k, algorithm="two-phase")
            assert two_phase.key_set() == expected
            _same(
                two_phase,
                knn_query(
                    index, query, k, algorithm="two-phase", criterion=scalar
                ),
            )
        assert rnn_candidates(items[:30], query) == rnn_candidates(
            items[:30], query, criterion=scalar
        )


class TestBatchFaults:
    """The seams reach the batch kernel; corruption only widens, flagged."""

    @pytest.fixture(scope="class")
    def setting(self):
        dataset = synthetic_dataset(150, 3, mu=10.0, seed=5)
        items = list(dataset.items())
        tree = SSTree.bulk_load(items, max_entries=8)
        return items, tree, knn_queries(dataset, count=3, seed=7)

    @staticmethod
    def _knn(tree, query, algorithm):
        return knn_query(tree, query, 6, algorithm=algorithm)

    @staticmethod
    def _rnn(items, query):
        # An unbounded budget only adds the report with the fault tally.
        with scope(Budget()):
            return rnn_candidates(items[:50], query)

    @pytest.mark.parametrize("algorithm", ("incremental", "two-phase"))
    def test_raising_batch_solve_is_absorbed_and_widens(self, setting, algorithm):
        _, tree, queries = setting
        for query in queries:
            clean = self._knn(tree, query, algorithm)
            with obs.enabled_scope(True), obs.scope():
                with faults.inject("quartic", "raise"):
                    faulted = self._knn(tree, query, algorithm)
                counters = obs.collect()["counters"]
            # The batch solver itself ran (and raised) under the seam.
            assert counters.get("quartic.batch_solves", 0) > 0
            assert faulted.absorbed_faults > 0
            assert clean.key_set() <= faulted.key_set()

    def test_raising_batch_solve_keeps_rnn_candidates(self, setting):
        items, _, queries = setting
        for query in queries:
            clean = self._rnn(items, query)
            with obs.enabled_scope(True), obs.scope():
                with faults.inject("quartic", "raise"):
                    faulted = self._rnn(items, query)
                counters = obs.collect()["counters"]
            assert counters.get("quartic.batch_solves", 0) > 0
            assert faulted.report.absorbed_faults > 0
            assert set(clean) <= set(faulted)

    @pytest.mark.parametrize("mode", ("nan", "overflow"))
    def test_poisoned_batch_solve_never_narrows_unflagged(self, setting, mode):
        items, tree, queries = setting
        for query in queries:
            for algorithm in ("incremental", "two-phase"):
                clean = self._knn(tree, query, algorithm)
                with faults.inject("quartic", mode):
                    faulted = self._knn(tree, query, algorithm)
                assert clean.key_set() <= faulted.key_set()
                assert faulted.key_set() == clean.key_set() or (
                    faulted.absorbed_faults > 0
                )
            clean_rnn = self._rnn(items, query)
            with faults.inject("quartic", mode):
                faulted_rnn = self._rnn(items, query)
            assert set(clean_rnn) <= set(faulted_rnn)
            assert set(faulted_rnn) == set(clean_rnn) or (
                faulted_rnn.report.absorbed_faults > 0
            )


class TestExplainAccounting:
    def test_scalar_calls_plus_batch_rows_equal_dominance_checks(self, world):
        # A block flush evaluates every queued pair of a chunk in one
        # kernel call; the pairs past a row's first dominating anchor are
        # speculative rows, never dominance checks.
        _, (tree, _, _), queries = world
        for query in queries:
            detail = knn_query(tree, query, 6, explain=True).explain
            assert detail.hyperbola.get("batch_rows", 0) > 0
            assert (
                detail.hyperbola.get("calls", 0) + detail.hyperbola["batch_rows"]
                == detail.traversal["dominance_checks"]
                + detail.counters.get("knn.speculative_rows", 0)
            )
            assert detail.hyperbola.get("batch_speculative", 0) == (
                detail.counters.get("knn.speculative_rows", 0)
            )
            assert "batch row(s)" in detail.render()
