"""Unbudgeted-execution overhead guard for the kNN traversal.

The resilience layer threads a ``budget`` through the kNN traversals
(:func:`repro.queries.knn._best_first` and friends) and guards every
charge with a single ``budget is not None`` check, plus one contextvar
read per query in :func:`~repro.queries.knn.knn_query`.  With no budget
active that must cost within 5% of a replica traversal with the budget
plumbing deleted.

The replica below re-states the ``_best_first`` body minus the budget
checks, sharing every other helper (``_BestKnownList``, the safe
distance bounds), so the two loops differ *only* by the
``if budget is not None`` guards — the same discipline as the
instrumentation guard in ``test_obs_overhead.py``.

Interleaved best-of-N timing keeps the comparison robust against CPU
frequency drift: each round times both variants back to back and only
the fastest round of each survives.
"""

from __future__ import annotations

import heapq
import itertools
import time

from conftest import make_synthetic

from repro import obs
from repro.data.workload import knn_queries
from repro.index.sstree import SSTree
from repro.queries import knn as knn_mod
from repro.queries.knn import KNNResult, _BestKnownList, _safe_node_min_dist
from repro.queries.validation import validate_k, validate_query
from repro.resilience.budget import current as current_budget

ROUNDS = 20
MAX_OVERHEAD_RATIO = 1.05
K = 10


def _best_first_unbudgeted(root, query, best, result) -> None:
    """``knn._best_first`` with the budget guards deleted."""
    counter = itertools.count()
    heap = [(_safe_node_min_dist(root, query, result), next(counter), root)]
    while heap:
        lower_bound, _, node = heapq.heappop(heap)
        if lower_bound > best.distk:
            break
        result.nodes_visited += 1
        if node.is_leaf:
            result.entries_considered += len(node.entries)
            best.offer_block(node.entries)
        else:
            for child in node.children:
                gap = _safe_node_min_dist(child, query, result)
                if gap <= best.distk:
                    heapq.heappush(heap, (gap, next(counter), child))


def _baseline_query(tree, query, k, criterion) -> KNNResult:
    """``knn_query`` restated without the budget plumbing.

    Validation stays (it runs once per query in both variants); what is
    deleted is the contextvar read and the per-charge guards.
    """
    validate_k(k, len(tree))
    validate_query(query, tree.dimension)
    best = _BestKnownList(k, query, criterion)
    result = KNNResult(keys=[], spheres=[], distk=float("inf"))
    _best_first_unbudgeted(tree.root, query, best, result)
    result.keys, result.spheres, result.distk = best.finalize()
    result.dominance_checks = best.dominance_checks
    result.pruned_case3 = best.pruned_case3
    knn_mod._record_traversal(tree, result)
    return result


def _run_instrumented(tree, queries, criterion) -> float:
    started = time.perf_counter()
    for query in queries:
        knn_mod.knn_query(tree, query, K, criterion=criterion)
    return time.perf_counter() - started


def _run_baseline(tree, queries, criterion) -> float:
    started = time.perf_counter()
    for query in queries:
        _baseline_query(tree, query, K, criterion)
    return time.perf_counter() - started


def test_unbudgeted_knn_overhead_under_five_percent():
    assert current_budget() is None  # the guard under test must idle

    from repro.core.base import get_criterion

    dataset = make_synthetic(n=1200, d=4, mu=0.2)
    tree = SSTree.bulk_load(dataset.items())
    queries = list(knn_queries(dataset, count=30, seed=2))
    criterion = get_criterion("hyperbola")

    # Same answers, or the comparison is meaningless.
    for query in queries[:10]:
        assert knn_mod.knn_query(
            tree, query, K, criterion=criterion
        ).key_set() == _baseline_query(tree, query, K, criterion).key_set()

    obs.disable()
    assert not obs.ENABLED
    # Warm-up (bytecode caches, branch predictors) before measuring.
    _run_instrumented(tree, queries, criterion)
    _run_baseline(tree, queries, criterion)

    best_instrumented = best_baseline = float("inf")
    for _ in range(ROUNDS):
        best_instrumented = min(
            best_instrumented, _run_instrumented(tree, queries, criterion)
        )
        best_baseline = min(
            best_baseline, _run_baseline(tree, queries, criterion)
        )

    ratio = best_instrumented / best_baseline
    assert ratio < MAX_OVERHEAD_RATIO, (
        f"idle budget plumbing costs {100.0 * (ratio - 1.0):.1f}% "
        f"(budget-aware {best_instrumented:.4f}s vs baseline "
        f"{best_baseline:.4f}s over {len(queries)} queries)"
    )
