"""The kNN query on hypersphere databases (Section 6 of the paper).

Definition 2: given a query hypersphere ``Sq`` and a database ``D``,
let ``Sk`` be the object with the k-th smallest ``MaxDist`` to ``Sq``;
the answer is every object of ``D`` **not dominated by** ``Sk`` with
respect to ``Sq``.  (``Sk`` itself is always an answer, since nothing
dominates itself.)

The adapted tree algorithm maintains a best-known list ``L`` sorted by
``MaxDist`` and, for every candidate ``S`` encountered once ``|L| >= k``
(Lemmas 9 and 10), applies the paper's three cases against
``distk`` (the k-th smallest ``MaxDist`` in ``L``):

- Case 1 — ``distmax <= distk``: insert ``S``; with the new ``Sk``,
  evict every list member dominated by ``Sk``.
- Case 2 — ``distmin <= distk < distmax``: keep ``S`` only if ``Sk``
  does *not* dominate it.
- Case 3 — ``distmin > distk``: prune ``S`` outright (Lemma 9 — this
  prune is valid for *any* correct criterion, because it is exactly the
  MinMax criterion, which is correct).

The dominance checks in cases 1 and 2 are delegated to the configured
criterion: with Hyperbola the answer is exact; with a non-sound
criterion some dominated objects survive, which is precisely the
precision loss the paper's Figures 13–16 measure.

Batch route.  Entries arrive a block at a time: a leaf, or a
fixed-size chunk (:data:`SCAN_BLOCK`) of a linear scan or of an overlay
memtable.  One vectorised call gives the block's MaxDist and MinDist
(:func:`repro.geometry.distance.max_dists` and ``min_dists``, equal to
the scalar values bit for bit), and the entries are classified in
order, so a Case-1 insert moves ``distk`` and ``Sk`` at once and node
pruning sees it.  The dominance checks wait until the end of the block.
That is safe because only a Case-1 insert moves ``Sk``: a Case-2 row
has ``MaxDist > distk``, so it is inserted beyond position k, and a row
beyond k never moves back into the first k.  Each row beyond k
therefore faces a time-ordered list of anchors — its offer-time ``Sk``
(Case 2) or the ``Sk`` that pushed it out (Case 1), every later ``Sk``,
and the final one — and no other decision depends on its verdicts
until then.  The block's (anchor, row) pairs go through
:func:`repro.core.batch.batch_dominates` in chunks of at most
:data:`FLUSH_ROWS` rows (paper Section 5.2 evaluates dominance in
batches), and a row leaves at its first dominating anchor: the
dominance checks count the pairs up to that anchor, and kernel rows
past it are tallied as ``knn.speculative_rows``.  The two-phase filter
asks its question once per anchor over every undecided candidate
collected in phase 2.  The batch call declines, and the pairs take the
scalar guarded check one at a time in the same order, when:

- the criterion is not exactly a registered class with a batch kernel
  (``verified``, ``cascade``, any subclass);
- there are fewer than :data:`~repro.core.batch.MIN_BATCH_ROWS` rows;
- an input is non-finite;
- the kernel raises :class:`ArithmeticError`.

So the answers, the budget charges and every :class:`KNNResult` tally
equal those of the per-entry order.  One difference remains: a budget
exhausted *during* dominance checks (``max_escalations`` of a certified
criterion, or the deadline probed by one) is noticed by the traversal
at the end of the block instead of at the next entry.

Two traversals are provided, as in the paper's experiments:

- ``"df"`` — depth-first (Roussopoulos et al.), children visited in
  ascending ``MinDist`` order, subtrees pruned when their ``MinDist``
  exceeds ``distk``;
- ``"hs"`` — best-first (Hjaltason & Samet), a global priority queue on
  ``MinDist``, terminating when the nearest pending node is prunable.

A semantic note (measured in EXPERIMENTS.md): pruning against the
*current* ``Sk`` is stronger than Definition 2, which only excludes
objects dominated by the *final* ``Sk``.  Three properties still hold
(the test suite asserts them):

- the true ``Sk`` always survives — an anchor can never dominate it,
  because domination implies a strictly larger ``MaxDist``;
- hence the final cleanup filters with the true ``Sk`` and, with the
  exact criterion, the answer is a *subset* of the Definition-2 answer
  (precision 100%, the quantity the paper reports);
- some Definition-2 answers may be pruned by intermediate anchors, so
  coverage can be below 100%.  ``algorithm="two-phase"`` removes that
  gap: it first finds ``Sk`` exactly (a classic best-first top-k by
  ``MaxDist``), then collects every non-dominated object in a second
  pruned traversal — exactly Definition 2 when run with Hyperbola.

Resilience (``repro.resilience``)
---------------------------------

Two orthogonal defences make the query path production-safe:

**Fault absorption (always on).**  Every value that decides a *prune*
— node distance bounds, per-sphere MinDist/MaxDist, the dominance
criterion itself — is guarded: a raising kernel or a non-finite bound
collapses to the no-prune direction (bound 0, MaxDist ``inf``, or a
MinMax fallback decision) and is tallied on
:attr:`KNNResult.absorbed_faults`.  A corrupted value can therefore
widen the answer, never silently narrow it.

**Budgets (opt-in).**  When a :class:`repro.resilience.Budget` is
active (:func:`repro.resilience.scope`), the traversal charges it per
node and per entry.  On exhaustion the traversal stops, remaining
dominance filtering degrades to the conservative MinMax tier, and the
query returns a :class:`repro.resilience.PartialResult` wrapping the
:class:`KNNResult` together with a
:class:`repro.resilience.ResilienceReport` (completeness, achieved
guarantee tier, uncertain and absorbed-fault counts) — it never raises
for running out of time.  Without an active budget the return type and
behaviour are unchanged.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro import obs
from repro.obs import export as obs_export
from repro.obs import names
from repro.core.base import DominanceCriterion, get_criterion
from repro.core.batch import MIN_BATCH_ROWS, batch_dominates
from repro.exceptions import QueryError
from repro.geometry.distance import max_dist, max_dists, min_dist, min_dists
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.index.sstree import SSTree, SSTreeNode
from repro.index.vptree import VPTree
from repro.queries.explain import ExplainedResult, explain_capture
from repro.queries.validation import validate_k, validate_query
from repro.resilience.budget import Budget
from repro.resilience.budget import current as current_budget
from repro.resilience.partial import PartialResult, ResilienceReport

if TYPE_CHECKING:
    from repro.stream.overlay import DeltaOverlay

__all__ = ["KNNResult", "knn_query", "knn_reference"]

#: Most (anchor, row) pairs one kernel call of a block flush evaluates:
#: a bound on the kernel's temporaries, and so on the peak RSS.
FLUSH_ROWS = 256
#: Entries per block of a linear scan or an overlay memtable.
SCAN_BLOCK = 64


def _record_traversal(index: object, result: "KNNResult") -> None:
    """Feed one query's tallies to the index stats and the obs registry.

    Duck-typed indexes without the stats mixin are simply skipped.  A
    flat :class:`LinearIndex` scan counts as one node access (the whole
    structure is one "node").
    """
    node_accesses = result.nodes_visited
    if node_accesses == 0 and isinstance(index, LinearIndex):
        node_accesses = 1
    recorder = getattr(index, "record_query", None)
    if recorder is not None:
        recorder(
            node_accesses=node_accesses,
            entries_scanned=result.entries_considered,
        )
    if obs.ENABLED:
        obs.incr(names.KNN_QUERIES)
        obs.incr(names.KNN_NODE_ACCESSES, node_accesses)
        obs.incr(names.KNN_ENTRIES_CONSIDERED, result.entries_considered)
        obs.incr(names.KNN_DOMINANCE_CHECKS, result.dominance_checks)
        obs.incr(names.KNN_PRUNED_CASE3, result.pruned_case3)
        obs.incr(names.KNN_UNCERTAIN_DECISIONS, result.uncertain_decisions)
        obs.observe(names.KNN_ANSWER_SIZE, len(result.keys))
        if result.absorbed_faults:
            obs.incr(names.RESILIENCE_ABSORBED_FAULTS, result.absorbed_faults)


def _jsonable_key(key: object) -> object:
    """Entry keys restricted to JSON scalars (tuples become lists)."""
    if key is None or isinstance(key, (bool, int, float, str)):
        return key
    if isinstance(key, tuple):
        return [_jsonable_key(item) for item in key]
    return str(key)


def _uncertain_count(criterion: object) -> int:
    """Running UNCERTAIN tally of a certified criterion (0 otherwise).

    Duck-typed on the ``uncertain_count`` attribute of
    :class:`~repro.robust.verified.VerifiedHyperbola`, so the query
    layer needs no dependency on :mod:`repro.robust`.
    """
    return int(getattr(criterion, "uncertain_count", 0))


@dataclass
class KNNResult:
    """Answer set and traversal statistics of one kNN query."""

    keys: list
    spheres: list[Hypersphere]
    distk: float
    nodes_visited: int = 0
    entries_considered: int = 0
    dominance_checks: int = 0
    pruned_case3: int = 0
    #: Dominance checks a certified criterion (e.g. ``"verified"``)
    #: answered UNCERTAIN during this query, falling back to its
    #: conservative boolean; always 0 for plain boolean criteria.
    uncertain_decisions: int = 0
    #: Corrupted intermediates (non-finite bounds, raising kernels) the
    #: query layer detected and absorbed by refusing to prune.
    absorbed_faults: int = 0
    #: Dominance filters that ran at the conservative MinMax tier or
    #: were skipped outright because an execution budget ran out.
    degraded_checks: int = 0

    def __len__(self) -> int:
        return len(self.keys)

    def key_set(self) -> set:
        """The answer keys as a set (order is not meaningful)."""
        return set(self.keys)

    def to_dict(self) -> dict:
        """A JSON-friendly form: answer keys, distk and the stat tallies.

        The spheres are deliberately omitted — callers that need the
        geometry have the keys to look it up, and the serialised form is
        what crosses the CLI ``--json`` and HTTP service boundaries.
        """
        return {
            "keys": [_jsonable_key(key) for key in self.keys],
            "distk": self.distk,
            "nodes_visited": self.nodes_visited,
            "entries_considered": self.entries_considered,
            "dominance_checks": self.dominance_checks,
            "pruned_case3": self.pruned_case3,
            "uncertain_decisions": self.uncertain_decisions,
            "absorbed_faults": self.absorbed_faults,
            "degraded_checks": self.degraded_checks,
        }


# ----------------------------------------------------------------------
# Fault-absorbing bound evaluation.  Every helper maps a raising kernel
# or a non-finite value to the *no-prune* direction and tallies it, so
# corruption can only widen an answer.
# ----------------------------------------------------------------------
def _safe_node_min_dist(
    node: object, query: Hypersphere, result: KNNResult
) -> float:
    try:
        value = node.min_dist(query)  # type: ignore[attr-defined]
    except ArithmeticError:
        result.absorbed_faults += 1
        return 0.0
    if not math.isfinite(value):
        result.absorbed_faults += 1
        return 0.0
    return float(value)


def _safe_node_max_dist_lower_bound(
    node: object, query: Hypersphere, result: KNNResult
) -> float:
    try:
        value = node.max_dist_lower_bound(query)  # type: ignore[attr-defined]
    except ArithmeticError:
        result.absorbed_faults += 1
        return 0.0
    if not math.isfinite(value):
        result.absorbed_faults += 1
        return 0.0
    return float(value)


def _safe_sphere_max_dist(
    sphere: Hypersphere, query: Hypersphere, result: "KNNResult | _BestKnownList"
) -> float:
    try:
        value = max_dist(sphere, query)
    except ArithmeticError:
        result.absorbed_faults += 1
        return math.inf
    if not math.isfinite(value):
        result.absorbed_faults += 1
        return math.inf
    return float(value)


def _safe_sphere_min_dist(
    sphere: Hypersphere, query: Hypersphere, result: "KNNResult | _BestKnownList"
) -> float:
    try:
        value = min_dist(sphere, query)
    except ArithmeticError:
        result.absorbed_faults += 1
        return 0.0
    if not math.isfinite(value):
        result.absorbed_faults += 1
        return 0.0
    return float(value)


def _checked_rows(
    rows: "Callable[..., np.ndarray]", *args: object
) -> "np.ndarray | None":
    """``rows(*args)``, or ``None`` when it raises or yields a non-finite
    value: the caller then takes the guarded per-entry distances, which
    tally what they absorb."""
    try:
        values = rows(*args)
    except ArithmeticError:
        return None
    return values if np.isfinite(values).all() else None


def _guarded_dominates(
    criterion: DominanceCriterion,
    fallback: DominanceCriterion,
    anchor: Hypersphere,
    sphere: Hypersphere,
    query: Hypersphere,
    tally: "KNNResult | _BestKnownList",
) -> bool:
    """One guarded dominance check (the only place pruning can err).

    A raising criterion falls back to MinMax; a raising fallback answers
    ``False`` (keep) — both directions are conservative.  Each raise is
    tallied on ``tally.absorbed_faults``.
    """
    try:
        return bool(criterion.dominates(anchor, sphere, query))
    except ArithmeticError:
        tally.absorbed_faults += 1
    try:
        return bool(fallback.dominates(anchor, sphere, query))
    except ArithmeticError:
        tally.absorbed_faults += 1
        return False


def _guarded_rows(
    criterion: DominanceCriterion,
    fallback: DominanceCriterion,
    anchor: Hypersphere,
    spheres: "list[Hypersphere]",
    query: Hypersphere,
    tally: "KNNResult | _BestKnownList",
) -> "list[bool]":
    """:func:`_guarded_dominates` for every sphere against one anchor.

    The rows go through one :func:`~repro.core.batch.batch_dominates`
    call; when that declines, each row takes the scalar guarded check.
    """
    n = len(spheres)
    if n >= MIN_BATCH_ROWS:
        centers = np.array([sphere.center for sphere in spheres])
        shape = centers.shape
        verdicts = batch_dominates(
            criterion,
            np.broadcast_to(anchor.center, shape),
            centers,
            np.broadcast_to(query.center, shape),
            np.full(n, anchor.radius),
            np.array([sphere.radius for sphere in spheres]),
            np.full(n, query.radius),
        )
        if verdicts is not None:
            return verdicts.tolist()
    return [
        _guarded_dominates(criterion, fallback, anchor, sphere, query, tally)
        for sphere in spheres
    ]


class _BestKnownList:
    """The list ``L``: entries sorted by ``MaxDist`` to the query.

    Every offered entry gets a *slot*, its offer order, in the stores
    below; ``L`` itself is two parallel lists, ``MaxDist`` ascending and
    the slot of each row.  A later offer sorts after an equal
    ``MaxDist``, so the order never compares keys or spheres.
    """

    def __init__(
        self, k: int, query: Hypersphere, criterion: DominanceCriterion
    ) -> None:
        self._k = k
        self._query = query
        self._criterion = criterion
        self._fallback = get_criterion("minmax")
        self._degraded = criterion is self._fallback
        self._keys: list = []
        self._spheres: list[Hypersphere] = []
        self._centers = np.empty((0, query.dimension))
        self._radii = np.empty(0)
        self._maxdists: list[float] = []
        self._slots: list[int] = []
        self.dominance_checks = 0
        self.pruned_case3 = 0
        self.absorbed_faults = 0
        self.degraded_checks = 0
        #: Kernel rows evaluated past a row's first dominating anchor.
        self.speculative_rows = 0

    @property
    def distk(self) -> float:
        """The k-th smallest ``MaxDist`` in L (inf while |L| < k)."""
        if len(self._slots) < self._k:
            return float("inf")
        return self._maxdists[self._k - 1]

    def degrade(self) -> None:
        """Drop to the conservative MinMax tier for every later check.

        Called when the execution budget runs out: MinMax is correct
        (never mis-prunes), so all subsequent filtering stays safe while
        costing O(d) instead of a quartic solve per pair.
        """
        self._criterion = self._fallback
        self._degraded = True

    def _store(self, block: "Sequence[tuple[object, Hypersphere]]") -> int:
        """Give every entry of *block* a slot; returns the first one."""
        base = len(self._keys)
        end = base + len(block)
        if end > len(self._radii):
            size = max(end, 2 * len(self._radii))
            centers = np.empty((size, self._centers.shape[1]))
            centers[:base] = self._centers[:base]
            radii = np.empty(size)
            radii[:base] = self._radii[:base]
            self._centers, self._radii = centers, radii
        for key, sphere in block:
            self._keys.append(key)
            self._spheres.append(sphere)
        self._centers[base:end] = [sphere.center for _, sphere in block]
        self._radii[base:end] = [sphere.radius for _, sphere in block]
        return base

    def _block_dists(
        self, base: int, end: int
    ) -> "tuple[list[float], list[float]] | None":
        """MaxDist and MinDist of slots ``base:end``, or ``None``."""
        centers, radii = self._centers[base:end], self._radii[base:end]
        maxs = _checked_rows(max_dists, centers, radii, self._query)
        mins = _checked_rows(min_dists, centers, radii, self._query)
        if maxs is None or mins is None:
            return None
        return maxs.tolist(), mins.tolist()

    def offer_block(self, block: "Sequence[tuple[object, Hypersphere]]") -> None:
        """Process a block of candidates through the paper's three cases.

        Classification runs entry by entry, so Case-1 inserts move
        ``distk`` and ``Sk`` immediately; every dominance check the
        block raises is queued as an (anchor, row) slot pair and
        resolved by one :meth:`_flush` at its end.
        """
        if not block:
            return
        base = self._store(block)
        dists = self._block_dists(base, base + len(block))
        k, maxdists, slots = self._k, self._maxdists, self._slots
        anchors: "list[int]" = []
        targets: "list[int]" = []
        for i, (_, sphere) in enumerate(block):
            dist_max = (
                _safe_sphere_max_dist(sphere, self._query, self)
                if dists is None
                else dists[0][i]
            )
            full = len(slots) >= k
            if full:
                distk = maxdists[k - 1]
                dist_min = (
                    _safe_sphere_min_dist(sphere, self._query, self)
                    if dists is None
                    else dists[1][i]
                )
                if dist_min > distk:  # Case 3
                    self.pruned_case3 += 1
                    continue
            at = bisect.bisect_right(maxdists, dist_max)
            maxdists.insert(at, dist_max)
            slots.insert(at, base + i)
            if not full:
                continue
            if dist_max <= distk:  # Case 1: the new Sk faces every row beyond k
                anchors.extend([slots[k - 1]] * (len(slots) - k))
                targets.extend(slots[k:])
            else:  # Case 2: kept provisionally, checked against this Sk
                anchors.append(slots[k - 1])
                targets.append(base + i)
        self._flush(anchors, targets)

    def _flush(self, anchors: "list[int]", targets: "list[int]") -> None:
        """Resolve queued (anchor, row) checks in time order; evict.

        A row leaves at its first dominating anchor.  Only the pairs up
        to it are dominance checks; a later pair of the same row that a
        kernel call evaluated anyway is a speculative row.
        """
        if not targets:
            return
        anchor_slots, target_slots = np.array(anchors), np.array(targets)
        gone = np.zeros(len(self._keys), dtype=bool)
        at = 0
        while at < target_slots.size:
            live = at + np.flatnonzero(~gone[target_slots[at:]])
            if not live.size:
                break
            chunk = live[:FLUSH_ROWS]
            at = int(chunk[-1]) + 1
            a, t = anchor_slots[chunk], target_slots[chunk]
            verdicts = self._batch_verdicts(a, t)
            if verdicts is None:
                self._resolve_scalar(a.tolist(), t.tolist(), gone)
                continue
            hits = np.flatnonzero(verdicts)
            evicted, first = np.unique(t[hits], return_index=True)
            last_check = np.full(len(gone), t.size)
            last_check[evicted] = hits[first]
            speculative = int(np.count_nonzero(np.arange(t.size) > last_check[t]))
            self.speculative_rows += speculative
            self._count_checks(t.size - speculative)
            gone[evicted] = True
        if gone.any():
            slots = np.array(self._slots)
            keep = ~gone[slots]
            self._slots = slots[keep].tolist()
            self._maxdists = np.array(self._maxdists)[keep].tolist()

    def _count_checks(self, checks: int) -> None:
        self.dominance_checks += checks
        if self._degraded:
            self.degraded_checks += checks

    def _batch_verdicts(
        self, anchors: np.ndarray, targets: np.ndarray
    ) -> "np.ndarray | None":
        """One guarded kernel call over the pairs, or ``None`` (go scalar)."""
        if targets.size < MIN_BATCH_ROWS:
            return None
        query = self._query
        ca = self._centers[anchors]
        return batch_dominates(
            self._criterion,
            ca,
            self._centers[targets],
            np.broadcast_to(query.center, ca.shape),
            self._radii[anchors],
            self._radii[targets],
            np.full(targets.size, query.radius),
        )

    def _resolve_scalar(
        self, anchors: "list[int]", targets: "list[int]", gone: np.ndarray
    ) -> None:
        """The pairs one guarded scalar check at a time, skipping the gone."""
        for anchor, target in zip(anchors, targets):
            if gone[target]:
                continue
            self._count_checks(1)
            gone[target] = _guarded_dominates(
                self._criterion,
                self._fallback,
                self._spheres[anchor],
                self._spheres[target],
                self._query,
                self,
            )

    def finalize(self) -> tuple[list, list[Hypersphere], float]:
        """Final cleanup pass: re-apply dominance by the final Sk."""
        k = self._k
        tail = self._slots[k:]
        if tail:
            self._flush([self._slots[k - 1]] * len(tail), tail)
        return (
            [self._keys[slot] for slot in self._slots],
            [self._spheres[slot] for slot in self._slots],
            self.distk,
        )


class _ShadowedOffers:
    """Offer filter that hides overlay-shadowed base entries.

    A streaming overlay (:mod:`repro.stream.overlay`) tombstones or
    re-inserts keys whose base-index copies must not participate in the
    answer.  The traversals only need ``offer_block`` and ``distk``, so this
    thin proxy drops shadowed candidates before they ever reach the
    best-known list — everything that survives runs through the exact
    same certified cascade.
    """

    __slots__ = ("_best", "_shadowed", "tombstone_hits")

    def __init__(
        self, best: _BestKnownList, shadowed: "frozenset[object]"
    ) -> None:
        self._best = best
        self._shadowed = shadowed
        self.tombstone_hits = 0

    @property
    def distk(self) -> float:
        return self._best.distk

    def offer_block(self, block: "Sequence[tuple[object, Hypersphere]]") -> None:
        kept = [entry for entry in block if entry[0] not in self._shadowed]
        self.tombstone_hits += len(block) - len(kept)
        self._best.offer_block(kept)


def _offer(
    best: "_BestKnownList | _ShadowedOffers",
    entries: "Sequence[tuple[object, Hypersphere]]",
    result: KNNResult,
    budget: "Budget | None",
) -> bool:
    """Offer *entries* as one block; ``False`` when the budget ran out.

    The budget is charged per entry first, so the block offered is the
    prefix of entries it paid for.
    """
    block = entries
    if budget is not None:
        for i in range(len(entries)):
            if budget.charge_candidate() is not None:
                block = entries[:i]
                break
    result.entries_considered += len(block)
    best.offer_block(block)
    return len(block) == len(entries)


def _offer_scan(
    best: "_BestKnownList | _ShadowedOffers",
    entries: "Sequence[tuple[object, Hypersphere]]",
    result: KNNResult,
    budget: "Budget | None",
) -> None:
    """Offer a flat sequence in :data:`SCAN_BLOCK`-sized blocks."""
    for start in range(0, len(entries), SCAN_BLOCK):
        if not _offer(best, entries[start:start + SCAN_BLOCK], result, budget):
            return


def _wrap_partial(result: KNNResult, budget: Budget) -> PartialResult:
    """Assemble the :class:`ResilienceReport` for one budgeted query."""
    report = ResilienceReport()
    reason = budget.exhausted()
    if reason is not None:
        report.mark_incomplete(reason)
    if result.degraded_checks:
        report.mark_conservative(
            "dominance filtering degraded to the MinMax tier"
        )
    report.uncertain = result.uncertain_decisions
    report.absorbed_faults = result.absorbed_faults
    if obs.ENABLED:
        if report.degraded:
            obs.incr(names.RESILIENCE_DEGRADED_QUERIES)
        if not report.complete:
            obs.incr(names.RESILIENCE_PARTIAL_QUERIES)
    return PartialResult(result, report)


def knn_query(
    index: "SSTree | VPTree | LinearIndex",
    query: Hypersphere,
    k: int,
    *,
    criterion: "DominanceCriterion | str" = "hyperbola",
    strategy: str = "hs",
    algorithm: str = "incremental",
    explain: bool = False,
    overlay: "DeltaOverlay | None" = None,
) -> "KNNResult | PartialResult | ExplainedResult":
    """Answer the Definition-2 kNN query over *index*.

    Parameters
    ----------
    index:
        An :class:`~repro.index.sstree.SSTree` or
        :class:`~repro.index.vptree.VPTree` (traversed with pruning), or
        a :class:`~repro.index.linear.LinearIndex` (scanned).  Any tree
        whose nodes expose ``is_leaf`` / ``entries`` / ``children`` /
        ``min_dist`` / ``max_dist_lower_bound`` works.
    query:
        The query hypersphere ``Sq``.
    k:
        Number of neighbours anchoring ``Sk`` (``1 <= k <= |D|``).
    criterion:
        Dominance criterion instance or registry name.  Hyperbola gives
        the exact answer; correct-but-unsound criteria return supersets.
    strategy:
        ``"hs"`` (best-first) or ``"df"`` (depth-first); ignored for a
        linear index.
    algorithm:
        ``"incremental"`` — the paper's single-pass best-known list
        (Section 6), or ``"two-phase"`` — the Definition-2-exact
        variant (find ``Sk`` first, then collect survivors).
    overlay:
        An optional :class:`repro.stream.overlay.DeltaOverlay` of
        streaming mutations to merge at query time.  Base entries whose
        key is tombstoned or re-inserted are excluded; memtable entries
        run through the same certified cascade as base entries.  With
        ``algorithm="two-phase"`` the effective dataset is materialised
        and answered exactly (Definition 2 over base ⊖ shadowed ⊕
        memtable); the incremental path offers memtable entries first
        and shadow-filters the traversal.
    explain:
        When true, run the query under a private enabled obs scope and
        return an :class:`~repro.queries.explain.ExplainedResult`
        carrying the answer plus a structured
        :class:`~repro.queries.explain.QueryExplain` (per-level node
        accesses, cascade tiers, pruning effectiveness, budget use).
        Costs a single branch when off.

    Returns
    -------
    A plain :class:`KNNResult` normally; a
    :class:`~repro.resilience.PartialResult` wrapping one when a
    :class:`~repro.resilience.Budget` is active in the current context
    (see :func:`repro.resilience.scope`); an
    :class:`~repro.queries.explain.ExplainedResult` wrapping either
    when ``explain=True``.
    """
    if overlay is not None and not overlay:
        overlay = None  # an empty overlay merges to the plain query
    if overlay is None:
        k = validate_k(k, len(index))
        validate_query(query, index.dimension)
    elif algorithm == "two-phase":
        validate_query(query, index.dimension)
        # Materialise the effective dataset once: the two-phase path is
        # Definition-2-exact over whatever index it scans, so folding
        # keeps exactness while making the merge trivial.
        folded = overlay.fold(iter(index))
        k = validate_k(k, len(folded))
        index = LinearIndex(folded)
        if obs.ENABLED:
            obs.incr(names.STREAM_MERGED_QUERIES)
        overlay = None
    else:
        validate_query(query, index.dimension)
        # len(index) - len(shadowed) bounds the live base entries from
        # below, so only a k beyond it pays for the exact O(n) count.
        shadowed = overlay.shadowed_keys()
        size = len(index) - len(shadowed) + len(overlay)
        if isinstance(k, (int, np.integer)) and k > size:
            size = sum(1 for key, _ in index if key not in shadowed) + len(overlay)
        k = validate_k(k, size)
    if isinstance(criterion, str):
        criterion = get_criterion(criterion)
    event_log = obs_export.current_event_log()
    if explain:
        params = {
            "k": k,
            "criterion": criterion.name,
            "strategy": strategy,
            "algorithm": algorithm,
            "index": type(index).__name__,
        }
        if overlay is not None:
            params["overlay"] = len(overlay)
        with explain_capture() as capture:
            outcome = _run_knn(
                index, query, k, criterion, strategy, algorithm,
                levels=capture.levels, overlay=overlay,
            )
            detail = capture.finish("knn", params, outcome)
        if event_log is not None:
            event_log.emit_outcome("knn", outcome, detail.duration_s)
        return ExplainedResult(outcome, detail)
    if event_log is None:
        return _run_knn(index, query, k, criterion, strategy, algorithm,
                        overlay=overlay)
    started = time.perf_counter()
    outcome = _run_knn(index, query, k, criterion, strategy, algorithm,
                       overlay=overlay)
    event_log.emit_outcome("knn", outcome, time.perf_counter() - started)
    return outcome


def _run_knn(
    index: "SSTree | VPTree | LinearIndex",
    query: Hypersphere,
    k: int,
    criterion: DominanceCriterion,
    strategy: str,
    algorithm: str,
    levels: "dict[int, int] | None" = None,
    overlay: "DeltaOverlay | None" = None,
) -> "KNNResult | PartialResult":
    """The validated query body (see :func:`knn_query` for semantics)."""
    budget = current_budget()
    if budget is not None:
        budget.start()
    if algorithm == "two-phase":
        # knn_query folds an overlay into a LinearIndex before reaching
        # this branch, so the two-phase body never sees one.
        result = _knn_two_phase(
            index, query, k, criterion, strategy, budget, levels
        )
        return result if budget is None else _wrap_partial(result, budget)
    if algorithm != "incremental":
        raise QueryError(
            f"unknown algorithm {algorithm!r}; use 'incremental' or 'two-phase'"
        )

    best = _BestKnownList(k, query, criterion)
    result = KNNResult(keys=[], spheres=[], distk=float("inf"))
    uncertain_before = _uncertain_count(criterion)

    offers: "_BestKnownList | _ShadowedOffers" = best
    if overlay is not None:
        # Memtable entries go first: a deterministic offer order, and
        # distk can only shrink, so every later Case-3 prune stays valid.
        _offer_scan(best, list(overlay.entries()), result, budget)
        shadowed = overlay.shadowed_keys()
        if shadowed:
            offers = _ShadowedOffers(best, shadowed)
        if obs.ENABLED:
            obs.incr(names.STREAM_MERGED_QUERIES)

    if isinstance(index, LinearIndex):
        _offer_scan(offers, list(index), result, budget)
    elif strategy == "df":
        _depth_first(index.root, query, offers, result, budget, levels=levels)
    elif strategy == "hs":
        _best_first(index.root, query, offers, result, budget, levels=levels)
    else:
        raise QueryError(f"unknown strategy {strategy!r}; use 'df' or 'hs'")

    if isinstance(offers, _ShadowedOffers) and obs.ENABLED:
        if offers.tombstone_hits:
            obs.incr(names.STREAM_TOMBSTONE_HITS, offers.tombstone_hits)

    if budget is not None and budget.exhausted() is not None:
        # Out of budget: the remaining filtering work (the finalize
        # pass) degrades to the conservative MinMax tier.
        best.degrade()
    result.keys, result.spheres, result.distk = best.finalize()
    if obs.ENABLED and best.speculative_rows:
        obs.incr(names.KNN_SPECULATIVE_ROWS, best.speculative_rows)
    result.dominance_checks = best.dominance_checks
    result.pruned_case3 = best.pruned_case3
    result.absorbed_faults += best.absorbed_faults
    result.degraded_checks += best.degraded_checks
    result.uncertain_decisions = _uncertain_count(criterion) - uncertain_before
    _record_traversal(index, result)
    if budget is None:
        return result
    return _wrap_partial(result, budget)


def _depth_first(
    node: SSTreeNode,
    query: Hypersphere,
    best: "_BestKnownList | _ShadowedOffers",
    result: KNNResult,
    budget: "Budget | None" = None,
    depth: int = 0,
    levels: "dict[int, int] | None" = None,
) -> bool:
    """Visit *node*; returns ``False`` when the budget ran out (stop)."""
    if budget is not None and budget.charge_node() is not None:
        return False
    result.nodes_visited += 1
    if levels is not None:
        levels[depth] = levels.get(depth, 0) + 1
    if node.is_leaf:
        return _offer(best, node.entries, result, budget)
    ranked = sorted(
        (
            (_safe_node_min_dist(child, query, result), i)
            for i, child in enumerate(node.children)
        ),
    )
    for gap, i in ranked:
        # Subtree version of Case 3: every object below has at least this
        # MinDist, so the whole branch is prunable.
        if gap > best.distk:
            continue
        if not _depth_first(
            node.children[i], query, best, result, budget, depth + 1, levels
        ):
            return False
    return True


def _best_first(
    root: SSTreeNode,
    query: Hypersphere,
    best: "_BestKnownList | _ShadowedOffers",
    result: KNNResult,
    budget: "Budget | None" = None,
    levels: "dict[int, int] | None" = None,
) -> None:
    counter = itertools.count()
    heap: list[tuple[float, int, SSTreeNode, int]] = [
        (_safe_node_min_dist(root, query, result), next(counter), root, 0)
    ]
    while heap:
        lower_bound, _, node, depth = heapq.heappop(heap)
        if lower_bound > best.distk:
            break  # every remaining node is at least this far: all prunable
        if budget is not None and budget.charge_node() is not None:
            break
        result.nodes_visited += 1
        if levels is not None:
            levels[depth] = levels.get(depth, 0) + 1
        if node.is_leaf:
            if not _offer(best, node.entries, result, budget):
                return
        else:
            for child in node.children:
                gap = _safe_node_min_dist(child, query, result)
                if gap <= best.distk:
                    heapq.heappush(heap, (gap, next(counter), child, depth + 1))


def _knn_two_phase(
    index: "SSTree | VPTree | LinearIndex",
    query: Hypersphere,
    k: int,
    criterion: DominanceCriterion,
    strategy: str,
    budget: "Budget | None" = None,
    levels: "dict[int, int] | None" = None,
) -> KNNResult:
    """The Definition-2-exact variant: find ``Sk`` first, then collect.

    Both phases only collect; the entries the criterion must decide
    (``undecided`` positions in ``collected``) are filtered afterwards,
    one guarded batch per anchor.
    """
    result = KNNResult(keys=[], spheres=[], distk=float("inf"))
    uncertain_before = _uncertain_count(criterion)
    anchors: "list[Hypersphere]"
    collected: "list[tuple[object, Hypersphere]]" = []
    undecided: "list[int]" = []

    if isinstance(index, LinearIndex):
        maxdists = _checked_rows(index.max_dists, query)
        if maxdists is None:
            maxdists = np.array(
                [_safe_sphere_max_dist(s, query, result) for s in index.spheres]
            )
        distk = float(np.partition(maxdists, k - 1)[k - 1])
        anchors = [index.spheres[i] for i in np.flatnonzero(maxdists == distk)]
        result.entries_considered = len(index)
        collected.extend(index)
        undecided = np.flatnonzero(maxdists > distk).tolist()
        if budget is not None:
            # The vectorised scan considers every entry in one sweep.
            budget.charge_candidate(len(index))
            if budget.exhausted() is not None:
                # Out of budget: skip the criterion filter and keep every
                # candidate — a conservative superset, never a wrong cut.
                result.degraded_checks += len(undecided)
                undecided = []
    else:
        if strategy not in ("hs", "df"):
            raise QueryError(f"unknown strategy {strategy!r}; use 'df' or 'hs'")

        # Phase 1: the k-th smallest MaxDist via best-first search on the
        # MaxDist lower bound (exact regardless of the dominance criterion).
        counter = itertools.count()
        heap: list[tuple[float, int, SSTreeNode, int]] = [
            (
                _safe_node_max_dist_lower_bound(index.root, query, result),
                next(counter),
                index.root,
                0,
            )
        ]
        top: list[tuple[float, int, Hypersphere]] = []  # max-heap via negation
        phase1_cut = False
        while heap:
            bound, _, node, depth = heapq.heappop(heap)
            if len(top) == k and bound > -top[0][0]:
                break
            if budget is not None and budget.charge_node() is not None:
                phase1_cut = True
                break
            result.nodes_visited += 1
            if levels is not None:
                levels[depth] = levels.get(depth, 0) + 1
            if node.is_leaf:
                for _, sphere in node.entries:
                    if budget is not None and budget.charge_candidate() is not None:
                        phase1_cut = True
                        break
                    dist_max = _safe_sphere_max_dist(sphere, query, result)
                    if len(top) < k:
                        heapq.heappush(top, (-dist_max, next(counter), sphere))
                    elif dist_max < -top[0][0]:
                        heapq.heapreplace(top, (-dist_max, next(counter), sphere))
                if phase1_cut:
                    break
            else:
                for child in node.children:
                    child_bound = _safe_node_max_dist_lower_bound(child, query, result)
                    if len(top) < k or child_bound <= -top[0][0]:
                        heapq.heappush(
                            heap, (child_bound, next(counter), child, depth + 1)
                        )
        if len(top) < k:
            # The budget cut phase 1 before k objects were even seen; with
            # no usable distk nothing can be pruned safely.
            distk = math.inf
            anchors = []
        else:
            distk = -top[0][0]
            # When phase 1 was cut short the found distk is only an *upper*
            # bound on the true one: Case-3 pruning against it stays safe
            # (MinDist > distk' >= distk), but the found anchors may not be
            # the true Sk, so the criterion filter must be skipped.
            anchors = (
                [] if phase1_cut else [s for neg, _, s in top if -neg == distk]
            )

        # Phase 2: collect every object not dominated by Sk.  A subtree with
        # MinDist > distk is entirely dominated via MinMax (Lemma 9).
        stack: "list[tuple[SSTreeNode, int]]" = [(index.root, 0)]
        stopped = False
        while stack:
            node, depth = stack.pop()
            if stopped or (budget is not None and budget.charge_node() is not None):
                stopped = True
                break
            if _safe_node_min_dist(node, query, result) > distk:
                result.pruned_case3 += 1
                continue
            result.nodes_visited += 1
            if levels is not None:
                levels[depth] = levels.get(depth, 0) + 1
            if node.is_leaf:
                for key, sphere in node.entries:
                    if budget is not None and budget.charge_candidate() is not None:
                        stopped = True
                        break
                    result.entries_considered += 1
                    dist_max = _safe_sphere_max_dist(sphere, query, result)
                    if dist_max > distk:
                        if _safe_sphere_min_dist(sphere, query, result) > distk:
                            result.pruned_case3 += 1
                            continue
                        if anchors:
                            undecided.append(len(collected))
                        elif phase1_cut:
                            # No trustworthy Sk (budget cut phase 1): keep — a
                            # conservative superset over the visited region.
                            result.degraded_checks += 1
                    collected.append((key, sphere))
                if stopped:
                    break
            else:
                stack.extend((child, depth + 1) for child in node.children)

    dominated = _dominated_by_any(
        anchors, [collected[i][1] for i in undecided], query, criterion, result
    )
    drop = {undecided[i] for i in np.flatnonzero(dominated)}
    for i, (key, sphere) in enumerate(collected):
        if i not in drop:
            result.keys.append(key)
            result.spheres.append(sphere)
    result.distk = distk
    result.uncertain_decisions = _uncertain_count(criterion) - uncertain_before
    _record_traversal(index, result)
    return result


def _dominated_by_any(
    anchors: "list[Hypersphere]",
    spheres: "list[Hypersphere]",
    query: Hypersphere,
    criterion: DominanceCriterion,
    result: KNNResult,
) -> np.ndarray:
    """Which *spheres* some anchor dominates: one guarded batch per anchor.

    A row leaves the batch at the first anchor that dominates it, so
    every (anchor, row) pair the scalar ``any`` loop would evaluate is
    evaluated, and no other.
    """
    result.dominance_checks += len(anchors) * len(spheres)
    dominated = np.zeros(len(spheres), dtype=bool)
    fallback = get_criterion("minmax")
    for anchor in anchors:
        rows = np.flatnonzero(~dominated)
        if not rows.size:
            break
        dominated[rows] = _guarded_rows(
            criterion, fallback, anchor, [spheres[i] for i in rows], query, result
        )
    return dominated


def knn_reference(
    dataset: "LinearIndex | Sequence[tuple[object, Hypersphere]]",
    query: Hypersphere,
    k: int,
    *,
    criterion: "DominanceCriterion | str" = "hyperbola",
) -> KNNResult:
    """The exact Definition-2 answer, computed by direct evaluation.

    Finds ``distk`` (the k-th smallest ``MaxDist``) vectorised, takes
    every object attaining it as ``Sk`` (the paper keeps all ties), and
    returns the objects not dominated by any ``Sk``.

    When *criterion* is given by name and has a batch kernel, the
    dominance checks run vectorised (the reference is evaluated once
    per query in every kNN experiment, so it is the harness
    bottleneck); a criterion *instance* falls back to per-object calls.

    The reference is deliberately budget-blind: it is the ground truth
    the resilience tests compare degraded answers against.
    """
    if not isinstance(dataset, LinearIndex):
        dataset = LinearIndex(dataset)
    k = validate_k(k, len(dataset))
    validate_query(query, dataset.dimension)
    batch_name = criterion if isinstance(criterion, str) else None
    if isinstance(criterion, str):
        criterion = get_criterion(criterion)

    maxdists = dataset.max_dists(query)
    distk = float(np.partition(maxdists, k - 1)[k - 1])
    anchor_rows = np.flatnonzero(maxdists == distk)
    anchors = [dataset.spheres[i] for i in anchor_rows]

    candidate_rows = np.flatnonzero(maxdists > distk)
    dominated = np.zeros(len(dataset), dtype=bool)
    checks = len(anchors) * int(candidate_rows.size)
    if candidate_rows.size and batch_name is not None:
        from repro.core.batch import batch_evaluate

        n = int(candidate_rows.size)
        cq = np.broadcast_to(query.center, (n, dataset.dimension))
        rq = np.full(n, query.radius)
        cb = dataset.centers[candidate_rows]
        rb = dataset.radii[candidate_rows]
        for anchor_row in anchor_rows:
            ca = np.broadcast_to(dataset.centers[anchor_row], (n, dataset.dimension))
            ra = np.full(n, dataset.radii[anchor_row])
            dominated[candidate_rows] |= batch_evaluate(
                batch_name, ca, cb, cq, ra, rb, rq
            )
    elif candidate_rows.size:
        for i in candidate_rows:
            sphere = dataset.spheres[i]
            dominated[i] = any(
                criterion.dominates(sk, sphere, query) for sk in anchors
            )

    keys, spheres = [], []
    for i, (key, sphere) in enumerate(zip(dataset.keys, dataset.spheres)):
        if not dominated[i]:
            keys.append(key)
            spheres.append(sphere)
    # The reference scan is harness work, not a measured traversal:
    # tally it on the index but under its own obs counter.
    dataset.record_query(node_accesses=1, entries_scanned=len(dataset))
    if obs.ENABLED:
        obs.incr(names.KNN_REFERENCE_QUERIES)
        obs.incr(names.KNN_REFERENCE_DOMINANCE_CHECKS, checks)
    return KNNResult(
        keys=keys,
        spheres=spheres,
        distk=distk,
        entries_considered=len(dataset),
        dominance_checks=checks,
    )
