"""Reverse nearest-neighbour candidates via dominance pruning (extension).

The paper's introduction names RkNN queries as a second application of
the dominance operator: for ``k = 1``, an object ``Sb`` can be
discarded from the reverse-NN answer of a query ``Sq`` as soon as some
other object ``Sa`` dominates ``Sq`` with respect to ``Sb`` — every
realisation of ``Sa`` is then strictly closer to every realisation of
``Sb`` than ``Sq`` is, so ``Sq`` cannot be ``Sb``'s nearest neighbour.

The paper evaluates only the kNN application; this module is the
natural RNN counterpart, provided as an extension and exercised by the
test suite.  Note the asymmetric argument order: the *roles* rotate —
``dominates(Sa, Sq, Sb)`` asks whether ``Sa`` beats ``Sq`` from ``Sb``'s
point of view.

With an exact criterion the returned set is the exact set of objects
whose reverse-NN membership *cannot be refuted* by dominance (objects
whose uncertainty regions leave the outcome undecided remain
candidates); a correct-but-unsound criterion refutes less and returns a
superset, mirroring the kNN precision experiments.

The exact pass over one object's plausible competitors is one
:func:`repro.core.batch.batch_dominates` call.  When that call declines
(a criterion without a batch kernel such as ``verified`` or
``cascade``, a subclass, fewer than
:data:`~repro.core.batch.MIN_BATCH_ROWS` rows, non-finite inputs, or a
raising kernel), the scalar loop decides the pairs one at a time and
stops at the first refutation, as before.

Resilience: membership here is refute-only, so every degradation is a
*kept* candidate.  A raising criterion on one pair keeps that pair's
candidate (absorbed fault); an exhausted
:class:`repro.resilience.Budget` keeps every not-yet-examined object
and returns a :class:`repro.resilience.PartialResult` — the candidate
set is then a superset of the exact one, never missing a true
reverse-NN.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import obs
from repro.obs import export as obs_export
from repro.obs import names
from repro.core.base import DominanceCriterion, get_criterion
from repro.core.batch import batch_dominates
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.queries.explain import ExplainedResult, explain_capture
from repro.queries.validation import validate_query
from repro.resilience.budget import current as current_budget
from repro.resilience.partial import PartialResult, ResilienceReport

if TYPE_CHECKING:
    from repro.stream.overlay import DeltaOverlay

__all__ = ["rnn_candidates"]


def rnn_candidates(
    dataset: "LinearIndex | Sequence[tuple[object, Hypersphere]]",
    query: Hypersphere,
    *,
    criterion: "DominanceCriterion | str" = "hyperbola",
    explain: bool = False,
    overlay: "DeltaOverlay | None" = None,
) -> "list | PartialResult | ExplainedResult":
    """Keys of objects that may have *query* as their nearest neighbour.

    An object ``Sb`` is pruned iff some other dataset object ``Sa``
    dominates the query with respect to ``Sb``.  Candidate generation
    uses a cheap vectorised MinMax pre-filter before falling back to the
    configured criterion, so the exact operator only runs on the
    undecided pairs.

    With the certified ``"verified"`` criterion a borderline pair is
    never mis-pruned: an UNCERTAIN decision collapses to its
    conservative fallback (``True`` only when a correct criterion
    proved the prune safe) and is tallied on the
    ``rnn.uncertain_decisions`` obs counter.

    Returns a plain list normally; a
    :class:`~repro.resilience.PartialResult` wrapping one when a
    :class:`~repro.resilience.Budget` is active in the current context;
    an :class:`~repro.queries.explain.ExplainedResult` wrapping either
    when ``explain=True`` (costs a single branch when off).

    With ``overlay`` (a :class:`repro.stream.overlay.DeltaOverlay` of
    streaming mutations) the candidate universe is the *effective*
    dataset — base entries minus tombstoned/re-inserted keys, plus the
    memtable — and both membership and refutation run over that merged
    set, so a tombstoned object can neither appear as a candidate nor
    refute one.
    """
    if overlay is not None and overlay:
        dataset = LinearIndex(overlay.fold(iter(dataset)))
        if obs.ENABLED:
            obs.incr(names.STREAM_MERGED_QUERIES)
    elif not isinstance(dataset, LinearIndex):
        dataset = LinearIndex(dataset)
    validate_query(query, dataset.dimension)
    if isinstance(criterion, str):
        criterion = get_criterion(criterion)
    event_log = obs_export.current_event_log()
    if explain:
        params = {"criterion": criterion.name, "n": len(dataset)}
        with explain_capture() as capture:
            outcome = _run_rnn(dataset, query, criterion)
            detail = capture.finish("rknn", params, outcome)
        if event_log is not None:
            event_log.emit_outcome("rknn", outcome, detail.duration_s)
        return ExplainedResult(outcome, detail)
    if event_log is None:
        return _run_rnn(dataset, query, criterion)
    started = time.perf_counter()
    outcome = _run_rnn(dataset, query, criterion)
    event_log.emit_outcome("rknn", outcome, time.perf_counter() - started)
    return outcome


def _run_rnn(
    dataset: LinearIndex,
    query: Hypersphere,
    criterion: DominanceCriterion,
) -> "list | PartialResult":
    """The validated query body (see :func:`rnn_candidates`)."""
    budget = current_budget()
    if budget is not None:
        budget.start()

    centers = dataset.centers
    radii = dataset.radii
    keys = dataset.keys
    spheres = dataset.spheres
    dimension = dataset.dimension
    # Duck-typed tally of certified-criterion abstentions (see knn.py).
    uncertain_before = int(getattr(criterion, "uncertain_count", 0))
    report = ResilienceReport()
    absorbed = 0
    survivors: list = []
    for b, (key, sphere_b) in enumerate(zip(keys, spheres)):
        if budget is not None and budget.charge_candidate() is not None:
            # Out of budget: an unexamined object cannot be refuted, so
            # it stays a candidate — the answer set only widens.
            report.mark_incomplete(budget.exhausted() or "deadline")
            survivors.extend(keys[b:])
            break
        # Vectorised MinMax pre-filter (correct, so pruning is safe):
        # Sa dominates Sq wrt Sb when MaxDist(Sa, Sb) < MinDist(Sq, Sb).
        gap_qb = float(np.linalg.norm(query.center - sphere_b.center))
        min_dist_q = max(gap_qb - query.radius - sphere_b.radius, 0.0)
        gaps = np.linalg.norm(centers - sphere_b.center, axis=1)
        max_dists = gaps + radii + sphere_b.radius
        max_dists[b] = np.inf  # an object never competes against itself
        if bool(np.any(max_dists < min_dist_q)):
            continue  # refuted already by the pre-filter
        # Exact pass over the plausible competitors only.  Dominance of Sq
        # wrt Sb needs MinDist(Sa, Sb) <= MaxDist(Sq, Sb) (a necessary
        # condition), so anything farther can be skipped safely.  One
        # guarded batch call decides the rest; when it declines, the
        # scalar loop does, stopping at the first refutation.
        plausible = np.flatnonzero(
            gaps - radii - sphere_b.radius
            <= gap_qb + query.radius + sphere_b.radius
        )
        plausible = plausible[plausible != b]
        n = int(plausible.size)
        verdicts = batch_dominates(
            criterion,
            centers[plausible],
            np.broadcast_to(query.center, (n, dimension)),
            np.broadcast_to(sphere_b.center, (n, dimension)),
            radii[plausible],
            np.full(n, query.radius),
            np.full(n, sphere_b.radius),
        )
        if verdicts is not None:
            refuted = bool(verdicts.any())
        else:
            refuted = False
            for a in plausible:
                try:
                    if criterion.dominates(spheres[a], query, sphere_b):
                        refuted = True
                        break
                except ArithmeticError:
                    # A broken kernel cannot prove a prune safe: keep the
                    # pair unrefuted and count the absorption.
                    absorbed += 1
        if not refuted:
            survivors.append(key)
    report.uncertain = (
        int(getattr(criterion, "uncertain_count", 0)) - uncertain_before
    )
    report.absorbed_faults = absorbed
    if obs.ENABLED:
        obs.incr(names.RNN_QUERIES)
        obs.incr(names.RNN_UNCERTAIN_DECISIONS, report.uncertain)
        if absorbed:
            obs.incr(names.RESILIENCE_ABSORBED_FAULTS, absorbed)
    if budget is None:
        return survivors
    if obs.ENABLED:
        if report.degraded:
            obs.incr(names.RESILIENCE_DEGRADED_QUERIES)
        if not report.complete:
            obs.incr(names.RESILIENCE_PARTIAL_QUERIES)
    return PartialResult(survivors, report)
