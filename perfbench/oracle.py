"""Ground truth for every answer the server returns unflagged (HTTP 200).

- kNN: Definition 2, by ``repro.queries.knn.knn_reference`` over the
  exact dataset the server holds.  The default ``incremental``
  algorithm may return a subset; ``two-phase`` must return it exactly.
- RkNN and top-k-dominating: brute force over every ordered pair with
  the vectorised ``repro.core.batch`` Hyperbola kernel, computed before
  the measured phase starts.

A 206 carries a ResilienceReport saying the answer is partial; it is
counted as degraded, not checked.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import batch_evaluate
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.queries.knn import knn_reference


def index_of(entries: "dict[object, tuple]") -> LinearIndex:
    """A flat index over ``{key: (center, radius)}``."""
    return LinearIndex((key, Hypersphere(c, r)) for key, (c, r) in entries.items())


def _query(body: dict) -> Hypersphere:
    return Hypersphere(body["center"], body["radius"])


def knn_keys(index: LinearIndex, body: dict) -> set:
    return set(knn_reference(index, _query(body), body["k"]).keys)


def check_knn(answer: dict, body: dict, exact: set) -> "tuple[str | None, float]":
    """(error or None, recall) of one unflagged kNN answer."""
    keys = set(answer["keys"])
    if not keys <= exact:
        return f"kNN keys {sorted(keys - exact)} are not in the Definition-2 answer", 0.0
    if body.get("algorithm") == "two-phase" and keys != exact:
        return f"two-phase kNN missed {sorted(exact - keys)}", 0.0
    return None, len(keys) / len(exact)


def _pairs(n: int) -> "tuple[np.ndarray, np.ndarray]":
    a, b = np.nonzero(~np.eye(n, dtype=bool))
    return a, b


def rknn_keys(keys: list, centers: np.ndarray, radii: np.ndarray, body: dict) -> set:
    """Objects b that no other object a refutes: not Dom(Sa, Sq, Sb)."""
    n = len(keys)
    a, b = _pairs(n)
    rows = len(a)
    refuted = batch_evaluate(
        "hyperbola", centers[a], np.broadcast_to(body["center"], (rows, centers.shape[1])),
        centers[b], radii[a], np.full(rows, float(body["radius"])), radii[b])
    hit = np.zeros(n, dtype=bool)
    hit[b[refuted]] = True
    return {keys[i] for i in range(n) if not hit[i]}


def dominance_scores(keys: list, centers: np.ndarray, radii: np.ndarray,
                     body: dict) -> dict:
    """Key -> how many other objects it dominates with respect to Sq."""
    n = len(keys)
    a, b = _pairs(n)
    rows = len(a)
    dominated = batch_evaluate(
        "hyperbola", centers[a], centers[b],
        np.broadcast_to(body["center"], (rows, centers.shape[1])),
        radii[a], radii[b], np.full(rows, float(body["radius"])))
    scores = np.bincount(a[dominated], minlength=n)
    return {keys[i]: int(scores[i]) for i in range(n)}


def check_rknn(answer: list, exact: set) -> "str | None":
    if set(answer) != exact:
        return (f"RkNN extra {sorted(set(answer) - exact)} "
                f"missing {sorted(exact - set(answer))}")
    return None


def check_dominating(answer: list, body: dict, scores: dict) -> "str | None":
    """Each returned score is right and the scores are the k highest."""
    for entry in answer:
        if scores.get(entry["key"]) != entry["score"]:
            return f"key {entry['key']} scored {entry['score']}, oracle {scores.get(entry['key'])}"
    best = sorted(scores.values(), reverse=True)[: body["k"]]
    if sorted((entry["score"] for entry in answer), reverse=True) != best:
        return f"top-{body['k']} scores {[e['score'] for e in answer]}, oracle {best}"
    return None
