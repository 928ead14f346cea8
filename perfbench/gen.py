"""Seeded inputs for every workload, generated here and nowhere else.

The spheres follow the paper's G-G synthetic distribution (Section 7):
centre coordinates ~ N(100, 25), radii ~ N(10, 2.5) clipped at 0.  The
generator is the benchmark's own, so a change to ``repro.data`` cannot
change a workload; the same seed always yields the same bytes, and
:func:`digest` fingerprints them for the run report.

Open-loop arrivals are a Poisson process conditioned on its count:
``rate * seconds`` arrival times drawn as sorted uniforms over the run.
The gaps stay exponential-like (bursts included) while the offered load
is exactly the nominal rate, which keeps ``throughput_rps`` comparable
across seeds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

CENTER_MEAN, CENTER_STD = 100.0, 25.0
RADIUS_MEAN, RADIUS_STD = 10.0, 2.5
DIMENSION = 3


def spheres(rng: np.random.Generator, n: int) -> "tuple[np.ndarray, np.ndarray]":
    """*n* G-G spheres as (centers (n, d), radii (n,))."""
    centers = rng.normal(CENTER_MEAN, CENTER_STD, (n, DIMENSION))
    radii = np.clip(rng.normal(RADIUS_MEAN, RADIUS_STD, n), 0.0, None)
    return centers, radii


@dataclass
class Request:
    """One request of a phase."""

    path: str
    body: dict


@dataclass
class Inputs:
    """Everything one run sends: the indexed data and the request lists."""

    #: Index name -> (centers (n, d), radii (n,)); keys are ``0..n-1``.
    datasets: "dict[str, tuple[np.ndarray, np.ndarray]]"
    #: Mutations written through the public API before boot (stream-rw).
    preload: "list[dict]" = field(default_factory=list)
    warmup: "list[Request]" = field(default_factory=list)
    requests: "list[Request]" = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        for name, (centers, radii) in self.datasets.items():
            h.update(name.encode())
            h.update(centers.tobytes())
            h.update(radii.tobytes())
        for request in self.preload:
            h.update(repr(sorted(request.items())).encode())
        for request in self.warmup + self.requests:
            h.update(request.path.encode())
            h.update(repr(sorted(request.body.items())).encode())
        return h.hexdigest()[:16]


def _query(kind: str, center: np.ndarray, radius: float, k: int, index: str) -> dict:
    body = {"kind": kind, "index": index,
            "center": [float(c) for c in center], "radius": float(radius)}
    if kind != "rknn":
        body["k"] = k
    return body


def _knn_queries(rng: np.random.Generator, count: int, k: int,
                 indexes: "tuple[str, ...]") -> "list[Request]":
    """*count* kNN queries, taking turns over *indexes*."""
    centers, radii = spheres(rng, count)
    return [Request("/query", _query("knn", centers[i], radii[i], k,
                                     indexes[i % len(indexes)]))
            for i in range(count)]


def knn_heavy(seed: int, seconds: float, *, n: int, k: int, datasets: int,
              warmup: int) -> Inputs:
    """kNN queries taking turns over *datasets* indexes of *n* spheres each.

    The cost of a kNN query moves with the dataset as much as with the
    query, so one run averages over several datasets.
    """
    rng = np.random.default_rng([seed, 1])
    data = {f"g{i}": spheres(rng, n) for i in range(datasets)}
    # A kNN request takes >= 10 ms here, so 100/s bounds what one
    # connection can consume.
    pool = _knn_queries(rng, warmup + int(100 * seconds) + 50, k, tuple(data))
    return Inputs(data, warmup=pool[:warmup], requests=pool[warmup:])


def mixed_pool(seed: int, seconds: float, *, n: int, k: int, rate: float,
               datasets: int, warmup: int) -> Inputs:
    """kNN / RkNN / top-k-dominating thirds in random order, sent at *rate*.

    Requests take turns over *datasets* indexes of *n* spheres each.
    """
    rng = np.random.default_rng([seed, 2])
    data = {f"g{i}": spheres(rng, n) for i in range(datasets)}
    names = list(data)
    count = int(rate * seconds) + 1
    kinds = ["knn", "rknn", "dominating"] * (count // 3 + 1)
    kinds = [str(kind) for kind in rng.permutation(kinds[:count])]
    qc, qr = spheres(rng, warmup + count)
    warm = [Request("/query", _query(["knn", "rknn", "dominating"][i % 3],
                                     qc[i], qr[i], k, names[i % len(names)]))
            for i in range(warmup)]
    requests = [Request("/query", _query(kind, qc[warmup + i], qr[warmup + i], k,
                                         names[i % len(names)]))
                for i, kind in enumerate(kinds)]
    return Inputs(data, warmup=warm, requests=requests)


def stream_rw(seed: int, seconds: float, *, n: int, preload: int, k: int,
              mutate_rate: float, query_rate: float, delete_every: int,
              datasets: int, warmup: int) -> Inputs:
    """/mutate and kNN /query in random order, in the ratio of their rates.

    Mutations and queries take turns over *datasets* streams whose base
    keys are ``0..n-1``; inserts use fresh keys and every
    *delete_every*-th mutation of a stream is a delete.  Deletes only
    target keys that existed before the phase (base or preload
    inserts), so no mutation depends on another one of the phase.
    """
    rng = np.random.default_rng([seed, 3])
    data = {f"s{i}": spheres(rng, n) for i in range(datasets)}
    names = list(data)
    live = {name: list(range(n)) for name in names}
    next_key = n

    def mutations(count: int) -> "list[dict]":
        nonlocal next_key
        out = []
        mc, mr = spheres(rng, count)
        for i in range(count):
            name = names[i % len(names)]
            if (i // len(names) + 1) % delete_every == 0:
                key = live[name].pop(int(rng.integers(len(live[name]))))
                out.append({"op": "delete", "key": key, "index": name})
            else:
                out.append({"op": "insert", "key": next_key,
                            "center": [float(c) for c in mc[i]],
                            "radius": float(mr[i]), "index": name})
                next_key += 1
        return out

    loaded = mutations(preload)
    for m in loaded:
        if m["op"] == "insert":
            live[m["index"]].append(m["key"])
    warm = _knn_queries(rng, warmup, k, tuple(names))
    writes = [Request("/mutate", body)
              for body in mutations(int(mutate_rate * seconds) + 1)]
    reads = _knn_queries(rng, int(query_rate * seconds) + 1, k, tuple(names))
    order = rng.permutation([0] * len(writes) + [1] * len(reads))
    streams = [iter(writes), iter(reads)]
    requests = [next(streams[which]) for which in order]
    return Inputs(data, preload=loaded, warmup=warm, requests=requests)
