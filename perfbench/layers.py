"""Per-layer metrics of a traced phase, from the tracer's files.

Each server process (the single-process server, or the supervisor and
its workers) leaves one ``trace-<pid>.json`` (see
``tracer/tracing.py``).  This module joins them with what the client
saw, by request id, for the requests of one phase (their ids share a
letter prefix).

Times are reported as a total in seconds plus a per-call median;
counts of the program's own obs registry are deltas over the phase,
summed over processes; boot-time counts (snapshot pages, replayed WAL
records) are the registry's values at exit.
"""

from __future__ import annotations

import glob
import json
import statistics

LAYERS = ("serve", "queries", "core", "geometry", "robust", "index", "stream")
#: Calls into each layer that a request waits on (children of ``handle``).
EXEC_SPANS = ("queries.", "stream.mutate", "stream.query_knn")
#: The four work counters that must repeat exactly for the same request.
REPEAT_COUNTERS = ("core.hyperbola", "knn.dominance_checks",
                   "index.node_accesses", "batch.hyperbola.rows")


def load(directory: str) -> "list[dict]":
    docs = []
    for path in sorted(glob.glob(f"{directory}/trace-*.json")):
        with open(path) as handle:
            docs.append(json.load(handle))
    return docs


def _phase(rid: str) -> str:
    return rid.rstrip("0123456789")


def _obs_delta(docs: "list[dict]", phase: str) -> "dict[str, float]":
    """Counter deltas and histogram sums over *phase*, all processes."""
    out: "dict[str, float]" = {}
    for doc in docs:
        marks = doc["obs_marks"]
        if phase not in marks:
            continue
        order = list(marks)
        later = order[order.index(phase) + 1:]
        end = marks[later[0]] if later else doc["obs_end"]
        start = marks[phase]
        for name, value in end["counters"].items():
            out[name] = out.get(name, 0) + value - start["counters"].get(name, 0)
        for name, snap in end["histograms"].items():
            before = start["histograms"].get(name, {"sum": 0.0, "count": 0})
            out[name + ".sum"] = out.get(name + ".sum", 0) + snap["sum"] - before["sum"]
            out[name + ".count"] = (out.get(name + ".count", 0)
                                    + snap["count"] - before["count"])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(docs: "list[dict]", results: list, phase: str, *, build_s: float,
            cpu_s: float) -> "dict[str, tuple[float, str]]":
    """name -> (value, unit) for every per-layer metric of *phase*."""
    spans = [s for doc in docs for s in ([doc["pid"]] + span for span in doc["spans"])]
    by_rid: "dict[str, list]" = {}
    for span in spans:
        by_rid.setdefault(span[2], []).append(span)
    out: "dict[str, tuple[float, str]]" = {}

    def timed(name: str, durations: "list[float]") -> None:
        out[name + "_s"] = (sum(durations), "s")
        out[name + "_ms_p50"] = (
            1e3 * statistics.median(durations) if durations else 0.0, "ms")

    transport, handle_self, exec_wait, dispatch, busy = [], [], [], [], 0.0
    serve_self = 0.0
    for result in results:
        mine = by_rid.get(result.rid, [])
        handles = sorted((s for s in mine if s[1] == "serve.handle"), key=lambda s: s[3])
        if not handles:
            continue
        outer = handles[0]
        work = [s for s in mine if s[1].startswith(EXEC_SPANS)]
        inner = next((h for h in handles if work and h[0] == work[0][0]), handles[-1])
        busy += outer[4] - outer[3]
        transport.append((result.received - result.sent) - (outer[4] - outer[3]))
        handle_self.append(inner[5])
        serve_self += inner[5]
        if outer is not inner:
            dispatch.append((outer[4] - outer[3]) - (inner[4] - inner[3]))
            serve_self += dispatch[-1]
        starts = [s[3] for s in work if s[0] == inner[0]]
        if starts:
            exec_wait.append(min(starts) - inner[3])
    timed("serve.transport", transport)
    timed("serve.handle_self", handle_self)
    timed("serve.exec_wait", exec_wait)
    timed("serve.dispatch", dispatch)
    out["serve.response_bytes"] = (float(sum(r.response_bytes for r in results)), "bytes")

    obs = _obs_delta(docs, phase)
    for name in ("serve.retries", "serve.responses.degraded", "serve.responses.shed",
                 "serve.admission.rate_limited"):
        out[name] = (obs.get(name, 0), "count")

    in_phase = [s for s in spans if _phase(s[2]) == phase]

    def durations(name: str) -> "list[float]":
        return [s[4] - s[3] for s in in_phase if s[1] == name]

    def self_times(name: str) -> "list[float]":
        return [s[5] for s in in_phase if s[1] == name]

    for kind in ("knn", "rknn", "dominating"):
        timed(f"queries.{kind}", durations(f"queries.{kind}"))
    counts: "dict[str, float]" = {}
    for doc in docs:
        for rid, tallies in doc["per_rid"].items():
            if _phase(rid) == phase:
                for name, value in tallies.items():
                    counts[name] = counts.get(name, 0) + value
    knn_calls = len(durations("queries.knn"))
    for name in ("knn.dominance_checks", "knn.entries_considered", "knn.pruned_case3"):
        out[name] = (counts.get(name, 0), "count")
    out["knn.answer_size"] = (_ratio(counts.get("knn.answer_size", 0), knn_calls), "count")
    out["knn.prune_ratio"] = (_ratio(counts.get("knn.pruned_case3", 0),
                                     counts.get("knn.entries_considered", 0)), "ratio")

    hot_sum: "dict[str, dict[str, float]]" = {}
    for doc in docs:
        for name, entry in doc["hot"].items():
            agg = hot_sum.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0,
                                            "median_s": []})
            if phase in entry:
                for key in ("count", "total_s", "self_s"):
                    agg[key] += entry[phase][key]
                agg["median_s"].append(entry[phase]["median_s"])

    def hot_timed(metric: str, name: str) -> None:
        agg = hot_sum.get(name, {"total_s": 0.0, "median_s": []})
        out[metric + "_s"] = (agg["total_s"], "s")
        # A per-call median per process; with several workers, their median.
        out[metric + "_us_p50"] = (1e6 * statistics.median(agg["median_s"])
                                   if agg["median_s"] else 0.0, "us")

    hot_timed("core.hyperbola", "core.hyperbola")
    calls = obs.get("hyperbola.calls", 0)
    for name in ("hyperbola.calls", "hyperbola.quartic", "hyperbola.fast_path.overlap",
                 "hyperbola.fast_path.center_outside"):
        out[name] = (obs.get(name, 0), "count")
    out["hyperbola.fast_path_ratio"] = (_ratio(
        obs.get("hyperbola.fast_path.overlap", 0)
        + obs.get("hyperbola.fast_path.center_outside", 0), calls), "ratio")
    hot_timed("core.batch", "core.batch")
    out["batch.calls"] = (obs.get("batch.calls", 0), "count")
    out["batch.hyperbola.rows"] = (obs.get("batch.hyperbola.rows", 0), "count")
    out["batch.rows_per_call"] = (_ratio(obs.get("batch.workload_rows.sum", 0),
                                         obs.get("batch.calls", 0)), "ratio")

    hot_timed("geometry.quartic", "geometry.quartic")
    for name in ("quartic.companion_solves", "quartic.closed_form_solves",
                 "quartic.batch_solves"):
        out[name] = (obs.get(name, 0), "count")
    out["robust.decide_calls"] = (hot_sum.get("robust.decide", {}).get("count", 0), "count")
    out["knn.uncertain_decisions"] = (obs.get("knn.uncertain_decisions", 0), "count")
    for name in ("resilience.deadline_exceeded", "resilience.partial_queries",
                 "resilience.absorbed_faults"):
        out[name] = (obs.get(name, 0), "count")

    out["index.node_accesses"] = (obs.get("index.node_accesses", 0), "count")
    out["index.entries_scanned"] = (obs.get("index.entries_scanned", 0), "count")
    out["index.build_s"] = (build_s, "s")
    boot = [s for s in spans if not s[2]]
    out["index.snapshot_load_s"] = (sum(s[4] - s[3] for s in boot
                                        if s[1] == "index.snapshot_load"), "s")
    at_exit = {}
    for doc in docs:
        for name, value in doc["obs_end"]["counters"].items():
            at_exit[name] = at_exit.get(name, 0) + value
    out["snapshot.pages_read"] = (at_exit.get("snapshot.pages_read", 0), "count")

    timed("stream.mutate", durations("stream.mutate"))
    timed("stream.wal_append", durations("stream.wal_append"))
    out["wal.fsyncs"] = (obs.get("wal.fsyncs", 0), "count")
    out["wal.bytes_per_mutation"] = (_ratio(obs.get("wal.record_bytes.sum", 0),
                                            obs.get("wal.record_bytes.count", 0)), "bytes")
    out["stream.merge_s"] = (sum(self_times("stream.query_knn")), "s")
    sizes = [size for doc in docs for size in doc["overlay_sizes"].get(phase, [])]
    out["stream.overlay_size"] = (statistics.mean(sizes) if sizes else 0.0, "count")
    out["stream.overlay_size_max"] = (float(max(sizes, default=0)), "count")
    out["stream.open_s"] = (sum(s[4] - s[3] for s in boot if s[1] == "stream.open"), "s")
    out["wal.replayed_records"] = (at_exit.get("wal.replayed_records", 0), "count")

    completed = sum(1 for r in results if r.ok)
    out["server.cpu_s"] = (cpu_s, "s")
    out["server.cpu_per_request"] = (_ratio(cpu_s, completed), "s")

    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_self["serve"] = serve_self
    for span in in_phase:
        layer = span[1].split(".")[0]
        if layer != "serve":
            layer_self[layer] += span[5]
    for name, agg in hot_sum.items():
        layer_self[name.split(".")[0]] += agg["self_s"]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
    out["server.busy_s"] = (busy, "s")
    # Shares of what the client waited (send to answer, summed).
    waited = sum(r.received - r.sent for r in results)
    out["share.kernel"] = (_ratio(layer_self["core"] + layer_self["geometry"], waited),
                           "ratio")
    out["share.serve"] = (_ratio(layer_self["serve"] + sum(transport), waited), "ratio")
    return out


def repeat_drift(docs: "list[dict]", pairs: "list[tuple[str, str, bool]]") -> "list[str]":
    """Requests whose work counters differ between two passes.

    *pairs* holds (first rid, replay rid, both answered 200); requests
    degraded in either pass did different work by design and are skipped.
    """
    tallies: "dict[str, dict[str, float]]" = {}
    for doc in docs:
        for rid, counts in doc["per_rid"].items():
            mine = tallies.setdefault(rid, {})
            for name, value in counts.items():
                mine[name] = mine.get(name, 0) + value
    drift = []
    for first, again, comparable in pairs:
        if not comparable:
            continue
        a = {n: tallies.get(first, {}).get(n, 0) for n in REPEAT_COUNTERS}
        b = {n: tallies.get(again, {}).get(n, 0) for n in REPEAT_COUNTERS}
        if a != b:
            drift.append(f"{first}: {a} vs {again}: {b}")
    return drift
