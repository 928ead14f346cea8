"""The repository's benchmark: the served query path, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload knn-heavy --seed 1 --seconds 30 --trace 0

It builds the workload's index from seeded inputs through the public
API, boots the real ``repro serve`` process, drives it over TCP from
this one process, checks every unflagged answer against an oracle, and
prints a human-readable report followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced (spans around
each layer's public functions, see ``tracer/``) and reports the
per-layer metrics.  Exit status: 0 on a correct run, 1 on a wrong
unflagged answer, 2 when the checkout has no program to run.  See
``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import net  # noqa: E402

WORKLOADS = {
    "knn-heavy": dict(n=400, k=10, datasets=8, warmup=8),
    "mixed-pool": dict(n=40, k=3, rate=40.0, datasets=4, warmup=12),
    "stream-rw": dict(n=300, preload=100, k=5, mutate_rate=16.0, query_rate=4.0,
                      delete_every=4, datasets=4, warmup=4),
}
#: Requests per second at most, below the 50/s `standard` tenant limit.
PACE = {"mixed-pool": 40.0, "stream-rw": 20.0}
SETUPS = 5  # set-ups per untraced run; setup_s is their median
#: net.host_probe seconds at the host speed gmean_norm_ms is scaled to.
REFERENCE_PROBE_S = 0.008
REPEAT_REQUESTS = 30  # requests replayed to check counter repeatability


def quantile(values: "list[float]", q: float) -> float:
    """Nearest-rank quantile (failed requests enter as +inf)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


class Workload:
    """Inputs, set-up and answer checking for one named workload."""

    def __init__(self, name: str, seed: int, seconds: float, workdir: str) -> None:
        self.name, self.seconds, self.workdir = name, seconds, workdir
        factory = {"knn-heavy": gen.knn_heavy, "mixed-pool": gen.mixed_pool,
                   "stream-rw": gen.stream_rw}[name]
        self.inputs = factory(seed, seconds, **WORKLOADS[name])
        #: Stream name -> (seq, mutation) of each mutation written before boot.
        self.preload_acks: "dict[str, list[tuple[int, dict]]]" = {}
        self.build_s = 0.0
        bodies = [r.body for r in self.inputs.requests]
        spheres = {(tuple(b["center"]), b["radius"]) for b in bodies if "center" in b}
        if len(spheres) != sum(1 for b in bodies if "center" in b):
            raise RuntimeError("a request sphere repeats within the run")

    def entries(self, index: str) -> dict:
        """``{key: (center, radius)}`` of one generated dataset."""
        centers, radii = self.inputs.datasets[index]
        return {k: (centers[k], float(radii[k])) for k in range(len(radii))}

    def items(self, index: str):
        from repro.geometry.hypersphere import Hypersphere

        return [(k, Hypersphere(c, r)) for k, (c, r) in self.entries(index).items()]

    def setup(self, tag: str, env: "dict | None" = None,
              launcher: "list[str] | None" = None) -> "tuple[net.Server, float]":
        """Build, persist and boot; returns the ready server and seconds taken."""
        from repro.index import snapshot
        from repro.index.sstree import SSTree
        from repro.stream.engine import StreamingIndex

        directory = self.directory = os.path.join(self.workdir, tag)
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        items = {name: self.items(name) for name in self.inputs.datasets}
        started = time.perf_counter()
        args, self.build_s = [], 0.0
        if self.name == "stream-rw":
            from repro.geometry.hypersphere import Hypersphere

            for name, dataset in items.items():
                stream_dir = os.path.join(directory, name)
                built = time.perf_counter()
                stream = StreamingIndex.create(stream_dir, dataset, kind="sstree")
                self.build_s += time.perf_counter() - built
                acks = self.preload_acks[name] = []
                with stream:
                    for m in self.inputs.preload:
                        if m["index"] != name:
                            continue
                        if m["op"] == "insert":
                            seq = stream.insert(m["key"], Hypersphere(m["center"], m["radius"]))
                        else:
                            seq = stream.delete(m["key"])
                        acks.append((seq, m))
                args += ["--stream", f"{name}={stream_dir}"]
        else:
            for name, dataset in items.items():
                built = time.perf_counter()
                tree = SSTree.bulk_load(dataset)
                self.build_s += time.perf_counter() - built
                path = os.path.join(directory, f"{name}.snap")
                snapshot.save(tree, path)
                args += ["--snapshot", f"{name}={path}"]
            if self.name == "mixed-pool":
                args = ["--workers", "2"] + args
        server = net.Server(ROOT, directory, args, env=env, launcher=launcher)
        try:
            server.wait_ready()
        except BaseException:
            server.stop()
            raise
        return server, time.perf_counter() - started

    async def drive(self, server: net.Server, rid: str = "") -> net.Phase:
        prefix = "w" if rid else ""
        await net.sequential(server.port, self.inputs.warmup, prefix)
        return await net.paced_loop(server.port, self.inputs.requests, self.seconds,
                                    PACE.get(self.name), rid)

    # ------------------------------------------------------------------
    # Correctness
    # ------------------------------------------------------------------
    def oracles(self) -> dict:
        """RkNN / dominating ground truth per request, before any timing."""
        import oracle

        truth = {}
        for i, request in enumerate(self.inputs.requests):
            kind = request.body.get("kind")
            if kind not in ("rknn", "dominating"):
                continue
            c, r = self.inputs.datasets[request.body["index"]]
            keys = list(range(len(r)))
            if kind == "rknn":
                truth[i] = oracle.rknn_keys(keys, c, r, request.body)
            else:
                truth[i] = oracle.dominance_scores(keys, c, r, request.body)
        return truth

    def check(self, results: "list[net.Result]", truth: dict) -> "tuple[list, list]":
        """(errors, kNN recalls) over every unflagged answer of a phase."""
        import oracle

        errors, recalls = [], []
        indexes = {} if self.name == "stream-rw" else {
            name: oracle.index_of(self.entries(name)) for name in self.inputs.datasets}
        position = {id(r): i for i, r in enumerate(self.inputs.requests)}
        for result in results:
            if result.status == 206 and not (result.payload or {}).get("report"):
                errors.append(f"206 without a ResilienceReport: {result.payload}")
            if result.status != 200:
                continue
            body, answer = result.request.body, result.payload.get("result")
            kind = body.get("kind")
            if result.request.path == "/mutate":
                if not result.payload.get("acked"):
                    errors.append(f"200 without an ack: {result.payload}")
                continue
            if kind == "knn" and indexes:
                error, recall = oracle.check_knn(
                    answer, body, oracle.knn_keys(indexes[body["index"]], body))
            elif kind == "knn":
                error, recall = self._check_stream_knn(result, results, answer)
            elif kind == "rknn":
                error, recall = oracle.check_rknn(answer, truth[position[id(result.request)]]), None
            else:
                error, recall = oracle.check_dominating(
                    answer, body, truth[position[id(result.request)]]), None
            if error:
                errors.append(f"{kind} {body}: {error}")
            elif recall is not None:
                recalls.append(recall)
        return errors, recalls

    def _check_stream_knn(self, query: net.Result, results: "list[net.Result]",
                          answer: dict) -> "tuple[str | None, float]":
        """Check against every state the query may have seen.

        Mutations of a stream apply in its seq order, so the query saw
        every mutation of its stream up to some seq: at least all acked
        before it was sent, at most all sent before its answer arrived.
        The best-matching state counts.
        """
        import oracle

        index = query.request.body["index"]
        acked = sorted((r.payload["seq"], r) for r in results
                       if r.request.path == "/mutate" and r.status == 200
                       and r.request.body["index"] == index)
        low = max((s for s, r in acked if r.received < query.sent), default=0)
        high = max((s for s, r in acked if r.sent < query.received), default=0)
        state = self.entries(index)
        for _, m in self.preload_acks[index]:
            apply_mutation(state, m)
        for seq, r in acked:
            if seq <= low:
                apply_mutation(state, r.request.body)
        best: "tuple[str | None, float]" = (
            f"no state between seq {low} and {max(low, high)} contains the answer", 0.0)
        pending = [r for seq, r in acked if low < seq <= high]
        for step in range(len(pending) + 1):
            if step:
                apply_mutation(state, pending[step - 1].request.body)
            body = query.request.body
            error, recall = oracle.check_knn(
                answer, body, oracle.knn_keys(oracle.index_of(state), body))
            if error is None and (best[0] is not None or recall > best[1]):
                best = (None, recall)
        return best

    def check_reopen(self, results: "list[net.Result]") -> "list[str]":
        """Reopening each stream replays exactly its acked mutations."""
        from repro.stream.engine import StreamingIndex

        errors = []
        for index, preloaded in self.preload_acks.items():
            with StreamingIndex.open(os.path.join(self.directory, index)) as stream:
                replayed = {m.seq: (m.op, m.key) for m in stream.wal.replayed}
            expected = {seq: (m["op"], m["key"]) for seq, m in preloaded}
            unknown = set()
            for r in results:
                if r.request.path != "/mutate" or r.request.body["index"] != index:
                    continue
                if r.status == 200:
                    expected[r.payload["seq"]] = (r.request.body["op"],
                                                  r.request.body["key"])
                elif r.status == 0:
                    unknown.add(r.request.body["key"])  # outcome never seen: either way
            extra = {s: v for s, v in replayed.items()
                     if s not in expected and v[1] not in unknown}
            missing = {s: v for s, v in expected.items() if replayed.get(s) != v}
            if extra or missing:
                errors.append(f"reopen of {index} replayed extra {extra} "
                              f"and missed {missing}")
        return errors


def apply_mutation(state: dict, body: dict) -> None:
    if body["op"] == "insert":
        state[body["key"]] = (body["center"], body["radius"])
    else:
        state.pop(body["key"], None)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def summarize(phase: net.Phase, recalls: list) -> "dict[str, tuple[float, str, int]]":
    """Every end-to-end figure of a phase: name -> (value, unit, samples)."""
    results = phase.results
    attempted = len(results)

    def latencies(select) -> "list[float]":
        return [r.latency_s if r.ok else math.inf for r in results if select(r)]

    def ms(values: "list[float]", q: float) -> float:
        value = quantile(values, q)
        return 1000.0 * (value if math.isfinite(value) else net.REQUEST_TIMEOUT_S)

    out: "dict[str, tuple[float, str, int]]" = {}
    every = latencies(lambda r: True)
    out["p50_ms"] = (ms(every, 0.5), "ms", len(every))
    out["p90_ms"] = (ms(every, 0.9), "ms", len(every))
    queries = latencies(lambda r: r.request.path == "/query")
    timed = [v if math.isfinite(v) else net.REQUEST_TIMEOUT_S for v in queries]
    gmean_ms = 1000.0 * statistics.geometric_mean(timed)
    probe_s = statistics.median(phase.probes_s)
    out["gmean_ms"] = (gmean_ms, "ms", len(timed))
    out["host_probe_ms"] = (1000.0 * probe_s, "ms", len(phase.probes_s))
    out["gmean_norm_ms"] = (gmean_ms * REFERENCE_PROBE_S / probe_s, "ms", len(timed))
    finite = [v for v in every if math.isfinite(v)]
    out["mean_ms"] = (1000.0 * statistics.mean(finite) if finite else 0.0, "ms", len(finite))
    completed = sum(1 for r in results if r.ok)
    out["throughput_rps"] = (completed / phase.wall_s, "1/s", completed)
    out["knn_recall"] = (statistics.mean(recalls) if recalls else 0.0, "ratio", len(recalls))
    ok = sum(1 for r in results if r.status == 200)
    out["ok_share"] = (ok / attempted, "ratio", attempted)
    degraded = sum(1 for r in results if r.status == 206)
    out["degraded_share"] = (degraded / attempted, "ratio", attempted)
    out["error_share"] = ((attempted - ok - degraded) / attempted, "ratio", attempted)
    for kind in ("knn", "rknn", "dominating"):
        values = latencies(lambda r, k=kind: r.request.body.get("kind") == k)
        if values:
            out[f"{kind}_p50_ms"] = (ms(values, 0.5), "ms", len(values))
    knn = latencies(lambda r: r.request.body.get("kind") == "knn")
    out["knn_p90_ms"] = (ms(knn, 0.9), "ms", len(knn))
    out["query_p95_ms"] = (ms(queries, 0.95), "ms", len(queries))
    mutations = latencies(lambda r: r.request.path == "/mutate")
    if mutations:
        out["mutate_p50_ms"] = (ms(mutations, 0.5), "ms", len(mutations))
        out["mutate_p95_ms"] = (ms(mutations, 0.95), "ms", len(mutations))
    return out


def measure(workload: Workload, server: net.Server, truth: dict,
            rid: str = "") -> "tuple[net.Phase, list, list, float]":
    """Drive one phase; returns (phase, errors, recalls, server CPU s)."""
    cpu_before = server.cpu_s()
    phase = asyncio.run(workload.drive(server, rid))
    cpu_s = server.cpu_s() - cpu_before
    errors, recalls = workload.check(phase.results, truth)
    return phase, errors, recalls, cpu_s


def run_untraced(workload: Workload, truth: dict,
                 setups_per_run: int = SETUPS) -> "tuple[dict, list, net.Phase]":
    setups, server = [], None
    try:
        for i in range(setups_per_run):
            if server is not None:
                server.stop()
            server, seconds = workload.setup(f"setup{i}")
            setups.append(seconds)
        phase, errors, recalls, _ = measure(workload, server, truth)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    if workload.name == "stream-rw":
        errors += workload.check_reopen(phase.results)
    figures = summarize(phase, recalls)
    figures["setup_s"] = (statistics.median(setups), "s", len(setups))
    figures["server_rss_mb"] = (rss, "MiB", 1)
    return figures, errors, phase


def run_traced(workload: Workload, truth: dict) -> "tuple[dict, list, net.Phase]":
    import layers

    reference, errors, _ = run_untraced(workload, truth, setups_per_run=1)
    trace_dir = os.path.join(workload.workdir, "trace")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    tracer = os.path.join(HERE, "tracer")
    env = dict(os.environ, PERFBENCH_TRACE_DIR=trace_dir,
               PYTHONPATH=os.pathsep.join(
                   [tracer] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    server, _ = workload.setup("traced", env=env,
                               launcher=[os.path.join(tracer, "launch.py")])
    replay = []
    try:
        phase, more, recalls, cpu_s = measure(workload, server, truth, rid="t")
        errors += more
        if workload.name != "stream-rw":
            # Counter repeatability: the same requests, once more.
            first = phase.results[:REPEAT_REQUESTS]
            replay = asyncio.run(net.sequential(
                server.port, [r.request for r in first], "p"))
            errors += workload.check(replay, truth)[0]
    finally:
        server.stop()
    if workload.name == "stream-rw":
        errors += workload.check_reopen(phase.results)
    docs = layers.load(trace_dir)
    figures = {name: (value, unit, len(phase.results)) for name, (value, unit) in
               layers.metrics(docs, phase.results, "t", build_s=workload.build_s,
                              cpu_s=cpu_s).items()}
    traced = summarize(phase, recalls)
    figures["trace.overhead_p50_ms"] = (
        traced["p50_ms"][0] - reference["p50_ms"][0], "ms", traced["p50_ms"][2])
    pairs = [(a.rid, b.rid, a.status == 200 and b.status == 200)
             for a, b in zip(phase.results, replay)]
    drift = layers.repeat_drift(docs, pairs)
    figures["counters.repeat_checked"] = (float(sum(c for *_, c in pairs)), "count", len(pairs))
    figures["counters.repeat_drift"] = (float(len(drift)), "count", len(pairs))
    for line in drift:
        print(f"COUNTER DRIFT {line}")
    return figures, errors, phase


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "serve", "cli.py")):
        print(f"perfbench: no program to run: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy

    workdir = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = Workload(args.workload, args.seed, args.seconds, workdir)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} inputs={workload.inputs.digest()}")
    print(f"env nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__} git={git_sha()}")
    truth = workload.oracles()
    runner = run_traced if args.trace else run_untraced
    figures, errors, phase = runner(workload, truth)
    for name, (value, unit, samples) in sorted(figures.items()):
        print(f"  {name:34s} {value:14.6f} {unit:6s} n={samples}")
    for error in errors[:20]:
        print(f"WRONG {error}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    correct = not errors
    attempted = len(phase.results)
    failed = sum(1 for r in phase.results if not r.ok)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": figures[name][0], "unit": figures[name][1]}
                    for name in wanted}}))
    shutil.rmtree(workdir, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
