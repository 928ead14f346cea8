"""The server under test and the load generator that drives it.

The server is the real ``repro serve`` front end in its own process
group, started from the checkout's ``src``; readiness is ``/readyz``
answering 200.  The load generator is one asyncio process with no extra
threads that sends one request at a time: a second connection, or a
queue of requests waiting for one, would measure the scheduler of a
shared 2-CPU host rather than the server.  Every request is one
HTTP/1.1 exchange on a fresh connection, which is how ``repro serve``
speaks (it closes after each response).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

import numpy as np

from gen import Request

REQUEST_TIMEOUT_S = 30.0
PROBE_EVERY_S = 0.5  # host_probe between requests, at most this often
_LISTEN = re.compile(r" on ([0-9.]+):(\d+)")


@dataclass
class Result:
    """One request as the client saw it."""

    request: Request
    status: int = 0  # 0: no response (timeout, refused connection)
    payload: "dict | None" = None
    sent: float = 0.0  # absolute perf_counter instants
    received: float = 0.0
    response_bytes: int = 0
    rid: str = ""

    @property
    def latency_s(self) -> float:
        return self.received - self.sent

    @property
    def ok(self) -> bool:
        return self.status in (200, 206)


class Server:
    """One ``repro serve`` process tree, started and stopped by the bench."""

    def __init__(self, root: str, workdir: str, args: "list[str]",
                 env: "dict[str, str] | None" = None,
                 launcher: "list[str] | None" = None) -> None:
        self.log_path = os.path.join(workdir, "server.log")
        env = dict(os.environ if env is None else env)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (env.get("PYTHONPATH"), src) if p])
        command = [sys.executable, *(launcher or ["-m", "repro", "serve"]),
                   "--port", "0", *args]
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=self._log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            start_new_session=True)
        self.port = 0

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited early:\n{self.log()}")
            if not self.port:
                match = _LISTEN.search(self.log())
                if match:
                    self.port = int(match.group(2))
            if self.port and http_status(self.port, "/readyz") == 200:
                return
            time.sleep(0.005)
        raise RuntimeError(f"server not ready in {timeout_s} s:\n{self.log()}")

    def log(self) -> str:
        with open(self.log_path, "rb") as handle:
            return handle.read().decode("utf-8", "replace")

    def tree(self) -> "list[int]":
        """The server pid and every live descendant."""
        parents: "dict[int, int]" = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    with open(f"/proc/{entry}/stat") as handle:
                        fields = handle.read().rsplit(")", 1)[1].split()
                    parents[int(entry)] = int(fields[1])
                except (OSError, IndexError):
                    continue
        tree = [self.process.pid]
        for pid in tree:
            tree.extend(child for child, ppid in parents.items() if ppid == pid)
        return tree

    def cpu_s(self) -> float:
        """User+system CPU seconds of the live process tree."""
        total = 0
        for pid in self.tree():
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
                total += int(fields[11]) + int(fields[12])
            except (OSError, IndexError):
                continue
        return total / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """Sum of each process's peak resident set (VmHWM), MiB."""
        total_kb = 0
        for pid in self.tree():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self, timeout_s: float = 20.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL what is left of the group."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                pass
        # A graceful exit has already reaped the workers; anything left
        # in the group (a hung server, an orphaned worker) is killed.
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        deadline = time.monotonic() + 5.0
        try:
            while time.monotonic() < deadline:
                os.killpg(self.process.pid, 0)
                time.sleep(0.02)
        except ProcessLookupError:
            pass
        self._log.close()


def http_status(port: int, path: str) -> int:
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                    timeout=5) as response:
            return response.status
    except urllib.error.HTTPError as error:
        return error.code
    except OSError:
        return 0


async def _exchange(port: int, request: Request, body: bytes,
                    rid: str) -> "tuple[int, bytes]":
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    extra = f"X-Request-Id: {rid}\r\n" if rid else ""
    try:
        writer.write(
            (f"POST {request.path} HTTP/1.1\r\nHost: 127.0.0.1\r\n{extra}"
             f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
             "Connection: close\r\n\r\n").encode() + body)
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head, _, payload = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


async def send(port: int, request: Request, result: Result) -> None:
    body = dict(request.body)
    if result.rid and request.path == "/query":
        # The pool forwards only the body to its workers; /query ignores
        # unknown fields (/mutate rejects them, so it gets the header only).
        body["rid"] = result.rid
    encoded = json.dumps(body).encode()
    result.sent = time.perf_counter()
    try:
        status, payload = await asyncio.wait_for(
            _exchange(port, request, encoded, result.rid), REQUEST_TIMEOUT_S)
        result.status = status
        result.response_bytes = len(payload)
        result.payload = json.loads(payload)
    except (OSError, asyncio.TimeoutError, ValueError, IndexError):
        result.status = 0
    result.received = time.perf_counter()


@dataclass
class Phase:
    """The outcome of one measured phase."""

    results: "list[Result]" = field(default_factory=list)
    wall_s: float = 0.0
    #: :func:`host_probe` times taken between requests.
    probes_s: "list[float]" = field(default_factory=list)


def host_probe() -> float:
    """Seconds a fixed loop takes: the host's speed right now.

    The loop calls NumPy on tiny arrays from the interpreter, which is
    the kind of work the server's query path does.  It is the
    benchmark's own code, so no change to the program moves it, while a
    shared host that slows down slows it about as much as the server.
    """
    started = time.perf_counter()
    total, vector, matrix = 0.0, np.arange(4.0), np.eye(4)
    stores: "dict[int, float]" = {}
    for i in range(1500):
        scaled = vector * 1.5 + i
        total += float(np.sqrt(scaled @ scaled))
        stores[i & 255] = total
        matrix[0, 0] = total % 7.0
    np.linalg.eigvals(matrix)
    return time.perf_counter() - started


async def paced_loop(port: int, requests: "list[Request]", seconds: float,
                     rate: "float | None" = None, rid_prefix: str = "") -> Phase:
    """Send *requests* in order for *seconds*, one at a time.

    A request leaves when the previous answer is back and, with a
    *rate*, no sooner than ``1 / rate`` after the previous send, which
    keeps the load under the server's admission rate limit.  Latency is
    send to answer.  Between two requests, every ``PROBE_EVERY_S``, the
    generator times :func:`host_probe` while the server is idle.  The
    phase ends early if the requests run out.
    """
    phase = Phase()
    gap = 1.0 / rate if rate else 0.0
    start = next_send = time.perf_counter()
    probed = -math.inf
    for i, request in enumerate(requests):
        if time.perf_counter() - probed >= PROBE_EVERY_S:
            phase.probes_s.append(host_probe())
            probed = time.perf_counter()
        delay = next_send - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if time.perf_counter() - start >= seconds:
            break
        result = Result(request, rid=f"{rid_prefix}{i}" if rid_prefix else "")
        await send(port, request, result)
        phase.results.append(result)
        next_send = result.sent + gap
    phase.wall_s = time.perf_counter() - start
    return phase


async def sequential(port: int, requests: "list[Request]",
                     rid_prefix: str = "") -> "list[Result]":
    """Send *requests* one after another (warm-up and replay passes)."""
    results = []
    for i, request in enumerate(requests):
        result = Result(request, rid=f"{rid_prefix}{i}" if rid_prefix else "")
        await send(port, request, result)
        results.append(result)
    return results
