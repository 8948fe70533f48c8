"""The serve workloads: HTTP through ``repro fleet --workers 1`` (router
plus one worker) over a result store that set-up filled.

* ``serve_warm``: one client, closed loop, every request a store hit on
  the warm set (:data:`common.PAPER`) in seeded balanced rounds.
* ``serve_mixed``: two clients, closed loop; a quarter of the requests
  are first-time misses (:data:`common.MISS_SPECS`, each with a fresh
  cap from :data:`common.MISS_CAPS`), the rest warm hits.

The fleet runs with ``--store`` in a directory of its own per set-up
and ``--no-node-store`` (a warmed node store corrupts later results;
see NOTES.md).  The benchmark starts the fleet as the leader of a new
process group and kills the whole group on every exit path.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostref
from common import (
    MISS_CAPS,
    MISS_SPECS,
    PAPER,
    ROOT,
    SETUP_SAMPLES,
    WARM_ROUND,
    Schedule,
    Tally,
    closed_loop_throughput,
    key,
    now_ns,
    percentile,
    request_body,
)

READY = re.compile(r"repro fleet: listening on http://([\d.]+):(\d+) "
                   r"with 1 worker\(s\) \(worker ports: (\d+);")
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0
HTTP_TIMEOUT = 60.0

#: ``serve_mixed`` rounds: this many requests, every ``MISS_EVERY``-th
#: a first-time miss.
ROUND_OPS = 16
MISS_EVERY = 4
CLIENTS = 2


# ---------------------------------------------------------------------------
# The fleet's process group
# ---------------------------------------------------------------------------

def _group_members(pgid: int) -> List[Tuple[int, str]]:
    """``(pid, state)`` of every process in group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid:
            members.append((int(entry), fields[0]))
    return members


class Fleet:
    """One ``repro fleet --workers 1`` process group."""

    def __init__(self, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        self.store_path = workdir / "store.sqlite"
        self.log_path = workdir / "fleet.log"
        self._log = open(self.log_path, "wb")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "--workers", "1",
             "--port", "0", "--store", str(self.store_path),
             "--no-node-store"],
            cwd=ROOT, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, start_new_session=True)
        try:
            self.port, self.worker_port = self._wait_ready()
        except BaseException:
            self.close()
            raise

    def _wait_ready(self) -> Tuple[int, int]:
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            match = READY.search(
                self.log_path.read_text(errors="replace"))
            if match:
                return int(match.group(2)), int(match.group(3))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError("fleet did not become ready:\n"
                           + self.log_path.read_text(errors="replace"))

    def peak_rss_mb(self) -> float:
        """Router plus worker ``VmHWM``."""
        total_kb = 0
        for pid, _ in _group_members(self.proc.pid):
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def close(self) -> None:
        """SIGTERM the group, then SIGKILL what is left, and wait until
        no live member remains."""
        pgid = self.proc.pid
        for sig, grace in ((signal.SIGTERM, STOP_TIMEOUT),
                           (signal.SIGKILL, STOP_TIMEOUT)):
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                break
            deadline = time.monotonic() + grace
            while time.monotonic() < deadline:
                self.proc.poll()
                if not [pid for pid, state in _group_members(pgid)
                        if state != "Z"]:
                    break
                time.sleep(0.02)
            else:
                continue
            break
        self.proc.wait()
        self._log.close()


# ---------------------------------------------------------------------------
# HTTP client: a fresh connection per request, as the router opens one
# per proxied request.
# ---------------------------------------------------------------------------

class Response:
    def __init__(self, status: int, headers: Dict[str, str], body: bytes,
                 marks: Tuple[int, int, int, int]) -> None:
        self.status = status
        self.headers = headers
        self.body = body
        #: ns stamps: start, connected, first byte, last byte.
        self.marks = marks

    @property
    def ms(self) -> float:
        return (self.marks[3] - self.marks[0]) / 1e6


def http(port: int, method: str, path: str, body: bytes = b"") -> Response:
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode("ascii")
    t0 = now_ns()
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=HTTP_TIMEOUT) as sock:
        t1 = now_ns()
        sock.sendall(head + body)
        data = sock.recv(65536)
        t2 = now_ns()
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed in the head")
            data += chunk
        head_bytes, _, rest = data.partition(b"\r\n\r\n")
        lines = head_bytes.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "-1"))
        while length < 0 or len(rest) < length:
            chunk = sock.recv(65536)
            if not chunk:
                break
            rest += chunk
        t3 = now_ns()
    return Response(status, headers, rest, (t0, t1, t2, t3))


def get_metrics(port: int) -> Dict:
    return json.loads(http(port, "GET", "/metrics").body)


def request(tally: Tally, port: int, spec: str, flt: str, sources,
            cap: Optional[int] = None) -> Optional[Response]:
    """POST one request and count it in ``tally``; ``sources`` are the
    ``X-Repro-Source`` values the op may be answered with.  The op fails
    on a transport error, a non-200 status, another source (a warm key
    answered by ``engine``), or a body that does not match its golden;
    a failed op returns None."""
    try:
        response = http(port, "POST", "/synthesize",
                        request_body(spec, flt, cap))
    except OSError as error:
        tally.record(type(error).__name__)
        return None
    if response.status != 200:
        tally.record(f"status {response.status}")
    elif response.headers.get("x-repro-source") not in sources:
        tally.record(f"source {response.headers.get('x-repro-source')}")
    elif tally.check(key(spec, flt), response.body):
        return response
    return None


#: Accepted sources.  Two clients can ask for one warm key at once, and
#: the server then answers the second from the first's in-flight probe.
HIT = ("store", "coalesced")
MISS = ("engine",)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def fill(fleet: Fleet, tally: Tally, caps, prime: bool) -> None:
    """Fill the store with the warm set through the router; with
    ``prime``, also evaluate each miss spec once, so the worker's
    process-wide caches are warm before the first measured miss."""
    for spec, flt in PAPER:
        request(tally, fleet.port, spec, flt, MISS)
    if prime:
        for spec, flt in MISS_SPECS:
            request(tally, fleet.port, spec, flt, MISS, next(caps))


def set_up(workdir: Path, tally: Tally, prime: bool,
           samples: int = SETUP_SAMPLES):
    """Spawn-and-fill ``samples`` times; returns the last
    fleet (left running), its cap iterator, and the scaled set-up
    seconds of every sample."""
    seconds = []
    fleet = caps = None
    for index in range(samples):
        if fleet is not None:
            fleet.close()
        caps = iter(MISS_CAPS)
        ref0 = hostref.host_ref_ms()
        start = time.perf_counter()
        fleet = Fleet(workdir / f"fleet{index}")
        try:
            fill(fleet, tally, caps, prime)
        except BaseException:
            fleet.close()
            raise
        elapsed = time.perf_counter() - start
        ref = (ref0 + hostref.host_ref_ms()) / 2
        seconds.append(elapsed * hostref.scale(ref))
    return fleet, caps, seconds


# ---------------------------------------------------------------------------
# Measurement loops
# ---------------------------------------------------------------------------

class MixedSchedule:
    """``serve_mixed``'s request stream: rounds in which every
    :data:`MISS_EVERY`-th request is a first-time miss and the rest are
    warm hits.  Which hit and which miss is seeded: each comes from its
    own balanced rounds, and every miss takes the next unused cap.  The
    fixed positions keep the overlap of misses with hits, which sets
    the hit latencies, from varying with the seed."""

    def __init__(self, rng: random.Random, caps) -> None:
        self.hits = Schedule(WARM_ROUND, rng)
        self.misses = Schedule(MISS_SPECS, rng)
        self.caps = caps

    def round(self) -> List[Tuple[str, str, str, Optional[int]]]:
        """``[(kind, spec, filter, cap)]``, consumed from the end;
        raises StopIteration when the caps run out."""
        return [("miss", *next(self.misses), next(self.caps))
                if index % MISS_EVERY == 0 else ("hit", *next(self.hits), None)
                for index in range(ROUND_OPS)]


def warm_loop(port: int, rng: random.Random, seconds: float,
              tally: Tally) -> List[Tuple[float, float]]:
    """One client, closed loop over balanced rounds of warm hits, for
    ``seconds`` and then to the end of the round in progress.  Returns
    ``[(scaled_ms, raw_ms)]``."""
    schedule = Schedule(WARM_ROUND, rng)
    samples = []
    deadline = time.perf_counter() + seconds
    while True:
        spec, flt = next(schedule)
        factor = hostref.scale(hostref.host_ref_ms())
        response = request(tally, port, spec, flt, HIT[:1])
        if response is not None:
            samples.append((response.ms * factor, response.ms))
        if schedule.round_done() and time.perf_counter() >= deadline:
            return samples


def mixed_loop(port: int, schedule, seconds: float, tally: Tally,
               observe=None) -> List[List[Tuple[str, float, float]]]:
    """:data:`CLIENTS` client threads working through ``schedule``'s
    rounds (see :class:`MixedSchedule`) for ``seconds``, then to the end
    of the round in progress.

    The kernel runs between rounds while no request is in flight: run
    beside a client thread it would hold the GIL while that thread's
    reply waits, and add to its latency.  Each op is scaled by the
    mean of the readings before and after its round.  Returns per
    client ``[(kind, scaled_ms, raw_ms)]``; ``observe(index, kind,
    spec, flt, cap, response, factor)`` sees every good response."""
    results: List[List] = [[] for _ in range(CLIENTS)]
    deadline = time.perf_counter() + seconds
    ref = hostref.host_ref_ms()

    def client(queue: List, lock: threading.Lock) -> List:
        done = []
        while True:
            with lock:
                if not queue:
                    return done
                kind, spec, flt, cap = queue.pop()
            response = request(tally, port, spec, flt,
                               HIT if kind == "hit" else MISS, cap)
            if response is not None:
                done.append((kind, spec, flt, cap, response))

    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        while time.perf_counter() < deadline:
            try:
                queue = schedule.round()
            except StopIteration:
                break
            lock = threading.Lock()
            futures = [pool.submit(client, queue, lock)
                       for _ in range(CLIENTS)]
            done = [future.result() for future in futures]
            after = hostref.host_ref_ms()
            factor = hostref.scale((ref + after) / 2)
            ref = after
            for index, ops in enumerate(done):
                for kind, spec, flt, cap, response in ops:
                    results[index].append(
                        (kind, response.ms * factor, response.ms))
                    if observe is not None:
                        observe(index, kind, spec, flt, cap, response,
                                factor)
    return results


# ---------------------------------------------------------------------------
# The untraced runs
# ---------------------------------------------------------------------------

def _summary(scaled_by_client, raw_by_client, setups, fleet: Fleet):
    scaled = [v for client in scaled_by_client for v in client]
    raw = [v for client in raw_by_client for v in client]
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_ms_p50": percentile(scaled, 50),
        "latency_ms_p90": percentile(scaled, 90),
        "throughput_ops_s": closed_loop_throughput(scaled_by_client),
        "peak_rss_mb": fleet.peak_rss_mb(),
    }
    raw_metrics = {
        "setup_s_samples_scaled": setups,
        "latency_ms_p50": percentile(raw, 50),
        "latency_ms_p90": percentile(raw, 90),
        "throughput_ops_s": closed_loop_throughput(raw_by_client),
        "ops": len(raw),
        "ref_ms_median": statistics.median(
            hostref.NOMINAL_MS * r / s for s, r in zip(scaled, raw)),
    }
    return metrics, raw_metrics


def run(workload: str, seed: int, seconds: float, goldens, workdir: Path):
    """The untraced run of ``serve_warm`` or ``serve_mixed``."""
    tally = Tally(goldens)
    mixed = workload == "serve_mixed"
    fleet, caps, setups = set_up(workdir, tally, prime=mixed)
    try:
        before = get_metrics(fleet.port)
        rng = random.Random(seed)
        if mixed:
            per_client = mixed_loop(fleet.port, MixedSchedule(rng, caps),
                                    seconds, tally)
            misses = sum(1 for client in per_client
                         for kind, _, _ in client if kind == "miss")
        else:
            per_client = [[("hit", s, r) for s, r in
                           warm_loop(fleet.port, rng, seconds, tally)]]
            misses = 0
        after = get_metrics(fleet.port)
        metrics, raw = _summary(
            [[s for _, s, _ in client] for client in per_client],
            [[r for _, _, r in client] for client in per_client],
            setups, fleet)
    finally:
        fleet.close()
    # Every miss ran the engine exactly once and no hit did.
    evaluations = after["engine_evaluations"] - before["engine_evaluations"]
    consistent = evaluations == misses
    raw["engine_evaluations"] = evaluations
    raw["failures"] = tally.reasons
    return metrics, raw, tally, consistent
