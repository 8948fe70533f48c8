"""Shared pieces of the benchmark: the request universe, golden-output
digests, the span recorder and the summary statistics.

Nothing here imports the program; ``run.py`` puts the checkout's
``src`` on ``sys.path`` before any workload module does.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
GOLDENS_PATH = BENCH_DIR / "goldens.json"

# ---------------------------------------------------------------------------
# The request universe
# ---------------------------------------------------------------------------

#: The paper's components: Figure-3 ALUs at 16-64 bits under
#: tradeoff:0.05 plus ALU64 under pareto, adders under both filters,
#: the Figure-2 counter, the 64-bit comparator, and the top_k ablation.
#: ``paper_engine`` draws these in balanced rounds; the serve workloads
#: use them as the warm set.
PAPER: Tuple[Tuple[str, str], ...] = (
    ("alu:16", "tradeoff:0.05"),
    ("alu:32", "tradeoff:0.05"),
    ("alu:48", "tradeoff:0.05"),
    ("alu:64", "tradeoff:0.05"),
    ("alu:64", "pareto"),
    ("adder:16", "pareto"),
    ("adder:32", "pareto"),
    ("adder:64", "pareto"),
    ("adder:16", "tradeoff:0.05"),
    ("adder:32", "tradeoff:0.05"),
    ("adder:64", "tradeoff:0.05"),
    ("counter:8", "pareto"),
    ("comparator:64", "pareto"),
    ("alu:16", "top_k:4"),
)

#: The serve workloads' round of warm hits: the warm set with ALU64 under
#: pareto (Figure 3's design space, the largest body, about three times
#: the next-costliest hit) three times.  Its share, 3 in 16, puts p90
#: inside its mode instead of on the edge between it and the rest.
WARM_ROUND: Tuple[Tuple[str, str], ...] = PAPER + (("alu:64", "pareto"),) * 2

#: ``serve_mixed``'s first-time misses: paper components at widths the
#: warm set does not hold, each costlier than any warm hit, so the
#: latency mix has a hit mode and a miss mode.
MISS_SPECS: Tuple[Tuple[str, str], ...] = (
    ("alu:24", "tradeoff:0.05"),
    ("alu:40", "tradeoff:0.05"),
    ("alu:56", "tradeoff:0.05"),
    ("alu:32", "pareto"),
    ("comparator:32", "pareto"),
    ("comparator:48", "pareto"),
    ("adder:48", "pareto"),
    ("adder:48", "tradeoff:0.05"),
)

#: Every miss carries its own ``max_combinations`` from this range.
#: The serve session pool is keyed on it, so each miss runs in a fresh
#: design space and its cost cannot fall as the worker's session
#: accumulates subtrees; the store fingerprint includes it, so each is
#: a first-time miss.  Every cap is above the engine default (20000)
#: and above the total combinations any miss spec costs, so no cap
#: binds and every variant's body equals its spec's golden (checked
#: when the goldens are generated).
MISS_CAPS = range(20001, 21001)


#: Set-up is measured this many times per run (each a fresh interpreter,
#: or a fresh fleet and store); the median is reported.
SETUP_SAMPLES = 3


def key(spec: str, flt: str) -> str:
    return f"{spec}|{flt}"


def request_body(spec: str, flt: str, cap: Optional[int] = None) -> bytes:
    body = {"spec": spec, "filter": flt}
    if cap is not None:
        body["max_combinations"] = cap
    return json.dumps(body, sort_keys=True).encode("utf-8")


class Schedule:
    """A seeded, endless stream of requests in balanced rounds: each
    round is a fresh permutation of ``items``, so every stretch of whole
    rounds holds each item equally often."""

    def __init__(self, items: Sequence, rng) -> None:
        self.items = list(items)
        self.rng = rng
        self._round: List = []

    def __iter__(self) -> Iterator:
        return self

    def __next__(self):
        if not self._round:
            self._round = list(self.items)
            self.rng.shuffle(self._round)
        return self._round.pop()

    def round_done(self) -> bool:
        return not self._round


# ---------------------------------------------------------------------------
# Golden outputs
# ---------------------------------------------------------------------------

#: Fields of the json emitter body that are wall-clock timing, not
#: behaviour.  A store hit replays the producer's values, so they are
#: the only fields dropped before digesting.
TIMING_FIELDS = ("runtime_seconds", "phases")


def body_digest(body) -> str:
    """SHA-256 of a json emitter body with :data:`TIMING_FIELDS`
    dropped and keys sorted."""
    payload = json.loads(body)
    for field in TIMING_FIELDS:
        payload.pop(field, None)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_goldens() -> Dict[str, str]:
    """``key(spec, filter) -> digest`` for every request any workload
    can draw (a miss's cap does not change its golden)."""
    data = json.loads(GOLDENS_PATH.read_text())
    return {name: entry["digest"] for name, entry in data["requests"].items()}


class Tally:
    """Ops attempted and failed; ``reasons`` counts the failures by kind
    for the audit line.  Shared by client threads."""

    def __init__(self, goldens: Dict[str, str]) -> None:
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}
        self._lock = threading.Lock()

    def record(self, reason: Optional[str]) -> None:
        """Count one op, failed when ``reason`` is not None."""
        with self._lock:
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def check(self, request_key: str, body) -> bool:
        """Count one op whose output is ``body``, failed unless it
        matches its golden."""
        good = body_digest(body) == self.goldens.get(request_key)
        self.record(None if good else "golden mismatch")
        return good


# ---------------------------------------------------------------------------
# Spans (traced runs only)
# ---------------------------------------------------------------------------

class Spans:
    """Spans kept in memory and written out as JSONL when the run ends.

    A span is ``(op, id, parent, name, start_ns, end_ns)``; the spans of
    one op share ``op``.  One recorder per client thread."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.records: List[Dict] = []
        self._next = 0

    def new_id(self) -> str:
        self._next += 1
        return f"{self.prefix}{self._next}"

    def add(self, op: str, name: str, parent: Optional[str],
            start_ns: int, end_ns: int, span_id: Optional[str] = None,
            **attrs) -> str:
        span_id = span_id or self.new_id()
        self.records.append({"op": op, "id": span_id, "parent": parent,
                             "name": name, "start_ns": start_ns,
                             "end_ns": end_ns, **attrs})
        return span_id


def _union_ns(intervals: List[Tuple[int, int]]) -> int:
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(records: List[Dict]) -> Dict[str, float]:
    """Span id -> self time in ns: its duration minus the part of its
    interval that its child spans cover."""
    children: Dict[str, List[Tuple[int, int]]] = {}
    for rec in records:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(
                (rec["start_ns"], rec["end_ns"]))
    return {
        rec["id"]: (rec["end_ns"] - rec["start_ns"]
                    - _union_ns(children.get(rec["id"], [])))
        for rec in records
    }


def coverage(records: List[Dict]) -> float:
    """Share (%) of op wall time covered by the op's named layer spans
    (the direct children of each root span)."""
    children: Dict[str, List[Tuple[int, int]]] = {}
    roots = []
    for rec in records:
        if rec["parent"] is None:
            roots.append(rec)
        else:
            children.setdefault(rec["parent"], []).append(
                (rec["start_ns"], rec["end_ns"]))
    wall = sum(r["end_ns"] - r["start_ns"] for r in roots)
    covered = sum(_union_ns(children.get(r["id"], [])) for r in roots)
    return 100.0 * covered / wall


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (linear interpolation between the
    closest ranks)."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def closed_loop_throughput(latencies_by_client: Sequence[Sequence[float]]
                           ) -> float:
    """Ops per second of closed-loop clients with no think time: each
    client completes one op per (its mean latency); clients add up.
    Latencies in ms."""
    return sum(1000.0 * len(lat) / sum(lat)
               for lat in latencies_by_client if lat)


def now_ns() -> int:
    return time.perf_counter_ns()


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}
