"""``paper_engine``: the synthesis engine in process, one caller, closed
loop.

Each op is a fresh ``Session("lsi_logic", perf_filter=F)``, then
``synthesize(spec)``, then ``emit("json")``, with no result store and
no node store, over :data:`common.PAPER` in seeded balanced rounds.

Run as a script (``python3 engine.py --cold``) it is the set-up probe:
a fresh interpreter imports the program and synthesizes every paper
request once with cold process-wide caches, and prints the time.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostref  # noqa: E402
from common import (  # noqa: E402
    BENCH_DIR,
    PAPER,
    ROOT,
    Schedule,
    SETUP_SAMPLES,
    Spans,
    Tally,
    body_digest,
    closed_loop_throughput,
    key,
    now_ns,
    percentile,
)

SETUP_TIMEOUT = 120.0


def op(spec: str, flt: str) -> str:
    from repro.api import Session

    session = Session("lsi_logic", perf_filter=flt)
    job = session.synthesize(spec)
    return job.emit("json")


def traced_op(spec: str, flt: str, spans: Spans, op_id: str) -> str:
    """:func:`op` with a span around each layer call.  The design
    space's ``alternatives`` is wrapped on the instance, so the engine
    call inside ``synthesize`` is timed without touching the program."""
    from repro.api import Session

    root = spans.new_id()
    synth = spans.new_id()
    t0 = now_ns()
    session = Session("lsi_logic", perf_filter=flt)
    t1 = now_ns()
    spans.add(op_id, "api.session_init", root, t0, t1)
    space = session.space
    alternatives = space.alternatives

    def timed_alternatives(target):
        start = now_ns()
        try:
            return alternatives(target)
        finally:
            spans.add(op_id, "core.alternatives", synth, start, now_ns())

    space.alternatives = timed_alternatives
    t2 = now_ns()
    job = session.synthesize(spec)
    t3 = now_ns()
    spans.add(op_id, "api.synthesize", root, t2, t3, span_id=synth)
    body = job.emit("json")
    t4 = now_ns()
    spans.add(op_id, "api.emit_json", root, t3, t4)
    spans.add(op_id, "op", None, t0, t4, span_id=root,
              request=key(spec, flt), phases=job.phases,
              combinations=space.combinations_costed,
              alternatives=len(job.alternatives), body_bytes=len(body))
    return body


def cold_setup_samples(tally: Tally) -> List[float]:
    """Scaled seconds of :data:`SETUP_SAMPLES` cold set-ups, each in a
    fresh interpreter; their ops are checked against the goldens."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "engine.py"), "--cold"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT, check=True)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        for request_key, digest in report["digests"].items():
            tally.record(None if digest == tally.goldens.get(request_key)
                         else "golden mismatch")
        ref = sum(report["refs"]) / len(report["refs"])
        samples.append(report["seconds"] * hostref.scale(ref))
    return samples


def warm_up(tally: Tally) -> None:
    """Fill this process's caches, as the cold set-up did in its
    children, so that measured ops are warm-process ops."""
    for spec, flt in PAPER:
        tally.check(key(spec, flt), op(spec, flt))


def measure(rng: random.Random, seconds: float, tally: Tally,
            spans: Spans = None) -> Tuple[List[float], List[float], List]:
    """Closed loop over balanced rounds of :data:`PAPER` for
    ``seconds``, then to the end of the round in progress.

    Returns scaled latencies (ms), the raw latencies, and per-op
    ``(request_key, scale_factor, traced, op_id)``.  With ``spans``, every other
    round is traced (the untraced rounds give the tracing overhead)."""
    schedule = Schedule(PAPER, rng)
    scaled, raw, ops = [], [], []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        traced = spans is not None and rounds % 2 == 0
        spec, flt = next(schedule)
        factor = hostref.scale(hostref.ref_ms())
        op_id = f"p{len(ops)}"
        start = time.perf_counter()
        if traced:
            body = traced_op(spec, flt, spans, op_id)
        else:
            body = op(spec, flt)
        elapsed = (time.perf_counter() - start) * 1000.0
        tally.check(key(spec, flt), body)
        raw.append(elapsed)
        scaled.append(elapsed * factor)
        ops.append((key(spec, flt), factor, traced, op_id))
        if schedule.round_done():
            rounds += 1
            # A traced run ends after an untraced round, so it has both.
            if time.perf_counter() >= deadline and (
                    spans is None or rounds % 2 == 0):
                return scaled, raw, ops


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(seed: int, seconds: float, goldens: Dict[str, str]):
    """The untraced run: end-to-end metrics, raw values, tally."""
    tally = Tally(goldens)
    setups = cold_setup_samples(tally)
    warm_up(tally)
    scaled, raw, ops = measure(random.Random(seed), seconds, tally)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_ms_p50": percentile(scaled, 50),
        "latency_ms_p90": percentile(scaled, 90),
        "throughput_ops_s": closed_loop_throughput([scaled]),
        "peak_rss_mb": peak_rss_mb(),
    }
    raw_metrics = {
        "setup_s_samples_scaled": setups,
        "latency_ms_p50": percentile(raw, 50),
        "latency_ms_p90": percentile(raw, 90),
        "throughput_ops_s": closed_loop_throughput([raw]),
        "ops": len(raw),
        "failures": tally.reasons,
        "ref_ms_median": statistics.median(
            hostref.NOMINAL_MS / factor for _, factor, _, _ in ops),
    }
    return metrics, raw_metrics, tally


def _cold_main() -> None:
    refs = [hostref.ref_ms()]
    start = time.perf_counter()
    digests = {key(spec, flt): body_digest(op(spec, flt))
               for spec, flt in PAPER}
    seconds = time.perf_counter() - start
    refs.append(hostref.ref_ms())
    print(json.dumps({"seconds": seconds, "refs": refs,
                      "digests": digests}))


if __name__ == "__main__":
    if sys.argv[1:] != ["--cold"]:
        sys.exit("usage: engine.py --cold")
    _cold_main()
