"""The traced run (``--trace 1``): per-layer metrics from spans recorded
in the benchmark's own files around calls into each layer.

Every traced run measures all three workloads, one stretch each of a
third of ``--seconds`` (the one named by ``--workload`` first), so it
always prints the full layer breakdown.  One fleet is set up once and
serves both serve stretches.  In each stretch traced and untraced ops
alternate; the difference between the two is the tracing overhead.
All times are scaled per op by the reference kernel, as in the
untraced runs.  Spans are written to ``out/spans-<workload>-<seed>.jsonl``
when the run ends.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from pathlib import Path
from typing import Dict, List

import engine
import fleet
import hostref
from common import (
    OUT_DIR,
    PAPER,
    Schedule,
    Spans,
    Tally,
    WARM_ROUND,
    body_digest,
    coverage,
    key,
    metric,
    now_ns,
    percentile,
    self_times,
)

STRETCHES = ("paper_engine", "serve_warm", "serve_mixed")

#: Share of the serve_mixed stretch spent on hits only, the baseline
#: for ``serve.hit_slowdown``.
HITS_ONLY_SHARE = 1 / 3

#: Miss payloads re-put into a separate store for ``store.put_ms``.
PUT_SAMPLES = 40


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _ms(ns: float, factor: float) -> float:
    return ns / 1e6 * factor


class Run:
    def __init__(self, goldens, workdir: Path, rng: random.Random) -> None:
        self.tally = Tally(goldens)
        self.workdir = workdir
        self.rng = rng
        self.metrics: Dict[str, Dict] = {}
        self.refs: List[float] = []
        self.spans: Dict[str, List[Dict]] = {}
        self.fleet = None
        self.caps = None

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = metric(value, unit)

    def factor(self, in_process: bool) -> float:
        """Scale factor for the next op: the kernel on this CPU for an
        op in this process, on every CPU for an HTTP op."""
        ref = hostref.ref_ms() if in_process else hostref.host_ref_ms()
        self.refs.append(ref)
        return hostref.scale(ref)

    # -- paper_engine ---------------------------------------------------
    def paper_engine(self, seconds: float) -> None:
        spans = Spans("p")
        scaled, _, ops = engine.measure(self.rng, seconds, self.tally, spans)
        self.refs += [hostref.NOMINAL_MS / f for _, f, _, _ in ops]
        factors = {op_id: f for _, f, traced, op_id in ops if traced}
        records = spans.records
        selfs = self_times(records)
        roots = [r for r in records if r["parent"] is None]
        n = len(roots)

        def layer(name: str) -> float:
            return sum(_ms(selfs[r["id"]], factors[r["op"]])
                       for r in records if r["name"] == name) / n

        self.put("api.session_init_ms", layer("api.session_init"), "ms")
        self.put("core.alternatives_ms", layer("core.alternatives"), "ms")
        self.put("api.synthesize_rest_ms", layer("api.synthesize"), "ms")
        self.put("api.emit_json_ms", layer("api.emit_json"), "ms")
        for phase in ("expand", "enumerate_cost", "filter"):
            self.put(f"core.{phase}_ms", _mean(
                r["phases"].get(phase, 0.0) * 1000.0 * factors[r["op"]]
                for r in roots), "ms")
        combinations = sum(r["combinations"] for r in roots)
        alternatives = sum(r["alternatives"] for r in roots)
        self.put("core.combinations_per_op", combinations / n, "count")
        self.put("core.alternatives_per_op", alternatives / n, "count")
        self.put("core.survivor_ratio", alternatives / combinations,
                 "ratio")
        self.put("api.body_bytes", _mean(r["body_bytes"] for r in roots),
                 "bytes")
        self.put("trace.coverage_paper_engine_pct", coverage(records), "%")
        # Paired per request: the traced and untraced rounds hold the
        # same requests, whose costs differ tenfold.
        by_request: Dict[str, tuple] = {}
        for latency, (request, _, is_traced, _) in zip(scaled, ops):
            by_request.setdefault(request, ([], []))[is_traced].append(
                latency)
        ratios = [statistics.median(t) / statistics.median(p)
                  for p, t in by_request.values() if p and t]
        self.put("trace.overhead_paper_engine_pct",
                 100.0 * (statistics.geometric_mean(ratios) - 1.0), "%")
        self.put("paper_engine.traced_ops", n, "count")
        self.spans["paper_engine"] = records

    # -- serve_warm -----------------------------------------------------
    def serve_warm(self, seconds: float) -> None:
        from repro.api import Session
        from repro.store import ResultStore

        port, worker_port = self.fleet.port, self.fleet.worker_port
        http_spans, store_spans = Spans("w"), Spans("s")
        store = ResultStore(self.fleet.store_path)
        sessions = {flt: Session("lsi_logic", perf_filter=flt, store=store)
                    for _, flt in PAPER}
        get = store.get
        parent = [None, None]

        def timed_get(fingerprint):
            start = now_ns()
            try:
                return get(fingerprint)
            finally:
                store_spans.add(parent[0], "store.get", parent[1], start,
                                now_ns())

        store.get = timed_get
        factors: Dict[str, float] = {}
        traced, plain, direct = [], [], []
        schedule = Schedule(WARM_ROUND, self.rng)
        before = fleet.get_metrics(worker_port)
        deadline = time.perf_counter() + seconds
        try:
            while True:
                spec, flt = next(schedule)
                # Through the router, traced: client-side spans.
                factor = self.factor(in_process=False)
                response = fleet.request(self.tally, port, spec, flt,
                                                fleet.HIT[:1])
                if response is not None:
                    op = f"w{len(traced)}"
                    factors[op] = factor
                    t0, t1, t2, t3 = response.marks
                    root = http_spans.add(op, "op", None, t0, t3,
                                          request=key(spec, flt))
                    http_spans.add(op, "http.connect", root, t0, t1)
                    http_spans.add(op, "http.ttfb", root, t1, t2)
                    http_spans.add(op, "http.body", root, t2, t3)
                    traced.append(response.ms * factor)
                # Through the router, untraced; then straight to the
                # worker, for the proxy's share.
                for target, sink in ((port, plain), (worker_port, direct)):
                    factor = self.factor(in_process=False)
                    response = fleet.request(self.tally, target, spec, flt,
                                                    fleet.HIT[:1])
                    if response is not None:
                        sink.append(response.ms * factor)
                # In process on the same store file: fingerprint, get,
                # and the store-hit synthesize around that get.
                factor = self.factor(in_process=True)
                op = f"s{len(factors)}"
                factors[op] = factor
                session = sessions[flt]
                t0 = now_ns()
                fingerprint = session.fingerprint(spec)
                t1 = now_ns()
                hit = store_spans.new_id()
                parent[:] = [op, hit]
                job = session.synthesize(spec, fingerprint=fingerprint)
                t2 = now_ns()
                root = store_spans.add(op, "store_probe", None, t0, t2)
                store_spans.add(op, "store.fingerprint", root, t0, t1)
                store_spans.add(op, "store.hit_synthesize", root, t1, t2,
                                span_id=hit)
                self.tally.record(
                    None if job.from_store and body_digest(job.emit("json"))
                    == self.tally.goldens[key(spec, flt)]
                    else "in-process store hit")
                if schedule.round_done() and time.perf_counter() >= deadline:
                    break
        finally:
            store.close()
        after = fleet.get_metrics(worker_port)
        op_factor = statistics.median(factors.values())

        def layer(records, name, use_self=False):
            selfs = self_times(records) if use_self else None
            values = [_ms(selfs[r["id"]] if use_self
                          else r["end_ns"] - r["start_ns"], factors[r["op"]])
                      for r in records if r["name"] == name]
            return _mean(values)

        http_records, store_records = http_spans.records, store_spans.records
        for name in ("http.connect", "http.ttfb", "http.body"):
            self.put(f"{name}_ms", layer(http_records, name), "ms")
        self.put("fleet.proxy_ms",
                 percentile(plain, 50) - percentile(direct, 50), "ms")
        hist_before = before["latency_histograms"]["/synthesize"]
        hist_after = after["latency_histograms"]["/synthesize"]
        count = sum(hist_after["counts"]) - sum(hist_before["counts"])
        self.put("serve.server_ms", 1000.0 * op_factor * (
            hist_after["sum_seconds"] - hist_before["sum_seconds"]) / count,
            "ms")
        self.put("store.fingerprint_ms",
                 layer(store_records, "store.fingerprint"), "ms")
        self.put("store.get_ms", layer(store_records, "store.get"), "ms")
        self.put("store.decode_ms",
                 layer(store_records, "store.hit_synthesize", use_self=True),
                 "ms")
        self.put("trace.coverage_serve_warm_pct", coverage(http_records),
                 "%")
        self.put("trace.overhead_serve_warm_pct", 100.0 * (
            percentile(traced, 50) / percentile(plain, 50) - 1.0), "%")
        self.put("serve_warm.traced_ops", len(traced), "count")
        self.spans["serve_warm"] = http_records + store_records

    # -- serve_mixed ----------------------------------------------------
    def serve_mixed(self, seconds: float) -> None:
        port = self.fleet.port
        spans = [Spans(f"m{i}x") for i in range(fleet.CLIENTS)]
        factors: Dict[str, float] = {}
        latencies: Dict[str, List] = {"only": [], "hit": [], "miss": [],
                                      "traced": [], "plain": []}
        misses: List = []
        phase = ["only"]
        counts = [0] * fleet.CLIENTS

        def observe(index, kind, spec, flt, cap, response, factor):
            # Every other op of each client is traced.
            scaled = response.ms * factor
            is_traced = counts[index] % 2 == 0
            counts[index] += 1
            self.refs.append(hostref.NOMINAL_MS / factor)
            latencies["only" if phase[0] == "only" else kind].append(scaled)
            if kind == "miss":
                misses.append((spec, flt, cap))
            else:
                latencies["traced" if is_traced else "plain"].append(scaled)
            if not is_traced:
                return
            recorder = spans[index]
            op = recorder.new_id()
            factors[op] = factor
            t0, t1, t2, t3 = response.marks
            root = recorder.add(op, "op", None, t0, t3, kind=kind,
                                request=key(spec, flt))
            recorder.add(op, "http.connect", root, t0, t1)
            recorder.add(op, "http.ttfb", root, t1, t2)
            recorder.add(op, "http.body", root, t2, t3)

        hits = HitsOnly(self.rng)
        fleet.mixed_loop(port, hits, seconds * HITS_ONLY_SHARE,
                         self.tally, observe)
        before = fleet.get_metrics(port)
        phase[0] = "mixed"
        schedule = fleet.MixedSchedule(self.rng, self.caps)
        results = fleet.mixed_loop(port, schedule,
                                   seconds * (1 - HITS_ONLY_SHARE),
                                   self.tally, observe)
        after = fleet.get_metrics(port)
        records = [r for recorder in spans for r in recorder.records]
        op_factor = statistics.median(factors.values())

        hit_p50 = percentile(latencies["hit"], 50)
        self.put("serve.hit_ms_p50", hit_p50, "ms")
        self.put("serve.miss_ms_p50", percentile(latencies["miss"], 50),
                 "ms")
        self.put("serve.hit_slowdown",
                 hit_p50 / percentile(latencies["only"], 50), "ratio")

        def delta(*path):
            a, b = before, after
            for part in path:
                a, b = a[part], b[part]
            return b - a

        hits_delta, misses_delta = delta("store_hits"), delta("store_misses")
        evaluations = delta("engine_evaluations")
        self.put("store.hit_ratio",
                 hits_delta / (hits_delta + misses_delta), "ratio")
        self.put("serve.requests", sum(len(c) for c in results), "count")
        self.put("serve.engine_evaluations", evaluations, "count")
        self.put("serve.coalesced", delta("coalesced"), "count")
        self.put("fleet.retries", delta("fleet", "retries"), "count")
        self.put("fleet.proxy_errors", delta("fleet", "proxy_errors_502"),
                 "count")
        phase_seconds = sum(
            after["engine_phase_seconds"].get(p, 0.0)
            - before["engine_phase_seconds"].get(p, 0.0)
            for p in after["engine_phase_seconds"])
        self.put("serve.engine_ms_per_miss",
                 1000.0 * op_factor * phase_seconds / evaluations, "ms")
        self._puts(misses[:PUT_SAMPLES])
        self.put("trace.coverage_serve_mixed_pct", coverage(records), "%")
        self.put("trace.overhead_serve_mixed_pct", 100.0 * (
            percentile(latencies["traced"], 50)
            / percentile(latencies["plain"], 50) - 1.0), "%")
        self.put("serve_mixed.traced_ops",
                 sum(1 for r in records if r["parent"] is None), "count")
        self.spans["serve_mixed"] = records

    def _puts(self, misses) -> None:
        """``ResultStore.put`` of miss payloads, read back from the
        fleet's store, into a separate store."""
        from repro.api import Session
        from repro.store import ResultStore

        source = ResultStore(self.fleet.store_path)
        target = ResultStore(self.workdir / "puts.sqlite")
        times, sizes = [], []
        try:
            for spec, flt, cap in misses:
                session = Session("lsi_logic", perf_filter=flt,
                                  max_combinations=cap)
                fingerprint = session.fingerprint(spec)
                payload = source.peek(fingerprint)
                if payload is None:
                    self.tally.record("miss not persisted")
                    continue
                factor = self.factor(in_process=True)
                start = now_ns()
                target.put(fingerprint, payload, label=key(spec, flt))
                times.append(_ms(now_ns() - start, factor))
                sizes.append(len(json.dumps(payload, sort_keys=True,
                                            separators=(",", ":"))))
        finally:
            source.close()
            target.close()
        self.put("store.put_ms", _mean(times), "ms")
        self.put("store.payload_bytes", _mean(sizes), "bytes")


class HitsOnly:
    """Rounds of warm hits only (``MixedSchedule``'s shape)."""

    def __init__(self, rng: random.Random) -> None:
        self.schedule = Schedule(WARM_ROUND, rng)

    def round(self):
        return [("hit", *next(self.schedule), None)
                for _ in range(fleet.ROUND_OPS)]


def run(workload: str, seed: int, seconds: float, goldens, workdir: Path):
    tracer = Run(goldens, workdir, random.Random(seed))
    engine.warm_up(tracer.tally)
    tracer.fleet, tracer.caps, _ = fleet.set_up(
        workdir, tracer.tally, prime=True, samples=1)
    try:
        order = [workload] + [w for w in STRETCHES if w != workload]
        for name in order:
            getattr(tracer, name)(seconds / len(order))
    finally:
        tracer.fleet.close()
    ref = statistics.median(tracer.refs)
    tracer.put("host.ref_ms", ref, "ms")
    tracer.put("host.scale", hostref.scale(ref), "ratio")
    path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w") as handle:
        for stretch, records in tracer.spans.items():
            for record in records:
                handle.write(json.dumps({"stretch": stretch, **record})
                             + "\n")
    audit = {"failures": tracer.tally.reasons, "spans": path.name}
    return tracer.metrics, audit, tracer.tally, True
