"""Same-run speed gate: the engine against the seed oracle.

Times a fresh ``Session(...).synthesize(spec)`` against the same
request through ``reference_session(...)`` -- the seed evaluation
algorithm kept as the oracle in ``tests/test_engine_parity.py`` (a plain
cross product and a fresh ``port_delay_matrix`` graph per combination)
-- in one process, interleaved, best of :data:`REPEATS` each after one
warm-up run.  Absolute times move with the host; the ratio of two
timings taken side by side does not move much, so the gate bounds the
ratio: it fails when the engine takes more than :data:`BOUND` of the
oracle's time on any paper workload.

Usage::

    PYTHONPATH=src python scripts/engine_ratio_gate.py

Exits 1 when a ratio exceeds the bound.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))

from repro.api import Session  # noqa: E402
from test_engine_parity import reference_session  # noqa: E402

#: (spec, filter): the paper's adder, counter and Figure-3 ALU.
WORKLOADS = (
    ("adder:16", "pareto"),
    ("counter:8", "pareto"),
    ("alu:64", "tradeoff:0.05"),
)

#: Timed runs per side and workload; the best one counts.
REPEATS = 5

#: Highest engine/oracle time ratio that passes.  The former numpy
#: block path measured 0.80 / 0.63 / 0.46 on the workloads above
#: (2-CPU container), so the gate fails it; the per-row kernel
#: measured 0.31 / 0.30 / 0.16.
BOUND = 0.6


def _seconds(make_session, spec: str, flt: str) -> float:
    session = make_session(library="lsi_logic", perf_filter=flt)
    start = time.perf_counter()
    session.synthesize(spec)
    return time.perf_counter() - start


def main() -> int:
    failed = False
    print(f"{'workload':28s} {'engine':>10s} {'oracle':>10s} {'ratio':>7s}")
    for spec, flt in WORKLOADS:
        engine = oracle = float("inf")
        for repeat in range(REPEATS + 1):
            engine_s = _seconds(Session, spec, flt)
            oracle_s = _seconds(reference_session, spec, flt)
            if repeat:  # the first pass warms the process-wide caches
                engine, oracle = min(engine, engine_s), min(oracle, oracle_s)
        ratio = engine / oracle
        verdict = "ok" if ratio <= BOUND else "FAIL"
        failed = failed or ratio > BOUND
        print(f"{spec + ' ' + flt:28s} {engine * 1e3:8.1f}ms {oracle * 1e3:8.1f}ms"
              f" {ratio:7.2f} {verdict}")
    print(f"bound: engine/oracle <= {BOUND}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
