"""Generate ``goldens.json``: the digest of the normalized json body of
every request a workload can draw, verified once here.

    python3 e2ebench/make_goldens.py            # check the checked-in file
    python3 e2ebench/make_goldens.py --write    # regenerate it

Verification, before anything is written:

* each normalized body is identical across two fresh sessions;
* the bodies of requests that ``BENCH_report.json`` names agree with
  its ``results`` (alternative count, points, area/delay extremes,
  space statistics);
* the smallest and fastest alternatives of every combinational spec of
  16 bits or fewer simulate equal to the GENUS behaviour
  (``repro.sim.equivalence``);
* ``pareto`` results are mutually non-dominated and ``top_k:N``
  results hold exactly N alternatives;
* every miss spec gives the same body under the lowest and highest
  cap of :data:`common.MISS_CAPS` as under the engine default, and
  costs fewer combinations in total than the engine's default per-node
  cap, so no cap in the range binds.

A golden changes only when the engine's behaviour changes; a
regenerated file that differs from the checked-in one is a behaviour
change to explain, not to accept silently.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    GOLDENS_PATH,
    MISS_CAPS,
    MISS_SPECS,
    PAPER,
    ROOT,
    body_digest,
    key,
)

sys.path.insert(0, str(ROOT / "src"))

#: BENCH_report.json workloads that are plain requests of the universe.
BENCH_NAMES = {
    "adder16_pareto": ("adder:16", "pareto"),
    "adder32_pareto_ablation": ("adder:32", "pareto"),
    "adder32_tradeoff5": ("adder:32", "tradeoff:0.05"),
    "alu16_top4_ablation": ("alu:16", "top_k:4"),
    "alu64_cold": ("alu:64", "tradeoff:0.05"),
    "alu64_tradeoff5": ("alu:64", "tradeoff:0.05"),
    "counter8_pareto": ("counter:8", "pareto"),
}

#: Combinational specs simulated against their GENUS behaviour.
SIMULATED = {"adder:16", "alu:16"}


def synthesize(spec: str, flt: str, cap=None):
    from repro.api import Session

    session = Session("lsi_logic", perf_filter=flt, max_combinations=cap)
    job = session.synthesize(spec)
    return job, job.emit("json"), session.space.combinations_costed


def check_bench(name: str, body: str, expected: dict) -> None:
    payload = json.loads(body)
    points = [[alt["area"], alt["delay"]] for alt in payload["alternatives"]]
    got = {
        "alternatives": len(points),
        "area_min": min(a for a, _ in points),
        "area_max": max(a for a, _ in points),
        "delay_min": min(d for _, d in points),
        "delay_max": max(d for _, d in points),
        "points": points[:len(expected["points"])],
        "space": payload["space"],
    }
    for field, value in got.items():
        if value != expected[field]:
            raise SystemExit(f"{name}: {field} {value!r} != BENCH_report "
                             f"{expected[field]!r}")


def check_filter(spec: str, flt: str, body: str) -> None:
    points = [(alt["area"], alt["delay"])
              for alt in json.loads(body)["alternatives"]]
    if flt == "pareto":
        for a in points:
            for b in points:
                if b != a and b[0] <= a[0] and b[1] <= a[1]:
                    raise SystemExit(f"{spec} {flt}: {b} dominates {a}")
    if flt.startswith("top_k:") and len(points) != int(flt.split(":")[1]):
        raise SystemExit(f"{spec} {flt}: {len(points)} alternatives")


def check_simulation(job) -> None:
    from repro.sim import check_combinational

    for alt in {id(a): a for a in (job.smallest(), job.fastest())}.values():
        check_combinational(job.spec, alt.tree(), vectors=64).assert_ok()


def build() -> dict:
    bench = json.loads((ROOT / "BENCH_report.json").read_text())["results"]
    requests = {}
    default_cap = None
    for spec, flt in PAPER + MISS_SPECS:
        job, body, combinations = synthesize(spec, flt)
        default_cap = job.session.space.max_combinations
        _, again, _ = synthesize(spec, flt)
        if body_digest(again) != body_digest(body):
            raise SystemExit(f"{spec} {flt}: body differs across sessions")
        check_filter(spec, flt, body)
        if spec in SIMULATED:
            check_simulation(job)
        if (spec, flt) in MISS_SPECS:
            if combinations >= default_cap:
                raise SystemExit(f"{spec} {flt}: {combinations} "
                                 f"combinations reach the cap range")
            for cap in (MISS_CAPS[0], MISS_CAPS[-1]):
                if body_digest(synthesize(spec, flt, cap)[1]) != \
                        body_digest(body):
                    raise SystemExit(f"{spec} {flt}: cap {cap} changes "
                                     f"the body")
        requests[key(spec, flt)] = {
            "digest": body_digest(body),
            "alternatives": len(job.alternatives),
        }
        print(f"{key(spec, flt):28s} {len(job.alternatives):3d} alternatives"
              f"  {combinations:6d} combinations")
    for name, (spec, flt) in BENCH_NAMES.items():
        _, body, _ = synthesize(spec, flt)
        check_bench(name, body, bench[name])
    return {
        "schema": 1,
        "normalization": "json emitter body without runtime_seconds and "
                         "phases; keys sorted, compact separators; sha256",
        "requests": dict(sorted(requests.items())),
    }


def main(argv) -> int:
    goldens = build()
    if "--write" in argv:
        GOLDENS_PATH.write_text(json.dumps(goldens, indent=1) + "\n")
        print(f"wrote {GOLDENS_PATH.name}")
        return 0
    current = json.loads(GOLDENS_PATH.read_text())
    if current != goldens:
        print("goldens.json differs from a fresh generation",
              file=sys.stderr)
        return 1
    print("goldens.json matches")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
