"""The repository's benchmark: one command per workload.

    python3 e2ebench/run.py --workload paper_engine --seed 1 --seconds 30 \
        --trace 0

Workloads (see NOTES.md for why each exists and what it should move):

* ``paper_engine``: the engine in process, one caller, closed loop.
* ``serve_warm``: warm store hits over HTTP through a 1-worker fleet.
* ``serve_mixed``: two clients, hits beside first-time misses.

With ``--trace 0`` the last stdout line is the result JSON with every
end-to-end metric; with ``--trace 1`` it carries every per-layer
metric, and the spans are written as JSONL under ``e2ebench/out/``.
Every time metric is scaled to a nominal host speed (``hostref.py``);
the raw values are printed on the line before the result.  Every op is
checked against ``goldens.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT_DIR, ROOT, load_goldens, metric  # noqa: E402

WORKLOADS = ("paper_engine", "serve_warm", "serve_mixed")

UNITS = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "throughput_ops_s": "1/s",
    "peak_rss_mb": "MB",
}


def _import_program() -> None:
    """Import the program from this checkout's ``src``, never from an
    installed copy; exits 2 when the checkout holds no program."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        sys.exit(f"run.py: cannot import the program from {src}: {error}")
    if Path(repro.__file__).resolve().parents[1] != src.resolve():
        sys.exit(f"run.py: imported repro from {repro.__file__}, "
                 f"not from {src}")


def _on_sigterm(signum, frame):
    # Unwinds through every ``finally``, which stops the fleets.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _on_sigterm)
    _import_program()
    goldens = load_goldens()

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        if args.trace:
            import traced

            metrics, audit, tally, consistent = traced.run(
                args.workload, args.seed, args.seconds, goldens, workdir)
        else:
            metrics, audit, tally, consistent = _untraced(
                args.workload, args.seed, args.seconds, goldens, workdir)
            metrics = {name: metric(value, UNITS[name])
                       for name, value in metrics.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"audit": audit}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0 and consistent,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def _untraced(workload, seed, seconds, goldens, workdir):
    if workload == "paper_engine":
        import engine

        metrics, raw, tally = engine.run(seed, seconds, goldens)
        return metrics, raw, tally, True
    import fleet

    return fleet.run(workload, seed, seconds, goldens, workdir)


if __name__ == "__main__":
    sys.exit(main())
