"""The engine hands the GIL to other threads at decomposition-node
boundaries, and runs without numpy.

A serve worker runs a store miss's synthesis beside the store hits of
other clients.  Each decomposition node therefore starts with
``time.sleep(0)`` when other threads are alive, so a waiting hit gets
the GIL at the next node instead of after the interpreter's switch
interval; a single-threaded caller never pays for the yield.
"""

import os
import subprocess
import sys
import textwrap
import threading

from repro.api import Session
from repro.core import design_space


def _run_fresh(source: str) -> subprocess.CompletedProcess:
    """Run ``source`` in a fresh interpreter (one thread, nothing
    imported yet) with this process's import path."""
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ,
                 PYTHONPATH=os.pathsep.join(p for p in sys.path if p)),
    )


def test_yields_once_per_node_while_another_thread_is_alive(monkeypatch):
    sleeps = []
    nodes = []
    evaluate = design_space.DesignSpace._evaluate_combinations

    def counted(self, *args, **kwargs):
        nodes.append(args[0])
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(design_space.time, "sleep", sleeps.append)
    monkeypatch.setattr(design_space.DesignSpace, "_evaluate_combinations",
                        counted)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        Session("lsi_logic", perf_filter="pareto").synthesize("adder:16")
    finally:
        release.set()
        other.join()
    assert len(nodes) > 10
    assert sleeps == [0] * len(nodes)


def test_single_threaded_synthesis_never_yields():
    result = _run_fresh("""
        import threading, time
        from repro.core import design_space

        sleeps = []
        design_space.time.sleep = sleeps.append
        from repro.api import Session

        Session("lsi_logic", perf_filter="tradeoff:0.05").synthesize("alu:64")
        assert threading.active_count() == 1
        print(len(sleeps))
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0"]


def test_engine_and_front_ends_run_without_numpy():
    result = _run_fresh("""
        import sys
        from repro.api import Session

        Session("lsi_logic", perf_filter="tradeoff:0.05") \\
            .synthesize("alu:64").emit("json")
        import repro.fleet.router
        import repro.serve.server
        print("numpy" in sys.modules)
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]
