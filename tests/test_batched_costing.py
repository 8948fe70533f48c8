"""Parity of the engine's block costing path against the seed
reference evaluator (``ReferenceSpace`` in ``test_engine_parity``):
same survivor configurations (same *objects*, via interning), same
order, same emitter output -- across filters, enumeration orders,
worker counts/backends, and perturbed delay books.

Also covers the per-row timing kernel (agreement with the direct
timing walker on every costed row, pickle round trips) and the
pickling invariants the costing path leans on (canonical interned
specs, ``ChoiceTuple`` degrading to a plain tuple).
"""

import dataclasses
import json
import multiprocessing
import pickle
import random
import re

import pytest

from repro.api import Session
from repro.core.configs import ChoiceTuple, enumerate_rows, make_configuration
from repro.core.design_space import DesignSpace
from repro.core.filters import (
    KeepAllFilter,
    ParetoFilter,
    TopKFilter,
    TradeoffFilter,
)
from repro.core.library_rules import lsi_rules
from repro.core.rulebase import standard_rulebase
from repro.core.specs import (
    adder_spec,
    alu_spec,
    comparator_spec,
    counter_spec,
    make_spec,
)
from repro.netlist.timing import CLK_PIN, port_delay_matrix
from repro.techlib import lsi_logic_library
from repro.techlib.cells import CellLibrary

from test_engine_parity import ReferenceSpace, reference_session

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

BACKENDS = ["thread"] + (["process"] if HAS_FORK else [])


def _space(library=None, perf_filter=None, cls=DesignSpace,
           **kwargs) -> DesignSpace:
    rulebase = standard_rulebase()
    rulebase.extend(lsi_rules())
    return cls(rulebase, library or lsi_logic_library(),
               perf_filter or ParetoFilter(), **kwargs)


def _perturbed_library(seed: int) -> CellLibrary:
    """A delay-book variant: every cell's delays and area scaled by a
    seeded random factor.  Exercises arc values the checked-in book
    never produces, so the parity fuzz is not just replaying the one
    blessed workload."""
    rng = random.Random(seed)
    cells = []
    for cell in lsi_logic_library(fresh=True):
        factor = rng.uniform(0.5, 1.8)
        cells.append(dataclasses.replace(
            cell,
            area=round(cell.area * rng.uniform(0.6, 1.5), 1),
            delays=tuple((pins, round(delay * factor, 2))
                         for pins, delay in cell.delays),
        ))
    return CellLibrary(f"perturbed-{seed}", cells)


def _fingerprint(options):
    return [(c.area, c.delay, c.delays, c.choices) for c in options]


# ---------------------------------------------------------------------------
# parity fuzz
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [7, 23, 91])
def test_batched_parity_fuzz_perturbed_delay_books(seed):
    spec = adder_spec(8)
    rng = random.Random(seed * 1000 + 1)
    library = _perturbed_library(seed)
    make_filter = rng.choice([KeepAllFilter, ParetoFilter, TradeoffFilter,
                              lambda: TopKFilter(5)])
    order = rng.choice([None, "lex", "frontier", "auto"])
    # keep-all without a cap on a perturbed book can explode; the cap
    # is always finite so the fuzz stays a test, not a benchmark
    cap = rng.choice([40, 500])
    engine = _space(library, make_filter(), order=order,
                    max_combinations=cap).alternatives(spec)
    oracle = _space(library, make_filter(), cls=ReferenceSpace, order=order,
                    max_combinations=cap).alternatives(spec)
    assert _fingerprint(engine) == _fingerprint(oracle)
    for a, b in zip(engine, oracle):
        assert a is b  # interning: bit-identical means same object


@pytest.mark.parametrize("order", [None, "lex", "frontier", "auto"])
def test_batched_parity_every_order(order):
    spec = adder_spec(8)
    engine = _space(perf_filter=KeepAllFilter(), order=order,
                    max_combinations=300).alternatives(spec)
    oracle = _space(perf_filter=KeepAllFilter(), cls=ReferenceSpace,
                    order=order, max_combinations=300).alternatives(spec)
    assert len(engine) > 0
    assert _fingerprint(engine) == _fingerprint(oracle)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("jobs", [1, 2])
def test_batched_parity_with_jobs_and_emitters(jobs, backend):
    settings = dict(library="lsi_logic", perf_filter="tradeoff:0.05")
    engine = Session(jobs=jobs, parallel_backend=backend,
                     **settings).synthesize(alu_spec(16))
    oracle = reference_session(**settings).synthesize(alu_spec(16))
    assert _fingerprint([a.config for a in engine.result.alternatives]) == \
        _fingerprint([a.config for a in oracle.result.alternatives])
    strip_runtime = re.compile(r"in \d+\.\d+ s")
    assert strip_runtime.sub("", engine.emit("report")) == \
        strip_runtime.sub("", oracle.emit("report"))
    bodies = []
    for job in (engine, oracle):
        payload = json.loads(job.emit("json"))
        payload.pop("runtime_seconds", None)  # wall clock, never parity
        payload.pop("phases", None)           # wall clock too
        bodies.append(payload)
    assert bodies[0] == bodies[1]


def test_combinations_costed_counter_matches_scalar():
    spec = comparator_spec(16)
    engine = _space(perf_filter=KeepAllFilter(), max_combinations=200)
    oracle = _space(perf_filter=KeepAllFilter(), cls=ReferenceSpace,
                    max_combinations=200)
    engine.alternatives(spec)
    oracle.alternatives(spec)
    assert engine.combinations_costed == oracle.combinations_costed > 0


# ---------------------------------------------------------------------------
# the per-row kernel
# ---------------------------------------------------------------------------

def _kernel_rows(spec, per_program=8):
    """(program, kernel, chosen configurations) for up to
    ``per_program`` S1 rows of every compiled decomposition in
    ``spec``'s evaluated design space -- the kernels and weights the
    engine itself costs."""
    space = _space(perf_filter=KeepAllFilter(), max_combinations=200)
    space.alternatives(spec)
    for node in list(space.nodes.values()):
        for impl in node.impls:
            program = impl.timing_program
            if program is None:
                continue
            # One slot per *distinct* module spec, in first-seen order --
            # the slotting _decomp_configs evaluates with.
            option_lists = [space.configs(sub) for sub in program.slot_keys]
            for chosen, _ in enumerate_rows(option_lists, limit=per_program):
                kernel = program.kernel(tuple(c.arc_keys for c in chosen))
                yield program, kernel, chosen


def test_kernel_run_matches_port_delay_matrix():
    """Every row the kernel costs equals the direct graph walker's delay
    matrix, bit for bit -- across every decomposition of a
    combinational and a sequential space (split ``@clk`` sources)."""
    rows = clk_rows = 0
    for spec in (adder_spec(8), counter_spec(8)):
        for program, kernel, chosen in _kernel_rows(spec):
            values = kernel.run([c.delay_values for c in chosen])
            by_spec = dict(zip(program.slot_keys, chosen))
            assert dict(zip(kernel.keys, values)) == port_delay_matrix(
                program.netlist,
                lambda inst: by_spec[inst.spec].delay_matrix())
            rows += 1
            clk_rows += any(source == CLK_PIN for source, _ in kernel.keys)
    assert rows > 500 and clk_rows > 0


def test_kernel_pickle_round_trip_costs_identically():
    """A kernel pickles whole, op lists included (what a process or
    remote worker receives), and the copy costs every row exactly like
    the original."""
    shipped = 0
    for _, kernel, chosen in _kernel_rows(counter_spec(8), per_program=2):
        clone = pickle.loads(pickle.dumps(kernel))
        assert (clone.keys, clone.start, clone.ops) == \
            (kernel.keys, kernel.start, kernel.ops)
        values = [c.delay_values for c in chosen]
        assert clone.run(values) == kernel.run(values)
        shipped += 1
    assert shipped > 100


# ---------------------------------------------------------------------------
# pickling invariants under interning
# ---------------------------------------------------------------------------

def test_spec_pickle_round_trip_is_canonical():
    spec = adder_spec(8)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone is spec
    # an equal spec built from scratch pickles to the same canonical
    # instance too (the intern table, not pickle memoization)
    fresh = make_spec(spec.ctype, spec.width, **dict(spec.attrs))
    assert pickle.loads(pickle.dumps(fresh)) is spec


def test_choice_tuple_hash_caches_and_pickles_as_tuple():
    items = make_configuration(
        4.0, {("a", "y"): 1.0}, {adder_spec(4): 0}).choices
    assert isinstance(items, ChoiceTuple)
    assert hash(items) == hash(tuple(items))
    assert items == tuple(items)
    revived = pickle.loads(pickle.dumps(items))
    assert type(revived) is tuple  # per-process hash cache never ships
    assert revived == tuple(items)
