"""Result parity: the engine's enumerate -> cost -> construct pipeline
must produce exactly the configurations the seed's direct algorithm
produces.

``ReferenceSpace`` is the oracle.  It overrides the decomposition
evaluation with the seed implementation (a plain depth-first cross
product with ``merge_choices``, per-combination ``port_delay_matrix``
graph builds) on top of the shared expansion machinery, and applies
the space's enumeration order and combination cap the way the engine
documents them: each option list reordered first (a limit-aware order
receives the cap), then the first ``max_combinations`` S1-consistent
combinations in nested-loop order.  Every workload asserts full
``Configuration`` equality -- areas, delay matrices, and choice tuples,
bit for bit -- not just matching (area, delay) summaries.
"""

from itertools import islice

import pytest

from repro.api import Session
from repro.core.configs import make_configuration, resolve_order
from repro.core.design_space import DesignSpace
from repro.core.filters import ParetoFilter, TopKFilter, TradeoffFilter
from repro.core.specs import adder_spec, alu_spec, comparator_spec, counter_spec
from repro.netlist.timing import port_delay_matrix
from repro.techlib import lsi_logic_library


def merge_choices(parts):
    """Merge choice maps from sibling modules; ``None`` when two parts
    pick different implementations for the same specification -- the
    combination is rejected, enforcing S1."""
    merged = {}
    for part in parts:
        for spec, impl in part.items():
            existing = merged.get(spec)
            if existing is None:
                merged[spec] = impl
            elif existing != impl:
                return None
    return merged


def _reference_combine(option_lists, limit=None):
    """The S1-consistent cross product in nested-loop order, pruning a
    conflicting prefix where it first conflicts; at most ``limit``
    combinations are enumerated."""

    def walk(depth, chosen, merged):
        if depth == len(option_lists):
            yield chosen, merged
            return
        for option in option_lists[depth]:
            combined = merge_choices([merged, option.choice_map()])
            if combined is not None:
                yield from walk(depth + 1, chosen + (option,), combined)

    return list(islice(walk(0, (), {}), limit))


class ReferenceSpace(DesignSpace):
    """The seed evaluation algorithm (pre-compiled-timing)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Nodes whose cross product was cut by ``max_combinations``
        #: (lets a test prove its cap actually binds).
        self.capped_nodes = 0

    def _decomp_configs(self, spec, impl):
        netlist = impl.netlist
        distinct_specs = []
        for module in netlist.modules:
            if module.spec not in distinct_specs:
                distinct_specs.append(module.spec)
        option_lists = []
        for sub in distinct_specs:
            options = self.configs(sub)
            if not options:
                return []
            option_lists.append(options)

        order = resolve_order(self.order)
        cap = self.max_combinations
        if order is not None:
            if getattr(order, "limit_aware", False):
                option_lists = [order(options, cap) for options in option_lists]
            else:
                option_lists = [order(options) for options in option_lists]
        combos = _reference_combine(option_lists,
                                    None if cap is None else cap + 1)
        if cap is not None and len(combos) > cap:
            self.capped_nodes += 1
            combos = combos[:cap]

        results = []
        for chosen, merged in combos:
            by_spec = dict(zip(distinct_specs, chosen))
            own = merge_choices([merged, {spec: impl.index}])
            if own is None:
                continue
            area = sum(by_spec[m.spec].area for m in netlist.modules)
            delays = port_delay_matrix(
                netlist, lambda inst: by_spec[inst.spec].delay_matrix()
            )
            results.append(make_configuration(area, delays, own))
        self.combinations_costed += len(results)
        return results

    def _select(self, candidates):
        # The seed's plain stable sort first: the filter's own sort
        # then sees an ordered block, so the oracle's survivors do not
        # rest on it.
        return self.perf_filter.select(
            sorted(candidates, key=lambda c: (c.area, c.delay)))


def reference_session(**kwargs) -> Session:
    """A :class:`Session` whose design space runs the oracle: same
    library, rulebase, filter, order and cap as ``Session(**kwargs)``,
    always sequential (``jobs`` only applies to the engine)."""
    session = Session(**kwargs)
    engine = session.space
    session.space = ReferenceSpace(
        session.rulebase, session.library, session.perf_filter,
        validate=False, max_combinations=engine.max_combinations,
        order=engine.order)
    return session


@pytest.fixture(scope="module")
def lsi():
    return lsi_logic_library()


def _both_engines(lsi, spec, perf_filter_factory, **controls):
    session = Session(lsi, perf_filter=perf_filter_factory(), **controls)
    new = session.space.alternatives(spec)
    reference = ReferenceSpace(
        session.rulebase, lsi, perf_filter_factory(), validate=False,
        max_combinations=session.space.max_combinations,
        order=session.space.order,
    )
    old = reference.alternatives(spec)
    return new, old, reference


#: The ``perf_report --quick`` workloads plus wider paper components,
#: and ALU64 under a binding cap in each reordering enumeration order.
CASES = [
    ("adder16-pareto", adder_spec(16), ParetoFilter, {}),
    ("adder16-tradeoff", adder_spec(16), lambda: TradeoffFilter(0.05), {}),
    ("counter8-pareto", counter_spec(8), ParetoFilter, {}),
    ("alu16-pareto", alu_spec(16), ParetoFilter, {}),
    ("alu16-top4", alu_spec(16), lambda: TopKFilter(4), {}),
    ("comparator8-pareto", comparator_spec(8), ParetoFilter, {}),
    ("adder32-tradeoff", adder_spec(32), lambda: TradeoffFilter(0.05), {}),
    ("alu64-tradeoff", alu_spec(64), lambda: TradeoffFilter(0.05), {}),
    ("comparator64-pareto", comparator_spec(64), ParetoFilter, {}),
    ("alu64-pareto-cap40-frontier", alu_spec(64), ParetoFilter,
     {"order": "frontier", "max_combinations": 40}),
    ("alu64-pareto-cap40-auto", alu_spec(64), ParetoFilter,
     {"order": "auto", "max_combinations": 40}),
]


@pytest.mark.parametrize(
    "spec,filter_factory,controls",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_engine_parity(lsi, spec, filter_factory, controls):
    new, old, reference = _both_engines(lsi, spec, filter_factory, **controls)
    assert len(new) == len(old) > 0
    for new_config, old_config in zip(new, old):
        assert new_config.area == old_config.area
        assert new_config.delays == old_config.delays
        assert new_config.choices == old_config.choices
        assert new_config.delay == old_config.delay
    if "max_combinations" in controls:
        assert reference.capped_nodes > 0  # the cap really binds


def test_netlist_evaluation_parity(lsi):
    """evaluate_netlist goes through the same compiled path; check it
    against per-spec reference evaluation composed by hand."""
    from repro.core.specs import make_spec, port_signature
    from repro.netlist import Netlist
    from repro.netlist.ports import in_port, out_port

    netlist = Netlist("pair")
    a = netlist.add_port(in_port("A", 8))
    b = netlist.add_port(in_port("B", 8))
    s = netlist.add_port(out_port("S", 8))
    o = netlist.add_port(out_port("O", 8))
    add = adder_spec(8, carry_in=False, carry_out=False)
    gate = make_spec("GATE", 8, kind="AND", n_inputs=2)
    netlist.add_module("u0", add, port_signature(add),
                       {"A": a.ref(), "B": b.ref(), "S": s.ref()})
    netlist.add_module("u1", gate, port_signature(gate),
                       {"I0": a.ref(), "I1": b.ref(), "O": o.ref()})

    session = Session(lsi, perf_filter=ParetoFilter())
    new = session.space.evaluate_netlist(netlist)

    reference = ReferenceSpace(session.rulebase, lsi, ParetoFilter(),
                               validate=False)
    option_lists = [reference.configs(add), reference.configs(gate)]
    results = []
    for chosen, merged in _reference_combine(option_lists):
        by_spec = {add: chosen[0], gate: chosen[1]}
        area = sum(by_spec[m.spec].area for m in netlist.modules)
        delays = port_delay_matrix(
            netlist, lambda inst: by_spec[inst.spec].delay_matrix()
        )
        results.append(make_configuration(area, delays, merged))
    old = ParetoFilter().select(results)

    assert [(c.area, c.delays, c.choices) for c in new] == [
        (c.area, c.delays, c.choices) for c in old
    ]
