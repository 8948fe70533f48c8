"""Compiled timing programs: evaluate one netlist's delays many times.

:func:`repro.netlist.timing.port_delay_matrix` rebuilds the timing DAG
and its topological order from scratch on every call.  That is the
right tool for one-off questions (reports, critical paths), but the
DTAS evaluation inner loop asks the *same structural question* of the
*same netlist* once per surviving configuration combination -- for a
node with thousands of combinations that is thousands of identical
graph constructions.

A :class:`TimingProgram` splits the work by what actually varies:

- **Compile once per netlist**: intern every timing node (ports and
  module pins, with the ``@clk`` virtual pin split into a source and a
  sink half exactly as in :mod:`repro.netlist.timing`), walk the
  endpoint structure to extract the zero-delay wiring arcs, and record
  the source ports and sink labels.
- **Compile once per arc signature**: the set of pin-to-pin arcs a
  combination contributes depends only on *which* delay-matrix keys its
  chosen implementations publish, not on the weights.  Combinations
  overwhelmingly share a handful of key sets, so the internal arcs and
  the topological order are worked out once per signature (a tuple of
  per-slot arc-key tuples) and kept as one op list: for each source,
  its reachable edges as ``(u, v, slot, index)`` relaxations in
  topological order.
- **Per evaluation**: walk that op list once over a fresh list of
  arrival times, reading each weight straight from the chosen
  per-slot delay values -- no graph, ordering, or reachability work
  at all.

Instances are grouped into *slots* (by default one slot per instance;
the design-space evaluator passes ``slot_of=lambda inst: inst.spec`` so
all instances of one component specification share the configuration
chosen for that specification, which is exactly search control S1).

The program computes bit-identical results to ``port_delay_matrix``:
arrival times are prefix sums along identical paths combined with
``max``, which is order-independent in IEEE float arithmetic.  Wire
edges and the per-key merges add ``0.0``, which leaves every arrival
time unchanged (sums that start at ``+0.0`` are never ``-0.0``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.netlist.nets import endpoint_masks
from repro.netlist.netlist import ModuleInst, Netlist

#: Virtual pin name standing for the clock edge inside a component.
#: (Canonically re-exported by :mod:`repro.netlist.timing`.)
CLK_PIN = "@clk"

#: Timing node, as in :mod:`repro.netlist.timing`:
#:   ("port", port_name) | ("pin", inst_name, pin_name)
Node = Tuple

#: Per-slot arc keys: the (input_pin, output_pin) pairs of a delay
#: matrix, in a stable order.
ArcKeys = Tuple[Tuple[str, str], ...]

_NEG_INF = float("-inf")


class TimingCycleError(Exception):
    """The netlist contains a combinational cycle.

    Defined here (rather than in :mod:`repro.netlist.timing`) so the
    compiled engine has no import cycle; ``timing`` re-exports it.
    """


#: The weights of wire edges: their op ``slot`` is -1, which a row's
#: per-slot weights tuple resolves to this entry appended at its end.
_WIRE_WEIGHTS = (0.0,)


class _Kernel:
    """One arc signature's costing program, laid out at compile time.

    Reachability of a (source, sink) pair is *structural*: every delay
    weight is a finite float, so which pairs carry a value depends only
    on the edge graph, never on the weights.  That fixes the result
    keys (sorted) once per signature, and lets every source's
    propagation be laid out ahead of time as relaxations over one flat
    list of arrival times.  A kernel holds only tuples of numbers and
    strings, so it pickles whole.
    """

    __slots__ = ("keys", "start", "ops", "out")

    def __init__(
        self,
        edges: List[Tuple[int, int, int, int]],
        sources: List[Tuple[str, int]],
        labeled: List[Tuple[int, str]],
    ) -> None:
        """``edges`` are (u, v, slot, index) over node ids in
        topological order (slot -1 marks a wire edge); ``sources`` are
        (name, node) pairs and ``labeled`` (node, sink name) pairs."""
        start: List[float] = []
        ops: List[Tuple[int, int, int, int]] = []
        contrib_map: Dict[Tuple[str, str], List[int]] = {}
        for source_name, src in sources:
            position = {src: len(start)}
            start.append(0.0)
            for u, v, slot, index in edges:
                pu = position.get(u)
                if pu is None:
                    continue  # would only relax a -inf arrival
                pv = position.get(v)
                if pv is None:
                    pv = position[v] = len(start)
                    start.append(_NEG_INF)
                ops.append((pu, pv, slot, index))
            for nid, label in labeled:
                if nid != src and nid in position:
                    contrib_map.setdefault((source_name, label), []).append(
                        position[nid])
        keys = tuple(sorted(contrib_map))
        out = len(start)
        for k, key in enumerate(keys):
            start.append(_NEG_INF)
            ops.extend((pu, out + k, -1, 0) for pu in contrib_map[key])
        #: Sorted (source, sink) result keys -- exactly the keys of
        #: ``port_delay_matrix`` for any weight set.
        self.keys: Tuple[Tuple[str, str], ...] = keys
        #: Initial arrival times: one entry per (source, node the source
        #: reaches), ``0.0`` at each source and ``-inf`` elsewhere,
        #: followed by one ``-inf`` entry per result key.
        self.start: Tuple[float, ...] = tuple(start)
        #: (u, v, slot, index) relaxations over ``start``'s positions:
        #: each source's reachable edges in topological order, then one
        #: wire op (slot -1) per contributor of each key, which
        #: max-merges that contributor's arrival into the key's entry.
        self.ops: Tuple[Tuple[int, int, int, int], ...] = tuple(ops)
        #: Position of the first key entry in ``start``.
        self.out = out

    def run(self, values_by_slot: Sequence[Sequence[float]]) -> Tuple[float, ...]:
        """Longest-path propagation for one choice of per-slot weights.

        ``values_by_slot[s]`` lists slot ``s``'s delay weights parallel
        to its arc keys (a configuration's ``delay_values``).  Returns
        the delays parallel to :attr:`keys`.  Arrival times are prefix
        sums along the topological edge list merged with ``max`` (wire
        edges add ``0.0``), exactly as
        :func:`~repro.netlist.timing.port_delay_matrix` computes them.
        """
        weights = [*values_by_slot, _WIRE_WEIGHTS]
        d = list(self.start)
        for u, v, slot, index in self.ops:
            x = d[u] + weights[slot][index]
            if x > d[v]:
                d[v] = x
        return tuple(d[self.out:])


class TimingProgram:
    """A netlist compiled for repeated delay-matrix evaluation.

    Parameters
    ----------
    netlist:
        The netlist to compile.  The program assumes the netlist is not
        structurally mutated afterwards.
    slot_of:
        Maps each :class:`ModuleInst` to a hashable slot key; instances
        with the same key receive the same delay matrix per evaluation.
        Defaults to the instance name (every instance its own slot).
        Slot order is first-seen instance order.

    Programs are picklable by construction (``slot_of`` is consumed at
    compile time, never stored), so the multiprocessing evaluation
    backend and future remote workers can ship compiled programs
    whole: the interned node table, wiring arcs, and any already
    compiled per-signature kernels travel with the program, and
    evaluation on the receiving side is bit-identical (prefix sums and
    ``max`` over identical paths).  Keep the invariant that nothing
    stored here is process-local: no lambdas, no weakrefs, no
    id()-keyed tables.
    """

    def __init__(
        self,
        netlist: Netlist,
        slot_of: Optional[Callable[[ModuleInst], Hashable]] = None,
    ) -> None:
        self.netlist = netlist
        self._node_index: Dict[Node, int] = {}
        self._nodes: List[Node] = []
        self._kernels: Dict[Tuple[ArcKeys, ...], _Kernel] = {}

        # --- slots -----------------------------------------------------
        slot_index: Dict[Hashable, int] = {}
        slot_keys: List[Hashable] = []
        module_slots: List[int] = []
        slot_instances: List[List[str]] = []
        for inst in netlist.modules:
            key = inst.name if slot_of is None else slot_of(inst)
            slot = slot_index.get(key)
            if slot is None:
                slot = slot_index[key] = len(slot_keys)
                slot_keys.append(key)
                slot_instances.append([])
            module_slots.append(slot)
            slot_instances[slot].append(inst.name)
        self.slot_keys: Tuple[Hashable, ...] = tuple(slot_keys)
        self.module_slots: Tuple[int, ...] = tuple(module_slots)
        self._slot_instances = slot_instances

        # --- wiring arcs ----------------------------------------------
        # Same edges timing._build_graph derives per bit, computed at
        # slice granularity: per net, (node, bitmask) entries for
        # drivers and readers; an arc exists where the masks intersect.
        node = self._node
        net_drivers: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        net_readers: Dict[int, List[Tuple[int, int]]] = defaultdict(list)

        port_sources: List[Tuple[str, int]] = []
        for port in netlist.input_ports():
            if port.is_sequential_boundary:
                continue
            nid = node(("port", port.name))
            port_sources.append((port.name, nid))
            backing = netlist.port_net(port.name)
            net_drivers[id(backing)].append((nid, (1 << backing.width) - 1))

        port_labels: List[Tuple[int, str]] = []
        for port in netlist.output_ports():
            nid = node(("port", port.name))
            port_labels.append((nid, port.name))
            backing = netlist.port_net(port.name)
            net_readers[id(backing)].append((nid, (1 << backing.width) - 1))

        for inst in netlist.modules:
            connections = inst.connections
            for pin in inst.ports:
                endpoint = connections.get(pin.name)
                if endpoint is None or pin.is_sequential_boundary:
                    continue
                nid = node(("pin", inst.name, pin.name))
                table = net_readers if pin.is_input else net_drivers
                for net, mask in endpoint_masks(endpoint):
                    if net is not None:
                        table[id(net)].append((nid, mask))

        wire_edges: List[Tuple[int, int]] = []
        seen = set()
        for key, drivers in net_drivers.items():
            readers = net_readers.get(key)
            if not readers:
                continue
            for driver, dmask in drivers:
                for reader, rmask in readers:
                    if dmask & rmask:
                        pair = (driver, reader)
                        if pair not in seen:
                            seen.add(pair)
                            wire_edges.append(pair)
        self._wire_edges = wire_edges
        self._port_sources = port_sources
        self._port_labels = port_labels

    # ------------------------------------------------------------------
    def _node(self, node: Node) -> int:
        nid = self._node_index.get(node)
        if nid is None:
            nid = self._node_index[node] = len(self._nodes)
            self._nodes.append(node)
        return nid

    @property
    def kernel_count(self) -> int:
        """Number of distinct arc signatures compiled so far."""
        return len(self._kernels)

    # ------------------------------------------------------------------
    def _compile_kernel(self, signature: Tuple[ArcKeys, ...]) -> _Kernel:
        node = self._node
        edges: List[Tuple[int, int, int, int]] = []  # (u, v, slot, index)
        for slot, arc_keys in enumerate(signature):
            for inst_name in self._slot_instances[slot]:
                for index, (pin_in, pin_out) in enumerate(arc_keys):
                    # Split the virtual clock pin into a source node and
                    # a sink node so (D -> @clk) and (@clk -> Q) arcs do
                    # not chain into a false combinational D -> Q path.
                    src_pin = "@clk:out" if pin_in == CLK_PIN else pin_in
                    dst_pin = "@clk:in" if pin_out == CLK_PIN else pin_out
                    u = node(("pin", inst_name, src_pin))
                    v = node(("pin", inst_name, dst_pin))
                    edges.append((u, v, slot, index))
        clk_source_ids = sorted({u for u, _, _, _ in edges
                                 if self._nodes[u][-1] == "@clk:out"})
        for u, v in self._wire_edges:
            edges.append((u, v, -1, 0))

        n = len(self._nodes)
        indegree = [0] * n
        adjacency: List[List[int]] = [[] for _ in range(n)]
        for eid, (u, v, _, _) in enumerate(edges):
            adjacency[u].append(eid)
            indegree[v] += 1
        stack = [nid for nid in range(n) if indegree[nid] == 0]
        topo_pos = [-1] * n
        placed = 0
        while stack:
            u = stack.pop()
            topo_pos[u] = placed
            placed += 1
            for eid in adjacency[u]:
                v = edges[eid][1]
                indegree[v] -= 1
                if indegree[v] == 0:
                    stack.append(v)
        if placed != n:
            cyclic = sorted(
                str(self._nodes[nid]) for nid in range(n) if indegree[nid] > 0
            )[:8]
            raise TimingCycleError(
                f"combinational cycle through: {', '.join(cyclic)}"
            )

        edges.sort(key=lambda edge: topo_pos[edge[0]])

        sources = list(self._port_sources)
        sources.extend((CLK_PIN, nid) for nid in clk_source_ids)
        labeled = list(self._port_labels)
        for nid in range(n):
            entry = self._nodes[nid]
            if entry[0] == "pin" and entry[2] == "@clk:in":
                labeled.append((nid, CLK_PIN))
        return _Kernel(edges, sources, labeled)

    # ------------------------------------------------------------------
    def kernel(self, arc_keys_by_slot: Tuple[ArcKeys, ...]) -> _Kernel:
        """The compiled kernel for one arc signature (cached)."""
        kernel = self._kernels.get(arc_keys_by_slot)
        if kernel is None:
            kernel = self._compile_kernel(arc_keys_by_slot)
            self._kernels[arc_keys_by_slot] = kernel
        return kernel

    def evaluate(
        self,
        arc_keys_by_slot: Tuple[ArcKeys, ...],
        values_by_slot: Sequence[Sequence[float]],
    ) -> Dict[Tuple[str, str], float]:
        """The netlist's delay matrix for one choice of per-slot delay
        matrices: ``arc_keys_by_slot[s]`` lists slot ``s``'s (input,
        output) arc pairs and ``values_by_slot[s]`` their weights.  The
        result equals what :func:`repro.netlist.timing.port_delay_matrix`
        computes for the same weights -- see :meth:`_Kernel.run`."""
        kernel = self.kernel(arc_keys_by_slot)
        return dict(zip(kernel.keys, kernel.run(values_by_slot)))


def compile_timing(
    netlist: Netlist,
    slot_of: Optional[Callable[[ModuleInst], Hashable]] = None,
) -> TimingProgram:
    """Compile ``netlist`` into a reusable :class:`TimingProgram`."""
    return TimingProgram(netlist, slot_of=slot_of)
