"""Static depth propagation over the workflow graph (Alg. 1, Section 3.1).

Every port ``X`` has a *declared* depth ``dd(X)`` (from its declared type)
and an *actual* depth ``depth(X)`` of the values that reach it at run time.
Under the paper's two assumptions —

1. every processor assigns values of the declared type to its outputs, and
2. top-level workflow inputs are bound to values of the declared type —

the mismatch ``delta_s(X) = depth(X) - dd(X)`` is independent of the values
and can be computed once per workflow, on the static graph, by propagating
depths in topological order:

* ``depth(P:X) = dd(P:X)`` when ``P:X`` has no incoming arc, else the depth
  of the arc's source port;
* ``depth(P:Y) = dd(P:Y) + sum_i max(delta_s(X_i), 0)`` over ``P``'s inputs
  (only *positive* mismatches iterate; negative ones are repaired by
  singleton wrapping and contribute no index positions).

For processors using the *dot* (zip) combinator (footnote 7), all iterated
inputs advance in lockstep and share one index fragment, so the output gains
only ``max_i delta_s(X_i)`` levels and all iterated ports must agree on the
mismatch.

The resulting :class:`DepthAnalysis` is the entire static knowledge that the
INDEXPROJ query engine needs: per-port depths, per-port mismatches, and the
per-processor layout of output-index fragments (Prop. 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.strategy import StrategyError, fragment_offsets, node_level, parse_strategy
from repro.workflow.model import Dataflow, PortRef, Processor, WorkflowError
from repro.workflow.visit import topological_sort, upstream_processors


@dataclass(frozen=True)
class FragmentLayout:
    """Where one input port's index fragment sits inside an output index.

    Prop. 1: an output index ``q`` is the concatenation ``p_1 ... p_n`` of
    per-input fragments with ``|p_i| = delta_s(X_i)``.  ``offset`` is the
    position of this port's fragment inside ``q`` (the corrected form of
    Def. 4 — see DESIGN.md, "Known erratum handled"); ``length`` is
    ``max(delta_s, 0)``.  Dot-combinator ports all carry ``offset == 0`` and
    the shared iteration length.
    """

    port: str
    offset: int
    length: int


class DepthAnalysis:
    """Static depth/mismatch annotation of one dataflow.

    Computed once per workflow definition (the paper: "the algorithm is
    executed only once for every new workflow definition graph").
    """

    def __init__(
        self,
        flow: Dataflow,
        depths: Dict[PortRef, int],
        mismatches: Dict[PortRef, int],
        levels: Dict[str, int],
        layouts: Dict[str, Tuple[FragmentLayout, ...]],
    ) -> None:
        self.flow = flow
        self._depths = depths
        self._mismatches = mismatches
        self._levels = levels
        self._layouts = layouts
        # Upstream-producer closures by binding, filled on first use (at
        # most one entry per port).  A closure is a pure function of the
        # flow, so racing threads compute equal frozensets and the single
        # dict store publishes a finished value: no lock.
        self._upstream: Dict[PortRef, FrozenSet[str]] = {}

    def depth_of(self, ref: PortRef) -> int:
        """Propagated actual depth ``depth(P:X)`` of any addressable port."""
        try:
            return self._depths[ref]
        except KeyError:
            raise WorkflowError(f"no propagated depth for port {ref}") from None

    def mismatch(self, ref: PortRef) -> int:
        """``delta_s(X)`` for a processor input port (may be negative)."""
        try:
            return self._mismatches[ref]
        except KeyError:
            raise WorkflowError(f"no mismatch recorded for input port {ref}") from None

    def iteration_level(self, processor: str) -> int:
        """Total iteration level ``l`` for one processor (Def. 3)."""
        try:
            return self._levels[processor]
        except KeyError:
            raise WorkflowError(f"unknown processor {processor!r}") from None

    def fragment_layout(self, processor: str) -> Tuple[FragmentLayout, ...]:
        """Per-input index-fragment layout for one processor, in port order."""
        try:
            return self._layouts[processor]
        except KeyError:
            raise WorkflowError(f"unknown processor {processor!r}") from None

    def upstream_producers(self, ref: PortRef) -> FrozenSet[str]:
        """Processors with an output on some dataflow path into ``ref``.

        :func:`repro.workflow.visit.upstream_processors`, walked once per
        port of this analysis and kept: like the depths, the closure is
        spec-derived and shared by every later query and run.
        """
        closure = self._upstream.get(ref)
        if closure is None:
            self.depth_of(ref)  # unknown ports raise instead of growing the memo
            closure = self._upstream[ref] = upstream_processors(self.flow, ref)
        return closure

    def as_table(self) -> List[Tuple[str, int, int]]:
        """``(port, dd, depth)`` rows for debugging and documentation."""
        rows = []
        for ref in self.flow.iter_port_refs():
            rows.append((str(ref), self.flow.declared_depth(ref), self._depths[ref]))
        return rows


def propagate_depths(flow: Dataflow) -> DepthAnalysis:
    """Run Alg. 1 over ``flow`` and return the static annotation.

    The workflow must be acyclic; nested dataflows must be flattened first
    (:meth:`Dataflow.flattened`) — a subflow processor has no registered
    iteration behaviour of its own.
    """
    if any(p.is_subflow for p in flow.processors):
        raise WorkflowError(
            f"dataflow {flow.name!r} contains nested subflows; "
            "call flattened() before depth propagation"
        )
    depths: Dict[PortRef, int] = {}
    mismatches: Dict[PortRef, int] = {}
    levels: Dict[str, int] = {}
    layouts: Dict[str, Tuple[FragmentLayout, ...]] = {}

    # Assumption 2: workflow inputs carry exactly their declared depth.
    for port in flow.inputs:
        ref = PortRef(flow.name, port.name)
        depths[ref] = port.declared_depth

    for processor in topological_sort(flow):
        _propagate_processor(flow, processor, depths, mismatches, levels, layouts)

    # Workflow outputs inherit the depth of whatever feeds them.
    for port in flow.outputs:
        ref = PortRef(flow.name, port.name)
        arc = flow.incoming_arc(ref)
        depths[ref] = depths[arc.source] if arc else port.declared_depth

    return DepthAnalysis(flow, depths, mismatches, levels, layouts)


def _propagate_processor(
    flow: Dataflow,
    processor: Processor,
    depths: Dict[PortRef, int],
    mismatches: Dict[PortRef, int],
    levels: Dict[str, int],
    layouts: Dict[str, Tuple[FragmentLayout, ...]],
) -> None:
    deltas: Dict[str, int] = {}
    for port in processor.inputs:
        ref = PortRef(processor.name, port.name)
        arc = flow.incoming_arc(ref)
        if arc is None:
            # Unconnected input: bound to a default value of declared type.
            depths[ref] = port.declared_depth
        else:
            depths[ref] = depths[arc.source]
        delta = depths[ref] - port.declared_depth
        mismatches[ref] = delta
        deltas[port.name] = max(delta, 0)
    # The iteration strategy tree (flat cross/dot sugar or a combinator
    # expression) determines both the total level and where each port's
    # index fragment sits inside the instance index q.
    try:
        node = parse_strategy(
            processor.iteration, [p.name for p in processor.inputs]
        )
        level = node_level(node, deltas)
        offsets = fragment_offsets(node, deltas)
    except StrategyError as exc:
        raise WorkflowError(f"processor {processor.name!r}: {exc}") from exc
    fragments = [
        FragmentLayout(port.name, *offsets[port.name])
        for port in processor.inputs
    ]
    levels[processor.name] = level
    layouts[processor.name] = tuple(fragments)
    for port in processor.outputs:
        ref = PortRef(processor.name, port.name)
        # Assumption 1 plus the wrapping performed by the iteration
        # structure: outputs sit `level` lists above their declared depth.
        depths[ref] = port.declared_depth + level
