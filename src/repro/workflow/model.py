"""Core dataflow graph structures: ports, processors, arcs, dataflows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.values.types import ValueType


class WorkflowError(ValueError):
    """Raised for structurally invalid workflow constructions or lookups."""


@dataclass(frozen=True)
class PortSpec:
    """A declared port: a name plus a declared type.

    The declared depth ``dd(X)`` (Section 3.1) is the number of ``list``
    constructors in the declared type.
    """

    name: str
    type: ValueType

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkflowError("port name must be non-empty")

    @property
    def declared_depth(self) -> int:
        """``dd(X)``: the depth of the declared type."""
        return self.type.depth


@dataclass(frozen=True, order=True)
class PortRef:
    """A fully-qualified port reference ``node:port``.

    ``node`` is either a processor name or the dataflow's own name (for the
    workflow-level input/output ports, matching the paper's
    ``workflow:paths_per_gene`` notation).
    """

    node: str
    port: str

    def __str__(self) -> str:
        return f"{self.node}:{self.port}"


@dataclass(frozen=True)
class Arc:
    """A data dependency ``source -> sink`` between two ports."""

    source: PortRef
    sink: PortRef

    def __str__(self) -> str:
        return f"{self.source} -> {self.sink}"


class Processor:
    """A workflow node: a named black-box component with ordered ports.

    ``operation`` names the behaviour in the processor registry used by the
    execution engine (:mod:`repro.engine.processors`); ``subflow`` turns the
    processor into a nested dataflow instead.  ``iteration`` selects the list
    combinator applied when several input ports iterate: ``"cross"`` (the
    default, Def. 2), ``"dot"`` (the zip combinator of footnote 7), or a
    full combinator expression over the input ports, e.g.
    ``{"cross": [{"dot": ["x1", "x2"]}, "x3"]}`` (see
    :mod:`repro.strategy`).
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[PortSpec] = (),
        outputs: Sequence[PortSpec] = (),
        operation: Optional[str] = None,
        subflow: Optional["Dataflow"] = None,
        iteration: Any = "cross",
        config: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not name:
            raise WorkflowError("processor name must be non-empty")
        if operation is not None and subflow is not None:
            raise WorkflowError(
                f"processor {name!r}: operation and subflow are mutually exclusive"
            )
        self.name = name
        self.inputs: Tuple[PortSpec, ...] = tuple(inputs)
        self.outputs: Tuple[PortSpec, ...] = tuple(outputs)
        self.operation = operation
        self.subflow = subflow
        self.iteration = iteration
        self.config: Dict[str, Any] = dict(config or {})
        _reject_duplicates(name, self.inputs)
        _reject_duplicates(name, self.outputs)
        # Name tables: ports are fixed at construction, and the lookups
        # below sit on per-request paths (precheck, plan building, the
        # executor's input binding).
        self._input_positions: Dict[str, int] = {
            port.name: position for position, port in enumerate(self.inputs)
        }
        self._output_names = frozenset(port.name for port in self.outputs)
        # Validate the strategy spec against the declared inputs up front —
        # structural errors should surface at definition time, not mid-run.
        from repro.strategy import StrategyError, parse_strategy

        try:
            parse_strategy(iteration, [p.name for p in self.inputs])
        except StrategyError as exc:
            raise WorkflowError(
                f"processor {name!r}: invalid iteration strategy: {exc}"
            ) from exc

    # -- port lookup -----------------------------------------------------

    def input_port(self, name: str) -> PortSpec:
        return _find_port(self.inputs, name, self.name, "input")

    def output_port(self, name: str) -> PortSpec:
        return _find_port(self.outputs, name, self.name, "output")

    def has_input(self, name: str) -> bool:
        return name in self._input_positions

    def has_output(self, name: str) -> bool:
        return name in self._output_names

    def input_position(self, name: str) -> int:
        """0-based position of an input port — port order drives Prop. 1."""
        try:
            return self._input_positions[name]
        except KeyError:
            raise WorkflowError(
                f"processor {self.name!r} has no input port {name!r}"
            ) from None

    @property
    def is_subflow(self) -> bool:
        return self.subflow is not None

    def __repr__(self) -> str:
        return (
            f"Processor({self.name!r}, inputs={[p.name for p in self.inputs]}, "
            f"outputs={[p.name for p in self.outputs]})"
        )


def _reject_duplicates(owner: str, ports: Sequence[PortSpec]) -> None:
    seen = set()
    for port in ports:
        if port.name in seen:
            raise WorkflowError(f"processor {owner!r}: duplicate port {port.name!r}")
        seen.add(port.name)


def _find_port(
    ports: Sequence[PortSpec], name: str, owner: str, kind: str
) -> PortSpec:
    for port in ports:
        if port.name == name:
            return port
    raise WorkflowError(f"{owner!r} has no {kind} port {name!r}")


class Dataflow:
    """A dataflow specification ``D = (N, E)`` with workflow-level ports.

    Workflow input ports act as sources (bound to user-supplied values at
    run start); workflow output ports act as sinks.  Both are addressed
    with the dataflow's own name as the node, e.g. ``PortRef("wf", "out")``.
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[PortSpec] = (),
        outputs: Sequence[PortSpec] = (),
    ) -> None:
        if not name:
            raise WorkflowError("dataflow name must be non-empty")
        self.name = name
        self.inputs: Tuple[PortSpec, ...] = tuple(inputs)
        self.outputs: Tuple[PortSpec, ...] = tuple(outputs)
        _reject_duplicates(name, self.inputs)
        _reject_duplicates(name, self.outputs)
        self._processors: Dict[str, Processor] = {}
        self._arcs: List[Arc] = []
        # Adjacency indexes, maintained by add_arc (the only writer of
        # _arcs).  Every bucket keeps insertion order, so an indexed
        # accessor returns exactly what a scan of _arcs would.
        self._arc_by_sink: Dict[PortRef, Arc] = {}
        self._arcs_by_source: Dict[PortRef, List[Arc]] = {}
        self._arcs_into: Dict[str, List[Arc]] = {}
        self._arcs_out_of: Dict[str, List[Arc]] = {}

    # -- construction ----------------------------------------------------

    def add_processor(self, processor: Processor) -> Processor:
        if processor.name in self._processors or processor.name == self.name:
            raise WorkflowError(f"duplicate node name {processor.name!r}")
        self._processors[processor.name] = processor
        return processor

    def add_arc(self, source: PortRef, sink: PortRef) -> Arc:
        """Connect ``source`` (an output-side port) to ``sink`` (input-side).

        Valid sources: a processor output port, or a workflow input port.
        Valid sinks: a processor input port, or a workflow output port.
        Each sink may have at most one incoming arc (single-assignment
        dataflow); sources may fan out freely.
        """
        self._check_source(source)
        self._check_sink(sink)
        if sink in self._arc_by_sink:
            raise WorkflowError(f"sink {sink} already has an incoming arc")
        arc = Arc(source, sink)
        self._arcs.append(arc)
        self._arc_by_sink[sink] = arc
        self._arcs_by_source.setdefault(source, []).append(arc)
        self._arcs_into.setdefault(sink.node, []).append(arc)
        self._arcs_out_of.setdefault(source.node, []).append(arc)
        return arc

    def _check_source(self, ref: PortRef) -> None:
        if ref.node == self.name:
            _find_port(self.inputs, ref.port, self.name, "workflow input")
            return
        self.processor(ref.node).output_port(ref.port)

    def _check_sink(self, ref: PortRef) -> None:
        if ref.node == self.name:
            _find_port(self.outputs, ref.port, self.name, "workflow output")
            return
        self.processor(ref.node).input_port(ref.port)

    # -- lookup ----------------------------------------------------------

    @property
    def processors(self) -> Tuple[Processor, ...]:
        return tuple(self._processors.values())

    @property
    def processor_names(self) -> Tuple[str, ...]:
        return tuple(self._processors)

    @property
    def arcs(self) -> Tuple[Arc, ...]:
        return tuple(self._arcs)

    def processor(self, name: str) -> Processor:
        try:
            return self._processors[name]
        except KeyError:
            raise WorkflowError(
                f"dataflow {self.name!r} has no processor {name!r}"
            ) from None

    def has_processor(self, name: str) -> bool:
        return name in self._processors

    def workflow_input_ref(self, port: str) -> PortRef:
        _find_port(self.inputs, port, self.name, "workflow input")
        return PortRef(self.name, port)

    def workflow_output_ref(self, port: str) -> PortRef:
        _find_port(self.outputs, port, self.name, "workflow output")
        return PortRef(self.name, port)

    def incoming_arc(self, sink: PortRef) -> Optional[Arc]:
        """The unique arc into ``sink``, or ``None`` for unconnected ports."""
        return self._arc_by_sink.get(sink)

    def outgoing_arcs(self, source: PortRef) -> List[Arc]:
        return list(self._arcs_by_source.get(source, ()))

    def arcs_into_processor(self, name: str) -> List[Arc]:
        return list(self._arcs_into.get(name, ()))

    def arcs_out_of_processor(self, name: str) -> List[Arc]:
        return list(self._arcs_out_of.get(name, ()))

    def iter_port_refs(self) -> Iterator[PortRef]:
        """Every addressable port in the graph, workflow ports included."""
        for port in self.inputs:
            yield PortRef(self.name, port.name)
        for port in self.outputs:
            yield PortRef(self.name, port.name)
        for processor in self._processors.values():
            for port in processor.inputs:
                yield PortRef(processor.name, port.name)
            for port in processor.outputs:
                yield PortRef(processor.name, port.name)

    def declared_depth(self, ref: PortRef) -> int:
        """``dd`` of any addressable port."""
        if ref.node == self.name:
            for port in self.inputs + self.outputs:
                if port.name == ref.port:
                    return port.declared_depth
            raise WorkflowError(f"{self.name!r} has no workflow port {ref.port!r}")
        processor = self.processor(ref.node)
        for port in processor.inputs + processor.outputs:
            if port.name == ref.port:
                return port.declared_depth
        raise WorkflowError(f"{ref.node!r} has no port {ref.port!r}")

    # -- nested workflow support ------------------------------------------

    def flattened(self, separator: str = "/") -> "Dataflow":
        """A copy with every sub-workflow processor inlined.

        Internal processors of a subflow ``S`` hosted by processor ``P`` are
        renamed ``P<separator><internal name>``; arcs through the subflow
        boundary are re-routed directly.  Iteration over an entire subflow
        instance becomes pipelined iteration over its internal processors,
        which produces identical shapes under the cross-product combinator
        (map of a composition equals composition of maps).
        """
        if not any(p.is_subflow for p in self._processors.values()):
            return self
        flat = Dataflow(self.name, self.inputs, self.outputs)
        # Map from original boundary ports to their flattened replacements.
        source_alias: Dict[PortRef, PortRef] = {}
        sink_targets: Dict[PortRef, List[PortRef]] = {}
        passthrough: Dict[PortRef, PortRef] = {}
        for processor in self._processors.values():
            if not processor.is_subflow:
                flat.add_processor(
                    Processor(
                        processor.name,
                        processor.inputs,
                        processor.outputs,
                        operation=processor.operation,
                        iteration=processor.iteration,
                        config=processor.config,
                    )
                )
                continue
            subflow = processor.subflow.flattened(separator)
            assert subflow is not None
            prefix = processor.name + separator
            for inner in subflow.processors:
                flat.add_processor(
                    Processor(
                        prefix + inner.name,
                        inner.inputs,
                        inner.outputs,
                        operation=inner.operation,
                        iteration=inner.iteration,
                        config=inner.config,
                    )
                )
            # Re-route arcs internal to the subflow.
            for arc in subflow.arcs:
                src, snk = arc.source, arc.sink
                if src.node == subflow.name and snk.node == subflow.name:
                    # Input->output passthrough within the subflow: the
                    # host's output is fed by whatever feeds the host input.
                    passthrough[PortRef(processor.name, snk.port)] = PortRef(
                        processor.name, src.port
                    )
                    continue
                if src.node == subflow.name:
                    # Subflow input port feeds an internal processor: the
                    # host processor's input port becomes the sink's source.
                    sink_targets.setdefault(
                        PortRef(processor.name, src.port), []
                    ).append(PortRef(prefix + snk.node, snk.port))
                elif snk.node == subflow.name:
                    # Internal processor feeds a subflow output port: expose
                    # it as the host processor's output port alias.
                    source_alias[PortRef(processor.name, snk.port)] = PortRef(
                        prefix + src.node, src.port
                    )
                else:
                    flat.add_arc(
                        PortRef(prefix + src.node, src.port),
                        PortRef(prefix + snk.node, snk.port),
                    )
        subflow_hosts = {
            p.name for p in self._processors.values() if p.is_subflow
        }

        def resolve_source(ref: PortRef) -> Optional[PortRef]:
            # Chase subflow-output aliases and passthroughs until a real
            # flat source (or a dead end) is reached.
            seen = set()
            while ref.node in subflow_hosts:
                if ref in seen:
                    return None  # passthrough cycle through dead ends
                seen.add(ref)
                if ref in source_alias:
                    return source_alias[ref]
                if ref in passthrough:
                    host_input = passthrough[ref]
                    outer = self.incoming_arc(host_input)
                    if outer is None:
                        return None  # host input itself is unconnected
                    ref = outer.source
                    continue
                return None  # subflow output with no internal producer
            return ref

        for arc in self._arcs:
            source = resolve_source(arc.source)
            if source is None:
                continue
            if arc.sink.node in subflow_hosts:
                sinks = sink_targets.get(arc.sink, [])  # drop dead inputs
            else:
                sinks = [arc.sink]
            for sink in sinks:
                flat.add_arc(source, sink)
        return flat

    def __repr__(self) -> str:
        return (
            f"Dataflow({self.name!r}, processors={len(self._processors)}, "
            f"arcs={len(self._arcs)})"
        )
