"""Graph traversal utilities over dataflow specifications.

Alg. 1 requires processors sorted by data dependency before depths can be
propagated; lineage traversal needs upstream navigation from ports.  Both
live here so the model module stays free of algorithms.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.workflow.model import Dataflow, PortRef, Processor, WorkflowError


def processor_dependencies(flow: Dataflow) -> Dict[str, Set[str]]:
    """Map each processor to the set of processors it depends on.

    Workflow-level input ports are not processors and are excluded; an arc
    from a workflow input contributes no dependency edge.
    """
    deps: Dict[str, Set[str]] = {p.name: set() for p in flow.processors}
    for arc in flow.arcs:
        if arc.sink.node in deps and arc.source.node in deps:
            deps[arc.sink.node].add(arc.source.node)
    return deps


def topological_sort(flow: Dataflow) -> List[Processor]:
    """Processors in dependency order (Kahn's algorithm, stable).

    Ties are broken by insertion order so results are deterministic, which
    keeps trace event ordering and test output reproducible.  Raises
    :class:`WorkflowError` on cyclic dataflows — the model is acyclic by
    definition (Section 2.4 calls the provenance graph a DAG).
    """
    deps = processor_dependencies(flow)
    remaining_in = {name: len(d) for name, d in deps.items()}
    dependents: Dict[str, List[str]] = {name: [] for name in deps}
    for name, d in deps.items():
        for upstream in d:
            dependents[upstream].append(name)
    ready = deque(name for name in flow.processor_names if remaining_in[name] == 0)
    ordered: List[Processor] = []
    while ready:
        name = ready.popleft()
        ordered.append(flow.processor(name))
        for downstream in dependents[name]:
            remaining_in[downstream] -= 1
            if remaining_in[downstream] == 0:
                ready.append(downstream)
    if len(ordered) != len(flow.processors):
        cyclic = sorted(n for n, k in remaining_in.items() if k > 0)
        raise WorkflowError(f"dataflow {flow.name!r} has a cycle through {cyclic}")
    return ordered


def upstream_ports(flow: Dataflow, ref: PortRef) -> List[PortRef]:
    """Ports one step upstream of ``ref`` in the specification graph.

    * For a processor *output* port (or a workflow output port): the
      processor's input ports (resp. the port feeding the workflow output).
    * For a processor *input* port: the source of its incoming arc, if any.
    """
    if ref.node == flow.name:
        # Workflow output port: follow its incoming arc.
        arc = flow.incoming_arc(ref)
        return [arc.source] if arc else []
    processor = flow.processor(ref.node)
    if processor.has_output(ref.port):
        return [PortRef(processor.name, p.name) for p in processor.inputs]
    arc = flow.incoming_arc(ref)
    return [arc.source] if arc else []


def reachable_upstream(flow: Dataflow, start: PortRef) -> Set[PortRef]:
    """All ports reachable by repeated upstream steps from ``start``."""
    seen: Set[PortRef] = set()
    frontier = [start]
    while frontier:
        ref = frontier.pop()
        if ref in seen:
            continue
        seen.add(ref)
        frontier.extend(upstream_ports(flow, ref))
    return seen


def upstream_processors(flow: Dataflow, start: PortRef) -> FrozenSet[str]:
    """Processors whose *outputs* lie on some dataflow path into ``start``.

    Exactly the processors whose input bindings a lineage traversal from
    ``start`` can ever surface: both NI (Def. 1) and INDEXPROJ (Alg. 2)
    collect input bindings only when they pass *through* a processor via
    one of its output ports — the producing side of
    :func:`reachable_upstream`, which steps exactly as ``build_plan``
    does with the index bookkeeping stripped out.
    """
    return frozenset(
        ref.node
        for ref in reachable_upstream(flow, start)
        if ref.node != flow.name
        and flow.processor(ref.node).has_output(ref.port)
    )


def paths_between(
    flow: Dataflow, source_node: str, sink_node: str
) -> List[List[str]]:
    """All processor-level simple paths from ``source_node`` to ``sink_node``.

    Used by the benchmark harness to confirm the synthetic testbed's two
    chains have the intended length.
    """
    adjacency: Dict[str, Set[str]] = {p.name: set() for p in flow.processors}
    for arc in flow.arcs:
        if arc.source.node in adjacency and arc.sink.node in adjacency:
            adjacency[arc.source.node].add(arc.sink.node)
    results: List[List[str]] = []

    def walk(node: str, path: List[str]) -> None:
        if node == sink_node:
            results.append(path + [node])
            return
        for nxt in sorted(adjacency.get(node, ())):
            if nxt not in path:
                walk(nxt, path + [node])

    walk(source_node, [])
    return results


def arc_count_into(flow: Dataflow, node: str) -> int:
    """Number of arcs whose sink belongs to ``node``."""
    return len(flow.arcs_into_processor(node))


def graph_size(flow: Dataflow) -> Tuple[int, int]:
    """``(nodes, arcs)`` — the figure the paper reports on the x-axis of Fig. 8."""
    return len(flow.processors), len(flow.arcs)
