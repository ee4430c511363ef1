"""The Dataflow adjacency indexes equal a brute-force scan of ``flow.arcs``.

``add_arc`` maintains four indexes (arc by sink, arcs by source, arcs
into / out of a processor) so the accessors are dict lookups.  The
contract is "no behaviour change": same arcs, same order, same errors as
the linear scans they replaced — checked here against those scans,
written out as the reference, over random workflows and over a nested
workflow whose flat copy is built by ``flattened()``.
"""

from __future__ import annotations

import pytest

from repro.workflow.builder import DataflowBuilder
from repro.workflow.model import PortRef, WorkflowError

from tests.conftest import make_random_workflow
from tests.workflow.test_flatten_nested import make_host


def _nested_fanout_flow():
    """A subflow host whose input fans out inside the subflow, beside a
    plain processor — exercises every re-routing branch of flattened()."""
    sub = (
        DataflowBuilder("sub")
        .input("a", "string")
        .output("b", "string")
        .output("c", "string")
        .processor("left", inputs=[("x", "string")], outputs=[("y", "string")],
                   operation="tag", config={"suffix": "-l"})
        .processor("right", inputs=[("x", "string")], outputs=[("y", "string")],
                   operation="tag", config={"suffix": "-r"})
        .arcs(
            ("sub:a", "left:x"),
            ("sub:a", "right:x"),
            ("left:y", "sub:b"),
            ("right:y", "sub:c"),
        )
        .build()
    )
    return (
        DataflowBuilder("wf")
        .input("v", "string")
        .output("w", "string")
        .output("z", "string")
        .processor("pre", inputs=[("x", "string")], outputs=[("y", "string")],
                   operation="tag", config={"suffix": "-pre"})
        .processor("H", inputs=[("a", "string")],
                   outputs=[("b", "string"), ("c", "string")], subflow=sub)
        .arcs(
            ("wf:v", "pre:x"),
            ("pre:y", "H:a"),
            ("H:b", "wf:w"),
            ("H:c", "wf:z"),
        )
        .build()
    )


def _flows():
    for seed in range(40):
        yield make_random_workflow(seed, max_processors=6).flow
    for nested in (make_host(), _nested_fanout_flow()):
        flat = nested.flattened()
        assert flat is not nested
        yield nested
        yield flat


def _assert_indexes_match_scan(flow):
    arcs = flow.arcs
    for ref in flow.iter_port_refs():
        into = [arc for arc in arcs if arc.sink == ref]
        assert len(into) <= 1
        assert flow.incoming_arc(ref) == (into[0] if into else None)
        assert flow.outgoing_arcs(ref) == [
            arc for arc in arcs if arc.source == ref
        ]
    for name in (*flow.processor_names, flow.name, "no-such-node"):
        assert flow.arcs_into_processor(name) == [
            arc for arc in arcs if arc.sink.node == name
        ]
        assert flow.arcs_out_of_processor(name) == [
            arc for arc in arcs if arc.source.node == name
        ]
    assert flow.incoming_arc(PortRef("no-such-node", "p")) is None
    assert flow.outgoing_arcs(PortRef("no-such-node", "p")) == []


def test_indexed_accessors_equal_brute_force_scan():
    checked = 0
    for flow in _flows():
        _assert_indexes_match_scan(flow)
        checked += len(flow.arcs)
    assert checked > 100


def test_accessors_return_fresh_lists():
    flow = make_host().flattened()
    ref = PortRef("pre", "y")
    flow.outgoing_arcs(ref).clear()
    flow.arcs_into_processor("post").clear()
    flow.arcs_out_of_processor("pre").clear()
    _assert_indexes_match_scan(flow)
    assert flow.outgoing_arcs(ref)


def test_second_arc_into_one_sink_still_raises():
    for flow in (make_random_workflow(3).flow, make_host().flattened()):
        taken = flow.arcs[0]
        other_source = next(
            arc.source for arc in flow.arcs if arc.source != taken.source
        )
        before = flow.arcs
        with pytest.raises(WorkflowError, match="already has an incoming arc"):
            flow.add_arc(other_source, taken.sink)
        # The rejected arc left no trace in the list or in any index.
        assert flow.arcs == before
        _assert_indexes_match_scan(flow)


def test_processor_name_tables():
    for flow in _flows():
        for processor in flow.processors:
            for position, port in enumerate(processor.inputs):
                assert processor.has_input(port.name)
                assert processor.input_position(port.name) == position
            for port in processor.outputs:
                assert processor.has_output(port.name)
            assert not processor.has_input("no-such-port")
            assert not processor.has_output("no-such-port")
            with pytest.raises(WorkflowError, match="has no input port"):
                processor.input_position("no-such-port")
