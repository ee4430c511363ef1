"""Lineage-query pre-checking on the workflow specification graph.

The INDEXPROJ premise (Section 3) is that the static graph plus the depth
analysis already knows a great deal about every possible query.  This
module exploits that *before* execution: :func:`precheck_query` resolves
the query's names, verifies that a dataflow path connects the focus set to
the query binding, and bound-checks the index against the propagated
depths (Alg. 1) — classifying the query as

``invalid``
    it references names that do not exist, or an index that no value
    reaching the port can carry (deeper than the port's propagated
    depth).  Executing it would silently return nothing; the checker
    rejects it with did-you-mean suggestions instead.
``empty``
    well-formed, but *provably* empty: no focus processor lies on any
    dataflow path upstream of the query binding (or the focus set is
    empty — both strategies only report bindings of focus processors).
    The answer is known without a single trace read.
``viable``
    everything else; execution proceeds normally.

Soundness: the upstream closure is computed on the specification graph,
which over-approximates every run's trace paths, so an *empty* verdict
can never disagree with an actual execution.  Under the paper's two
assumptions (Section 3.1) the propagated depth of a port is exactly the
depth of every value bound to it, so an over-deep index can never match
a value — the engines are lenient and silently answer for the deepest
legal prefix, while the checker rejects the query outright (a stricter,
compiler-style contract).  The differential property test
(tests/properties/test_prop_precheck.py) asserts both claims against
executions of generated workflows.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import FrozenSet, List, Sequence, Tuple

from repro.query.base import LineageQuery
from repro.workflow.depths import DepthAnalysis
from repro.workflow.model import Dataflow, PortRef, WorkflowError
from repro.workflow.visit import upstream_processors  # noqa: F401  (re-export)


class QueryValidationError(WorkflowError):
    """An *invalid* pre-checker verdict, raised on the fast-reject path.

    Carries the full :class:`PrecheckReport` so callers (CLI, service
    users) can surface the individual issues and their suggestions.
    """

    def __init__(self, report: "PrecheckReport") -> None:
        self.report = report
        details = "; ".join(issue.message for issue in report.issues)
        super().__init__(f"invalid lineage query {report.query}: {details}")


@dataclass(frozen=True)
class PrecheckIssue:
    """One finding of the pre-checker.

    ``kind`` is a stable machine-readable tag (``unknown-node``,
    ``unknown-port``, ``unknown-focus``, ``index-too-deep``);
    ``suggestions`` holds did-you-mean candidates for name issues.
    """

    kind: str
    message: str
    suggestions: Tuple[str, ...] = ()


@dataclass(frozen=True)
class PrecheckReport:
    """The pre-checker's verdict for one query: the static triage result."""

    query: LineageQuery
    verdict: str  # "invalid" | "empty" | "viable"
    issues: Tuple[PrecheckIssue, ...] = ()
    #: human-readable proof sketches for an ``empty`` verdict
    reasons: Tuple[str, ...] = ()
    #: focus processors that actually lie upstream of the binding
    reachable_focus: FrozenSet[str] = field(default_factory=frozenset)

    @property
    def is_invalid(self) -> bool:
        return self.verdict == "invalid"

    @property
    def is_empty(self) -> bool:
        return self.verdict == "empty"

    @property
    def is_viable(self) -> bool:
        return self.verdict == "viable"

    def summary(self) -> str:
        lines = [f"{self.query}: {self.verdict}"]
        for issue in self.issues:
            lines.append(f"  [{issue.kind}] {issue.message}")
            if issue.suggestions:
                lines.append(
                    "    did you mean: " + ", ".join(issue.suggestions)
                )
        for reason in self.reasons:
            lines.append(f"  because: {reason}")
        return "\n".join(lines)


def suggest_names(
    name: str, candidates: Sequence[str], limit: int = 3
) -> Tuple[str, ...]:
    """Did-you-mean candidates for a misspelled name (best first)."""
    return tuple(
        difflib.get_close_matches(name, list(candidates), n=limit, cutoff=0.5)
    )


def _resolve_binding(
    flow: Dataflow, query: LineageQuery
) -> List[PrecheckIssue]:
    """Name-resolution issues for the binding ``node:port`` (maybe empty).

    The candidate lists for did-you-mean are only built once a name has
    failed to resolve: the common case is two dict lookups.
    """
    if query.node == flow.name:
        owner = flow
    elif flow.has_processor(query.node):
        owner = flow.processor(query.node)
    else:
        return [
            PrecheckIssue(
                "unknown-node",
                f"workflow {flow.name!r} has no node {query.node!r}",
                suggest_names(query.node, [flow.name, *flow.processor_names]),
            )
        ]
    ports = [p.name for p in owner.inputs + owner.outputs]
    if query.port not in ports:
        return [
            PrecheckIssue(
                "unknown-port",
                f"node {query.node!r} has no port {query.port!r}",
                suggest_names(query.port, ports),
            )
        ]
    return []


def precheck_query(
    analysis: DepthAnalysis, query: LineageQuery
) -> PrecheckReport:
    """Triage one lineage query using only the static analysis.

    Pure function of the specification graph and the query.  The one
    graph walk it needs — the upstream-producer closure of the binding —
    is memoized on ``analysis`` (:meth:`DepthAnalysis.upstream_producers`),
    so the first query against a port costs O(|ports| + |arcs|) and every
    later one is name lookups plus one set intersection.  Never touches a
    :class:`TraceStore`.
    """
    flow = analysis.flow
    issues = _resolve_binding(flow, query)
    unknown = sorted(n for n in query.focus if not flow.has_processor(n))
    if unknown:
        known = sorted(flow.processor_names)
        issues.extend(
            PrecheckIssue(
                "unknown-focus",
                f"focus processor {name!r} is not in workflow {flow.name!r}",
                suggest_names(name, known),
            )
            for name in unknown
        )
    if issues:
        return PrecheckReport(query, "invalid", tuple(issues))

    binding = PortRef(query.node, query.port)
    depth = analysis.depth_of(binding)
    if len(query.index) > depth:
        # Under Alg. 1's assumptions every value reaching the port has
        # exactly `depth` list levels, so a deeper accessor is impossible
        # — not merely unmatched — and the query is rejected, with the
        # deepest legal prefix as the suggestion.
        prefix = query.index.head(depth).encode()
        return PrecheckReport(
            query,
            "invalid",
            (
                PrecheckIssue(
                    "index-too-deep",
                    f"index [{query.index.encode()}] has {len(query.index)} "
                    f"position(s) but values at {binding} are "
                    f"{depth}-deep lists",
                    (f"[{prefix}]",) if depth else ("[]",),
                ),
            ),
        )

    if not query.focus:
        return PrecheckReport(
            query,
            "empty",
            reasons=(
                "the focus set is empty: lineage answers contain only "
                "input bindings of focus processors",
            ),
        )
    reachable = query.focus & analysis.upstream_producers(binding)
    if not reachable:
        return PrecheckReport(
            query,
            "empty",
            reasons=(
                "no dataflow path connects any focus processor "
                f"({', '.join(sorted(query.focus))}) to the query binding "
                f"{binding}",
            ),
            reachable_focus=frozenset(),
        )
    return PrecheckReport(query, "viable", reachable_focus=reachable)
