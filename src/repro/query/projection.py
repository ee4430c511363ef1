"""The index projection rule (Def. 4, corrected — see DESIGN.md).

Prop. 1 guarantees that every *xform* event's output index ``q`` is the
concatenation ``p_1 ... p_n`` of per-input fragments with
``|p_i| = max(delta_s(X_i), 0)``.  Inverting a processor therefore reduces
to slicing ``q``: input port ``X_i`` receives the fragment that starts at
``offset_i = sum_{j<i} max(delta_s(X_j), 0)``.

(The paper's Def. 4 writes the fragment as starting at the *port position*
``i``; that contradicts Prop. 1's concatenation and the paper's own worked
example for three ports with mismatches (1, 0, 1), where the fragments are
``[h]``, ``[]``, ``[l]`` — offsets 0, 1, 1, not the port positions 0, 1, 2.
We implement the offsets dictated by Prop. 1; the static
:class:`~repro.workflow.depths.FragmentLayout` precomputes them.)

Two boundary behaviours extend the rule to *partial* query indices:

* ``len(q)`` greater than the iteration level: the excess positions address
  structure *inside* one instance's output.  Processors are black boxes, so
  that structure has no finer lineage — the excess is dropped.
* ``len(q)`` smaller than a fragment's end: the missing positions are
  unconstrained, so the fragment is clipped; a fully clipped fragment is
  the empty index, i.e. "the whole value on that port" — which is exactly
  how the paper evaluates ``lin(<P:Y[]>, ...)`` in Section 2.4.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.values.index import Index
from repro.workflow.depths import DepthAnalysis


def project_output_range(
    analysis: DepthAnalysis, processor: str, lo: int, hi: int
) -> List[Tuple[str, int, int]]:
    """The projection rule on a *position range* of the query index.

    The rule only ever slices by static offsets, so it never needs the
    positions themselves: given that the index arriving at ``processor``
    is ``q[lo:hi]`` of some query index ``q``, each input port receives
    ``q[lo':hi']`` with the bounds returned here, in port order.  Both
    boundary behaviours above are applied to the range length.  Every
    empty fragment is the same value (``[]``, the whole port), so empty
    ranges are canonicalised to ``(0, 0)`` wherever they fall.
    """
    usable = min(hi - lo, analysis.iteration_level(processor))
    ranges: List[Tuple[str, int, int]] = []
    for layout in analysis.fragment_layout(processor):
        start = min(layout.offset, usable)
        end = min(layout.offset + layout.length, usable)
        ranges.append(
            (layout.port, lo + start, lo + end)
            if end > start
            else (layout.port, 0, 0)
        )
    return ranges


def project_output_index(
    analysis: DepthAnalysis, processor: str, index: Index
) -> List[Tuple[str, Index]]:
    """Apply the projection rule at one processor.

    Returns ``(input port name, fragment)`` pairs in port order.  Works for
    both combinators: the static layout already encodes cross-product
    offsets or the shared dot fragment.  The concrete form of
    :func:`project_output_range` — the whole index is the range.
    """
    return [
        (port, index.slice(lo, hi - lo))
        for port, lo, hi in project_output_range(
            analysis, processor, 0, len(index)
        )
    ]


def uncorrected_project_output_index(
    analysis: DepthAnalysis, processor: str, index: Index
) -> List[Tuple[str, Index]]:
    """The projection rule exactly as printed in the paper's Def. 4.

    Fragments start at the *port position* ``i`` instead of the cumulative
    mismatch offset.  Kept for the erratum-demonstration test, which shows
    this variant violates Prop. 1 on the paper's own Fig. 3 example.
    """
    level = analysis.iteration_level(processor)
    usable = index.head(min(len(index), level))
    fragments: List[Tuple[str, Index]] = []
    for position, layout in enumerate(analysis.fragment_layout(processor)):
        if layout.length <= 0:
            fragments.append((layout.port, Index()))
            continue
        start = min(position, len(usable))
        end = min(position + layout.length, len(usable))
        fragments.append((layout.port, usable.slice(start, end - start)))
    return fragments
