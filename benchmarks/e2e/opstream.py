"""Seeded op streams: what each workload asks, in which order.

A stream is a finite list of :class:`Op` drawn from ``--seed`` before any
timed window opens; the program under test sees only the ops.  Workers
walk the list cyclically from their own offsets, so a stream is sized for
its distribution (enough draws to represent it), not for the run length.

Working-set size relative to the caches is set here and only here:

* ``point``  — Zipf(1.1) over 2 000 keys per tenant, 8x the 256-entry
  result cache: mostly hits, some capacity misses.
* ``wide``   — eight distinct all-runs queries: always hits.
* ``unique`` — uniform over ~20 000 keys and 1 250 plan shapes: the result
  cache and the 256-plan registry miss by construction.
* ``mixed``  — Zipf over 64 keys with explicit run scope, 10% aimed at
  whatever run the writer acknowledged last.

Class mixes (tenant, focused or not, one run or a window, latest run or
not) are *stratified*: every block of ten ops holds exactly its share of
each class, shuffled.  Independent coin flips would let the realised mix
drift by a few percent with the seed, and with it every median that sits
between two classes.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from corpora import SYN_LIST_SIZE, WORKFLOWS

#: ``Op.runs`` placeholder resolved at execution time to the run the
#: writer acknowledged most recently (mixed-ingest only).
LATEST = "@latest"

STREAM_LENGTH = 24_000
ZIPF_S = 1.1
POINT_KEYS_PER_TENANT = 2000
MIXED_KEYS = 64
#: Consecutive runs in a windowed scope of the ``unique`` stream.
UNIQUE_WINDOW = 4
#: ``ListSize`` of the small runs the mixed-phase writer ingests.
MIXED_WRITE_LIST_SIZE = 5


@dataclass(frozen=True)
class Op:
    #: Corpus tag — the HTTP tenant; informational in-process.
    tenant: str
    #: The paper's ``lin(<node:port[index]>, {focus})`` text.
    query: str
    #: Explicit run scope, or ``None`` for every stored run.
    runs: Optional[Tuple[str, ...]]


def digest(ops: Sequence[Op]) -> str:
    """Identity of a stream: same seed -> same digest."""
    h = hashlib.sha256()
    for op in ops:
        h.update(repr((op.tenant, op.query, op.runs)).encode("utf-8"))
    return h.hexdigest()


def zipf_ranks(rng: random.Random, n: int, s: float, k: int) -> List[int]:
    """``k`` ranks in ``[0, n)`` with P(rank r) proportional to 1/(r+1)^s."""
    cumulative = list(
        itertools.accumulate(1.0 / (r + 1) ** s for r in range(n))
    )
    return rng.choices(range(n), cum_weights=cumulative, k=k)


def stratified(rng: random.Random, block: Sequence[object], length: int) -> List:
    """``length`` class labels: ``block`` repeated, shuffled within each copy."""
    out: List = []
    while len(out) < length:
        chunk = list(block)
        rng.shuffle(chunk)
        out.extend(chunk)
    return out[:length]


def canonical_op(kind: str, tenant: str, runs: Optional[Tuple[str, ...]]) -> Op:
    """The fixed, seed-independent query the cold cycle asks of a corpus."""
    target, focused = {
        "gk": ("genes2kegg:paths_per_gene[0]", "{get_pathways_by_genes}"),
        "pd": ("protein_discovery:protein_terms[0]", "{fetch_abstract}"),
        "syn": ("2TO1_FINAL:y[0.0]", "{LISTGEN_1}"),
    }[kind]
    return Op(tenant, _lin(target, focused), runs)


def _focus_sets(kind: str, focused: Sequence[str]) -> Tuple[str, str]:
    """(focused, unfocused) focus-set texts for a workflow kind."""
    flow = WORKFLOWS[kind]().flow.flattened()
    every = "{" + ", ".join(sorted(flow.processor_names)) + "}"
    return "{" + ", ".join(focused) + "}", every


def _lin(target: str, focus: str) -> str:
    return f"lin(<{target}>, {focus})"


def _gk_targets() -> List[str]:
    # Every gene maps to three pathways, so these indices exist in every run.
    targets = ["genes2kegg:paths_per_gene[0]", "genes2kegg:paths_per_gene[1]"]
    targets += [
        f"genes2kegg:paths_per_gene[{i}.{j}]" for i in (0, 1) for j in (0, 1, 2)
    ]
    targets += ["genes2kegg:commonPathways[0]", "getPathwayDescriptions:return[0]"]
    return targets


def _pd_targets() -> List[str]:
    ports = [
        "protein_discovery:protein_terms", "extract_proteins:terms",
        "normalize_29:y", "normalize_14:y",
    ]
    return [f"{port}[{i}]" for port in ports for i in range(8)]


_POINT_SPEC = {
    "gk": (_gk_targets, ("get_pathways_by_genes",)),
    "pd": (_pd_targets, ("fetch_abstract",)),
}


def _point_universe(
    rng: random.Random, kind: str, run_ids: Sequence[str], size: int
) -> List[Tuple[str, str]]:
    """``size`` distinct (run, query text) pairs, hottest first."""
    make_targets, focused = _POINT_SPEC[kind]
    focus_texts = _focus_sets(kind, focused)
    pairs = [
        (run, _lin(target, focus))
        for run in run_ids
        for target in make_targets()
        for focus in focus_texts
    ]
    return rng.sample(pairs, min(size, len(pairs)))


def point_stream(
    seed: int, tenants: Dict[str, Tuple[str, Sequence[str]]],
    length: int = STREAM_LENGTH,
) -> List[Op]:
    """Single-run queries, Zipf over each tenant's key universe.

    ``tenants`` maps tenant -> (workflow kind, run ids).
    """
    rng = random.Random(f"point-{seed}")
    names = sorted(tenants)
    universes = {
        name: _point_universe(
            rng, tenants[name][0], tenants[name][1], POINT_KEYS_PER_TENANT
        )
        for name in names
    }
    ranks = {
        name: iter(zipf_ranks(rng, len(universes[name]), ZIPF_S, length))
        for name in names
    }
    ops: List[Op] = []
    for tenant in stratified(rng, names, length):
        run, query = universes[tenant][next(ranks[tenant])]
        ops.append(Op(tenant, query, (run,)))
    return ops


def wide_stream(
    seed: int, tenants: Dict[str, str], length: int = STREAM_LENGTH
) -> List[Op]:
    """All-runs queries: four per tenant, uniform. ``tenants``: tag -> kind."""
    rng = random.Random(f"wide-{seed}")
    per_tenant: Dict[str, List[str]] = {}
    for name, kind in sorted(tenants.items()):
        make_targets, focused = _POINT_SPEC[kind]
        targets = make_targets()[:2]
        per_tenant[name] = [
            _lin(target, focus)
            for target in targets
            for focus in _focus_sets(kind, focused)
        ]
    ops: List[Op] = []
    for tenant in stratified(rng, sorted(per_tenant), length):
        ops.append(Op(tenant, rng.choice(per_tenant[tenant]), None))
    return ops


def unique_stream(
    seed: int, run_ids: Sequence[str], length: int = STREAM_LENGTH
) -> List[Op]:
    """Uniform index; 60% focused; 70% one run / 30% a window of four.

    Focused queries take ~1.3 ms and unfocused ones 2.8 ms or more, with
    nothing in between: at 50/50 the median would sit on that cliff and
    flip sides with the seed, so the focused class gets the majority and
    the median stays inside it.
    """
    rng = random.Random(f"unique-{seed}")
    focused, every = _focus_sets("syn", ("LISTGEN_1",))
    windows = max(1, len(run_ids) - UNIQUE_WINDOW + 1)
    # (focused?, windowed?) per block of ten: 4 + 2 focused, 3 + 1 unfocused.
    block = (
        [(True, False)] * 4 + [(True, True)] * 2
        + [(False, False)] * 3 + [(False, True)]
    )
    ops: List[Op] = []
    for is_focused, is_window in stratified(rng, block, length):
        a, b = rng.randrange(SYN_LIST_SIZE), rng.randrange(SYN_LIST_SIZE)
        if is_window:
            first = rng.randrange(windows)
            runs: Tuple[str, ...] = tuple(run_ids[first:first + UNIQUE_WINDOW])
        else:
            runs = (rng.choice(run_ids),)
        focus = focused if is_focused else every
        ops.append(Op("syn", _lin(f"2TO1_FINAL:y[{a}.{b}]", focus), runs))
    return ops


def mixed_stream(
    seed: int, run_ids: Sequence[str], length: int = STREAM_LENGTH
) -> List[Op]:
    """Reads beside a writer: Zipf over 64 keys, 10% at the latest run."""
    rng = random.Random(f"mixed-{seed}")
    focused, _every = _focus_sets("syn", ("LISTGEN_1",))
    small = MIXED_WRITE_LIST_SIZE  # valid in the writer's small runs too

    def target() -> str:
        return f"2TO1_FINAL:y[{rng.randrange(small)}.{rng.randrange(small)}]"

    keys = [(rng.choice(run_ids), target()) for _ in range(MIXED_KEYS)]
    ranks = iter(zipf_ranks(rng, len(keys), ZIPF_S, length))
    ops: List[Op] = []
    for at_latest in stratified(rng, [True] + [False] * 9, length):
        if at_latest:
            ops.append(Op("syn", _lin(target(), focused), (LATEST,)))
        else:
            run, tgt = keys[next(ranks)]
            ops.append(Op("syn", _lin(tgt, focused), (run,)))
    return ops
