"""Vectorized predictor evaluation over a :class:`CompiledTrace`.

The per-message reference predictors (:mod:`repro.predictors`) walk the
trace one Python object at a time; this module computes the *identical*
accuracy counters with batched numpy passes.  The key observation is
that a two-level predictor's pattern table always holds "the token that
followed this history the last time it occurred", so scoring reduces to
a previous-occurrence join:

1. encode each message (or VMSP event) as a small integer token,
2. pack each position's history key — its block segment followed by the
   ``depth`` preceding tokens of the same block — into one int64,
3. for every position, find the latest earlier position with the same
   key (one stable argsort); the token observed *there* is exactly the
   pattern-table entry consulted *here*,
4. compare predicted vs observed tokens in bulk.

VMSP adds an event-compilation step (read runs fold into reader
bit-vectors, exactly as ``Vmsp._close_run`` does).  Events are formed in
request-stream order, which is already the order in which the reference
predictor commits them, so the same previous-occurrence join applies to
the event stream, and individual reads are scored against their run's
predicted vector by bitmask tests.

The contract with the reference implementation is **bit-identical
accuracy counters** (observed / predicted / correct / ignored) and
pattern-table entry counts for every trace the protocol emulator can
produce; ``tests/trace/test_vectorized.py`` enforces it across all
seven applications.  :func:`evaluate_trace_reference` runs the actual
per-message predictors over the decoded trace and is both the fallback
for configurations the vectorized path does not cover (VMSP beyond 64
nodes) and the golden baseline in those tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.predictors import PREDICTOR_CLASSES
from repro.predictors.base import PredictionStats
from repro.trace.compiled import KIND_TO_CODE, CompiledTrace
from repro.common.types import MessageKind

#: Column code of READ (the one request kind VMSP folds into vectors).
_READ_CODE = KIND_TO_CODE[MessageKind.READ]

#: Widest node id a uint64 reader bitmask can represent.
_MAX_VECTOR_NODE = 63

#: Packed history keys must stay below this (they are int64).
_KEY_LIMIT = 2**63


@dataclass(frozen=True, slots=True)
class TraceEvaluation:
    """Accuracy counters and table shape from one trace pass."""

    predictor: str
    depth: int
    stats: PredictionStats
    #: Total pattern-table entries across all blocks (after flush).
    pattern_entries: int
    #: Blocks that began training (appear in the history table).
    allocated_blocks: int

    @property
    def average_pte(self) -> float:
        """Mean pattern-table entries per allocated block (Table 4)."""
        if not self.allocated_blocks:
            return 0.0
        return self.pattern_entries / self.allocated_blocks


# ----------------------------------------------------------------------
# the previous-occurrence join
# ----------------------------------------------------------------------
def _history_join(
    ordinals: np.ndarray,
    positions: np.ndarray,
    tokens: np.ndarray,
    radix: int,
    depth: int,
) -> tuple[np.ndarray, int]:
    """The previous-occurrence join behind two-level scoring.

    ``ordinals``/``positions`` place each token in its block segment;
    ``tokens`` are integers below ``radix``.  Returns
    ``(entry_source, pattern_entries)`` where ``entry_source[i]`` is the
    position whose token is the pattern-table entry consulted at
    position ``i`` (-1 when the history is still short or the table has
    no entry — both UNPREDICTED).  Positions with fewer than ``depth``
    predecessors in their block neither consult nor populate the table,
    mirroring ``DirectoryPredictor._score/_learn``.

    Each history key — the segment ordinal followed by the ``depth``
    preceding tokens — is packed into one int64.  When the next
    multiply could overflow, the partial key is re-ranked to dense ids
    first (only unusually deep histories or wide systems get there).
    One stable argsort then puts equal keys next to each other in index
    order: each element's predecessor in its run is its previous
    occurrence, and the number of runs is the pattern-table size.
    """
    entry_source = np.full(tokens.shape[0], -1, dtype=np.int64)
    valid = np.flatnonzero(positions >= depth)
    if not valid.size:
        return entry_source, 0
    key = ordinals[valid]
    span = int(key[-1]) + 1  # ordinals ascend, so the last is the largest
    for back in range(1, depth + 1):
        if span * radix > _KEY_LIMIT:
            _, key = np.unique(key, return_inverse=True)
            span = int(key.max()) + 1
        key = key * radix + tokens[valid - back]
        span *= radix
    order = np.argsort(key, kind="stable")
    sorted_keys = key[order]
    same = sorted_keys[1:] == sorted_keys[:-1]
    entry_source[valid[order[1:][same]]] = valid[order[:-1][same]]
    return entry_source, int(valid.size - same.sum())


def _empty(name: str, depth: int, ignored: int) -> TraceEvaluation:
    return TraceEvaluation(
        predictor=name,
        depth=depth,
        stats=PredictionStats(ignored=ignored),
        pattern_entries=0,
        allocated_blocks=0,
    )


# ----------------------------------------------------------------------
# flat evaluators (Cosmos, MSP)
# ----------------------------------------------------------------------
def _evaluate_flat(
    name: str, depth: int, trace: CompiledTrace, ignored: int
) -> TraceEvaluation:
    if len(trace) == 0:
        return _empty(name, depth, ignored)
    # Token = kind * radix_nodes + node: small, dense enough, no rank step.
    radix_nodes = int(trace.nodes.max()) + 1
    tokens = trace.kinds.astype(np.int64) * radix_nodes + trace.nodes
    entry_source, pattern_entries = _history_join(
        trace.segment_ordinals,
        trace.segment_positions,
        tokens,
        (int(trace.kinds.max()) + 1) * radix_nodes,
        depth,
    )
    scored = np.flatnonzero(entry_source >= 0)
    correct = int((tokens[entry_source[scored]] == tokens[scored]).sum())
    stats = PredictionStats(
        observed=len(trace),
        predicted=int(scored.shape[0]),
        correct=correct,
        ignored=ignored,
    )
    return TraceEvaluation(
        predictor=name,
        depth=depth,
        stats=stats,
        pattern_entries=pattern_entries,
        allocated_blocks=trace.block_count(),
    )


def _evaluate_cosmos(trace: CompiledTrace, depth: int) -> TraceEvaluation:
    return _evaluate_flat("Cosmos", depth, trace, ignored=0)


def _evaluate_msp(trace: CompiledTrace, depth: int) -> TraceEvaluation:
    requests = trace.requests
    return _evaluate_flat(
        "MSP", depth, requests, ignored=len(trace) - len(requests)
    )


# ----------------------------------------------------------------------
# VMSP: event compilation + vector-aware read scoring
# ----------------------------------------------------------------------
def _evaluate_vmsp(trace: CompiledTrace, depth: int) -> TraceEvaluation:
    requests = trace.requests
    ignored = len(trace) - len(requests)
    if len(requests) == 0:
        return _empty("VMSP", depth, ignored)
    nodes = requests.nodes.astype(np.uint64)
    if int(nodes.max()) > _MAX_VECTOR_NODE:
        # Reader bitmasks are uint64; wider systems take the reference
        # path (correct, just not vectorized).
        return evaluate_trace_reference(trace, "VMSP", depth)

    # --- the event stream, in trace order -----------------------------
    # Per block, the reference predictor's history evolves as:
    #   [V_0] W_0  [V_1] W_1 ... [V_trailing(flush)]
    # i.e. a read run's vector commits immediately before the write that
    # closes it (or at flush for a trailing run).  That is the order in
    # which the events *start* in the request stream, so each write, and
    # each maximal run of reads within a block, is one event.
    is_write = requests.kinds != _READ_CODE
    block_start = requests.segment_positions == 0
    start = is_write | block_start
    start[1:] |= is_write[:-1]
    event_starts = np.flatnonzero(start)
    event_of = np.cumsum(start) - 1
    # A read contributes its reader bit, a write its (kind, node) code.
    codes = requests.kinds.astype(np.uint64) * np.uint64(_MAX_VECTOR_NODE + 1)
    values = np.where(is_write, codes + nodes, np.uint64(1) << nodes)
    event_values = np.bitwise_or.reduceat(values, event_starts)
    is_vector = ~is_write[event_starts]
    distinct, ranks = np.unique(event_values, return_inverse=True)
    event_tokens = ranks * 2 + is_vector

    event_ordinals = requests.segment_ordinals[event_starts]
    first_event = np.flatnonzero(block_start[event_starts])
    event_positions = np.arange(event_starts.shape[0]) - first_event[event_ordinals]
    entry_source, pattern_entries = _history_join(
        event_ordinals, event_positions, event_tokens, 2 * distinct.shape[0], depth
    )

    # --- score every request against its event's table entry ----------
    # A write is an ordinary two-level token comparison.  Every read in
    # a run is scored against the entry its block's history selected at
    # run start — the entry the run's own vector event sees, since
    # nothing learns mid-run — and is correct when that entry is a
    # vector holding the reader.
    source = entry_source[event_of]
    hit = np.flatnonzero(source >= 0)
    source = source[hit]
    predicted_tokens = event_tokens[source]
    in_vector = (predicted_tokens & 1).astype(bool) & (
        (event_values[source] >> nodes[hit]) & np.uint64(1)
    ).astype(bool)
    correct = np.where(
        is_write[hit], predicted_tokens == event_tokens[event_of[hit]], in_vector
    )
    # "node not in run": only a node's first read of its run can be
    # correct (the reference tracks the open run as a set).  Emulator
    # traces never repeat a reader within a run — every run's popcount
    # equals its length — but the check is part of the scoring contract.
    reads = int((~is_write).sum())
    if int(np.bitwise_count(event_values[is_vector]).sum()) < reads:
        # A write is alone in its event, so only reads can repeat a key.
        reader = event_of * (_MAX_VECTOR_NODE + 1) + requests.nodes
        order = np.argsort(reader, kind="stable")
        repeat = np.zeros(len(requests), dtype=bool)
        repeat[order[1:]] = reader[order[1:]] == reader[order[:-1]]
        correct &= ~repeat[hit]

    stats = PredictionStats(
        observed=len(requests),
        predicted=int(hit.shape[0]),
        correct=int(correct.sum()),
        ignored=ignored,
    )
    return TraceEvaluation(
        predictor="VMSP",
        depth=depth,
        stats=stats,
        pattern_entries=pattern_entries,
        allocated_blocks=requests.block_count(),
    )


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
_EVALUATORS = {
    "Cosmos": _evaluate_cosmos,
    "MSP": _evaluate_msp,
    "VMSP": _evaluate_vmsp,
}


def evaluate_trace(
    trace: CompiledTrace, predictor: str, depth: int = 1
) -> TraceEvaluation:
    """Evaluate one predictor over a compiled trace, vectorized.

    Produces counters bit-identical to feeding the decoded message
    stream through the per-message reference predictor.
    """
    if depth < 1:
        raise ValueError("history depth must be >= 1")
    try:
        evaluator = _EVALUATORS[predictor]
    except KeyError:
        known = ", ".join(sorted(_EVALUATORS))
        raise ValueError(
            f"unknown predictor {predictor!r} (known: {known})"
        ) from None
    return evaluator(trace, depth)


def evaluate_trace_reference(
    trace: CompiledTrace, predictor: str, depth: int = 1
) -> TraceEvaluation:
    """The same evaluation through the per-message reference objects.

    This is the golden baseline the equivalence tests compare
    :func:`evaluate_trace` against, and the fallback for configurations
    the vectorized path does not cover.
    """
    instance = PREDICTOR_CLASSES[predictor](depth=depth)
    for message in trace.to_messages():
        instance.observe(message)
    flush = getattr(instance, "flush", None)
    if flush is not None:
        flush()
    allocated = instance.allocated_blocks()
    pattern_entries = sum(
        instance.pattern_entry_count(block) for block in allocated
    )
    return TraceEvaluation(
        predictor=predictor,
        depth=depth,
        stats=instance.stats,
        pattern_entries=pattern_entries,
        allocated_blocks=len(allocated),
    )
