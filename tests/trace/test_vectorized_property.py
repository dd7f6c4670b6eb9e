"""Random-trace oracle: vectorized scoring ≡ the reference predictors.

The golden suite (``test_vectorized.py``) covers traces the protocol
emulator produces.  This property draws raw block-major columns the
emulator never would — every message kind anywhere, repeated readers
within a read run, runs left open at the end of a block, 1–64 nodes and
histories up to depth 8 — and requires bit-identical counters and table
shape from :func:`evaluate_trace` and :func:`evaluate_trace_reference`
for all three predictors.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given
from hypothesis import strategies as st

from repro.common.types import MessageKind
from repro.trace import evaluate_trace, evaluate_trace_reference
from repro.trace.compiled import KIND_CODES, KIND_TO_CODE, CompiledTrace

from tests.strategies import STANDARD_SETTINGS

#: Column code of READ; weighted up so read runs form often.
_READ = KIND_TO_CODE[MessageKind.READ]


def _trace(blocks, num_nodes):
    """A trace from per-block ``(kind, node)`` lists, block-major."""
    kinds, nodes, block_ids = [], [], []
    for ordinal, messages in enumerate(blocks):
        for kind, node in messages:
            kinds.append(kind)
            nodes.append(node)
            block_ids.append(3 * ordinal + 1)
    return CompiledTrace.from_columns(
        kinds, nodes, block_ids, [0] * len(kinds), num_nodes
    )


@st.composite
def raw_traces(draw):
    num_nodes = draw(st.integers(1, 64))
    node = st.integers(0, num_nodes - 1)
    # A small reader pool makes repeated readers within a run likely.
    pool = draw(st.lists(node, min_size=1, max_size=3))
    kind = st.sampled_from((_READ, _READ) + tuple(range(len(KIND_CODES))))
    message = st.tuples(kind, st.one_of(node, st.sampled_from(pool)))
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        # A repeated period gives the tables something to predict; the
        # tail leaves a partial pattern (often an open read run) behind.
        period = draw(st.lists(message, min_size=1, max_size=6))
        tail = draw(st.lists(message, max_size=4))
        blocks.append(period * draw(st.integers(1, 5)) + tail)
    return _trace(blocks, num_nodes)


def _overflowing_trace():
    """64 nodes and all five kinds: 320 ** 8 > 2 ** 63, so a depth-8
    history key must be re-ranked before it is fully packed.  At depth
    11, 2 ** 64 divides 320 ** 11: an unchecked key would wrap the block
    ordinal away and the two identical blocks would share one table."""
    cycle = [(i % len(KIND_CODES), (13 * i) % 64) for i in range(12)]
    reads = [(_READ, 63), (_READ, 5), (1, 0)] * 6
    return _trace([cycle * 3, cycle * 3, reads], 64)


@STANDARD_SETTINGS
@given(trace=raw_traces(), depth=st.integers(1, 8))
@example(trace=_overflowing_trace(), depth=8)
@example(trace=_overflowing_trace(), depth=11)
def test_vectorized_matches_reference_on_random_traces(trace, depth):
    for predictor in ("Cosmos", "MSP", "VMSP"):
        vectorized = evaluate_trace(trace, predictor, depth)
        reference = evaluate_trace_reference(trace, predictor, depth)
        assert vectorized.stats == reference.stats, predictor
        assert vectorized.pattern_entries == reference.pattern_entries, predictor
        assert vectorized.allocated_blocks == reference.allocated_blocks, predictor
