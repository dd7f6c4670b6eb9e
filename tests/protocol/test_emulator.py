"""Tests for the trace-driven protocol emulator."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.rng import DeterministicRng
from repro.common.types import MessageKind
from repro.protocol.emulator import ProtocolEmulator
from repro.protocol.epochs import BlockScript, ReadEpoch, WriteEpoch
from repro.trace import KIND_TO_CODE
from tests.protocol.reference_emulator import reference_events, reference_stats
from tests.strategies.settings import DETERMINISM_SETTINGS


def emulate(script, seed=0):
    return ProtocolEmulator(DeterministicRng(seed)).messages_for(script)


def kinds(messages):
    return [m.kind for m in messages]


class TestBasicSequences:
    def test_cold_write_then_reads(self):
        script = BlockScript(block=1)
        script.append(WriteEpoch(writer=3))
        script.append(ReadEpoch(readers=(1, 2)))
        messages = emulate(script)
        assert kinds(messages) == [
            MessageKind.WRITE,       # cold write
            MessageKind.READ,        # first reader
            MessageKind.WRITEBACK,   # recalls the writable copy
            MessageKind.READ,        # second reader, now clean
        ]

    def test_steady_producer_consumer_cycle(self, producer_consumer_script):
        messages = emulate(producer_consumer_script)
        # Steady-state iteration: WRITE + two acks, then the first read
        # recalls the writable copy (writeback) and the second read
        # finds the block clean — exactly the paper's Figure 1 flow.
        assert kinds(messages[-6:]) == [
            MessageKind.WRITE,
            MessageKind.ACK,
            MessageKind.ACK,
            MessageKind.READ,
            MessageKind.WRITEBACK,
            MessageKind.READ,
        ]

    def test_migratory_visits(self, migratory_script):
        messages = emulate(migratory_script)
        # Steady migratory visit = READ + WRITEBACK + UPGRADE.
        tail = kinds(messages[-3:])
        assert tail == [
            MessageKind.READ,
            MessageKind.WRITEBACK,
            MessageKind.UPGRADE,
        ]

    def test_rereads_are_silent(self):
        script = BlockScript(block=1)
        script.append(ReadEpoch(readers=(1,)))
        script.append(ReadEpoch(readers=(1,)))
        messages = emulate(script)
        assert kinds(messages) == [MessageKind.READ]

    def test_upgrade_by_sole_sharer_has_no_acks(self):
        script = BlockScript(block=1)
        script.append(ReadEpoch(readers=(4,)))
        script.append(WriteEpoch(writer=4))
        messages = emulate(script)
        assert kinds(messages) == [MessageKind.READ, MessageKind.UPGRADE]


class TestAckSemantics:
    def _acks_for_iteration(self, racy_acks, seed):
        script = BlockScript(block=1)
        for _ in range(30):
            script.append(WriteEpoch(writer=0))
            script.append(
                ReadEpoch(readers=(1, 2, 3, 4), racy_acks=racy_acks)
            )
        messages = emulate(script, seed=seed)
        rounds = []
        current = []
        for message in messages:
            if message.kind is MessageKind.ACK:
                current.append(message.node)
            elif current:
                rounds.append(tuple(current))
                current = []
        return rounds

    def test_stable_acks_arrive_in_fullmap_order(self):
        for ack_round in self._acks_for_iteration(racy_acks=False, seed=3):
            assert list(ack_round) == sorted(ack_round)

    def test_racy_acks_get_permuted_sometimes(self):
        rounds = self._acks_for_iteration(racy_acks=True, seed=3)
        assert any(list(r) != sorted(r) for r in rounds)

    def test_ack_count_matches_invalidated_sharers(self):
        script = BlockScript(block=1)
        script.append(ReadEpoch(readers=(1, 2, 3)))
        script.append(WriteEpoch(writer=0))
        messages = emulate(script)
        acks = [m for m in messages if m.kind is MessageKind.ACK]
        assert sorted(a.node for a in acks) == [1, 2, 3]


class TestReadRaces:
    def test_racy_reads_get_permuted(self):
        script = BlockScript(block=1)
        for _ in range(30):
            script.append(WriteEpoch(writer=0))
            script.append(ReadEpoch(readers=(1, 2, 3, 4), racy=True))
        messages = emulate(script, seed=11)
        orders = []
        current = []
        for message in messages:
            if message.kind is MessageKind.READ:
                current.append(message.node)
            elif message.kind is MessageKind.WRITE and current:
                orders.append(tuple(current))
                current = []
        assert len(set(orders)) > 1  # different orders across iterations

    def test_non_racy_reads_keep_canonical_order(self):
        script = BlockScript(block=1)
        for _ in range(10):
            script.append(WriteEpoch(writer=0))
            script.append(ReadEpoch(readers=(4, 2, 3)))
        messages = emulate(script, seed=11)
        reads = [m.node for m in messages if m.kind is MessageKind.READ]
        assert reads == [4, 2, 3] * 10

    def test_determinism_per_block_seed(self, producer_consumer_script):
        a = emulate(producer_consumer_script, seed=5)
        b = emulate(producer_consumer_script, seed=5)
        assert a == b


# ----------------------------------------------------------------------
# property: the emulated stream always respects protocol causality
# ----------------------------------------------------------------------
epochs_strategy = st.lists(
    st.one_of(
        st.builds(WriteEpoch, writer=st.integers(0, 5)),
        st.builds(
            ReadEpoch,
            readers=st.lists(
                st.integers(0, 5), min_size=1, max_size=4, unique=True
            ).map(tuple),
            racy=st.booleans(),
            racy_acks=st.booleans(),
        ),
    ),
    max_size=40,
)


@settings(max_examples=60)
@given(epochs_strategy, st.integers(0, 2**16))
def test_stream_wellformedness(epochs, seed):
    """Acks/writebacks only ever follow a triggering request."""
    script = BlockScript(block=9, epochs=epochs)
    messages = emulate(script, seed=seed)
    writers = set()
    readers = set()
    for message in messages:
        if message.kind is MessageKind.WRITEBACK:
            assert message.node in writers, "writeback from a non-writer"
        elif message.kind is MessageKind.ACK:
            assert message.node in readers, "ack from a non-reader"
        elif message.kind in (MessageKind.WRITE, MessageKind.UPGRADE):
            writers.add(message.node)
        elif message.kind is MessageKind.READ:
            readers.add(message.node)


@settings(max_examples=60)
@given(epochs_strategy, st.integers(0, 2**16))
def test_request_count_never_exceeds_accesses(epochs, seed):
    script = BlockScript(block=9, epochs=epochs)
    messages = emulate(script, seed=seed)
    accesses = sum(
        len(e.readers) if isinstance(e, ReadEpoch) else 1 for e in epochs
    )
    requests = sum(1 for m in messages if m.is_request)
    assert requests <= accesses


@DETERMINISM_SETTINGS
@given(
    st.lists(epochs_strategy, min_size=1, max_size=4),
    st.integers(0, 2**16),
)
# The writer is the only racy-ack sharer: its invalidations stay in
# full-map order.
@example(
    [[ReadEpoch((1, 2, 3, 4)), ReadEpoch((0,), racy_acks=True), WriteEpoch(0)]],
    1,
)
def test_compile_matches_the_directory_oracle(block_epochs, seed):
    """compile() columns and stats equal the BlockDirectory-driven loop."""
    scripts = [
        BlockScript(block=3 * index + 1, epochs=epochs)
        for index, epochs in enumerate(block_epochs)
    ]
    emulator = ProtocolEmulator(DeterministicRng(seed))
    trace = emulator.compile(scripts, num_nodes=6)
    events = reference_events(DeterministicRng(seed), scripts)
    assert trace.kinds.tolist() == [KIND_TO_CODE[m.kind] for _e, m in events]
    assert trace.nodes.tolist() == [m.node for _e, m in events]
    assert trace.blocks.tolist() == [m.block for _e, m in events]
    assert trace.epochs.tolist() == [epoch for epoch, _m in events]
    assert emulator.stats.as_dict() == reference_stats(m for _e, m in events)
