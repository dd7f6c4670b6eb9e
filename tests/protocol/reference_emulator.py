"""The reference emulator: the protocol's message stream, message by message.

This is the emulator as first written — one
:class:`~repro.protocol.directory.BlockDirectory` per block, one
:class:`~repro.protocol.directory.Transition` per access, one
:class:`~repro.common.types.Message` per message.  It is kept as the
oracle for :meth:`repro.protocol.emulator.ProtocolEmulator.compile`,
which inlines the same transitions over columns: the two must produce
the same stream and the same per-kind counts for every script and race
seed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from repro.common.rng import DeterministicRng
from repro.common.types import Message, MessageKind, NodeId
from repro.protocol.directory import BlockDirectory
from repro.protocol.epochs import BlockScript, ReadEpoch, WriteEpoch


def script_events(
    rng: DeterministicRng, script: BlockScript
) -> list[tuple[int, Message]]:
    """``(epoch_index, message)`` pairs for one block's script."""
    rng = rng.split(f"block-{script.block}")
    directory = BlockDirectory()
    # Sharers that will acknowledge a future invalidation in racy order.
    racy_ack_members: set[NodeId] = set()
    out: list[tuple[int, Message]] = []

    def emit(epoch_index: int, kind: MessageKind, node: NodeId) -> None:
        out.append((epoch_index, Message(kind=kind, node=node, block=script.block)))

    for epoch_index, epoch in enumerate(script.epochs):
        if isinstance(epoch, ReadEpoch):
            arrival = list(epoch.readers)
            if epoch.racy and len(arrival) > 1:
                rng.shuffle(arrival)
            for reader in arrival:
                transition = directory.read(reader)
                if not transition.generated_request:
                    continue
                emit(epoch_index, MessageKind.READ, reader)
                if transition.writeback_from is not None:
                    emit(epoch_index, MessageKind.WRITEBACK, transition.writeback_from)
                if epoch.racy_acks:
                    racy_ack_members.add(reader)
        elif isinstance(epoch, WriteEpoch):
            transition = directory.write(epoch.writer)
            if not transition.generated_request:
                continue
            assert transition.request is not None
            emit(epoch_index, transition.request, epoch.writer)
            if transition.writeback_from is not None:
                emit(epoch_index, MessageKind.WRITEBACK, transition.writeback_from)
            if transition.invalidated:
                acks = list(transition.invalidated)  # full-map order
                if racy_ack_members & set(acks) and len(acks) > 1:
                    rng.shuffle(acks)
                for node in acks:
                    emit(epoch_index, MessageKind.ACK, node)
            racy_ack_members.clear()
        else:
            raise TypeError(f"unknown epoch type: {epoch!r}")
    return out


def reference_events(
    rng: DeterministicRng, scripts: Iterable[BlockScript]
) -> list[tuple[int, Message]]:
    """Every script's ``(epoch_index, message)`` pairs, block-major."""
    return [event for script in scripts for event in script_events(rng, script)]


def reference_stream(
    rng: DeterministicRng, scripts: Iterable[BlockScript]
) -> list[Message]:
    """Every script's messages, block-major."""
    return [message for _epoch, message in reference_events(rng, scripts)]


def reference_stats(messages: Iterable[Message]) -> dict[str, int]:
    """The emulator's counters for ``messages``: ``msg_<kind>`` and ``requests``."""
    counts: Counter[str] = Counter()
    for message in messages:
        counts[f"msg_{message.kind.value}"] += 1
        if message.kind.is_request:
            counts["requests"] += 1
    return dict(counts)
