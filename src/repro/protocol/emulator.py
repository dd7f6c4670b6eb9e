"""Trace-driven protocol emulator.

Turns a per-block :class:`~repro.protocol.epochs.BlockScript` into the
sequence of coherence messages the block's home directory observes.  The
sequence includes the three request kinds *and* the acknowledgement
traffic (invalidation ACKs, WRITEBACKs) that a general message predictor
such as Cosmos must also predict — together with the two race effects
the paper identifies:

* read requests inside a racy read epoch arrive in a random permutation
  (perturbs MSP; eliminated by VMSP's reader vectors), and
* invalidation acknowledgements for racy readers return in a random
  permutation (perturbs Cosmos; eliminated by MSP's request filtering).

Races are drawn from a per-block deterministic RNG stream, so results
are reproducible and independent of block iteration order.

:meth:`ProtocolEmulator.compile` is the one emulator: it runs the
:class:`~repro.protocol.directory.BlockDirectory` transitions inline,
with each block's directory state held in locals, and writes the
message columns directly.  The per-message views (:meth:`messages_for`,
:meth:`run`) decode its output.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.common.rng import DeterministicRng
from repro.common.stats import StatSet
from repro.common.types import Message
from repro.protocol.epochs import BlockScript, ReadEpoch, WriteEpoch

if TYPE_CHECKING:
    from repro.trace.compiled import CompiledTrace


class ProtocolEmulator:
    """Replays block scripts through the directory FSM."""

    def __init__(self, rng: DeterministicRng) -> None:
        self._rng = rng
        self.stats = StatSet()

    def messages_for(self, script: BlockScript) -> list[Message]:
        """The home-directory message stream for one block."""
        # Decoding reads no node count, so any value serves.
        return list(self.compile([script], num_nodes=0).to_messages())

    def run(
        self, scripts: Iterable[BlockScript]
    ) -> Iterator[tuple[int, list[Message]]]:
        """Yield ``(block, messages)`` for every script."""
        for script in scripts:
            yield script.block, self.messages_for(script)

    def compile(
        self, scripts: Iterable[BlockScript], num_nodes: int
    ) -> "CompiledTrace":
        """Compile every script's message stream into one columnar trace.

        Blocks appear in script order, each block's messages contiguous
        (block-major).  The directory follows
        :class:`~repro.protocol.directory.BlockDirectory` exactly: a
        block with an ``owner`` is Exclusive, otherwise it is Shared by
        ``sharers`` (Idle when that set is empty).

        Invalidation acknowledgements normally return in full-map order
        — the directory walks its sharer bitmap when sending
        invalidations, and with minimal queueing the responses come back
        in the same order (the paper's barnes discussion, Section 7.1).
        Sharers acquired during a ``racy_acks`` read epoch instead
        acknowledge in a random permutation.

        ``self.stats`` gains the per-kind message counts
        (``msg_<kind>``) and the request count (``requests``).
        """
        # Imported here so the protocol layer stays importable without
        # pulling numpy in (repro.trace requires it).
        import numpy as np

        from repro.trace.compiled import KIND_CODES, CompiledTrace

        READ, WRITE, UPGRADE, ACK, WRITEBACK = range(len(KIND_CODES))
        kinds: list[int] = []
        nodes: list[int] = []
        epochs: list[int] = []
        block_ids: list[int] = []
        lengths: list[int] = []
        add_kind, add_node, add_epoch = kinds.append, nodes.append, epochs.append
        split = self._rng.split
        for script in scripts:
            rng = split(f"block-{script.block}")
            start = len(kinds)
            sharers: set[int] = set()
            owner: int | None = None
            # Sharers that will acknowledge a future invalidation in racy order.
            racy_ack_members: set[int] = set()
            for epoch_index, epoch in enumerate(script.epochs):
                if isinstance(epoch, ReadEpoch):
                    arrival = list(epoch.readers)
                    if epoch.racy and len(arrival) > 1:
                        rng.shuffle(arrival)
                    for reader in arrival:
                        if owner is not None:
                            if reader == owner:
                                continue  # owner hits in its own cache
                            add_kind(READ)
                            add_node(reader)
                            add_kind(WRITEBACK)
                            add_node(owner)
                            add_epoch(epoch_index)
                            add_epoch(epoch_index)
                            sharers = {reader}
                            owner = None
                        elif reader in sharers:
                            continue  # cache hit, no message
                        else:
                            add_kind(READ)
                            add_node(reader)
                            add_epoch(epoch_index)
                            sharers.add(reader)
                        if epoch.racy_acks:
                            racy_ack_members.add(reader)
                elif isinstance(epoch, WriteEpoch):
                    writer = epoch.writer
                    if owner is not None:
                        if writer == owner:
                            continue  # silent upgrade in own cache
                        add_kind(WRITE)
                        add_node(writer)
                        add_kind(WRITEBACK)
                        add_node(owner)
                        add_epoch(epoch_index)
                        add_epoch(epoch_index)
                    else:
                        add_kind(UPGRADE if writer in sharers else WRITE)
                        add_node(writer)
                        add_epoch(epoch_index)
                        sharers.discard(writer)
                        if sharers:
                            acks = sorted(sharers)  # full-map order
                            if len(acks) > 1 and not racy_ack_members.isdisjoint(acks):
                                rng.shuffle(acks)
                            for node in acks:
                                add_kind(ACK)
                                add_node(node)
                                add_epoch(epoch_index)
                            sharers = set()
                    owner = writer
                    racy_ack_members.clear()
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown epoch type: {epoch!r}")
            block_ids.append(script.block)
            lengths.append(len(kinds) - start)

        trace = CompiledTrace.from_columns(
            kinds=kinds,
            nodes=nodes,
            blocks=np.repeat(np.asarray(block_ids, dtype=np.int64), lengths),
            epochs=epochs,
            num_nodes=num_nodes,
        )
        counts = np.bincount(trace.kinds, minlength=len(KIND_CODES)).tolist()
        stats = self.stats
        for kind, count in zip(KIND_CODES, counts):
            if count:
                stats.bump(f"msg_{kind.value}", count)
        requests = counts[READ] + counts[WRITE] + counts[UPGRADE]
        if requests:
            stats.bump("requests", requests)
        return trace
