"""Timing-level home directory: the protocol engine of one node.

Each home node owns the directory entries for its blocks and processes
requests one-at-a-time per block (queued FIFO otherwise), running the
full-map write-invalidate protocol of Figure 1 with Table 1 latencies:

* a directory/memory access costs ``local_access_cycles``;
* invalidations, writebacks, and data replies traverse the
  :class:`~repro.network.interconnect.Interconnect` (constant network
  latency plus NI serialization at the receiver);
* a remote fill costs another memory access at the requester.

When a speculation engine is attached (FR-DSM / SWI-DSM), the home asks
it for advice at the marked points and executes ordinary protocol
operations in response — speculative sends and early recalls — exactly
as Section 4.2 prescribes (no new protocol states).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from heapq import heappush

from repro.common.types import BlockId, DirectoryState, MessageKind, NodeId
from repro.protocol.directory import BlockDirectory
from repro.sim.caches import CacheState, SpeculativeEntry
from repro.speculation.engine import NO_TARGETS

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine


@dataclass(slots=True)
class MemRequest:
    """A memory request travelling from a processor to a home.

    ``on_done`` is invoked as ``on_done(*on_done_args)`` when the reply
    retires.  The reference engine's processors pass a zero-argument
    closure (``on_done_args`` stays empty); the fast engine's
    processors pass a prebound method plus its arguments, so retiring
    a request allocates nothing.
    """

    kind: str  # 'read' | 'write' | 'swi-recall'
    block: BlockId
    requester: NodeId
    on_done: Callable | None = None
    on_done_args: tuple = ()


class HomeDirectory:
    """Directory controller for all blocks homed at one node."""

    def __init__(self, node: NodeId, machine: "Machine") -> None:
        self.node = node
        self._m = machine
        self._entries: dict[BlockId, BlockDirectory] = {}
        self._busy: set[BlockId] = set()
        self._queues: dict[BlockId, deque[MemRequest]] = {}

    def entry(self, block: BlockId) -> BlockDirectory:
        if block not in self._entries:
            self._entries[block] = BlockDirectory()
        return self._entries[block]

    # ------------------------------------------------------------------
    # request intake and per-block serialization
    # ------------------------------------------------------------------
    def request(self, req: MemRequest) -> None:
        self._queues.setdefault(req.block, deque()).append(req)
        if req.block not in self._busy:
            self._begin_next(req.block)

    def _begin_next(self, block: BlockId) -> None:
        queue = self._queues.get(block)
        if not queue:
            return
        self._busy.add(block)
        req = queue.popleft()
        # Directory lookup + memory access.
        self._m.events.schedule(
            self._m.config.local_access_cycles, lambda: self._dispatch(req)
        )

    def _finish(self, block: BlockId) -> None:
        self._busy.discard(block)
        self._begin_next(block)

    # ------------------------------------------------------------------
    # transaction dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, req: MemRequest) -> None:
        if req.kind == "read":
            self._do_read(req)
        elif req.kind == "write":
            self._do_write(req)
        elif req.kind == "swi-recall":
            self._do_swi_recall(req)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown request kind {req.kind!r}")

    def _do_read(self, req: MemRequest) -> None:
        entry = self.entry(req.block)
        if entry.has_valid_copy(req.requester):
            # The requester was granted a speculative copy while this
            # request was in flight; just supply the data (the node
            # dropped the speculative message — Section 4.2).
            self._reply_data(req, exclusive=False)
            return
        transition = entry.read(req.requester)
        self._m.count_request(transition.request, req.block)
        engine = self._m.engine_for(self.node)
        fr_targets: frozenset[NodeId] = frozenset()
        migratory = False
        if engine is not None:
            fr_targets = engine.observe_read(req.block, req.requester)
            # Migratory-write extension: a read predicted to be followed
            # by the same processor's upgrade is granted exclusively.
            migratory = engine.predicts_migratory_writer(
                req.block, req.requester
            ) and entry.holders() == frozenset({req.requester})

        def complete() -> None:
            if migratory and entry.promote_sole_sharer(req.requester):
                engine.record_migratory_grant(req.block, req.requester)
                self._reply_data(req, exclusive=True)
                return
            self._forward_spec(req.block, fr_targets, origin="fr")
            self._reply_data(req, exclusive=False)

        if transition.writeback_from is not None:
            self._recall_writable(req.block, transition.writeback_from, complete)
        else:
            complete()

    def _do_write(self, req: MemRequest) -> None:
        entry = self.entry(req.block)
        if (
            entry.state is DirectoryState.EXCLUSIVE
            and entry.owner == req.requester
        ):
            # Stale request (the copy was granted while in flight).
            self._reply_data(req, exclusive=True)
            return
        transition = entry.write(req.requester)
        kind = transition.request
        assert kind is not None
        self._m.count_request(kind, req.block)
        engine = self._m.engine_for(self.node)
        if engine is not None:
            engine.observe_write(req.block, kind, req.requester)

        outstanding = len(transition.invalidated) + (
            1 if transition.writeback_from is not None else 0
        )

        def complete() -> None:
            self._reply_data(req, exclusive=True, data=kind is not MessageKind.UPGRADE)

        if outstanding == 0:
            complete()
            return
        remaining = [outstanding]

        def one_done() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                complete()

        for sharer in transition.invalidated:
            self._invalidate_sharer(req.block, sharer, one_done)
        if transition.writeback_from is not None:
            self._recall_writable(req.block, transition.writeback_from, one_done)

    # ------------------------------------------------------------------
    # SWI: early recall of a writable copy
    # ------------------------------------------------------------------
    def _do_swi_recall(self, req: MemRequest) -> None:
        """Process a done-writing hint from the writer's node.

        The hint advises recalling the writer's previous block.  It is
        ignored when the block already moved on (not exclusive at the
        writer any more) or when the block's write pattern entry is
        suppressed after an earlier premature invalidation.
        """
        entry = self.entry(req.block)
        engine = self._m.engine_for(self.node)
        if (
            engine is None
            or entry.state is not DirectoryState.EXCLUSIVE
            or entry.owner != req.requester
            or not engine.swi_allowed(req.block)
        ):
            self._finish(req.block)
            return
        recall = entry.recall()
        assert recall.writeback_from == req.requester

        def after_writeback() -> None:
            targets = engine.swi_invalidated(req.block, req.requester)
            self._forward_spec(req.block, targets, origin="swi")
            self._finish(req.block)

        self._recall_writable(req.block, req.requester, after_writeback)

    # ------------------------------------------------------------------
    # protocol sub-operations
    # ------------------------------------------------------------------
    def _invalidate_sharer(
        self, block: BlockId, sharer: NodeId, on_ack: Callable[[], None]
    ) -> None:
        """Send a read-only invalidation; collect the ack."""

        def at_sharer() -> None:
            def after_access() -> None:
                node = self._m.node(sharer)
                node.cache.invalidate(block)
                spec_entry = node.remote_cache.evict(block)

                def at_home() -> None:
                    if spec_entry is not None and not spec_entry.referenced:
                        engine = self._m.engine_for(self.node)
                        if engine is not None:
                            engine.spec_feedback(block, sharer, used=False)
                    on_ack()

                self._m.net.send(sharer, self.node, at_home)

            self._m.events.schedule(
                self._m.config.local_access_cycles, after_access
            )

        self._m.net.send(self.node, sharer, at_sharer)

    def _recall_writable(
        self, block: BlockId, owner: NodeId, done: Callable[[], None]
    ) -> None:
        """Invalidate + writeback the writable copy, then update memory."""
        engine = self._m.engine_for(self.node)
        if engine is not None:
            # A recalled migratory grant that was never written to is a
            # demotion (the grantee would have been happy with a
            # read-only copy).
            engine.migratory_recalled(block, owner)

        def at_owner() -> None:
            def after_access() -> None:
                self._m.node(owner).cache.invalidate(block)

                def at_home() -> None:
                    # Memory update with the written-back data.
                    self._m.events.schedule(
                        self._m.config.local_access_cycles, done
                    )

                self._m.net.send(owner, self.node, at_home)

            self._m.events.schedule(
                self._m.config.local_access_cycles, after_access
            )

        self._m.net.send(self.node, owner, at_owner)

    def _reply_data(
        self, req: MemRequest, exclusive: bool, data: bool = True
    ) -> None:
        """Send the reply; the transaction retires on delivery."""
        from repro.sim.caches import CacheState

        def deliver() -> None:
            node = self._m.node(req.requester)
            node.cache.set_state(
                req.block,
                CacheState.EXCLUSIVE if exclusive else CacheState.SHARED,
            )
            fill = (
                self._m.config.local_access_cycles
                if data and req.requester != self.node
                else 0
            )
            if req.on_done is not None:
                self._m.events.schedule(fill, req.on_done)
            self._finish(req.block)

        self._m.net.send(self.node, req.requester, deliver)

    # ------------------------------------------------------------------
    # speculative forwarding
    # ------------------------------------------------------------------
    def _forward_spec(
        self, block: BlockId, targets: frozenset[NodeId], origin: str
    ) -> None:
        engine = self._m.engine_for(self.node)
        if engine is None or not targets:
            return
        entry = self.entry(block)
        for target in sorted(targets):
            if not entry.grant_speculative_copy(target):
                continue
            engine.record_spec_sent(block, target, origin)
            self._m.stats.bump(f"spec_sent_{origin}")

            def deliver(target: NodeId = target) -> None:
                node = self._m.node(target)
                if node.processor.waiting_for(block):
                    # Race with an in-flight request: drop the
                    # speculative message (Section 4.2).
                    engine.spec_feedback(block, target, used=False, raced=True)
                    return
                if node.cache.can_read(block):
                    return
                node.remote_cache.place(block, origin)

            self._m.net.send(self.node, target, deliver)


class FastHomeDirectory(HomeDirectory):
    """The fast engine's home: same protocol, no per-request closures.

    The scheduling *sequence* — which events are inserted, at which
    cycles, in which order — is identical to the reference home's, so
    the golden equivalence suite holds bit-for-bit.  What differs is
    the cost per transaction:

    * every hop is a prebound method scheduled as a ``(handler, args)``
      event (:meth:`Interconnect.send_call`, :meth:`_after_access`),
      never a closure;
    * the :class:`BlockDirectory` read/write/recall transitions are
      done inline, as :meth:`ProtocolEmulator.compile` does, so no
      :class:`Transition` or holder frozenset is built per request;
    * transaction continuations are ``(handler, args)`` pairs threaded
      through the recall hops, and a write's acks join in
      ``_joins[block]``.  Per-block serialization (``_busy``) admits
      at most one transaction per block, so one slot per block is
      enough.
    """

    def __init__(self, node: NodeId, machine: "Machine") -> None:
        super().__init__(node, machine)
        # Prebind the per-event handlers once: an attribute fetch is an
        # allocation-free lookup, while ``self._method`` in a hot path
        # builds a fresh bound method per event.  Likewise flatten the
        # ``self._m.<component>.<attr>`` chases the reference home pays
        # per event into direct references; all of them are fixed for
        # the life of the machine (Machine.__init__ builds engines and
        # nodes before homes for exactly this reason).
        self._handlers = {
            "read": self._do_read,
            "write": self._do_write,
            "swi-recall": self._do_swi_recall,
        }
        self._read_complete_fn = self._read_complete
        self._write_ack_fn = self._write_ack
        self._swi_after_writeback_fn = self._swi_after_writeback
        self._after_access_fn = self._after_access
        self._deliver_reply_fn = self._deliver_reply
        self._inv_at_sharer_fn = self._inv_at_sharer
        self._inv_after_access_fn = self._inv_after_access
        self._inv_ack_at_home_fn = self._inv_ack_at_home
        self._recall_at_owner_fn = self._recall_at_owner
        self._recall_after_access_fn = self._recall_after_access
        self._deliver_spec_fn = self._deliver_spec
        self._q = machine.events  # always the calendar queue when fast
        self._send_call = machine.net.send_call
        self._local_access = machine.config.local_access_cycles
        self._machine_nodes = machine._nodes
        self._engine = machine.engine_for(node)
        self._count_request = machine.count_request_fast
        self._spec_sent_key = {"fr": "spec_sent_fr", "swi": "spec_sent_swi"}
        self._stats_bump = machine.stats.bump
        #: A write's ack join per block: [acks outstanding, request, data].
        self._joins: dict[BlockId, list] = {}

    def entry(self, block: BlockId) -> BlockDirectory:
        entry = self._entries.get(block)
        if entry is None:
            entry = self._entries[block] = BlockDirectory()
        return entry

    def _after_access(self, handler: Callable, args: tuple) -> None:
        """Schedule ``handler(*args)`` one memory access from now (the
        inlined calendar insert of intake, access hops and writebacks)."""
        q = self._q
        time = q.now + self._local_access
        bucket = q._buckets.get(time)
        if bucket is None:
            q._buckets[time] = [(handler, args)]
            heappush(q._times, time)
        else:
            bucket.append((handler, args))
        q._size += 1

    # ------------------------------------------------------------------
    # request intake: a non-busy block always has an empty queue
    # ------------------------------------------------------------------
    def request(self, req: MemRequest) -> None:
        block = req.block
        if block in self._busy:
            queue = self._queues.get(block)
            if queue is None:
                queue = self._queues[block] = deque()
            queue.append(req)
            return
        self._busy.add(block)
        # Directory lookup + memory access; the handler is resolved at
        # intake (the reference home branches in _dispatch, one event
        # later — same cycle, same order).
        self._after_access(self._handlers[req.kind], (req,))

    def _finish(self, block: BlockId) -> None:
        queue = self._queues.get(block)
        if queue:
            req = queue.popleft()
            self._after_access(self._handlers[req.kind], (req,))
        else:
            self._busy.discard(block)

    # ------------------------------------------------------------------
    # transactions, with the BlockDirectory transitions inlined
    # ------------------------------------------------------------------
    def _do_read(self, req: MemRequest) -> None:
        block = req.block
        requester = req.requester
        entry = self.entry(block)
        state = entry.state
        if (
            requester == entry.owner
            if state is DirectoryState.EXCLUSIVE
            else requester in entry.sharers
        ):
            # The requester was granted a speculative copy while this
            # request was in flight; just supply the data (the node
            # dropped the speculative message — Section 4.2).
            self._reply_data(req, False, True)
            return
        if state is DirectoryState.SHARED:
            writeback_from = None
            entry.sharers.add(requester)
        else:  # Idle (no owner), or Exclusive elsewhere: owner writes back
            writeback_from = entry.owner
            entry.state = DirectoryState.SHARED
            entry.sharers = {requester}
            entry.owner = None
        self._count_request(MessageKind.READ, block)
        engine = self._engine
        fr_targets, migratory = NO_TARGETS, False
        if engine is not None:
            fr_targets = engine.observe_read(block, requester)
            # Migratory-write extension: a read predicted to be followed
            # by the same processor's upgrade is granted exclusively if
            # the requester (now a sharer) is the block's sole holder.
            migratory = engine.predicts_migratory_writer(
                block, requester
            ) and len(entry.sharers) == 1
        if writeback_from is None:
            self._read_complete(req, fr_targets, migratory)
        else:
            self._recall_writable(
                block,
                writeback_from,
                self._read_complete_fn,
                (req, fr_targets, migratory),
            )

    def _read_complete(
        self, req: MemRequest, fr_targets: frozenset[NodeId], migratory: bool
    ) -> None:
        if migratory and self._entries[req.block].promote_sole_sharer(req.requester):
            self._engine.record_migratory_grant(req.block, req.requester)
            self._reply_data(req, True, True)
            return
        if fr_targets:
            self._forward_spec(req.block, fr_targets, "fr")
        self._reply_data(req, False, True)

    def _do_write(self, req: MemRequest) -> None:
        block = req.block
        requester = req.requester
        entry = self.entry(block)
        state = entry.state
        invalidated: list[NodeId] = []
        writeback_from, kind = None, MessageKind.WRITE
        if state is DirectoryState.EXCLUSIVE:
            if entry.owner == requester:
                # Stale request (the copy was granted while in flight).
                self._reply_data(req, True, True)
                return
            writeback_from = entry.owner
        elif state is DirectoryState.SHARED:
            sharers = entry.sharers
            if requester in sharers:
                kind = MessageKind.UPGRADE
                sharers.discard(requester)
            invalidated = sorted(sharers)
            entry.sharers = set()
        entry.state = DirectoryState.EXCLUSIVE
        entry.owner = requester
        self._count_request(kind, block)
        engine = self._engine
        if engine is not None:
            engine.observe_write(block, kind, requester)
        data = kind is not MessageKind.UPGRADE
        outstanding = len(invalidated) + (writeback_from is not None)
        if not outstanding:
            self._reply_data(req, True, data)
            return
        self._joins[block] = [outstanding, req, data]
        for sharer in invalidated:
            self._send_call(self.node, sharer, self._inv_at_sharer_fn, block, sharer)
        if writeback_from is not None:
            self._recall_writable(block, writeback_from, self._write_ack_fn, (block,))

    def _write_ack(self, block: BlockId) -> None:
        join = self._joins[block]
        join[0] -= 1
        if not join[0]:
            del self._joins[block]
            self._reply_data(join[1], True, join[2])

    def _do_swi_recall(self, req: MemRequest) -> None:
        block = req.block
        writer = req.requester
        entry = self.entry(block)
        engine = self._engine
        if (
            engine is None
            or entry.state is not DirectoryState.EXCLUSIVE
            or entry.owner != writer
            or not engine.swi_allowed(block)
        ):
            self._finish(block)
            return
        # The recall of an exclusive block: back to Idle, owner writes back.
        entry.state = DirectoryState.IDLE
        entry.owner = None
        self._recall_writable(block, writer, self._swi_after_writeback_fn, (block, writer))

    def _swi_after_writeback(self, block: BlockId, writer: NodeId) -> None:
        targets = self._engine.swi_invalidated(block, writer)
        if targets:
            self._forward_spec(block, targets, "swi")
        self._finish(block)

    # ------------------------------------------------------------------
    # protocol sub-operations, one handler per hop
    # ------------------------------------------------------------------
    def _inv_at_sharer(self, block: BlockId, sharer: NodeId) -> None:
        self._after_access(self._inv_after_access_fn, (block, sharer))

    def _inv_after_access(self, block: BlockId, sharer: NodeId) -> None:
        node = self._machine_nodes[sharer]
        node.cache._state.pop(block, None)  # invalidate, inlined
        spec_entry = node.remote_cache._entries.pop(block, None)  # evict
        self._send_call(
            sharer, self.node, self._inv_ack_at_home_fn, block, sharer, spec_entry
        )

    def _inv_ack_at_home(
        self, block: BlockId, sharer: NodeId, spec_entry: SpeculativeEntry | None
    ) -> None:
        if spec_entry is not None and not spec_entry.referenced:
            # Only speculation places remote-cache entries: engine is set.
            self._engine.spec_feedback(block, sharer, used=False)
        self._write_ack(block)

    def _recall_writable(
        self, block: BlockId, owner: NodeId, handler: Callable, args: tuple
    ) -> None:
        """Recall the writable copy, then ``handler(*args)`` at home."""
        engine = self._engine
        if engine is not None:
            # A recalled migratory grant that was never written to is a
            # demotion (the grantee would have been happy with a
            # read-only copy).
            engine.migratory_recalled(block, owner)
        self._send_call(
            self.node, owner, self._recall_at_owner_fn, block, owner, handler, args
        )

    def _recall_at_owner(
        self, block: BlockId, owner: NodeId, handler: Callable, args: tuple
    ) -> None:
        self._after_access(self._recall_after_access_fn, (block, owner, handler, args))

    def _recall_after_access(
        self, block: BlockId, owner: NodeId, handler: Callable, args: tuple
    ) -> None:
        self._machine_nodes[owner].cache._state.pop(block, None)  # invalidate
        # Back at home, the memory update with the written-back data.
        self._send_call(owner, self.node, self._after_access_fn, handler, args)

    def _reply_data(self, req: MemRequest, exclusive: bool, data: bool) -> None:
        self._send_call(
            self.node, req.requester, self._deliver_reply_fn, req, exclusive, data
        )

    def _deliver_reply(self, req: MemRequest, exclusive: bool, data: bool) -> None:
        requester = req.requester
        block = req.block
        # set_state inlined: replies always grant a valid state.
        self._machine_nodes[requester].cache._state[block] = (
            CacheState.EXCLUSIVE if exclusive else CacheState.SHARED
        )
        if req.on_done is not None:
            q = self._q
            fill = self._local_access if data and requester != self.node else 0
            q.insert(q.now + fill, req.on_done, req.on_done_args)
        self._finish(block)

    # ------------------------------------------------------------------
    # speculative forwarding
    # ------------------------------------------------------------------
    def _forward_spec(
        self, block: BlockId, targets: frozenset[NodeId], origin: str
    ) -> None:
        engine = self._engine
        entry = self._entries[block]
        stat_key = self._spec_sent_key[origin]
        for target in sorted(targets):
            if not entry.grant_speculative_copy(target):
                continue
            engine.record_spec_sent(block, target, origin)
            self._stats_bump(stat_key)
            self._send_call(
                self.node, target, self._deliver_spec_fn, block, target, origin
            )

    def _deliver_spec(self, block: BlockId, target: NodeId, origin: str) -> None:
        node = self._machine_nodes[target]
        if node.processor._outstanding == block:  # waiting_for, inlined
            # Race with an in-flight request: drop the speculative
            # message (Section 4.2).
            self._engine.spec_feedback(block, target, used=False, raced=True)
            return
        if node.cache._state.get(block) is not None:  # can_read, inlined
            return
        node.remote_cache._entries[block] = SpeculativeEntry(origin=origin)
