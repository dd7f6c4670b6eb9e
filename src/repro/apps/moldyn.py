"""moldyn — CHARMM-like molecular dynamics (as in Mukherjee & Hill).

Two sharing patterns coexist (paper Section 7.1):

* **producer/consumer** on particle-position blocks: each owner
  rewrites its positions every iteration and a small static set of
  neighbours (from the interaction lists) reads them.  The producer
  *reads its positions back shortly after writing* — the detail that
  makes Speculative Write-Invalidation misspeculate and fall back to
  First-Read for this phase (Table 5);
* **static migratory** on force-accumulation blocks: a fixed sequence
  of processors makes read+write visits to each block every iteration.
  The visit sequences never change, so the pattern is highly
  predictable and SWI invalidates the migratory writes successfully
  (~68% of all writes — Table 5).

Invalidation acks race in the producer/consumer phase (readers cluster
behind the phase barrier), degrading Cosmos but not MSP/VMSP.
"""

from __future__ import annotations

from repro.apps.base import SharedMemoryApp, WorkloadBuilder
from repro.common.types import BlockId, NodeId
from repro.sim.address import AddressSpace


class Moldyn(SharedMemoryApp):
    """Producer/consumer positions plus static migratory forces."""

    name = "moldyn"
    paper_input = "2048 particles"
    paper_iterations = 60

    def __init__(
        self,
        num_procs: int = 16,
        iterations: int | None = None,
        seed: int | str = 1999,
        position_blocks_per_proc: int = 10,
        force_blocks_per_proc: int = 6,
        ack_race_probability: float = 0.5,
        compute_cycles: int = 12000,
    ) -> None:
        super().__init__(num_procs=num_procs, iterations=iterations, seed=seed)
        if not 0.0 <= ack_race_probability <= 1.0:
            raise ValueError("ack_race_probability must be within [0, 1]")
        self.position_blocks_per_proc = position_blocks_per_proc
        self.force_blocks_per_proc = force_blocks_per_proc
        self.ack_race_probability = ack_race_probability
        self.compute_cycles = compute_cycles

    @classmethod
    def default_iterations(cls) -> int:
        return 20

    def min_procs(self) -> int:
        # A position block has up to four consumers besides its owner.
        return 5

    # ------------------------------------------------------------------
    def _build(self, b: WorkloadBuilder) -> None:
        rng = self.rng("interactions")
        jitter = self.rng("jitter")
        space = AddressSpace(self.num_procs)

        # Interaction lists: per position block, 1-3 static consumers.
        positions: list[tuple[NodeId, BlockId, tuple[NodeId, ...]]] = []
        for p in range(self.num_procs):
            others = [q for q in range(self.num_procs) if q != p]
            for block in space.alloc(p, self.position_blocks_per_proc):
                degree = 2
                if rng.random() < 0.50:
                    degree += 1
                if rng.random() < 0.15:
                    degree += 1
                consumers = tuple(sorted(rng.sample(others, degree)))
                positions.append((p, block, consumers))

        # Force blocks: visited by a static ordered sequence of 2-3
        # processors (owner first).  Each visitor processes its home
        # group of force blocks consecutively, which is what lets SWI
        # chain the migratory writes.
        forces: list[tuple[BlockId, tuple[NodeId, ...], int]] = []
        for p in range(self.num_procs):
            others = [q for q in range(self.num_procs) if q != p]
            for index, block in enumerate(space.alloc(p, self.force_blocks_per_proc)):
                extra = rng.sample(others, 1 + (rng.random() < 0.5))
                forces.append((block, (p, *extra), index))

        race_rng = self.rng("races")
        # Static per-processor interaction-list traversal orders.
        traversal_rng = self.rng("traversal")
        position_blocks = [block for _owner, block, _consumers in positions]
        traversal: dict[NodeId, dict[BlockId, int]] = {}
        for p in range(self.num_procs):
            order = traversal_rng.shuffled(position_blocks)
            traversal[p] = {block: i for i, block in enumerate(order)}

        # One lock per force block; lock ids live in their own namespace,
        # so reusing the block id is unambiguous.
        for _ in range(self.iterations):
            # Update phase: rewrite positions, then read them back.
            with b.phase("update-positions"):
                for p in range(self.num_procs):
                    b.compute(p, self.compute_cycles + jitter.randint(0, 60))
                for owner, block, _consumers in positions:
                    b.write(owner, block)
                for owner, block, _consumers in positions:
                    b.read(owner, block)  # silent re-read; defeats SWI
            # Force phase: neighbours read remote positions (acks race
            # in about half the iterations); each walks its interaction
            # list in its own static order.
            with b.phase(
                "read-positions",
                racy_reads=False,
                racy_acks=race_rng.chance(self.ack_race_probability),
            ):
                for p in range(self.num_procs):
                    b.compute(p, self.compute_cycles // 2 + jitter.randint(0, 60))
                reads_by_consumer: dict[NodeId, list[BlockId]] = {}
                for _owner, block, consumers in positions:
                    for consumer in consumers:
                        reads_by_consumer.setdefault(consumer, []).append(block)
                for consumer in sorted(reads_by_consumer):
                    ranks = traversal[consumer]
                    for block in sorted(
                        reads_by_consumer[consumer], key=ranks.__getitem__
                    ):
                        b.read(consumer, block)
            # Accumulation: static migratory visits.  Each visitor sweeps
            # its share of the force array back-to-back (a tight loop in
            # the original code), and successive visitors are separated
            # by their own computation — modeled as positional
            # sub-phases.  The tight per-visitor sweep is what lets SWI
            # chain the migratory writes (Section 7.4).
            max_position = max(len(v) for _b, v, _i in forces)
            for position in range(max_position):
                with b.phase(f"accumulate-forces-{position}"):
                    for p in range(self.num_procs):
                        b.compute(
                            p, self.compute_cycles // 6 + jitter.randint(0, 60)
                        )
                    for block, visitors, _index in forces:
                        if position < len(visitors):
                            visitor = visitors[position]
                            b.read(visitor, block)
                            b.write(visitor, block)
