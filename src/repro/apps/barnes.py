"""barnes — SPLASH-2 Barnes-Hut N-body simulation.

Processors traverse a shared octree to compute gravitational forces.
The tree is rebuilt every iteration to reflect body movement, so the
read-sharing patterns change rapidly (paper Section 7.1):

* every tree block is rewritten by its owner each iteration (rebuild)
  and read by the subset of processors whose partial traversals touch
  it; that subset persists for a few iterations and is then redrawn;
* the *readers* arrive in a different order every iteration (each
  processor's traversal workload shifts with the tree), but the
  *acknowledgements* do not race — the read-sharing is asynchronous
  with minimal queueing, so invalidation acks return in full-map
  order every time.  Hence MSP does not improve on Cosmos, while VMSP's
  order-insensitive vectors lift accuracy to ~80% (Figure 7);
* rapid pattern change means little pattern-table reuse: barnes shows
  the lowest prediction coverage in Table 3 and its Cosmos table
  footprint explodes at depth four in Table 4;
* the application is compute-bound, so even good speculation buys
  little execution time (Figure 9).
"""

from __future__ import annotations

from repro.apps.base import SharedMemoryApp, WorkloadBuilder
from repro.common.types import BlockId, NodeId
from repro.sim.address import AddressSpace


class Barnes(SharedMemoryApp):
    """Octree force computation with churning reader sets."""

    name = "barnes"
    paper_input = "4K particles"
    paper_iterations = 21

    def __init__(
        self,
        num_procs: int = 16,
        iterations: int | None = None,
        seed: int | str = 1999,
        tree_blocks_per_proc: int = 12,
        mutate: float = 0.65,
        redraw: float = 0.10,
        max_readers: int = 5,
        read_race_probability: float = 0.10,
        compute_cycles: int = 90000,
    ) -> None:
        super().__init__(num_procs=num_procs, iterations=iterations, seed=seed)
        if not 0.0 <= mutate <= 1.0 or not 0.0 <= redraw <= 1.0:
            raise ValueError("mutate/redraw must be within [0, 1]")
        if max_readers < 1:
            raise ValueError("max_readers must be >= 1")
        if not 0.0 <= read_race_probability <= 1.0:
            raise ValueError("read_race_probability must be within [0, 1]")
        self.tree_blocks_per_proc = tree_blocks_per_proc
        #: Probability per iteration that one reader is swapped out.
        self.mutate = mutate
        #: Probability per iteration that the whole set is redrawn.
        self.redraw = redraw
        self.max_readers = max_readers
        #: Probability that an iteration's traversal re-orders the reads.
        self.read_race_probability = read_race_probability
        self.compute_cycles = compute_cycles

    @classmethod
    def default_iterations(cls) -> int:
        return 21

    def min_procs(self) -> int:
        # A tree block is read by at least two processors besides its owner.
        return 3

    # ------------------------------------------------------------------
    def _build(self, b: WorkloadBuilder) -> None:
        rng = self.rng("tree")
        jitter = self.rng("jitter")
        space = AddressSpace(self.num_procs)

        blocks: list[tuple[NodeId, BlockId]] = []
        for p in range(self.num_procs):
            for block in space.alloc(p, self.tree_blocks_per_proc):
                blocks.append((p, block))

        # Current reader set per block; redrawn with probability `churn`
        # each iteration as the octree shape shifts.
        readers: dict[BlockId, tuple[NodeId, ...]] = {
            block: self._draw_readers(rng, owner) for owner, block in blocks
        }

        race_rng = self.rng("races")
        # Static per-processor traversal ranks: each processor visits
        # tree blocks in its own fixed order, so concurrent readers of a
        # block arrive at spread-out times rather than in lockstep.
        traversal_rng = self.rng("traversal")
        all_blocks = [block for _owner, block in blocks]
        rank: dict[NodeId, dict[BlockId, int]] = {}
        for p in range(self.num_procs):
            order = traversal_rng.shuffled(all_blocks)
            rank[p] = {block: i for i, block in enumerate(order)}
        for _ in range(self.iterations):
            with b.phase("tree-build"):
                for p in range(self.num_procs):
                    b.compute(p, self.compute_cycles // 4 + jitter.randint(0, 200))
                for owner, block in blocks:
                    b.write(owner, block)
                # The builder immediately reads the cells back while
                # linking the tree; silent under the base protocol (it
                # still holds the rebuilt copies exclusively) but the
                # access that exposes a premature SWI invalidation ("the
                # producer ... reads the block upon writing to it",
                # Section 7.4).
                for owner, block in blocks:
                    b.read(owner, block)
            # Asynchronous traversals: reads race (when workloads shift
            # enough), acks never do.  Each processor traverses in its
            # own (static) order, so different blocks' readers arrive at
            # different times.
            with b.phase(
                "force",
                racy_reads=race_rng.chance(self.read_race_probability),
                racy_acks=False,
            ):
                for p in range(self.num_procs):
                    b.compute(p, self.compute_cycles + jitter.randint(0, 400))
                for owner, block in blocks:
                    readers[block] = self._evolve(rng, owner, readers[block])
                reads_by_proc: dict[NodeId, list[BlockId]] = {}
                for _owner, block in blocks:
                    for reader in readers[block]:
                        reads_by_proc.setdefault(reader, []).append(block)
                for reader in sorted(reads_by_proc):
                    sequence = sorted(reads_by_proc[reader], key=rank[reader].__getitem__)
                    for block in sequence:
                        b.read(reader, block)

    def _draw_readers(self, rng, owner: NodeId) -> tuple[NodeId, ...]:
        others = [q for q in range(self.num_procs) if q != owner]
        size = rng.randint(2, min(self.max_readers, len(others)))
        return tuple(sorted(rng.sample(others, size)))

    def _evolve(
        self, rng, owner: NodeId, current: tuple[NodeId, ...]
    ) -> tuple[NodeId, ...]:
        """Tree movement: occasionally swap one reader or redraw the set."""
        if rng.chance(self.redraw):
            return self._draw_readers(rng, owner)
        if rng.chance(self.mutate):
            outside = [
                q
                for q in range(self.num_procs)
                if q != owner and q not in current
            ]
            if outside:
                replaced = rng.choice(current)
                kept = [r for r in current if r != replaced]
                return tuple(sorted(kept + [rng.choice(outside)]))
        return current
