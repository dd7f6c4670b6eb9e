"""unstructured — computational fluid dynamics on an unstructured mesh.

The shared-memory port uses a cyclic partitioning of the mesh, making
it the most communication-intensive application in the study (paper
Sections 6-7):

* **wide read-sharing producer/consumer** — each mesh-node block is
  rewritten once per iteration by its owner and then read by most of
  the machine (the paper reports ~12 reads per write in this phase);
  the read bursts race heavily, collapsing MSP to ~65% accuracy while
  VMSP's vectors restore it (Figure 7);
* **migratory sum reduction** — every iteration, a sequence of
  processors makes read+upgrade visits to each reduction block;
* **alternating participation** — processors whose contribution to the
  sum is zero skip the reduction *and* the surrounding communication,
  and some processors' contributions alternate between zero and
  non-zero every other iteration.  At history depth one the predictors
  therefore mispredict both the migratory visitors and the subsequent
  consumers in the producer/consumer phase, capping VMSP near ~87%;
  deeper histories separate the even- and odd-iteration patterns and
  recover most of the loss (Figure 8);
* producers write their blocks back-to-back and never revisit them, so
  SWI invalidates ~90% of writable copies and, chained with the
  migratory visits, speculatively covers most reads (Table 5).
"""

from __future__ import annotations

from repro.apps.base import SharedMemoryApp, WorkloadBuilder
from repro.common.types import BlockId, NodeId
from repro.sim.address import AddressSpace


class Unstructured(SharedMemoryApp):
    """Wide producer/consumer plus alternating migratory reduction."""

    name = "unstructured"
    paper_input = "mesh.2K"
    paper_iterations = 50

    def __init__(
        self,
        num_procs: int = 16,
        iterations: int | None = None,
        seed: int | str = 1999,
        mesh_blocks_per_proc: int = 4,
        reduction_blocks_per_proc: int = 5,
        stable_visitors: int | None = None,
        read_race_probability: float = 0.6,
        compute_cycles: int = 16000,
    ) -> None:
        if stable_visitors is None:
            # Half the machine participates every iteration, leaving
            # room for the four alternating visitors.
            stable_visitors = max(2, min(8, num_procs - 4))
        if stable_visitors < 1:
            raise ValueError("need at least one stable visitor")
        self.stable_visitors = stable_visitors
        super().__init__(num_procs=num_procs, iterations=iterations, seed=seed)
        if not 0.0 <= read_race_probability <= 1.0:
            raise ValueError("read_race_probability must be within [0, 1]")
        self.mesh_blocks_per_proc = mesh_blocks_per_proc
        self.reduction_blocks_per_proc = reduction_blocks_per_proc
        self.read_race_probability = read_race_probability
        self.compute_cycles = compute_cycles

    @classmethod
    def default_iterations(cls) -> int:
        return 16

    def min_procs(self) -> int:
        # The stable visitors plus four alternating ones.
        return self.stable_visitors + 4

    # ------------------------------------------------------------------
    def _build(self, b: WorkloadBuilder) -> None:
        rng = self.rng("mesh")
        jitter = self.rng("jitter")
        space = AddressSpace(self.num_procs)

        # Mesh node blocks: wide reader sets whose stable core persists
        # while two members alternate with the iteration parity (zero
        # contributors skip the read).
        mesh: list[
            tuple[NodeId, BlockId, tuple[NodeId, ...], tuple[NodeId, ...]]
        ] = []
        for p in range(self.num_procs):
            others = [q for q in range(self.num_procs) if q != p]
            for block in space.alloc(p, self.mesh_blocks_per_proc):
                pool = rng.shuffled(others)
                narrowest = max(1, min(8, len(pool) - 2))
                widest = max(narrowest, min(12, len(pool) - 2))
                width = rng.randint(narrowest, widest)
                core = tuple(sorted(pool[:width]))
                even = tuple(sorted(core + (pool[width],)))
                odd = tuple(sorted(core + (pool[width + 1],)))
                mesh.append((p, block, even, odd))

        # Reduction blocks: visit sequence [head_alt, s0, mid_alt,
        # s1, ..., s_last] where head/mid alternate with parity.  The
        # head alternator is identifiable at depth one (the previous
        # iteration's pattern differs), the mid alternator only once the
        # history window reaches back to the head (depth four), giving
        # the paper's gradual depth recovery (Section 7.2).
        reduction: list[tuple[BlockId, tuple[NodeId, ...], tuple[NodeId, ...]]] = []
        for p in range(self.num_procs):
            for block in space.alloc(p, self.reduction_blocks_per_proc):
                order = rng.shuffled(range(self.num_procs))
                stable = order[: self.stable_visitors]
                alt = order[self.stable_visitors : self.stable_visitors + 4]
                even = (alt[0], stable[0], alt[1], *stable[1:])
                odd = (alt[2], stable[0], alt[3], *stable[1:])
                reduction.append((block, even, odd))

        # Static per-processor mesh traversal orders (cyclic partition).
        traversal_rng = self.rng("traversal")
        mesh_blocks = [block for _owner, block, _even, _odd in mesh]
        traversal: dict[NodeId, dict[BlockId, int]] = {}
        for p in range(self.num_procs):
            order = traversal_rng.shuffled(mesh_blocks)
            traversal[p] = {block: i for i, block in enumerate(order)}

        race_rng = self.rng("races")
        for iteration in range(self.iterations):
            with b.phase("compute-write"):
                for p in range(self.num_procs):
                    b.compute(p, self.compute_cycles + jitter.randint(0, 50))
                for owner, block, _even, _odd in mesh:
                    b.write(owner, block)
            # The wide read bursts race in most — not all — iterations.
            # The invalidation bursts, in contrast, return in full-map
            # order: the directory walks its sharer bitmap and the acks
            # stream back in send order, so Cosmos is not additionally
            # perturbed (it tracks MSP on this application — Figure 7).
            racy = race_rng.chance(self.read_race_probability)
            with b.phase("gather", racy_reads=racy, racy_acks=False):
                for p in range(self.num_procs):
                    b.compute(p, self.compute_cycles // 2 + jitter.randint(0, 50))
                reads_by_reader: dict[NodeId, list[BlockId]] = {}
                for _owner, block, even, odd in mesh:
                    for reader in (even if iteration % 2 == 0 else odd):
                        reads_by_reader.setdefault(reader, []).append(block)
                for reader in sorted(reads_by_reader):
                    ranks = traversal[reader]
                    for block in sorted(
                        reads_by_reader[reader], key=ranks.__getitem__
                    ):
                        b.read(reader, block)
            # Reduction: each participant sweeps all reduction blocks in
            # a tight loop; participants enter the reduction one after
            # another as they finish their mesh work — modeled as
            # positional sub-phases.  The tight per-visitor sweep is
            # what lets SWI chain the migratory writes (Section 7.4).
            max_position = max(
                len(even if iteration % 2 == 0 else odd)
                for _b, even, odd in reduction
            )
            for position in range(max_position):
                with b.phase(f"reduction-{position}"):
                    for p in range(self.num_procs):
                        b.compute(p, 400 + jitter.randint(0, 100))
                    for block, even, odd in reduction:
                        visitors = even if iteration % 2 == 0 else odd
                        if position < len(visitors):
                            visitor = visitors[position]
                            b.read(visitor, block)
                            b.write(visitor, block)
