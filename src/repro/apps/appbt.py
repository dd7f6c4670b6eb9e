"""appbt — NAS block-tridiagonal solver (shared-memory port).

Processors own sub-cubes of a 3D grid and perform a gaussian
elimination that sweeps the cube along each of the three dimensions in
turn, passing boundary data down a pipeline of processors (paper
Sections 6-7 and [5]):

* **face blocks** — on a sub-cube face, consumed by the single
  neighbour along that face's dimension: perfectly stable
  producer/consumer;
* **edge blocks** — on a sub-cube edge, consumed by *different*
  processors along the two adjacent dimensions in alternating sweeps.
  With a history depth of one no predictor can distinguish the two
  consumers, capping accuracy near 90%; depth two captures both
  patterns and lifts accuracy to 100% (Figure 8);
* some face blocks are read both by the pipeline successor and by a
  second processor working the perpendicular pencil, and those two
  reads race — separating VMSP from MSP at depth one;
* acknowledgements do *not* race (the pipeline spaces requests out),
  and because an ack identifies the previous consumer, Cosmos slightly
  *beats* MSP on appbt at depth one — the one application where acks
  carry useful information (Section 7.1).

The pipeline is modeled as barrier-separated stages, which preserves
the paper's observation that the consumer read and producer
write/upgrade requests sit on the pipeline's critical path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import SharedMemoryApp, WorkloadBuilder
from repro.common.types import BlockId, NodeId
from repro.sim.address import AddressSpace


def _cube_shape(num_procs: int) -> tuple[int, int, int]:
    """Factor the processor count into the most cubical 3D grid."""
    best = (1, 1, num_procs)
    best_spread = num_procs
    for x in range(1, num_procs + 1):
        if num_procs % x:
            continue
        rest = num_procs // x
        for y in range(1, rest + 1):
            if rest % y:
                continue
            z = rest // y
            spread = max(x, y, z) - min(x, y, z)
            if spread < best_spread:
                best_spread = spread
                best = tuple(sorted((x, y, z)))
    return best


@dataclass(frozen=True, slots=True)
class _Face:
    """A boundary face: owner passes blocks to its dim-successor."""

    owner: NodeId
    dim: int
    consumer: NodeId
    blocks: tuple[BlockId, ...]
    #: Second (racing) reader for shared faces, None for plain faces.
    second_reader: NodeId | None = None

    def readers(self) -> tuple[NodeId, ...]:
        if self.second_reader is None:
            return (self.consumer,)
        return (self.consumer, self.second_reader)


@dataclass(frozen=True, slots=True)
class _Edge:
    """A sub-cube edge: consumed along two dimensions alternately."""

    owner: NodeId
    dims: tuple[int, int]
    consumers: tuple[NodeId, NodeId]
    blocks: tuple[BlockId, ...]

    def consumer_for(self, dim: int) -> NodeId | None:
        for d, consumer in zip(self.dims, self.consumers):
            if d == dim:
                return consumer
        return None


class Appbt(SharedMemoryApp):
    """Pipelined gaussian elimination over sub-cubes."""

    name = "appbt"
    paper_input = "12x12x12 cubes"
    paper_iterations = 40

    def __init__(
        self,
        num_procs: int = 16,
        iterations: int | None = None,
        seed: int | str = 1999,
        face_blocks: int = 5,
        shared_face_blocks: int = 1,
        edge_blocks: int = 3,
        read_race_probability: float = 0.3,
        compute_cycles: int = 250,
    ) -> None:
        self.shared_face_blocks = shared_face_blocks
        super().__init__(num_procs=num_procs, iterations=iterations, seed=seed)
        if not 0.0 <= read_race_probability <= 1.0:
            raise ValueError("read_race_probability must be within [0, 1]")
        self.face_blocks = face_blocks
        self.edge_blocks = edge_blocks
        self.read_race_probability = read_race_probability
        self.compute_cycles = compute_cycles

    @classmethod
    def default_iterations(cls) -> int:
        return 15

    def min_procs(self) -> int:
        # A shared face block's second reader is neither owner nor consumer.
        return 3 if self.shared_face_blocks else 2

    # ------------------------------------------------------------------
    def _build(self, b: WorkloadBuilder) -> None:
        self._shape = _cube_shape(self.num_procs)
        self._coords = {p: self._coord_of(p) for p in range(self.num_procs)}
        faces, edges = self._make_topology()
        jitter = self.rng("jitter")
        race_rng = self.rng("races")
        for _ in range(self.iterations):
            for dim in range(3):
                self._sweep(b, dim, faces, edges, jitter, race_rng)

    def _coord_of(self, p: NodeId) -> tuple[int, int, int]:
        sx, sy, _sz = self._shape
        return (p % sx, (p // sx) % sy, p // (sx * sy))

    def _neighbour(self, p: NodeId, dim: int) -> NodeId | None:
        coordinate = list(self._coords[p])
        coordinate[dim] += 1
        if coordinate[dim] >= self._shape[dim]:
            return None
        sx, sy, _sz = self._shape
        x, y, z = coordinate
        return x + y * sx + z * sx * sy

    def _make_topology(self) -> tuple[list[_Face], list[_Edge]]:
        space = AddressSpace(self.num_procs)
        second_rng = self.rng("second-reader")
        faces: list[_Face] = []
        edges: list[_Edge] = []
        for p in range(self.num_procs):
            open_dims = []
            for dim in range(3):
                succ = self._neighbour(p, dim)
                if succ is None:
                    continue
                open_dims.append((dim, succ))
                faces.append(
                    _Face(
                        owner=p,
                        dim=dim,
                        consumer=succ,
                        blocks=tuple(space.alloc(p, self.face_blocks)),
                    )
                )
                if self.shared_face_blocks:
                    candidates = [
                        q for q in range(self.num_procs) if q not in (p, succ)
                    ]
                    faces.append(
                        _Face(
                            owner=p,
                            dim=dim,
                            consumer=succ,
                            blocks=tuple(space.alloc(p, self.shared_face_blocks)),
                            second_reader=second_rng.choice(candidates),
                        )
                    )
            if len(open_dims) >= 2 and self.edge_blocks:
                (dim_a, cons_a), (dim_b, cons_b) = open_dims[0], open_dims[1]
                edges.append(
                    _Edge(
                        owner=p,
                        dims=(dim_a, dim_b),
                        consumers=(cons_a, cons_b),
                        blocks=tuple(space.alloc(p, self.edge_blocks)),
                    )
                )
        return faces, edges

    # ------------------------------------------------------------------
    def _sweep(self, b, dim: int, faces, edges, jitter, race_rng) -> None:
        """One pipelined sweep along ``dim``, stage by stage."""
        for stage in range(self._shape[dim]):
            at_stage = [
                p
                for p in range(self.num_procs)
                if self._coords[p][dim] == stage
            ]
            stage_faces = [
                f for f in faces if f.dim == dim and f.owner in at_stage
            ]
            stage_edges = [
                e
                for e in edges
                if e.owner in at_stage and e.consumer_for(dim) is not None
            ]
            with b.phase(f"sweep{dim}-stage{stage}"):
                for p in at_stage:
                    b.compute(p, self.compute_cycles + jitter.randint(0, 30))
                # The elimination re-reads the boundary it owns (its copy
                # was recalled by last sweep's consumer), then updates it
                # twice — the second update is silent under the base
                # protocol but makes SWI invalidations premature ("the
                # producer ... writes multiple times to the block",
                # Section 7.4).
                for f in stage_faces:
                    for block in f.blocks:
                        b.read(f.owner, block)
                        b.write(f.owner, block)
                for e in stage_edges:
                    for block in e.blocks:
                        b.read(e.owner, block)
                        b.write(e.owner, block)
                for f in stage_faces:
                    for block in f.blocks:
                        b.write(f.owner, block)
                for e in stage_edges:
                    for block in e.blocks:
                        b.write(e.owner, block)
            # The perpendicular reader races with the pipeline successor
            # only when their pencils coincide in time (about half the
            # sweeps); otherwise arrival order is stable.
            with b.phase(
                f"sweep{dim}-stage{stage}-x",
                racy_reads=race_rng.chance(self.read_race_probability),
            ):
                for f in stage_faces:
                    for block in f.blocks:
                        for reader in f.readers():
                            b.read(reader, block)
                for e in stage_edges:
                    consumer = e.consumer_for(dim)
                    for block in e.blocks:
                        b.read(consumer, block)
