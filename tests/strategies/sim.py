"""Strategies for the simulator's identifier spaces.

Block ids follow the reproduction's address layout: the bits above
``HOME_SHIFT`` name the home node and the low bits index that node's
private heap (see ``repro.sim.address``), so generated blocks are
always ones an :class:`~repro.sim.address.AddressSpace` could have
allocated.
"""

from hypothesis import strategies as st

from repro.common.config import HOME_SHIFT

#: Widest machine the paper configures; strategies default to it.
MAX_NODES = 16


def node_ids(num_nodes: int = MAX_NODES) -> st.SearchStrategy[int]:
    """A valid processor/home id for a machine of ``num_nodes``."""
    return st.integers(min_value=0, max_value=num_nodes - 1)


def block_ids(
    num_nodes: int = MAX_NODES, heap_blocks: int = 1 << 12
) -> st.SearchStrategy[int]:
    """A block id with a valid home field and in-range heap offset."""
    return st.builds(
        lambda home, offset: (home << HOME_SHIFT) | offset,
        node_ids(num_nodes),
        st.integers(min_value=0, max_value=heap_blocks - 1),
    )


def workloads(
    max_procs: int = 4,
    max_phases: int = 3,
    max_items: int = 5,
    max_repeats: int = 1,
) -> st.SearchStrategy:
    """A random, deadlock-free :class:`~repro.apps.base.Workload`.

    Per phase and processor the strategy draws a short sequence of
    items — compute bursts, reads/writes of a deliberately tiny block
    space (so processors actually share), and lock critical sections.
    Locks are emitted as self-contained acquire/body/release triples
    and never nest, so generated workloads cannot deadlock: every
    processor always reaches the phase barrier.

    With ``max_repeats > 1`` the drawn phases run for 1 to
    ``max_repeats`` iterations, like the paper's iterative kernels, so
    the predictors see sharing patterns recur and speculation fires.
    """
    from repro.apps.base import WorkloadBuilder

    def build(draw_spec):
        num_procs, phase_specs, repeats = draw_spec
        builder = WorkloadBuilder("hypothesis", num_procs)
        for p_index, (racy, proc_items) in enumerate(phase_specs * repeats):
            with builder.phase(f"phase{p_index}", racy_reads=racy):
                for proc, items in enumerate(proc_items):
                    for kind, block, cycles, lock in items:
                        if kind == "c":
                            builder.compute(proc, cycles)
                        elif kind == "r":
                            builder.read(proc, block)
                        elif kind == "w":
                            builder.write(proc, block)
                        else:  # non-nesting critical section
                            builder.lock(proc, lock)
                            builder.write(proc, block)
                            builder.unlock(proc, lock)
        return builder.finish()

    def specs(num_procs):
        # A tiny block space shared by all processors: home node in
        # range, two heap slots per home.
        item = st.tuples(
            st.sampled_from(["c", "r", "w", "l"]),
            block_ids(num_procs, heap_blocks=2),
            st.integers(min_value=1, max_value=40),
            st.integers(min_value=0, max_value=1),
        )
        phase = st.tuples(
            st.booleans(),
            st.lists(
                st.lists(item, max_size=max_items),
                min_size=num_procs,
                max_size=num_procs,
            ),
        )
        return st.tuples(
            st.just(num_procs),
            st.lists(phase, min_size=1, max_size=max_phases),
            st.integers(min_value=1, max_value=max_repeats),
        )

    return (
        st.integers(min_value=2, max_value=max_procs)
        .flatmap(specs)
        .map(build)
    )


def seeds() -> st.SearchStrategy:
    """An experiment seed: ints and strings are both accepted."""
    return st.one_of(
        st.integers(min_value=0, max_value=2**63 - 1),
        st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=16,
        ),
    )


def rng_labels() -> st.SearchStrategy[str]:
    """A stream label for ``DeterministicRng.split``."""
    return st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=1,
        max_size=12,
    )
