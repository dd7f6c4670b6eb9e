"""Structural tests for the seven application kernels."""

import pytest

from repro.apps import APP_NAMES, make_app
from repro.apps.base import MemRead, MemWrite, Workload
from repro.apps.registry import table2_rows
from repro.protocol.epochs import ReadEpoch, WriteEpoch
from repro.sim.address import home_of


@pytest.fixture(scope="module")
def workloads() -> dict[str, Workload]:
    return {name: make_app(name, iterations=4).build() for name in APP_NAMES}


class TestRegistry:
    def test_all_seven_table2_apps(self):
        assert APP_NAMES == (
            "appbt",
            "barnes",
            "em3d",
            "moldyn",
            "ocean",
            "tomcatv",
            "unstructured",
        )

    def test_unknown_app_raises(self):
        with pytest.raises(ValueError, match="unknown application"):
            make_app("linpack")

    def test_table2_rows_carry_paper_inputs(self):
        rows = dict((name, (inputs, iters)) for name, inputs, iters in table2_rows())
        assert rows["em3d"] == ("76800 nodes, 15% remote", 50)
        assert rows["barnes"] == ("4K particles", 21)
        assert rows["appbt"][1] == 40

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_iterations_validated(self, name):
        with pytest.raises(ValueError):
            make_app(name, iterations=0)

    @pytest.mark.parametrize(
        "name, minimum",
        [
            ("appbt", 3),
            ("barnes", 3),
            ("em3d", 4),
            ("moldyn", 5),
            ("ocean", 2),
            ("tomcatv", 2),
            ("unstructured", 6),
        ],
    )
    def test_minimum_processor_count(self, name, minimum):
        """Below its minimum an app says so at construction; at the
        minimum it builds (over a few seeds, since the sharing draws
        are random)."""
        assert make_app(name, num_procs=minimum).min_procs() == minimum
        with pytest.raises(ValueError, match=f"at least {minimum} processors"):
            make_app(name, num_procs=minimum - 1)
        for seed in range(3):
            make_app(name, num_procs=minimum, iterations=2, seed=seed).build()

    def test_minimum_follows_app_parameters(self):
        from repro.apps.appbt import Appbt
        from repro.apps.unstructured import Unstructured

        assert Appbt(num_procs=2, shared_face_blocks=0).min_procs() == 2
        Appbt(num_procs=2, iterations=2, shared_face_blocks=0).build()
        assert Unstructured(num_procs=5, stable_visitors=1).min_procs() == 5
        with pytest.raises(ValueError, match="at least 7 processors"):
            Unstructured(num_procs=6, stable_visitors=3)


@pytest.mark.parametrize("name", APP_NAMES)
class TestEveryApp:
    def test_builds_nonempty_workload(self, name, workloads):
        workload = workloads[name]
        assert workload.phases
        assert workload.scripts
        assert workload.num_procs == 16

    def test_deterministic_for_seed(self, name):
        a = make_app(name, iterations=3, seed=5).build()
        b = make_app(name, iterations=3, seed=5).build()
        assert [s.epochs for s in a.block_scripts()] == [
            s.epochs for s in b.block_scripts()
        ]

    def test_seed_changes_workload_shape_or_jitter(self, name):
        a = make_app(name, iterations=3, seed=5).build()
        b = make_app(name, iterations=3, seed=6).build()
        ops_a = [(p.name, p.op_count()) for p in a.phases]
        ops_b = [(p.name, p.op_count()) for p in b.phases]
        # Phases line up structurally even when content differs.
        assert [n for n, _ in ops_a] == [n for n, _ in ops_b]

    def test_program_and_block_views_agree_on_access_counts(self, name, workloads):
        workload = workloads[name]
        program_reads = program_writes = 0
        for phase in workload.phases:
            for ops in phase.ops.values():
                for op in ops:
                    if isinstance(op, MemRead):
                        program_reads += 1
                    elif isinstance(op, MemWrite):
                        program_writes += 1
        script_reads = script_writes = 0
        for script in workload.block_scripts():
            for epoch in script:
                if isinstance(epoch, ReadEpoch):
                    script_reads += len(epoch.readers)
                else:
                    script_writes += 1
        # The block view may merge duplicate same-epoch reads; it can
        # never exceed the program view.
        assert script_writes == program_writes
        assert script_reads <= program_reads

    def test_blocks_homed_within_machine(self, name, workloads):
        for block in workloads[name].blocks():
            assert 0 <= home_of(block, 16) < 16

    def test_scales_to_other_machine_sizes(self, name):
        workload = make_app(name, num_procs=8, iterations=2).build()
        assert workload.num_procs == 8
        for script in workload.block_scripts():
            for epoch in script:
                nodes = (
                    epoch.readers
                    if isinstance(epoch, ReadEpoch)
                    else (epoch.writer,)
                )
                for node in nodes:
                    assert 0 <= node < 8


class TestSharingSignatures:
    """Each kernel must exhibit the sharing pattern the paper ascribes."""

    def test_em3d_is_pure_producer_consumer(self, workloads):
        for script in workloads["em3d"].block_scripts():
            writers = {
                e.writer for e in script if isinstance(e, WriteEpoch)
            }
            assert len(writers) == 1  # single static producer per block

    def test_em3d_producer_never_reads_own_block(self, workloads):
        for script in workloads["em3d"].block_scripts():
            writer = next(
                e.writer for e in script if isinstance(e, WriteEpoch)
            )
            for epoch in script:
                if isinstance(epoch, ReadEpoch):
                    assert writer not in epoch.readers

    def test_tomcatv_blocks_have_producer_and_single_consumer(self, workloads):
        for script in workloads["tomcatv"].block_scripts():
            writers = {e.writer for e in script if isinstance(e, WriteEpoch)}
            readers = set()
            for epoch in script:
                if isinstance(epoch, ReadEpoch):
                    readers.update(epoch.readers)
            assert len(writers) == 1
            # Exactly the producer plus one consumer read the block.
            assert len(readers - writers) == 1

    def test_unstructured_has_wide_read_sharing(self, workloads):
        widths = []
        for script in workloads["unstructured"].block_scripts():
            for epoch in script:
                if isinstance(epoch, ReadEpoch) and len(epoch.readers) > 1:
                    widths.append(len(epoch.readers))
        assert max(widths) >= 9  # the paper's ~12 readers per write

    def test_moldyn_has_migratory_blocks(self, workloads):
        migratory = 0
        for script in workloads["moldyn"].block_scripts():
            writers = {e.writer for e in script if isinstance(e, WriteEpoch)}
            if len(writers) > 1:
                migratory += 1
        assert migratory > 0

    def test_barnes_reader_sets_churn(self, workloads):
        changed = 0
        for script in workloads["barnes"].block_scripts():
            sets = [
                frozenset(e.readers)
                for e in script
                if isinstance(e, ReadEpoch) and len(e.readers) > 0
            ]
            if len(set(sets)) > 1:
                changed += 1
        assert changed > 0

    def test_appbt_edge_blocks_alternate_consumers(self, workloads):
        alternating = 0
        for script in workloads["appbt"].block_scripts():
            consumer_sets = [
                frozenset(e.readers)
                for e in script
                if isinstance(e, ReadEpoch)
            ]
            distinct = {s for s in consumer_sets if s}
            if len(distinct) >= 2:
                alternating += 1
        assert alternating > 0

    def test_ocean_owner_writes_twice_per_step(self, workloads):
        # Back-to-back write epochs by the same owner (multigrid sweeps).
        double_writes = 0
        for script in workloads["ocean"].block_scripts():
            epochs = list(script)
            for a, b in zip(epochs, epochs[1:]):
                if (
                    isinstance(a, WriteEpoch)
                    and isinstance(b, WriteEpoch)
                    and a.writer == b.writer
                ):
                    double_writes += 1
        assert double_writes > 0
