"""Golden equivalence suite: every timing engine vs the reference.

The calendar-queue engine (``Machine(engine="fast")``) and the
trace-compiling engine (``engine="compiled"``) are allowed to replace
the heapq reference only because they are provably the same
simulation.  This suite runs **all 7 applications × all 4 machine
modes** on every engine at reduced iterations and asserts the entire
:class:`~repro.sim.machine.RunResult` — cycles, the time breakdown,
request counters, and every speculation statistic — is bit-identical.
The compiled engine is exercised on *both* of its paths: the recording
run (cache miss, live simulation) and the replay (cache hit, batch
reconstruction from the macro-step trace), plus a repeat-run
determinism check at a fixed seed.

Timing results feed Figure 9 and Table 5 directly, so any divergence
here would silently corrupt paper figures; that is why this suite is
part of the quick CI lane, not an optional extra.
"""

import dataclasses

import pytest

from repro.apps.registry import APP_NAMES, make_app
from repro.common.config import SystemConfig
from repro.sim.machine import Machine, MachineMode, RunResult
from repro.sim.timetrace import reset_timetrace_memo

#: Small but non-trivial workloads: every app still exercises barriers,
#: locks (where present), write-invalidation chains, and speculation.
ITERATIONS = 2
NUM_PROCS = 16
SEED = 1999
#: The 64-node cells of the timing benchmark: large same-cycle cohorts
#: and wide sharer sets the 16-node workloads never reach.
LARGE_APPS = ("em3d", "ocean")
LARGE_NUM_PROCS = 64

_WORKLOADS: dict[tuple[str, int], object] = {}


def workload_for(app: str, num_procs: int = NUM_PROCS):
    """Build each app's workload once for the whole module."""
    key = (app, num_procs)
    if key not in _WORKLOADS:
        _WORKLOADS[key] = make_app(
            app, num_procs=num_procs, iterations=ITERATIONS, seed=SEED
        ).build()
    return _WORKLOADS[key]


def run_once(
    app: str, mode: MachineMode, engine: str, num_procs: int = NUM_PROCS
) -> RunResult:
    machine = Machine(
        workload_for(app, num_procs),
        config=SystemConfig(num_nodes=num_procs),
        mode=mode,
        engine=engine,
    )
    return machine.run()


def assert_identical(fast: RunResult, reference: RunResult) -> None:
    """Field-by-field comparison so a failure names the divergent stat."""
    fast_dict = dataclasses.asdict(fast)
    ref_dict = dataclasses.asdict(reference)
    for name, ref_value in ref_dict.items():
        assert fast_dict[name] == ref_value, (
            f"RunResult.{name} diverged: fast={fast_dict[name]!r} "
            f"reference={ref_value!r}"
        )
    assert fast == reference  # belt and braces: dataclass equality


@pytest.mark.parametrize("app", APP_NAMES)
@pytest.mark.parametrize(
    "mode", list(MachineMode), ids=[m.value for m in MachineMode]
)
class TestEngineEquivalence:
    def test_run_result_bit_identical(self, app, mode):
        fast = run_once(app, mode, "fast")
        reference = run_once(app, mode, "reference")
        assert_identical(fast, reference)

    def test_compiled_record_and_replay_bit_identical(self, app, mode):
        """Both compiled paths against the reference.

        The first run misses (no memoized trace) and records the live
        simulation; the second hits the in-process memo and replays the
        macro-step trace in batch.  Either path producing anything but
        the reference RunResult corrupts Figure 9 / Table 5 silently.
        """
        reset_timetrace_memo()
        reference = run_once(app, mode, "reference")
        recorded = run_once(app, mode, "compiled")
        replayed = run_once(app, mode, "compiled")
        assert_identical(recorded, reference)
        assert_identical(replayed, reference)


@pytest.mark.parametrize("app", LARGE_APPS)
@pytest.mark.parametrize(
    "mode", list(MachineMode), ids=[m.value for m in MachineMode]
)
def test_64_node_fast_bit_identical(app, mode):
    fast = run_once(app, mode, "fast", LARGE_NUM_PROCS)
    reference = run_once(app, mode, "reference", LARGE_NUM_PROCS)
    assert_identical(fast, reference)


@pytest.mark.parametrize("engine", ["fast", "compiled", "reference"])
def test_repeat_run_determinism(engine):
    """The same seed must reproduce the same RunResult, twice over."""
    first = run_once("em3d", MachineMode.SWI, engine)
    second = run_once("em3d", MachineMode.SWI, engine)
    assert_identical(first, second)


@pytest.mark.parametrize("engine", ["fast", "compiled"])
def test_run_speculation_engine_equivalence(engine):
    """The eval-layer entry point threads the switch through intact."""
    from repro.eval.performance import run_speculation

    reset_timetrace_memo()
    run = run_speculation("tomcatv", iterations=ITERATIONS, engine=engine)
    reference = run_speculation(
        "tomcatv", iterations=ITERATIONS, engine="reference"
    )
    for mode in (MachineMode.BASE, MachineMode.FR, MachineMode.SWI):
        assert_identical(run.result(mode), reference.result(mode))
    assert run.table5_row() == reference.table5_row()
