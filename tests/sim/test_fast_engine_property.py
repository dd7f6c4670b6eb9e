"""Property tests: the fast engine equals the reference on arbitrary
workloads, not just the seven paper applications.

The golden suite (``test_engine_equivalence.py``) pins the fast engine
to the heapq reference on the paper's apps; these properties extend
the oracle to random deadlock-free workloads from
``tests/strategies/sim.py`` in every machine mode.  A bounded-run
property pins the budget semantics: a tiny event budget either
exhausts on both engines or completes identically on both.
"""

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.sim.machine import EventBudgetExhausted, Machine, MachineMode
from tests.strategies.settings import STANDARD_SETTINGS
from tests.strategies.sim import workloads

MODES = st.sampled_from(list(MachineMode))


def run(workload, mode, engine, max_events=None):
    machine = Machine(
        workload,
        config=SystemConfig(num_nodes=workload.num_procs),
        mode=mode,
        engine=engine,
    )
    return dataclasses.asdict(machine.run(max_events=max_events))


@given(workload=workloads(max_repeats=4), mode=MODES)
@STANDARD_SETTINGS
def test_fast_equals_reference_on_random_workloads(workload, mode):
    assert run(workload, mode, "fast") == run(workload, mode, "reference")


@given(workload=workloads(max_repeats=4), mode=MODES, budget=st.integers(1, 30))
@STANDARD_SETTINGS
def test_bounded_runs_agree_with_reference(workload, mode, budget):
    outcomes = []
    for engine in ("fast", "reference"):
        try:
            outcomes.append(run(workload, mode, engine, budget))
        except EventBudgetExhausted:
            outcomes.append("exhausted")
    assert outcomes[0] == outcomes[1]
