"""Set-up probe: import the CLI stack and build the runner and caches.

Run in a fresh interpreter by the batch workloads, which time it from
spawn to exit:  ``python3 setup_probe.py <src-dir> <cache-dir> <workload>``
"""

import sys

src, cache, workload = sys.argv[1:4]
sys.path.insert(0, src)

import repro.eval.cli  # noqa: E402,F401 -- the entry point a user runs
from repro.harness import ParallelRunner, ResultStore  # noqa: E402
from repro.trace import configure_trace_cache  # noqa: E402

if workload == "accuracy_cold":
    import repro.eval.accuracy  # noqa: F401
    import repro.trace.vectorized  # noqa: F401
else:
    import repro.eval.performance  # noqa: F401
    import repro.sim.machine  # noqa: F401

configure_trace_cache(cache)
ParallelRunner(jobs=1, store=ResultStore(cache)).close()
