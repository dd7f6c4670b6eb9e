#!/usr/bin/env python
"""Perf smoke: the fast engines must beat their reference engines.

Two independent gates, both run by the CI ``perf-smoke`` lane and
locally via::

    PYTHONPATH=src python scripts/perf_smoke.py

**Accuracy gate** (PR 3): the vectorized trace pipeline vs the
per-message reference predictors, over a fixed slice of the Figure 8
grid: every app at reduced iterations, at each of Figure 8's history
depths (1, 2, 4), so multi-token history keys are exercised too.  Both
engines get their trace from the same columnar emulator
(``ProtocolEmulator.compile``; the reference engine decodes it into
messages), so the gate compares predictor scoring and the trace decode.

**Timing gate**: all three timing engines vs the
heapq reference, over a Figure 9 slice (three apps, Base-DSM, FR-DSM
and SWI-DSM):

* ``fast`` — the calendar-queue engine;
* ``compiled`` (cold) — the fast engine plus timing-trace recording
  into an empty trace cache: one instrumented simulation, so cold cost
  is bounded below by a full live run and the gate only demands it is
  not slower than the reference;
* ``compiled`` (cached) — the order-of-magnitude claim: the macro-step
  trace replays from the on-disk cache (in-process memo dropped first,
  so the decode is paid) without dispatching a single event.  Gated at
  10x vs the reference, and it must also beat the fast engine.

Engine runs are interleaved attempt by attempt so a drifting shared
runner cannot bias one side, every cell asserts all engines' (and the
replay's) ``RunResult`` is bit-identical (a cheap re-check of the
golden suite's contract), and the measured per-cell and total speedups
are written to ``BENCH_timing.json`` (schema v2, one section per
engine) at the repo root.

Both comparisons compute bit-identical results (tests/trace/ and
tests/sim/test_engine_equivalence.py enforce that); this script guards
the *performance* claims.  The live-engine thresholds are deliberately
loose (1.0x — "never slower than reference") so a noisy shared runner
cannot flake on real >1.5x speedups; the recorded numbers are the
claim.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

#: The fixed accuracy grid: every app, reduced iterations, paper nodes.
GRID_ITERATIONS = {
    "appbt": 8,
    "barnes": 10,
    "em3d": 10,
    "moldyn": 10,
    "ocean": 6,
    "tomcatv": 10,
    "unstructured": 8,
}
NUM_PROCS = 16
#: Figure 8's history depths.
DEPTHS = (1, 2, 4)

#: Fail when a fast path is not at least this many times faster.
THRESHOLD = 1.0

#: Timing runs per engine; the best one is kept (damps CI noise).
ATTEMPTS = 2

#: The Figure 9 slice: three apps on the paper's baseline, its
#: first-read variant (the per-read speculation path) and its full
#: speculative variant.
TIMING_GRID = {"appbt": 4, "barnes": 4, "ocean": 4}
TIMING_MODES = ("Base-DSM", "FR-DSM", "SWI-DSM")
TIMING_ATTEMPTS = 3
TIMING_THRESHOLD = 1.0
#: The cached-replay claim: decoding + batch-applying a stored trace
#: must be at least an order of magnitude faster than re-simulating.
CACHED_THRESHOLD = 10.0
BENCH_SCHEMA = 2

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_timing.json"


def run_grid(engine: str) -> float:
    from repro.eval.accuracy import run_predictors
    from repro.trace import configure_trace_cache

    configure_trace_cache(None)  # both engines pay full emulation cost
    best = float("inf")
    for _ in range(ATTEMPTS):
        started = time.perf_counter()
        for app, iterations in GRID_ITERATIONS.items():
            for depth in DEPTHS:
                run_predictors(
                    app,
                    depth=depth,
                    num_procs=NUM_PROCS,
                    iterations=iterations,
                    engine=engine,
                )
        best = min(best, time.perf_counter() - started)
    return best


def accuracy_gate() -> int:
    reference = run_grid("reference")
    vectorized = run_grid("vectorized")
    speedup = reference / vectorized if vectorized else float("inf")
    print(
        f"perf-smoke[accuracy]: {len(GRID_ITERATIONS)} apps x 3 predictors, "
        f"num_procs={NUM_PROCS}, depths={DEPTHS}"
    )
    print(f"  reference  engine: {reference:7.2f}s")
    print(f"  vectorized engine: {vectorized:7.2f}s")
    print(f"  speedup:           {speedup:7.2f}x (threshold {THRESHOLD:.1f}x)")
    if speedup < THRESHOLD:
        print("perf-smoke[accuracy]: FAIL — vectorized slower than reference")
        return 1
    print("perf-smoke[accuracy]: OK")
    return 0


def timing_gate() -> int:
    import tempfile

    from repro.apps.registry import make_app
    from repro.common.config import SystemConfig
    from repro.sim.machine import Machine, MachineMode
    from repro.sim.timetrace import reset_timetrace_memo
    from repro.trace import configure_trace_cache

    modes = {m.value: m for m in MachineMode}
    config = SystemConfig(num_nodes=NUM_PROCS)
    workloads = {
        app: make_app(
            app, num_procs=NUM_PROCS, iterations=iterations, seed=1999
        ).build()
        for app, iterations in TIMING_GRID.items()
    }

    #: Measured variants: (label, engine).  ``compiled_cold`` records
    #: into an empty cache; ``compiled_cached`` replays from the disk
    #: entry the cold run just wrote (memo dropped, decode included).
    variants = ("fast", "compiled_cold", "compiled_cached")
    cells: dict[str, dict[str, dict]] = {v: {} for v in variants}
    ref_cells: dict[str, float] = {}
    totals = dict.fromkeys(("reference",) + variants, 0.0)
    identical = True
    print(
        f"perf-smoke[timing]: figure9 slice — {len(TIMING_GRID)} apps x "
        f"{{{', '.join(TIMING_MODES)}}}, num_procs={NUM_PROCS}, "
        f"iterations={set(TIMING_GRID.values()).pop()}"
    )
    with tempfile.TemporaryDirectory(prefix="perf-smoke-ttrace-") as tmp:
        cache_root = Path(tmp)
        cell_index = 0
        for app, workload in workloads.items():
            for mode_name in TIMING_MODES:
                mode = modes[mode_name]
                cell_index += 1
                best = dict.fromkeys(("reference",) + variants, float("inf"))
                results: dict[str, object] = {}
                for attempt in range(TIMING_ATTEMPTS):
                    # Interleave engines within each attempt so runner
                    # speed drift hits every side equally.
                    configure_trace_cache(None)
                    for engine in ("reference", "fast"):
                        machine = Machine(
                            workload, config=config, mode=mode, engine=engine
                        )
                        started = time.perf_counter()
                        results[engine] = machine.run()
                        best[engine] = min(
                            best[engine], time.perf_counter() - started
                        )
                    # Cold: record + store into an empty per-attempt dir.
                    configure_trace_cache(
                        cache_root / f"cell{cell_index}-a{attempt}"
                    )
                    reset_timetrace_memo()
                    machine = Machine(
                        workload, config=config, mode=mode, engine="compiled"
                    )
                    started = time.perf_counter()
                    results["compiled_cold"] = machine.run()
                    best["compiled_cold"] = min(
                        best["compiled_cold"], time.perf_counter() - started
                    )
                    # Cached: drop the memo so the disk entry is decoded.
                    reset_timetrace_memo()
                    machine = Machine(
                        workload, config=config, mode=mode, engine="compiled"
                    )
                    started = time.perf_counter()
                    results["compiled_cached"] = machine.run()
                    best["compiled_cached"] = min(
                        best["compiled_cached"], time.perf_counter() - started
                    )
                reference = dataclasses.asdict(results["reference"])
                same = all(
                    dataclasses.asdict(results[v]) == reference
                    for v in ("fast",) + variants[1:]
                )
                identical = identical and same
                cell = f"{app}/{mode_name}"
                ref_cells[cell] = round(best["reference"], 4)
                totals["reference"] += best["reference"]
                line = (
                    f"  {app:6s} {mode_name:8s} "
                    f"reference={best['reference']:6.3f}s"
                )
                for variant in variants:
                    speedup = (
                        best["reference"] / best[variant]
                        if best[variant]
                        else 0.0
                    )
                    cells[variant][cell] = {
                        "seconds": round(best[variant], 4),
                        "speedup": round(speedup, 2),
                        "run_result_identical": same,
                    }
                    totals[variant] += best[variant]
                    line += f" {variant}={best[variant]:6.3f}s ({speedup:5.2f}x)"
                print(line + f" identical={same}")
    configure_trace_cache(None)

    def section(variant: str, threshold: float) -> dict:
        total = totals[variant]
        speedup = totals["reference"] / total if total else 0.0
        return {
            "cells": cells[variant],
            "total_s": round(total, 4),
            "speedup": round(speedup, 2),
            "threshold": threshold,
        }

    fast = section("fast", TIMING_THRESHOLD)
    cold = section("compiled_cold", TIMING_THRESHOLD)
    cached = section("compiled_cached", CACHED_THRESHOLD)
    print(
        f"  total: reference={totals['reference']:6.3f}s "
        f"fast={totals['fast']:6.3f}s ({fast['speedup']:.2f}x, "
        f"threshold {TIMING_THRESHOLD:.1f}x) "
        f"compiled-cold={totals['compiled_cold']:6.3f}s "
        f"({cold['speedup']:.2f}x, threshold {TIMING_THRESHOLD:.1f}x) "
        f"compiled-cached={totals['compiled_cached']:6.3f}s "
        f"({cached['speedup']:.2f}x, threshold {CACHED_THRESHOLD:.1f}x)"
    )

    bench = {
        "schema": BENCH_SCHEMA,
        "benchmark": "figure9-slice timing engines vs reference",
        "num_procs": NUM_PROCS,
        "iterations": dict(TIMING_GRID),
        "modes": list(TIMING_MODES),
        "attempts": TIMING_ATTEMPTS,
        "reference": {
            "cells_s": ref_cells,
            "total_s": round(totals["reference"], 4),
        },
        "engines": {
            "fast": fast,
            "compiled": {"cold": cold, "cached": cached},
        },
    }
    record = json.dumps(bench, indent=2)
    BENCH_PATH.write_text(record + "\n")
    # Emit the record itself, so a local run and the CI log show the
    # same committed benchmark claim without a separate `cat` step.
    print(f"  wrote {BENCH_PATH.name}:")
    print(record)

    if not identical:
        print("perf-smoke[timing]: FAIL — engines disagree on RunResult")
        return 1
    status = 0
    if fast["speedup"] < TIMING_THRESHOLD:
        print("perf-smoke[timing]: FAIL — fast engine slower than reference")
        status = 1
    if cold["speedup"] < TIMING_THRESHOLD:
        print(
            "perf-smoke[timing]: FAIL — compiled engine (cold record) "
            "slower than reference"
        )
        status = 1
    if cached["speedup"] < CACHED_THRESHOLD:
        print(
            "perf-smoke[timing]: FAIL — trace-cached replay below the "
            f"{CACHED_THRESHOLD:.0f}x order-of-magnitude claim"
        )
        status = 1
    if totals["compiled_cached"] > totals["fast"]:
        print(
            "perf-smoke[timing]: FAIL — trace-cached replay slower than "
            "the fast engine"
        )
        status = 1
    if status:
        return status
    print("perf-smoke[timing]: OK")
    return 0


def main() -> int:
    status = accuracy_gate()
    print()
    status |= timing_gate()
    return status


if __name__ == "__main__":
    sys.exit(main())
