"""The batch workloads: a cold accuracy grid and a cold timing grid.

Both run the way ``repro-paper`` runs a figure with ``--jobs 1``: a
``ParallelRunner`` over a fresh ``ResultStore`` whose directory also
holds the compiled-trace cache, everything in this one process.  One
repetition ("rep") is one cold run of the whole grid into an empty
cache, point by point, with a calibration probe between points (see
``calib.py``); reps repeat until ``--seconds`` is used up and medians
are reported.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from calib import Speed
from common import (
    Tally,
    canonical,
    corrupted,
    fresh_dir,
    median,
    peak_rss_mb,
    pin,
    remove_dir,
)
from hooks import EXACT_COUNTS, Hooks, layer_metrics

PROBE = Path(__file__).with_name("setup_probe.py")
SRC = Path(__file__).resolve().parents[1] / "src"

#: Warm re-runs of the whole grid after each untraced rep, in blocks
#: with a calibration probe after each block.
WARM_BLOCKS, WARM_PASSES = 4, 10

#: Set-up repetitions (fresh interpreter each) after each untraced rep,
#: and at least this many per run; the median is reported.
PROBES_PER_REP = 2
MIN_PROBES = 6

#: Apps whose 64-node cells join the timing grid (large same-cycle cohorts).
LARGE_APPS = ("em3d", "ocean")


def grid_points(workload: str, rng: random.Random, short: bool) -> list:
    """The grid's points; app seeds and race seeds come from ``rng``."""
    from repro.apps.registry import APP_NAMES
    from repro.eval.experiments import (
        ACCURACY_ITERATIONS,
        PERFORMANCE_ITERATIONS,
        PREDICTORS,
    )
    from repro.harness import SweepPoint

    apps = ("em3d", "ocean") if short else APP_NAMES
    seeds = {app: rng.randrange(1, 2**31) for app in APP_NAMES}
    if workload == "accuracy_cold":
        race_seeds = {app: rng.randrange(1, 2**31) for app in APP_NAMES}
        depths = (1, 2) if short else (1, 2, 4)
        return [
            SweepPoint.make(
                "accuracy",
                {
                    "app": app,
                    "depth": depth,
                    "predictors": PREDICTORS,
                    "iterations": 4 if short else ACCURACY_ITERATIONS[app],
                    "seed": seeds[app],
                    "race_seed": race_seeds[app],
                },
            )
            for app in apps
            for depth in depths
        ]
    cells = [(app, 16) for app in apps] + [(app, 64) for app in LARGE_APPS]
    return [
        SweepPoint.make(
            "speculation",
            {
                "app": app,
                "num_procs": nodes,
                "iterations": 2 if short else PERFORMANCE_ITERATIONS[app],
                "seed": seeds[app],
            },
        )
        for app, nodes in cells
    ]


def setup_seconds(
    workload: str, workdir: Path, speed: Speed, tally: Tally, probes: int
) -> list[float]:
    """Spawn-to-exit time of a fresh interpreter importing the CLI stack
    and building the runner and caches (rescaled, one per probe)."""
    times = []
    for _ in range(probes):
        cache = fresh_dir(workdir, "probe-")
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(PROBE), str(SRC), str(cache), workload],
            capture_output=True,
            timeout=60,
        )
        ended = time.perf_counter()
        speed.sample()
        times.append(speed.scale(started, ended))
        remove_dir(cache)
        tally.check(proc.returncode == 0, f"setup: probe exited {proc.returncode}")
    return times


def _cold_rep(points: list, workdir: Path, hooks: Hooks, speed: Speed) -> dict[str, Any]:
    """One cold run of the grid into an empty result and trace cache.

    Points run one ``ParallelRunner.run`` call each -- with ``jobs=1``
    the same work a whole-grid call does -- so a calibration probe can
    sit between them.
    """
    from repro.harness import ParallelRunner, ResultStore
    from repro.trace import configure_trace_cache

    cache = fresh_dir(workdir, "cache-")
    configure_trace_cache(cache)
    runner = ParallelRunner(jobs=1, store=ResultStore(cache))
    hooks.reset()
    spans: list[tuple[float, float]] = []
    values = []
    speed.sample()
    for point in points:
        started = time.perf_counter()
        if hooks.trace:
            with hooks.span("harness.run", "harness", hooks.request_id("point")):
                result = runner.run([point])
        else:
            result = runner.run([point])
        spans.append((started, time.perf_counter()))
        values.append(result.values[0])
        speed.sample()
    configure_trace_cache(None)
    wall = sum(end - start for start, end in spans)
    return {
        "wall": wall,
        "scaled": [speed.scale(start, end) for start, end in spans],
        "counts": dict(hooks.counts),
        "values": values,
        "cache": cache,
        "layers": layer_metrics(hooks.summary(), wall) if hooks.trace else None,
    }


def _warm_reads(
    points: list, rep: dict, speed: Speed, tally: Tally, corrupt: set[str]
) -> list[float]:
    """Re-run the grid against the warm store, as a second ``repro-paper``
    invocation would; every answer must match the cold one.  Returns the
    read time per point of each re-run, rescaled."""
    from repro.harness import ParallelRunner, ResultStore

    runner = ParallelRunner(jobs=1, store=ResultStore(rep["cache"]))
    values = list(rep["values"])
    if "warm_read" in corrupt:
        values[0] = corrupted(values[0])
    expected = canonical(values)
    per_point = []
    for _ in range(WARM_BLOCKS):
        times = []
        started = time.perf_counter()
        for _ in range(WARM_PASSES):
            t0 = time.perf_counter()
            result = runner.run(points)
            times.append((time.perf_counter() - t0) / len(points))
            tally.check(
                result.report.cached == len(points)
                and canonical(result.values) == expected,
                "warm_read: a warm re-run differs from the cold results",
            )
        ended = time.perf_counter()
        speed.sample()
        factor = speed.scale(started, ended) / (ended - started)
        per_point += [t * factor for t in times]
    return per_point


def _reference_check(
    points: list, values: list, rng: random.Random, tally: Tally, corrupt: set[str]
) -> None:
    """Recompute one seed-chosen point on the reference engine (untimed)."""
    from repro.harness.runners import execute_point

    index = rng.randrange(len(points))
    point = points[index]
    got = execute_point(point.kind, {**point.as_dict(), "engine": "reference"})
    want = corrupted(values[index]) if "reference" in corrupt else values[index]
    tally.check(
        canonical(got) == canonical(want),
        f"reference: the reference engine disagrees on {point.as_dict()}",
    )


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    short: bool,
    corrupt: set[str],
    workdir: Path,
) -> tuple[dict[str, Any], list[dict[str, int]], Tally, Any]:
    """Run one batch workload; returns (metrics, exact counts, tally, span writer)."""
    rng = random.Random(f"{workload}:{seed}")
    tally = Tally()
    pin(0)  # the work and the probes that rescale it share one core
    speed = Speed()
    points = grid_points(workload, rng, short)
    plain, traced = Hooks(trace=False), Hooks(trace=True)
    # Untimed warm-up on the short grid (other seeds, so nothing is
    # shared with the measured grid): imports and lazy set-up finish
    # before the first timed rep.
    warmup = grid_points(workload, random.Random(seed), True)
    remove_dir(_cold_rep(warmup, workdir, plain, speed)["cache"])

    # Untraced reps alternate with traced ones in a traced run, so the
    # tracing overhead compares the same seed under the same conditions.
    reps: dict[bool, list[dict[str, Any]]] = {False: [], True: []}
    warm: list[float] = []
    probes: list[float] = []
    started = time.perf_counter()
    while True:
        use_trace = trace and len(reps[True]) < len(reps[False])
        hooks = (traced if use_trace else plain).install()
        try:
            rep = _cold_rep(points, workdir, hooks, speed)
        finally:
            hooks.remove()
        reps[use_trace].append(rep)
        if not trace:
            warm += _warm_reads(points, rep, speed, tally, corrupt)
            probes += setup_seconds(workload, workdir, speed, tally, PROBES_PER_REP)
        remove_dir(rep["cache"])
        tally.passed(len(points), "compute")  # every point computed and stored
        done = len(reps[False]) + len(reps[True])
        spent = time.perf_counter() - started
        need_traced = trace and not reps[True]
        if not need_traced and spent * (done + 1) / done > seconds:
            break
    if not trace and len(probes) < MIN_PROBES:
        probes += setup_seconds(workload, workdir, speed, tally, MIN_PROBES - len(probes))

    first = reps[False][0]
    for rep in reps[False][1:] + reps[True]:
        tally.check(
            canonical(rep["values"]) == canonical(first["values"]),
            "repeat: a repeated cold grid produced different results",
        )
    counts = [
        {name: rep["counts"].get(name, 0) for name in EXACT_COUNTS}
        for rep in reps[False] + reps[True]
    ]
    rss = peak_rss_mb()  # before the untimed reference recompute
    _reference_check(points, first["values"], rng, tally, corrupt)

    wall = median([sum(r["scaled"]) for r in reps[False]])
    if trace:
        layers = {
            name: median([r["layers"][name] for r in reps[True]])
            for name in reps[True][0]["layers"]
        }
        traced_wall = median([sum(r["scaled"]) for r in reps[True]])
        layers["tracing.overhead_s"] = traced_wall - wall
        return layers, counts, tally, traced.write_spans
    per_point = [median(times) for times in zip(*(r["scaled"] for r in reps[False]))]
    c = first["counts"]
    metrics = {
        "setup_s": median(probes),
        "wall_s": wall,
        "msgs_per_s": c.get("msgs.home", 0) / wall,
        "sim_ops_per_s": c.get("ops.modelled", 0) / wall,
        "requests_per_s": len(points) / wall,
        "read_p50_ms": 1000.0 * median(warm),
        "session_events_per_s": c.get("msgs.predicted", 0) / wall,
        "cold_point_p50_ms": 1000.0 * median(per_point),
        "peak_rss_mb": rss,
        "detail": {
            "raw_wall_s": [r["wall"] for r in reps[False]],
            "scaled_wall_s": [sum(r["scaled"]) for r in reps[False]],
            "probe_s": speed.probes,
        },
    }
    return metrics, counts, tally, None
