"""The reproduction's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload accuracy_cold --seed 1 --seconds 35 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no spans recorded; ``--trace 1`` gives the per-layer
metrics from spans taken around calls into each layer, plus the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it records the seed, the host and any failed checks.

``python3 perfbench/run.py --self-check`` runs every workload at a
short size and verifies the benchmark itself (see :func:`self_check`).
See ``perfbench/README.md`` for what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from common import WORK_ROOT, Tally, fresh_dir, host_info, remove_dir  # noqa: E402

WORKLOADS = ("accuracy_cold", "timing_cold", "service_mixed")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "msgs_per_s": "1/s",
    "sim_ops_per_s": "1/s",
    "requests_per_s": "1/s",
    "read_p50_ms": "ms",
    "session_events_per_s": "1/s",
    "cold_point_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

PER_LAYER = {
    "apps.build_s": "s",
    "protocol.compile_s": "s",
    "trace.evaluate_s": "s",
    "trace.load_s": "s",
    "trace.cache_hit_rate": "ratio",
    "sim.run_s.n16": "s",
    "sim.run_s.n64": "s",
    "sim.ns_per_event": "ns",
    "sim.setup_s": "s",
    "harness.store_read_s": "s",
    "harness.store_write_s": "s",
    "harness.hot_tier_hit_rate": "ratio",
    "harness.overhead_s": "s",
    "predictors.observe_s": "s",
    "service.wire_parse_s": "s",
    "service.session_batch_p50_ms": "ms",
    "service.read_p99_ms": "ms",
    "service.share.read": "ratio",
    "service.share.session": "ratio",
    "service.share.cold": "ratio",
    "apps.self_s": "s",
    "protocol.self_s": "s",
    "trace.self_s": "s",
    "predictors.self_s": "s",
    "sim.self_s": "s",
    "harness.self_s": "s",
    "service.self_s": "s",
    "tracing.coverage": "ratio",
    "tracing.overhead_s": "s",
    "apps.ops": "count",
    "protocol.messages": "count",
    "sim.events": "count",
    "sim.cycles": "count",
    "speculation.sent": "count",
    "speculation.missed": "count",
}

#: The output checks each workload carries, by the tag their failures use.
CHECKS = {
    "accuracy_cold": ("reference", "warm_read", "counts"),
    "timing_cold": ("reference", "warm_read", "counts"),
    "service_mixed": ("read", "summary", "cold"),
}


def _counts_guard(
    workload: str, seed: int, short: bool, counts: list[dict], tally: Tally
) -> None:
    """Exact counts must match across every pass of this run and every
    earlier run of the same workload and seed in this checkout."""
    path = WORK_ROOT / "counts" / f"{workload}{'-short' if short else ''}-seed{seed}.json"
    if path.exists():
        counts = [json.loads(path.read_text())] + counts
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts[0], sort_keys=True))
    for other in counts[1:]:
        tally.check(
            other == counts[0],
            f"counts: exact counts differ between passes of seed {seed}: "
            f"{counts[0]} vs {other}",
        )


def run_workload(args: argparse.Namespace) -> int:
    corrupt = set(filter(None, args.corrupt.split(",")))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = fresh_dir(WORK_ROOT, f"{args.workload}-")
    try:
        if args.workload == "service_mixed":
            import service

            metrics, counts, tally, write_spans = service.run(
                args.seed, args.seconds, args.trace == 1, args.short, corrupt, workdir
            )
        else:
            import batch

            metrics, counts, tally, write_spans = batch.run(
                args.workload,
                args.seed,
                args.seconds,
                args.trace == 1,
                args.short,
                corrupt,
                workdir,
            )
        if "counts" in CHECKS[args.workload]:
            if "counts" in corrupt:
                counts[0] = {**counts[0], "apps.ops": counts[0]["apps.ops"] + 1}
            _counts_guard(args.workload, args.seed, args.short, counts, tally)
        results = WORK_ROOT / "results"
        results.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if write_spans is not None:
            write_spans(str(results / f"{stem}.spans.jsonl"))
    finally:
        remove_dir(workdir)

    names = PER_LAYER if args.trace == 1 else END_TO_END
    if args.trace == 0:
        metrics["success_rate"] = tally.success_rate
    out = {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in names.items()
    }
    info = {
        "run": host_info(args.seed),
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "short": args.short,
        "exact_counts": counts[0] if counts else None,
        "detail": metrics.get("detail"),
        "failures": tally.failures,
    }
    record = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out,
    }
    (results / f"{stem}.json").write_text(json.dumps({**info, **record}, indent=1))
    for name, entry in out.items():
        print(f"  {name:<30} {entry['value']:>16.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(record))
    return 0


def _invoke(workload: str, trace: int, extra: list[str]) -> dict:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", "1",
        "--seconds", "2",
        "--trace", str(trace),
        "--short",
        *extra,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2]), "record": json.loads(lines[-1])}


def self_check() -> int:
    """Short-size runs proving the benchmark measures and checks.

    For each workload: the untraced run emits every end-to-end metric
    with its unit, finite, and passes its checks; the traced run emits
    every per-layer metric and reproduces the exact counts; and a run
    with every output check fed a deliberately corrupted result fails
    each of those checks.
    """
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    short_counts = WORK_ROOT / "counts"
    for path in short_counts.glob("*-short-seed1.json"):
        path.unlink()
    for workload in WORKLOADS:
        started = time.perf_counter()
        for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
            got = _invoke(workload, trace, [])
            record = got["record"]
            assert record["correct"] and record["failed"] == 0, got
            assert record["attempted"] >= 1
            assert set(record["metrics"]) == set(names), record["metrics"].keys()
            for name, entry in record["metrics"].items():
                assert entry["unit"] == names[name], (name, entry)
                assert math.isfinite(entry["value"]), (name, entry)
            assert got["info"]["run"]["seed"] == 1
        checks = CHECKS[workload]
        got = _invoke(workload, 0, ["--corrupt", ",".join(checks)])
        assert not got["record"]["correct"], got
        # some corrupted check fails every time it runs, which the
        # worst-check success rate must show in full
        assert got["record"]["metrics"]["success_rate"]["value"] == 0.0, got
        for check in checks:
            assert any(f.startswith(f"{check}:") for f in got["info"]["failures"]), (
                f"{workload}: the {check!r} check did not fire on a corrupted result",
                got["info"]["failures"],
            )
        print(
            f"self-check {workload}: ok ({time.perf_counter() - started:.1f}s; "
            f"checks that fire: {', '.join(checks)})"
        )
    for path in short_counts.glob("*-short-seed1.json"):
        path.unlink()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short", action="store_true", help="tiny inputs (used by --self-check)"
    )
    parser.add_argument(
        "--corrupt",
        default="",
        help="comma-separated output checks to feed a corrupted result "
        "(used by --self-check)",
    )
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
