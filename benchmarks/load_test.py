#!/usr/bin/env python
"""Concurrent load proof for ``repro-paper serve``.

Drives N threads × M keep-alive requests against a running server and
records the latency distribution, throughput, and a correctness check:
every response for the same target must carry bit-identical ``result``
bytes, whether it was computed, served from the disk store, or served
from the in-process hot tier.  The summary record is written to
``BENCH_service.json`` (committed at the repo root next to
``BENCH_timing.json``) and printed to stdout.

With ``--session APP`` it then streams APP's recorded home-directory
trace through one session per predictor (open, NDJSON batches, close)
and checks that each close summary's ``run`` equals the reference
engine's batch run over the same trace, so the session codec is driven
end to end over real sockets.

Usage (the server is started separately; see the ``load-smoke`` CI lane)::

    PYTHONPATH=src python -m repro.eval.cli serve --port 8599 &
    PYTHONPATH=src python benchmarks/load_test.py --url http://127.0.0.1:8599 \\
        --threads 8 --requests 50 --session em3d

The file deliberately does NOT match pytest's ``test_*.py`` collection
pattern (see pytest.ini): it is a standalone tool, not a test module.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
import time
from http.client import HTTPConnection
from urllib.parse import urlsplit

DEFAULT_TARGETS = [
    "/v1/point?kind=analytic&panel=accuracy&points=3",
    "/v1/point?kind=analytic&panel=fraction&points=3",
]

#: The session stream: one session per predictor over the same trace.
SESSION_PREDICTORS = ("Cosmos", "MSP", "VMSP")
SESSION_DEPTH = 2
SESSION_PROCS = 8
SESSION_ITERATIONS = 3
SESSION_BATCH = 256


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1)))
    return sorted_values[index]


class Worker(threading.Thread):
    """One client: a keep-alive connection looping over the targets."""

    def __init__(
        self,
        host: str,
        port: int,
        targets: list[str],
        requests: int,
        timeout_s: float,
        headers: dict[str, str],
    ) -> None:
        super().__init__(daemon=True)
        self.host, self.port = host, port
        self.targets = targets
        self.requests = requests
        self.timeout_s = timeout_s
        self.headers = headers
        self.latencies_ms: list[float] = []
        self.statuses: dict[int, int] = {}
        #: target -> set of sha256 hexdigests of the response "result".
        self.result_hashes: dict[str, set[str]] = {t: set() for t in targets}
        self.errors: list[str] = []

    def run(self) -> None:
        connection = HTTPConnection(self.host, self.port, timeout=self.timeout_s)
        try:
            for i in range(self.requests):
                target = self.targets[i % len(self.targets)]
                started = time.perf_counter()
                try:
                    connection.request("GET", target, headers=self.headers)
                    response = connection.getresponse()
                    body = response.read()
                except OSError as exc:
                    self.errors.append(f"{target}: {exc}")
                    connection.close()
                    connection = HTTPConnection(
                        self.host, self.port, timeout=self.timeout_s
                    )
                    continue
                elapsed_ms = 1000.0 * (time.perf_counter() - started)
                self.latencies_ms.append(elapsed_ms)
                self.statuses[response.status] = (
                    self.statuses.get(response.status, 0) + 1
                )
                if response.status == 200:
                    try:
                        payload = json.loads(body)
                    except ValueError:
                        self.errors.append(f"{target}: unparseable body")
                        continue
                    # Hash only the result: wall_ms/elapsed_s legitimately
                    # vary between hot, cold, and computed servings.
                    digest = hashlib.sha256(
                        json.dumps(payload.get("result"), sort_keys=True).encode()
                    ).hexdigest()
                    self.result_hashes[target].add(digest)
        finally:
            connection.close()


def stream_sessions(
    host: str, port: int, app: str, timeout_s: float, headers: dict[str, str]
) -> dict:
    """Stream ``app``'s recorded trace through one session per predictor.

    Each close summary's ``run`` is compared with
    ``run_predictors(engine="reference")`` over the same workload, and
    every batch must answer one prediction line per event.
    """
    from repro.eval.accuracy import run_predictors
    from repro.service.client import record_app_trace

    workload = {"num_procs": SESSION_PROCS, "iterations": SESSION_ITERATIONS}
    events = record_app_trace(app, **workload)
    batches = [
        b"".join(
            json.dumps(event, sort_keys=True).encode() + b"\n"
            for event in events[start : start + SESSION_BATCH]
        )
        for start in range(0, len(events), SESSION_BATCH)
    ]
    reference = run_predictors(
        app,
        depth=SESSION_DEPTH,
        predictors=SESSION_PREDICTORS,
        engine="reference",
        **workload,
    )
    errors: list[str] = []
    matched: list[str] = []
    lines = 0
    connection = HTTPConnection(host, port, timeout=timeout_s)

    def call(method: str, target: str, body: bytes | None = None, ctype: str = ""):
        extra = {"Content-Type": ctype} if ctype else {}
        connection.request(method, target, body=body, headers={**headers, **extra})
        response = connection.getresponse()
        return response.status, response.read()

    started = time.perf_counter()
    try:
        for predictor in SESSION_PREDICTORS:
            opened = {
                "predictor": predictor,
                "depth": SESSION_DEPTH,
                "num_procs": SESSION_PROCS,
            }
            status, body = call(
                "POST", "/v1/sessions", json.dumps(opened).encode(), "application/json"
            )
            if status != 201:
                errors.append(f"{predictor}: open answered {status}")
                continue
            session = json.loads(body)["session"]
            for batch in batches:
                status, body = call(
                    "POST",
                    f"/v1/sessions/{session}/events",
                    batch,
                    "application/x-ndjson",
                )
                if status != 200:
                    errors.append(f"{predictor}: batch answered {status}")
                    break
                lines += body.count(b"\n")
            status, body = call("DELETE", f"/v1/sessions/{session}")
            if status != 200:
                errors.append(f"{predictor}: close answered {status}")
                continue
            run = reference[predictor]
            expected = {
                "accuracy": run.accuracy,
                "coverage": run.coverage,
                "correct_fraction": run.correct_fraction,
                "average_pte": run.average_pte,
                "overhead_bytes": run.overhead_bytes,
            }
            if json.dumps(json.loads(body)["run"], sort_keys=True) == json.dumps(
                expected, sort_keys=True
            ):
                matched.append(predictor)
            else:
                errors.append(f"{predictor}: close summary differs from the batch run")
    except (OSError, ValueError, KeyError) as exc:
        errors.append(f"session stream: {exc}")
    finally:
        connection.close()
    wall_s = time.perf_counter() - started
    expected_lines = len(events) * len(SESSION_PREDICTORS)
    if lines != expected_lines:
        errors.append(f"{lines} prediction lines for {expected_lines} events")
    return {
        "app": app,
        "depth": SESSION_DEPTH,
        "num_procs": SESSION_PROCS,
        "iterations": SESSION_ITERATIONS,
        "events": len(events),
        "batches": len(batches),
        "predictors": list(SESSION_PREDICTORS),
        "lines": lines,
        "runs_match": matched == list(SESSION_PREDICTORS),
        "wall_s": round(wall_s, 3),
        "errors": errors,
    }


def fetch_json(
    host: str, port: int, target: str, timeout_s: float, headers: dict[str, str]
):
    connection = HTTPConnection(host, port, timeout=timeout_s)
    try:
        connection.request("GET", target, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Concurrent load test against a running repro-paper server."
    )
    parser.add_argument(
        "--url", default="http://127.0.0.1:8599", help="server base URL"
    )
    parser.add_argument(
        "--threads", type=int, default=8, metavar="N", help="client threads"
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=50,
        metavar="M",
        help="requests per thread (targets are cycled)",
    )
    parser.add_argument(
        "--target",
        action="append",
        default=None,
        metavar="PATH",
        help="request target (repeatable; default: two analytic points)",
    )
    parser.add_argument(
        "--api-key",
        default=os.environ.get("REPRO_API_KEY"),
        metavar="KEY",
        help="API key sent as X-API-Key (default: REPRO_API_KEY env)",
    )
    parser.add_argument(
        "--timeout-s", type=float, default=30.0, help="per-request timeout"
    )
    parser.add_argument(
        "--session",
        default=None,
        metavar="APP",
        help="after the reads, stream APP's recorded trace through one "
        "session per predictor and check it against the batch run "
        "(needs the repro package importable, e.g. PYTHONPATH=src)",
    )
    parser.add_argument(
        "--label", default="service load test", help="benchmark label"
    )
    parser.add_argument(
        "--out",
        default="BENCH_service.json",
        metavar="FILE",
        help="summary record path ('-' = stdout only)",
    )
    args = parser.parse_args(argv)
    if args.threads < 1 or args.requests < 1:
        parser.error("--threads and --requests must be >= 1")

    split = urlsplit(args.url)
    host, port = split.hostname or "127.0.0.1", split.port or 80
    targets = args.target or list(DEFAULT_TARGETS)
    headers = {"X-API-Key": args.api_key} if args.api_key else {}

    workers = [
        Worker(host, port, targets, args.requests, args.timeout_s, headers)
        for _ in range(args.threads)
    ]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    wall_s = time.perf_counter() - started

    latencies = sorted(x for w in workers for x in w.latencies_ms)
    statuses: dict[int, int] = {}
    errors: list[str] = []
    hashes: dict[str, set[str]] = {t: set() for t in targets}
    for worker in workers:
        errors.extend(worker.errors)
        for status, count in worker.statuses.items():
            statuses[status] = statuses.get(status, 0) + count
        for target, digests in worker.result_hashes.items():
            hashes[target] |= digests
    total = sum(statuses.values())
    non_2xx = sum(c for s, c in statuses.items() if not 200 <= s < 300)
    inconsistent = sorted(t for t, d in hashes.items() if len(d) > 1)

    hot_tier = None
    try:
        status, statz = fetch_json(host, port, "/statz", args.timeout_s, headers)
        if status == 200:
            hot_tier = statz.get("hot_tier")
    except (OSError, ValueError) as exc:
        errors.append(f"/statz: {exc}")

    session = (
        stream_sessions(host, port, args.session, args.timeout_s, headers)
        if args.session
        else None
    )

    record = {
        "schema": 2,
        "benchmark": args.label,
        "threads": args.threads,
        "requests_per_thread": args.requests,
        "targets": targets,
        "requests": total,
        "wall_s": round(wall_s, 3),
        "rps": round(total / wall_s, 1) if wall_s > 0 else None,
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50), 3),
            "p90": round(_percentile(latencies, 0.90), 3),
            "p99": round(_percentile(latencies, 0.99), 3),
            "max": round(latencies[-1], 3) if latencies else 0.0,
        },
        "statuses": {str(s): c for s, c in sorted(statuses.items())},
        "non_2xx": non_2xx,
        "transport_errors": len(errors),
        "results_consistent": not inconsistent,
        "hot_tier": hot_tier,
        "session": session,
    }
    rendered = json.dumps(record, indent=2, sort_keys=True)
    print(rendered)
    if args.out != "-":
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")

    ok = True
    if non_2xx or errors:
        print(
            f"FAIL: {non_2xx} non-2xx responses, {len(errors)} transport "
            f"errors (first: {errors[0] if errors else 'n/a'})",
            file=sys.stderr,
        )
        ok = False
    if inconsistent:
        print(
            "FAIL: differing result bytes for target(s): "
            + ", ".join(inconsistent),
            file=sys.stderr,
        )
        ok = False
    if session is not None and (session["errors"] or not session["runs_match"]):
        print(f"FAIL: session stream: {session['errors']}", file=sys.stderr)
        ok = False
    if ok:
        print(
            f"[{total} requests in {wall_s:.2f}s, {record['rps']} rps, "
            f"p99 {record['latency_ms']['p99']}ms, results consistent]",
            file=sys.stderr,
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
