"""The ``service_mixed`` workload: ``repro-paper serve`` under a mixed load.

The server runs as ``repro-paper serve --jobs 1`` on a fresh cache
directory (through ``serve.py``, which only adds the benchmark's hooks).
Two client threads in this process, one keep-alive connection each,
loop closed over a round of:

* one cold point (accuracy and speculation alternately) new to the cache;
* one streaming session: open, NDJSON event batches, close;
* ``GET /v1/point`` reads of a read set computed during set-up, spread
  between the session's batches.

Every read must return the set-up result byte for byte, every session's
close summary must equal the reference engine's batch run over the same
events, and every cold point must be computed fresh.
"""

from __future__ import annotations

import bisect
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection
from pathlib import Path
from typing import Any
from urllib.parse import urlencode

from common import (
    Tally,
    canonical,
    corrupted,
    fresh_dir,
    median,
    peak_rss_mb,
    percentile,
    pin,
)
from calib import Speed
from hooks import EXACT_COUNTS, layer_metrics

SERVE = Path(__file__).with_name("serve.py")
SRC = Path(__file__).resolve().parents[1] / "src"

#: Server boots in an untraced run; set-up time is their median.
SETUP_BOOTS = 3
CLIENTS = 2
BATCH_EVENTS = 1000
#: Sized so reads, session events and cold points each take a
#: comparable share of server time; the traced run measures the shares
#: (``service.share.*``: 0.27 / 0.34 / 0.39 on a 2-vCPU host).
READS_PER_ROUND = 600
SESSION_STREAMS = 6
BOOT_TIMEOUT_S = 60.0
#: Seconds between host-speed probes during the loop (calib.py).
PROBE_INTERVAL_S = 0.5
SERVER_CPU, CLIENT_CPU = 0, 1


@dataclass
class Inputs:
    reads: list  # SweepPoints of the read set
    expected: dict[str, Any]  # point key -> result
    streams: list[dict[str, Any]]
    seed: int


@dataclass
class LoopStats:
    """What the clients saw.  Timings are (start, end) perf_counter pairs
    until :meth:`rescale` turns them into host-rescaled milliseconds."""

    reads: list[tuple[float, float]] = field(default_factory=list)
    colds: list[tuple[float, float]] = field(default_factory=list)
    #: (kind, app) of each cold point, in the order of ``colds``.
    cold_classes: list[tuple[str, str]] = field(default_factory=list)
    batches: list[tuple[float, float]] = field(default_factory=list)
    rounds: list[tuple[float, float]] = field(default_factory=list)
    requests: int = 0
    events: int = 0
    cold_points: list[tuple[Any, Any]] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    #: (start, end) of each stretch this client sat parked at the gate.
    parks: list[tuple[float, float]] = field(default_factory=list)
    #: The loop's length without the probe pauses, rescaled and as measured.
    seconds: float = 0.0
    raw_seconds: float = 0.0

    def rescale(self, speed: "Speed") -> None:
        """One client's timings to ms, rescaled by the probes around them,
        with the time the client sat parked cut out."""
        timeline = Timeline(speed, self.parks)
        for name in ("reads", "colds", "batches", "rounds"):
            spans = getattr(self, name)
            setattr(self, name, [1000.0 * timeline.active(a, b) for a, b in spans])

    def merge(self, other: "LoopStats") -> None:
        self.reads += other.reads
        self.colds += other.colds
        self.cold_classes += other.cold_classes
        self.batches += other.batches
        self.rounds += other.rounds
        self.requests += other.requests
        self.events += other.events
        self.cold_points += other.cold_points
        self.tally.merge(other.tally)


class Gate:
    """Parks the client threads between requests while a probe runs, so
    that every probe finds the server idle (a probe beside the busy
    server would share its core and caches, and slow with it)."""

    def __init__(self, clients: int) -> None:
        self._cond = threading.Condition()
        self._closed = False
        self._running = clients
        self._parked = 0
        #: (start, end) of each stretch in which the server sat idle.
        self.pauses: list[tuple[float, float]] = []

    def enter(self, parks: list[tuple[float, float]]) -> None:
        """Called by a client before each request; a stretch spent
        parked is added to ``parks``."""
        with self._cond:
            if not self._closed:
                return
            parked = time.perf_counter()
            self._parked += 1
            self._cond.notify_all()
            while self._closed:
                self._cond.wait()
            self._parked -= 1
        parks.append((parked, time.perf_counter()))

    def leave(self) -> None:
        """Called by a client whose loop has ended."""
        with self._cond:
            self._running -= 1
            self._cond.notify_all()

    def probe(self, speed: Speed) -> None:
        """Wait until every running client is parked, probe, reopen."""
        with self._cond:
            self._closed = True
            while self._parked < self._running:
                self._cond.wait()
        idle = time.perf_counter()
        speed.sample()
        with self._cond:
            self._closed = False
            self._cond.notify_all()
        self.pauses.append((idle, time.perf_counter()))


class Timeline:
    """Durations rescaled by the probes around each stretch, with pauses
    (sorted, not overlapping) cut out."""

    def __init__(self, speed: Speed, pauses: list[tuple[float, float]]) -> None:
        self.speed = speed
        self.pauses = pauses
        self._ends = [p1 for _, p1 in pauses]

    def active(self, start: float, end: float) -> float:
        total, at = 0.0, start
        first = bisect.bisect_right(self._ends, start)
        for p0, p1 in self.pauses[first:]:
            if p0 >= end:
                break
            if p0 > at:
                total += self.speed.scale(at, p0)
            at = max(at, p1)
        if end > at:
            total += self.speed.scale(at, end)
        return total


def _target(point) -> str:
    query = {"kind": point.kind}
    query.update({k: json.dumps(v) for k, v in point.as_dict().items()})
    return "/v1/point?" + urlencode(query)


class Connection:
    """One keep-alive HTTP/1.1 connection.

    With a ``gate``, each request first waits there (the stretches parked
    go to ``parks``), and :attr:`span` is the (start, end) of the last
    request itself.
    """

    def __init__(
        self, port: int, gate: Gate | None = None, parks: list | None = None
    ) -> None:
        self._conn = HTTPConnection("127.0.0.1", port, timeout=120)
        self._gate = gate
        self._parks = parks
        self.span = (0.0, 0.0)

    def pass_gate(self) -> None:
        if self._gate is not None:
            self._gate.enter(self._parks)

    def request(
        self,
        method: str,
        target: str,
        body: bytes | None = None,
        ctype: str = "",
        gated: bool = True,
    ) -> tuple[int, bytes]:
        if gated:
            self.pass_gate()
        started = time.perf_counter()
        headers = {"Content-Type": ctype} if ctype else {}
        self._conn.request(method, target, body=body, headers=headers)
        response = self._conn.getresponse()
        status, payload = response.status, response.read()
        self.span = (started, time.perf_counter())
        return status, payload

    def close(self) -> None:
        self._conn.close()


class Server:
    """A ``repro-paper serve`` subprocess on its own cache directory."""

    def __init__(self, template: Path, workdir: Path, trace: bool) -> None:
        self.cache = fresh_dir(workdir, "serve-cache-")
        shutil.copytree(template, self.cache, dirs_exist_ok=True)
        self.dump = self.cache.with_name(self.cache.name + ".json")
        self.log = self.cache.with_name(self.cache.name + ".log")
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, str(SERVE), str(SRC), str(self.dump),
                    "1" if trace else "0",
                    "serve", "--port", "0", "--jobs", "1",
                    "--cache-dir", str(self.cache),
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        pin(SERVER_CPU, self.proc.pid)  # before the server starts its threads
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            text = self.log.read_text(errors="replace")
            marker = "listening on http://127.0.0.1:"
            if marker in text:
                tail = text.split(marker, 1)[1]
                digits = tail[: len(tail) - len(tail.lstrip("0123456789"))]
                if tail[len(digits) :][:1] in ("\n", " ", "/"):
                    return int(digits)
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not come up:\n{self.log.read_text()}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> dict[str, Any]:
        """SIGINT, wait, and return what the server's hooks recorded."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            return json.loads(self.dump.read_text())
        except (OSError, ValueError):
            return {}


def prepare(rng: random.Random, short: bool, template: Path) -> Inputs:
    """Compute the read set into ``template`` and record the session
    streams with their reference-engine expectations (all untimed)."""
    from repro.apps.registry import APP_NAMES
    from repro.eval.accuracy import run_predictors
    from repro.eval.experiments import PREDICTORS
    from repro.harness import ParallelRunner, ResultStore, SweepPoint
    from repro.service.client import record_app_trace
    from repro.trace import configure_trace_cache

    seed = rng.randrange(1, 2**31)
    reads = []
    for i in range(4 if short else 16):
        reads.append(
            SweepPoint.make(
                "accuracy",
                {
                    "app": APP_NAMES[i % len(APP_NAMES)],
                    "depth": (1, 2, 4)[i % 3],
                    "iterations": 3,
                    "seed": rng.randrange(1, 2**31),
                },
            )
        )
    for i in range(2 if short else 8):
        reads.append(
            SweepPoint.make(
                "speculation",
                {
                    "app": APP_NAMES[i % len(APP_NAMES)],
                    "num_procs": 8,
                    "iterations": 2,
                    "seed": rng.randrange(1, 2**31),
                },
            )
        )
    configure_trace_cache(template)
    try:
        result = ParallelRunner(jobs=1, store=ResultStore(template)).run(reads)
    finally:
        configure_trace_cache(None)
    expected = {p.key: v for p, v in zip(reads, result.values)}

    streams = []
    for i in range(2 if short else SESSION_STREAMS):
        params = {
            "app": APP_NAMES[(3 * i) % len(APP_NAMES)],
            "num_procs": 16,
            "iterations": 2 if short else 3,
            "seed": rng.randrange(1, 2**31),
            "race_seed": rng.randrange(1, 2**31),
        }
        predictor = PREDICTORS[i % len(PREDICTORS)]
        depth = (1, 2, 4)[i % 3]
        events = record_app_trace(**params)
        chunks = [
            events[start : start + BATCH_EVENTS]
            for start in range(0, len(events), BATCH_EVENTS)
        ]
        run = run_predictors(
            params["app"],
            depth=depth,
            predictors=(predictor,),
            engine="reference",
            **{k: params[k] for k in ("num_procs", "iterations", "seed", "race_seed")},
        )[predictor]
        streams.append(
            {
                "open": json.dumps(
                    {"predictor": predictor, "depth": depth, "num_procs": 16}
                ).encode(),
                "batches": [
                    b"".join(json.dumps(e, sort_keys=True).encode() + b"\n" for e in chunk)
                    for chunk in chunks
                ],
                "sizes": [len(chunk) for chunk in chunks],
                "expected": {
                    "accuracy": run.accuracy,
                    "coverage": run.coverage,
                    "correct_fraction": run.correct_fraction,
                    "average_pte": run.average_pte,
                    "overhead_bytes": run.overhead_bytes,
                },
            }
        )
    return Inputs(reads=reads, expected=expected, streams=streams, seed=seed)


def _result_bytes(value: Any) -> bytes:
    """A result as the server writes it inside a reply (the body is
    ``json.dumps(payload, sort_keys=True)``), so that reads are checked
    by comparing bytes, without decoding the reply on the client."""
    return json.dumps(value, sort_keys=True).encode()


def _check_read(tally: Tally, point, status: int, body: bytes, want: bytes) -> None:
    """One read: a 200 for this point whose result bytes are the set-up
    result's.  With sorted keys the result is followed by ``wall_ms``,
    the reply's last field."""
    if status != 200:
        tally.check(False, f"read: {point.as_dict()} answered {status}")
        return
    start = body.find(b'"result": ') + len(b'"result": ')
    end = body.rfind(b', "wall_ms": ')
    tally.check(
        body[start:end] == want and f'"key": "{point.key}"'.encode() in body,
        f"read: {point.as_dict()} returned a different result",
    )


def warm_up(server: Server, inputs: Inputs, tally: Tally) -> None:
    """Read every read-set point once, filling the server's hot tier."""
    conn = Connection(server.port)
    try:
        status, _ = conn.request("GET", "/healthz")
        tally.check(status == 200, f"setup: /healthz answered {status}")
        for point in inputs.reads:
            status, body = conn.request("GET", _target(point))
            _check_read(tally, point, status, body, _result_bytes(inputs.expected[point.key]))
    finally:
        conn.close()


def _cold_point(client: int, round_no: int, rng: random.Random):
    from repro.apps.registry import APP_NAMES
    from repro.harness import SweepPoint

    app = APP_NAMES[(round_no // 2 + 3 * client) % len(APP_NAMES)]
    if round_no % 2 == 0:
        params = {"app": app, "depth": (1, 2, 4)[round_no % 3], "iterations": 6}
        kind = "accuracy"
    else:
        params = {"app": app, "num_procs": 16, "iterations": 3}
        kind = "speculation"
    params["seed"] = rng.randrange(1, 2**31)
    return SweepPoint.make(kind, params)


def _cold(conn: Connection, point, stats: LoopStats, lock: threading.Lock) -> None:
    """One cold point: a 200 computed fresh, not read from the cache.

    One cold point is in flight at a time: with ``--jobs 1`` a second
    one would queue behind the first, and how often the two clients'
    cold points meet would move the cold-point latency from run to run.
    The gate is passed before the lock is taken, so that no client holds
    the lock while parked with the other waiting for it.
    """
    conn.pass_gate()
    with lock:
        status, body = conn.request("GET", _target(point), gated=False)
    stats.colds.append(conn.span)
    stats.cold_classes.append((point.kind, point.as_dict()["app"]))
    stats.requests += 1
    payload = json.loads(body) if status == 200 else {"cached": None}
    if stats.tally.check(
        payload["cached"] is False,
        f"cold: {point.as_dict()} answered {status} or was cached",
    ):
        stats.cold_points.append((point, payload["result"]))


def client_loop(
    client: int,
    port: int,
    inputs: Inputs,
    deadline: float,
    corrupt: set[str],
    stats: LoopStats,
    gate: Gate,
    cold_lock: threading.Lock,
) -> None:
    """One closed-loop client: the next request waits for the last reply."""
    rng = random.Random(f"client{client}:{inputs.seed}")
    want = {key: _result_bytes(value) for key, value in inputs.expected.items()}
    if "read" in corrupt:
        key = inputs.reads[0].key
        want[key] = _result_bytes(corrupted(inputs.expected[key]))
    conn = Connection(port, gate, stats.parks)
    tally = stats.tally
    try:
        round_no = 0
        while time.perf_counter() < deadline:
            started = time.perf_counter()
            _cold(conn, _cold_point(client, round_no, rng), stats, cold_lock)
            stream = inputs.streams[(round_no + client) % len(inputs.streams)]
            status, body = conn.request("POST", "/v1/sessions", stream["open"], "application/json")
            stats.requests += 1
            if not tally.check(status == 201, f"session: open answered {status}"):
                break
            session = json.loads(body)["session"]
            per_batch = READS_PER_ROUND // len(stream["batches"])
            for batch, size in zip(stream["batches"], stream["sizes"]):
                status, body = conn.request(
                    "POST", f"/v1/sessions/{session}/events", batch, "application/x-ndjson"
                )
                stats.batches.append(conn.span)
                stats.requests += 1
                stats.events += size
                tally.check(
                    status == 200 and body.count(b"\n") == size,
                    f"session: batch answered {status} with the wrong line count",
                )
                for _ in range(per_batch):
                    point = inputs.reads[rng.randrange(len(inputs.reads))]
                    status, body = conn.request("GET", _target(point))
                    stats.reads.append(conn.span)
                    stats.requests += 1
                    _check_read(tally, point, status, body, want[point.key])
            status, body = conn.request("DELETE", f"/v1/sessions/{session}")
            stats.requests += 1
            expected = stream["expected"]
            if "summary" in corrupt:
                expected = corrupted(expected)
            tally.check(
                status == 200 and canonical(json.loads(body)["run"]) == canonical(expected),
                f"summary: session close summary differs from the reference batch run ({status})",
            )
            stats.rounds.append((started, time.perf_counter()))
            round_no += 1
    finally:
        conn.close()
        gate.leave()


def drive(
    server: Server, inputs: Inputs, seconds: float, corrupt: set[str], speed: Speed
) -> LoopStats:
    """Run the clients for ``seconds``; whole rounds finish past the deadline.

    The server is pinned to one CPU and the client threads to the other.
    Every :data:`PROBE_INTERVAL_S` the clients park between requests
    while a calibration probe runs on the server's CPU, so each stretch
    of the loop is rescaled by probes that saw the host, not the server.
    The client threads share one interpreter lock, so a short switch
    interval keeps one from holding up the other's reply.
    """
    per_client = [LoopStats() for _ in range(CLIENTS)]
    gate = Gate(CLIENTS)
    cold_lock = threading.Lock()
    errors: list[BaseException] = []

    def body(i: int) -> None:
        pin(CLIENT_CPU)
        try:
            client_loop(
                i, server.port, inputs, deadline, corrupt, per_client[i], gate, cold_lock
            )
        except BaseException as exc:  # noqa: BLE001 -- re-raised below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    threads = [threading.Thread(target=body, args=(i,)) for i in range(CLIENTS)]
    speed.sample()
    started = time.perf_counter()
    deadline = started + seconds
    try:
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            time.sleep(PROBE_INTERVAL_S)
            gate.probe(speed)
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(switch)
    ended = time.perf_counter()
    speed.sample()
    if errors:
        raise errors[0]
    total = LoopStats()
    for stats in per_client:
        stats.rescale(speed)
        total.merge(stats)
    total.seconds = Timeline(speed, gate.pauses).active(started, ended)
    total.raw_seconds = ended - started - sum(b - a for a, b in gate.pauses)
    return total


def _verify_cold(stats: LoopStats, tally: Tally, corrupt: set[str]) -> None:
    """Recompute the first cold point of each kind in this process."""
    from repro.harness.runners import execute_point

    seen = set()
    for point, result in stats.cold_points:
        if point.kind in seen:
            continue
        seen.add(point.kind)
        want = execute_point(point.kind, point.as_dict())
        if "cold" in corrupt:
            want = corrupted(want)
        tally.check(
            canonical(result) == canonical(want),
            f"cold: served result of {point.as_dict()} differs from a local run",
        )


def _cold_p50_ms(loop: LoopStats) -> float:
    """The median over (kind, app) classes of each class's median cold
    time: which classes the loop happens to end on does not move it."""
    by_class: dict[tuple[str, str], list[float]] = {}
    for cls, ms in zip(loop.cold_classes, loop.colds):
        by_class.setdefault(cls, []).append(ms)
    return median([median(times) for times in by_class.values()])


def _hot_tier_hit_rate(server: Server) -> float:
    conn = Connection(server.port)
    try:
        status, body = conn.request("GET", "/statz")
    finally:
        conn.close()
    tier = (json.loads(body).get("hot_tier") or {}) if status == 200 else {}
    lookups = tier.get("hits", 0) + tier.get("misses", 0)
    return tier.get("hits", 0) / lookups if lookups else 0.0


def run(
    seed: int,
    seconds: float,
    trace: bool,
    short: bool,
    corrupt: set[str],
    workdir: Path,
):
    """Run the workload; returns (metrics, exact counts, tally, span writer).

    The server's counts depend on how many rounds fit in ``seconds``, so
    they are recorded but not guarded (run.py guards the batch workloads).
    """
    rng = random.Random(f"service_mixed:{seed}")
    tally = Tally()
    pin(SERVER_CPU)  # set-up probes of this thread measure the server's CPU
    template = workdir / "template"
    inputs = prepare(rng, short, template)

    speed = Speed()
    if not trace:
        setups = []
        for boot in range(SETUP_BOOTS):
            speed.sample()
            started = time.perf_counter()
            server = Server(template, workdir, trace=False)
            try:
                warm_up(server, inputs, tally)
                ended = time.perf_counter()
                speed.sample()
                setups.append(speed.scale(started, ended))
                if boot < SETUP_BOOTS - 1:
                    continue
                loop = drive(server, inputs, seconds, corrupt, speed)
                rss = server.peak_rss_mb()
            finally:
                dump = server.stop()
        tally.merge(loop.tally)
        _verify_cold(loop, tally, corrupt)
        counts = dump.get("counts", {})
        metrics = {
            "setup_s": median(setups),
            # The mean: rounds differ by their cold point, so the median
            # round is one app's and jumps between runs.
            "wall_s": statistics.fmean(loop.rounds) / 1000.0,
            "msgs_per_s": (loop.events + counts.get("msgs.home", 0)) / loop.seconds,
            "sim_ops_per_s": counts.get("ops.modelled", 0) / loop.seconds,
            "requests_per_s": loop.requests / loop.seconds,
            "read_p50_ms": median(loop.reads),
            "session_events_per_s": loop.events / loop.seconds,
            "cold_point_p50_ms": _cold_p50_ms(loop),
            "peak_rss_mb": rss,
            "detail": {
                "raw_requests_per_s": loop.requests / loop.raw_seconds,
                "probe_s": speed.probes,
                "cold_ms": [[*cls, ms] for cls, ms in zip(loop.cold_classes, loop.colds)],
            },
        }
        return metrics, [_exact(dump)], tally, None

    # Traced: an untraced and a traced server share the time and see the
    # same requests, so the tracing overhead compares like with like.
    loops = []
    for traced in (False, True):
        server = Server(template, workdir, trace=traced)
        try:
            warm_up(server, inputs, tally)
            loops.append(drive(server, inputs, seconds / 2, corrupt, speed))
            hit_rate = _hot_tier_hit_rate(server)
        finally:
            dump = server.stop()
        tally.merge(loops[-1].tally)
    plain, loop = loops
    tally.check(bool(dump), "setup: the traced server wrote no span summary")
    # Per-layer times are raw, so coverage is against the raw loop time.
    metrics = layer_metrics(dump, loop.raw_seconds) if dump else {}
    metrics.update(
        {
            "harness.hot_tier_hit_rate": hit_rate,
            "service.session_batch_p50_ms": median(loop.batches),
            "service.read_p99_ms": percentile(loop.reads, 99),
            "tracing.overhead_s": (median(loop.rounds) - median(plain.rounds)) / 1000.0,
        }
    )
    spans = server.dump.with_name(server.dump.stem + ".spans.jsonl")
    return metrics, [_exact(dump)], tally, lambda path: shutil.copyfile(spans, path)


def _exact(dump: dict[str, Any]) -> dict[str, int]:
    return {name: dump.get("counts", {}).get(name, 0) for name in EXACT_COUNTS}
