"""Spans and exact counts taken around calls into the program's layers.

The benchmark edits nothing in ``src/``: :meth:`Hooks.install` wraps public
functions of each layer (``SharedMemoryApp.build``,
``ProtocolEmulator.compile``, ``compile_app_trace``, ``evaluate_trace``,
``Machine`` construction and ``Machine.run``, ``ResultStore`` reads and
writes, point execution, the HTTP handler, ``parse_ndjson_events``,
``DirectoryPredictor.observe``) and restores them on :meth:`Hooks.remove`.

Two levels:

* counting (always on) -- a handful of integer additions per point, so
  the untraced run carries the exact counts without clocks;
* tracing (``trace=True``) -- additionally one span per layer call:
  name, layer, start, end, parent span and a request id, kept in memory
  and written out when the run ends.  ``DirectoryPredictor.observe``
  runs once per event, so it is timed as an aggregate instead of as
  spans; its time is still charged to the enclosing span as child time.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

#: The exact counts: deterministic for a batch workload and seed.
EXACT_COUNTS = (
    "apps.ops",
    "protocol.messages",
    "sim.events",
    "sim.cycles",
    "speculation.sent",
    "speculation.missed",
)

#: Layers whose self time is reported.  Spans named ``wait`` (a request
#: awaiting a computation on another thread) belong to none of them.
LAYERS = ("apps", "protocol", "trace", "predictors", "sim", "harness", "service")

# Span record slots (a list, so the parent can accumulate child time).
_NAME, _LAYER, _START, _END, _PARENT, _REQUEST, _CHILD = range(7)


class Hooks:
    """Installed wrappers plus what they recorded."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = defaultdict(int)
        #: Aggregated per-call timers (seconds) for calls too frequent
        #: to keep as spans.
        self.timers: dict[str, float] = defaultdict(float)
        self._stack: contextvars.ContextVar[tuple] = contextvars.ContextVar(
            "perfbench_spans", default=()
        )
        self._ids = itertools.count()
        #: The HTTP request a connection last handled, so its response
        #: write is charged to it.
        self._http: contextvars.ContextVar[list | None] = contextvars.ContextVar(
            "perfbench_http", default=None
        )
        self._last_build_ops = 0
        self._patched: list[tuple[Any, str, Any]] = []
        self._service = False

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _open(self, name: str, layer: str, request_id: str | None) -> tuple:
        stack = self._stack.get()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent[_REQUEST]
        record = [name, layer, time.perf_counter(), 0.0, parent, request_id, 0.0]
        self.spans.append(record)
        return record, self._stack.set(stack + (record,))

    def _close(self, record: list[Any], token: contextvars.Token) -> None:
        record[_END] = time.perf_counter()
        self._stack.reset(token)
        parent = record[_PARENT]
        if parent is not None:
            parent[_CHILD] += record[_END] - record[_START]

    @contextmanager
    def span(
        self, name: str, layer: str, request_id: str | None = None
    ) -> Iterator[list[Any]]:
        record, token = self._open(name, layer, request_id)
        try:
            yield record
        finally:
            self._close(record, token)

    def request_id(self, prefix: str) -> str:
        return f"{prefix}-{next(self._ids)}"

    def _aggregate(self, key: str, seconds: float) -> None:
        self.timers[key] += seconds
        stack = self._stack.get()
        if stack:
            stack[-1][_CHILD] += seconds

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Totals per span name and self time per span name and layer."""
        totals: dict[str, float] = defaultdict(float)
        self_by_name: dict[str, float] = defaultdict(float)
        self_by_layer = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            duration = s[_END] - s[_START]
            totals[s[_NAME]] += duration
            self_by_name[s[_NAME]] += duration - s[_CHILD]
            if s[_LAYER] in self_by_layer:
                self_by_layer[s[_LAYER]] += duration - s[_CHILD]
        self_by_layer["predictors"] += self.timers["predictors.observe"]
        return {
            "totals": dict(totals),
            "self_by_name": dict(self_by_name),
            "self_by_layer": self_by_layer,
            "classes": request_classes(self.spans) if self._service else None,
            "counts": dict(self.counts),
            "timers": dict(self.timers),
        }

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.timers.clear()

    def write_spans(self, path: str) -> None:
        """One JSON line per span; parents are referenced by line index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                parent = s[_PARENT]
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s[_NAME],
                            "layer": s[_LAYER],
                            "start": s[_START],
                            "end": s[_END],
                            "parent": None if parent is None else index[id(parent)],
                            "request": s[_REQUEST],
                        }
                    )
                    + "\n"
                )

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _timed(self, owner: Any, attr: str, name: str, layer: str) -> None:
        """Wrap ``owner.attr`` in a span when tracing (no-op otherwise)."""
        if not self.trace:
            return

        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name, layer):
                    return original(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> "Hooks":
        import repro.harness.runner as runner_mod
        import repro.trace as trace_pkg
        from repro.apps.base import SharedMemoryApp
        from repro.harness.store import ResultStore
        from repro.protocol.emulator import ProtocolEmulator
        from repro.sim.machine import Machine, MachineMode
        from repro.trace.cache import TRACE_KIND, snapshot_counters

        hooks = self

        def build(original):
            def wrapper(app, *args, **kwargs):
                with hooks._maybe_span("apps.build", "apps"):
                    workload = original(app, *args, **kwargs)
                hooks._last_build_ops = workload.total_ops()
                hooks.counts["apps.ops"] += hooks._last_build_ops
                return workload

            return wrapper

        def compile_(original):
            def wrapper(emulator, *args, **kwargs):
                with hooks._maybe_span("protocol.compile", "protocol"):
                    trace = original(emulator, *args, **kwargs)
                hooks.counts["protocol.messages"] += len(trace)
                hooks.counts["ops.modelled"] += hooks._last_build_ops
                return trace

            return wrapper

        def compile_app_trace(original):
            def wrapper(*args, **kwargs):
                hits = snapshot_counters()[0]
                started = time.perf_counter()
                with hooks._maybe_span("trace.compile_app_trace", "trace"):
                    trace = original(*args, **kwargs)
                hooks.counts["msgs.home"] += len(trace)
                if snapshot_counters()[0] > hits:
                    hooks.counts["trace.hits"] += 1
                    hooks.timers["trace.load"] += time.perf_counter() - started
                else:
                    hooks.counts["trace.misses"] += 1
                return trace

            return wrapper

        def evaluate_trace(original):
            def wrapper(trace, *args, **kwargs):
                with hooks._maybe_span("trace.evaluate", "trace"):
                    result = original(trace, *args, **kwargs)
                hooks.counts["msgs.predicted"] += len(trace)
                return result

            return wrapper

        def machine_run(original):
            def wrapper(machine, *args, **kwargs):
                name = f"sim.run.n{machine.config.num_nodes}"
                with hooks._maybe_span(name, "sim"):
                    result = original(machine, *args, **kwargs)
                spec = result.speculation
                c = hooks.counts
                c["sim.events"] += machine.events_processed
                c["sim.cycles"] += result.cycles
                c["speculation.sent"] += spec.fr_sent + spec.swi_sent + spec.wi_sent
                c["speculation.missed"] += (
                    spec.fr_missed + spec.swi_missed + spec.wi_premature
                )
                requests = result.read_requests + result.write_requests
                c["msgs.home"] += requests
                if machine.mode != MachineMode.BASE:
                    # every request at a speculative home is observed
                    # by the home's predictor
                    c["msgs.predicted"] += requests
                c["ops.modelled"] += machine.workload.total_ops()
                return result

            return wrapper

        def execute_point(original):
            def wrapper(kind, params):
                if not hooks.trace:
                    return original(kind, params)
                with hooks.span("harness.point", "harness", hooks.request_id(kind)):
                    return original(kind, params)

            return wrapper

        def store_io(original, verb):
            def wrapper(store, point, *args, **kwargs):
                if point.kind == TRACE_KIND:
                    name, layer = f"trace.store_{verb}", "trace"
                else:
                    name, layer = f"harness.store_{verb}", "harness"
                with hooks.span(name, layer):
                    return original(store, point, *args, **kwargs)

            return wrapper

        self._patch(SharedMemoryApp, "build", build)
        self._patch(ProtocolEmulator, "compile", compile_)
        # accuracy.run_predictors imports both names from the package at
        # call time, so patching the package attributes reaches it.
        self._patch(trace_pkg, "compile_app_trace", compile_app_trace)
        self._patch(trace_pkg, "evaluate_trace", evaluate_trace)
        self._patch(Machine, "run", machine_run)
        self._timed(Machine, "__init__", "sim.setup", "sim")
        self._patch(runner_mod, "execute_point_instrumented", execute_point)
        if self.trace:
            self._patch(ResultStore, "load_entry", lambda o: store_io(o, "read"))
            self._patch(ResultStore, "store", lambda o: store_io(o, "write"))
        return self

    def install_service(self) -> "Hooks":
        """Extra wrappers for the server process (tracing only)."""
        if not self.trace:
            return self
        self._service = True
        import repro.service.app as app_mod
        import repro.service.server as server_mod
        from repro.predictors import PREDICTOR_CLASSES
        from repro.service.jobs import ComputePool

        hooks = self

        def handle(original):
            async def wrapper(app, request):
                name = "service." + _route(request.path)
                with hooks.span(name, "service", hooks.request_id("http")) as record:
                    # awaited in the connection's task, so the write sees it
                    hooks._http.set(record)
                    return await original(app, request)

            return wrapper

        def write_response(original):
            async def wrapper(*args, **kwargs):
                http = hooks._http.get()
                request_id = None if http is None else http[_REQUEST]
                with hooks.span("service.write", "service", request_id):
                    return await original(*args, **kwargs)

            return wrapper

        def fetch(original):
            async def wrapper(pool, point, *args, **kwargs):
                with hooks.span("harness.fetch", "harness") as record:
                    outcome = await original(pool, point, *args, **kwargs)
                    if not outcome.cached:
                        # The request waited on the compute thread, whose
                        # spans account for the work itself.
                        record[_NAME] = record[_LAYER] = "wait"
                    return outcome

            return wrapper

        def observe(original):
            def wrapper(*args, **kwargs):
                started = time.perf_counter()
                outcome = original(*args, **kwargs)
                hooks._aggregate("predictors.observe", time.perf_counter() - started)
                return outcome

            return wrapper

        self._patch(app_mod.ServiceApp, "handle", handle)
        self._patch(server_mod, "write_response", write_response)
        self._patch(ComputePool, "fetch", fetch)
        self._timed(app_mod, "parse_ndjson_events", "service.wire_parse", "service")
        for cls in PREDICTOR_CLASSES.values():
            self._patch(cls, "observe", observe)
        return self

    @contextmanager
    def _maybe_span(self, name: str, layer: str) -> Iterator[None]:
        if not self.trace:
            yield
            return
        with self.span(name, layer):
            yield

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _route(path: str) -> str:
    if path.startswith("/v1/sessions/"):
        return "session_events" if path.endswith("/events") else "session"
    return path.strip("/").replace("/", "_") or "root"


#: Traffic classes of the service, by the route of a request's handler
#: span; a ``/v1/point`` request that waited on a computation is "cold".
_CLASS_OF_ROUTE = {
    "service.v1_point": "read",
    "service.v1_sessions": "session",
    "service.session": "session",
    "service.session_events": "session",
}


def request_classes(spans: list[list[Any]]) -> dict[str, float]:
    """Server seconds spent on each traffic class of the service.

    A request's time is its handler span plus its response write, less
    any wait on the compute thread; the compute thread's spans (points
    and their store writes) are cold-point time.  The rest (health and
    stats probes) is "other".
    """
    waits: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[_NAME] == "wait" and s[_PARENT] is not None:
            waits[id(s[_PARENT])] += s[_END] - s[_START]
    by_request: dict[str, str] = {}
    for s in spans:
        if s[_PARENT] is None and s[_NAME] in _CLASS_OF_ROUTE:
            kind = _CLASS_OF_ROUTE[s[_NAME]]
            by_request[s[_REQUEST]] = "cold" if id(s) in waits and kind == "read" else kind
    seconds = {"read": 0.0, "session": 0.0, "cold": 0.0, "other": 0.0}
    for s in spans:
        if s[_PARENT] is not None:
            continue
        if s[_NAME].startswith("harness."):  # the compute thread
            kind = "cold"
        else:
            kind = by_request.get(s[_REQUEST], "other")
        seconds[kind] += s[_END] - s[_START] - waits.get(id(s), 0.0)
    return seconds


#: Spans of the runner's own glue: what is left of a run call or a point
#: once the layers it calls are subtracted.
HARNESS_GLUE = ("harness.run", "harness.point", "harness.fetch")


def layer_metrics(summary: dict[str, Any], wall: float) -> dict[str, float]:
    """Per-layer numbers from one traced pass lasting ``wall`` seconds."""
    totals = summary["totals"]
    counts = summary["counts"]
    timers = summary["timers"]
    total = lambda name: totals.get(name, 0.0)  # noqa: E731
    count = lambda name: counts.get(name, 0)  # noqa: E731
    sim_run = sum(v for k, v in totals.items() if k.startswith("sim.run."))
    glue = sum(summary["self_by_name"].get(name, 0.0) for name in HARNESS_GLUE)
    lookups = count("trace.hits") + count("trace.misses")
    out = {
        "apps.build_s": total("apps.build"),
        "protocol.compile_s": total("protocol.compile"),
        "trace.evaluate_s": total("trace.evaluate"),
        "trace.load_s": timers.get("trace.load", 0.0),
        "trace.cache_hit_rate": count("trace.hits") / lookups if lookups else 0.0,
        "sim.run_s.n16": total("sim.run.n16"),
        "sim.run_s.n64": total("sim.run.n64"),
        "sim.ns_per_event": 1e9 * sim_run / count("sim.events") if count("sim.events") else 0.0,
        "sim.setup_s": total("sim.setup"),
        "harness.store_read_s": total("harness.store_read"),
        "harness.store_write_s": total("harness.store_write"),
        "harness.overhead_s": glue,
        "predictors.observe_s": timers.get("predictors.observe", 0.0),
        "service.wire_parse_s": total("service.wire_parse"),
        "tracing.coverage": (sum(summary["self_by_layer"].values()) - glue) / wall,
    }
    for layer, seconds in summary["self_by_layer"].items():
        out[f"{layer}.self_s"] = seconds
    classes = summary["classes"] or {}
    busy = sum(classes.values())
    if busy:
        for kind in ("read", "session", "cold"):
            out[f"service.share.{kind}"] = classes[kind] / busy
    for name in EXACT_COUNTS:
        out[name] = count(name)
    return out
