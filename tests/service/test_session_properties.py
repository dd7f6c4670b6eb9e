"""Property tests for the session lifecycle (tentpole invariants).

Three claims, each load-bearing for the streaming API:

1. **Stream ≡ batch** — however a message sequence is sliced into
   ``feed`` batches, the finalized session reports exactly what one
   predictor observing the concatenated sequence reports.  This is the
   semantic contract behind the golden HTTP test, checked here across
   arbitrary sequences and splits rather than one recorded trace.
2. **No premature eviction** — a session that keeps touching the table
   within its TTL is never reaped, no matter what other sessions come
   and go around it; eviction only ever claims sessions whose idle
   time exceeds the TTL.
3. **Counter balance** — ``opened == active + closed + evicted`` at
   every step, so the ``/statz`` ``sessions`` section can be trusted
   as a conservation law, not a best-effort gauge.

Two more pin the codec, which writes lines from a template and reads
lines with a shortcut:

4. **Lines are json.dumps** — every streamed prediction line is, byte
   for byte, ``json.dumps`` (sorted keys) of the line object built from
   a reference predictor fed the same events.
5. **Decoding is exact** — the NDJSON decoder accepts exactly the
   batches a plain ``json.loads`` + :func:`parse_event` per line
   accepts, with the same messages, and fails with the same error.
"""

import asyncio
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.common.types import Message, MessageKind
from repro.harness import ParallelRunner
from repro.predictors import PREDICTOR_CLASSES
from repro.predictors.base import ReadVector
from repro.service.app import ServiceApp
from repro.service.jobs import ComputePool, JobTable
from repro.service.sessions import (
    SessionBoundExceeded,
    SessionTable,
    SessionTableFull,
    UnknownSession,
    encode_message,
    parse_event,
    parse_ndjson_events,
)
from repro.service.wire import Request
from tests.strategies import DETERMINISM_SETTINGS, STANDARD_SETTINGS

pytestmark = pytest.mark.property

NUM_PROCS = 4
MESSAGES = st.builds(
    Message,
    kind=st.sampled_from(list(MessageKind)),
    node=st.integers(min_value=0, max_value=NUM_PROCS - 1),
    block=st.integers(min_value=0, max_value=3),
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# 1. stream ≡ batch, for every predictor and any batch slicing
# ----------------------------------------------------------------------
@given(
    predictor=st.sampled_from(sorted(PREDICTOR_CLASSES)),
    depth=st.integers(min_value=1, max_value=3),
    messages=st.lists(MESSAGES, max_size=60),
    cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=5),
)
@STANDARD_SETTINGS
def test_streamed_batches_equal_one_batch(predictor, depth, messages, cuts):
    table = SessionTable(clock=FakeClock())
    session = table.open(predictor, depth=depth, num_procs=NUM_PROCS)
    bounds = sorted({c for c in cuts if c < len(messages)} | {0, len(messages)})
    for start, end in zip(bounds, bounds[1:]):
        table.feed(session.id, messages[start:end])
    streamed = table.close(session.id)

    reference = PREDICTOR_CLASSES[predictor](depth=depth)
    for message in messages:
        reference.observe(message)
    flush = getattr(reference, "flush", None)
    if flush is not None:
        flush()
    average_pte = reference.average_pattern_entries()
    profile = reference.storage_profile(NUM_PROCS, depth)
    assert streamed["run"] == {
        "accuracy": reference.stats.accuracy,
        "coverage": reference.stats.coverage,
        "correct_fraction": reference.stats.correct_fraction,
        "average_pte": average_pte,
        "overhead_bytes": profile.bytes_per_block(average_pte),
    }
    assert streamed["stats"] == {
        "observed": reference.stats.observed,
        "predicted": reference.stats.predicted,
        "correct": reference.stats.correct,
        "ignored": reference.stats.ignored,
    }
    assert streamed["events"] == len(messages)


# ----------------------------------------------------------------------
# 2 + 3. eviction discipline and counter balance, under arbitrary
#        interleavings of opens, feeds, closes, reaps, and time
# ----------------------------------------------------------------------
class SessionLifecycleMachine(RuleBasedStateMachine):
    TTL = 50.0

    def __init__(self):
        super().__init__()
        self.clock = FakeClock()
        self.table = SessionTable(
            max_sessions=3, ttl_s=self.TTL, max_events=20, clock=self.clock
        )
        #: id -> last-activity time of every session the model believes
        #: is live (the table must agree).
        self.live: dict[str, float] = {}

    # -- rules ----------------------------------------------------------
    @rule(seconds=st.floats(min_value=0.0, max_value=60.0))
    def advance(self, seconds):
        self.clock.now += seconds

    @rule()
    def open(self):
        try:
            session = self.table.open("MSP", num_procs=NUM_PROCS)
        except SessionTableFull:
            # Admission may only be refused while the table really is
            # full of unexpired sessions.
            unexpired = [
                t for t in self.live.values()
                if self.clock.now - t <= self.TTL
            ]
            assert len(unexpired) >= self.table.max_sessions
        else:
            self.live[session.id] = self.clock.now

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(min_value=0), count=st.integers(min_value=1, max_value=8))
    def feed(self, pick, count):
        session_id = sorted(self.live)[pick % len(self.live)]
        batch = [
            Message(kind=MessageKind.READ, node=0, block=0) for _ in range(count)
        ]
        try:
            self.table.feed(session_id, batch)
        except UnknownSession:
            # Only an expired session may have been reaped.
            assert self.clock.now - self.live.pop(session_id) > self.TTL
        except SessionBoundExceeded:
            self.live[session_id] = self.clock.now  # feed() touched it
        else:
            self.live[session_id] = self.clock.now

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(min_value=0))
    def close(self, pick):
        session_id = sorted(self.live)[pick % len(self.live)]
        try:
            self.table.close(session_id)
        except UnknownSession:
            assert self.clock.now - self.live[session_id] > self.TTL
        del self.live[session_id]

    @rule()
    def reap(self):
        for session in self.table.reap():
            assert self.clock.now - self.live.pop(session.id) > self.TTL

    # -- invariants -----------------------------------------------------
    @invariant()
    def active_sessions_are_within_ttl_or_model_live(self):
        # Anything still in the table is something the model believes
        # is live; anything the model believes is live AND fresh must
        # still be in the table (no premature eviction).
        table_ids = {s.id for s in self.table.sessions()}
        assert table_ids <= set(self.live)
        fresh = {
            session_id
            for session_id, touched in self.live.items()
            if self.clock.now - touched <= self.TTL
        }
        assert fresh <= table_ids

    @invariant()
    def counters_balance(self):
        table = self.table
        assert table.opened == table.active + table.closed + table.evicted


SessionLifecycleMachine.TestCase.settings = STANDARD_SETTINGS
TestSessionLifecycle = SessionLifecycleMachine.TestCase


# ----------------------------------------------------------------------
# 4. every streamed line is json.dumps of the reference line object
# ----------------------------------------------------------------------
def reference_token(token):
    if token is None:
        return None
    if isinstance(token, ReadVector):
        return {"readers": sorted(token)}
    kind, node = token
    return {"kind": kind.value, "node": node}


def reference_lines(predictor, depth, messages):
    reference = PREDICTOR_CLASSES[predictor](depth=depth)
    lines = []
    for seq, message in enumerate(messages, start=1):
        outcome = reference.observe(message)
        stats = reference.stats
        line = {
            "seq": seq,
            "outcome": outcome.value,
            "predicted": reference_token(reference.predicted_next(message.block)),
            "observed": stats.observed,
            "correct": stats.correct,
            "accuracy": stats.accuracy,
            "coverage": stats.coverage,
        }
        lines.append(json.dumps(line, sort_keys=True))
    return lines


def stream_through_app(predictor, depth, batches, num_procs=NUM_PROCS):
    """Open a session on an in-process app, POST each batch as NDJSON,
    and return every streamed line (chunks joined, split on newlines)."""

    async def scenario():
        pool = ComputePool(ParallelRunner(jobs=1))
        app = ServiceApp(pool, JobTable(pool), SessionTable(clock=FakeClock()))
        opened = await app.handle(
            Request(
                method="POST",
                path="/v1/sessions",
                query={},
                headers={},
                body=json.dumps(
                    {"predictor": predictor, "depth": depth, "num_procs": num_procs}
                ).encode(),
            )
        )
        events_path = opened.payload["events_url"]
        body = b""
        for batch in batches:
            response = await app.handle(
                Request(
                    method="POST",
                    path=events_path,
                    query={},
                    headers={},
                    body=b"".join(
                        json.dumps(encode_message(m)).encode() + b"\n" for m in batch
                    ),
                )
            )
            assert response.status == 200
            async for chunk in response.stream:
                body += chunk
        return body

    body = asyncio.run(scenario())
    assert body.endswith(b"\n") or not body
    return body.decode("utf-8").splitlines()


#: Wide node ids, so VMSP reader vectors iterate out of sorted order
#: (a set of 7, 8 and 63 iterates as 8, 7, 63), drawn as repeated
#: patterns, so predictions — reader vectors among them — are made.
WIDE_PROCS = 64
WIDE_MESSAGES = st.builds(
    Message,
    kind=st.sampled_from([MessageKind.READ] * 3 + list(MessageKind)),
    node=st.sampled_from([0, 1, 7, 8, 9, 17, 33, 63]),
    block=st.integers(min_value=0, max_value=2),
)


@given(
    predictor=st.sampled_from(sorted(PREDICTOR_CLASSES)),
    depth=st.integers(min_value=1, max_value=3),
    pattern=st.lists(WIDE_MESSAGES, min_size=1, max_size=10),
    repeats=st.integers(min_value=1, max_value=6),
    cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=5),
)
@DETERMINISM_SETTINGS
def test_streamed_lines_are_json_dumps_of_the_reference(
    predictor, depth, pattern, repeats, cuts
):
    messages = pattern * repeats
    bounds = sorted({c for c in cuts if c < len(messages)} | {0, len(messages)})
    batches = [messages[a:b] for a, b in zip(bounds, bounds[1:])]
    assert stream_through_app(
        predictor, depth, batches, num_procs=WIDE_PROCS
    ) == reference_lines(predictor, depth, messages)


def test_large_batches_stream_in_chunks_with_every_line_intact():
    """A batch past the 16 KB chunk size streams as several chunks whose
    concatenation is still one line per event."""
    messages = [
        Message(kind=kind, node=node, block=block)
        for block in range(40)
        for kind in (MessageKind.READ, MessageKind.WRITE)
        for node in range(NUM_PROCS)
    ]
    for predictor in sorted(PREDICTOR_CLASSES):
        lines = stream_through_app(predictor, 2, [messages])
        assert lines == reference_lines(predictor, 2, messages)
        assert sum(len(line) + 1 for line in lines) > 2 * 16384


# ----------------------------------------------------------------------
# 5. the decoder accepts and rejects exactly what json.loads +
#    parse_event per line does
# ----------------------------------------------------------------------
def plain_decode(body, num_procs):
    """One ``json.loads`` and one :func:`parse_event` per line."""
    messages = []
    for lineno, raw in enumerate(body.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"line {lineno}: invalid JSON: {exc}") from None
        try:
            messages.append(parse_event(obj, num_procs))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return messages


def decoded(decode, body, num_procs=NUM_PROCS):
    try:
        return ("ok", decode(body, num_procs))
    except Exception as exc:  # noqa: BLE001 -- the type is compared too
        return (type(exc).__name__, str(exc))


#: Lines the shortcut must take, must leave, or must not be fooled by.
LINES = st.sampled_from(
    [
        b'{"kind": "read", "node": 1, "block": 2}',
        b'{"block":2,"node":3,"kind":"write"}',
        b'  {"kind" : "ack" ,"node":0, "block" :0 }  ',
        b'{"kind": "\\u0072ead", "node": 1, "block": 2}',
        b'{"kind": "read", "node": 1, "block": 2, "node": 3}',
        b'{"kind": "read", "node": 4, "block": 2}',
        b'{"kind": "read", "node": -1, "block": 2}',
        b'{"kind": "read", "node": true, "block": 2}',
        b'{"kind": "read", "node": 1.0, "block": 2}',
        b'{"kind": "read", "node": 1, "block": -2}',
        b'{"kind": "read", "node": 1, "block": 2, "x": 0}',
        b'{"kind": "read", "node": 1}',
        b'{"kind": "READ", "node": 1, "block": 2}',
        b'{"kind": ["read"], "node": 1, "block": 2}',
        b'{"kind": "read", "node": 1, "block": 2} x',
        b'{"kind":"read"',
        b'"node":1,"block":2}',
        b'{"kind": "read", "node": 1, "block": 2}, {"kind": "ack", "node": 1, "block": 2}',
        b'[{"kind": "read", "node": 1, "block": 2}]',
        b'\xef\xbb\xbf{"kind": "read", "node": 1, "block": 2}',
        b'{"kind": "read", "node": 1, "block": 2, "\xff": 1}',
        b'{"kind": "r\xc3\xa9ad", "node": 1, "block": 2}',
        b'{"kind": "read", "node": 1, "block": 99999999999999999999}',
        b'{}',
        b'null',
        b'',
        b'  \t ',
        b'\x0b',
    ]
)
SEPARATORS = st.sampled_from([b"\n", b"\r\n", b"\r", b"\n\n"])


@given(
    lines=st.lists(st.tuples(LINES, SEPARATORS), max_size=8),
    num_procs=st.integers(min_value=1, max_value=5),
)
@DETERMINISM_SETTINGS
def test_decoder_matches_plain_json_loads_per_line(lines, num_procs):
    body = b"".join(line + separator for line, separator in lines)
    assert decoded(parse_ndjson_events, body, num_procs) == decoded(
        plain_decode, body, num_procs
    )
