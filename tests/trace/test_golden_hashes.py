"""Pinned content hashes of every app's compiled trace (schema 2).

Each hash covers the workload builder, the protocol emulator and the
payload codec: the trace is compiled, encoded, decoded and hashed over
``num_nodes`` and its little-endian column bytes.  A change to any of
them that moves a single message, a dtype or the byte order fails here.
"""

import pytest

from repro.trace import CompiledTrace, compile_app_trace

#: app -> (messages, content hash) at 16 nodes, 2 iterations, seed 1999,
#: race seed 7.
GOLDEN = {
    "appbt": (2166, "84c99b8e3fca996878d8192c27244923212ea95a3a17f44d8139169314895c39"),
    "barnes": (2840, "46bfbd495f68124b1044744b3531c93ab9e985e8552ac1223a25ad5c36dfc5e2"),
    "em3d": (2659, "2700f9b3d4b8bdfbd4e175c6f955e168004e4dea1fc7cdfeff6b320832bf464b"),
    "moldyn": (3250, "db99ec6f7e74ed9d7046701f412405fa96ca1d1ee453becc1ab5403000be0988"),
    "ocean": (2081, "9a15b3e6d55a9f8aa869db7dd7d7f6a5e31e5d44cf540392d9f42dd91f1f5a53"),
    "tomcatv": (2160, "347937c65674ab633dc2ae9ae3fd19ae94c30df3a556910302051a13224c9389"),
    "unstructured": (7103, "e68354cab16b90073e15569c7a5328c82321271662c33f68d71cd1b310545d6d"),
}


@pytest.mark.parametrize("app", sorted(GOLDEN))
def test_trace_hash_is_pinned(app):
    messages, digest = GOLDEN[app]
    trace = compile_app_trace(app, num_procs=16, iterations=2)
    decoded = CompiledTrace.from_payload(trace.as_payload())
    assert len(decoded) == messages
    assert decoded.num_nodes == 16
    assert decoded.content_hash() == trace.content_hash() == digest

