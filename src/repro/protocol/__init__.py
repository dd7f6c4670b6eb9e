"""Full-map write-invalidate coherence protocol.

Two entry points:

* :class:`repro.protocol.directory.BlockDirectory` — the per-block
  directory finite-state machine (Idle / Shared / Exclusive) driven by
  the timing simulator's home directories.
* :class:`repro.protocol.emulator.ProtocolEmulator` — a fast trace-driven
  emulator that turns an application's per-block access script into the
  stream of coherence messages a home directory observes (requests plus
  invalidation acks and writebacks), including the message-race effects
  the paper's predictors are sensitive to.  It inlines the
  ``BlockDirectory`` transitions; the tests hold it to a
  ``BlockDirectory``-driven reference.
"""

from repro.protocol.directory import BlockDirectory, ProtocolError
from repro.protocol.emulator import ProtocolEmulator
from repro.protocol.epochs import BlockScript, ReadEpoch, WriteEpoch

__all__ = [
    "BlockDirectory",
    "BlockScript",
    "ProtocolEmulator",
    "ProtocolError",
    "ReadEpoch",
    "WriteEpoch",
]
