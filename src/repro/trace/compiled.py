"""Columnar message traces: the home-directory stream as parallel arrays.

A :class:`CompiledTrace` holds the *entire* message stream a workload
presents to its home directories — every block's sequence, concatenated
block-major — as four parallel numpy columns:

* ``kinds``  — message-kind codes (:data:`KIND_CODES` order),
* ``nodes``  — sending processor ids,
* ``blocks`` — block ids (each block's messages are contiguous),
* ``epochs`` — the ordinal of the originating epoch within its block
  script (diagnostics and future timing work; the predictors ignore it).

Compiling the trace once decouples trace *generation* (the Python-loop
protocol emulation) from trace *consumption*: the vectorized predictor
evaluators (:mod:`repro.trace.vectorized`) do batched numpy passes over
the columns, and :meth:`CompiledTrace.to_messages` decodes the identical
per-message stream for the reference predictors — the two views are the
same trace by construction, which is what the equivalence golden tests
lean on.

What every scoring pass needs besides the columns — block segment
boundaries, each message's segment ordinal and position, and the
request-only sub-trace — is derived lazily, once per trace instance,
and shared by all predictors and depths scored on it.
"""

from __future__ import annotations

import binascii
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from repro.common.types import Message, MessageKind

#: Fixed kind encoding: ``kinds`` column value = index into this tuple.
#: Codes 0..2 are the request kinds (READ/WRITE/UPGRADE), matching
#: :data:`repro.common.types.REQUEST_KINDS`; 3..4 are acknowledgements.
KIND_CODES: tuple[MessageKind, ...] = (
    MessageKind.READ,
    MessageKind.WRITE,
    MessageKind.UPGRADE,
    MessageKind.ACK,
    MessageKind.WRITEBACK,
)

#: kind -> column code.
KIND_TO_CODE: dict[MessageKind, int] = {k: i for i, k in enumerate(KIND_CODES)}

#: Codes <= this value are request messages.
MAX_REQUEST_CODE = KIND_TO_CODE[MessageKind.UPGRADE]

#: The columns and their fixed little-endian storage types, in payload
#: and hash order.
COLUMN_DTYPES: tuple[tuple[str, str], ...] = (
    ("kinds", "<u1"),
    ("nodes", "<i4"),
    ("blocks", "<i8"),
    ("epochs", "<i4"),
)


@dataclass(frozen=True, slots=True, eq=False)
class CompiledTrace:
    """The full home-directory message stream, encoded as columns."""

    kinds: np.ndarray  # uint8 codes into KIND_CODES
    nodes: np.ndarray  # int32 sender ids
    blocks: np.ndarray  # int64 block ids, block-major
    epochs: np.ndarray  # int32 epoch ordinal within the block script
    num_nodes: int
    #: Derived columns by name, filled lazily by ``_derive``.
    _derived: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return int(self.kinds.shape[0])

    @classmethod
    def from_columns(
        cls,
        kinds: Any,
        nodes: Any,
        blocks: Any,
        epochs: Any,
        num_nodes: int,
    ) -> "CompiledTrace":
        return cls(
            kinds=np.asarray(kinds, dtype=np.uint8),
            nodes=np.asarray(nodes, dtype=np.int32),
            blocks=np.asarray(blocks, dtype=np.int64),
            epochs=np.asarray(epochs, dtype=np.int32),
            num_nodes=int(num_nodes),
        )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def _derive(self, name: str, compute: Callable[[], Any]) -> Any:
        if name not in self._derived:
            self._derived[name] = compute()
        return self._derived[name]

    @property
    def block_starts(self) -> np.ndarray:
        """Index of each block segment's first message (ascending)."""

        def compute() -> np.ndarray:
            if len(self) == 0:
                return np.empty(0, dtype=np.int64)
            change = np.flatnonzero(self.blocks[1:] != self.blocks[:-1]) + 1
            return np.concatenate(([0], change))

        return self._derive("block_starts", compute)

    def block_count(self) -> int:
        return int(self.block_starts.shape[0])

    @property
    def segment_ordinals(self) -> np.ndarray:
        """For each message, the ordinal of its block segment (int64)."""

        def compute() -> np.ndarray:
            ordinals = np.zeros(len(self), dtype=np.int64)
            ordinals[self.block_starts[1:]] = 1
            return np.cumsum(ordinals, out=ordinals)

        return self._derive("segment_ordinals", compute)

    @property
    def segment_positions(self) -> np.ndarray:
        """For each message, its 0-based position within its block."""

        def compute() -> np.ndarray:
            first = self.block_starts[self.segment_ordinals]
            return np.arange(len(self), dtype=np.int64) - first

        return self._derive("segment_positions", compute)

    def request_mask(self) -> np.ndarray:
        """Boolean mask selecting the three request kinds."""
        return self.kinds <= MAX_REQUEST_CODE

    @property
    def requests(self) -> "CompiledTrace":
        """The request messages only, as a trace of their own (cached)."""

        def compute() -> "CompiledTrace":
            mask = self.request_mask()
            return CompiledTrace(
                kinds=self.kinds[mask],
                nodes=self.nodes[mask],
                blocks=self.blocks[mask],
                epochs=self.epochs[mask],
                num_nodes=self.num_nodes,
            )

        return self._derive("requests", compute)

    # ------------------------------------------------------------------
    # the reference view
    # ------------------------------------------------------------------
    def to_messages(self) -> Iterator[Message]:
        """Decode the identical per-message stream (reference path)."""
        for kind, node, block in zip(
            self.kinds.tolist(), self.nodes.tolist(), self.blocks.tolist()
        ):
            yield Message(kind=KIND_CODES[kind], node=node, block=block)

    # ------------------------------------------------------------------
    # serialization (the trace-cache payload)
    # ------------------------------------------------------------------
    def _column_bytes(self) -> list[bytes]:
        return [
            getattr(self, name).astype(dtype, copy=False).tobytes()
            for name, dtype in COLUMN_DTYPES
        ]

    def as_payload(self) -> dict[str, Any]:
        """A JSON-representable form, loadable by :meth:`from_payload`.

        Each column is the base64 of its :data:`COLUMN_DTYPES` bytes.
        """
        payload: dict[str, Any] = {"num_nodes": self.num_nodes}
        for (name, _dtype), raw in zip(COLUMN_DTYPES, self._column_bytes()):
            payload[name] = binascii.b2a_base64(raw, newline=False).decode("ascii")
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CompiledTrace":
        """Decode :meth:`as_payload` output.

        Raises ``ValueError`` for invalid base64, a byte length that is
        not a whole number of column elements, or columns of unequal
        length; ``KeyError``/``TypeError`` for a missing or mistyped
        field.
        """
        columns = {}
        for name, dtype in COLUMN_DTYPES:
            # binascii.Error is a ValueError; so is frombuffer's complaint
            # about a length that is not a multiple of the item size.
            raw = binascii.a2b_base64(payload[name], strict_mode=True)
            columns[name] = np.frombuffer(raw, dtype=dtype)
        if len({column.shape[0] for column in columns.values()}) > 1:
            raise ValueError("trace columns have unequal lengths")
        return cls.from_columns(num_nodes=payload["num_nodes"], **columns)

    def content_hash(self) -> str:
        """SHA-256 over ``num_nodes`` (``<i8``) and the column bytes."""
        digest = hashlib.sha256(self.num_nodes.to_bytes(8, "little", signed=True))
        for raw in self._column_bytes():
            digest.update(raw)
        return digest.hexdigest()
