"""Message envelope and payload sizing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

def payload_nbytes(payload: Any) -> int:
    """Best-effort size in bytes of a payload (used when nbytes not given)."""
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(p) for p in payload)
    if isinstance(payload, dict):
        return sum(payload_nbytes(v) for v in payload.values())
    # Scalars and small control objects: one cache line.
    return 64


@dataclass(slots=True)
class Message:
    """A delivered message, as returned by a receive.

    Attributes
    ----------
    source / tag:
        Matching metadata (source is a rank *within the receiving
        communicator*).
    payload:
        The object sent.  Array payloads are defensively copied at send time
        so that sender-side reuse of the buffer cannot corrupt the message
        (the simulated analogue of MPI's buffer-ownership rules).
    nbytes:
        Modeled wire size (drives transfer time).
    sent_at / delivered_at:
        Virtual timestamps: when the send was posted and when the payload
        arrived at the receiver.
    """

    source: int
    tag: int
    payload: Any
    nbytes: int
    sent_at: float
    delivered_at: float = field(default=float("nan"))

    @property
    def transit_time(self) -> float:
        """Delivery minus posting time (includes matching/queueing waits)."""
        return self.delivered_at - self.sent_at
