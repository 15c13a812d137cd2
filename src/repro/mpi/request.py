"""Requests: the events returned by non-blocking operations.

A request *is* a DES event, so blocking on it is just ``yield request``.
``wait_all`` / ``wait_any`` mirror ``MPI_Waitall`` / ``MPI_Waitany``.
Requests serve the reference engine, traced runs and ad hoc programs;
compiled batches on the lowered engine build none.
"""

from __future__ import annotations

from typing import Sequence

from repro.des.event import Event, AllOf, AnyOf, PENDING


class Request(Event):
    """Base class for send/receive requests.

    The constructors below set every field directly instead of chaining
    through ``Request.__init__`` / ``Event.__init__``: requests are created
    ~10^5 times per run and the two extra frames are measurable.
    """

    __slots__ = ("posted_at",)

    def __init__(self, sim, name: str = ""):
        super().__init__(sim, name=name)
        #: Virtual time at which the operation was posted.
        self.posted_at = sim._now

    @property
    def complete(self) -> bool:
        """Non-blocking completion test (``MPI_Test``)."""
        return self.triggered


class SendRequest(Request):
    """Completes when the payload has left the sender (buffer reusable)."""

    __slots__ = ("dest", "tag", "nbytes")

    def __init__(self, sim, dest: int, tag: int, nbytes: int):
        # Constant label: the name is diagnostic only (dest/tag stay
        # inspectable as attributes).  Field writes mirror Event.__init__.
        self.sim = sim
        self.name = "isend"
        self.callbacks = []
        self._state = PENDING
        self._ok = None
        self._value = None
        self.defused = False
        self.posted_at = sim._now
        self.dest = dest
        self.tag = tag
        self.nbytes = nbytes


class RecvRequest(Request):
    """Completes with the delivered :class:`~repro.mpi.datatypes.Message`."""

    __slots__ = ("source", "tag", "comm")

    def __init__(self, sim, source: int, tag: int):
        self.sim = sim
        self.name = "irecv"
        self.callbacks = []
        self._state = PENDING
        self._ok = None
        self._value = None
        self.defused = False
        self.posted_at = sim._now
        self.source = source
        self.tag = tag
        #: Communicator the receive was posted on; used at delivery time to
        #: translate the message's world source rank into a local rank.
        self.comm = None


def wait_all(sim, requests: Sequence[Request]) -> AllOf:
    """Event firing when every request has completed (``MPI_Waitall``)."""
    return AllOf(sim, list(requests))


def wait_any(sim, requests: Sequence[Request]) -> AnyOf:
    """Event firing when any request has completed (``MPI_Waitany``)."""
    return AnyOf(sim, list(requests))
