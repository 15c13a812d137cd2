"""A small discrete-event simulation (DES) engine.

This is the substrate on which the simulated parallel machine and the
simulated MPI layer are built.  The design follows the classic
process-interaction style (as popularized by SimPy, but implemented from
scratch here): user code is written as Python generators that ``yield``
events; the :class:`~repro.des.engine.Simulator` advances virtual time from
event to event and resumes the waiting generators.

Public surface:

* :class:`Simulator` — the event loop and virtual clock.
* :class:`Event`, :class:`Timeout`, :class:`AllOf`, :class:`AnyOf` — waitables.
* :class:`Process` — a running generator; itself an event that fires when
  the generator returns.
* :class:`Resource` — counted semaphore with FIFO queueing (used for NIC
  injection/ejection ports and mesh links).
* :class:`Store` — FIFO buffer of Python objects with blocking get/put
  (used for MPI unexpected-message queues).
"""

from repro.des.event import Event, Timeout, AllOf, AnyOf, PENDING, TRIGGERED, PROCESSED
from repro.des.process import Process
from repro.des.engine import Simulator
from repro.des.resource import Resource, Store

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Process",
    "Resource",
    "Store",
    "PENDING",
    "TRIGGERED",
    "PROCESSED",
]
