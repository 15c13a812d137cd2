"""Events: the unit of synchronization in the DES engine.

An :class:`Event` moves through three states:

``PENDING``
    created but not yet triggered; processes may add themselves as waiters.
``TRIGGERED``
    given a value (or an exception) and placed on the simulator's queue.
``PROCESSED``
    the simulator has popped it and run its callbacks (resuming waiters).

Composite events (:class:`AllOf`, :class:`AnyOf`) let a process wait on
several events at once; they are what make "wait for all outstanding
receives" a one-liner in the MPI layer.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.errors import SimulationError

PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"

#: Scheduling priority for ordinary events.
NORMAL = 1
#: Scheduling priority for bookkeeping events that must run before ordinary
#: ones at the same timestamp (e.g. resource releases).
URGENT = 0


class Event:
    """A one-shot occurrence at a point in virtual time.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.des.engine.Simulator`.
    name:
        Optional label used in traces and deadlock reports.
    """

    __slots__ = ("sim", "name", "callbacks", "_state", "_ok", "_value", "defused")

    #: Overridden per-instance on pool-recycled Timeouts (see
    #: :meth:`repro.des.engine.Simulator.pooled_timeout`); plain events are
    #: never recycled.
    _pooled = False

    def __init__(self, sim, name: str = ""):
        self.sim = sim
        self.name = name
        #: Callables invoked with this event when it is processed.
        self.callbacks: list[Callable[[Event], None]] = []
        self._state = PENDING
        self._ok: Optional[bool] = None
        self._value: Any = None
        #: Set to True once some waiter has consumed a failure, suppressing
        #: the "unhandled failed event" error at simulation end.
        self.defused = False

    # -- state inspection -------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"event {self!r} has no outcome yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception.  Only valid once triggered."""
        if self._state == PENDING:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        self.sim._schedule(self, delay=delay, priority=NORMAL)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed with ``exception`` after ``delay``."""
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        self.sim._schedule(self, delay=delay, priority=NORMAL)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or hex(id(self))
        return f"<{type(self).__name__} {label} [{self._state}]>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units after creation."""

    __slots__ = ("delay", "_pooled")

    def __init__(self, sim, delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim, name=name or f"timeout({delay:g})")
        self.delay = delay
        self._pooled = False
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        sim._schedule(self, delay=delay, priority=NORMAL)


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, sim, events: Iterable[Event], name: str = ""):
        super().__init__(sim, name=name)
        self.events = tuple(events)
        self._n_fired = 0
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
        # Register on the child events; already-processed children count
        # immediately (so conditions over completed events work).
        child_fired = self._child_fired
        for ev in self.events:
            if ev._state == PROCESSED:
                child_fired(ev)
            else:
                ev.callbacks.append(child_fired)
        self._check_if_created_satisfied()

    def _check_if_created_satisfied(self) -> None:
        if self._state == PENDING and self._satisfied():
            self.succeed(self._collect())

    def _child_fired(self, ev: Event) -> None:
        if self._state != PENDING:
            return
        if not ev._ok:
            ev.defused = True
            self.fail(ev._value)
            return
        self._n_fired += 1
        if self._satisfied():
            self.succeed(self._collect())

    # Subclass API ---------------------------------------------------------
    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self):
        """Value delivered on success: dict of fired events -> values.

        Only *processed* children count: a Timeout is born triggered (it
        has a value from creation) but has not yet occurred.
        """
        return {
            ev: ev._value
            for ev in self.events
            if ev._state == PROCESSED and ev._ok
        }


class AllOf(_Condition):
    """Fires when every child event has fired (fails fast on any failure)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_fired >= len(self.events)


class AnyOf(_Condition):
    """Fires as soon as any one child event has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self.events) == 0 or self._n_fired >= 1
