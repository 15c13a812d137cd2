"""The lowered-plan Python backend.

Same simulation, flattened hot path.  The reference engine drives every
network transfer through generic machinery: a pooled deferral timeout, two
:class:`~repro.des.resource.Resource` requests (an Event allocation, a
grant Event, and two closures each), a hold timeout, and a completion
Event — five heap entries and roughly a dozen object allocations per
message.  The lowered backend replaces all of that with **one pooled slot
record** per in-flight transfer that the event loop advances through an
integer state machine, reading precomputed :class:`EnginePlan` tables.

Schedule parity
---------------
Determinism in this engine is the ``(time, priority, sequence)`` heap key,
so bit-identity across backends demands *sequence-for-sequence* parity:
every ``_schedule`` call the reference path makes has exactly one
counterpart here, in the same order, at the same time and priority —

====================================  =====================================
reference event                       lowered slot state
====================================  =====================================
``pooled_timeout(0)`` deferral        record pushed at ``now`` (START)
eject-port grant Event                record re-pushed at ``now`` (ACQ1)
inject-port grant Event               record re-pushed at ``now`` (ACQ2)
hold-time ``pooled_timeout``          record pushed at ``now+hold`` (RELEASE)
``done.succeed()``                    record re-pushed at ``now`` (DELIVER)
eager ``SendRequest`` completion      batch token pushed at post
rendezvous ``SendRequest`` completion batch token pushed at DELIVER
``RecvRequest`` completion            batch token pushed at DELIVER
``AllOf`` child count (request pop)   token pop decrements ``pending``
``AllOf.succeed()``                   batch scheduled at wait time or at
                                      its last token pop
====================================  =====================================

A transfer that finds a port busy enqueues without consuming a sequence
number, and is re-pushed by the releasing transfer — exactly when the
reference ``Resource`` would have scheduled the grant.  Timestamps,
event order, and every counter therefore match the reference bit for bit;
the golden and hypothesis backend tests enforce this.

Slot records carry the traffic of :class:`Batch` groups — one iteration's
compiled sends or receives — which stand in for the per-message Requests
and the ``AllOf`` over them (the lower rows of the table above).

Scope: a :class:`LoweredSimulator` drives at most one lowered network, and
while one is bound it only drains to completion — ``run(until=...)`` and
``step()`` raise :class:`~repro.errors.SimulationError` (the ``python``
engine serves them).  The LINKS contention mode, a network on a reference
simulator, a run with an observability sink attached, and every
``isend``/``irecv`` Request take the inherited reference transfer path (on
the lowered engine the two paths schedule identically, so mixing modes
across runs stays bit-identical).
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.des.engine import _POOL_MAX, Simulator
from repro.des.event import PROCESSED, TRIGGERED, Event
from repro.errors import SimulationError
from repro.machine.network import ContentionMode, Network
from repro.des.backends.plan import EnginePlan

#: Slot-record states; the value is the *next* action the loop performs.
_START = 0  # acquire the ejection port (or branch to the delay path)
_ACQ1 = 1  # ejection port held; acquire the injection port
_ACQ2 = 2  # both ports held; serialize for the hold time
_RELEASE = 3  # release ports, wake waiters, then deliver
_DELAY = 4  # contention-free path: single analytic delay
_DELAY_DONE = 5  # analytic delay elapsed; deliver
_DELIVER = 6  # hand the message to the receiver

#: Recycled slot records kept per network (matches the engine's timeout pool
#: bound; in-flight transfers beyond this simply allocate).
_RECORD_POOL_MAX = 1024

_DRAIN_ONLY = (
    "{} is not supported on the lowered engine while a lowered network is "
    "bound (it only drains to completion); use the 'python' engine"
)


class _Transfer:
    """One in-flight transfer: a pooled array-of-struct slot record.

    Instances are heap payloads; the loop recognizes them by exact class
    and advances their state inline instead of running Event callbacks.
    :meth:`LoweredNetwork.transfer_batched` sets every field but
    ``wait_since`` (stamped when the record queues for a port).  The
    delivery targets are the sending batch (None once its eager
    completion was pushed at post), the receiving batch, the receive's
    slot in it, and the payload.
    """

    __slots__ = ("stage", "port1", "port2", "hold", "wait_since",
                 "send", "recv", "slot", "payload")


class Batch(Event):
    """One iteration's compiled sends or receives, completed as a group.

    The batch is its own reusable token: each request completion the
    reference path would push is a push of the batch while ``pending``
    (posted completions not yet popped) is positive, and the loop counts
    such a pop against it inline.  :meth:`wait` schedules the batch at
    once when nothing is pending — as an ``AllOf`` over processed
    requests succeeds at creation — and otherwise the last token pop
    does; that push, with ``pending`` at zero, is an ordinary Event that
    resumes the waiter.  Received payloads land in ``payloads`` in
    posting order.
    """

    __slots__ = ("pending", "waiting", "size", "payloads")

    def __init__(self, sim):
        super().__init__(sim, name="batch")
        self.pending = 0
        self.waiting = False
        #: Messages posted into this batch.
        self.size = 0
        self.payloads: list = []

    def __len__(self) -> int:
        return self.size

    def wait(self) -> "Batch":
        """The event firing once every posted message completed."""
        if self.pending:
            self.waiting = True
        else:
            self._ok = True
            self._state = TRIGGERED
            self.sim._schedule(self)
        return self


class LoweredSimulator(Simulator):
    """Reference :class:`Simulator` with the transfer state machine inlined."""

    backend = "lowered"

    def __init__(self):
        super().__init__()
        #: The lowered network bound to this engine, if any.
        self._network: LoweredNetwork | None = None

    def step(self) -> None:
        if self._network is not None:
            raise SimulationError(_DRAIN_ONLY.format("step()"))
        super().step()

    def _run_fast(self, stop_event, stop_time) -> bool:
        net = self._network
        if net is None:
            return super()._run_fast(stop_event, stop_time)
        if stop_event is not None or stop_time is not None:
            raise SimulationError(_DRAIN_ONLY.format("run(until=...)"))
        return self._run_inlined(net)

    def _run_inlined(self, net: "LoweredNetwork") -> bool:
        """Drain the queue with ``net``'s transfer state machine inlined.

        Record events are ~2/3 of a modeled run, so this loop keeps their
        whole lifecycle in local variables — port tables, record pool, the
        heap, and crucially the sequence counter.  ``self._seq`` is synced
        to the local counter before control leaves the loop (Event
        callbacks, delivery) and reloaded after, so externally-scheduled
        events still get exactly the sequence numbers the reference engine
        would hand out.
        """
        queue = self._queue
        pool = self._timeout_pool
        transfer_cls = _Transfer
        batch_cls = Batch
        pop = heappop
        push = heappush
        in_use = net._port_in_use
        waiter_tbl = net._port_waiters
        wait_time = net._port_wait_time
        record_pool = net._record_pool
        processed = 0
        seq = self._seq
        try:
            while queue:
                time, _priority, _seq_, event = pop(queue)
                self._now = time
                if event.__class__ is transfer_cls:
                    processed += 1
                    stage = event.stage
                    if stage <= _ACQ1:  # _START or _ACQ1: acquire a port
                        port = event.port1 if stage == _START else event.port2
                        event.stage = stage + 1
                        if in_use[port]:
                            event.wait_since = time
                            waiters = waiter_tbl[port]
                            if waiters is None:
                                waiters = waiter_tbl[port] = []
                            waiters.append(event)
                        else:
                            in_use[port] = 1
                            seq += 1
                            push(queue, (time, 1, seq, event))
                    elif stage == _ACQ2:
                        event.stage = _RELEASE
                        seq += 1
                        push(queue, (time + event.hold, 1, seq, event))
                    elif stage == _RELEASE:
                        # Release in reference order (injection, then
                        # ejection); each release hands the port straight
                        # to the oldest waiter.
                        for port in (event.port2, event.port1):
                            waiters = waiter_tbl[port]
                            if waiters:
                                waiter = waiters.pop(0)
                                wait_time[port] += time - waiter.wait_since
                                seq += 1
                                push(queue, (time, 1, seq, waiter))
                            else:
                                in_use[port] = 0
                        event.stage = _DELIVER
                        seq += 1
                        push(queue, (time, 1, seq, event))
                    elif stage == _DELIVER:
                        # Request completions, in reference order: the
                        # send (unless completed eagerly), then the receive.
                        send = event.send
                        if send is not None:
                            seq += 1
                            push(queue, (time, 1, seq, send))
                        recv = event.recv
                        recv.payloads[event.slot] = event.payload
                        seq += 1
                        push(queue, (time, 1, seq, recv))
                        event.send = event.recv = event.payload = None
                        if len(record_pool) < _RECORD_POOL_MAX:
                            record_pool.append(event)
                    elif stage == _DELAY:
                        event.stage = _DELAY_DONE
                        seq += 1
                        push(queue, (time + event.hold, 1, seq, event))
                    else:  # _DELAY_DONE
                        event.stage = _DELIVER
                        seq += 1
                        push(queue, (time, 1, seq, event))
                    continue
                if event.__class__ is batch_cls and event.pending:
                    # A token pop — one request completion of the batch:
                    # the AllOf child count, and its succeed() once full.
                    processed += 1
                    event.pending -= 1
                    if not event.pending and event.waiting:
                        event._ok = True
                        event._state = TRIGGERED
                        seq += 1
                        push(queue, (time, 1, seq, event))
                        if len(queue) > self.heap_peak:
                            self.heap_peak = len(queue)
                    continue
                # Generic event: identical to the reference loop, with the
                # sequence counter handed back for the callback window.
                self._seq = seq
                callbacks = event.callbacks
                event.callbacks = []
                event._state = PROCESSED
                for callback in callbacks:
                    callback(event)
                seq = self._seq
                processed += 1
                if event._ok is False and not event.defused:
                    raise event._value
                if event._pooled and len(pool) < _POOL_MAX:
                    pool.append(event)
            self._seq = seq
        except BaseException:
            # self._seq was synced before any call that can raise; the
            # local counter may be stale here, so do not write it back.
            self.events_processed += processed
            raise
        self.events_processed += processed
        return True


class LoweredNetwork(Network):
    """Plan-driven network scheduler (NONE and ENDPOINT contention).

    Compiled batch transfers run as slot records off :class:`EnginePlan`
    tables on a :class:`LoweredSimulator`; everything else (the LINKS
    mode, a reference simulator, observability, Request traffic) inherits
    the reference path.
    """

    def __init__(self, sim, mesh, cost_model=None, contention=ContentionMode.ENDPOINT,
                 plan: EnginePlan | None = None):
        super().__init__(sim, mesh, cost_model, contention=contention)
        self.plan = plan
        self._compiled = (
            plan is not None
            and self.contention in (ContentionMode.NONE, ContentionMode.ENDPOINT)
            and isinstance(sim, LoweredSimulator)
        )
        if self._compiled:
            if sim._network is not None:
                raise SimulationError(
                    "a lowered simulator drives one lowered network; create "
                    "a new simulator for each World"
                )
            nports = plan.num_ports
            #: Port state, struct-of-arrays: held flag, waiter FIFOs, and
            #: the reference Resource's wait accounting.
            self._port_in_use = bytearray(nports)
            self._port_waiters: list = [None] * nports
            self._port_wait_time = [0.0] * nports
            self._record_pool: list[_Transfer] = []
            self._endpoint = self.contention is ContentionMode.ENDPOINT
            sim._network = self

    # -- lowered transfer path -------------------------------------------------
    def transfer_plan(self, src: int, dst: int, nbytes: int) -> tuple:
        """``(nbytes, first stage, port1, port2, hold)`` of one channel.

        Computed once per compiled send channel, from the same IEEE-754
        expressions as the reference transfer chain.
        """
        plan = self.plan
        if src == dst:
            # On-node copy: same two-event shape as the reference
            # (deferral, then the copy delay), no ports.
            return (nbytes, _DELAY, 0, 0, plan.per_byte_s * nbytes)
        if not self._endpoint:
            hops = int(plan.hops[src, dst])
            return (nbytes, _DELAY, 0, 0, self.cost.point_to_point(nbytes, hops))
        occupancy = plan.occupancy_memo.get(nbytes)
        if occupancy is None:
            occupancy = plan.occupancy_memo[nbytes] = self.cost.occupancy(nbytes)
        # Ejection port first, then injection; the hold keeps the
        # reference association order: header + occupancy.
        return (nbytes, _START, 2 * dst, 2 * src + 1,
                float(plan.header_s[src, dst]) + occupancy)

    def transfer_batched(self, transfer: tuple, send, payload, recv: Batch,
                         slot: int) -> None:
        """Start one matched transfer between compiled batches.

        Same schedule as the reference ``transfer()`` plus its
        completion-Event pop — the final record push stands in for
        ``done.succeed()`` (one sequence number, same time and priority)
        and the ``_DELIVER`` stage pushes the request completions the
        delivery callback would have — with no Event, closure or Request
        per message.  ``transfer`` is the channel's :meth:`transfer_plan`;
        ``send`` the sending batch, or None when its eager completion was
        already pushed at post.
        """
        pool = self._record_pool
        record = pool.pop() if pool else _Transfer()
        nbytes, record.stage, record.port1, record.port2, record.hold = transfer
        self.messages_sent += 1
        self.bytes_sent += nbytes
        sim = self.sim
        record.send = send
        record.recv = recv
        record.slot = slot
        record.payload = payload
        # The deferral: one sequence number, exactly like the reference's
        # pooled_timeout(0.0) — same-timestamp operations posted earlier
        # keep their place in the schedule.
        sim._seq += 1
        heappush(sim._queue, (sim._now, 1, sim._seq, record))

    # -- diagnostics -----------------------------------------------------------
    def endpoint_wait_time(self, node: int) -> float:
        total = super().endpoint_wait_time(node)
        if self._compiled:
            total += self._port_wait_time[2 * node] + self._port_wait_time[2 * node + 1]
        return total
