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
``done.succeed()``                    ``done.succeed()`` (unchanged)
====================================  =====================================

A transfer that finds a port busy enqueues without consuming a sequence
number, and is re-pushed by the releasing transfer — exactly when the
reference ``Resource`` would have scheduled the grant.  Timestamps,
event order, and every counter therefore match the reference bit for bit;
the golden and hypothesis backend tests enforce this.

Fallbacks: the LINKS contention mode and attached observability sinks use
the inherited reference transfer path (on the lowered engine the two paths
schedule identically, so mixing modes across runs stays bit-identical).
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush

from repro.des.engine import _POOL_MAX, Simulator
from repro.des.event import Event, PROCESSED
from repro.errors import MachineError
from repro.machine.network import ContentionMode, Network
from repro.des.backends.plan import EnginePlan

#: Slot-record states; the value is the *next* action the loop performs.
_START = 0  # acquire the ejection port (or branch to the delay path)
_ACQ1 = 1  # ejection port held; acquire the injection port
_ACQ2 = 2  # both ports held; serialize for the hold time
_RELEASE = 3  # release ports, wake waiters, deliver
_DELAY = 4  # contention-free path: single analytic delay
_DELAY_DONE = 5  # analytic delay elapsed; deliver
_DELIVER = 6  # matched-transfer fast path: hand the message to the receiver

#: Recycled slot records kept per network (matches the engine's timeout pool
#: bound; in-flight transfers beyond this simply allocate).
_RECORD_POOL_MAX = 1024


class _Transfer:
    """One in-flight transfer: a pooled array-of-struct slot record.

    Instances are heap payloads; the loop recognizes them by exact class
    and calls ``step`` instead of running Event callbacks.
    """

    __slots__ = (
        "step",
        "stage",
        "port1",
        "port2",
        "hold",
        "done",
        "wait_since",
        "pending",
        "recv",
    )

    def __init__(self, step):
        self.step = step
        self.stage = _START
        self.port1 = 0
        self.port2 = 0
        self.hold = 0.0
        self.done = None
        self.wait_since = 0.0
        #: Matched-transfer fast path: the pending send and receive request
        #: to deliver directly at the _DELIVER stage (None on the generic
        #: Event-completion path).
        self.pending = None
        self.recv = None


class LoweredSimulator(Simulator):
    """Reference :class:`Simulator` with slotted-event dispatch."""

    backend = "lowered"
    #: Slot records may only be scheduled on engines that advertise this
    #: (the reference loop would crash trying to run Event callbacks on one).
    handles_slot_records = True

    def __init__(self):
        super().__init__()
        #: Lowered networks bound to this engine.  With exactly one, the
        #: fast loop inlines its transfer state machine; with several (or
        #: none) records go through bound-method dispatch.
        self._slot_networks: list = []

    def step(self) -> None:
        if self._queue and self._queue[0][3].__class__ is _Transfer:
            _time, _priority, _seq, record = heapq.heappop(self._queue)
            self._now = _time
            record.step(record)
            self.events_processed += 1
            return
        super().step()

    def _run_fast(self, stop_event, stop_time) -> bool:
        if (
            stop_event is None
            and stop_time is None
            and len(self._slot_networks) == 1
        ):
            return self._run_inlined(self._slot_networks[0])
        queue = self._queue
        pool = self._timeout_pool
        pop = heapq.heappop
        processed = 0
        no_stops = stop_event is None and stop_time is None
        try:
            while queue:
                if not no_stops:
                    if stop_event is not None and stop_event._state == PROCESSED:
                        return True
                    if stop_time is not None and queue[0][0] > stop_time:
                        self._now = stop_time
                        return False
                time, _priority, _seq, event = pop(queue)
                self._now = time
                if event.__class__ is _Transfer:
                    event.step(event)
                    processed += 1
                    continue
                callbacks = event.callbacks
                event.callbacks = []
                event._state = PROCESSED
                for callback in callbacks:
                    callback(event)
                processed += 1
                if event._ok is False and not event.defused:
                    raise event._value
                if event._pooled and len(pool) < _POOL_MAX:
                    pool.append(event)
        finally:
            self.events_processed += processed
        return True

    def _run_inlined(self, net: "LoweredNetwork") -> bool:
        """Drain the queue with ``net``'s transfer state machine inlined.

        Record events are ~2/3 of a modeled run, so this loop keeps their
        whole lifecycle in local variables — port tables, record pool, the
        heap, and crucially the sequence counter.  ``self._seq`` is synced
        to the local counter before control leaves the loop (Event
        callbacks, ``done.succeed()``, delivery) and reloaded after, so
        externally-scheduled events still get exactly the sequence numbers
        the reference engine would hand out.
        """
        queue = self._queue
        pool = self._timeout_pool
        transfer_cls = _Transfer
        pop = heappop
        push = heappush
        in_use = net._port_in_use
        waiter_tbl = net._port_waiters
        grants = net._port_grants
        wait_time = net._port_wait_time
        record_pool = net._record_pool
        deliver = net._deliver
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
                            grants[port] += 1
                            seq += 1
                            push(queue, (time, 1, seq, event))
                    elif stage == _ACQ2:
                        event.stage = _RELEASE
                        seq += 1
                        push(queue, (time + event.hold, 1, seq, event))
                    elif stage == _RELEASE:
                        for port in (event.port2, event.port1):
                            waiters = waiter_tbl[port]
                            if waiters:
                                waiter = waiters.pop(0)
                                grants[port] += 1
                                wait_time[port] += time - waiter.wait_since
                                seq += 1
                                push(queue, (time, 1, seq, waiter))
                            else:
                                in_use[port] = 0
                        done = event.done
                        if done is None:
                            event.stage = _DELIVER
                            seq += 1
                            push(queue, (time, 1, seq, event))
                        else:
                            event.done = None
                            if len(record_pool) < _RECORD_POOL_MAX:
                                record_pool.append(event)
                            self._seq = seq
                            done.succeed()
                            seq = self._seq
                    elif stage == _DELIVER:
                        pending, recv = event.pending, event.recv
                        event.pending = event.recv = None
                        if len(record_pool) < _RECORD_POOL_MAX:
                            record_pool.append(event)
                        self._seq = seq
                        deliver(pending, recv)
                        seq = self._seq
                    elif stage == _DELAY:
                        event.stage = _DELAY_DONE
                        seq += 1
                        push(queue, (time + event.hold, 1, seq, event))
                    else:  # _DELAY_DONE
                        done = event.done
                        if done is None:
                            event.stage = _DELIVER
                            seq += 1
                            push(queue, (time, 1, seq, event))
                        else:
                            event.done = None
                            if len(record_pool) < _RECORD_POOL_MAX:
                                record_pool.append(event)
                            self._seq = seq
                            done.succeed()
                            seq = self._seq
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

    Transfers run as slot records off :class:`EnginePlan` tables; the LINKS
    mode and observability inherit the reference path.
    """

    def __init__(self, sim, mesh, cost_model=None, contention=ContentionMode.ENDPOINT,
                 plan: EnginePlan | None = None):
        super().__init__(sim, mesh, cost_model, contention=contention)
        self.plan = plan
        self._lowered_on = (
            plan is not None
            and self.contention in (ContentionMode.NONE, ContentionMode.ENDPOINT)
            and getattr(sim, "handles_slot_records", False)
        )
        if self._lowered_on:
            nports = plan.num_ports
            #: Port state, struct-of-arrays: held flag, waiter FIFOs, and
            #: the reference Resource's wait/grant accounting.
            self._port_in_use = bytearray(nports)
            self._port_waiters: list = [None] * nports
            self._port_wait_time = [0.0] * nports
            self._port_grants = [0] * nports
            #: (src*N + dst) -> {nbytes -> precomputed total delay/hold}.
            self._edge_memo: dict[int, dict] = {}
            self._record_pool: list[_Transfer] = []
            self._matched_fast = True
            #: Delivery callable bound by :class:`~repro.mpi.communicator.World`
            #: (``bind_deliver``); invoked as ``deliver(pending, recv_req)``.
            self._deliver = None
            #: Fast-path flags precomputed off the contention mode.
            self._endpoint = self.contention is ContentionMode.ENDPOINT
            self._n = plan.num_nodes
            sim._slot_networks.append(self)

    def bind_deliver(self, deliver) -> None:
        """Install the matcher's delivery function for the fast path."""
        self._deliver = deliver

    # -- lowered transfer path -------------------------------------------------
    def transfer(self, src: int, dst: int, nbytes: int) -> Event:
        if not self._lowered_on or self.obs is not None:
            return super().transfer(src, dst, nbytes)
        if nbytes < 0:
            raise MachineError(f"negative message size: {nbytes}")
        self.messages_sent += 1
        self.bytes_sent += nbytes
        sim = self.sim
        done = Event(sim, name="xfer")
        pool = self._record_pool
        record = pool.pop() if pool else _Transfer(self._step)
        record.done = done

        if src != dst and self._endpoint:
            record.stage = _START
            record.port1 = 2 * dst  # ejection port (acquired first)
            record.port2 = 2 * src + 1  # injection port
            record.hold = self._edge_hold(src, dst, nbytes)
        elif src == dst:
            # On-node copy: same two-event shape as the reference
            # (deferral, then the copy delay), no ports.
            record.stage = _DELAY
            record.hold = self.plan.per_byte_s * nbytes
        else:
            record.stage = _DELAY
            record.hold = self._edge_delay_none(src, dst, nbytes)
        # The deferral: one sequence number, exactly like the reference's
        # pooled_timeout(0.0) — same-timestamp operations posted earlier
        # keep their place in the schedule.
        sim._seq += 1
        heappush(sim._queue, (sim._now, 1, sim._seq, record))
        return done

    def transfer_matched(self, src: int, dst: int, pending, recv_req) -> None:
        """Matched-transfer fast path: deliver from the slot record.

        Same schedule as ``transfer()`` + a completion-Event pop — the
        final record push stands in for ``done.succeed()`` (one sequence
        number, same time and priority) and the ``_DELIVER`` stage runs
        what the done-event's delivery callback would have — but with no
        Event, no closure, and no callback-list churn per message.  Only
        called by the matcher when the lowered path is on and no
        observability sink is attached.
        """
        nbytes = pending.message.nbytes
        if nbytes < 0:
            raise MachineError(f"negative message size: {nbytes}")
        self.messages_sent += 1
        self.bytes_sent += nbytes
        sim = self.sim
        pool = self._record_pool
        record = pool.pop() if pool else _Transfer(self._step)
        record.pending = pending
        record.recv = recv_req

        if src != dst and self._endpoint:
            record.stage = _START
            record.port1 = 2 * dst  # ejection port (acquired first)
            record.port2 = 2 * src + 1  # injection port
            # Memo hit inline (the overwhelmingly common case in steady
            # state); misses fill the memo through _edge_hold.
            by_size = self._edge_memo.get(src * self._n + dst)
            hold = by_size.get(nbytes) if by_size is not None else None
            record.hold = (
                hold if hold is not None else self._edge_hold(src, dst, nbytes)
            )
        elif src == dst:
            record.stage = _DELAY
            record.hold = self.plan.per_byte_s * nbytes
        else:
            record.stage = _DELAY
            record.hold = self._edge_delay_none(src, dst, nbytes)
        sim._seq += 1
        heappush(sim._queue, (sim._now, 1, sim._seq, record))

    def _edge_hold(self, src: int, dst: int, nbytes: int) -> float:
        """Header + occupancy for one (src, dst, nbytes) edge, memoized."""
        edge = src * self.plan.num_nodes + dst
        by_size = self._edge_memo.get(edge)
        if by_size is None:
            by_size = self._edge_memo[edge] = {}
        hold = by_size.get(nbytes)
        if hold is None:
            plan = self.plan
            occupancy = plan.occupancy_memo.get(nbytes)
            if occupancy is None:
                occupancy = plan.occupancy_memo[nbytes] = self.cost.occupancy(nbytes)
            # Same association order as the reference: header + occupancy.
            hold = by_size[nbytes] = float(plan.header_s[src, dst]) + occupancy
        return hold

    def _edge_delay_none(self, src: int, dst: int, nbytes: int) -> float:
        """Analytic point-to-point time (NONE contention), memoized."""
        edge = src * self.plan.num_nodes + dst
        by_size = self._edge_memo.get(edge)
        if by_size is None:
            by_size = self._edge_memo[edge] = {}
        delay = by_size.get(nbytes)
        if delay is None:
            delay = by_size[nbytes] = self.cost.point_to_point(
                nbytes, int(self.plan.hops[src, dst])
            )
        return delay

    def _step(self, record: _Transfer) -> None:
        """Advance one slot record; called by the engine loop on pop."""
        stage = record.stage
        sim = self.sim
        if stage <= _ACQ1:  # _START or _ACQ1: acquire a port
            port = record.port1 if stage == _START else record.port2
            record.stage = stage + 1
            if self._port_in_use[port]:
                record.wait_since = sim._now
                waiters = self._port_waiters[port]
                if waiters is None:
                    waiters = self._port_waiters[port] = []
                waiters.append(record)
            else:
                self._port_in_use[port] = 1
                self._port_grants[port] += 1
                sim._seq += 1
                heappush(sim._queue, (sim._now, 1, sim._seq, record))
        elif stage == _ACQ2:
            # Both ports held: serialize (header + occupancy), then release.
            record.stage = _RELEASE
            sim._seq += 1
            heappush(sim._queue, (sim._now + record.hold, 1, sim._seq, record))
        elif stage == _RELEASE:
            # Release in reference order (injection, then ejection); each
            # release hands the port straight to the oldest waiter.
            for port in (record.port2, record.port1):
                waiters = self._port_waiters[port]
                if waiters:
                    waiter = waiters.pop(0)
                    self._port_grants[port] += 1
                    self._port_wait_time[port] += sim._now - waiter.wait_since
                    sim._seq += 1
                    heappush(sim._queue, (sim._now, 1, sim._seq, waiter))
                else:
                    self._port_in_use[port] = 0
            self._complete(record, sim)
        elif stage == _DELIVER:
            pending, recv = record.pending, record.recv
            record.pending = record.recv = None
            if len(self._record_pool) < _RECORD_POOL_MAX:
                self._record_pool.append(record)
            self._deliver(pending, recv)
        elif stage == _DELAY:
            record.stage = _DELAY_DONE
            sim._seq += 1
            heappush(sim._queue, (sim._now + record.hold, 1, sim._seq, record))
        else:  # _DELAY_DONE
            self._complete(record, sim)

    def _complete(self, record: _Transfer, sim) -> None:
        """Transfer finished: complete the done Event, or re-push for the
        inline delivery stage (one seq, standing in for ``done.succeed()``)."""
        done = record.done
        if done is None:
            record.stage = _DELIVER
            sim._seq += 1
            heappush(sim._queue, (sim._now, 1, sim._seq, record))
            return
        record.done = None
        if len(self._record_pool) < _RECORD_POOL_MAX:
            self._record_pool.append(record)
        done.succeed()

    # -- diagnostics -----------------------------------------------------------
    def endpoint_wait_time(self, node: int) -> float:
        total = super().endpoint_wait_time(node)
        if self._lowered_on:
            total += self._port_wait_time[2 * node] + self._port_wait_time[2 * node + 1]
        return total

    def port_grants(self, node: int) -> int:
        """Grants made at a node's two ports (lowered path only)."""
        if not self._lowered_on:
            return 0
        return self._port_grants[2 * node] + self._port_grants[2 * node + 1]
