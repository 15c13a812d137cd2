"""World and Communicator: rank management and point-to-point matching.

Matching semantics follow MPI for exact-key traffic — every receive
names its source and tag, as all of the pipeline's do:

* a receive matches the *earliest* posted, not-yet-matched send with its
  (source, tag), and vice versa — each key is one FIFO;
* messages between a fixed (source, dest, tag) triple are non-overtaking;
* each communicator is an isolated matching context (a message sent on one
  communicator can never match a receive on another).

Transfer protocol, as in real MPI implementations:

* messages up to ``eager_threshold`` bytes use the **eager** protocol: the
  send request completes as soon as the message is handed to the transport
  (buffered); small control traffic therefore never deadlocks on posting
  order;
* larger messages use **rendezvous**: the wire transfer starts when send
  and receive are both posted, and the send request completes when the
  payload arrives.  This throttles producers (double buffering bounds how
  far ahead a task can run) and makes the receiver's blocked time include
  waiting-for-the-sender — exactly the quantity the paper's "recv" columns
  report (Section 7.2: "timing results shown in the tables contain idle
  time for waiting for the corresponding task to complete").

``isend``/``irecv`` build a Request per message.  Batches posted through
:class:`~repro.mpi.context.RankContext` run compiled on the lowered engine
with no trace sink — a queue tuple per message, no Request — and as
Request lists elsewhere.  One World carries one of the two kinds.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappush
from typing import Any, Callable, Generator, Optional, Sequence

import numpy as np

from repro.des import Simulator
from repro.des.backends.lowered import Batch
from repro.des.backends.plan import TAG_BITS, TAG_LIMIT
from repro.des.event import TRIGGERED
from repro.errors import MPIError
from repro.machine.network import Network
from repro.machine.paragon import Machine
from repro.mpi.datatypes import Message, payload_nbytes
from repro.mpi.request import SendRequest, RecvRequest

_MIXED = (
    "a World carries either Request traffic (isend/irecv) or compiled "
    "batches (post_sends/post_recvs), not both"
)


def _check_tag(tag: int) -> None:
    """Matcher keys pack the tag into the low TAG_BITS bits."""
    if tag < 0:
        raise MPIError(f"tags must be non-negative, got {tag}")
    if tag >= TAG_LIMIT:
        raise MPIError(
            f"tag {tag} is out of range: simulated MPI tags must be "
            f"below TAG_LIMIT = 2**{TAG_BITS} ({TAG_LIMIT})"
        )


class World:
    """All ranks of one simulation run, placed onto machine nodes.

    Parameters
    ----------
    sim:
        The discrete-event simulator.
    machine:
        Machine description; its network is instantiated here.
    num_ranks:
        Number of world ranks.
    placement:
        Optional mapping rank -> mesh node id (default: identity).  The
        pipeline places each task's ranks on a contiguous block of nodes,
        mirroring the paper's task-to-partition mapping.
    contention:
        Passed to :meth:`Machine.build_network`.
    eager_threshold:
        Messages of at most this many bytes complete their send request at
        posting time (buffered eager protocol).
    backend:
        Simulator backend: an :class:`~repro.des.backends.EngineBackend`
        instance, a backend name, or None to match the simulator's own
        backend (a plain :class:`Simulator` keeps the reference network
        and matcher, so existing call sites are unchanged).
    """

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        num_ranks: int,
        placement: Optional[Sequence[int]] = None,
        contention="endpoint",
        eager_threshold: int = 16 * 1024,
        backend=None,
    ):
        from repro.des.backends import EngineBackend, get_backend

        if num_ranks < 1:
            raise MPIError(f"world needs at least 1 rank, got {num_ranks}")
        machine.check_node_budget(num_ranks if placement is None else max(placement) + 1)
        self.sim = sim
        self.machine = machine
        if not isinstance(backend, EngineBackend):
            backend = get_backend(backend if backend is not None else sim.backend)
        self.backend = backend.name
        #: Lowered per-run tables (None on the reference backend).
        self.engine_plan = backend.build_plan(
            machine.mesh, machine.network_cost, contention
        )
        self.network: Network = backend.create_network(
            sim, machine.mesh, machine.network_cost, contention, self.engine_plan
        )
        self.num_ranks = num_ranks
        if placement is None:
            placement = list(range(num_ranks))
        if len(placement) != num_ranks:
            raise MPIError(
                f"placement has {len(placement)} entries for {num_ranks} ranks"
            )
        self.placement = list(placement)
        self.eager_threshold = int(eager_threshold)
        self._context_counter = itertools.count()
        # Matching state: unmatched sends and receives in exact-key FIFO
        # queues.  The key packs (context, dest, source, tag) into one
        # integer — one int hash per matcher probe:
        #   ((context_id * num_ranks + dst_world) * num_ranks + src_world)
        #       << TAG_BITS | tag
        self._sends_exact: dict = {}
        self._recvs_exact: dict = {}
        #: Whether this world's batches run compiled (decided at the first
        #: batch; see :meth:`batch`).
        self._compiled = False
        #: Matching-probe counter: queue entries examined while matching
        #: (one per matched message on the exact-key FIFO).
        self.match_probes = 0
        #: Point-to-point operations posted (sends, receives).
        self.sends_posted = 0
        self.recvs_posted = 0
        #: Optional :class:`~repro.obs.TraceSink` recording per-message
        #: post -> match -> complete lifecycles.  Attached by the pipeline;
        #: when None (the default) the matcher pays one ``is None`` check
        #: per send and nothing else.
        self.obs = None
        #: World communicator spanning every rank.
        self.comm = Communicator(self, list(range(num_ranks)))

    # -- rank spawning -----------------------------------------------------------
    def spawn(
        self,
        rank: int,
        program: Callable[["RankContext"], Generator],
        name="",
        comm: Optional["Communicator"] = None,
    ):
        """Run ``program(ctx)`` as the process for world rank ``rank``.

        ``comm`` binds the context to a sub-communicator (``ctx.rank``
        becomes the local rank there); default is the world communicator.
        """
        from repro.mpi.context import RankContext

        ctx = RankContext(self, comm or self.comm, rank)
        return self.sim.process(program(ctx), name=name or f"rank{rank}")

    def spawn_all(self, program: Callable[["RankContext"], Generator]):
        """Spawn ``program`` on every world rank; returns the processes."""
        return [self.spawn(r, program) for r in range(self.num_ranks)]

    def node_of(self, world_rank: int) -> int:
        """Mesh node hosting ``world_rank``."""
        return self.placement[world_rank]

    # -- matching core -------------------------------------------------------------
    def key_base(self, context_id: int, dst_world: int, src_world: int) -> int:
        """Matcher key of a (context, dest, source) channel, tag bits zero."""
        ranks = self.num_ranks
        return ((context_id * ranks + dst_world) * ranks + src_world) << TAG_BITS

    def _post_send(
        self,
        context_id: int,
        src_world: int,
        dst_world: int,
        tag: int,
        payload: Any,
        nbytes: int,
    ) -> SendRequest:
        if self._compiled:
            raise MPIError(_MIXED)
        sim = self.sim
        request = SendRequest(sim, dest=dst_world, tag=tag, nbytes=nbytes)
        message = Message(
            source=src_world, tag=tag, payload=payload, nbytes=nbytes, sent_at=sim._now
        )
        record = None
        if self.obs is not None:
            record = self.obs.new_message(src_world, dst_world, tag, nbytes, sim.now)
        self.sends_posted += 1
        ranks = self.num_ranks
        key = (((context_id * ranks + dst_world) * ranks + src_world) << TAG_BITS) | tag
        # Emptied queues are left in their dicts (falsy, so the guards
        # still work) — steady-state traffic reuses the same keys.
        recv_queue = self._recvs_exact.get(key)
        if recv_queue:
            self.match_probes += 1
            self._start_transfer(request, message, record, recv_queue.popleft())
            return request
        queue = self._sends_exact.get(key)
        if queue is None:
            queue = self._sends_exact[key] = deque()
        queue.append((request, message, record))
        if nbytes <= self.eager_threshold:
            # Eager protocol: the message is buffered by the transport; the
            # sender's buffer is immediately reusable.  (Inlined
            # Event.succeed(None): same writes, same schedule.)
            request._ok = True
            request._state = TRIGGERED
            sim._seq += 1
            heappush(sim._queue, (sim._now, 1, sim._seq, request))
        return request

    def _post_recv(
        self, context_id: int, dst_world: int, src_world: int, tag: int
    ) -> RecvRequest:
        if self._compiled:
            raise MPIError(_MIXED)
        request = RecvRequest(self.sim, source=src_world, tag=tag)
        self.recvs_posted += 1
        ranks = self.num_ranks
        key = (((context_id * ranks + dst_world) * ranks + src_world) << TAG_BITS) | tag
        queue = self._sends_exact.get(key)
        if queue:
            self.match_probes += 1
            self._start_transfer(*queue.popleft(), request)
            return request
        recv_queue = self._recvs_exact.get(key)
        if recv_queue is None:
            recv_queue = self._recvs_exact[key] = deque()
        recv_queue.append(request)
        return request

    def _start_transfer(self, request, message, record, recv_req) -> None:
        if record is not None:
            record.t_recv_post = recv_req.posted_at
            record.t_match = self.sim.now
        placement = self.placement
        done = self.network.transfer(
            placement[message.source], placement[request.dest], message.nbytes
        )

        def _deliver(_event):
            now = self.sim.now
            message.delivered_at = now
            if record is not None:
                record.t_complete = now
            if recv_req.comm is not None:
                # Translate world source rank to the receiver's local rank.
                message.source = recv_req.comm._local_of_world.get(
                    message.source, message.source
                )
            if not request.triggered:  # eager sends completed early
                request.succeed(None)
            recv_req.succeed(message)

        done.callbacks.append(_deliver)

    # -- compiled batches ------------------------------------------------------------
    def batch(self):
        """An empty batch for one iteration's sends or receives.

        A compiled :class:`~repro.des.backends.lowered.Batch` on a lowered
        network with no trace sink attached; otherwise a plain list the
        Request path fills (the reference oracle).
        """
        network = self.network
        if not (network._compiled and self.obs is None and network.obs is None):
            return []
        if not self._compiled:
            if self.sends_posted or self.recvs_posted:
                raise MPIError(_MIXED)
            self._compiled = True
        return Batch(self.sim)

    def post_recv_batch(self, batch: Batch, channels, tag: int) -> None:
        """Post compiled receives, channels ``(source, key base)``."""
        _check_tag(tag)
        count = len(channels)
        slot = batch.size
        batch.size += count
        batch.pending += count
        batch.payloads.extend([None] * count)
        self.recvs_posted += count
        sends = self._sends_exact
        recvs = self._recvs_exact
        start = self.network.transfer_batched
        for _source, key in channels:
            key |= tag
            queue = sends.get(key)
            if queue:
                self.match_probes += 1
                send, transfer, payload = queue.popleft()
                start(transfer, send, payload, batch, slot)
            else:
                queue = recvs.get(key)
                if queue is None:
                    queue = recvs[key] = deque()
                queue.append((batch, slot))
            slot += 1

    def post_send_batch(self, batch: Batch, channels, tag: int, payloads) -> None:
        """Post compiled sends, channels ``(dest, nbytes, key base,
        transfer plan)``, one payload each."""
        _check_tag(tag)
        count = len(channels)
        batch.size += count
        batch.pending += count
        self.sends_posted += count
        sim = self.sim
        eager = self.eager_threshold
        sends = self._sends_exact
        recvs = self._recvs_exact
        start = self.network.transfer_batched
        for (_dest, nbytes, key, transfer), payload in zip(channels, payloads, strict=True):
            if payload is not None and isinstance(payload, np.ndarray):
                payload = payload.copy()  # as isend: MPI owns the buffer
            key |= tag
            queue = recvs.get(key)
            if queue:
                self.match_probes += 1
                recv, slot = queue.popleft()
                start(transfer, batch, payload, recv, slot)
                continue
            queue = sends.get(key)
            if queue is None:
                queue = sends[key] = deque()
            if nbytes <= eager:
                # Eager: the completion is pushed now, not at delivery.
                queue.append((None, transfer, payload))
                sim._seq += 1
                heappush(sim._queue, (sim._now, 1, sim._seq, batch))
            else:
                queue.append((batch, transfer, payload))

    # -- diagnostics ----------------------------------------------------------------
    def outstanding_operations(self) -> int:
        """Unmatched sends + receives across all contexts (0 at a clean end)."""
        return sum(len(q) for q in self._sends_exact.values()) + sum(
            len(q) for q in self._recvs_exact.values()
        )


class Communicator:
    """A rank subset with its own isolated matching context.

    All rank arguments to communicator methods are *local* ranks within the
    communicator, as in MPI.
    """

    def __init__(self, world: World, world_ranks: Sequence[int]):
        if len(set(world_ranks)) != len(world_ranks):
            raise MPIError("communicator rank list contains duplicates")
        for r in world_ranks:
            if not (0 <= r < world.num_ranks):
                raise MPIError(f"world rank {r} out of range")
        self.world = world
        self.world_ranks = list(world_ranks)
        self._local_of_world = {w: l for l, w in enumerate(self.world_ranks)}
        self.context_id = next(world._context_counter)

    # -- shape ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.world_ranks)

    def local_rank_of(self, world_rank: int) -> int:
        """Local rank of a world rank (raises if not a member)."""
        try:
            return self._local_of_world[world_rank]
        except KeyError:
            raise MPIError(
                f"world rank {world_rank} not in communicator {self.context_id}"
            ) from None

    def world_rank_of(self, local_rank: int) -> int:
        """World rank of a local rank."""
        if not (0 <= local_rank < self.size):
            raise MPIError(f"local rank {local_rank} out of range (size={self.size})")
        return self.world_ranks[local_rank]

    def create_comm(self, local_ranks: Sequence[int]) -> "Communicator":
        """Sub-communicator from local ranks of this one (``MPI_Comm_create``)."""
        return Communicator(self.world, [self.world_rank_of(r) for r in local_ranks])

    # -- point to point -------------------------------------------------------------
    def isend(
        self,
        payload: Any,
        dest: int,
        tag: int = 0,
        nbytes: Optional[int] = None,
        src: Optional[int] = None,
    ) -> SendRequest:
        """Post a non-blocking send from ``src`` (local) to ``dest`` (local).

        ``src`` identifies the sending rank; rank programs normally call the
        bound helpers on :class:`~repro.mpi.context.RankContext` which fill
        it in automatically.
        """
        if src is None:
            raise MPIError("isend needs the sending rank (use RankContext.isend)")
        _check_tag(tag)
        if nbytes is None:
            nbytes = payload_nbytes(payload)
        if payload is not None and isinstance(payload, np.ndarray):
            # MPI owns the buffer for the duration of the send; emulate by
            # copying so that sender-side mutation cannot race the transfer.
            # Modeled mode passes payload=None with an explicit nbytes and
            # never pays for a copy.
            payload = payload.copy()
        # Rank translation inlined (two method calls per send add up at
        # ~10^5 sends per run).
        ranks = self.world_ranks
        size = len(ranks)
        if not (0 <= src < size):
            raise MPIError(f"local rank {src} out of range (size={size})")
        if not (0 <= dest < size):
            raise MPIError(f"local rank {dest} out of range (size={size})")
        return self.world._post_send(
            self.context_id, ranks[src], ranks[dest], tag, payload, int(nbytes)
        )

    def irecv(self, source: int, tag: int, dst: Optional[int] = None) -> RecvRequest:
        """Post a non-blocking receive at ``dst`` (local rank) from local
        rank ``source`` with ``tag``."""
        if dst is None:
            raise MPIError("irecv needs the receiving rank (use RankContext.irecv)")
        _check_tag(tag)
        ranks = self.world_ranks
        size = len(ranks)
        if not (0 <= source < size):
            raise MPIError(f"local rank {source} out of range (size={size})")
        if not (0 <= dst < size):
            raise MPIError(f"local rank {dst} out of range (size={size})")
        request = self.world._post_recv(self.context_id, ranks[dst], ranks[source], tag)
        request.comm = self
        return request
