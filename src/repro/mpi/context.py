"""RankContext: what a rank program sees.

A rank program is a generator function ``program(ctx)``.  The context binds
the rank's identity to the communicator (so ``ctx.isend`` / ``ctx.irecv``
need no explicit src/dst), posts whole batches of exact-key traffic
(``ctx.post_sends`` / ``ctx.post_recvs`` over channels compiled once per
run), and exposes the machine model's local costs:

``ctx.compute(kernel, flops)``
    charge compute time on this rank's node;
``ctx.copy(nbytes, strided=...)``
    charge a pack/unpack (data collection / reorganization) pass;
``ctx.wtime()``
    the virtual clock — the simulated ``MPI_Wtime()`` of Figure 10.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.des.event import Event
from repro.errors import MachineError
from repro.mpi.request import SendRequest, RecvRequest, wait_all, wait_any


class RankContext:
    """Identity + services for one rank inside one communicator."""

    def __init__(self, world, comm, world_rank: int):
        self.world = world
        self.comm = comm
        self.world_rank = world_rank
        #: Local rank within ``comm``.
        self.rank = comm.local_rank_of(world_rank)
        #: Mesh node hosting this rank.
        self.node = world.node_of(world_rank)
        self.sim = world.sim
        self.machine = world.machine
        # Hot-path bindings: compute/copy charges happen several times per
        # rank per CPI, so resolve the cost callables once.  On a
        # heterogeneous machine this rank's compute is dilated by its
        # node's speed factor; factor-1.0 nodes keep the node model's own
        # bound method, so homogeneous runs stay bit-identical.
        compute_time = world.machine.node.compute_time
        speed = world.machine.node_speed(self.node)
        if speed != 1.0:
            def compute_time(kernel, flops, _base=compute_time, _speed=speed):
                return _base(kernel, flops) / _speed
        self._compute_time = compute_time
        self._copy_time = world.machine.packing_cost.copy_time
        self._pooled_timeout = world.sim.pooled_timeout
        self._compute_names: dict = {}

    # -- communication -----------------------------------------------------
    def isend(
        self, payload: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None
    ) -> SendRequest:
        """Non-blocking send to local rank ``dest`` of this context's comm."""
        return self.comm.isend(payload, dest=dest, tag=tag, nbytes=nbytes, src=self.rank)

    def irecv(self, source: int, tag: int) -> RecvRequest:
        """Non-blocking receive at this rank."""
        return self.comm.irecv(source=source, tag=tag, dst=self.rank)

    def send(self, payload: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None):
        """Blocking send (a generator — use ``yield from ctx.send(...)``)."""
        yield self.isend(payload, dest=dest, tag=tag, nbytes=nbytes)

    def recv(self, source: int, tag: int):
        """Blocking receive returning the message (``yield from``)."""
        message = yield self.irecv(source=source, tag=tag)
        return message

    def wait_all(self, requests: Sequence) -> Event:
        """Event firing when all ``requests`` complete."""
        return wait_all(self.sim, requests)

    def wait_any(self, requests: Sequence) -> Event:
        """Event firing when any of ``requests`` completes."""
        return wait_any(self.sim, requests)

    # -- batches: one iteration's traffic, compiled channels ----------------
    # A program posts an iteration's sends (or receives) into one batch
    # and waits on it once.  On the lowered engine without a trace sink
    # the batch is a compiled group (no Request per message); otherwise it
    # is a list of Requests waited on with an AllOf — the reference
    # oracle.  Both schedule identically.
    def recv_channels(self, sources: Sequence[int]) -> list:
        """Compile receives from local ranks ``sources`` (once per run)."""
        comm = self.comm
        key_base = self.world.key_base
        return [
            (source, key_base(comm.context_id, self.world_rank,
                              comm.world_rank_of(source)))
            for source in sources
        ]

    def send_channels(self, messages: Sequence[tuple[int, int]]) -> list:
        """Compile sends from ``(dest local rank, nbytes)`` pairs."""
        comm = self.comm
        world = self.world
        network = world.network
        channels = []
        for dest, nbytes in messages:
            if nbytes < 0:
                raise MachineError(f"negative message size: {nbytes}")
            dst_world = comm.world_rank_of(dest)
            key = world.key_base(comm.context_id, dst_world, self.world_rank)
            transfer = None
            if network._compiled:
                transfer = network.transfer_plan(
                    self.node, world.node_of(dst_world), int(nbytes)
                )
            channels.append((dest, int(nbytes), key, transfer))
        return channels

    def batch(self):
        """An empty batch for one iteration's sends or receives."""
        return self.world.batch()

    def post_recvs(self, batch, channels: list, tag: int) -> None:
        """Post receives with ``tag`` on compiled ``channels`` into ``batch``."""
        if batch.__class__ is list:
            irecv = self.irecv
            batch.extend(irecv(source, tag) for source, _key in channels)
        else:
            self.world.post_recv_batch(batch, channels, tag)

    def post_sends(self, batch, channels: list, tag: int, payloads: Sequence) -> None:
        """Post one send per compiled channel, with ``payloads`` in order
        (a count mismatch is a ``ValueError``)."""
        if batch.__class__ is list:
            isend = self.isend
            batch.extend(
                isend(payload, dest=dest, tag=tag, nbytes=nbytes)
                for (dest, nbytes, _key, _plan), payload
                in zip(channels, payloads, strict=True)
            )
        else:
            self.world.post_send_batch(batch, channels, tag, payloads)

    def wait_batch(self, batch) -> Event:
        """Event firing once every message posted into ``batch`` completed."""
        if batch.__class__ is list:
            return self.wait_all(batch)
        return batch.wait()

    @staticmethod
    def batch_payloads(batch) -> list:
        """Received payloads of a completed receive batch, in posting order."""
        if batch.__class__ is list:
            return [request.value.payload for request in batch]
        return batch.payloads

    def on(self, comm) -> "RankContext":
        """This rank's context bound to another communicator it belongs to."""
        return RankContext(self.world, comm, self.world_rank)

    # -- local machine costs -------------------------------------------------
    # These return pool-recycled timeouts (pure delays): callers must yield
    # them immediately and not hold a reference past the wait.
    def compute(self, kernel: str, flops: float) -> Event:
        """Timeout covering ``flops`` of ``kernel`` on this node."""
        name = self._compute_names.get(kernel)
        if name is None:
            name = self._compute_names[kernel] = f"compute:{kernel}"
        return self._pooled_timeout(self._compute_time(kernel, flops), name=name)

    def elapse(self, seconds: float) -> Event:
        """Timeout for a directly-specified duration."""
        return self._pooled_timeout(seconds, name="elapse")

    def copy(self, nbytes: int, strided: bool = False) -> Event:
        """Timeout covering one pack/unpack pass over ``nbytes``."""
        return self._pooled_timeout(
            self._copy_time(nbytes, strided=strided), name="copy"
        )

    # -- timing -----------------------------------------------------------------
    def wtime(self) -> float:
        """Virtual wall clock (the simulated ``MPI_Wtime``)."""
        return self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RankContext rank={self.rank} world={self.world_rank} node={self.node}>"
