"""Collective operations built from point-to-point messages.

These are generator functions used with ``yield from`` inside rank
programs::

    value = yield from collectives.bcast(ctx, value, root=0)

All collectives use binomial trees (bcast/reduce) or direct exchange
(alltoall), the standard portable-MPI constructions; their cost therefore
emerges from the machine model rather than being asserted analytically.

Tags: collectives reserve the tag space above :data:`COLLECTIVE_TAG_BASE`;
point-to-point user traffic should stay below it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.errors import MPIError
from repro.mpi.context import RankContext

#: First tag reserved for collective traffic.
COLLECTIVE_TAG_BASE = 1 << 20

_TAG_BARRIER_UP = COLLECTIVE_TAG_BASE + 1
_TAG_BARRIER_DOWN = COLLECTIVE_TAG_BASE + 2
_TAG_BCAST = COLLECTIVE_TAG_BASE + 3
_TAG_GATHER = COLLECTIVE_TAG_BASE + 4
_TAG_SCATTER = COLLECTIVE_TAG_BASE + 5
_TAG_REDUCE = COLLECTIVE_TAG_BASE + 6
_TAG_ALLTOALL = COLLECTIVE_TAG_BASE + 7


def _check_root(ctx: RankContext, root: int) -> None:
    if not (0 <= root < ctx.comm.size):
        raise MPIError(f"root {root} out of range for communicator size {ctx.comm.size}")


def _relative(rank: int, root: int, size: int) -> int:
    return (rank - root) % size


def _absolute(rel: int, root: int, size: int) -> int:
    return (rel + root) % size


def barrier(ctx: RankContext):
    """Synchronize all ranks (gather-up + broadcast-down on a binomial tree)."""
    yield from reduce(ctx, 0, op=lambda a, b: 0, root=0, tag=_TAG_BARRIER_UP)
    yield from bcast(ctx, None, root=0, tag=_TAG_BARRIER_DOWN)


def bcast(
    ctx: RankContext,
    value: Any,
    root: int = 0,
    nbytes: Optional[int] = None,
    tag: int = _TAG_BCAST,
):
    """Broadcast ``value`` from ``root``; returns the value on every rank."""
    _check_root(ctx, root)
    size = ctx.comm.size
    if size == 1:
        return value
    rel = _relative(ctx.rank, root, size)
    # Receive from parent (highest set bit), then forward to children.
    if rel != 0:
        mask = 1
        while mask <= rel:
            mask <<= 1
        mask >>= 1
        parent = _absolute(rel & ~mask, root, size)
        message = yield ctx.irecv(source=parent, tag=tag)
        value = message.payload
        nbytes = message.nbytes
    # Standard binomial forwarding: children are rel + 2^k for 2^k > rel.
    sends = []
    mask = 1
    while mask < size:
        if rel < mask and rel + mask < size:
            child = _absolute(rel + mask, root, size)
            sends.append(ctx.isend(value, dest=child, tag=tag, nbytes=nbytes))
        mask <<= 1
    if sends:
        yield ctx.wait_all(sends)
    return value


def gather(
    ctx: RankContext,
    value: Any,
    root: int = 0,
    nbytes: Optional[int] = None,
    tag: int = _TAG_GATHER,
):
    """Gather one value per rank to ``root`` (list in rank order) else None."""
    _check_root(ctx, root)
    size = ctx.comm.size
    if ctx.rank == root:
        values: list[Any] = [None] * size
        values[root] = value
        # One exact-source receive per rank (SimMPI matches exact keys only).
        recvs = [(src, ctx.irecv(source=src, tag=tag)) for src in range(size) if src != root]
        for src, request in recvs:
            message = yield request
            values[src] = message.payload
        return values
    yield ctx.isend(value, dest=root, tag=tag, nbytes=nbytes)
    return None


def scatter(
    ctx: RankContext,
    values: Optional[Sequence[Any]],
    root: int = 0,
    nbytes_each: Optional[int] = None,
    tag: int = _TAG_SCATTER,
):
    """Scatter ``values[i]`` to rank ``i`` from ``root``; returns own item."""
    _check_root(ctx, root)
    size = ctx.comm.size
    if ctx.rank == root:
        if values is None or len(values) != size:
            raise MPIError(f"scatter root needs exactly {size} values")
        sends = [
            ctx.isend(values[dest], dest=dest, tag=tag, nbytes=nbytes_each)
            for dest in range(size)
            if dest != root
        ]
        if sends:
            yield ctx.wait_all(sends)
        return values[root]
    message = yield ctx.irecv(source=root, tag=tag)
    return message.payload


def reduce(
    ctx: RankContext,
    value: Any,
    op: Callable[[Any, Any], Any],
    root: int = 0,
    nbytes: Optional[int] = None,
    tag: int = _TAG_REDUCE,
):
    """Reduce values to ``root`` with binary ``op`` on a binomial tree.

    ``op`` must be associative; like MPI, commutativity is assumed.
    Returns the reduction at root, None elsewhere.
    """
    _check_root(ctx, root)
    size = ctx.comm.size
    rel = _relative(ctx.rank, root, size)
    accum = value
    mask = 1
    while mask < size:
        if rel & mask:
            parent = _absolute(rel & ~mask, root, size)
            yield ctx.isend(accum, dest=parent, tag=tag, nbytes=nbytes)
            return None
        partner = rel | mask
        if partner < size:
            message = yield ctx.irecv(source=_absolute(partner, root, size), tag=tag)
            accum = op(accum, message.payload)
        mask <<= 1
    return accum


def allreduce(
    ctx: RankContext,
    value: Any,
    op: Callable[[Any, Any], Any],
    nbytes: Optional[int] = None,
):
    """Reduce then broadcast; returns the reduction on every rank."""
    result = yield from reduce(ctx, value, op=op, root=0, nbytes=nbytes)
    result = yield from bcast(ctx, result, root=0, nbytes=nbytes)
    return result


def alltoall(
    ctx: RankContext,
    values: Sequence[Any],
    nbytes_each: Optional[int] = None,
    tag: int = _TAG_ALLTOALL,
):
    """Personalized all-to-all: rank i's ``values[j]`` goes to rank j.

    Returns the list indexed by source rank.  This is the communication
    pattern of the paper's inter-task redistribution (Section 5.2: "an
    all-to-all personalized communication scheme is required").
    """
    size = ctx.comm.size
    if len(values) != size:
        raise MPIError(f"alltoall needs exactly {size} values, got {len(values)}")
    recvs = [ctx.irecv(source=src, tag=tag) for src in range(size) if src != ctx.rank]
    sends = [
        ctx.isend(values[dest], dest=dest, tag=tag, nbytes=nbytes_each)
        for dest in range(size)
        if dest != ctx.rank
    ]
    result: list[Any] = [None] * size
    result[ctx.rank] = values[ctx.rank]
    for request in recvs:
        message = yield request
        result[message.source] = message.payload
    if sends:
        yield ctx.wait_all(sends)
    return result


def alltoallv(
    ctx: RankContext,
    sends: dict[int, tuple[Any, int]],
    sources: Sequence[int],
    tag: int = _TAG_ALLTOALL,
):
    """Sparse personalized exchange.

    ``sends`` maps destination local rank -> (payload, nbytes); ``sources``
    lists the local ranks a message is expected *from*.  Returns a dict
    source rank -> payload.  Unlike dense alltoall, only the listed pairs
    communicate — matching how the pipeline's redistribution plans drive
    communication.
    """
    recv_reqs = {src: ctx.irecv(source=src, tag=tag) for src in sources}
    send_reqs = [
        ctx.isend(payload, dest=dest, tag=tag, nbytes=nbytes)
        for dest, (payload, nbytes) in sorted(sends.items())
    ]
    received: dict[int, Any] = {}
    for src, request in recv_reqs.items():
        message = yield request
        received[src] = message.payload
    if send_reqs:
        yield ctx.wait_all(send_reqs)
    return received
