"""SimMPI point-to-point: exact-key matching, ordering, timing, batches."""

import numpy as np
import pytest

from repro.des import Simulator
from repro.des.backends import BACKEND_NAMES, TAG_LIMIT, get_backend
from repro.errors import MPIError
from repro.machine import afrl_paragon
from repro.mpi import World


def run_world(num_ranks, program, contention="none"):
    sim = Simulator()
    world = World(sim, afrl_paragon(), num_ranks=num_ranks, contention=contention)
    world.spawn_all(program)
    sim.run()
    return sim, world


class TestBasicSendRecv:
    def test_payload_delivered(self):
        received = {}

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.isend({"k": 1}, dest=1, tag=7)
            else:
                msg = yield ctx.irecv(source=0, tag=7)
                received["msg"] = msg

        run_world(2, program)
        assert received["msg"].payload == {"k": 1}
        assert received["msg"].source == 0
        assert received["msg"].tag == 7

    def test_array_payload_copied_at_send(self):
        received = {}

        def program(ctx):
            if ctx.rank == 0:
                data = np.arange(10)
                req = ctx.isend(data, dest=1, tag=0)
                data[:] = -1  # mutate after posting; receiver must not see it
                yield req
            else:
                msg = yield ctx.irecv(source=0, tag=0)
                received["data"] = msg.payload

        run_world(2, program)
        assert np.array_equal(received["data"], np.arange(10))

    def test_transfer_takes_time(self):
        times = {}

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.isend(None, dest=1, tag=0, nbytes=10_000)
            else:
                t0 = ctx.wtime()
                yield ctx.irecv(source=0, tag=0)
                times["elapsed"] = ctx.wtime() - t0

        run_world(2, program)
        cost = afrl_paragon().network_cost
        assert times["elapsed"] >= cost.startup_s + 10_000 * cost.per_byte_s

    def test_recv_waits_for_late_sender(self):
        times = {}

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.elapse(1.0)
                yield ctx.isend("late", dest=1, tag=0)
            else:
                msg = yield ctx.irecv(source=0, tag=0)
                times["recv_done"] = ctx.wtime()
                assert msg.payload == "late"

        run_world(2, program)
        assert times["recv_done"] >= 1.0


class TestMatching:
    def test_tag_selects_message(self):
        order = []

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.isend("tagA", dest=1, tag=1)
                yield ctx.isend("tagB", dest=1, tag=2)
            else:
                msg_b = yield ctx.irecv(source=0, tag=2)
                msg_a = yield ctx.irecv(source=0, tag=1)
                order.extend([msg_b.payload, msg_a.payload])

        run_world(2, program)
        assert order == ["tagB", "tagA"]

    def test_non_overtaking_same_source_tag(self):
        got = []

        def program(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    yield ctx.isend(i, dest=1, tag=3)
            else:
                for _ in range(5):
                    msg = yield ctx.irecv(source=0, tag=3)
                    got.append(msg.payload)

        run_world(2, program)
        assert got == [0, 1, 2, 3, 4]

    def test_negative_tag_rejected(self):
        def program(ctx):
            if ctx.rank == 0:
                with pytest.raises(MPIError):
                    ctx.isend(None, dest=1, tag=-5)
            yield ctx.elapse(0.0)

        run_world(2, program)


class TestRequests:
    def test_wait_all(self):
        done = {}

        def program(ctx):
            if ctx.rank == 0:
                reqs = [ctx.isend(i, dest=1, tag=i) for i in range(4)]
                yield ctx.wait_all(reqs)
                done["sends"] = all(r.complete for r in reqs)
            else:
                reqs = [ctx.irecv(source=0, tag=i) for i in range(4)]
                yield ctx.wait_all(reqs)
                done["payloads"] = sorted(r.value.payload for r in reqs)

        run_world(2, program)
        assert done["sends"] is True
        assert done["payloads"] == [0, 1, 2, 3]

    def test_wait_any(self):
        first = {}

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.elapse(5.0)
                yield ctx.isend("slow", dest=2, tag=1)
            elif ctx.rank == 1:
                yield ctx.isend("fast", dest=2, tag=2)
            else:
                slow = ctx.irecv(source=0, tag=1)
                fast = ctx.irecv(source=1, tag=2)
                yield ctx.wait_any([slow, fast])
                first["fast_done"] = fast.complete
                first["slow_done"] = slow.complete
                yield slow

        run_world(3, program)
        assert first["fast_done"] is True
        assert first["slow_done"] is False

    def test_blocking_helpers(self):
        got = {}

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send("hello", dest=1, tag=9)
            else:
                msg = yield from ctx.recv(source=0, tag=9)
                got["payload"] = msg.payload

        run_world(2, program)
        assert got["payload"] == "hello"


class TestWorldValidation:
    def test_zero_ranks_rejected(self):
        sim = Simulator()
        with pytest.raises(MPIError):
            World(sim, afrl_paragon(), num_ranks=0)

    def test_bad_placement_length_rejected(self):
        sim = Simulator()
        with pytest.raises(MPIError):
            World(sim, afrl_paragon(), num_ranks=4, placement=[0, 1])

    def test_outstanding_zero_after_clean_run(self):
        def program(ctx):
            peer = 1 - ctx.rank
            send = ctx.isend(ctx.rank, dest=peer, tag=0)
            yield ctx.irecv(source=peer, tag=0)
            yield send

        _sim, world = run_world(2, program)
        assert world.outstanding_operations() == 0

    def test_unmatched_recv_deadlocks(self):
        from repro.errors import DeadlockError

        def program(ctx):
            if ctx.rank == 1:
                yield ctx.irecv(source=0, tag=0)  # never sent

        sim = Simulator()
        world = World(sim, afrl_paragon(), num_ranks=2)
        world.spawn_all(program)
        with pytest.raises(DeadlockError):
            sim.run()


class TestTagBound:
    """Matcher keys pack the tag into TAG_BITS on every engine, so the
    bound is one rule for both: tags below TAG_LIMIT work, larger ones
    are a named error at posting time."""

    @staticmethod
    def _world(backend):
        engine = get_backend(backend)
        sim = engine.create_simulator()
        return sim, World(sim, afrl_paragon(), num_ranks=2, backend=engine)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_tag_at_the_limit_is_rejected(self, backend):
        _sim, world = self._world(backend)
        with pytest.raises(MPIError, match=f"below TAG_LIMIT .*{TAG_LIMIT}"):
            world.comm.isend(None, dest=1, tag=TAG_LIMIT, nbytes=8, src=0)
        with pytest.raises(MPIError, match=f"below TAG_LIMIT .*{TAG_LIMIT}"):
            world.comm.irecv(source=0, tag=TAG_LIMIT, dst=1)
        assert world.outstanding_operations() == 0

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_largest_tag_round_trips(self, backend):
        tag = TAG_LIMIT - 1
        got = {}

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.wait_all([
                    ctx.isend("first", dest=1, tag=tag),
                    ctx.isend("second", dest=1, tag=tag),
                ])
            else:
                got["first"] = yield ctx.irecv(source=0, tag=tag)
                got["second"] = yield ctx.irecv(source=0, tag=tag)

        sim, world = self._world(backend)
        world.spawn_all(program)
        sim.run()
        assert (got["first"].payload, got["first"].tag) == ("first", tag)
        assert (got["second"].payload, got["second"].source, got["second"].tag) == (
            "second", 0, tag
        )
        assert world.outstanding_operations() == 0

    def test_reserved_collective_tags_fit(self):
        from repro.mpi import collectives

        reserved = [
            value for name, value in vars(collectives).items()
            if name.startswith("_TAG_") or name == "COLLECTIVE_TAG_BASE"
        ]
        assert len(reserved) == 8
        assert max(reserved) < TAG_LIMIT

    def test_negative_receive_tag_rejected(self):
        # -1 used to be the ANY_TAG wildcard; receives now name a tag.
        _sim, world = self._world("python")
        with pytest.raises(MPIError, match="non-negative"):
            world.comm.irecv(source=0, tag=-1, dst=1)
