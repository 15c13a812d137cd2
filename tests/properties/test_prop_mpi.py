"""Property-based tests of SimMPI matching: arbitrary traffic patterns
always deliver every message exactly once, in per-(source, tag) order."""

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.des import Simulator
from repro.machine import afrl_paragon
from repro.mpi import World


@st.composite
def traffic_patterns(draw):
    """A random multiset of (src, dst, tag) messages among a few ranks."""
    num_ranks = draw(st.integers(min_value=2, max_value=5))
    messages = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_ranks - 1),  # src
                st.integers(min_value=0, max_value=num_ranks - 1),  # dst
                st.integers(min_value=0, max_value=3),  # tag
            ).filter(lambda m: m[0] != m[1]),
            min_size=1,
            max_size=25,
        )
    )
    return num_ranks, messages


class TestDeliveryProperties:
    @given(traffic_patterns())
    @settings(max_examples=80, deadline=None)
    def test_every_message_delivered_exactly_once(self, pattern):
        num_ranks, messages = pattern
        sends_by_rank = defaultdict(list)
        expected_by_dst = defaultdict(list)
        for seq, (src, dst, tag) in enumerate(messages):
            sends_by_rank[src].append((dst, tag, seq))
            expected_by_dst[dst].append((src, tag, seq))

        sim = Simulator()
        world = World(sim, afrl_paragon(), num_ranks=num_ranks, contention="none")
        received = defaultdict(list)

        def program(ctx):
            requests = []
            for dst, tag, seq in sends_by_rank.get(ctx.rank, []):
                requests.append(ctx.isend(seq, dest=dst, tag=tag, nbytes=64))
            for src, tag, _seq in expected_by_dst.get(ctx.rank, []):
                msg = yield ctx.irecv(source=src, tag=tag)
                received[ctx.rank].append((msg.source, msg.tag, msg.payload))
            if requests:
                yield ctx.wait_all(requests)

        world.spawn_all(program)
        sim.run()

        # Exactly-once delivery: payload seq numbers form the exact multiset.
        got = sorted(seq for msgs in received.values() for (_s, _t, seq) in msgs)
        assert got == sorted(range(len(messages)))
        assert world.outstanding_operations() == 0

    @given(traffic_patterns())
    @settings(max_examples=60, deadline=None)
    def test_non_overtaking_per_source_tag(self, pattern):
        num_ranks, messages = pattern
        sends_by_rank = defaultdict(list)
        expected_by_dst = defaultdict(list)
        for seq, (src, dst, tag) in enumerate(messages):
            sends_by_rank[src].append((dst, tag, seq))
            expected_by_dst[dst].append((src, tag, seq))

        sim = Simulator()
        world = World(sim, afrl_paragon(), num_ranks=num_ranks, contention="none")
        received = defaultdict(list)

        def program(ctx):
            requests = [
                ctx.isend(seq, dest=dst, tag=tag, nbytes=64)
                for dst, tag, seq in sends_by_rank.get(ctx.rank, [])
            ]
            for src, tag, _seq in expected_by_dst.get(ctx.rank, []):
                msg = yield ctx.irecv(source=src, tag=tag)
                received[ctx.rank].append((msg.source, msg.tag, msg.payload))
            if requests:
                yield ctx.wait_all(requests)

        world.spawn_all(program)
        sim.run()

        # Within one (dst, source, tag) channel, seq numbers arrive in
        # posting order (MPI's non-overtaking guarantee).
        for dst, msgs in received.items():
            per_channel = defaultdict(list)
            for source, tag, seq in msgs:
                per_channel[(source, tag)].append(seq)
            for seqs in per_channel.values():
                assert seqs == sorted(seqs)
