"""Backend registry, plan lowering, and cross-backend bit-identity.

The whole value of the lowered simulator core rests on one contract: it
changes *nothing* about the simulated behaviour — not one timestamp, not
one detection.  These tests pin that contract three ways:

* registry/resolution semantics (``auto`` resolution, the named error for
  stale ``compiled`` requests, SimPoint and CLI validation);
* :class:`~repro.des.backends.plan.EnginePlan` tables equal the reference
  cost model value-for-value (same IEEE-754 operations, no reassociation);
* golden Table 7 case 1 and hypothesis properties over randomized traffic
  patterns — per-message Requests and compiled batches — compared
  repr-exact across every backend in
  :data:`~repro.des.backends.BACKEND_NAMES` (a constant, so no engine
  can drop out of coverage on some host).

Cache-key coverage lives here too: results from different engine cores
must never be conflated by :mod:`repro.exec.cache`.
"""

from __future__ import annotations

import argparse
import math
import re
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Assignment,
    CPIStream,
    RadarScenario,
    STAPParams,
    STAPPipeline,
    TargetTruth,
)
from repro.core.assignment import CASE1, CASE3
from repro.des import Simulator
from repro.des.backends import (
    BACKEND_NAMES,
    ENGINE_SCHEMA,
    TAG_LIMIT,
    EngineBackend,
    EnginePlan,
    LoweredBackend,
    available_backends,
    compiled_available,
    get_backend,
    resolve_backend,
)
from repro.errors import ConfigurationError, MachineError, MPIError, SimulationError
from repro.exec.cache import CACHE_SCHEMA, cache_key, engine_fingerprint
from repro.exec.point import SimPoint
from repro.des.backends.lowered import Batch
from repro.machine import afrl_paragon
from repro.mpi import Communicator, RankContext, World
from repro.obs import TraceSink

pytestmark = pytest.mark.backends

#: Every engine except the reference one, each pinned against it.
FAST_BACKENDS = [name for name in BACKEND_NAMES if name != "python"]


# -- registry and resolution ---------------------------------------------------------
class TestResolution:
    def test_none_resolves_to_lowered(self):
        # The reference engine runs only when asked for by name.
        assert resolve_backend(None) == "lowered"
        assert get_backend(None).name == "lowered"
        assert get_backend("python").name == "python"

    def test_default_pipeline_runs_on_lowered(self):
        # Guard: every modeled caller that names no engine gets the fast one.
        result = STAPPipeline(
            STAPParams.small(), CASE3, num_cpis=2, perf=True
        ).run()
        assert result.perf.backend == "lowered"

    @pytest.mark.parametrize("flags, engine", [
        ([], "lowered"), (["--backend", "auto"], "lowered"),
        (["--backend", "python"], "python"),
    ])
    def test_cli_case_default_runs_on_lowered(self, flags, engine, capsys):
        from repro.cli import build_parser, main

        args = build_parser().parse_args(["case", *flags])
        assert resolve_backend(args.backend) == engine
        assert main(["case", "--name", "case3", "--cpis", "2", "--perf",
                     *flags]) == 0
        assert re.search(rf"engine backend\s+{engine}\b",
                         capsys.readouterr().out)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_concrete_names_resolve_to_themselves(self, name):
        assert resolve_backend(name) == name

    def test_unknown_name_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown simulator backend"):
            resolve_backend("fortran")

    def test_auto_falls_back_to_lowered_without_the_extension(self):
        # The C extension is gone, so this holds on every host.
        assert resolve_backend("auto") == "lowered"
        assert available_backends() == BACKEND_NAMES == ("python", "lowered")
        assert compiled_available() is False

    def test_explicit_compiled_errors_without_the_extension(self):
        # The C core is gone: a stale request is a named error that names
        # the value and lists the accepted names, never a silent fallback.
        accepted = r"\('python', 'lowered', 'auto'\)"
        with pytest.raises(ConfigurationError, match=rf"'compiled'.*{accepted}"):
            resolve_backend("compiled")
        with pytest.raises(ConfigurationError, match=rf"'compiled'.*{accepted}"):
            get_backend("compiled")
        with pytest.raises(ConfigurationError, match=rf"'compiled'.*{accepted}"):
            SimPoint(STAPParams.small(), CASE3, backend="compiled")

    def test_backend_classes_and_simulator_tags(self):
        assert isinstance(get_backend("python"), EngineBackend)
        assert isinstance(get_backend("lowered"), LoweredBackend)
        assert get_backend("python").create_simulator().backend == "python"
        assert get_backend("lowered").create_simulator().backend == "lowered"

    def test_simpoint_validates_backend_names(self):
        with pytest.raises(ConfigurationError, match="unknown simulator backend"):
            SimPoint(STAPParams.small(), CASE3, backend="fortran")

    def test_cli_and_simpoint_accept_exactly_the_engine_names(self):
        from repro.cli import build_parser

        expected = BACKEND_NAMES + ("auto",)

        def backend_choices(parser):
            for action in parser._actions:
                if "--backend" in action.option_strings:
                    yield tuple(action.choices)
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from backend_choices(sub)

        found = list(backend_choices(build_parser()))
        # case, tune, sweep and campaign run each take --backend.
        assert found == [expected] * 4

        accepted = []
        for name in expected + ("compiled", "fortran"):
            try:
                SimPoint(STAPParams.small(), CASE3, backend=name)
            except ConfigurationError:
                continue
            accepted.append(name)
        assert tuple(accepted) == expected


# -- EnginePlan tables ---------------------------------------------------------------
class TestEnginePlan:
    @pytest.fixture(scope="class")
    def machine(self):
        return afrl_paragon()

    @pytest.fixture(scope="class")
    def plan(self, machine):
        return EnginePlan.build(machine.mesh, machine.network_cost)

    def test_dimensions_and_port_numbering(self, plan, machine):
        n = machine.mesh.num_nodes
        assert plan.num_nodes == n
        assert plan.num_ports == 2 * n
        assert plan.hops.shape == plan.header_s.shape == (n, n)

    def test_hops_match_mesh_hop_distance(self, plan, machine):
        mesh = machine.mesh
        for src in range(mesh.num_nodes):
            for dst in range(mesh.num_nodes):
                assert plan.hops[src, dst] == mesh.hop_distance(src, dst)

    def test_header_latency_is_the_exact_reference_expression(self, plan, machine):
        # Bit-identity contract: one float64 multiply and one add per
        # element, exactly what Network._begin_transfer computes.
        cost = machine.network_cost
        for src in range(0, machine.mesh.num_nodes, 7):
            for dst in range(0, machine.mesh.num_nodes, 5):
                expected = cost.startup_s + cost.per_hop_s * float(
                    plan.hops[src, dst]
                )
                assert plan.header_s[src, dst] == expected

    def test_reference_backend_builds_no_plan(self, machine):
        backend = get_backend("python")
        assert backend.build_plan(
            machine.mesh, machine.network_cost, "endpoint"
        ) is None

    def test_build_plan_stamps_build_seconds(self, machine):
        plan = get_backend("lowered").build_plan(
            machine.mesh, machine.network_cost, "endpoint"
        )
        assert plan.build_seconds > 0.0


# -- what the lowered engine does not serve ------------------------------------------
class TestLoweredEngineScope:
    """While a lowered network is bound, the lowered engine only drains to
    completion; everything else is a named error pointing at ``python``."""

    @staticmethod
    def _world(contention="endpoint"):
        sim = get_backend("lowered").create_simulator()
        world = World(sim, afrl_paragon(), num_ranks=2, contention=contention)
        return sim, world

    @pytest.mark.parametrize("stop", ["time", "event"])
    def test_run_until_is_a_named_error(self, stop):
        sim, _world = self._world()
        until = 1.0 if stop == "time" else sim.timeout(0.5)
        with pytest.raises(SimulationError, match=r"run\(until=\.\.\.\).*'python'"):
            sim.run(until=until)

    def test_step_is_a_named_error(self):
        sim, _world = self._world()
        sim.timeout(0.5)
        with pytest.raises(SimulationError, match=r"step\(\).*'python'"):
            sim.step()

    def test_second_world_is_a_named_error(self):
        sim, _world = self._world()
        with pytest.raises(SimulationError, match="one lowered network"):
            World(sim, afrl_paragon(), num_ranks=2)

    def test_links_binds_no_network_and_honours_until(self):
        delivered = []

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.isend(None, dest=1, tag=0, nbytes=64 * 1024)
            else:
                yield ctx.irecv(source=0, tag=0)
                delivered.append(ctx.wtime())

        sim, world = self._world("links")
        world.spawn_all(program)
        assert sim.run(until=1e-6) is None
        assert sim.now == 1e-6 and not delivered
        sim.step()
        sim.run()
        assert len(delivered) == 1 and world.network.messages_sent == 1


# -- golden Table 7 case 1 bit-identity ----------------------------------------------
def _timing_rows(result) -> list[list]:
    """Every (task, cpi, rank) timing as repr-exact strings, sorted."""
    rows = []
    for task, timings in sorted(result.collector.timings.items()):
        for t in timings:
            rows.append(
                [task, t.cpi_index, t.rank, repr(t.t0), repr(t.t1), repr(t.t2), repr(t.t3)]
            )
    rows.sort()
    return rows


def _nan_eq(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


def _run_case1(backend):
    return STAPPipeline(
        STAPParams.paper(), CASE1, num_cpis=6, backend=backend
    ).run()


class TestGoldenCase1:
    """Table 7 case 1 (236 nodes): every backend reproduces the reference
    run repr-exactly — makespan, wire traffic, and all per-rank timings."""

    @pytest.fixture(scope="class")
    def reference(self):
        return _run_case1("python")

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_bit_identical_to_reference(self, reference, backend):
        result = _run_case1(backend)
        assert repr(result.makespan) == repr(reference.makespan)
        assert result.network_messages == reference.network_messages
        assert result.network_bytes == reference.network_bytes
        assert _timing_rows(result) == _timing_rows(reference)
        assert _nan_eq(
            result.metrics.measured_throughput,
            reference.metrics.measured_throughput,
        )
        assert _nan_eq(
            result.metrics.measured_latency,
            reference.metrics.measured_latency,
        )


class TestFunctionalParity:
    """Functional mode: the numerics ride on simulated timestamps, so a
    backend that moved one event would move a detection."""

    @staticmethod
    def _run(backend):
        scenario = RadarScenario(
            clutter_to_noise_db=40.0,
            targets=(
                TargetTruth(
                    range_cell=20, normalized_doppler=0.25, angle_deg=0.0, snr_db=5.0
                ),
            ),
            seed=11,
        )
        params = STAPParams.tiny()
        return STAPPipeline(
            params,
            Assignment(3, 2, 2, 2, 2, 2, 2, name="parity"),
            mode="functional",
            stream=CPIStream(params, scenario),
            num_cpis=4,
            backend=backend,
        ).run()

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_detections_and_reports_identical(self, backend):
        reference = self._run("python")
        result = self._run(backend)
        assert repr(result.makespan) == repr(reference.makespan)
        assert [
            (r.cpi_index, repr(r.completed_at), r.detections)
            for r in result.reports
        ] == [
            (r.cpi_index, repr(r.completed_at), r.detections)
            for r in reference.reports
        ]


# -- hypothesis: randomized traffic, identical event sequences -----------------------
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
            ),
            min_size=1,
            max_size=20,
        )
    )
    return num_ranks, messages


def _run_traffic(backend, num_ranks, messages, contention, traced=False):
    """One random program on one backend; returns its full observable trace.

    Message sizes straddle the eager threshold so both transfer protocols
    (and, under ENDPOINT and LINKS contention, port queueing) are
    exercised.  ``traced`` attaches a :class:`TraceSink` to the world and
    the network the way :meth:`STAPPipeline.run` does.
    """
    sends_by_rank = defaultdict(list)
    expected_by_dst = defaultdict(list)
    for seq, (src, dst, tag) in enumerate(messages):
        nbytes = 64 if seq % 2 == 0 else 64 * 1024
        sends_by_rank[src].append((dst, tag, seq, nbytes))
        expected_by_dst[dst].append((src, tag))

    engine = get_backend(backend)
    sim = engine.create_simulator()
    world = World(
        sim, afrl_paragon(), num_ranks=num_ranks,
        contention=contention, backend=engine,
    )
    if traced:
        sink = TraceSink()
        sink.bind(sim)
        world.obs = world.network.obs = sink
    deliveries = []

    def program(ctx):
        requests = [
            ctx.isend(seq, dest=dst, tag=tag, nbytes=nbytes)
            for dst, tag, seq, nbytes in sends_by_rank.get(ctx.rank, [])
        ]
        for src, tag in expected_by_dst.get(ctx.rank, []):
            msg = yield ctx.irecv(source=src, tag=tag)
            deliveries.append(
                (ctx.rank, msg.source, msg.tag, msg.payload, repr(sim.now))
            )
        if requests:
            yield ctx.wait_all(requests)

    world.spawn_all(program)
    sim.run()
    return {"deliveries": deliveries, **_engine_totals(sim, world, num_ranks)}


def _engine_totals(sim, world, num_ranks) -> dict:
    """Clock, event and sequence counts, wire totals and endpoint waits."""
    return {
        "now": repr(sim.now),
        "events": sim.events_processed,
        "seq": sim._seq,
        "messages": world.network.messages_sent,
        "bytes": world.network.bytes_sent,
        "waits": [
            repr(world.network.endpoint_wait_time(node))
            for node in range(num_ranks)
        ],
    }


@st.composite
def batch_programs(draw):
    """Random iterations of exact-key batches on a permuted communicator.

    Each message is ``(iteration, src, dst, tag)`` in communicator ranks
    (self-sends included); sizes alternate across the eager threshold.
    Every rank also draws a delay between posting its receives and its
    sends, so sends and receives meet in both orders.
    """
    num_ranks = draw(st.integers(min_value=2, max_value=5))
    iterations = draw(st.integers(min_value=1, max_value=3))
    messages = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=iterations - 1),
                st.integers(min_value=0, max_value=num_ranks - 1),
                st.integers(min_value=0, max_value=num_ranks - 1),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=1,
            max_size=24,
        )
    )
    ranks = draw(st.permutations(range(num_ranks)))
    delays = draw(
        st.lists(st.sampled_from((0.0, 1e-5, 1e-3)),
                 min_size=num_ranks, max_size=num_ranks)
    )
    return num_ranks, iterations, messages, ranks, delays


def _run_batches(backend, program, contention, traced=False):
    """One random batch program on one engine: deliveries and totals."""
    num_ranks, iterations, messages, ranks, delays = program
    sizes = [64 if seq % 2 == 0 else 64 * 1024 for seq in range(len(messages))]
    engine = get_backend(backend)
    sim = engine.create_simulator()
    world = World(
        sim, afrl_paragon(), num_ranks=num_ranks,
        contention=contention, backend=engine,
    )
    if traced:
        sink = TraceSink()
        sink.bind(sim)
        world.obs = world.network.obs = sink
    comm = Communicator(world, list(ranks))
    deliveries = []

    def groups(rank, it, side):
        """{tag: [(peer, seq), ...]} of one rank's iteration, post order."""
        out = defaultdict(list)
        for seq, (m_it, src, dst, tag) in enumerate(messages):
            if m_it == it and (src if side == "send" else dst) == rank:
                out[tag].append((dst if side == "send" else src, seq))
        return sorted(out.items())

    def program_of(ctx):
        for it in range(iterations):
            recvs = ctx.batch()
            for tag, entries in groups(ctx.rank, it, "recv"):
                channels = ctx.recv_channels([src for src, _ in entries])
                ctx.post_recvs(recvs, channels, tag)
            yield ctx.elapse(delays[ctx.rank])
            sends = ctx.batch()
            for tag, entries in groups(ctx.rank, it, "send"):
                channels = ctx.send_channels(
                    [(dst, sizes[seq]) for dst, seq in entries]
                )
                ctx.post_sends(sends, channels, tag, [seq for _, seq in entries])
            if recvs:
                yield ctx.wait_batch(recvs)
            deliveries.append(
                (ctx.rank, it, ctx.batch_payloads(recvs), repr(sim.now))
            )
            if sends:
                yield ctx.wait_batch(sends)
            deliveries.append((ctx.rank, it, "sent", repr(sim.now)))

    for world_rank in range(num_ranks):
        world.spawn(world_rank, program_of, comm=comm)
    sim.run()
    assert world.outstanding_operations() == 0
    return world._compiled, {
        "deliveries": deliveries,  # in wake-up order
        **_engine_totals(sim, world, num_ranks),
    }


class TestBackendEquivalence:
    @given(
        traffic_patterns(),
        st.sampled_from(("none", "endpoint", "links")),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_event_sequences_identical_across_backends(
        self, pattern, contention, traced
    ):
        """Same random program (self-sends included), every backend, traced
        or not: identical deliveries (order, payload, and receipt
        timestamp), identical final clock, identical event and
        schedule-sequence counts, identical wire totals — all equal to the
        untraced reference run."""
        num_ranks, messages = pattern
        reference = _run_traffic("python", num_ranks, messages, contention)
        for backend in BACKEND_NAMES if traced else FAST_BACKENDS:
            got = _run_traffic(backend, num_ranks, messages, contention, traced)
            assert got == reference, f"backend {backend} (traced={traced}) diverged"

    @given(batch_programs(), st.sampled_from(("none", "endpoint")))
    @settings(max_examples=60, deadline=None)
    def test_compiled_batches_match_the_request_oracle(self, program, contention):
        """Random exact-key batches through the post/wait interface: the
        lowered engine's compiled batches (no Request per message), the
        reference engine's Requests and AllOf, and a traced lowered run
        agree on every delivery and its time, the clock, the event and
        ``_seq`` counts, the wire totals and the endpoint waits."""
        compiled, reference = _run_batches("python", program, contention)
        assert not compiled
        compiled, got = _run_batches("lowered", program, contention)
        assert compiled, "the lowered engine did not compile the batches"
        assert got == reference
        compiled, traced = _run_batches("lowered", program, contention, True)
        assert not compiled
        assert traced == reference


class TestCompiledBatches:
    """The compiled path keeps the Request path's named errors, and a
    lowered untraced pipeline run builds no per-message object."""

    @staticmethod
    def _ctx(num_ranks=2):
        sim = get_backend("lowered").create_simulator()
        world = World(sim, afrl_paragon(), num_ranks=num_ranks)
        ctx = RankContext(world, world.comm, 0)
        return world, ctx

    def test_tag_at_the_limit_is_an_mpi_error(self):
        world, ctx = self._ctx()
        batch = ctx.batch()
        assert isinstance(batch, Batch)
        with pytest.raises(MPIError, match=f"below TAG_LIMIT .*{TAG_LIMIT}"):
            ctx.post_sends(batch, ctx.send_channels([(1, 8)]), TAG_LIMIT, [None])
        with pytest.raises(MPIError, match=f"below TAG_LIMIT .*{TAG_LIMIT}"):
            ctx.post_recvs(batch, ctx.recv_channels([1]), TAG_LIMIT)
        assert world.outstanding_operations() == 0 and not batch

    @pytest.mark.parametrize("dest", [2, -1])
    def test_destination_out_of_range_is_an_mpi_error(self, dest):
        _world, ctx = self._ctx()
        with pytest.raises(MPIError, match="out of range"):
            ctx.send_channels([(1, 8), (dest, 8)])
        with pytest.raises(MPIError, match="out of range"):
            ctx.recv_channels([dest])

    def test_negative_size_is_a_machine_error(self):
        _world, ctx = self._ctx()
        with pytest.raises(MachineError, match="negative message size"):
            ctx.send_channels([(1, -8)])

    def test_one_world_carries_requests_or_batches(self):
        world, ctx = self._ctx()
        ctx.batch()
        with pytest.raises(MPIError, match="not both"):
            ctx.isend(None, dest=1, tag=0, nbytes=8)
        world, ctx = self._ctx()
        ctx.irecv(source=1, tag=0)
        with pytest.raises(MPIError, match="not both"):
            ctx.batch()

    @pytest.mark.parametrize("backend, builds", [("lowered", False), ("python", True)])
    def test_untraced_lowered_pipeline_builds_no_request(
        self, backend, builds, monkeypatch
    ):
        from repro.mpi.datatypes import Message
        from repro.mpi.request import RecvRequest, SendRequest

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built")

        for cls in (SendRequest, RecvRequest, Message):
            monkeypatch.setattr(cls, "__init__", refuse)
        run = STAPPipeline(STAPParams.small(), CASE3, num_cpis=3, backend=backend).run
        if builds:
            # The oracle builds them: proof the patch bites.
            with pytest.raises(AssertionError, match="Request built"):
                run()
        else:
            assert run().makespan > 0.0


class TestReplicationIdentity:
    def test_two_replicas_bit_identical_across_engines(self):
        from repro.core.replication import ReplicatedSTAPPipeline

        def run(backend):
            replicated = ReplicatedSTAPPipeline(
                STAPParams.small(), CASE3, replicas=2, num_cpis=6,
                backend=backend,
            )
            assert replicated.backend == (backend or "lowered")
            result = replicated.run()
            return (
                result.aggregate_throughput.hex(),
                result.latency.hex(),
                repr(result.per_replica),
            )

        assert run(None) == run("python")


# -- cache keys ----------------------------------------------------------------------
class TestCacheIdentity:
    def test_schema_covers_the_engine_dimension(self):
        # 2 introduced engine identity; 3 is the campaign-store era.
        assert CACHE_SCHEMA == 3

    def test_engine_fingerprint_resolves_and_carries_schema(self):
        assert engine_fingerprint(None) == {
            "backend": "lowered",
            "engine_schema": ENGINE_SCHEMA,
        }
        assert engine_fingerprint("python")["backend"] == "python"
        assert engine_fingerprint("lowered")["backend"] == "lowered"
        assert engine_fingerprint("auto")["backend"] == "lowered"

    def test_keys_differ_across_backends_for_the_same_point(self):
        params = STAPParams.small()
        keys = {
            cache_key(SimPoint(params, CASE3, backend=backend))
            for backend in BACKEND_NAMES
        }
        assert len(keys) == len(BACKEND_NAMES)

    def test_auto_hashes_to_its_resolved_core(self):
        params = STAPParams.small()
        auto_key = cache_key(SimPoint(params, CASE3, backend="auto"))
        resolved = resolve_backend("auto")
        assert auto_key == cache_key(SimPoint(params, CASE3, backend=resolved))

    def test_existing_store_entries_keep_hitting(self):
        # Digests computed before the C core was removed: the engines'
        # identities and schemas did not change, so stores written then
        # (on any host) still hit.  The default (None) and ``auto`` share
        # the lowered entry; reference entries are reached by name.
        params = STAPParams.small()
        reference = cache_key(SimPoint(params, CASE3, backend="python"))
        assert reference == (
            "df5c7f98e7b3311365d9b5ccdd71b70c37ca24bd0ffdc142378d67f95b731c12"
        )
        for backend in (None, "auto", "lowered"):
            assert cache_key(SimPoint(params, CASE3, backend=backend)) == (
                "a2591bf28034fd19ffe0eb00b44539a355770877c2ca2e35185c8f1d66bc7c17"
            ), backend
