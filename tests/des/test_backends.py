"""Backend registry, plan lowering, and cross-backend bit-identity.

The whole value of the lowered simulator core rests on one contract: it
changes *nothing* about the simulated behaviour — not one timestamp, not
one detection.  These tests pin that contract three ways:

* registry/resolution semantics (``auto`` resolution, the named error for
  stale ``compiled`` requests, SimPoint and CLI validation);
* :class:`~repro.des.backends.plan.EnginePlan` tables equal the reference
  cost model value-for-value (same IEEE-754 operations, no reassociation);
* golden Table 7 case 1 and a hypothesis property over randomized traffic
  patterns, compared repr-exact across every backend in
  :data:`~repro.des.backends.BACKEND_NAMES` (a constant, so no engine
  can drop out of coverage on some host).

Cache-key coverage lives here too: results from different engine cores
must never be conflated by :mod:`repro.exec.cache`.
"""

from __future__ import annotations

import argparse
import math
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
    EngineBackend,
    EnginePlan,
    LoweredBackend,
    available_backends,
    compiled_available,
    get_backend,
    resolve_backend,
    timed_plan,
)
from repro.errors import ConfigurationError
from repro.exec.cache import CACHE_SCHEMA, cache_key, engine_fingerprint
from repro.exec.point import SimPoint
from repro.machine import afrl_paragon
from repro.mpi import ANY_SOURCE, ANY_TAG, World

pytestmark = pytest.mark.backends

#: Every engine except the reference one, each pinned against it.
FAST_BACKENDS = [name for name in BACKEND_NAMES if name != "python"]


# -- registry and resolution ---------------------------------------------------------
class TestResolution:
    def test_none_keeps_the_reference_engine(self):
        assert resolve_backend(None) == "python"
        assert get_backend(None).name == "python"

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
        assert timed_plan(
            backend, machine.mesh, machine.network_cost, "endpoint"
        ) is None

    def test_timed_plan_stamps_build_seconds(self, machine):
        plan = timed_plan(
            get_backend("lowered"), machine.mesh, machine.network_cost, "endpoint"
        )
        assert plan is not None
        assert plan.build_seconds > 0.0


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
        return _run_case1(None)

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
        reference = self._run(None)
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
            ).filter(lambda m: m[0] != m[1]),
            min_size=1,
            max_size=20,
        )
    )
    return num_ranks, messages


def _run_traffic(backend, num_ranks, messages, contention, use_wildcard):
    """One random program on one backend; returns its full observable trace.

    Message sizes straddle the eager threshold so both transfer protocols
    (and, under ENDPOINT contention, port queueing) are exercised.
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
    deliveries = []

    def program(ctx):
        requests = [
            ctx.isend(seq, dest=dst, tag=tag, nbytes=nbytes)
            for dst, tag, seq, nbytes in sends_by_rank.get(ctx.rank, [])
        ]
        for src, tag in expected_by_dst.get(ctx.rank, []):
            if use_wildcard:
                msg = yield ctx.irecv(source=ANY_SOURCE, tag=ANY_TAG)
            else:
                msg = yield ctx.irecv(source=src, tag=tag)
            deliveries.append(
                (ctx.rank, msg.source, msg.tag, msg.payload, repr(sim.now))
            )
        if requests:
            yield ctx.wait_all(requests)

    world.spawn_all(program)
    sim.run()
    waits = [
        repr(world.network.endpoint_wait_time(node))
        for node in range(num_ranks)
    ]
    return {
        "deliveries": deliveries,
        "now": repr(sim.now),
        "events": sim.events_processed,
        "seq": sim._seq,
        "messages": world.network.messages_sent,
        "bytes": world.network.bytes_sent,
        "waits": waits,
    }


class TestBackendEquivalence:
    @given(
        traffic_patterns(),
        st.sampled_from(("none", "endpoint")),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_event_sequences_identical_across_backends(
        self, pattern, contention, use_wildcard
    ):
        """Same random program, every backend: identical deliveries (order,
        payload, and receipt timestamp), identical final clock, identical
        event and schedule-sequence counts, identical wire totals."""
        num_ranks, messages = pattern
        reference = _run_traffic(
            "python", num_ranks, messages, contention, use_wildcard
        )
        for backend in FAST_BACKENDS:
            got = _run_traffic(
                backend, num_ranks, messages, contention, use_wildcard
            )
            assert got == reference, f"backend {backend} diverged"


# -- cache keys ----------------------------------------------------------------------
class TestCacheIdentity:
    def test_schema_covers_the_engine_dimension(self):
        # 2 introduced engine identity; 3 is the campaign-store era.
        assert CACHE_SCHEMA == 3

    def test_engine_fingerprint_resolves_and_carries_schema(self):
        assert engine_fingerprint(None) == {
            "backend": "python",
            "engine_schema": ENGINE_SCHEMA,
        }
        assert engine_fingerprint("lowered")["backend"] == "lowered"
        assert engine_fingerprint("auto")["backend"] == "lowered"

    def test_keys_differ_across_backends_for_the_same_point(self):
        params = STAPParams.small()
        keys = {
            cache_key(SimPoint(params, CASE3, backend=backend))
            for backend in (None,) + BACKEND_NAMES[1:]
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
        # (on any host) still hit, and ``auto`` shares the lowered entry.
        params = STAPParams.small()
        reference = cache_key(SimPoint(params, CASE3, backend=None))
        lowered = cache_key(SimPoint(params, CASE3, backend="lowered"))
        assert reference == (
            "df5c7f98e7b3311365d9b5ccdd71b70c37ca24bd0ffdc142378d67f95b731c12"
        )
        assert lowered == (
            "a2591bf28034fd19ffe0eb00b44539a355770877c2ca2e35185c8f1d66bc7c17"
        )
        assert cache_key(SimPoint(params, CASE3, backend="auto")) == lowered
