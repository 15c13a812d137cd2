"""Runtime-selectable simulator cores.

Two backends run the same simulation with the same bit-exact results:

``python``
    The reference engine (:class:`~repro.des.engine.Simulator` plus
    :class:`~repro.machine.network.Network`) — the semantics oracle the
    other backend is pinned against.  It runs only when asked for by name.
``lowered``
    Pure-Python, plan-lowered hot path: transfers become pooled slot
    records driven by :class:`EnginePlan` tables.  The default.

``None`` and ``auto`` both resolve to ``lowered`` on every host.
Selection flows down from :class:`~repro.core.pipeline.STAPPipeline` and
:class:`~repro.exec.SimPoint`; result-cache keys include the resolved
backend identity and :data:`ENGINE_SCHEMA` so results from different cores
are never conflated.
"""

from __future__ import annotations

from repro.des.engine import Simulator
from repro.des.backends.lowered import LoweredNetwork, LoweredSimulator
from repro.des.backends.plan import EnginePlan, TAG_BITS, TAG_LIMIT
from repro.errors import ConfigurationError

#: Engine implementation schema: bump when any backend's scheduling
#: semantics change, to invalidate cached results keyed on it.
ENGINE_SCHEMA = 1

#: Names accepted by ``resolve_backend`` (besides ``auto`` and None).
BACKEND_NAMES = ("python", "lowered")


def compiled_available() -> bool:
    """Always False: the C simulator core was removed.  Kept because the
    benchmark harness records it as a host fact."""
    return False


def available_backends() -> tuple[str, ...]:
    """Backends usable in this process, reference first."""
    return BACKEND_NAMES


def resolve_backend(name: str | None) -> str:
    """Map a requested backend name onto a concrete one.

    ``None`` and ``auto`` pick the fast engine, ``lowered``; the
    reference engine runs only as ``python``.  Any other name — a stale
    ``compiled`` request included — is a
    :class:`~repro.errors.ConfigurationError`.
    """
    if name is None or name == "auto":
        return "lowered"
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown simulator backend {name!r}; "
            f"expected one of {BACKEND_NAMES + ('auto',)}"
        )
    return name


class EngineBackend:
    """The reference (pure Python) backend; base class for the other."""

    name = "python"

    def create_simulator(self) -> Simulator:
        return Simulator()

    def build_plan(self, mesh, cost, contention) -> EnginePlan | None:
        """Per-run lowered tables; the reference backend needs none."""
        return None

    def create_network(self, sim, mesh, cost, contention, plan):
        from repro.machine.network import Network

        return Network(sim, mesh, cost, contention=contention)


class LoweredBackend(EngineBackend):
    name = "lowered"

    def create_simulator(self) -> Simulator:
        return LoweredSimulator()

    def build_plan(self, mesh, cost, contention) -> EnginePlan:
        return EnginePlan.build(mesh, cost, contention)

    def create_network(self, sim, mesh, cost, contention, plan):
        return LoweredNetwork(sim, mesh, cost, contention=contention, plan=plan)


_BACKENDS = {
    "python": EngineBackend,
    "lowered": LoweredBackend,
}


def get_backend(name: str | None) -> EngineBackend:
    """Resolve ``name`` and instantiate its backend."""
    return _BACKENDS[resolve_backend(name)]()


__all__ = [
    "ENGINE_SCHEMA",
    "BACKEND_NAMES",
    "EnginePlan",
    "EngineBackend",
    "LoweredBackend",
    "LoweredSimulator",
    "LoweredNetwork",
    "TAG_BITS",
    "TAG_LIMIT",
    "available_backends",
    "compiled_available",
    "resolve_backend",
    "get_backend",
]
