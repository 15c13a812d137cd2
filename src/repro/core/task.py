"""The pipeline task framework: Figure 10 as code.

Every task rank runs :meth:`PipelineTask.run` — a direct transcription of
the paper's double-buffered loop::

    for i in 0..n-1:
        t0 = read timer
        post async receives for iteration i+1          (inBuf[next])
        wait for completion of receives for iteration i (inBuf[cur])
        unpack inBuf[cur]
        t1 = read timer
        compute on inBuf[cur] -> outBuf[cur]
        t2 = read timer
        pack outgoing messages from outBuf[cur]
        post async sends for iteration i
        wait for completion of sends of iteration i-1   (outBuf[prev])
        t3 = read timer

``recv = t1-t0`` (waiting + unpack), ``comp = t2-t1``, ``send = t3-t2``
(pack + post + waiting for the previous sends) — the exact decomposition
behind the paper's Tables 2-10.

Subclasses supply the task-specific pieces: which edges they receive on for
a given iteration, the per-rank flop count, and ``compute`` (which, in
functional mode, also performs the real NumPy work and returns real
payloads).
"""

from __future__ import annotations

import abc
from typing import Any, Dict

from repro.core.layout import PipelineLayout
from repro.core.metrics import TaskTiming
from repro.core.redistribution import edge_tag
from repro.mpi.context import RankContext

#: Sentinel payload used in modeled mode (sizes matter, contents don't).
MODELED = None


class Collector:
    """Run-wide sink for timings, detections, and latency bookkeeping.

    Plain Python shared state (not simulated communication): it stands in
    for the paper's measurement instrumentation, which likewise lived
    outside the data path.
    """

    def __init__(self):
        self.timings: Dict[str, list[TaskTiming]] = {}
        #: cpi -> earliest time any Doppler rank began reading the input.
        self.input_start: Dict[int, float] = {}
        #: cpi -> latest time any CFAR rank finished its share of the report.
        self.report_done: Dict[int, float] = {}
        #: cpi -> merged detection list (functional mode only).
        self.detections: Dict[int, list] = {}

    def record_timing(self, task: str, timing: TaskTiming) -> None:
        self.timings.setdefault(task, []).append(timing)

    def record_input_start(self, cpi: int, time: float) -> None:
        current = self.input_start.get(cpi)
        if current is None or time < current:
            self.input_start[cpi] = time

    def record_report(self, cpi: int, detections, time: float) -> None:
        current = self.report_done.get(cpi)
        if current is None or time > current:
            self.report_done[cpi] = time
        if detections:
            self.detections.setdefault(cpi, []).extend(detections)
        else:
            self.detections.setdefault(cpi, [])


class PipelineTask(abc.ABC):
    """One task of the pipeline, instantiated once per local rank."""

    #: Task name (must match :data:`repro.core.assignment.TASK_NAMES`).
    name: str = ""
    #: Kernel class for the machine model's rate table.
    kernel: str = "default"
    #: Whether this task's spans sit on the equation (2) latency path.
    #: The weight tasks override this to False: their output feeds a
    #: *later* CPI (temporal dependency TD(1,3)), so their time never
    #: contributes to a CPI's input-to-report latency.
    latency_path: bool = True

    def __init__(
        self,
        layout: PipelineLayout,
        local_rank: int,
        num_cpis: int,
        collector: Collector,
        functional: bool,
        weight_delay: int = 1,
        double_buffering: bool = True,
        obs=None,
        plan=None,
    ):
        self.layout = layout
        self.params = layout.params
        self.local_rank = local_rank
        self.num_cpis = num_cpis
        self.collector = collector
        self.functional = functional
        #: Optional :class:`~repro.stap.plan.KernelPlan` — per-run constants
        #: (windows, replica spectrum, quiescent weights, CFAR factors)
        #: computed once by the pipeline and shared by every task.  Tasks
        #: fall back to computing their own pieces at setup when absent
        #: (direct construction in tests); numerics are identical.
        self.plan = plan
        #: Iterations between a weight task training on CPI i and those
        #: weights being applied (= azimuth revisit period; 1 when every
        #: CPI shares one azimuth).
        self.weight_delay = weight_delay
        #: The paper's Figure 10 overlap strategy.  False = synchronous
        #: ablation: receives are posted only when needed and every send is
        #: drained before the iteration ends, so communication no longer
        #: overlaps computation.
        self.double_buffering = double_buffering
        #: Optional :class:`~repro.obs.TraceSink`; when attached, every
        #: iteration records its span tree (one ``is None`` check per
        #: iteration when off — the timestamps are read either way).
        self._obs = obs
        #: This rank's message schedule, compiled by :meth:`_compile`.
        self._recv_tables: Dict[str, tuple] = {}
        self._send_tables: Dict[str, tuple] = {}

    # ------------------------------------------------------------------ hooks --
    def pre_iteration(self, ctx: RankContext, cpi: int):
        """Generator run before an iteration's clock starts.

        The Doppler task uses it to wait for sensor-data availability when
        the input is externally paced; the wait is excluded from the
        recv/latency accounting (the data simply was not there yet).
        """
        return
        yield  # pragma: no cover - makes this a generator

    def recv_edges(self, cpi: int) -> list[str]:
        """Edge names this task receives on at iteration ``cpi``."""
        return self.layout.in_edges(self.name)

    def send_tag_cpi(self, edge_name: str, cpi: int) -> int:
        """The CPI index stamped on outgoing messages of an edge."""
        return cpi

    def recv_tag_cpi(self, edge_name: str, cpi: int) -> int:
        """The CPI index expected on incoming messages of an edge."""
        return cpi

    def extra_recv_seconds(self, cpi: int) -> float:
        """Non-MPI input time (the Doppler task's sensor transfer)."""
        return 0.0

    @abc.abstractmethod
    def local_flops(self, cpi: int) -> float:
        """This rank's share of the task's per-CPI floating-point work."""

    @abc.abstractmethod
    def compute(self, cpi: int, received: Dict[str, Dict[int, Any]]):
        """Do the task's work for one CPI.

        ``received`` maps edge name -> source local rank -> payload.
        Returns ``sends``: list of ``(edge_name, [(message, payload), ...])``
        in plan order.  In modeled mode payloads are :data:`MODELED`.
        """

    def on_iteration_start(self, cpi: int, now: float) -> None:
        """Hook at t0 (Doppler uses it to stamp input availability)."""

    def on_iteration_end(self, cpi: int, now: float) -> None:
        """Hook at t3 (CFAR uses it to deliver the detection report)."""

    # ----------------------------------------------------------------- helpers --
    def _compile(self, ctx: RankContext) -> None:
        """Compile this rank's message schedule once per run.

        Per in-edge: (source task-local ranks, channels, unpack bytes,
        unpack strided); per out-edge: (channels, pack bytes, pack
        strided).  ``compute`` returns each edge's messages in plan order,
        so the send channels line up with its payloads.
        """
        layout = self.layout
        rank = self.local_rank
        for edge_name in layout.in_edges(self.name):
            plan = layout.plan(edge_name)
            messages = plan.recvs_of(rank)
            self._recv_tables[edge_name] = (
                [message.src for message in messages],
                ctx.recv_channels([
                    layout.world_rank(plan.src_task, message.src)
                    for message in messages
                ]),
                plan.recv_bytes_of(rank),
                plan.unpack_strided,
            )
        offsets = layout.assignment.rank_offsets()
        for edge_name in layout.out_edges(self.name):
            plan = layout.plan(edge_name)
            messages = plan.sends_of(rank)
            self._send_tables[edge_name] = (
                ctx.send_channels([
                    (offsets[plan.dst_task] + message.dst, message.nbytes)
                    for message in messages
                ]),
                plan.send_bytes_of(rank),
                plan.pack_strided,
            )

    def _post_recvs(self, ctx: RankContext, cpi: int):
        """Post iteration ``cpi``'s receives as one batch."""
        batch = ctx.batch()
        for edge_name in self.recv_edges(cpi):
            tag = edge_tag(edge_name, self.recv_tag_cpi(edge_name, cpi))
            ctx.post_recvs(batch, self._recv_tables[edge_name][1], tag)
        return batch

    def _received(self, ctx: RankContext, cpi: int, batch) -> tuple:
        """Payloads of a completed receive batch (edge name -> source local
        rank -> payload), and the (nbytes, strided) unpack charges."""
        payloads = iter(ctx.batch_payloads(batch))
        received: Dict[str, Dict[int, Any]] = {}
        charges = []
        for edge_name in self.recv_edges(cpi):
            sources, _channels, nbytes, strided = self._recv_tables[edge_name]
            if sources:
                received[edge_name] = {src: next(payloads) for src in sources}
            if nbytes:
                charges.append((nbytes, strided))
        return received, charges

    # -------------------------------------------------------------------- loop --
    def run(self, ctx: RankContext):
        """The Figure 10 double-buffered loop (a DES process generator)."""
        self._compile(ctx)
        pending_recvs: Dict[int, Any] = {}
        if self.double_buffering:
            pending_recvs[0] = self._post_recvs(ctx, 0)
        prev_sends = None
        for cpi in range(self.num_cpis):
            yield from self.pre_iteration(ctx, cpi)
            t0 = ctx.wtime()
            self.on_iteration_start(cpi, t0)
            if self.double_buffering:
                # Post async receives for the *next* iteration.
                if cpi + 1 < self.num_cpis:
                    pending_recvs[cpi + 1] = self._post_recvs(ctx, cpi + 1)
            else:
                # Synchronous ablation: post only this iteration's receives.
                pending_recvs[cpi] = self._post_recvs(ctx, cpi)
            # Wait for this iteration's receives.
            recvs = pending_recvs.pop(cpi)
            if recvs:
                yield ctx.wait_batch(recvs)
            received, charges = self._received(ctx, cpi, recvs)
            # Unpack (data assembly) — inside the recv segment, as in Fig 10.
            for nbytes, strided in charges:
                yield ctx.copy(nbytes, strided=strided)
            extra = self.extra_recv_seconds(cpi)
            if extra > 0.0:
                yield ctx.elapse(extra)
            t1 = ctx.wtime()

            sends = self.compute(cpi, received)
            flops = self.local_flops(cpi)
            if flops > 0.0:
                yield ctx.compute(self.kernel, flops)
            t2 = ctx.wtime()

            # Pack (data collection / reorganization) + post async sends.
            send_batch = ctx.batch()
            for edge_name, messages in sends:
                channels, pack_bytes, strided = self._send_tables[edge_name]
                if pack_bytes:
                    yield ctx.copy(pack_bytes, strided=strided)
                tag = edge_tag(edge_name, self.send_tag_cpi(edge_name, cpi))
                ctx.post_sends(
                    send_batch, channels, tag, [payload for _, payload in messages]
                )
            # Wait for the previous iteration's sends (outBuf[prev] reusable)
            # — or, without double buffering, for this iteration's own.
            if self.double_buffering:
                drained, prev_sends = prev_sends, send_batch
            else:
                drained = send_batch
            if drained:
                yield ctx.wait_batch(drained)
            t3 = ctx.wtime()

            self.collector.record_timing(
                self.name,
                TaskTiming(cpi_index=cpi, rank=self.local_rank, t0=t0, t1=t1, t2=t2, t3=t3),
            )
            if self._obs is not None:
                self._obs.record_iteration(
                    self.name,
                    self.local_rank,
                    ctx.world_rank,
                    cpi,
                    t0,
                    t1,
                    t2,
                    t3,
                    latency_path=self.latency_path,
                )
            self.on_iteration_end(cpi, t3)
        # Drain the final iteration's sends before exiting.
        if prev_sends:
            yield ctx.wait_batch(prev_sends)
