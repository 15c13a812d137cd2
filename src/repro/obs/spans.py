"""Spans, message records, link statistics, and the sink that holds them.

The observability layer is *passive*: nothing here schedules events,
advances the clock, or touches the simulation state.  Producers (the task
loop, the MPI matcher, the network) call the ``record_*`` methods with
timestamps they already had, so attaching a sink can never change a
simulated timestamp — the bit-identical guarantee the golden-fastpath
tests enforce.

Everything is keyed on the paper's measurement vocabulary:

* a :class:`Span` is one interval of simulated time on one rank — an
  iteration of the Figure 10 loop, or one of its recv/comp/send phases;
* a :class:`MessageRecord` is one point-to-point message's lifecycle
  (post -> match -> complete), the raw material for Tables 2-6;
* :class:`LinkStats` accumulates per-resource utilization and
  contention-wait on the interconnect (Section 7.2's effect).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Phases of one Figure 10 iteration, in loop order.
ITERATION_PHASES = ("recv", "comp", "send")


@dataclass
class Span:
    """One named interval of simulated time.

    ``parent_id`` links phase spans to their iteration span, so a CPI's
    critical path can be walked: group spans by ``cpi``, follow the
    receive edges (from :class:`MessageRecord`) backwards from the CFAR
    iteration to the Doppler iteration.
    """

    span_id: int
    parent_id: Optional[int]
    #: Task name for pipeline spans; free-form label otherwise.
    task: str
    #: World rank (-1 for spans not bound to a rank).
    rank: int
    #: Local rank within the task (-1 when not applicable).
    local_rank: int
    #: CPI index (-1 when not bound to a pipeline iteration).
    cpi: int
    #: "iteration", "recv", "comp", "send", or a caller-chosen phase.
    phase: str
    start: float
    end: float
    #: False for spans that never sit on the latency path of equation (2)
    #: — the weight tasks, whose products feed a *later* CPI (TD(1,3)).
    latency_path: bool = True

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class MessageRecord:
    """Lifecycle of one point-to-point message (world-rank endpoints).

    ``t_send_post`` is stamped when the send is posted, ``t_recv_post``
    when the matching receive was posted, ``t_match`` when the pair met in
    the matcher, and ``t_complete`` at payload delivery.  A NaN
    ``t_complete`` means the message was still in flight when the run
    ended (a drained run leaves none).
    """

    src: int
    dst: int
    tag: int
    nbytes: int
    t_send_post: float
    t_recv_post: float = math.nan
    t_match: float = math.nan
    t_complete: float = math.nan

    @property
    def match_delay(self) -> float:
        """Post-to-match time: how long the earlier side waited."""
        return self.t_match - min(self.t_send_post, self.t_recv_post)

    @property
    def transfer_time(self) -> float:
        """Match-to-delivery time (wire + contention)."""
        return self.t_complete - self.t_match


def wait_bucket(wait_seconds: float) -> int:
    """Histogram bucket for a contention wait: -1 for no wait, else the
    power-of-two microsecond bucket ``floor(log2(wait_us)) + 1``."""
    micros = int(wait_seconds * 1e6)
    if micros <= 0:
        return -1
    return micros.bit_length()


def bucket_bounds(bucket: int) -> tuple[float, float]:
    """(lo, hi) wait range of a histogram bucket, in microseconds."""
    if bucket <= -1:
        return (0.0, 1.0)
    return (float(2 ** (bucket - 1)), float(2**bucket))


@dataclass
class LinkStats:
    """Utilization and contention-wait accumulator for one network resource
    (an injection/ejection port, or a mesh link under LINKS contention)."""

    name: str
    messages: int = 0
    nbytes: int = 0
    #: Total simulated seconds the resource was held by transfers.
    busy_seconds: float = 0.0
    #: Total simulated seconds transfers queued waiting for it.
    wait_seconds: float = 0.0
    #: Contention-wait histogram: :func:`wait_bucket` -> count.
    wait_histogram: Dict[int, int] = field(default_factory=dict)

    def record(self, busy: float, wait: float, nbytes: int) -> None:
        self.messages += 1
        self.nbytes += nbytes
        self.busy_seconds += busy
        self.wait_seconds += wait
        bucket = wait_bucket(wait)
        self.wait_histogram[bucket] = self.wait_histogram.get(bucket, 0) + 1

    def utilization(self, horizon: float) -> float:
        """Fraction of ``horizon`` seconds the resource was busy."""
        return self.busy_seconds / horizon if horizon > 0 else 0.0


class _SpanContext:
    """Context manager returned by :meth:`TraceSink.span`."""

    __slots__ = ("_sink", "span")

    def __init__(self, sink: "TraceSink", span: Span):
        self._sink = sink
        self.span = span

    def __enter__(self) -> Span:
        self.span.start = self._sink.now()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self.span.end = self._sink.now()
        self._sink._append_span(self.span)


class TraceSink:
    """Run-wide collector for spans, message records, and link statistics.

    One sink observes one simulation run (its clock is bound to the run's
    :class:`~repro.des.Simulator` by :meth:`bind`).  Buffers are bounded
    when ``max_spans`` / ``max_messages`` / ``max_link_intervals`` are
    given: overflow is counted in the ``dropped_*`` attributes instead of
    growing without limit.
    """

    def __init__(
        self,
        max_spans: Optional[int] = None,
        max_messages: Optional[int] = None,
        max_link_intervals: Optional[int] = None,
    ):
        self.spans: List[Span] = []
        self.messages: List[MessageRecord] = []
        #: Resource name -> accumulated stats.
        self.link_stats: Dict[str, LinkStats] = {}
        #: Resource name -> [(start, end, nbytes), ...] busy intervals
        #: (the link tracks of the exported timeline).
        self.link_intervals: Dict[str, List[tuple]] = {}
        self.max_spans = max_spans
        self.max_messages = max_messages
        self.max_link_intervals = max_link_intervals
        self.dropped_spans = 0
        self.dropped_messages = 0
        self.dropped_link_intervals = 0
        self._link_interval_count = 0
        #: Run metadata filled by the pipeline: label, num_cpis, rank
        #: names, contention mode, makespan.
        self.meta: Dict[str, object] = {}
        self._ids = itertools.count()
        self._sim = None

    # -- clock ------------------------------------------------------------------
    def bind(self, sim) -> None:
        """Attach the sink to a simulator's virtual clock."""
        self._sim = sim

    def now(self) -> float:
        """Current simulated time (0.0 before :meth:`bind`)."""
        return self._sim.now if self._sim is not None else 0.0

    # -- spans ------------------------------------------------------------------
    def _append_span(self, span: Span) -> bool:
        if self.max_spans is not None and len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return False
        self.spans.append(span)
        return True

    def add_span(
        self,
        task: str,
        cpi: int,
        phase: str,
        start: float,
        end: float,
        rank: int = -1,
        local_rank: int = -1,
        parent_id: Optional[int] = None,
        latency_path: bool = True,
    ) -> Span:
        """Record a completed interval with explicit timestamps."""
        span = Span(
            span_id=next(self._ids),
            parent_id=parent_id,
            task=task,
            rank=rank,
            local_rank=local_rank,
            cpi=cpi,
            phase=phase,
            start=start,
            end=end,
            latency_path=latency_path,
        )
        self._append_span(span)
        return span

    def span(
        self,
        task: str,
        cpi: int = -1,
        phase: str = "",
        rank: int = -1,
        local_rank: int = -1,
        parent: Optional[Span] = None,
        latency_path: bool = True,
    ) -> _SpanContext:
        """Context manager stamping start/end from the bound clock::

            with sink.span("doppler", cpi=3, phase="comp", rank=0):
                ... simulated work ...
        """
        span = Span(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            task=task,
            rank=rank,
            local_rank=local_rank,
            cpi=cpi,
            phase=phase,
            start=0.0,
            end=0.0,
            latency_path=latency_path,
        )
        return _SpanContext(self, span)

    def record_iteration(
        self,
        task: str,
        local_rank: int,
        world_rank: int,
        cpi: int,
        t0: float,
        t1: float,
        t2: float,
        t3: float,
        latency_path: bool = True,
    ) -> None:
        """One Figure 10 iteration: a parent span plus its recv/comp/send
        children at the exact ``t0..t3`` boundaries the metrics use."""
        parent = self.add_span(
            task, cpi, "iteration", t0, t3,
            rank=world_rank, local_rank=local_rank, latency_path=latency_path,
        )
        for phase, lo, hi in (("recv", t0, t1), ("comp", t1, t2), ("send", t2, t3)):
            self.add_span(
                task, cpi, phase, lo, hi,
                rank=world_rank, local_rank=local_rank,
                parent_id=parent.span_id, latency_path=latency_path,
            )

    # -- messages ---------------------------------------------------------------
    def new_message(
        self, src: int, dst: int, tag: int, nbytes: int, t_send_post: float
    ) -> Optional[MessageRecord]:
        """Open a message record at send-post time; returns None when the
        buffer is full (the producer then skips per-message stamping)."""
        if self.max_messages is not None and len(self.messages) >= self.max_messages:
            self.dropped_messages += 1
            return None
        record = MessageRecord(
            src=src, dst=dst, tag=tag, nbytes=nbytes, t_send_post=t_send_post
        )
        self.messages.append(record)
        return record

    # -- links ------------------------------------------------------------------
    def record_link_hold(
        self, name: str, start: float, end: float, nbytes: int, wait: float
    ) -> None:
        """One transfer's occupancy of one network resource."""
        stats = self.link_stats.get(name)
        if stats is None:
            stats = self.link_stats[name] = LinkStats(name)
        stats.record(end - start, wait, nbytes)
        if (
            self.max_link_intervals is not None
            and self._link_interval_count >= self.max_link_intervals
        ):
            self.dropped_link_intervals += 1
            return
        self._link_interval_count += 1
        self.link_intervals.setdefault(name, []).append((start, end, nbytes))

    # -- queries ----------------------------------------------------------------
    def spans_of(
        self,
        task: Optional[str] = None,
        cpi: Optional[int] = None,
        phase: Optional[str] = None,
    ) -> List[Span]:
        """Spans filtered by any combination of task / cpi / phase."""
        return [
            s
            for s in self.spans
            if (task is None or s.task == task)
            and (cpi is None or s.cpi == cpi)
            and (phase is None or s.phase == phase)
        ]

    def children_of(self, span: Span) -> List[Span]:
        """Direct children of a span, in recorded order."""
        return [s for s in self.spans if s.parent_id == span.span_id]

    def __len__(self) -> int:
        return len(self.spans)
