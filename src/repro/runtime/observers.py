"""Observer/sink protocol for the runtime executor.

The :class:`~repro.runtime.executor.MultiprocessorExecutor` separates the
paper's deterministic timing core from its growing set of output consumers:
the timing phase (pure integer-tick recurrence) *emits events* — run
milestones, frame-arrival overhead windows, one batch of resolved job
instances per frame — and observers passed to ``run(observers=...)``
consume them as they happen.  VCD export (:mod:`repro.io.vcd`), Gantt
rendering (:mod:`repro.runtime.gantt`), metrics
(:mod:`repro.runtime.metrics`) and determinism sweeps
(:mod:`repro.analysis.determinism`) are all such consumers; new backends
plug in by subclassing :class:`ExecutionObserver` without touching the
executor core.

Event order:

* ``on_run_start`` once, then per frame the frame's overhead window (if
  any) followed by one ``on_records(table, lo, hi)`` call for the frame's
  rows, then ``on_run_end`` once.  :func:`replay` re-emits a stored run in
  exactly this shape.
* **Records.**  A frame's rows ``[lo, hi)`` of the run's
  :class:`~repro.runtime.executor.RecordTable` hold its instances in
  timing-resolution order (schedule-topological within the frame).  The
  default ``on_records`` builds each row's :class:`~repro.runtime.
  executor.JobRecord` and calls ``on_record`` with it, so an observer
  overriding only ``on_record`` sees one record per instance, in that
  order.  When an observer overrides both hooks, ``on_records`` wins:
  ``on_record`` runs only if the override delegates to the default.
  Observers overriding neither get no record events, and no record is
  built for them.
* **Data-phase events** follow all timing events: per executed job
  instance, in the deterministic ``(start, frame, <J index)`` execution
  order of the data phase, ``on_job_data_start`` then one
  ``on_channel_write`` per internal channel write the kernel makes (in
  write order) then ``on_job_data_end``.  False jobs and external output
  samples emit no data events.  :func:`replay` reconstructs the identical
  stream from the stored trace, so live and post-hoc consumers see the
  same sequence.

Time domain: every time stamp passed as an event argument is an **exact
rational** (:class:`fractions.Fraction`), never a rounded value.  The one
exception is the batch hook: its table holds **integer ticks**, and
``table.domain`` maps them exactly to rationals — consumers that
aggregate (like :class:`MetricsObserver`) compute on the ticks and
convert their results once.  Kernel spans carry the instance's resolved
``[start, end)`` interval; channel writes carry the writing job's start
instant (kernels execute atomically at their start, Section IV).

``run(records_only=True)`` skips the data phase (no ``JobContext``, no
kernel dispatch, empty channel observables, no data events) for
timing-only consumers.  ``run(collect_records=False)`` keeps
``result.records`` empty: observers still receive every batch, so
streaming consumers (metrics over a very long run) aggregate without the
result accumulating per-instance data.  ``run(collect_trace=False)``
suppresses the :class:`~repro.core.trace.Trace` action log
(``result.trace`` stays empty); live data-phase events still fire, but
such a result cannot re-emit them through :func:`replay`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.ticks import TickDomain
from ..core.timebase import Time
from ..core.trace import ChannelWrite, JobEnd, JobStart
from ..errors import RuntimeModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .executor import JobRecord, RecordTable, RuntimeResult
    from .metrics import KernelSpanStats, MissSummary

__all__ = [
    "ExecutionObserver",
    "MetricsObserver",
    "RecordsObserver",
    "RunMeta",
    "TraceObserver",
    "replay",
]


@dataclass(frozen=True)
class RunMeta:
    """Run-level milestone data, emitted once at ``on_run_start``."""

    network: str
    processors: int
    frames: int
    hyperperiod: Time


class ExecutionObserver:
    """Base observer: every hook is a no-op — override what you consume."""

    def on_run_start(self, meta: RunMeta) -> None:
        """The run's static shape, before any timing is resolved."""

    def on_overhead(self, frame: int, start: Time, end: Time) -> None:
        """A frame-arrival overhead window ``[start, end)`` (Section V-A)."""

    def on_record(self, record: "JobRecord") -> None:
        """One resolved job instance (including false server jobs)."""

    def on_records(self, table: "RecordTable", lo: int, hi: int) -> None:
        """One frame's resolved instances: rows ``[lo, hi)`` of *table*.

        The executor, and :func:`replay` of an executor result, deliver
        records only through this hook.  The default materialises the rows
        as :class:`~repro.runtime.executor.JobRecord` objects and calls
        :meth:`on_record` for each, so observers written against
        ``on_record`` need nothing else.  An
        observer overriding ``on_records`` reads the integer-tick columns
        directly (``table.domain`` converts them back to exact rationals);
        its ``on_record`` then runs only if the override delegates to this
        default.  Rows are only guaranteed to exist during the call — a
        streaming run drops them afterwards.
        """
        on_record = self.on_record
        for record in table[lo:hi]:
            on_record(record)

    def on_job_data_start(
        self, process: str, k: int, frame: int, start: Time
    ) -> None:
        """Kernel span opens: job ``process[k]`` starts executing at *start*."""

    def on_job_data_end(
        self, process: str, k: int, frame: int, end: Time
    ) -> None:
        """Kernel span closes: job ``process[k]`` finished, end time *end*."""

    def on_channel_write(
        self, process: str, channel: str, value: Any, time: Time
    ) -> None:
        """Internal channel write ``x!c`` by the job executing at *time*."""

    def on_run_end(self, result: "RuntimeResult") -> None:
        """The assembled result, after timing (and data, unless skipped)."""


#: The inherited no-op data-phase hooks, used (like the record hooks in
#: :func:`_record_consumers`) to detect which observers actually consume
#: data events — the base-class no-ops must not force event construction
#: on the fast path.
_DATA_HOOKS = (
    ("on_job_data_start", ExecutionObserver.on_job_data_start),
    ("on_job_data_end", ExecutionObserver.on_job_data_end),
    ("on_channel_write", ExecutionObserver.on_channel_write),
)


def _overrides(observer: ExecutionObserver, name: str, base) -> bool:
    """True when *observer* overrides hook *name* (subclass or instance attr)."""
    return getattr(getattr(observer, name), "__func__", None) is not base


def _record_consumers(
    observers: Sequence[ExecutionObserver],
) -> List[ExecutionObserver]:
    """The observers that consume records (override either record hook).

    The rest never get ``on_records``, so the inherited default never
    materialises records nobody reads.
    """
    return [
        ob for ob in observers
        if _overrides(ob, "on_records", ExecutionObserver.on_records)
        or _overrides(ob, "on_record", ExecutionObserver.on_record)
    ]


def replay(result: "RuntimeResult", *observers: ExecutionObserver) -> None:
    """Re-emit a finished run's events through *observers*.

    Lets every event consumer work identically live (``run(observers=...)``)
    and post-hoc (on a stored :class:`RuntimeResult`).  Results produced
    with ``collect_records=False`` cannot be replayed — their empty record
    list would misreport every count as zero — so they are rejected here;
    attach the observers during the run instead.

    A result holding the executor's :class:`~repro.runtime.executor.
    RecordTable` replays exactly the live stream: per frame, its overhead
    window then ``on_records`` for the frame's rows.  A result holding a
    plain record list (built outside the executor) replays all overhead
    windows, then ``on_record`` per record.

    Data-phase events (``on_job_data_start/end``, ``on_channel_write``) are
    reconstructed from the stored :class:`~repro.core.trace.Trace` — its
    ``JobStart``/``ChannelWrite``/``JobEnd`` actions carry the exact live
    emission order — joined with the records for the span timestamps.  A
    ``records_only`` result replays no data events (the data phase never
    ran, so none were emitted live either).  A result whose trace was
    *suppressed* (``collect_trace=False``) also replays none — the
    timing-event stream (and every record-derived metric) stays fully
    usable, while data-derived aggregates refuse to report from the
    eventless replay (see
    :meth:`MetricsObserver.kernel_span_stats`); attach data consumers to
    ``run()`` to aggregate such runs live.
    """
    from .executor import RecordTable

    if not result.records_collected:
        raise RuntimeModelError(
            "cannot replay a result produced with collect_records=False — "
            "job records were not retained; attach observers to run() instead"
        )
    data_observers = [
        ob for ob in observers
        if any(_overrides(ob, name, base) for name, base in _DATA_HOOKS)
    ] if result.trace_collected else []
    meta = RunMeta(
        network=result.network_name,
        processors=result.processors,
        frames=result.frames,
        hyperperiod=result.hyperperiod,
    )
    for ob in observers:
        ob.on_run_start(meta)
    records = result.records
    if isinstance(records, RecordTable):
        consumers = _record_consumers(observers)
        per_frame = len(records) // result.frames
        overheads = {frame: (s, e) for frame, s, e in result.overhead_intervals}
        for frame in range(result.frames):
            window = overheads.get(frame)
            if window is not None:
                for ob in observers:
                    ob.on_overhead(frame, *window)
            lo = frame * per_frame
            for ob in consumers:
                ob.on_records(records, lo, lo + per_frame)
    else:
        for frame, start, end in result.overhead_intervals:
            for ob in observers:
                ob.on_overhead(frame, start, end)
        for rec in records:
            for ob in observers:
                ob.on_record(rec)
    if data_observers and result.data_collected:
        record_of = {
            (r.process, r.global_k): r for r in records if not r.is_false
        }
        rec = None
        for act in result.trace:
            cls = act.__class__
            if cls is JobStart:
                rec = record_of[(act.process, act.k)]
                for ob in data_observers:
                    ob.on_job_data_start(act.process, act.k, rec.frame, rec.start)
            elif cls is ChannelWrite:
                for ob in data_observers:
                    ob.on_channel_write(act.process, act.channel, act.value, rec.start)
            elif cls is JobEnd:
                for ob in data_observers:
                    ob.on_job_data_end(act.process, act.k, rec.frame, rec.end)
    for ob in observers:
        ob.on_run_end(result)


class RecordsObserver(ExecutionObserver):
    """Accumulates the raw event streams (records, overheads, meta).

    ``records`` collects every record as a plain list, also from runs
    whose result keeps none (``collect_records=False``).
    """

    def __init__(self) -> None:
        self.meta: Optional[RunMeta] = None
        self.records: List["JobRecord"] = []
        self.overhead_intervals: List[Tuple[int, Time, Time]] = []

    def on_run_start(self, meta: RunMeta) -> None:
        # Full reset so a reused observer holds exactly one run's streams.
        self.meta = meta
        self.records = []
        self.overhead_intervals = []

    def on_overhead(self, frame: int, start: Time, end: Time) -> None:
        self.overhead_intervals.append((frame, start, end))

    def on_record(self, record: "JobRecord") -> None:
        self.records.append(record)


#: ``MetricsObserver._dom`` before the run's first record: the domain is
#: not chosen yet.
_UNSET: Any = object()


class MetricsObserver(ExecutionObserver):
    """Streaming aggregation of the Section V metrics.

    Computes miss statistics, worst response times, per-processor busy time,
    makespan, per-frame makespans and kernel-span statistics from the event
    stream alone — no stored record list — so long determinism/overload
    sweeps can aggregate without retaining per-instance data.

    The executor's ``on_records`` batches are aggregated on the run's
    integer ticks and converted to exact rationals once per accessor, so
    no per-record Fraction is built.  A stream of ``on_record`` events
    (replaying a plain record list) aggregates the records' Fractions with
    the same code; either way the values are exact and identical.  Kernel
    spans are the ``[start, end)`` intervals of the executed records,
    reported once the data phase's ``on_job_data_start`` events show it
    ran; channel-write counts are read from the run's channel logs.

    The optional per-record aggregates can be switched off at construction:
    scenario sweeps request only the metrics their table needs.  Disabled
    aggregates refuse to report (their accessors raise) instead of
    returning silent zeros.
    """

    def __init__(
        self,
        *,
        track_responses: bool = True,
        track_utilization: bool = True,
        track_frame_spans: bool = True,
    ) -> None:
        self._track_responses = track_responses
        self._track_utilization = track_utilization
        self._track_frame_spans = track_frame_spans
        self.meta: Optional[RunMeta] = None
        self._reset(0, 0)

    def _reset(self, processors: int, frames: int) -> None:
        self.total_jobs = 0
        self.executed_jobs = 0
        self.false_jobs = 0
        self.missed_jobs = 0
        # Aggregates in the run's record domain: integer ticks of ``_dom``
        # (a TickDomain), or Fractions when ``_dom`` is None.
        self._dom: Any = _UNSET
        self._worst_lateness: Any = 0
        self._makespan: Any = 0
        self._busy: List[Any] = [0] * processors
        self._frame_spans: List[Any] = [0] * frames
        self._frame_bases: List[Any] = []
        self._responses: Dict[str, Any] = {}
        self._span_count: Dict[str, int] = {}
        self._span_total: Dict[str, Any] = {}
        self._span_max: Dict[str, Any] = {}
        self._data_seen = False
        self._channel_writes: Dict[str, int] = {}
        self._data_events_unavailable = False

    def on_run_start(self, meta: RunMeta) -> None:
        # Full reset: one observer instance can be reused across runs
        # without mixing their statistics.
        self.meta = meta
        self._reset(meta.processors, meta.frames)

    def _use_domain(self, dom: Optional[TickDomain]) -> None:
        """Fix the run's record domain (None: Fractions) at its first record."""
        self._dom = dom
        if self._track_frame_spans:
            h = self.meta.hyperperiod
            step = h if dom is None else dom.to_ticks(h)
            self._frame_bases = [step * f for f in range(self.meta.frames)]

    def _time(self, raw: Any) -> Time:
        """An aggregate as an exact rational."""
        dom = self._dom
        return dom.from_ticks(raw) if isinstance(dom, TickDomain) else Time(raw)

    def on_records(self, table: "RecordTable", lo: int, hi: int) -> None:
        if self._dom is _UNSET:
            self._use_domain(table.domain)
        if self._dom != table.domain:  # a Fraction stream began this run
            super().on_records(table, lo, hi)
            return
        self._fold(zip(
            map(table.process.__getitem__, table.job[lo:hi]),
            table.frame[lo:hi], table.processor[lo:hi],
            table.is_false[lo:hi], table.release[lo:hi],
            table.start[lo:hi], table.end[lo:hi], table.deadline[lo:hi],
        ))

    def on_record(self, record: "JobRecord") -> None:
        if self._dom is _UNSET:
            self._use_domain(None)
        dom = self._dom
        conv = Time if dom is None else dom.to_ticks
        self._fold(((
            record.process, record.frame, record.processor, record.is_false,
            conv(record.release), conv(record.start), conv(record.end),
            conv(record.deadline),
        ),))

    def _fold(self, rows) -> None:
        """Aggregate ``(process, frame, processor, is_false, release, start,
        end, deadline)`` rows, times all ticks or all Fractions."""
        makespan = self._makespan
        worst = self._worst_lateness
        total = false_jobs = missed = 0
        busy = self._busy if self._track_utilization else None
        responses = self._responses if self._track_responses else None
        frame_spans = self._frame_spans if self._track_frame_spans else None
        bases = self._frame_bases
        span_count = self._span_count
        span_total = self._span_total
        span_max = self._span_max
        for process, frame, proc, is_false, release, start, end, deadline in rows:
            total += 1
            # All records count toward the makespan (false jobs carry their
            # zero-length visibility instant), matching
            # RuntimeResult.makespan().
            if end > makespan:
                makespan = end
            if is_false:
                false_jobs += 1
                continue
            if end > deadline:
                missed += 1
                if end - deadline > worst:
                    worst = end - deadline
            span = end - start
            if busy is not None:
                busy[proc] += span
            if responses is not None:
                response = end - release
                if response > responses.get(process, 0):
                    responses[process] = response
            if frame_spans is not None:
                frame_span = end - bases[frame]
                if frame_span > frame_spans[frame]:
                    frame_spans[frame] = frame_span
            span_count[process] = span_count.get(process, 0) + 1
            span_total[process] = span_total.get(process, 0) + span
            if span > span_max.get(process, 0):
                span_max[process] = span
        self._makespan = makespan
        self._worst_lateness = worst
        self.total_jobs += total
        self.false_jobs += false_jobs
        self.executed_jobs += total - false_jobs
        self.missed_jobs += missed

    # -- data-phase events ----------------------------------------------
    def on_job_data_start(
        self, process: str, k: int, frame: int, start: Time
    ) -> None:
        self._data_seen = True

    def on_run_end(self, result: "RuntimeResult") -> None:
        # Channel writes are counted from the logs once data events show
        # the data phase fed this observer.  A replay of a trace-suppressed
        # result emits no data events even though the data phase ran; flag
        # it so the data-derived accessors refuse to misreport every
        # span/write count as absent.  (A live run with collect_trace=False
        # still streams all data events.)
        if self._data_seen:
            self._channel_writes = {
                name: len(log) for name, log in result.channel_logs.items() if log
            }
        elif result.data_collected and not result.trace_collected:
            self._data_events_unavailable = True

    # -- consumers ------------------------------------------------------
    @property
    def makespan(self) -> Time:
        """Latest record end (false jobs: their visibility instant)."""
        return self._time(self._makespan)

    @property
    def worst_lateness(self) -> Time:
        return self._time(self._worst_lateness)

    def _require_run(self) -> None:
        if self.meta is None:
            raise RuntimeModelError(
                "metrics observer has not seen a run (no on_run_start event) "
                "— pass it to run(observers=[...]) or replay(result, ...)"
            )

    def miss_summary(self) -> "MissSummary":
        from .metrics import MissSummary

        self._require_run()
        return MissSummary(
            total_jobs=self.total_jobs,
            executed_jobs=self.executed_jobs,
            false_jobs=self.false_jobs,
            missed_jobs=self.missed_jobs,
            worst_lateness=self.worst_lateness,
            miss_ratio=(
                self.missed_jobs / self.executed_jobs if self.executed_jobs else 0.0
            ),
        )

    def _require_tracked(self, enabled: bool, what: str) -> None:
        if not enabled:
            raise RuntimeModelError(
                f"this MetricsObserver was constructed with {what}=False — "
                "the aggregate was not computed; construct the observer "
                "with it enabled"
            )

    def response_times(self) -> Dict[str, Time]:
        """Worst-case observed response time per process."""
        self._require_run()
        self._require_tracked(self._track_responses, "track_responses")
        return {name: self._time(r) for name, r in self._responses.items()}

    def processor_utilization(self) -> List[float]:
        """Busy fraction per processor over the simulated horizon."""
        return [float(u) for u in self.processor_utilization_exact()]

    def processor_utilization_exact(self) -> List[Time]:
        """Busy fraction per processor as exact rationals.

        Busy times and the horizon are both exact, so the fractions are
        too; the scenario sweeps report this form because their rows
        promise bit-identical, exactly-rational metrics across machines
        (:mod:`repro.experiment.sweep`).  :meth:`processor_utilization`
        is the float convenience view of the same values.
        """
        self._require_run()
        self._require_tracked(self._track_utilization, "track_utilization")
        horizon = self.meta.hyperperiod * self.meta.frames
        return [self._time(b) / horizon for b in self._busy]

    def frame_makespans(self) -> List[Time]:
        """Per-frame completion time relative to the frame start."""
        self._require_run()
        self._require_tracked(self._track_frame_spans, "track_frame_spans")
        return [self._time(span) for span in self._frame_spans]

    def _require_data_events(self) -> None:
        if self._data_events_unavailable:
            raise RuntimeModelError(
                "this observer replayed a result produced with "
                "collect_trace=False — the data-phase events were not "
                "retained, so span/write aggregates would misreport as "
                "empty; attach the observer to run() instead"
            )

    def kernel_span_stats(self) -> Dict[str, "KernelSpanStats"]:
        """Per-process kernel-span statistics of the executed instances.

        Empty when the run emitted no data events (``records_only=True``
        runs have no data phase).  Raises when this observer replayed a
        trace-suppressed result, whose data events cannot be reconstructed.
        """
        from .metrics import KernelSpanStats

        self._require_run()
        self._require_data_events()
        if not self._data_seen:
            return {}
        stats = {}
        for name, count in sorted(self._span_count.items()):
            total = self._time(self._span_total[name])
            stats[name] = KernelSpanStats(
                jobs=count,
                total_busy=total,
                max_span=self._time(self._span_max[name]),
                mean_span=total / count,
            )
        return stats

    def channel_write_counts(self) -> Dict[str, int]:
        """Number of internal channel writes observed, per channel."""
        self._require_run()
        self._require_data_events()
        return dict(self._channel_writes)


class TraceObserver(ExecutionObserver):
    """Waveform-shaped view of a run: busy intervals and pulse times.

    Collects, in exact rational time, per-processor and per-process busy
    intervals, deadline-miss pulse instants, runtime-overhead windows and —
    when the data phase runs — per-channel write pulse instants: everything
    a waveform backend (e.g. the VCD serialiser in :mod:`repro.io.vcd`)
    needs, without retaining ``JobRecord`` objects.
    """

    def __init__(self) -> None:
        self.meta: Optional[RunMeta] = None
        self.processes: Set[str] = set()
        self.processor_intervals: Dict[int, List[Tuple[Time, Time]]] = {}
        self.process_intervals: Dict[str, List[Tuple[Time, Time]]] = {}
        self.miss_times: List[Time] = []
        self.overheads: List[Tuple[Time, Time]] = []
        self.channel_write_times: Dict[str, List[Time]] = {}

    def on_run_start(self, meta: RunMeta) -> None:
        # Full reset so a reused observer holds exactly one run's waveform.
        self.meta = meta
        self.processes = set()
        self.processor_intervals = {}
        self.process_intervals = {}
        self.miss_times = []
        self.overheads = []
        self.channel_write_times = {}

    def on_overhead(self, frame: int, start: Time, end: Time) -> None:
        self.overheads.append((start, end))

    def on_record(self, record: "JobRecord") -> None:
        # False jobs still declare their process (a silent wire), exactly
        # like the record-list post-processing did.
        self.processes.add(record.process)
        if record.is_false or record.end == record.start:
            return
        span = (record.start, record.end)
        self.processor_intervals.setdefault(record.processor, []).append(span)
        self.process_intervals.setdefault(record.process, []).append(span)
        if record.end > record.deadline:
            self.miss_times.append(record.deadline)

    def on_channel_write(
        self, process: str, channel: str, value: Any, time: Time
    ) -> None:
        self.channel_write_times.setdefault(channel, []).append(time)
