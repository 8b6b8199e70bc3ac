"""Multiprocessor runtime simulator executing the static-order policy.

This is the library's substitute for the paper's MPPA/Linux runtime
(Section V): a deterministic discrete-event simulation of ``M`` processors
executing the frame-periodic static-order policy of Section IV, including:

* invocation synchronisation (periodic invocations, early/absent sporadic
  invocations with false-job marking),
* precedence synchronisation against task-graph predecessors,
* per-processor mutual exclusion in static-schedule order,
* the frame-arrival overhead model of Section V-A,
* actual execution times that may differ from WCETs (jitter injection) —
  the policy must stay correct because it synchronises instead of trusting
  the static start times (Prop. 4.1).

The executor is split into a **timing core** and pluggable **consumers**:

1. **Timing phase** (:meth:`MultiprocessorExecutor._timing_phase`) — per
   frame, job starts/ends are resolved in a topological pass over the
   combined DAG (precedence edges + per-processor chains + invocation
   floors).  The combined relation is acyclic because a feasible static
   schedule orders both edge kinds by start time.  The pass runs entirely
   in the **integer tick domain** (:mod:`repro.core.ticks`): all timing
   inputs — hyperperiod, arrivals, overheads, bound sporadic arrival
   times, process deadlines and the per-instance execution durations — are
   mapped once per run to exact integer ticks, so the ``max``/``+``
   recurrence per job instance costs machine-integer operations.  Each
   resolved instance is one row of integer columns in a
   :class:`RecordTable`, and each frame's rows are **emitted as one
   batch** to the observers of :mod:`repro.runtime.observers`.
   :class:`JobRecord` objects with exact rational timestamps
   (bit-identical to a pure-Fraction simulation) are built only when
   someone reads them.
2. **Data phase** (:meth:`MultiprocessorExecutor._data_phase`) — the
   kernels of all *true* jobs run in ``(start, frame, <J index)`` order
   against fresh channel states.  Jobs sharing a channel can never overlap
   (they are precedence-ordered and the policy enforces it), so
   atomic-at-start execution reproduces the real interleaving; the
   resulting channel write sequences are the Prop. 2.1 observable.

Two fast modes drop work a caller does not need: ``records_only=True``
skips the data phase entirely (no ``JobContext``, no kernel dispatch —
timing-only runs with identical :class:`JobRecord` streams), and
``collect_records=False`` leaves the table out of the result, which is
how the determinism matrix runs (it only compares data-phase
observables).  With both, nothing reads the table after the run, so it
keeps one frame of rows at a time.
"""

from __future__ import annotations

import gc
import random
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import not_
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import RuntimeModelError
from ..core.channels import ChannelState, ExternalOutputState
from ..core.ticks import TickDomain, fraction_from_ratio
from ..core.invocations import Stimulus
from ..core.network import Network
from ..core.process import JobContext, KernelBehavior
from ..core.timebase import Time, TimeLike, as_positive_time, as_time
from ..core.trace import LazyTrace, Trace
from ..core.trusted import check_trusted_constructor
from ..taskgraph.graph import TaskGraph
from ..taskgraph.jobs import Job
from ..scheduling.schedule import StaticSchedule
from .observers import (
    _DATA_HOOKS, _overrides, _record_consumers, ExecutionObserver, RunMeta,
)
from .overheads import OverheadModel
from .static_order import ArrivalBinding, FramePlan

# Aliases for the trusted ``__dict__``-installing record construction
# (:meth:`JobRecord._from_fields`); its field list is cross-checked at
# import time below.
_obj_new = object.__new__
_obj_setattr = object.__setattr__

ExecutionTimeSpec = Union[
    None,
    Mapping[str, TimeLike],
    Callable[[Job, int], TimeLike],
]


def wcet_execution(job: Job, frame: int) -> Time:
    """The default execution-time model: every job takes exactly its WCET."""
    return job.wcet


def jittered_execution(
    seed: int, low_fraction: float = 0.5
) -> Callable[[Job, int], Time]:
    """Deterministic pseudo-random execution times in ``[low*C, C]``.

    The sample depends only on ``(seed, process, k, frame)``, so repeated
    runs with the same seed are identical — which the determinism tests rely
    on when comparing *different schedules* under the *same* jitter.

    A single reseeded :class:`random.Random` instance is hoisted out of the
    per-sample path (reseeding produces exactly the same generator state as
    constructing ``random.Random(key)``), and samples are memoised per
    ``(process, k, frame)``, so determinism sweeps that replay the same
    jitter against many schedules pay the string hash only once per
    instance.
    """
    if not 0 < low_fraction <= 1:
        raise ValueError("low_fraction must be in (0, 1]")
    rng = random.Random()
    memo: Dict[Tuple[str, int, int], Tuple[Time, Time]] = {}

    def sample(job: Job, frame: int) -> Time:
        key = (job.process, job.k, frame)
        hit = memo.get(key)
        if hit is not None and hit[0] == job.wcet:
            return hit[1]
        rng.seed(f"{seed}/{job.process}/{job.k}/{frame}")
        frac = low_fraction + (1 - low_fraction) * rng.random()
        # keep it rational with millisecond-ish resolution
        scaled = int(frac * 10_000)
        value = fraction_from_ratio(
            job.wcet.numerator * scaled, job.wcet.denominator * 10_000
        )
        memo[key] = (job.wcet, value)
        return value

    return sample


@dataclass(frozen=True)
class JobRecord:
    """Timing record of one job instance (one job in one frame)."""

    process: str
    frame: int
    k_frame: int        # invocation count within the frame (graph job's k)
    global_k: int       # invocation count over the whole run
    processor: int
    release: Time       # real release: invocation time (arrival for sporadic)
    start: Time
    end: Time
    deadline: Time      # real absolute deadline: release + dp
    is_false: bool
    is_server: bool
    #: Name of the processor class the job's slot is bound to ("cpu" on
    #: classic homogeneous schedules).
    processor_class: str = "cpu"

    @classmethod
    def _from_fields(
        cls,
        process: str,
        frame: int,
        k_frame: int,
        global_k: int,
        processor: int,
        release: Time,
        start: Time,
        end: Time,
        deadline: Time,
        is_false: bool,
        is_server: bool,
        processor_class: str = "cpu",
    ) -> "JobRecord":
        """Hot-loop constructor bypassing the frozen ``__setattr__`` guards.

        Building through ``__dict__`` skips the per-field frozen-dataclass
        checks in the allocation-heavy timing loop (equality and hashing
        are unaffected).  The field list is explicit and cross-checked
        against the dataclass at import time (below): adding a field to
        ``JobRecord`` fails loudly there instead of silently reverting to
        a slow path or building incomplete records.
        """
        rec = _obj_new(cls)
        _obj_setattr(rec, "__dict__", {
            "process": process,
            "frame": frame,
            "k_frame": k_frame,
            "global_k": global_k,
            "processor": processor,
            "release": release,
            "start": start,
            "end": end,
            "deadline": deadline,
            "is_false": is_false,
            "is_server": is_server,
            "processor_class": processor_class,
        })
        return rec

    @property
    def name(self) -> str:
        return f"{self.process}[{self.global_k}]"

    @property
    def missed(self) -> bool:
        """Deadline miss — false jobs never miss (they do not execute)."""
        return not self.is_false and self.end > self.deadline

    @property
    def response_time(self) -> Time:
        return self.end - self.release


_JOB_RECORD_FIELDS = (
    "process", "frame", "k_frame", "global_k", "processor",
    "release", "start", "end", "deadline", "is_false", "is_server",
    "processor_class",
)
check_trusted_constructor(
    JobRecord, _JOB_RECORD_FIELDS, JobRecord._from_fields,
    dict(process="p", frame=0, k_frame=1, global_k=1, processor=0,
         release=Time(0), start=Time(0), end=Time(1), deadline=Time(2),
         is_false=False, is_server=False, processor_class="cpu"),
)


class RecordTable(SequenceABC):
    """One run's job records as integer-tick columns; a lazy record sequence.

    The timing phase appends one row per resolved job instance, frame by
    frame in timing-resolution order.  Per-row columns: ``job`` (index
    into the task graph's job list), ``frame``, ``global_k``,
    ``processor``, the ``release``/``start``/``end``/``deadline`` ticks and
    the ``is_false`` flag.  Per-job static columns, indexed by ``job``:
    ``process``, ``k``, ``is_server`` and ``class_name``.  ``domain`` maps
    ticks back to exact rationals.

    Columns are plain lists: ticks are unbounded Python ints (a run with
    large coprime period denominators exceeds ``2**63``), so no fixed-width
    storage can overflow or wrap.

    As a sequence the table reads as the :class:`JobRecord` list the run
    resolved: ``len``, indexing, slicing, iteration and ``==`` against a
    plain list work, and records with Fraction fields are built only when
    accessed.  A whole-table read (iteration, equality) materialises every
    record once and keeps them.
    """

    #: Rows materialised per step of a whole-table read.
    _CHUNK = 2048

    def __init__(
        self,
        domain: TickDomain,
        process: Sequence[str],
        k: Sequence[int],
        is_server: Sequence[bool],
        class_name: Sequence[str],
    ) -> None:
        self.domain = domain
        self.process = process
        self.k = k
        self.is_server = is_server
        self.class_name = class_name
        self.job: List[int] = []
        self.frame: List[int] = []
        self.global_k: List[int] = []
        self.processor: List[int] = []
        self.release: List[int] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.deadline: List[int] = []
        self.is_false: List[bool] = []
        self._records: Optional[List[JobRecord]] = None

    def clear(self) -> None:
        """Drop every row (a streaming run keeps one frame at a time)."""
        for col in (self.job, self.frame, self.global_k, self.processor,
                    self.release, self.start, self.end, self.deadline,
                    self.is_false):
            col.clear()
        self._records = None

    def _build(self, lo: int, hi: int) -> List[JobRecord]:
        """Materialise the records of rows ``[lo, hi)``."""
        times = [col[lo:hi] for col in (self.release, self.start, self.end,
                                        self.deadline)]
        # Instants repeat across a frame (shared releases and deadlines,
        # one job's end is the next one's start): convert each once.
        from_ticks = self.domain.from_ticks
        fraction = {t: from_ticks(t) for t in set().union(*times)}.__getitem__
        jobs = self.job[lo:hi]
        # Like run(), suspend the cyclic GC while allocating records that
        # all stay alive: its passes would only re-scan them.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return list(map(
                JobRecord._from_fields,
                map(self.process.__getitem__, jobs),
                self.frame[lo:hi],
                map(self.k.__getitem__, jobs),
                self.global_k[lo:hi],
                self.processor[lo:hi],
                *(map(fraction, col) for col in times),
                self.is_false[lo:hi],
                map(self.is_server.__getitem__, jobs),
                map(self.class_name.__getitem__, jobs),
            ))
        finally:
            if gc_was_enabled:
                gc.enable()

    def _all(self) -> List[JobRecord]:
        recs = self._records
        n = len(self.job)
        if recs is None or len(recs) != n:
            # In chunks: a chunk's columns and conversions stay in cache.
            recs = []
            for lo in range(0, n, self._CHUNK):
                recs += self._build(lo, min(lo + self._CHUNK, n))
            self._records = recs
        return recs

    def __len__(self) -> int:
        return len(self.job)

    def __getitem__(self, index):  # type: ignore[override]
        if self._records is not None and len(self._records) == len(self.job):
            return self._records[index]
        rows = range(len(self.job))[index]  # normalised; raises IndexError
        if isinstance(rows, int):
            return self._build(rows, rows + 1)[0]
        if rows.step == 1:
            return self._build(rows.start, rows.stop)
        return [self._build(r, r + 1)[0] for r in rows]

    def __iter__(self):
        return iter(self._all())

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, RecordTable):
            return self._all() == other._all()
        if isinstance(other, list):
            return self._all() == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RecordTable({len(self)} records, scale={self.domain.scale})"


@dataclass
class RuntimeResult:
    """Everything observable from one simulated run."""

    network_name: str
    frames: int
    hyperperiod: Time
    processors: int
    #: The run's :class:`RecordTable` (a lazy ``JobRecord`` sequence); any
    #: list of records is accepted too.
    records: Sequence[JobRecord]
    channel_logs: Dict[str, List[Any]]
    external_outputs: Dict[str, List[Tuple[int, Any]]]
    trace: Trace
    overhead_intervals: List[Tuple[int, Time, Time]] = field(default_factory=list)
    #: False when the run was made with ``collect_records=False``: the empty
    #: ``records`` list then means "not retained", not "no jobs ran", and
    #: every record-derived accessor refuses to report misleading zeros.
    records_collected: bool = True
    #: False when the run was made with ``records_only=True``: the data
    #: phase never ran, so the empty channel/output observables mean "not
    #: computed", not "no activity" — ``observable()`` refuses to compare.
    data_collected: bool = True
    #: False when the run was made with ``collect_trace=False`` (or
    #: ``records_only=True``, where no data phase produced actions): the
    #: empty ``trace`` then means "not retained", not "no actions", and
    #: :func:`~repro.runtime.observers.replay` refuses to re-emit
    #: data-phase events from it.
    trace_collected: bool = True

    def _require_records(self) -> None:
        if not self.records_collected:
            raise RuntimeModelError(
                "this result was produced with collect_records=False — job "
                "records were not retained; re-run with collect_records=True "
                "or aggregate via observers during the run"
            )

    def action_trace(self) -> Trace:
        """The data phase's action :class:`~repro.core.trace.Trace`.

        Guarded accessor for the ``trace`` field: refuses to hand out an
        empty trace that means "suppressed"/"never computed" rather than
        "no actions happened".
        """
        if not self.data_collected:
            raise RuntimeModelError(
                "this result was produced with records_only=True — the data "
                "phase never ran, so there is no action trace; re-run "
                "without records_only"
            )
        if not self.trace_collected:
            raise RuntimeModelError(
                "this result was produced with collect_trace=False — the "
                "action trace was suppressed; re-run with collect_trace=True"
            )
        return self.trace

    def observable(self) -> Dict[str, Any]:
        """Canonical determinism observable (same shape as zero-delay runs)."""
        if not self.data_collected:
            raise RuntimeModelError(
                "this result was produced with records_only=True — the data "
                "phase never ran, so there is no observable to compare; "
                "re-run without records_only"
            )
        return {
            "channels": {k: list(v) for k, v in sorted(self.channel_logs.items())},
            "outputs": {k: list(v) for k, v in sorted(self.external_outputs.items())},
        }

    def misses(self) -> List[JobRecord]:
        self._require_records()
        return [r for r in self.records if r.missed]

    def executed(self) -> List[JobRecord]:
        self._require_records()
        return [r for r in self.records if not r.is_false]

    def false_jobs(self) -> List[JobRecord]:
        self._require_records()
        return [r for r in self.records if r.is_false]

    def makespan(self) -> Time:
        self._require_records()
        return max((r.end for r in self.records), default=Time(0))

    def max_response_time(self, process: Optional[str] = None) -> Time:
        candidates = [
            r.response_time
            for r in self.executed()
            if process is None or r.process == process
        ]
        return max(candidates, default=Time(0))


#: One true job instance in the data phase's execution order:
#: ``(start_tick, frame, job_index, global_k, release_tick, end_tick)``.
#: Sorting these tuples orders instances by ``(start, frame, <J index)`` —
#: the execution order of the policy — because ``(frame, job_index)`` is
#: unique; the trailing fields never influence the order.
_Instance = Tuple[int, int, int, int, int, int]


def _execution_order(table: RecordTable) -> List[_Instance]:
    """The true instances of *table*, sorted into policy execution order."""
    return sorted(compress(
        zip(table.start, table.frame, table.job, table.global_k,
            table.release, table.end),
        map(not_, table.is_false),
    ))


@dataclass
class _RunSetup:
    """Per-run immutable inputs, resolved once before the timing loop."""

    n_frames: int
    topo: List[int]
    pred_table: List[Tuple[int, ...]]
    proc_of: List[int]
    counts: List[int]
    dom: TickDomain
    arr_t: List[int]
    H_t: int
    ov_first_t: int
    ov_steady_t: int
    pdl_t: List[int]
    dur_t_const: Optional[List[int]]
    dur_t_rows: Optional[List[List[int]]]
    bound_t_rows: List[Dict[int, Tuple[int, int]]]


class MultiprocessorExecutor:
    """Simulates the static-order policy for a network + static schedule."""

    def __init__(
        self,
        network: Network,
        schedule: StaticSchedule,
        overheads: Optional[OverheadModel] = None,
    ) -> None:
        network.validate_taskgraph_subclass()
        if schedule.graph.hyperperiod is None:
            raise RuntimeModelError("schedule's task graph has no hyperperiod")
        self.network = network
        self.schedule = schedule
        self.plan = FramePlan.from_schedule(schedule)
        self.overheads = overheads or OverheadModel.none()
        self.graph: TaskGraph = schedule.graph
        self.hyperperiod: Time = schedule.graph.hyperperiod

    # ------------------------------------------------------------------
    def run(
        self,
        n_frames: int,
        stimulus: Optional[Stimulus] = None,
        execution_time: ExecutionTimeSpec = None,
        *,
        observers: Sequence[ExecutionObserver] = (),
        records_only: bool = False,
        collect_records: bool = True,
        collect_trace: bool = True,
    ) -> RuntimeResult:
        """Simulate ``n_frames`` frames of the static-order policy.

        Parameters
        ----------
        observers:
            :class:`~repro.runtime.observers.ExecutionObserver` instances
            receiving run/overhead/record events as they are resolved, and —
            when the data phase runs — the per-kernel span and channel
            write events.
        records_only:
            Skip the data phase (no kernels, no channel states): the result
            carries identical :class:`JobRecord` timing but empty
            observables.  For timing-only consumers (sweeps, waveforms).
        collect_records:
            When ``False``, ``result.records`` stays empty: the record
            table is not retained (observers still receive every batch).
            The data phase still runs.  For observable-only consumers like
            the determinism matrix, and for streaming observers over
            long runs that must not accumulate per-instance data.
        collect_trace:
            When ``False``, the data phase suppresses the per-action
            :class:`~repro.core.trace.Trace` (``result.trace`` stays
            empty; channel logs, external outputs and live observer events
            are unaffected).  For observable-only and streaming consumers
            that never read the action log — it is the single largest
            allocation stream of a full run.
        """
        if n_frames < 1:
            raise RuntimeModelError("n_frames must be >= 1")
        stimulus = stimulus or Stimulus()
        stimulus.validate(self.network)
        setup = self._prepare(n_frames, stimulus, execution_time)

        if observers:
            meta = RunMeta(
                network=self.network.name,
                processors=self.plan.processors,
                frames=n_frames,
                hyperperiod=self.hyperperiod,
            )
            for ob in observers:
                ob.on_run_start(meta)

        # Nearly everything the phases allocate (records, trace actions,
        # channel logs, memoised Fractions) is retained until the result is
        # assembled, so generational GC passes during the phases only
        # re-scan live objects — at 100-frame scale they cost more than a
        # third of the run.  Suspend collection for the duration (restored
        # even on error; left untouched when the caller already disabled
        # GC); cyclic garbage from user kernels is reclaimed at the next
        # post-run collection.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            table, overhead_intervals = self._timing_phase(
                setup, observers, stream=records_only and not collect_records
            )

            if records_only:
                channel_logs: Dict[str, List[Any]] = {}
                external_outputs: Dict[str, List[Tuple[int, Any]]] = {}
                trace = Trace()
            else:
                channel_logs, external_outputs, trace = self._data_phase(
                    _execution_order(table), stimulus, setup.dom,
                    observers, collect_trace,
                )
        finally:
            if gc_was_enabled:
                gc.enable()

        result = RuntimeResult(
            network_name=self.network.name,
            frames=n_frames,
            hyperperiod=self.hyperperiod,
            processors=self.plan.processors,
            records=table if collect_records else [],
            channel_logs=channel_logs,
            external_outputs=external_outputs,
            trace=trace,
            overhead_intervals=overhead_intervals,
            records_collected=collect_records,
            data_collected=not records_only,
            trace_collected=collect_trace and not records_only,
        )
        for ob in observers:
            ob.on_run_end(result)
        return result

    # ------------------------------------------------------------------
    def _prepare(
        self,
        n_frames: int,
        stimulus: Stimulus,
        execution_time: ExecutionTimeSpec,
    ) -> _RunSetup:
        """Resolve every run input into the integer tick domain.

        Three steps: (1) invocation identity — which server-job slots are
        served by a real arrival in each frame; (2) execution durations
        (exact rationals, identity-resolved so the execution-time model is
        only sampled for true jobs); (3) the run's tick domain — the
        graph's domain extended by every other timing input — and the
        integer views of all of them.
        """
        binding = ArrivalBinding(self.network, self.hyperperiod, n_frames, stimulus)
        per_frame_counts = self.plan.per_process_count()

        graph = self.graph
        jobs = graph.jobs
        n = len(jobs)
        topo = self._frame_topological_order()
        proc_of = [self.plan.processor_of(i) for i in range(n)]
        counts = [per_frame_counts[j.process] for j in jobs]
        proc_deadline = [
            self.network.processes[j.process].deadline for j in jobs
        ]

        server_jobs = [i for i in range(n) if jobs[i].is_server]
        bound_rows: List[Dict[int, Any]] = []
        for frame in range(n_frames):
            row: Dict[int, Any] = {}
            for i in server_jobs:
                b = binding.lookup(
                    jobs[i].process, frame, jobs[i].subset_index, jobs[i].slot
                )
                if b is not None:
                    row[i] = b
            bound_rows.append(row)

        dur_const, dur_rows = self._durations(
            execution_time, bound_rows, n_frames, topo
        )

        tt = graph.tick_times().rescaled_to(chain(
            (self.overheads.first_frame_arrival, self.overheads.steady_frame_arrival),
            proc_deadline,
            (b.time for row in bound_rows for b in row.values()),
            (dur_const if dur_rows is None
             else (d for row in dur_rows for d in row if d is not None)),
        ))
        dom = tt.domain
        to_ticks = dom.to_ticks
        if dur_rows is None:
            dur_t_const: Optional[List[int]] = [to_ticks(d) for d in dur_const]
            dur_t_rows = None
        else:
            dur_t_const = None
            dur_t_rows = [
                [to_ticks(d) if d is not None else 0 for d in row]
                for row in dur_rows
            ]
        bound_t_rows: List[Dict[int, Tuple[int, int]]] = [
            {i: (to_ticks(b.time), b.global_k) for i, b in row.items()}
            for row in bound_rows
        ]
        return _RunSetup(
            n_frames=n_frames,
            topo=topo,
            pred_table=graph.predecessor_table(),
            proc_of=proc_of,
            counts=counts,
            dom=dom,
            arr_t=tt.arrival,
            H_t=to_ticks(self.hyperperiod),
            ov_first_t=to_ticks(self.overheads.first_frame_arrival),
            ov_steady_t=to_ticks(self.overheads.steady_frame_arrival),
            pdl_t=[to_ticks(d) for d in proc_deadline],
            dur_t_const=dur_t_const,
            dur_t_rows=dur_t_rows,
            bound_t_rows=bound_t_rows,
        )

    # ------------------------------------------------------------------
    def _timing_phase(
        self,
        rs: _RunSetup,
        observers: Sequence[ExecutionObserver],
        stream: bool = False,
    ) -> Tuple[RecordTable, List[Tuple[int, Time, Time]]]:
        """The per-frame timing recurrence, in pure integer ticks.

        Appends one row per resolved instance to a :class:`RecordTable` and
        emits, per frame, the overhead window and then ``on_records`` for
        the frame's rows to *observers*.  With *stream* (nothing reads the
        table after the run) each frame's rows are dropped once emitted, so
        a long timing-only run holds one frame at a time.  Returns the
        table and the overhead intervals.
        """
        jobs = self.graph.jobs
        n = len(jobs)
        topo = rs.topo
        pred_table = rs.pred_table
        proc_of = rs.proc_of
        counts = rs.counts
        arr_t = rs.arr_t
        pdl_t = rs.pdl_t
        H_t = rs.H_t
        from_ticks = rs.dom.from_ticks

        class_of_proc = self.plan.platform.class_per_processor()
        is_server_of = [j.is_server for j in jobs]
        k_of = [j.k for j in jobs]
        table = RecordTable(
            rs.dom,
            process=[j.process for j in jobs],
            k=k_of,
            is_server=is_server_of,
            class_name=[class_of_proc[p].name for p in proc_of],
        )
        overhead_intervals: List[Tuple[int, Time, Time]] = []
        chain_end: List[int] = [0] * self.plan.processors

        # Columns that repeat every frame are extended once per frame;
        # the per-instance values are appended in the loop.
        procs_in_topo = [proc_of[i] for i in topo]
        extend_job = table.job.extend
        extend_frame = table.frame.extend
        extend_proc = table.processor.extend
        add_gk = table.global_k.append
        add_release = table.release.append
        add_start = table.start.append
        add_end = table.end.append
        add_deadline = table.deadline.append
        add_false = table.is_false.append
        notify_overhead = [ob.on_overhead for ob in observers]
        # One batch per frame to each record consumer.  An observer that
        # only overrides on_record goes through the default on_records,
        # which materialises the batch.
        notify_records = [ob.on_records for ob in _record_consumers(observers)]

        for frame in range(rs.n_frames):
            base = H_t * frame
            ov = rs.ov_first_t if frame == 0 else rs.ov_steady_t
            if ov > 0:
                o_start, o_end = from_ticks(base), from_ticks(base + ov)
                overhead_intervals.append((frame, o_start, o_end))
                for emit in notify_overhead:
                    emit(frame, o_start, o_end)
            floor = base + ov
            end_row = [0] * n
            brow = rs.bound_t_rows[frame]
            durs = rs.dur_t_const if rs.dur_t_rows is None else rs.dur_t_rows[frame]
            lo = len(table.job)
            extend_job(topo)
            extend_frame(repeat(frame, n))
            extend_proc(procs_in_topo)
            for i in topo:
                proc = proc_of[i]
                is_false = False
                if is_server_of[i]:
                    bound = brow.get(i)
                    if bound is None:
                        is_false = True
                        release_t = base + arr_t[i]
                        visible = release_t if release_t > floor else floor
                        global_k = frame * counts[i] + k_of[i]
                    else:
                        release_t, global_k = bound
                        visible = release_t if release_t > floor else floor
                        if base > visible:
                            visible = base
                else:
                    release_t = base + arr_t[i]
                    visible = release_t if release_t > floor else floor
                    global_k = frame * counts[i] + k_of[i]
                start = visible
                ce = chain_end[proc]
                if ce > start:
                    start = ce
                for p in pred_table[i]:
                    pe = end_row[p]
                    if pe > start:
                        start = pe
                end = start if is_false else start + durs[i]
                chain_end[proc] = end
                end_row[i] = end

                add_gk(global_k)
                add_release(release_t)
                add_start(start)
                add_end(end)
                add_deadline(release_t + pdl_t[i])
                add_false(is_false)
            hi = len(table.job)
            for emit in notify_records:
                emit(table, lo, hi)
            if stream:
                table.clear()
        return table, overhead_intervals

    # ------------------------------------------------------------------
    def _frame_topological_order(self) -> List[int]:
        """Job indices ordered by (static start, index).

        For a feasible schedule this order is topological for the union of
        precedence edges and per-processor chains, so a single pass resolves
        all timing dependencies within a frame.  A schedule whose start
        times contradict the precedence edges is rejected loudly here —
        the timing recurrence would otherwise read uncomputed predecessor
        end times.
        """
        n = len(self.graph)
        _, start_t, _, _, _ = self.schedule.tick_view()
        if len(start_t) < n:
            for i in range(n):
                self.schedule.entry(i)  # raises SchedulingError for the gap
        order = sorted(range(n), key=lambda i: (start_t[i], i))
        pos = [0] * n
        for idx, i in enumerate(order):
            pos[i] = idx
        jobs = self.graph.jobs
        pred_table = self.graph.predecessor_table()
        for i in range(n):
            for p in pred_table[i]:
                if pos[p] > pos[i]:
                    raise RuntimeModelError(
                        f"static schedule starts job {jobs[i].name} before its "
                        f"predecessor {jobs[p].name} — precedence-violating "
                        "schedules cannot drive the static-order policy"
                    )
        return order

    def _durations(
        self,
        spec: ExecutionTimeSpec,
        bound_rows: List[Dict[int, Any]],
        n_frames: int,
        topo: List[int],
    ) -> Tuple[Optional[List[Time]], Optional[List[List[Optional[Time]]]]]:
        """Per-instance execution durations (including per-job overhead).

        Returns ``(constant_per_job, None)`` when the model is frame
        independent (default WCETs, per-process tables) and
        ``(None, per_frame_rows)`` for callable models.  A callable is
        sampled exactly once per *true* job instance, frame by frame in the
        schedule-topological order — the same call sequence the timing loop
        itself makes — so even a stateful callable observes the original
        evaluation order.  False jobs get ``None`` (they never execute).

        On a heterogeneous platform the default model charges each job its
        class-resolved WCET on the processor its slot is bound to, and
        sampled models (tables, callables) are scaled by the exact
        ``effective / base`` WCET ratio of that class — a jitter model
        expressing "this instance ran at 70% of its WCET" keeps that
        meaning on every class.
        """
        jobs = self.graph.jobs
        per_job_ov = self.overheads.per_job
        platform = self.plan.platform
        if platform.is_unit and all(j.wcet_by_class is None for j in jobs):
            # Degenerate platform: the exact pre-platform duration model.
            if spec is None:
                return [j.wcet + per_job_ov for j in jobs], None
            if not callable(spec):
                table = {
                    name: as_positive_time(value, f"execution time of {name!r}")
                    for name, value in spec.items()
                }
                missing = sorted({j.process for j in jobs} - set(table))
                if missing:
                    raise RuntimeModelError(f"missing execution time for {missing!r}")
                return [table[j.process] + per_job_ov for j in jobs], None

            rows: List[List[Optional[Time]]] = []
            for frame in range(n_frames):
                brow = bound_rows[frame]
                row: List[Optional[Time]] = [None] * len(jobs)
                for i in topo:
                    job = jobs[i]
                    if job.is_server and i not in brow:
                        continue  # false job in this frame
                    row[i] = as_time(spec(job, frame)) + per_job_ov
                rows.append(row)
            return None, rows

        cls_of = [
            platform.class_of(self.plan.processor_of(i))
            for i in range(len(jobs))
        ]
        if spec is None:
            return [
                j.wcet_on(cls_of[i]) + per_job_ov
                for i, j in enumerate(jobs)
            ], None
        scale = [
            j.wcet_on(cls_of[i]) / j.wcet for i, j in enumerate(jobs)
        ]
        if not callable(spec):
            table = {
                name: as_positive_time(value, f"execution time of {name!r}")
                for name, value in spec.items()
            }
            missing = sorted({j.process for j in jobs} - set(table))
            if missing:
                raise RuntimeModelError(f"missing execution time for {missing!r}")
            return [
                table[j.process] * scale[i] + per_job_ov
                for i, j in enumerate(jobs)
            ], None

        het_rows: List[List[Optional[Time]]] = []
        for frame in range(n_frames):
            brow = bound_rows[frame]
            row = [None] * len(jobs)
            for i in topo:
                job = jobs[i]
                if job.is_server and i not in brow:
                    continue  # false job in this frame
                row[i] = as_time(spec(job, frame)) * scale[i] + per_job_ov
            het_rows.append(row)
        return None, het_rows

    # ------------------------------------------------------------------
    def _data_phase(
        self,
        order: List[_Instance],
        stimulus: Stimulus,
        dom: TickDomain,
        observers: Sequence[ExecutionObserver] = (),
        collect_trace: bool = True,
    ) -> Tuple[Dict[str, List[Any]], Dict[str, List[Tuple[int, Any]]], Trace]:
        """Run the kernels of all true instances in policy order.

        The loop is the per-instance fast path of a full simulation:

        * one mutable :class:`JobContext` per **process** (not per
          instance), rebound (``k``/``now``) through the trusted
          :meth:`JobContext._rebind` before each dispatch — the variable
          store, channel states and sample maps it closes over are
          run-constant per process;
        * dispatch is batched per ``(process, frame)`` run: the context,
          kernel entry point and rebind method are re-fetched only when the
          instance stream switches process, so bursts and back-to-back
          frames of one process pay a single lookup;
        * the action trace (``JobStart``/``JobEnd`` markers; the per-action
          log inside :class:`JobContext`) is built only when
          *collect_trace*;
        * data-phase observer events (kernel spans, channel writes) are
          emitted only for observers that override the hooks — with none
          attached the loop converts no tick to a Fraction beyond the
          releases (each distinct tick once per run).
        """
        network = self.network
        channel_states: Dict[str, ChannelState] = {
            name: spec.new_state() for name, spec in network.channels.items()
        }
        variables: Dict[str, Dict[str, Any]] = {
            name: proc.fresh_variables()
            for name, proc in network.processes.items()
        }
        ext_out: Dict[str, ExternalOutputState] = {
            name: ExternalOutputState(spec)
            for name, spec in network.external_outputs.items()
        }
        # The trace is recorded compactly and materialised only if a
        # consumer reads ``result.trace`` — most sweeps never do, and the
        # per-action dataclass allocation would otherwise dominate the
        # phase (see core/trace.LazyTrace).
        trace = LazyTrace() if collect_trace else None
        trace_append = trace.raw.append if trace is not None else None
        from_ticks = dom.from_ticks
        # Releases repeat across a frame's instances and span ends chain
        # into the next start on busy processors: convert each tick once.
        frac_memo: Dict[int, Time] = {}
        memo_get = frac_memo.get
        process_of = [j.process for j in self.graph.jobs]

        notify_start = [
            ob.on_job_data_start for ob in observers
            if _overrides(ob, "on_job_data_start", _DATA_HOOKS[0][1])
        ]
        notify_end = [
            ob.on_job_data_end for ob in observers
            if _overrides(ob, "on_job_data_end", _DATA_HOOKS[1][1])
        ]
        notify_write = [
            ob.on_channel_write for ob in observers
            if _overrides(ob, "on_channel_write", _DATA_HOOKS[2][1])
        ]
        emit_spans = bool(notify_start or notify_end or notify_write)
        # Channel writes are observed through the JobContext write hook; the
        # executing job's identity and start instant are threaded through a
        # mutable cell shared by all contexts, so the hot path installs no
        # per-instance closures.
        current: List[Any] = [None, None]  # [process name, start Fraction]
        if notify_write:
            def _write_hook(channel: str, value: Any) -> None:
                name, at = current
                for emit in notify_write:
                    emit(name, channel, value, at)
        else:
            _write_hook = None

        # One reusable context and one resolved kernel entry point per
        # process.  Dispatching straight to KernelBehavior's kernel callable
        # skips a delegation frame per instance; other Behavior subclasses
        # keep their run_job entry point.
        bindings: Dict[str, Tuple[JobContext, Callable[[JobContext], None]]] = {}
        for name, proc in network.processes.items():
            ctx = JobContext(
                process=name,
                k=0,
                now=Time(0),
                variables=variables[name],
                inputs={n: channel_states[n] for n in proc.inputs},
                outputs={n: channel_states[n] for n in proc.outputs},
                external_inputs={
                    n: stimulus.samples_view(n) for n in proc.external_inputs
                },
                external_outputs={n: ext_out[n] for n in proc.external_outputs},
                trace=trace,
            )
            ctx._on_write = _write_hook
            behavior = proc.behavior
            dispatch = (
                behavior._kernel
                if behavior.__class__ is KernelBehavior
                else behavior.run_job
            )
            bindings[name] = (ctx, dispatch)

        prev_name = None
        ctx = dispatch = rebind = None
        for start_t, frame, job_idx, global_k, release_t, end_t in order:
            name = process_of[job_idx]
            if name != prev_name:
                ctx, dispatch = bindings[name]
                rebind = ctx._rebind
                prev_name = name
            release = memo_get(release_t)
            if release is None:
                release = frac_memo[release_t] = from_ticks(release_t)
            rebind(global_k, release)
            if emit_spans:
                start_f = memo_get(start_t)
                if start_f is None:
                    start_f = frac_memo[start_t] = from_ticks(start_t)
                current[0] = name
                current[1] = start_f
                for emit in notify_start:
                    emit(name, global_k, frame, start_f)
            if trace_append is not None:
                trace_append(("S", name, global_k))
            dispatch(ctx)
            if trace_append is not None:
                trace_append(("E", name, global_k))
            if notify_end:
                end_f = memo_get(end_t)
                if end_f is None:
                    end_f = frac_memo[end_t] = from_ticks(end_t)
                for emit in notify_end:
                    emit(name, global_k, frame, end_f)
        return (
            {n: list(s.write_log) for n, s in channel_states.items()},
            {n: s.as_sequence() for n, s in ext_out.items()},
            trace if trace is not None else Trace(),
        )


def run_static_order(
    network: Network,
    schedule: StaticSchedule,
    n_frames: int,
    stimulus: Optional[Stimulus] = None,
    execution_time: ExecutionTimeSpec = None,
    overheads: Optional[OverheadModel] = None,
    *,
    observers: Sequence[ExecutionObserver] = (),
    records_only: bool = False,
    collect_records: bool = True,
    collect_trace: bool = True,
) -> RuntimeResult:
    """One-call convenience wrapper around :class:`MultiprocessorExecutor`."""
    executor = MultiprocessorExecutor(network, schedule, overheads)
    return executor.run(
        n_frames,
        stimulus,
        execution_time,
        observers=observers,
        records_only=records_only,
        collect_records=collect_records,
        collect_trace=collect_trace,
    )
