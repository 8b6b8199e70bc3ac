"""STOMP-style scenario sweeps: cartesian matrices of experiment runs.

A :class:`ScenarioMatrix` is a base :class:`~repro.experiment.scenario.
Scenario` plus named *axes* — scenario fields paired with the values to
sweep (``processors`` × ``jitter_seed`` × ``overheads`` × ``n_frames`` ×
``workload`` × ...).  :func:`run_sweep` executes every cell of the
cartesian product and returns a :class:`SweepResult` table of streaming
:class:`~repro.runtime.observers.MetricsObserver` aggregates.

Two properties make sweeps cheap at scenario scale:

* **Stage-aware reuse** — all cells share one
  :class:`~repro.experiment.experiment.PipelineCache`, so scenarios that
  differ only in *runtime* axes (jitter seeds, overheads, frame counts,
  stimuli, executor flags) share a single task-graph derivation and a
  single scheduling pass per distinct
  ``(workload, wcet, horizon, processors, heuristics)`` key.  The
  :class:`SweepStats` counters surface exactly how many stage computations
  the sweep paid.
* **Lean execution** — each cell runs with ``collect_records=False`` and
  ``collect_trace=False`` (metrics stream out of observer events, nothing
  is retained per instance), and when the requested metrics are timing
  derived only, the data phase is skipped entirely
  (``records_only=True`` — no kernels, no channel states).

Rows are deterministic: the same matrix produces bit-identical rows on
every run (exact rational metrics; jitter models are seed-keyed), which is
what makes sweep tables comparable across machines and commits.  One
engine runs every sweep: :func:`run_sweep` submits the matrix to a
transient :class:`~repro.experiment.pool.SweepPool`, which executes it in
process or — with ``workers`` > 1 — fans its
:meth:`~repro.experiment.scenario.Scenario.schedule_key` groups out to
worker processes, one group per task, each with its own cache, scenarios
and rows crossing the process boundary through the exact JSON wire
format.  Either way every group runs through :func:`_run_group` and is
booked by the same pool merge, so the rows stay bit-identical.

Sweeps are **fault-tolerant**: a failing cell does not abort the table.
By default (``on_error="capture"``) the exception becomes a structured
:class:`SweepCellError` on a *failed row* (``SweepResult.failed_rows``,
counted in ``SweepStats.failed_cells``) and every other cell still runs.
``KeyboardInterrupt`` returns the partial table computed so far
(``stats.interrupted``).  A checkpoint store
(:mod:`repro.experiment.store`, ``run_sweep(store=...)``) persists each
healthy row under the scenario's content hash, so resuming an interrupted
or partially-failed sweep recomputes only the missing/failed cells
(``stats.store_hits`` / ``store_misses``).  The recovery paths are
deterministically testable via :class:`~repro.experiment.faults.FaultPlan`
(``run_sweep(faults=...)``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import product
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.platform import Platform
from ..core.timebase import ZERO
from ..errors import ModelError, RuntimeModelError
from ..runtime.executor import RuntimeResult
from ..runtime.overheads import OverheadModel
from ..runtime.observers import (
    _DATA_HOOKS,
    _overrides,
    ExecutionObserver,
    MetricsObserver,
)
from .experiment import Experiment, PipelineCache
from .faults import FaultPlan, apply_cell_faults
from .scenario import Scenario
from .store import SweepStore

__all__ = [
    "DATA_METRICS",
    "DEFAULT_METRICS",
    "ScenarioMatrix",
    "SweepCell",
    "SweepCellError",
    "SweepResult",
    "SweepRow",
    "SweepStats",
    "TIMING_METRICS",
    "run_sweep",
]

#: Metrics computable from timing events alone (the record batches) — a
#: sweep requesting only these skips the data phase entirely.
TIMING_METRICS: Tuple[str, ...] = (
    "total_jobs",
    "executed_jobs",
    "false_jobs",
    "missed_jobs",
    "worst_lateness",
    "makespan",
    "frame_makespan_max",
    "peak_utilization",
)

#: Metrics that need the data phase's kernel-span / channel-write events.
DATA_METRICS: Tuple[str, ...] = ("kernel_busy", "channel_writes")

DEFAULT_METRICS: Tuple[str, ...] = TIMING_METRICS + DATA_METRICS

_SCENARIO_FIELDS = frozenset(f.name for f in dataclasses.fields(Scenario))


def _extract_metric(m: MetricsObserver, name: str) -> Any:
    if name == "total_jobs":
        return m.total_jobs
    if name == "executed_jobs":
        return m.executed_jobs
    if name == "false_jobs":
        return m.false_jobs
    if name == "missed_jobs":
        return m.missed_jobs
    if name == "worst_lateness":
        return m.worst_lateness
    if name == "makespan":
        return m.makespan
    if name == "frame_makespan_max":
        return max(m.frame_makespans(), default=ZERO)
    if name == "peak_utilization":
        # Exact rational, not float: sweep rows promise bit-identical,
        # JSON-round-trippable metrics (the "$frac" tagged encoding), and
        # busy/horizon are both exact.
        return max(m.processor_utilization_exact(), default=ZERO)
    if name == "kernel_busy":
        return sum(
            (s.total_busy for s in m.kernel_span_stats().values()), ZERO
        )
    if name == "channel_writes":
        return sum(m.channel_write_counts().values())
    raise ModelError(
        f"unknown sweep metric {name!r} — known: "
        f"{', '.join(DEFAULT_METRICS)}"
    )


@dataclass(frozen=True)
class SweepCell:
    """One point of the matrix: its index, axis coordinates and scenario."""

    index: int
    coords: Tuple[Tuple[str, Any], ...]
    scenario: Scenario


#: Per-cell extra observers, attached live to that cell's run.
ObserverFactory = Callable[[SweepCell], Sequence[ExecutionObserver]]


class ScenarioMatrix:
    """Cartesian product of axis substitutions over a base scenario.

    *axes* maps scenario field names to non-empty value sequences; cells
    enumerate the product in row-major order (last axis varies fastest),
    with axis order as given.

    Axis values substitute field values **verbatim** — in particular, the
    base scenario's stimulus is *not* resized when ``n_frames`` is an
    axis.  Build the base with a stimulus covering the largest frame
    count swept (the app ``scenario()`` factories take ``n_frames``);
    cells simulating beyond the stimulus horizon see no external data in
    the uncovered frames, which is well-defined FPPN behaviour but rarely
    what a frames-scaling sweep means to measure.  For per-cell stimuli,
    put the stimuli themselves on an axis (``"stimulus": [...]``).
    """

    def __init__(
        self, base: Scenario, axes: Mapping[str, Sequence[Any]]
    ) -> None:
        if not isinstance(base, Scenario):
            raise ModelError("ScenarioMatrix takes a base Scenario")
        self.base = base
        self.axes: Dict[str, Tuple[Any, ...]] = {}
        for name, values in axes.items():
            if name not in _SCENARIO_FIELDS:
                raise ModelError(
                    f"unknown scenario field {name!r} — axes must name "
                    "Scenario fields"
                )
            values = tuple(values)
            if not values:
                raise ModelError(f"axis {name!r} has no values")
            self.axes[name] = values

    def __len__(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    def cells(self) -> Iterator[SweepCell]:
        """Every cell of the product, as (index, coords, scenario)."""
        names = list(self.axes)
        if not names:
            yield SweepCell(0, (), self.base)
            return
        for index, combo in enumerate(product(*self.axes.values())):
            coords = tuple(zip(names, combo))
            yield SweepCell(index, coords, self.base.replace(**dict(coords)))

    def scenarios(self) -> List[Scenario]:
        """All cell scenarios, in cell order."""
        return [cell.scenario for cell in self.cells()]


@dataclass
class SweepCellError:
    """Structured record of one failed sweep cell.

    ``error_type`` / ``message`` mirror the captured exception; ``stage``
    names the pipeline stage that raised (``network`` / ``derivation`` /
    ``scheduling`` / ``run`` — attributed by :class:`PipelineCache`);
    ``retries`` counts the group redispatches that preceded the failure
    (always 0 in process, where there is no supervisor).
    """

    error_type: str
    message: str
    stage: str = "run"
    retries: int = 0

    def describe(self) -> str:
        return (
            f"{self.error_type}: {self.message} "
            f"(stage={self.stage}, retries={self.retries})"
        )


def _cell_error(exc: BaseException, retries: int = 0) -> SweepCellError:
    """The structured row form of a captured per-cell exception."""
    return SweepCellError(
        error_type=type(exc).__name__,
        message=str(exc),
        stage=getattr(exc, "_pipeline_stage", "run"),
        retries=retries,
    )


@dataclass
class SweepRow:
    """One sweep-table row: the cell's axis values plus its metrics."""

    cell: Dict[str, Any]
    metrics: Dict[str, Any]
    #: Retained only with ``run_sweep(..., keep_results=True)``; excluded
    #: from equality so lean and retaining sweeps compare by content.
    result: Optional[RuntimeResult] = field(default=None, compare=False)
    #: Set only on failed rows (``SweepResult.failed_rows``); healthy rows
    #: carry ``None``, so equality against pre-fault-capture rows holds.
    error: Optional[SweepCellError] = None


@dataclass
class SweepStats:
    """What the sweep actually computed (the stage-reuse contract).

    ``workers`` is the number of processes that executed cells (1 for an
    in-process sweep).  When ``run_sweep(workers=N)`` had to run in
    process, ``parallel_fallback`` documents why.  Process-pool sweeps
    merge the per-worker cache counters by summation, so the contract
    becomes *per worker group*: every schedule-key group pays exactly one
    derivation and one scheduling pass (worker caches cannot share
    derivations across processes the way one in-process cache shares them
    across schedule keys).
    """

    cells: int = 0
    runs: int = 0
    networks_built: int = 0
    derivations_computed: int = 0
    schedules_computed: int = 0
    workers: int = 1
    parallel_fallback: Optional[str] = None
    #: Cells whose failure was captured as an error row (``failed_rows``).
    failed_cells: int = 0
    #: Group redispatches the process supervisor performed (crash/timeout
    #: recovery); retried groups re-pay their stage computations, so the
    #: cache counters above count *work done*, not distinct artifacts.
    retries: int = 0
    #: Checkpoint-store traffic (``run_sweep(store=...)``): cells served
    #: from the store vs. cells that had to execute.  Both stay 0 when no
    #: store is passed or the store is read-bypassed (``keep_results`` /
    #: ``observer_factory`` sweeps need live runs).
    store_hits: int = 0
    store_misses: int = 0
    #: True when a ``KeyboardInterrupt`` cut the sweep short — the result
    #: holds every row completed (and drained) before the interrupt.
    interrupted: bool = False
    #: True when the sweep ran on an already-warm resident
    #: :class:`~repro.experiment.pool.SweepPool` (at least one live worker
    #: at submit time — no spawn cost was paid).  Always False in
    #: process and on the transient pool ``run_sweep`` opens.
    pool_reused: bool = False
    #: Schedule-key groups served by a worker's warm ``PipelineCache``
    #: (resident pool only): each such group paid **zero** new
    #: derivations/scheduling passes this sweep.
    warm_group_hits: int = 0
    #: Scenario/stimulus payloads a worker decoded from its content-hash
    #: cache instead of re-parsing JSON (resident pool only).
    payload_cache_hits: int = 0


@dataclass
class SweepResult:
    """The sweep's table: axes, requested metrics, rows and stage stats.

    ``rows`` holds only *healthy* rows (still in cell order), so they stay
    bit-identical to a fault-free run's rows; cells whose execution failed
    land in ``failed_rows`` with a :class:`SweepCellError` attached, and
    cells never reached (interrupted sweeps) appear in neither.
    """

    axes: Dict[str, Tuple[Any, ...]]
    metrics: Tuple[str, ...]
    rows: List[SweepRow]
    stats: SweepStats
    failed_rows: List[SweepRow] = field(default_factory=list)

    def column(self, name: str) -> List[Any]:
        """All values of one metric (or axis) column, in cell order.

        Failed cells are not part of any column — columns align with
        ``rows``, the healthy table.
        """
        if name in self.metrics:
            return [row.metrics[name] for row in self.rows]
        if name in self.axes:
            return [row.cell[name] for row in self.rows]
        raise ModelError(f"unknown sweep column {name!r}")

    def table(self) -> str:
        """Aligned text rendering of the sweep table (plus any failures)."""
        headers = list(self.axes) + list(self.metrics)
        grid = [headers]
        for row in self.rows:
            grid.append(
                [_cell_str(row.cell[a]) for a in self.axes]
                + [_cell_str(row.metrics[m]) for m in self.metrics]
            )
        widths = [max(len(r[i]) for r in grid) for i in range(len(headers))]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in grid
        ]
        lines.insert(1, "  ".join("-" * w for w in widths).rstrip())
        if self.failed_rows:
            lines.append("")
            lines.append(f"failed cells ({len(self.failed_rows)}):")
            for row in self.failed_rows:
                coords = ", ".join(
                    f"{name}={_cell_str(v)}" for name, v in row.cell.items()
                )
                lines.append(f"  ! {coords}: {row.error.describe()}")
        if self.stats.interrupted:
            lines.append("")
            lines.append(
                f"interrupted: {len(self.rows)}/{self.stats.cells} cells "
                "completed before KeyboardInterrupt"
            )
        return "\n".join(lines)


def _cell_str(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, Platform):
        return value.describe()
    if isinstance(value, OverheadModel):
        return (
            f"ov({value.first_frame_arrival}/"
            f"{value.steady_frame_arrival}/{value.per_job})"
        )
    return str(value)


def _check_metrics(metrics: Sequence[str]) -> Tuple[Tuple[str, ...], bool]:
    """Validated metric tuple plus whether any metric needs the data phase."""
    metrics = tuple(metrics)
    if not metrics:
        raise ModelError("run_sweep needs at least one metric")
    for name in metrics:
        if name not in DEFAULT_METRICS:
            raise ModelError(
                f"unknown sweep metric {name!r} — known: "
                f"{', '.join(DEFAULT_METRICS)}"
            )
    return metrics, any(name in DATA_METRICS for name in metrics)


def _check_cell_modes(cell: SweepCell, metrics: Tuple[str, ...],
                      want_data: bool) -> None:
    if cell.scenario.records_only and want_data:
        raise RuntimeModelError(
            f"cell {dict(cell.coords)!r} is records_only but the sweep "
            f"requests data metrics "
            f"({', '.join(n for n in metrics if n in DATA_METRICS)}) — "
            "drop them or clear records_only"
        )


def _run_cell(
    cell: SweepCell,
    metrics: Tuple[str, ...],
    want_data: bool,
    *,
    lean: bool,
    keep_results: bool,
    cache: PipelineCache,
    extra_observers: Sequence[ExecutionObserver] = (),
) -> Tuple[Dict[str, Any], Optional[RuntimeResult]]:
    """Execute one cell; called only by :func:`_run_group`.

    Returns the row's metric values plus the retained result (``None``
    unless *keep_results*).  Keeping this the only place a cell is
    configured and executed is what makes process-pool rows
    bit-identical to in-process rows by construction.
    """
    scenario = cell.scenario
    _check_cell_modes(cell, metrics, want_data)
    # Per-record aggregates the table does not ask for are switched
    # off: each costs work per job instance.  (Responses are not a sweep
    # metric.)
    observer = MetricsObserver(
        track_responses=False,
        track_utilization="peak_utilization" in metrics,
        track_frame_spans="frame_makespan_max" in metrics,
    )
    observers: List[ExecutionObserver] = [observer, *extra_observers]
    # Extra observers that consume data-phase events keep the data
    # phase alive even when the table's metrics alone would allow
    # records_only — they attach live and must see their events.
    cell_wants_data = want_data or any(
        _overrides(ob, name, base)
        for ob in observers[1:]
        for name, base in _DATA_HOOKS
    )
    if keep_results:
        # Retained rows must be usable post-hoc (replay, observables,
        # record-derived metrics), so record collection is forced on even
        # when the base scenario itself runs lean — retaining a
        # record-suppressed result would hand back rows whose result
        # cannot report anything.
        run_scenario = (
            scenario if scenario.collect_records
            else scenario.replace(collect_records=True)
        )
    elif lean:
        run_scenario = scenario.replace(
            records_only=scenario.records_only or not cell_wants_data,
            collect_records=False,
            collect_trace=False,
        )
    else:
        run_scenario = scenario
    experiment = Experiment(run_scenario, cache=cache)
    result = experiment.run(observers=observers)
    return (
        {n: _extract_metric(observer, n) for n in metrics},
        result if keep_results else None,
    )


@dataclass
class _GroupOutcome:
    """What running one schedule-key group produced, keyed by cell index.

    The stage counters are deltas over the group's run, so a group served
    entirely from a warm cache contributes zero.  ``group_cache_hit`` and
    ``payload_hits`` report a resident worker's warm-cache reuse; they
    stay unset in process.
    """

    metrics: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    errors: Dict[int, SweepCellError] = field(default_factory=dict)
    results: Dict[int, RuntimeResult] = field(default_factory=dict)
    networks_built: int = 0
    derivations_computed: int = 0
    schedules_computed: int = 0
    interrupted: bool = False
    group_cache_hit: bool = False
    payload_hits: int = 0


def _run_group(
    cells: Sequence[SweepCell],
    metrics: Tuple[str, ...],
    want_data: bool,
    *,
    lean: bool,
    cache: PipelineCache,
    faults: Optional[FaultPlan],
    in_worker: bool,
    retries: int = 0,
    keep_results: bool = False,
    observer_factory: Optional[ObserverFactory] = None,
    on_error: str = "capture",
) -> _GroupOutcome:
    """Execute one group's cells in order; the one loop over a group.

    A worker process and the in-process backend both run groups through
    here, which is what makes their rows bit-identical by construction.
    A raising cell becomes an error record (stamped with *retries*, the
    group's redispatch count) while the rest of the group still runs,
    unless *on_error* is ``"raise"``, which re-raises the cell's own
    exception.  A ``KeyboardInterrupt`` — real, or a parent-side
    :class:`FaultPlan` interrupt, which fires before its cell — stops the
    group and returns what completed with ``interrupted`` set.
    """
    outcome = _GroupOutcome()
    nets0 = cache.networks_built
    derivs0 = cache.derivations_computed
    scheds0 = cache.schedules_computed
    for cell in cells:
        try:
            apply_cell_faults(faults, cell.index, in_worker=in_worker)
            extra = (
                observer_factory(cell) if observer_factory is not None else ()
            )
            cell_metrics, result = _run_cell(
                cell, metrics, want_data,
                lean=lean, keep_results=keep_results, cache=cache,
                extra_observers=extra,
            )
        except KeyboardInterrupt:
            outcome.interrupted = True
            break
        except Exception as exc:
            if on_error == "raise":
                raise
            outcome.errors[cell.index] = _cell_error(exc, retries)
            continue
        outcome.metrics[cell.index] = cell_metrics
        if result is not None:
            outcome.results[cell.index] = result
    outcome.networks_built = cache.networks_built - nets0
    outcome.derivations_computed = cache.derivations_computed - derivs0
    outcome.schedules_computed = cache.schedules_computed - scheds0
    return outcome


def run_sweep(
    matrix: ScenarioMatrix,
    metrics: Sequence[str] = DEFAULT_METRICS,
    *,
    lean: bool = True,
    keep_results: bool = False,
    observer_factory: Optional[ObserverFactory] = None,
    cache: Optional[PipelineCache] = None,
    workers: int = 1,
    store: Optional[SweepStore] = None,
    faults: Optional[FaultPlan] = None,
    on_error: str = "capture",
    group_timeout: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff: float = 0.25,
    on_row: Optional[Callable[[SweepRow], None]] = None,
    on_progress: Optional[Callable[[Any], None]] = None,
) -> SweepResult:
    """Execute every cell of *matrix* and tabulate the requested *metrics*.

    The sweep runs on a transient :class:`~repro.experiment.pool.SweepPool`
    opened for this one submission: in process (``workers=0`` pool) or
    across worker processes.  Callers serving repeated sweep traffic
    should hold a ``SweepPool`` open instead and keep its workers (and
    their warm caches) across submissions.

    Parameters
    ----------
    metrics:
        Row columns, drawn from :data:`TIMING_METRICS` and
        :data:`DATA_METRICS`.  When no data metric is requested the cells
        run ``records_only`` (the data phase — kernels, channel states —
        is skipped entirely).
    lean:
        Run cells with ``collect_records=False`` / ``collect_trace=False``
        (observer-streaming only; nothing retained per instance).  Set
        ``False`` to honour each scenario's own executor flags.
    keep_results:
        Retain every cell's full :class:`RuntimeResult` on its row.
        Record collection is forced on for the retained runs (a lean base
        scenario would otherwise retain record-suppressed, unusable
        results); the other executor flags stay as the scenario says.
    observer_factory:
        Optional per-cell extra observers, attached live to that cell's
        run (e.g. exporters or dashboards fed by the same event streams).
    cache:
        Stage cache to (re)use; by default every sweep gets a fresh one.
        Pass a shared cache to chain sweeps over the same workloads.
    workers:
        Maximum number of worker processes.  The default 1 runs every
        cell in the calling process.  ``workers > 1`` dispatches the
        cells' schedule-key groups to spawned worker processes, unless
        :func:`~repro.experiment.pool.serial_fallback_reason` names a
        reason the sweep cannot be dispatched (an ``observer_factory`` or
        ``keep_results`` sweep, non-serialisable scenarios, a shared
        ``cache``, or a single schedule-key group): then it runs in
        process and :attr:`SweepStats.parallel_fallback` records why.
    store:
        Optional checkpoint store (:mod:`repro.experiment.store`).  Cells
        whose ``(scenario_hash, metrics)`` key the store already holds are
        served from it (``stats.store_hits``) instead of executing; every
        freshly-computed healthy row is persisted.  Store *reads* are
        bypassed for ``keep_results`` / ``observer_factory`` sweeps, which
        need live runs (writes still happen), and for scenarios without a
        content key (code-bearing workloads/WCETs).
    faults:
        Optional deterministic :class:`~repro.experiment.faults.FaultPlan`
        for testing the recovery paths; fires only for cells that actually
        execute (store hits never fault).
    on_error:
        ``"capture"`` (default) turns a failing cell into an error row on
        :attr:`SweepResult.failed_rows` and keeps sweeping; ``"raise"``
        restores abort-on-first-failure (an in-process sweep re-raises the
        cell's exception, a process pool raises
        :class:`~repro.errors.SweepError` naming the first failed cell).
    group_timeout:
        Per-group deadline in seconds (``> 0``) for the process
        supervisor: a dispatched group that does not reply in time is
        terminated and retried (workers are pre-booted when deadlines are
        active, so the deadline measures group runtime, not process
        spawn).  ``None`` (default) disables deadlines.  In-process
        sweeps ignore it (nothing to terminate).
    max_retries:
        How many times the process supervisor redispatches a group after
        a worker crash or timeout before degrading it to error rows.
    retry_backoff:
        Base seconds of the exponential backoff between a group's
        redispatches (``retry_backoff * 2**retries_so_far``).
    on_row:
        Optional per-cell row stream: called with each *healthy*
        :class:`SweepRow` (store hits included) before the assembled
        result returns — the same contract as :meth:`SweepPool.submit`'s
        ``on_row``, so live sinks
        (:class:`~repro.runtime.telemetry.ProgressObserver`) work on
        every backend.  Rows stream in completion order, group by group
        (store hits first); the returned table is in cell order.  The
        callback is user code and *is* part of the sweep: an exception it
        raises surfaces to the caller after its group's bookkeeping
        completes.
    on_progress:
        Optional milestone stream of a process-pool sweep
        (:class:`~repro.experiment.pool.PoolEvent` values: enqueue,
        dispatch, group completion, retries).  Delivery is best-effort
        — exceptions are swallowed — and an in-process sweep emits
        nothing.
    """
    from .pool import SweepPool, serial_fallback_reason

    if workers < 1:
        raise ModelError("workers must be >= 1")
    fallback = None if workers == 1 else serial_fallback_reason(
        matrix,
        keep_results=keep_results,
        observer_factory=observer_factory,
        cache=cache,
    )
    in_process = workers == 1 or fallback is not None
    with SweepPool(
        0 if in_process else workers,
        group_timeout=group_timeout,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
    ) as pool:
        result = pool.submit(
            matrix, metrics,
            lean=lean, store=store, faults=faults,
            on_error=on_error, on_row=on_row,
            on_progress=None if in_process else on_progress,
            keep_results=keep_results, observer_factory=observer_factory,
            cache=cache,
        ).result()
    result.stats.parallel_fallback = fallback
    return result
