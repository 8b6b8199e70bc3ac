"""The sweep engine: :class:`SweepPool`, in process or on resident workers.

Every sweep runs on a :class:`SweepPool`.
:func:`~repro.experiment.sweep.run_sweep` opens a transient pool for one
submission; callers serving repeated sweep traffic hold one open across
many :meth:`~SweepPool.submit` calls.  Both backends run a schedule-key
group (:func:`schedule_key_groups`) through
:func:`repro.experiment.sweep._run_group` and book its outcome through
the one merge here, so their rows are **bit-identical**:

* ``SweepPool(workers=0)`` runs each group in the calling thread, on
  Python objects: no wire, no process, no poll sleep.  All groups of a
  submission share one :class:`~repro.experiment.experiment.PipelineCache`,
  and only this backend takes live objects (``keep_results``,
  ``observer_factory``, a shared ``cache`` — see
  :func:`serial_fallback_reason`).
* ``SweepPool(workers=N)`` spawns up to *N* worker processes once and
  keeps them alive across submissions, so repeated traffic stops paying
  process spawn (``SweepStats.pool_reused``) and stage recomputation:
  workers keep a bounded LRU of one ``PipelineCache`` per schedule key
  plus decoded ``Scenario`` / ``Stimulus`` payloads by content hash, so
  a resubmitted matrix pays **zero** new derivations/scheduling passes
  (``warm_group_hits`` / ``payload_cache_hits``; :meth:`~SweepPool.
  evict_caches` clears them).  Scenarios go out and rows come back as
  data in the exact tagged JSON wire format of :mod:`repro.io.json_io`.
  Each worker talks to the parent over its own pipe, and groups are
  routed by **schedule-key affinity** — a key always returns to the
  worker that computed it — so the warm state actually gets hit.

:meth:`~SweepPool.submit` enqueues a matrix's groups and returns a
:class:`SweepTicket` immediately; pending matrices interleave at group
granularity, rows stream through ``on_row`` as groups complete, and
``ticket.result()`` drives the pool until its submission finishes.
Checkpoint-store hits are resolved parent-side before dispatch and
computed rows are persisted as groups merge.  The process supervisor
sees a dead worker as end-of-file on its pipe and respawns it *into its
slot* with a fresh pipe (only its group is charged a retry), terminates
groups past their deadline, retries with exponential backoff up to
``max_retries``, and on ``KeyboardInterrupt`` drains completed groups,
reaps every worker and returns the partial result with
``stats.interrupted`` set.  :class:`~repro.experiment.faults.
FaultPlan` injection works per submission on both backends.

Spawn's usual rule applies: a *script* using a process pool at import
time must guard it with ``if __name__ == "__main__":`` (workers use the
spawn start method unconditionally and re-import the main module).
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import (
    ModelError,
    SweepError,
    SweepTimeoutError,
    WorkerCrashError,
)
from ..runtime.executor import RuntimeResult
from .experiment import PipelineCache
from .faults import FaultPlan
from .store import SweepStore, metrics_key, store_key
from .sweep import (
    DEFAULT_METRICS,
    ObserverFactory,
    ScenarioMatrix,
    SweepCell,
    SweepCellError,
    SweepResult,
    SweepRow,
    SweepStats,
    _cell_error,
    _check_cell_modes,
    _check_metrics,
    _GroupOutcome,
    _run_group,
)

__all__ = [
    "PoolEvent",
    "SweepPool",
    "SweepTicket",
    "schedule_key_groups",
    "serial_fallback_reason",
]

#: Supervisor poll period [s]: how long a collect blocks for replies
#: before re-checking dispatch and deadlines.
_POLL_INTERVAL = 0.02


def _group_cells(cells: Sequence[SweepCell]) -> List[List[SweepCell]]:
    groups: Dict[Any, List[SweepCell]] = {}
    for cell in cells:
        groups.setdefault(cell.scenario.schedule_key(), []).append(cell)
    return list(groups.values())


def schedule_key_groups(matrix: ScenarioMatrix) -> List[List[SweepCell]]:
    """The matrix's cells grouped by schedule key, in first-seen order.

    One group is the unit of dispatch *and* of stage reuse: all its cells
    share one derivation and one schedule, so a worker owning the whole
    group pays each exactly once from its private cache.
    """
    return _group_cells(list(matrix.cells()))


def _live_object_reason(
    keep_results: bool,
    observer_factory: Optional[ObserverFactory],
    cache: Optional[PipelineCache],
) -> Optional[str]:
    """Why these submit options need the in-process backend, if they do."""
    if observer_factory is not None:
        return (
            "observer_factory attaches live in-process observers, which "
            "cannot be shipped to worker processes"
        )
    if keep_results:
        return (
            "keep_results retains full RuntimeResult objects, which are "
            "not serialised across the process boundary"
        )
    if cache is not None:
        return (
            "a caller-shared PipelineCache cannot be shared with worker "
            "processes — drop it to fan out"
        )
    return None


def serial_fallback_reason(
    matrix: ScenarioMatrix,
    *,
    keep_results: bool = False,
    observer_factory: Optional[ObserverFactory] = None,
    cache: Optional[PipelineCache] = None,
) -> Optional[str]:
    """Why this sweep must run in process, or ``None`` if it can fan out.

    Live objects (``observer_factory`` observers, ``keep_results``
    results, a caller-shared cache) cannot cross the process boundary;
    scenarios embedding code a freshly-spawned worker cannot reconstruct
    (:meth:`~repro.experiment.scenario.Scenario.dispatch_blocker`) are
    refused per cell; and a single schedule-key group has nothing to fan
    out.  The returned string is stored verbatim in
    ``SweepStats.parallel_fallback`` so a ``workers > 1`` caller can see
    which rule demoted the sweep.
    """
    reason = _live_object_reason(keep_results, observer_factory, cache)
    if reason is not None:
        return reason
    cells = list(matrix.cells())
    # The *cells* are what gets dispatched, so they are the authority —
    # the base scenario may carry code an axis substitutes away (a
    # workload axis over registered names), or vice versa.
    for cell in cells:
        blocker = cell.scenario.dispatch_blocker()
        if blocker is not None:
            return f"scenario is not dispatchable: {blocker}"
    if len(_group_cells(cells)) < 2:
        return (
            "matrix has a single schedule-key group — nothing to fan out "
            "(parallelism is per distinct schedule key)"
        )
    return None


def _check_supervision(
    group_timeout: Optional[float],
    max_retries: Optional[int],
    retry_backoff: Optional[float],
) -> None:
    """Range-check supervision settings (``None`` means "not given")."""
    if group_timeout is not None and not group_timeout > 0:
        raise ModelError(
            f"group_timeout must be > 0 seconds or None, got {group_timeout!r}"
        )
    if max_retries is not None and max_retries < 0:
        raise ModelError("max_retries must be >= 0")
    if retry_backoff is not None and retry_backoff < 0:
        raise ModelError("retry_backoff must be >= 0")


def _payload_hash(data: Any) -> str:
    """Content hash of a JSON-able payload (canonical encoding)."""
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PoolEvent:
    """One milestone in a submission's lifecycle (telemetry stream).

    Emitted to the ``on_progress`` callback of :meth:`SweepPool.submit`
    at group granularity — the complement of the per-cell ``on_row``
    stream.  Delivery is **best-effort**: a raising progress sink is
    swallowed and never perturbs the sweep (unlike ``on_row``, whose
    errors are surfaced after bookkeeping — rows are data, progress is
    telemetry).

    ``kind`` is one of ``"store-hits"`` (cells resolved from the
    checkpoint store at submit), ``"enqueued"`` (groups queued behind
    the pending queue), ``"dispatch"`` (group handed to a worker slot),
    ``"group-done"`` (reply merged), ``"group-failed"`` (retry budget
    exhausted — detail carries the error), ``"retry"`` (group requeued
    after a crash/timeout) and ``"finished"`` (submission complete).
    """

    kind: str
    gid: Optional[int] = None
    cells: int = 0
    groups: int = 0
    detail: str = ""


# ---------------------------------------------------------------------------
# wire format (parent <-> worker), all JSON text
# ---------------------------------------------------------------------------
def _encode_service_group(
    group: Sequence[SweepCell],
    metrics: Tuple[str, ...],
    lean: bool,
    faults: Optional[FaultPlan] = None,
    attempt: int = 0,
) -> str:
    """One group as wire JSON, with content hashes for the warm caches.

    Stimuli are pooled by object identity (cells of a group usually
    share the base scenario's stimulus, and stimuli dominate the
    payload) and every scenario body / pooled stimulus carries its
    content hash, so a worker that already decoded the same bytes in an
    earlier sweep reuses the decoded object instead of re-parsing it.
    The scenario hash is computed over the stimulus-free body — stimulus
    identity is covered by the pool entry's own hash.
    """
    from ..io.json_io import scenario_to_dict

    pool: List[Dict[str, Any]] = []
    pool_index: Dict[int, int] = {}
    cells = []
    for cell in group:
        stimulus = cell.scenario.stimulus
        if stimulus is None:
            data = scenario_to_dict(cell.scenario)
            data.pop("stimulus", None)
            stim_ref = None
        else:
            stim_ref = pool_index.get(id(stimulus))
            if stim_ref is None:
                data = scenario_to_dict(cell.scenario)
                stim_ref = pool_index[id(stimulus)] = len(pool)
                stim_data = data.pop("stimulus")
                pool.append(
                    {"hash": _payload_hash(stim_data), "data": stim_data}
                )
            else:
                # Already pooled: encode the scenario without re-encoding
                # the (potentially large) stimulus a second time.
                data = scenario_to_dict(cell.scenario.replace(stimulus=None))
                data.pop("stimulus", None)
        cells.append({
            "index": cell.index,
            "scenario": data,
            "hash": _payload_hash(data),
            "stimulus": stim_ref,
        })
    plan = (
        None if faults is None
        else faults.restrict([cell.index for cell in group])
    )
    return json.dumps({
        "metrics": list(metrics),
        "lean": lean,
        "stimulus_pool": pool,
        "cells": cells,
        "faults": None if plan is None or plan.is_empty
        else plan.to_jsonable(),
        "attempt": attempt,
    })


class _WorkerCaches:
    """The warm state a resident worker keeps between sweeps.

    Three bounded LRUs: one :class:`PipelineCache` per schedule key
    (the unit of stage reuse — evicting an entry drops that key's
    network/derivation/schedule in one piece), plus decoded ``Scenario``
    and ``Stimulus`` payloads keyed by content hash.  ``payload_hits``
    and the per-group pipeline hit are reported back with each reply so
    the parent can surface per-sweep reuse in :class:`SweepStats`.
    """

    def __init__(self, max_groups: int, max_payloads: int) -> None:
        self.max_groups = max_groups
        self.max_payloads = max_payloads
        self.pipelines: "OrderedDict[str, PipelineCache]" = OrderedDict()
        self.scenarios: "OrderedDict[str, Any]" = OrderedDict()
        self.stimuli: "OrderedDict[str, Any]" = OrderedDict()
        self.payload_hits = 0

    def begin_group(self) -> None:
        self.payload_hits = 0

    def clear(self) -> None:
        self.pipelines.clear()
        self.scenarios.clear()
        self.stimuli.clear()

    def pipeline(self, key: str) -> Tuple[PipelineCache, bool]:
        cache = self.pipelines.get(key)
        if cache is not None:
            self.pipelines.move_to_end(key)
            return cache, True
        cache = PipelineCache()
        self.pipelines[key] = cache
        while len(self.pipelines) > self.max_groups:
            self.pipelines.popitem(last=False)
        return cache, False

    def _memo(
        self, table: "OrderedDict[str, Any]", key: str,
        decode: Callable[[], Any],
    ) -> Any:
        value = table.get(key)
        if value is not None:
            table.move_to_end(key)
            self.payload_hits += 1
            return value
        value = decode()
        table[key] = value
        while len(table) > self.max_payloads:
            table.popitem(last=False)
        return value

    def scenario(self, key: str, data: Dict[str, Any]) -> Any:
        from ..io.json_io import scenario_from_dict

        return self._memo(self.scenarios, key,
                          lambda: scenario_from_dict(data))

    def stimulus(self, key: str, data: Any) -> Any:
        from ..io.json_io import stimulus_from_dict

        return self._memo(self.stimuli, key,
                          lambda: stimulus_from_dict(data))


def _service_run_group(payload: str, caches: _WorkerCaches) -> str:
    """Run one schedule-key group against the worker's warm caches.

    Decode, :func:`~repro.experiment.sweep._run_group`, encode: the
    :class:`PipelineCache` is fetched from (or installed into) the
    per-schedule-key LRU, and scenario/stimulus decoding is skipped when
    the content hash hits.  The reply's stats report cache counter
    *deltas*, so a warm group contributes exactly zero
    derivations/schedules to the sweep's totals.
    """
    from ..io.json_io import value_to_jsonable
    from .sweep import DATA_METRICS

    data = json.loads(payload)
    metrics = tuple(data["metrics"])
    plan_data = data.get("faults")

    caches.begin_group()
    stimuli = [
        caches.stimulus(entry["hash"], entry["data"])
        for entry in data.get("stimulus_pool", ())
    ]
    cells = []
    for item in data["cells"]:
        scenario = caches.scenario(item["hash"], item["scenario"])
        stim_ref = item.get("stimulus")
        if stim_ref is not None:
            scenario = scenario.replace(stimulus=stimuli[stim_ref])
        cells.append(
            SweepCell(index=int(item["index"]), coords=(), scenario=scenario)
        )

    # All cells of a group share one schedule key by construction; repr
    # is a stable worker-local identity for it (the cache never leaves
    # this process).
    cache_key = repr(cells[0].scenario.schedule_key()) if cells else ""
    cache, warm = caches.pipeline(cache_key)
    outcome = _run_group(
        cells, metrics, any(name in DATA_METRICS for name in metrics),
        lean=bool(data["lean"]),
        cache=cache,
        faults=(
            None if plan_data is None else FaultPlan.from_jsonable(plan_data)
        ),
        in_worker=True,
        retries=int(data.get("attempt", 0)),
    )
    if outcome.interrupted:
        raise KeyboardInterrupt
    return json.dumps({
        "rows": [
            {
                "index": index,
                "metrics": {
                    name: value_to_jsonable(value)
                    for name, value in cell_metrics.items()
                },
            }
            for index, cell_metrics in outcome.metrics.items()
        ],
        "errors": [
            {
                "index": index,
                "error": {
                    "type": error.error_type,
                    "message": error.message,
                    "stage": error.stage,
                    "retries": error.retries,
                },
            }
            for index, error in outcome.errors.items()
        ],
        "stats": {
            "runs": len(outcome.metrics),
            "networks_built": outcome.networks_built,
            "derivations_computed": outcome.derivations_computed,
            "schedules_computed": outcome.schedules_computed,
            "group_cache_hit": warm,
            "payload_hits": caches.payload_hits,
        },
    })


def _decode_reply(payload: str) -> _GroupOutcome:
    """The :class:`_GroupOutcome` a worker's reply JSON carries."""
    from ..io.json_io import value_from_jsonable

    data = json.loads(payload)
    stats = data["stats"]
    return _GroupOutcome(
        metrics={
            int(row["index"]): {
                name: value_from_jsonable(value)
                for name, value in row["metrics"].items()
            }
            for row in data["rows"]
        },
        errors={
            int(item["index"]): SweepCellError(
                error_type=item["error"]["type"],
                message=item["error"]["message"],
                stage=item["error"].get("stage", "run"),
                retries=int(item["error"].get("retries", 0)),
            )
            for item in data.get("errors", ())
        },
        networks_built=int(stats["networks_built"]),
        derivations_computed=int(stats["derivations_computed"]),
        schedules_computed=int(stats["schedules_computed"]),
        group_cache_hit=bool(stats.get("group_cache_hit")),
        payload_hits=int(stats.get("payload_hits", 0)),
    )


def _service_worker(
    conn: Any, max_cached_groups: int, max_cached_payloads: int,
) -> None:
    """Resident worker main loop (spawn target).

    Announces readiness on its pipe *conn* (the parent holds a group's
    payload and deadline clock until then, so a tight ``group_timeout``
    measures group runtime, not interpreter spawn), then serves ``run``
    / ``evict`` messages until ``stop``.  The parent holding the only
    other end, its death or close reads here as end-of-file and the
    worker exits.  Warm state lives in :class:`_WorkerCaches` and
    survives across messages — that persistence *is* the service.
    """
    caches = _WorkerCaches(max_cached_groups, max_cached_payloads)
    try:
        conn.send(("ready", None))
        while True:
            kind, payload = conn.recv()
            if kind == "stop":
                return
            if kind == "evict":
                caches.clear()
            elif kind == "run":
                conn.send(("reply", _service_run_group(payload, caches)))
    except (EOFError, OSError, KeyboardInterrupt):
        return


# ---------------------------------------------------------------------------
# parent-side bookkeeping
# ---------------------------------------------------------------------------
@dataclass
class _Submission:
    """One submitted matrix: its cells, options and accumulating result."""

    sid: int
    axes: Dict[str, Tuple[Any, ...]]
    cells: List[SweepCell]
    metrics: Tuple[str, ...]
    want_data: bool
    lean: bool
    stats: SweepStats
    on_error: str
    on_row: Optional[Callable[[SweepRow], None]]
    on_progress: Optional[Callable[[PoolEvent], None]]
    group_timeout: Optional[float]
    max_retries: int
    retry_backoff: float
    faults: Optional[FaultPlan] = None
    store: Optional[SweepStore] = None
    #: In-process only: live per-cell options and the one stage cache
    #: every group of the submission shares.
    keep_results: bool = False
    observer_factory: Optional[ObserverFactory] = None
    cache: Optional[PipelineCache] = None
    #: Fair-scheduling tag: the pending-group queue round-robins across
    #: distinct client tags, FIFO within a tag (``None`` is a tag too).
    client: Optional[str] = None
    mkey: str = ""
    skey_by_index: Dict[int, str] = field(default_factory=dict)
    metrics_by_index: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    errors_by_index: Dict[int, SweepCellError] = field(default_factory=dict)
    results_by_index: Dict[int, RuntimeResult] = field(default_factory=dict)
    outstanding: int = 0
    finished: bool = False
    cancelled: bool = False
    result: Optional[SweepResult] = None


@dataclass
class _PoolGroup:
    """One schedule-key group's dispatch bookkeeping."""

    gid: int
    submission: _Submission
    cells: List[SweepCell]
    key: Any
    #: Budget-charged redispatches so far (crash / timeout recovery).
    attempt: int = 0
    #: Monotonic time before which the group must not be redispatched.
    not_before: float = 0.0

    @property
    def indices(self) -> List[int]:
        return [cell.index for cell in self.cells]


class _WorkerSlot:
    """Parent-side record of one resident worker process.

    ``conn`` is the parent's end of the worker's one pipe; a respawn
    replaces both, so nothing from an earlier process can reach the
    slot.  The in-process backend has one slot with no process: a group
    it is handed runs at dispatch, and its ``outcome`` waits for
    collection.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Any = None
        self.conn: Any = None
        self.ready = False
        self.current: Optional[_PoolGroup] = None
        #: The current group's payload, held until the worker is ready.
        self.payload: Optional[str] = None
        self.deadline: Optional[float] = None
        self.outcome: Optional[_GroupOutcome] = None

    @property
    def idle(self) -> bool:
        return self.current is None


class SweepTicket:
    """Handle for one :meth:`SweepPool.submit` call.

    ``result()`` drives the pool until the submission finishes and
    returns its :class:`SweepResult` (subsequent calls return the same
    object); ``cancel()`` withdraws groups not yet dispatched.  Rows
    stream through the submission's ``on_row`` callback as replies
    merge, in completion order — the final result is in cell order.
    """

    def __init__(self, pool: "SweepPool", submission: _Submission) -> None:
        self._pool = pool
        self._submission = submission

    @property
    def done(self) -> bool:
        """True once every group finished (or was cancelled/failed)."""
        return self._submission.finished

    @property
    def cancelled(self) -> bool:
        return self._submission.cancelled

    def cancel(self) -> bool:
        """Withdraw the submission's not-yet-dispatched groups.

        Groups already running complete normally and their rows are
        kept; everything still queued is dropped.  The result becomes a
        partial table with ``stats.interrupted`` set (the same shape an
        interrupted sweep returns).  Returns ``True`` if anything was
        actually withdrawn.
        """
        return self._pool._cancel(self._submission)

    def result(self) -> SweepResult:
        """Drive the pool until this submission completes; its table."""
        sub = self._submission
        self._pool._pump(sub)
        if sub.result is None:
            sub.result = self._pool._assemble(sub)
        if sub.on_error == "raise" and sub.result.failed_rows:
            first = sub.result.failed_rows[0]
            raise SweepError(
                f"sweep cell {first.cell!r} failed — "
                f"{first.error.describe()}"
            )
        return sub.result


class SweepPool:
    """Resident sweep service: spawn once, stay warm, stream rows.

    Parameters
    ----------
    workers:
        Maximum resident worker processes.  Slots are spawned lazily as
        groups demand them (a submission fully served by its checkpoint
        store spawns nothing) and then stay alive until :meth:`close`.
        ``0`` selects the in-process backend: groups run in the calling
        thread and nothing is spawned.
    group_timeout, max_retries, retry_backoff:
        Pool-wide supervision defaults, overridable per ``submit``;
        semantics identical to :func:`~repro.experiment.sweep.run_sweep`
        (``group_timeout`` must be ``None`` or ``> 0``).
    max_cached_groups, max_cached_payloads:
        Bounds of each worker's warm LRUs (pipeline caches per schedule
        key / decoded payloads by content hash).

    The pool is a context manager; ``with SweepPool(...) as pool:``
    guarantees the workers are torn down (no orphan processes) on exit.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        group_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.25,
        max_cached_groups: int = 8,
        max_cached_payloads: int = 64,
    ) -> None:
        if workers < 0:
            raise ModelError("SweepPool needs workers >= 0")
        _check_supervision(group_timeout, max_retries, retry_backoff)
        if max_cached_groups < 1 or max_cached_payloads < 1:
            raise ModelError("worker cache bounds must be >= 1")
        self.workers = workers
        self.group_timeout = group_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.max_cached_groups = max_cached_groups
        self.max_cached_payloads = max_cached_payloads
        self._slots: List[_WorkerSlot] = []
        #: schedule_key -> slot index; the routing table that guarantees
        #: a resubmitted group reaches the worker holding its warm cache.
        self._affinity: Dict[Any, int] = {}
        self._pending: List[_PoolGroup] = []
        #: The client tag served by the most recent dispatch — the
        #: round-robin cursor of the fair scheduler (see `_dispatch_next`).
        self._last_client: Optional[str] = None
        self._ctx: Any = None
        self._next_sid = 0
        self._next_gid = 0
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    @property
    def started(self) -> bool:
        """True while at least one resident worker process is alive."""
        return any(
            slot.process is not None and slot.process.is_alive()
            for slot in self._slots
        )

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close(graceful=exc_info[0] is None)

    def close(self, *, graceful: bool = True) -> None:
        """Shut the service down and reap every worker process.

        ``graceful`` sends each worker ``stop`` and closes its pipe: an
        idle worker exits at once, a busy one finishes its group, fails
        to send the reply (which is discarded) and exits; a worker still
        alive after 10 s is terminated.  Otherwise workers are
        terminated immediately.  Unfinished submissions become partial
        results with ``stats.interrupted`` set.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self._stop_workers(graceful)

    def _stop_workers(self, graceful: bool) -> None:
        """Interrupt unfinished submissions and reap every worker.

        The slots go too: a pool that survives (an interrupted one)
        respawns cold workers lazily for its next submission.
        """
        for group in self._pending:
            self._mark_interrupted(group.submission)
        self._pending.clear()
        for slot in self._slots:
            if slot.current is not None:
                self._mark_interrupted(slot.current.submission)
            if slot.process is None:
                continue
            if graceful:
                self._send(slot, ("stop", None))
            else:
                slot.process.terminate()
            slot.conn.close()
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join()
        self._slots = []
        self._affinity.clear()

    def evict_caches(self) -> None:
        """Clear every worker's warm caches (memory back to baseline).

        The workers stay resident — only their cached pipeline stages
        and decoded payloads are dropped, so the next submission pays
        stage computation again but no respawn.
        """
        for slot in self._slots:
            if slot.process is not None:
                self._send(slot, ("evict", None))

    # -- submission -----------------------------------------------------
    def submit(
        self,
        matrix: ScenarioMatrix,
        metrics: Sequence[str] = DEFAULT_METRICS,
        *,
        lean: bool = True,
        cells: Optional[Sequence[SweepCell]] = None,
        store: Optional[SweepStore] = None,
        faults: Optional[FaultPlan] = None,
        on_error: str = "capture",
        on_row: Optional[Callable[[SweepRow], None]] = None,
        on_progress: Optional[Callable[[PoolEvent], None]] = None,
        group_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        retry_backoff: Optional[float] = None,
        client: Optional[str] = None,
        keep_results: bool = False,
        observer_factory: Optional[ObserverFactory] = None,
        cache: Optional[PipelineCache] = None,
    ) -> SweepTicket:
        """Enqueue a matrix; returns a :class:`SweepTicket` immediately.

        Store hits are resolved here, parent-side, before anything is
        dispatched (hit rows stream through ``on_row`` right away and
        never reach a worker).  The remaining cells are enqueued as
        schedule-key groups behind whatever other submissions are
        pending — interleaving is at group granularity.  Nothing
        executes until the pool is driven (``ticket.result()``).

        ``client`` tags the submission for the fair scheduler: the
        pending queue round-robins across distinct client tags (FIFO
        within a tag), so one client's huge matrix cannot starve
        another client's small one.  Untagged submissions all share the
        ``None`` tag, which degenerates to plain FIFO — the pre-service
        behaviour.

        ``on_progress`` receives a best-effort :class:`PoolEvent` stream
        at group granularity (store hits, enqueue, dispatch, done,
        retry, failure, finish) — the live-telemetry complement of the
        per-cell ``on_row`` row stream.

        ``keep_results``, ``observer_factory`` and ``cache`` have
        :func:`~repro.experiment.sweep.run_sweep`'s semantics and need
        the in-process backend (``workers=0``); a process pool refuses
        them, and any cell whose scenario embeds code the workers cannot
        reconstruct, with :class:`~repro.errors.ModelError`.  Under
        ``keep_results`` or ``observer_factory`` the store is written but
        not read: those sweeps need live runs.
        """
        if self._closed:
            raise ModelError("SweepPool is closed")
        metrics, want_data = _check_metrics(metrics)
        if on_error not in ("capture", "raise"):
            raise ModelError(
                f"on_error must be 'capture' or 'raise', got {on_error!r}"
            )
        _check_supervision(group_timeout, max_retries, retry_backoff)
        in_process = self.workers == 0
        if in_process:
            # One stage cache, shared by every group of the submission.
            cache = cache if cache is not None else PipelineCache()
        else:
            reason = _live_object_reason(keep_results, observer_factory, cache)
            if reason is not None:
                raise ModelError(reason)
        if cells is None:
            cells = list(matrix.cells())
        else:
            cells = list(cells)
        for cell in cells:
            _check_cell_modes(cell, metrics, want_data)
            blocker = (
                None if in_process else cell.scenario.dispatch_blocker()
            )
            if blocker is not None:
                raise ModelError(
                    f"scenario is not dispatchable: {blocker}"
                )

        # Count the cells actually submitted: an explicit ``cells=``
        # subset (a resubmission of failed/missing cells, say) must not
        # report the full matrix size — ``table()``'s "interrupted:
        # N/M cells" line and any hit-rate computed from ``stats.cells``
        # would misreport the subset run.
        stats = SweepStats(
            cells=len(cells), workers=1, parallel_fallback=None,
            pool_reused=self.started,
        )
        submission = _Submission(
            sid=self._next_sid,
            axes=dict(matrix.axes),
            cells=cells,
            metrics=metrics,
            want_data=want_data,
            lean=lean,
            stats=stats,
            on_error=on_error,
            on_row=on_row,
            on_progress=on_progress,
            group_timeout=(
                self.group_timeout if group_timeout is None else group_timeout
            ),
            max_retries=(
                self.max_retries if max_retries is None else max_retries
            ),
            retry_backoff=(
                self.retry_backoff if retry_backoff is None else retry_backoff
            ),
            faults=faults,
            store=store,
            keep_results=keep_results,
            observer_factory=observer_factory,
            cache=cache,
            client=client,
        )
        self._next_sid += 1

        # The parent owns the store: hits are resolved before dispatch
        # (hit cells never reach a worker) and computed rows are
        # persisted as groups merge — workers stay store-free.
        submission.mkey = metrics_key(metrics) if store is not None else ""
        store_read = not keep_results and observer_factory is None
        compute_cells: List[SweepCell] = []
        for cell in cells:
            skey = store_key(cell.scenario) if store is not None else None
            if skey is not None:
                submission.skey_by_index[cell.index] = skey
                if store_read:
                    stored = store.get(skey, submission.mkey)
                    if stored is not None:
                        stats.store_hits += 1
                        submission.metrics_by_index[cell.index] = stored
                        self._stream_row(submission, cell, stored)
                        continue
                    stats.store_misses += 1
            compute_cells.append(cell)
        if stats.store_hits:
            self._notify(submission, "store-hits", cells=stats.store_hits)

        groups = _group_cells(compute_cells)
        stats.workers = min(self.workers, len(groups)) or 1
        submission.outstanding = len(groups)
        for group_cells in groups:
            self._pending.append(_PoolGroup(
                gid=self._next_gid,
                submission=submission,
                cells=list(group_cells),
                key=group_cells[0].scenario.schedule_key(),
            ))
            self._next_gid += 1
        self._notify(
            submission, "enqueued",
            cells=len(compute_cells), groups=len(groups),
        )
        if submission.outstanding == 0:
            submission.finished = True
            self._notify(submission, "finished")
        return SweepTicket(self, submission)

    def _notify(self, submission: _Submission, kind: str, **fields: Any) -> None:
        """Deliver one :class:`PoolEvent`, best-effort.

        Progress is telemetry, not data: a raising sink must never
        wedge or fail a sweep, so exceptions are swallowed here (the
        ``on_row`` stream, which *is* data, surfaces its errors after
        group bookkeeping instead).
        """
        if submission.on_progress is None:
            return
        try:
            submission.on_progress(PoolEvent(kind=kind, **fields))
        except Exception:
            pass

    # -- worker slots ---------------------------------------------------
    def _spawn_slot(self) -> _WorkerSlot:
        slot = _WorkerSlot(len(self._slots))
        self._slots.append(slot)
        self._spawn_process(slot)
        return slot

    def _spawn_process(self, slot: _WorkerSlot) -> None:
        import multiprocessing

        if self._ctx is None:
            # Spawn unconditionally: the only start method that is safe
            # and available everywhere (fork inherits arbitrary state).
            self._ctx = multiprocessing.get_context("spawn")
        slot.conn, child = self._ctx.Pipe()
        slot.ready = False
        slot.current = None
        slot.payload = None
        slot.deadline = None
        slot.process = self._ctx.Process(
            target=_service_worker,
            args=(child, self.max_cached_groups, self.max_cached_payloads),
            daemon=True,
        )
        slot.process.start()
        # The worker now holds the only other end: its death reads as
        # EOF here, and the parent's death reads as EOF there.
        child.close()

    def _respawn_slot(self, slot: _WorkerSlot) -> None:
        """Replace a dead/wedged worker process in its slot (cold caches)."""
        slot.process.terminate()
        slot.process.join()
        slot.conn.close()
        self._spawn_process(slot)

    def _send(self, slot: _WorkerSlot, message: Tuple[str, Any]) -> None:
        try:
            slot.conn.send(message)
        except OSError:
            pass  # a dead worker: its EOF is handled by the next collect

    def _start_group(self, slot: _WorkerSlot) -> None:
        """Send a ready worker its held group; the deadline clock starts."""
        payload, slot.payload = slot.payload, None
        timeout = slot.current.submission.group_timeout
        slot.deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        self._send(slot, ("run", payload))

    # -- scheduling -----------------------------------------------------
    def _worker_for(self, group: _PoolGroup) -> Optional[_WorkerSlot]:
        """The slot this group must run on, or ``None`` to keep waiting.

        Affinity first: a schedule key always returns to the slot that
        computed it (waiting for that slot if busy — warmth beats a
        cold start elsewhere).  New keys take an idle slot, growing the
        pool lazily up to its ``workers`` bound.  The in-process backend
        has exactly one slot, so it runs one group at a time.
        """
        if self.workers == 0:
            if not self._slots:
                self._slots.append(_WorkerSlot(0))
            slot = self._slots[0]
            return slot if slot.idle else None
        index = self._affinity.get(group.key)
        if index is not None:
            slot = self._slots[index]
            return slot if slot.idle else None
        for slot in self._slots:
            if slot.idle:
                self._affinity[group.key] = slot.index
                return slot
        if len(self._slots) < self.workers:
            slot = self._spawn_slot()
            self._affinity[group.key] = slot.index
            return slot
        return None

    def _dispatch_ready(self, now: float) -> None:
        while self._dispatch_next(now):
            pass

    def _dispatch_next(self, now: float) -> bool:
        """Dispatch one pending group, fair across client tags.

        Clients take turns: the scheduler cycles through the distinct
        client tags present in the pending queue, starting after the tag
        served by the previous dispatch, and hands out the first
        dispatchable group (backoff elapsed, a worker available —
        affinity still wins over fairness: a group whose warm slot is
        busy keeps waiting for it) of the first tag that has one.  FIFO
        within a tag preserves each client's own submission order, and a
        single tag — every pre-service caller — reduces to the original
        FIFO-over-groups behaviour.  Returns True when a group was
        dispatched.
        """
        order: List[Optional[str]] = []
        seen = set()
        for group in self._pending:
            tag = group.submission.client
            if tag not in seen:
                seen.add(tag)
                order.append(tag)
        if not order:
            return False
        if self._last_client in seen:
            pivot = order.index(self._last_client) + 1
            order = order[pivot:] + order[:pivot]
        for tag in order:
            for group in self._pending:
                if group.submission.client != tag:
                    continue
                if group.not_before > now:
                    continue
                slot = self._worker_for(group)
                if slot is None:
                    continue
                self._dispatch_group(group, slot)
                self._last_client = tag
                return True
        return False

    def _dispatch_group(self, group: _PoolGroup, slot: _WorkerSlot) -> None:
        self._pending.remove(group)
        submission = group.submission
        if slot.process is None:
            slot.current = group
            self._notify(
                submission, "dispatch",
                gid=group.gid, cells=len(group.cells), detail="in-process",
            )
            self._run_in_process(group, slot)
            return
        slot.current = group
        slot.payload = _encode_service_group(
            group.cells, submission.metrics, submission.lean,
            faults=submission.faults, attempt=group.attempt,
        )
        self._notify(
            submission, "dispatch",
            gid=group.gid, cells=len(group.cells),
            detail=f"slot {slot.index}" + (
                f", attempt {group.attempt}" if group.attempt else ""
            ),
        )
        # A booting worker is not reading its pipe yet: a large payload
        # would block this send, so it waits on the slot for ``ready``.
        if slot.ready:
            self._start_group(slot)

    def _run_in_process(self, group: _PoolGroup, slot: _WorkerSlot) -> None:
        """Run *group* in the calling thread; its outcome awaits collection.

        Under ``on_error="raise"`` a failing cell's own exception
        propagates from here, after the group is finished so the ticket
        cannot wedge.
        """
        submission = group.submission
        try:
            slot.outcome = _run_group(
                group.cells, submission.metrics, submission.want_data,
                lean=submission.lean,
                cache=submission.cache,
                faults=submission.faults,
                in_worker=False,
                keep_results=submission.keep_results,
                observer_factory=submission.observer_factory,
                on_error=submission.on_error,
            )
        except BaseException:
            slot.current = None
            self._finish_group(group)
            raise

    # -- collection -----------------------------------------------------
    def _collect_ready(self, *, block: bool, fire_interrupts: bool) -> bool:
        """Merge every available reply; True if any group finished."""
        if self.workers == 0:
            slot = self._slots[0] if self._slots else None
            if slot is None or slot.outcome is None:
                return False
            group, outcome = slot.current, slot.outcome
            slot.current = slot.outcome = None
            self._complete(group, outcome, fire_interrupts)
            return True
        slot_of = {slot.conn: slot for slot in self._slots}
        if not slot_of:
            if block:
                time.sleep(_POLL_INTERVAL)
            return False
        merged_any = False
        for conn in wait(list(slot_of), _POLL_INTERVAL if block else 0):
            slot = slot_of[conn]
            try:
                kind, body = conn.recv()
            except (EOFError, OSError):
                # The worker died, and its pipe goes with it: only its
                # own group (if any) is charged a retry.
                group = slot.current
                self._respawn_slot(slot)
                if group is not None:
                    self._requeue(
                        group, time.monotonic(), WorkerCrashError,
                        "a sweep worker process died mid-group",
                    )
                continue
            if kind == "ready":
                slot.ready = True
                if slot.payload is not None:
                    self._start_group(slot)
                continue
            group = slot.current
            slot.current = None
            slot.deadline = None
            merged_any = True
            self._complete(group, _decode_reply(body), fire_interrupts)
        return merged_any

    def _complete(
        self, group: _PoolGroup, outcome: _GroupOutcome,
        fire_interrupts: bool,
    ) -> None:
        """Merge a finished group's outcome and finish the group."""
        # Group finalisation is exception-safe: once the group has
        # left its slot it is on neither the pending queue nor a
        # slot, so an escaping error from the merge (a raising user
        # ``on_row`` callback or ``store.put``) would otherwise
        # strand it — ``submission.outstanding`` never reaches 0
        # and ``ticket.result()`` pumps forever.  Finish the
        # group's bookkeeping first, then let the error surface.
        try:
            self._merge_reply(group, outcome)
        except BaseException:
            self._finish_group(group)
            raise
        if outcome.interrupted or (
            fire_interrupts
            and group.submission.faults is not None
            and any(
                i in group.submission.faults.interrupt_at
                for i in group.indices
            )
        ):
            # Merge-then-interrupt, like a real Ctrl-C landing after
            # the reply: the firing group's completed rows are kept,
            # its submission is cut short.
            self._mark_interrupted(group.submission)
            if fire_interrupts:
                raise KeyboardInterrupt
            return
        # group-done precedes the "finished" milestone _finish_group
        # may emit — the stream stays causally ordered for renderers.
        self._notify(
            group.submission, "group-done",
            gid=group.gid, cells=len(group.cells),
        )
        self._finish_group(group)

    def _merge_reply(self, group: _PoolGroup, outcome: _GroupOutcome) -> None:
        """Fold one group's outcome into its submission's accumulating state.

        User code runs inside this merge (``store.put`` and the
        ``on_row`` callback), and it may raise.  The merge is structured
        so bookkeeping always completes first: every row's metrics are
        recorded in ``metrics_by_index`` regardless, callback/store
        errors are *deferred*, and the first one re-raises only after
        the whole reply (rows, errors, stats) has merged — the caller
        then finishes the group before letting it propagate, so a buggy
        sink degrades to a visible exception instead of a wedged ticket.
        """
        submission = group.submission
        stats = submission.stats
        cell_by_index = {cell.index: cell for cell in group.cells}
        callback_error: Optional[BaseException] = None
        for index, cell_metrics in outcome.metrics.items():
            submission.metrics_by_index[index] = cell_metrics
            result = outcome.results.get(index)
            if result is not None:
                submission.results_by_index[index] = result
            try:
                if index in submission.skey_by_index:
                    submission.store.put(
                        submission.skey_by_index[index], submission.mkey,
                        cell_metrics,
                    )
                self._stream_row(
                    submission, cell_by_index[index], cell_metrics, result
                )
            except Exception as exc:
                if callback_error is None:
                    callback_error = exc
        submission.errors_by_index.update(outcome.errors)
        stats.failed_cells += len(outcome.errors)
        stats.runs += len(outcome.metrics)
        stats.networks_built += outcome.networks_built
        stats.derivations_computed += outcome.derivations_computed
        stats.schedules_computed += outcome.schedules_computed
        stats.warm_group_hits += int(outcome.group_cache_hit)
        stats.payload_cache_hits += outcome.payload_hits
        if callback_error is not None:
            raise callback_error

    def _stream_row(
        self, submission: _Submission, cell: SweepCell,
        metrics: Dict[str, Any], result: Optional[RuntimeResult] = None,
    ) -> None:
        if submission.on_row is not None:
            submission.on_row(
                SweepRow(cell=dict(cell.coords), metrics=metrics,
                         result=result)
            )

    def _finish_group(self, group: _PoolGroup) -> None:
        submission = group.submission
        submission.outstanding -= 1
        if submission.outstanding <= 0:
            submission.finished = True
            self._notify(submission, "finished")

    # -- supervision ----------------------------------------------------
    def _fail_group(
        self, group: _PoolGroup, exc: BaseException,
        retries: Optional[int] = None,
    ) -> None:
        """Degrade every cell of *group* to an error row for *exc*."""
        submission = group.submission
        error = _cell_error(
            exc, retries=group.attempt if retries is None else retries
        )
        for index in group.indices:
            submission.errors_by_index[index] = error
            submission.stats.failed_cells += 1
        self._notify(
            submission, "group-failed",
            gid=group.gid, cells=len(group.cells), detail=error.describe(),
        )
        self._finish_group(group)

    def _requeue(
        self, group: _PoolGroup, now: float, exc_type: type, what: str
    ) -> None:
        """Charge one retry to *group*; requeue it or exhaust its budget."""
        submission = group.submission
        group.attempt += 1
        if group.attempt > submission.max_retries:
            # ``retries`` records redispatches actually performed — the
            # exhausting event happened on the last permitted attempt.
            self._fail_group(
                group,
                exc_type(
                    f"{what}; retry budget exhausted after "
                    f"{submission.max_retries} redispatches"
                ),
                retries=submission.max_retries,
            )
            return
        submission.stats.retries += 1
        if submission.faults is not None:
            # The fault that (presumably) fired consumed one firing: a
            # transient (times=1) kill/delay lets the retry succeed.
            submission.faults = submission.faults.decrement(group.indices)
        group.not_before = (
            now + submission.retry_backoff * 2 ** (group.attempt - 1)
        )
        self._pending.append(group)
        self._notify(
            submission, "retry",
            gid=group.gid, cells=len(group.cells),
            detail=f"{what} (attempt {group.attempt})",
        )

    def _check_timeouts(self, now: float) -> bool:
        """Terminate and retry groups that blew their deadline."""
        recovered = False
        for slot in self._slots:
            if slot.current is None or slot.deadline is None:
                continue
            if now <= slot.deadline:
                continue
            group = slot.current
            timeout = group.submission.group_timeout
            slot.current = None
            slot.deadline = None
            # Terminating the worker is the only portable way to stop a
            # wedged task; only its own slot respawns (cold), the rest
            # of the pool keeps its warmth.
            self._respawn_slot(slot)
            recovered = True
            self._requeue(
                group, now, SweepTimeoutError,
                f"group exceeded its {timeout}s deadline",
            )
        return recovered

    # -- driving --------------------------------------------------------
    def _pump(self, submission: _Submission) -> None:
        """Drive :meth:`pump_once` until *submission* is done."""
        while not submission.finished:
            self.pump_once()

    def pump_once(self) -> bool:
        """Run one dispatch/collect/supervise cycle and return.

        The cooperative alternative to blocking on
        :meth:`SweepTicket.result`: an external driver (the sweep
        service's orchestrator thread) interleaves ``pump_once`` with
        its own work — accepting new submissions between cycles — while
        the pool makes progress on everything outstanding.  A process
        pool blocks at most ~`_POLL_INTERVAL` waiting for worker
        replies; the in-process backend runs one group and never
        sleeps.  Returns True when any group was merged this cycle
        (results may have completed).  On ``KeyboardInterrupt`` — real
        or :class:`FaultPlan`-injected — completed groups are drained
        into their submissions, every worker is terminated and reaped
        (no orphans), and all active submissions become partial results
        with ``stats.interrupted``.
        """
        try:
            now = time.monotonic()
            self._dispatch_ready(now)
            if self._collect_ready(block=True, fire_interrupts=True):
                return True
            self._check_timeouts(now)
            return False
        except KeyboardInterrupt:
            self._interrupt()
            return True

    @property
    def busy(self) -> bool:
        """True while any group is pending or dispatched."""
        return bool(self._pending) or any(
            not s.idle for s in self._slots
        )

    def _interrupt(self) -> None:
        try:
            self._collect_ready(block=False, fire_interrupts=False)
        except Exception:
            pass
        self._stop_workers(graceful=False)

    def _mark_interrupted(self, submission: _Submission) -> None:
        if not submission.finished:
            submission.stats.interrupted = True
            submission.finished = True
        elif not submission.stats.interrupted and submission.outstanding > 0:
            submission.stats.interrupted = True

    def _cancel(self, submission: _Submission) -> bool:
        if submission.finished:
            return False
        withdrawn = [
            group for group in self._pending
            if group.submission is submission
        ]
        if not withdrawn:
            # Nothing to withdraw — every group is already dispatched
            # (or merged).  The submission will complete normally, so
            # its state must not be touched: marking it cancelled/
            # interrupted here would make a sweep whose every row
            # completed report itself interrupted.
            return False
        for group in withdrawn:
            self._pending.remove(group)
            submission.outstanding -= 1
        submission.cancelled = True
        submission.stats.interrupted = True
        if submission.outstanding <= 0:
            submission.finished = True
        return True

    # -- result assembly ------------------------------------------------
    def _assemble(self, submission: _Submission) -> SweepResult:
        # Rows come back grouped by schedule key; the table is in cell
        # order.  Interrupted/cancelled submissions only have the merged
        # groups' rows — cells never merged appear in neither list.
        rows = [
            SweepRow(
                cell=dict(cell.coords),
                metrics=submission.metrics_by_index[cell.index],
                result=submission.results_by_index.get(cell.index),
            )
            for cell in submission.cells
            if cell.index in submission.metrics_by_index
        ]
        failed_rows = [
            SweepRow(
                cell=dict(cell.coords), metrics={},
                error=submission.errors_by_index[cell.index],
            )
            for cell in submission.cells
            if cell.index in submission.errors_by_index
        ]
        return SweepResult(
            axes=submission.axes, metrics=submission.metrics, rows=rows,
            stats=submission.stats, failed_rows=failed_rows,
        )
