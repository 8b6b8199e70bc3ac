"""The benchmark's three closed-loop workloads.

Each workload makes all its inputs from the seed it is given.
``run.py`` calls :meth:`Workload.setup` (which ends with one warm-up
op), then :meth:`Workload.op` in a closed loop for the measured window,
then :meth:`Workload.check` (sampled outputs checked after the window,
untimed) and :meth:`Workload.close`.

* ``fms_inspect`` — one designer in process: each op builds a fresh
  :class:`~repro.experiment.Experiment` on the FMS case study, simulates
  ten frames with full records, action trace and a metrics observer, and
  checks the observables against the zero-delay reference (Prop. 2.1).
  The runtime executor does nearly all the work.
* ``fms_sweep_pool`` — one researcher on a resident
  :class:`~repro.experiment.SweepPool` with a SQLite store: each op
  submits a fresh 24-cell FMS matrix whose new WCET scale makes every
  group derive and schedule cold; cells are lean and timing-only.  Per-cell
  fixed cost, pool dispatch, the JSON wire and store writes.
* ``served_overlap`` — two client connections to a ``python -m repro
  serve`` subprocess: each request is a small Fig. 1 or FFT matrix of
  which six cells are store hits and two are new.  The service RPC path
  and store reads.

In a traced run each workload also reports the per-layer metrics whose
home it is (``metrics.json``); they are timed from this file around calls
into the library's public functions.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from statistics import median
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.compare import compare_payloads
from repro.analysis.determinism import first_divergence
from repro.apps import fft_scenario, fig1_scenario, fms_scenario, fms_wcets
from repro.core.platform import Platform
from repro.experiment import (
    Experiment,
    PipelineCache,
    ScenarioMatrix,
    SqliteSweepStore,
    SweepPool,
    TIMING_METRICS,
    run_sweep,
)
from repro.experiment.store import metrics_key, store_key
from repro.io.json_io import (
    scenario_to_dict,
    stimulus_to_dict,
    sweep_result_to_dict,
)
from repro.runtime import OverheadModel, run_static_order
from repro.runtime.observers import MetricsObserver
from repro.runtime.static_order import served_horizon
from repro.scheduling import DEFAULT_PORTFOLIO
from repro.service import ServiceClient

import hostinfo
from spans import Tracer


class WrongOutput(Exception):
    """An op produced an output the benchmark's check rejects."""


class OpResult(NamedTuple):
    """What one successful op did: sweep cells served, jobs simulated."""

    cells: int
    sim_jobs: int


def _ms(seconds: float) -> float:
    return seconds * 1e3


class TimedMetricsObserver(MetricsObserver):
    """A :class:`MetricsObserver` that also sums the wall time of its hooks."""

    def __init__(self) -> None:
        super().__init__()
        self.busy_s = 0.0


def _timed_hook(name: str) -> Any:
    base = getattr(MetricsObserver, name)

    def hook(self: TimedMetricsObserver, *args: Any) -> None:
        t = time.perf_counter()
        base(self, *args)
        self.busy_s += time.perf_counter() - t

    hook.__name__ = name
    return hook


# Only the hooks MetricsObserver itself overrides: the executor skips
# building events no observer consumes, and timing must not change that.
for _name in [n for n in vars(MetricsObserver) if n.startswith("on_")]:
    setattr(TimedMetricsObserver, _name, _timed_hook(_name))


class TimedSqliteStore(SqliteSweepStore):
    """A :class:`SqliteSweepStore` that records the wall time of each call."""

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self.get_s: List[float] = []
        self.put_s: List[float] = []

    def get(self, *args: Any) -> Any:
        t = time.perf_counter()
        try:
            return super().get(*args)
        finally:
            self.get_s.append(time.perf_counter() - t)

    def put(self, *args: Any) -> None:
        t = time.perf_counter()
        try:
            super().put(*args)
        finally:
            self.put_s.append(time.perf_counter() - t)


class Workload:
    """One closed-loop workload; see the module docstring for the three."""

    name = ""
    #: Client threads driving the closed loop (each waits for its reply).
    clients = 1
    #: The span enclosing one op: its layer is the one the op calls into.
    op_span = "experiment.op"

    def __init__(self, seed: int, tracer: Tracer, root: str) -> None:
        self.seed = seed
        self.tracer = tracer
        self.root = root
        self.tmpdir = os.path.join(
            root, ".perfbench_tmp", f"{self.name}-{os.getpid()}"
        )
        os.makedirs(self.tmpdir, exist_ok=True)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, client: int) -> OpResult:
        """Op *i* (inputs depend on the seed and *i* only); raises on failure."""
        raise NotImplementedError

    def check(self) -> int:
        """Check the sampled ops' outputs after the window; failures found."""
        return 0

    def layer_phase(self) -> None:
        """Traced runs only: extra untimed measurements after the window."""

    def peak_rss_mb(self) -> float:
        raise NotImplementedError

    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer metrics whose home is this workload (traced runs)."""
        raise NotImplementedError

    def close(self) -> List[str]:
        """Tear down; returns hygiene problems (left-over processes)."""
        problems = []
        if multiprocessing.active_children():
            problems.append(f"{self.name}: pool workers outlived the workload")
            hostinfo.kill_pool_children()
        shutil.rmtree(self.tmpdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmpdir))
        except OSError:
            pass  # another run's directory is still there
        return problems


# ---------------------------------------------------------------------------
# fms_inspect
# ---------------------------------------------------------------------------
class FmsInspect(Workload):
    name = "fms_inspect"
    FRAMES = 10
    #: Ops re-run in the traced layer phase with each executor mode.
    SPLIT_OPS = 3

    def setup(self) -> None:
        rng = random.Random(self.seed)
        with self.tracer.span("apps.scenario_build"):
            base = fms_scenario(
                n_frames=self.FRAMES, seed=rng.randrange(10**6)
            )
        # Arrivals whose server window lies past the simulated frames are
        # deferred by the runtime; the reference must not see them either.
        probe = Experiment(base)
        horizon = served_horizon(
            probe.network(), probe.task_graph().hyperperiod, self.FRAMES
        )
        self.base = base.replace(stimulus=base.stimulus.truncated(horizon))
        with self.tracer.span("core.reference"):
            self.reference = Experiment(self.base).reference().observable()
        self.variants = list(product(
            (1, 2), DEFAULT_PORTFOLIO,
            (OverheadModel.none(), OverheadModel.mppa_like()),
        ))
        rng.shuffle(self.variants)
        self.jitter0 = rng.randrange(10**6)
        self.observer_ms: List[float] = []
        self.op(0, 0)

    def scenario(self, i: int) -> Any:
        processors, heuristic, overheads = self.variants[i % len(self.variants)]
        return self.base.replace(
            processors=processors, heuristics=(heuristic,),
            overheads=overheads, jitter_seed=self.jitter0 + i,
        )

    def op(self, i: int, client: int) -> OpResult:
        span = self.tracer.span
        traced = self.tracer.traced(i)
        exp = Experiment(self.scenario(i))
        with span("core.network_build", i):
            exp.network()
        with span("taskgraph.derive", i):
            exp.task_graph()
        with span("scheduling.schedule", i):
            exp.schedule()
        observer = TimedMetricsObserver() if traced else MetricsObserver()
        with span("runtime.run", i):
            result = exp.run(observers=[observer])
        with span("analysis.check", i):
            divergence = first_divergence(self.reference, result.observable())
        if divergence is not None:
            raise WrongOutput(f"op {i}: observables diverge: {divergence}")
        if observer.total_jobs != len(result.records):
            raise WrongOutput(
                f"op {i}: observer saw {observer.total_jobs} jobs, the "
                f"result holds {len(result.records)} records"
            )
        if traced:
            self.observer_ms.append(_ms(observer.busy_s))
        return OpResult(cells=1, sim_jobs=observer.total_jobs)

    def layer_phase(self) -> None:
        """Split run time by executor mode; take allocation peaks.

        Each mode adds one stage to the one before: the timing recurrence
        alone, then building job records, then the data phase, then the
        action trace.  A stage's cost is the difference of two modes.
        """
        modes = (
            dict(records_only=True, collect_records=False),
            dict(records_only=True, collect_records=True),
            dict(collect_records=True, collect_trace=False),
            dict(collect_records=True, collect_trace=True),
        )
        times: List[List[float]] = [[] for _ in modes]
        self.alloc_mb: List[float] = []
        self.split_jobs = 0
        self.split_missed = 0
        for i in range(1, self.SPLIT_OPS + 1):
            s = self.scenario(i)
            exp = Experiment(s)
            args = (exp.network(), exp.schedule(), s.n_frames, s.stimulus,
                    s.execution_model(), s.overheads)
            # Untimed: fills the jitter model's sample memo, which would
            # otherwise be charged to whichever mode runs first.
            run_static_order(*args, **modes[0])
            for mode, out in zip(modes, times):
                t = time.perf_counter()
                result = run_static_order(*args, **mode)
                out.append(_ms(time.perf_counter() - t))
            self.split_jobs += len(result.records)
            self.split_missed += len(result.misses())
            tracemalloc.start()
            run_static_order(*args, observers=[MetricsObserver()])
            self.alloc_mb.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
        medians = [median(t) for t in times]
        self.split_ms = {
            "runtime.recurrence_ms": medians[0],
            "runtime.record_build_ms": medians[1] - medians[0],
            "runtime.data_phase_ms": medians[2] - medians[1],
            "runtime.trace_ms": medians[3] - medians[2],
        }

    def peak_rss_mb(self) -> float:
        return hostinfo.self_hwm_mb()

    def layer_metrics(self) -> Dict[str, float]:
        med = self.tracer.median_ms
        return {
            "apps.scenario_build_s": med("apps.scenario_build") / 1e3,
            "core.network_build_ms": med("core.network_build"),
            "taskgraph.derive_ms": med("taskgraph.derive"),
            "scheduling.schedule_ms": med("scheduling.schedule"),
            "runtime.run_ms": med("runtime.run"),
            "runtime.observer_ms": median(self.observer_ms),
            **self.split_ms,
            "runtime.alloc_peak_mb": median(self.alloc_mb),
            "runtime.job_instances": self.split_jobs,
            "runtime.missed_jobs": self.split_missed,
            "analysis.check_ms": med("analysis.check"),
        }


# ---------------------------------------------------------------------------
# fms_sweep_pool
# ---------------------------------------------------------------------------
class _SubmissionTimes:
    """Wall-clock arrival of one submission's rows and pool events."""

    def __init__(self) -> None:
        self.rows: List[float] = []
        self.events: List[Tuple[float, str, Optional[int]]] = []

    def on_row(self, row: Any) -> None:
        self.rows.append(time.perf_counter())

    def on_progress(self, event: Any) -> None:
        self.events.append((time.perf_counter(), event.kind, event.gid))

    def groups(self) -> List[Tuple[float, float, float]]:
        """(enqueued, dispatched, done) times of each computed group."""
        enqueued = next(t for t, kind, _ in self.events if kind == "enqueued")
        dispatched = {g: t for t, kind, g in self.events if kind == "dispatch"}
        done = {g: t for t, kind, g in self.events if kind == "group-done"}
        return [(enqueued, dispatched[g], done[g]) for g in sorted(done)]


class FmsSweepPool(Workload):
    name = "fms_sweep_pool"
    FRAMES = 2
    CELLS = 24
    #: Every tenth op's rows are compared with a serial in-process sweep.
    SAMPLE_EVERY = 10
    #: Repeats of each in-process cell replica in the layer phase.
    REPLICA_REPEATS = 7

    def setup(self) -> None:
        rng = random.Random(self.seed)
        with self.tracer.span("apps.scenario_build"):
            self.base = fms_scenario(
                n_frames=self.FRAMES, seed=rng.randrange(10**6)
            )
        self.scale0 = rng.randrange(10**4)
        self.axes = {
            "platform": [
                Platform.homogeneous(1),
                Platform.homogeneous(2),
                Platform.of(("big", 1), ("little", 1, Fraction(1, 2))),
            ],
            "heuristics": [("alap",), ("deadline",)],
            "jitter_seed": [rng.randrange(10**6), rng.randrange(10**6)],
            "overheads": [OverheadModel.none(), OverheadModel.mppa_like()],
        }
        traced = self.tracer.mode != "off"
        store_path = os.path.join(self.tmpdir, "sweeps.db")
        self.store = (TimedSqliteStore if traced else SqliteSweepStore)(
            store_path
        )
        self.workers = hostinfo.usable_cpus()
        self.pool = SweepPool(workers=self.workers)
        self.samples: List[Tuple[int, ScenarioMatrix, Dict, float]] = []
        self.per_op: List[Dict[str, float]] = []
        self.op(0, 0)

    def matrix(self, i: int) -> ScenarioMatrix:
        # A WCET scale no earlier op used, so every group derives cold;
        # all scales stay within 15% of 1, so no seed makes ops cheaper.
        scale = 1 + Fraction(self.scale0 + i, 10**5)
        wcet = {name: Fraction(c) * scale for name, c in fms_wcets().items()}
        return ScenarioMatrix(self.base.replace(wcet=wcet), self.axes)

    def op(self, i: int, client: int) -> OpResult:
        span = self.tracer.span
        matrix = self.matrix(i)
        times = _SubmissionTimes()
        t0 = time.perf_counter()
        with span("experiment.submit", i):
            ticket = self.pool.submit(
                matrix, TIMING_METRICS, store=self.store,
                on_row=times.on_row, on_progress=times.on_progress,
            )
        with span("experiment.result", i):
            result = ticket.result()
        t1 = time.perf_counter()
        stats = result.stats
        if (result.failed_rows or len(result.rows) != self.CELLS
                or stats.runs != self.CELLS
                or stats.store_misses != self.CELLS):
            raise WrongOutput(
                f"op {i}: {len(result.rows)} rows, "
                f"{len(result.failed_rows)} failed, stats {stats}"
            )
        if i % self.SAMPLE_EVERY == 1:
            self.samples.append(
                (i, matrix, sweep_result_to_dict(result), t1 - t0)
            )
        if self.tracer.traced(i):
            groups = times.groups()
            busy = sum(done - disp for _, disp, done in groups)
            self.per_op.append({
                "first_row": _ms(times.rows[0] - t0),
                "finish_tail": _ms(t1 - max(d for _, _, d in groups)),
                "queue_wait": median([_ms(d - e) for e, d, _ in groups]),
                "group_service": median(
                    [_ms(done - d) for _, d, done in groups]
                ),
                "busy_frac": busy / (self.workers * (t1 - t0)),
                "derivations": stats.derivations_computed,
                "schedules": stats.schedules_computed,
                "payload_cache_hits": stats.payload_cache_hits,
                "retries": stats.retries,
            })
        return OpResult(
            cells=len(result.rows),
            sim_jobs=sum(row.metrics["total_jobs"] for row in result.rows),
        )

    def check(self) -> int:
        failures = 0
        self.serial_ms: List[float] = []
        self.speedups: List[float] = []
        for i, matrix, served, pool_s in self.samples:
            t = time.perf_counter()
            with self.tracer.span("experiment.serial_sweep"):
                local = run_sweep(matrix, TIMING_METRICS)
            serial_s = time.perf_counter() - t
            self.serial_ms.append(_ms(serial_s))
            self.speedups.append(serial_s / pool_s)
            if not _same_rows(self.tracer, served, local):
                print(f"{self.name}: op {i} rows differ from a serial sweep",
                      file=sys.stderr)
                failures += 1
        return failures

    def layer_phase(self) -> None:
        """One group's payload size, and one cell's fixed and per-frame cost.

        The cell replica runs in process exactly as a worker runs a lean
        timing-only cell, at 1 and at 2 frames, on a warm stage cache.
        """
        matrix = self.matrix(0)
        cells = list(matrix.cells())
        key = cells[0].scenario.schedule_key()
        group = [c for c in cells if c.scenario.schedule_key() == key]
        with self.tracer.span("io.group_payload"):
            size = len(json.dumps(stimulus_to_dict(self.base.stimulus)))
            for cell in group:
                body = scenario_to_dict(cell.scenario.replace(stimulus=None))
                size += len(json.dumps(body))
        self.group_payload_kb = size / 1024
        scenario = cells[0].scenario.replace(
            records_only=True, collect_records=False, collect_trace=False
        )
        cache = PipelineCache()
        cache.schedule(scenario)
        times: Dict[int, List[float]] = {1: [], 2: []}
        for _ in range(self.REPLICA_REPEATS):
            for frames, out in times.items():
                exp = Experiment(scenario.replace(n_frames=frames), cache)
                observer = MetricsObserver(track_responses=False)
                t = time.perf_counter()
                exp.run(observers=[observer])
                out.append(_ms(time.perf_counter() - t))
        one, two = median(times[1]), median(times[2])
        self.cell_per_frame_ms = two - one
        self.cell_fixed_ms = one - self.cell_per_frame_ms

    def peak_rss_mb(self) -> float:
        workers = [p.pid for p in multiprocessing.active_children()]
        return hostinfo.self_hwm_mb() + hostinfo.tree_hwm_mb(workers)

    def layer_metrics(self) -> Dict[str, float]:
        def med(key: str) -> float:
            return median([op[key] for op in self.per_op])

        return {
            "experiment.submit_ms": self.tracer.median_ms("experiment.submit"),
            "experiment.first_row_ms": med("first_row"),
            "experiment.finish_tail_ms": med("finish_tail"),
            "experiment.queue_wait_ms": med("queue_wait"),
            "experiment.group_service_ms": med("group_service"),
            "experiment.worker_busy_frac": med("busy_frac"),
            "experiment.serial_baseline_ms": median(self.serial_ms),
            "experiment.pool_speedup": median(self.speedups),
            "experiment.store_put_ms": _ms(median(self.store.put_s)),
            "experiment.derivations": med("derivations"),
            "experiment.schedules": med("schedules"),
            "experiment.payload_cache_hits": med("payload_cache_hits"),
            "experiment.retries": med("retries"),
            "runtime.cell_fixed_ms": self.cell_fixed_ms,
            "runtime.cell_per_frame_ms": self.cell_per_frame_ms,
            "io.group_payload_kb": self.group_payload_kb,
        }

    def close(self) -> List[str]:
        if hasattr(self, "pool"):
            self.pool.close()
            self.store.close()
        return super().close()


def _same_rows(tracer: Tracer, served: Dict, local: Any) -> bool:
    """Rows equal at zero tolerance, through the repo's own comparison."""
    with tracer.span("io.encode_result"):
        local = sweep_result_to_dict(local)
    with tracer.span("analysis.compare"):
        comparison = compare_payloads(served, local, 0.0)
    return (
        comparison.refusal is None
        and not comparison.regressions
        and len(served["rows"]) == len(local["rows"])
        and not served.get("failed_rows") and not local.get("failed_rows")
    )


# ---------------------------------------------------------------------------
# served_overlap
# ---------------------------------------------------------------------------
class ServedOverlap(Workload):
    name = "served_overlap"
    clients = 2
    op_span = "service.op"
    FRAMES = 4
    PROCESSORS = (2, 3)
    #: Jitter seeds whose cells the warm-up puts in the store; each
    #: request reuses three of them and adds one seed never used before.
    POPULAR = 4
    HITS, NEW = 6, 2
    METRICS = ("total_jobs", "executed_jobs", "missed_jobs", "makespan",
               "worst_lateness")
    #: Every sixteenth request's rows are compared with in-process rows.
    SAMPLE_EVERY = 16
    BOOT_TIMEOUT_S = 60.0

    def setup(self) -> None:
        rng = random.Random(self.seed)
        with self.tracer.span("apps.scenario_build"):
            self.bases = {
                "fig1": fig1_scenario(n_frames=self.FRAMES),
                "fft": fft_scenario(n_frames=self.FRAMES),
            }
        self.popular = rng.sample(range(10**6), self.POPULAR)
        self.fresh0 = 10**7 + rng.randrange(10**6) * 1000
        self.db = os.path.join(self.tmpdir, "sweeps.db")
        self.server = self._boot_server()
        self.conns = [
            ServiceClient(*self.address, client=f"bench-{c}", timeout=120.0)
            for c in range(self.clients)
        ]
        self.samples: List[Tuple[int, ScenarioMatrix, Dict]] = []
        self.per_op: List[Dict[str, float]] = []
        self.server_hwm_mb: Optional[float] = None
        for name, base in self.bases.items():  # the warm-up op
            warm = ScenarioMatrix(base, {
                "processors": self.PROCESSORS, "jitter_seed": self.popular,
            })
            result = self.conns[0].run_sweep(warm, self.METRICS)
            if result.failed_rows or len(result.rows) != len(warm):
                raise WrongOutput(f"warm-up {name}: {result.stats}")

    def _boot_server(self) -> subprocess.Popen:
        config = os.path.join(self.tmpdir, "server.json")
        ready = os.path.join(self.tmpdir, "ready")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({
                "format": "fppn-server", "version": 1,
                "host": "127.0.0.1", "port": 0,
                "workers": hostinfo.usable_cpus(), "store": self.db,
            }, fh)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(self.root, "src"),
                        env.get("PYTHONPATH")) if p
        )
        self.log_path = os.path.join(self.tmpdir, "server.log")
        with open(self.log_path, "wb") as log:
            server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", config,
                 "--ready-file", ready],
                cwd=self.root, env=env, stdout=log, stderr=log,
            )
        deadline = time.monotonic() + self.BOOT_TIMEOUT_S
        while not _read(ready):
            if server.poll() is not None or time.monotonic() > deadline:
                server.kill()
                server.wait()
                raise RuntimeError(
                    f"sweep server did not come up: {self._log_tail()}"
                )
            time.sleep(0.02)
        host, port = _read(ready).rsplit(":", 1)
        self.address = (host, int(port))
        return server

    def _log_tail(self) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as fh:
            return fh.read()[-2000:]

    def request(self, i: int) -> Tuple[ScenarioMatrix, int]:
        """Request *i*: its matrix and the jitter seed of its new cells."""
        rng = random.Random(self.seed * 1_000_003 + i)
        base = self.bases[rng.choice(sorted(self.bases))]
        fresh = self.fresh0 + i
        seeds = rng.sample(self.popular, self.HITS // len(self.PROCESSORS))
        return ScenarioMatrix(base, {
            "processors": self.PROCESSORS, "jitter_seed": seeds + [fresh],
        }), fresh

    def op(self, i: int, client: int) -> OpResult:
        span = self.tracer.span
        conn = self.conns[client]
        matrix, fresh = self.request(i)
        rows: List[float] = []
        t0 = time.perf_counter()
        with span("service.submit", i):
            ticket = conn.submit(matrix, self.METRICS)["ticket"]
        with span("service.stream", i):
            result = conn.stream(
                ticket, on_row=lambda row: rows.append(time.perf_counter())
            )
        stats = result.stats
        if (result.failed_rows or len(result.rows) != len(matrix)
                or stats.store_hits != self.HITS
                or stats.store_misses != self.NEW):
            raise WrongOutput(
                f"request {i}: {len(result.rows)} rows, "
                f"{len(result.failed_rows)} failed, stats {stats}"
            )
        if i % self.SAMPLE_EVERY == 1:
            self.samples.append((i, matrix, sweep_result_to_dict(result)))
        if self.tracer.traced(i):
            self.per_op.append({
                "first_row": _ms(rows[0] - t0),
                "hit_ratio": stats.store_hits / len(matrix),
                "warm_group_hits": stats.warm_group_hits,
            })
        return OpResult(
            cells=len(result.rows),
            sim_jobs=sum(
                row.metrics["total_jobs"] for row in result.rows
                if row.cell["jitter_seed"] == fresh
            ),
        )

    def check(self) -> int:
        failures = 0
        for i, matrix, served in self.samples:
            local = run_sweep(matrix, self.METRICS)
            if not _same_rows(self.tracer, served, local):
                print(f"{self.name}: request {i} rows differ from in-process "
                      "rows", file=sys.stderr)
                failures += 1
        return failures

    def layer_phase(self) -> None:
        """Replay the sampled requests' store reads on the server's file."""
        store = TimedSqliteStore(self.db)
        try:
            mkey = metrics_key(self.METRICS)
            for _, matrix, _ in self.samples:
                for cell in matrix.cells():
                    store.get(store_key(cell.scenario), mkey)
        finally:
            store.close()
        self.store_get_s = store.get_s

    def peak_rss_mb(self) -> float:
        pids = [self.server.pid] + hostinfo.descendants(self.server.pid)
        self.server_hwm_mb = hostinfo.tree_hwm_mb(pids)
        return self.server_hwm_mb

    def layer_metrics(self) -> Dict[str, float]:
        def med(key: str) -> float:
            return median([op[key] for op in self.per_op])

        return {
            "service.submit_rtt_ms": self.tracer.median_ms("service.submit"),
            "service.first_row_ms": med("first_row"),
            "service.stream_ms": self.tracer.median_ms("service.stream"),
            "service.server_rss_mb": self.server_hwm_mb,
            "experiment.store_get_ms": _ms(median(self.store_get_s)),
            "experiment.store_hit_ratio": med("hit_ratio"),
            "experiment.warm_group_hits": med("warm_group_hits"),
        }

    def close(self) -> List[str]:
        problems: List[str] = []
        if not hasattr(self, "server"):
            return super().close()
        for conn in getattr(self, "conns", ()):
            conn.close()
        try:
            with ServiceClient(*self.address, timeout=30.0) as conn:
                conn.shutdown()
            self.server.wait(timeout=30.0)
        except Exception as exc:  # the server is stopped below either way
            problems.append(f"{self.name}: server did not shut down: {exc}")
        if self.server.poll() is None:
            problems.append(f"{self.name}: server outlived the workload")
            self.server.kill()
            self.server.wait()
        return problems + super().close()


def _read(path: str) -> str:
    """The stripped text of *path*, or ``""`` while it does not exist."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except FileNotFoundError:
        return ""


WORKLOADS = {w.name: w for w in (FmsInspect, FmsSweepPool, ServedOverlap)}
