"""Columnar run records: the tick path against the Fraction oracles.

The timing phase stores one run's job records as integer-tick columns
(:class:`~repro.runtime.executor.RecordTable`) and hands them to
observers one frame at a time through ``on_records``; ``JobRecord``
objects with Fraction fields are built only when read.  Covered here:

* the table reads as the record list it replaces (``len``, indexing,
  slicing, iteration, ``==`` against a plain list), and results still
  accept a plain list;
* the batch hook: one call per frame right after the frame's overhead
  window, the same batches from :func:`replay`, the defined precedence
  when an observer overrides both record hooks, and streaming runs that
  keep one frame of rows;
* differential: every :class:`MetricsObserver` aggregate fed live through
  the tick path equals the same observer replayed per record over the
  plain-list ``reference_run_static_order`` result (Fraction arithmetic)
  and the seed's aggregation of that list (``reference_aggregates``), on
  Fig. 1, FFT, FMS, a big+little platform, jitter, MPPA-like overheads and
  an overloaded run with deadline misses;
* a run whose ticks exceed ``2**63`` (no fixed-width column could hold
  them) matches the Fraction reference record for record.
"""

from dataclasses import replace as dc_replace
from fractions import Fraction

import pytest

from repro.apps import build_fig1_network, fig1_stimulus, fig1_wcets
from repro.core import Network
from repro.core.platform import Platform
from repro.runtime import (
    ExecutionObserver,
    MetricsObserver,
    OverheadModel,
    RecordTable,
    RecordsObserver,
    jittered_execution,
    replay,
    run_static_order,
)
from repro.runtime.executor import JobRecord, RuntimeResult
from repro.scheduling import list_schedule
from repro.taskgraph import derive_task_graph

from fraction_reference import (
    reference_aggregates,
    reference_jittered_execution,
    reference_list_schedule,
    reference_run_static_order,
)
from test_tick_equivalence import APPS, assert_same_result


def fig1_case(**kwargs):
    net = build_fig1_network()
    schedule = list_schedule(derive_task_graph(net, fig1_wcets()), 2, "alap")
    return run_static_order(net, schedule, 3, fig1_stimulus(3), **kwargs)


class BatchLog(ExecutionObserver):
    """Logs overhead windows and record batches in arrival order."""

    def __init__(self):
        self.events = []

    def on_overhead(self, frame, start, end):
        self.events.append(("ov", frame))

    def on_records(self, table, lo, hi):
        rows = list(zip(table.job[lo:hi], table.frame[lo:hi],
                        table.start[lo:hi], table.end[lo:hi]))
        self.events.append(("rows", lo, hi, rows))


# ---------------------------------------------------------------------------
# the table as a record sequence
# ---------------------------------------------------------------------------
class TestRecordSequence:
    def test_reads_like_the_record_list(self):
        result = fig1_case()
        table = result.records
        assert isinstance(table, RecordTable)
        records = list(table)
        assert len(table) == len(records) > 0
        assert all(isinstance(r, JobRecord) for r in records)
        assert table == records and records == table
        assert table[0] == records[0]
        assert table[-1] == records[-1]
        assert table[2:7] == records[2:7]
        assert table[::3] == records[::3]
        assert table[::-2] == records[::-2]
        assert table[5:2] == []
        assert table != records[:-1]
        with pytest.raises(IndexError):
            table[len(records)]

    def test_chunked_whole_table_read(self, monkeypatch):
        """A whole-table read builds records chunk by chunk; the chunk
        edges must not drop, repeat or reorder a record."""
        table = fig1_case().records
        one_by_one = [table[i] for i in range(len(table))]
        monkeypatch.setattr(RecordTable, "_CHUNK", 7)
        assert len(table) % 7 != 0
        assert list(table) == one_by_one

    def test_records_build_on_access(self):
        """Single reads build one record each; none is kept until a whole-
        table read, which builds every record once."""
        table = fig1_case().records
        first = table[0]
        assert table._records is None
        assert table[0] == first and table[0] is not first
        all_records = list(table)
        assert table._records is not None
        assert table[0] is all_records[0]

    def test_fraction_fields_are_exact(self):
        net, graph, m, stim = APPS["fractional"]()
        schedule = list_schedule(graph, m, "alap")
        result = run_static_order(net, schedule, 2, stim)
        assert result.records.domain.scale > 1
        for rec in result.records:
            for attr in ("release", "start", "end", "deadline"):
                assert isinstance(getattr(rec, attr), Fraction)

    def test_result_accepts_plain_list(self):
        result = fig1_case()
        plain = RuntimeResult(
            network_name=result.network_name,
            frames=result.frames,
            hyperperiod=result.hyperperiod,
            processors=result.processors,
            records=list(result.records),
            channel_logs=result.channel_logs,
            external_outputs=result.external_outputs,
            trace=result.trace,
            overhead_intervals=result.overhead_intervals,
        )
        assert plain.records == result.records
        assert plain.misses() == result.misses()
        assert plain.makespan() == result.makespan()
        assert plain == result


# ---------------------------------------------------------------------------
# the batch hook
# ---------------------------------------------------------------------------
class TestBatchHook:
    OVERHEADS = OverheadModel.create(first_frame_arrival=10, steady_frame_arrival=5)

    def test_one_batch_per_frame_after_its_overhead_window(self):
        log = BatchLog()
        result = fig1_case(observers=[log], overheads=self.OVERHEADS)
        per_frame = len(result.records) // result.frames
        kinds = [ev[0] for ev in log.events]
        assert kinds == ["ov", "rows"] * result.frames
        for frame in range(result.frames):
            ov, rows = log.events[2 * frame], log.events[2 * frame + 1]
            assert ov == ("ov", frame)
            assert rows[1:3] == (frame * per_frame, (frame + 1) * per_frame)
            assert {f for _j, f, _s, _e in rows[3]} == {frame}

    def test_replay_feeds_the_same_batches(self):
        live = BatchLog()
        result = fig1_case(observers=[live], overheads=self.OVERHEADS)
        post = BatchLog()
        replay(result, post)
        assert post.events == live.events

    def test_on_records_takes_precedence_over_on_record(self):
        class Both(ExecutionObserver):
            def __init__(self):
                self.batches = 0
                self.records = 0

            def on_records(self, table, lo, hi):
                self.batches += 1

            def on_record(self, record):
                self.records += 1

        class Delegating(Both):
            def on_records(self, table, lo, hi):
                super().on_records(table, lo, hi)
                ExecutionObserver.on_records(self, table, lo, hi)

        both, delegating = Both(), Delegating()
        result = fig1_case(observers=[both, delegating])
        assert both.batches == result.frames and both.records == 0
        assert delegating.batches == result.frames
        assert delegating.records == len(result.records)
        replayed = Both()
        replay(result, replayed)
        assert (replayed.batches, replayed.records) == (result.frames, 0)

    def test_on_record_only_observers_get_every_record(self):
        obs = RecordsObserver()
        result = fig1_case(observers=[obs])
        assert obs.records == list(result.records)

    def test_plain_list_replays_per_record(self):
        net, graph, m, stim = APPS["fig1"]()
        ref = reference_run_static_order(
            net, reference_list_schedule(graph, m), 2, stim
        )
        log, recs = BatchLog(), RecordsObserver()
        replay(ref, log, recs)
        assert [ev for ev in log.events if ev[0] == "rows"] == []
        assert recs.records == ref.records

    def test_streaming_run_keeps_one_frame_of_rows(self):
        """records_only + collect_records=False: nothing reads the table
        after the run, so each frame's rows are dropped once emitted."""
        live, streamed = BatchLog(), BatchLog()
        fig1_case(observers=[live], records_only=True)
        fig1_case(observers=[streamed], records_only=True,
                  collect_records=False)
        assert [ev[3] for ev in streamed.events] == [
            ev[3] for ev in live.events
        ]
        assert {ev[1] for ev in streamed.events} == {0}

    def test_streaming_metrics_match_retained(self):
        retained, streamed = MetricsObserver(), MetricsObserver()
        fig1_case(observers=[retained], records_only=True)
        fig1_case(observers=[streamed], records_only=True,
                  collect_records=False)
        assert streamed.miss_summary() == retained.miss_summary()
        assert streamed.frame_makespans() == retained.frame_makespans()
        assert streamed.processor_utilization_exact() == (
            retained.processor_utilization_exact()
        )


# ---------------------------------------------------------------------------
# differential: tick aggregates == per-record Fraction aggregates
# ---------------------------------------------------------------------------
def aggregates(obs):
    """Every MetricsObserver aggregate, exact values with their types."""
    out = {
        "summary": obs.miss_summary(),
        "makespan": obs.makespan,
        "worst_lateness": obs.worst_lateness,
        "responses": obs.response_times(),
        "utilization": obs.processor_utilization_exact(),
        "frame_makespans": obs.frame_makespans(),
        "kernel_spans": obs.kernel_span_stats(),
        "channel_writes": obs.channel_write_counts(),
    }
    for value in (out["makespan"], out["worst_lateness"],
                  *out["responses"].values(), *out["utilization"],
                  *out["frame_makespans"]):
        assert isinstance(value, Fraction)
    return out


def class_wcet_execution(schedule):
    """Each job's WCET on the class of the processor its slot is bound to.

    The Fraction reference predates processor classes; fed this model it
    charges the durations the executor derives from the platform.
    """
    graph, platform = schedule.graph, schedule.platform

    def duration(job, frame):
        processor = schedule.entry(graph.index_of(job.name)).processor
        return job.wcet_on(platform.class_of(processor))

    return duration


FIG1_BIG = Platform.of(("big", 1), ("little", 1, Fraction(1, 2)))

DIFFERENTIAL_CASES = {
    "fig1": dict(app="fig1"),
    "fft": dict(app="fft"),
    "fms": dict(app="fms"),
    "fractional": dict(app="fractional"),
    "big_little": dict(app="fig1", platform=FIG1_BIG),
    "jitter": dict(app="fig1", jitter=7),
    "fms_jitter": dict(app="fms", jitter=3),
    "mppa_overheads": dict(app="fft", overheads=OverheadModel.mppa_like()),
    "overloaded": dict(app="fft", processors=1,
                       overheads=OverheadModel.mppa_like()),
}


def run_differential(app, platform=None, jitter=None, overheads=None,
                     processors=None, frames=2):
    net, graph, m, stim = APPS[app]()
    ref_execution = (
        None if jitter is None else reference_jittered_execution(jitter)
    )
    if platform is None:
        schedule = list_schedule(graph, processors or m, "alap")
        ref_schedule = reference_list_schedule(graph, processors or m, "alap")
    else:
        schedule = ref_schedule = list_schedule(graph, platform, "alap")
        ref_execution = class_wcet_execution(schedule)
    live = MetricsObserver()
    result = run_static_order(
        net, schedule, frames, stim,
        None if jitter is None else jittered_execution(jitter),
        overheads, observers=[live],
    )
    ref = reference_run_static_order(
        net, ref_schedule, frames, stim, ref_execution, overheads,
    )
    post = MetricsObserver()
    replay(ref, post)
    return live, post, result, ref


class TestTickAggregatesMatchFractionReference:
    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
    def test_live_tick_path_equals_reference_replay(self, case):
        live, post, result, ref = run_differential(**DIFFERENTIAL_CASES[case])
        assert isinstance(result.records, RecordTable)
        assert isinstance(ref.records, list)
        assert post._dom is None  # the reference went through Fractions
        assert aggregates(live) == aggregates(post) == reference_aggregates(ref)
        if "platform" in DIFFERENTIAL_CASES[case]:
            # The reference predates processor classes and names none.
            assert [
                dc_replace(r, processor_class="cpu") for r in result.records
            ] == ref.records
            assert result.observable() == ref.observable()
        else:
            assert_same_result(result, ref)

    def test_overloaded_case_misses(self):
        live, post, _result, _ref = run_differential(
            **DIFFERENTIAL_CASES["overloaded"]
        )
        assert live.missed_jobs > 0
        assert live.worst_lateness > 0
        assert aggregates(live) == aggregates(post)

    def test_mixed_stream_falls_back_to_records(self):
        """A Fraction stream that meets a table in the same run keeps
        aggregating per record, with identical results."""
        result = fig1_case()
        mixed = MetricsObserver()
        mixed.on_run_start(replay_meta(result))
        half = len(result.records) // 2
        for rec in result.records[:half]:
            mixed.on_record(rec)
        mixed.on_records(result.records, half, len(result.records))
        mixed.on_run_end(result)
        ticks = MetricsObserver()
        replay(result, ticks)
        assert aggregates_timing(mixed) == aggregates_timing(ticks)


def replay_meta(result):
    from repro.runtime import RunMeta

    return RunMeta(network=result.network_name, processors=result.processors,
                   frames=result.frames, hyperperiod=result.hyperperiod)


def aggregates_timing(obs):
    return {
        "summary": obs.miss_summary(),
        "makespan": obs.makespan,
        "responses": obs.response_times(),
        "utilization": obs.processor_utilization_exact(),
        "frame_makespans": obs.frame_makespans(),
    }


# ---------------------------------------------------------------------------
# ticks beyond 2**63
# ---------------------------------------------------------------------------
def big_tick_case():
    """Periods 1/2 and 1/3 with WCETs over large coprime denominators.

    The run's tick scale is the LCM of every denominator, here about
    ``2**82``, so every non-zero tick value is far beyond ``2**63``.
    """
    d1, d2 = 2**40 + 1, 2**40 + 3
    net = Network("big-ticks")
    net.add_periodic("Fast", period="1/3", deadline="1/3",
                     kernel=lambda ctx: ctx.write("c", ctx.k))
    net.add_periodic("Slow", period="1/2", deadline="1/2",
                     kernel=lambda ctx: ctx.read("c"))
    net.connect("Fast", "Slow", "c")
    net.add_priority("Fast", "Slow")
    net.validate()
    graph = derive_task_graph(
        net, {"Fast": Fraction(2**35, d1), "Slow": Fraction(2**36, d2)}
    )
    return net, graph


class TestBigTicks:
    def test_records_and_aggregates_match_fraction_reference(self):
        net, graph = big_tick_case()
        schedule = list_schedule(graph, 2, "alap")
        ref_schedule = reference_list_schedule(graph, 2, "alap")
        overheads = OverheadModel.create(
            first_frame_arrival=Fraction(1, 2**41 + 5),
            steady_frame_arrival=Fraction(1, 2**41 + 7),
        )
        live = MetricsObserver()
        result = run_static_order(net, schedule, 4, None,
                                  jittered_execution(5), overheads,
                                  observers=[live])
        ref = reference_run_static_order(net, ref_schedule, 4, None,
                                         reference_jittered_execution(5),
                                         overheads)
        table = result.records
        assert table.domain.scale > 2**63
        assert max(table.end) > 2**63
        assert_same_result(result, ref)
        post = MetricsObserver()
        replay(ref, post)
        assert aggregates(live) == aggregates(post) == reference_aggregates(ref)
