#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fms_inspect --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` runs the workload for ``--seconds`` with no tracing and
reports the end-to-end metrics of ``metrics.json``.  ``--trace 1`` runs
the same window with every other op traced, then each other workload for
a few traced ops, and reports every per-layer metric: each from its home
workload (``metrics.json``), plus per-layer self time and the tracing
overhead.  The spans are written to ``.perfbench_out/``.

Every op's output, or a sample of them, is checked; the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
A ``host`` line before it records CPUs, Python, load and commit (and, in
an untraced run, the host's measured speed), and the same record goes to
``.perfbench_out/`` for ``compare.py``.
"""

import time

# setup_s counts from here, before anything of the library is imported.
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

import hostinfo  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: Whole-run deadline: past it the wedge guard prints every stack, stops
#: the workload's processes and fails the run.
RUN_DEADLINE_S = 170.0
#: The same for a set-up probe, which its parent waits for a little longer,
#: so a wedged probe stops its own processes before the parent gives up.
SETUP_DEADLINE_S = 60.0
#: How long the processes the workloads started get to end on their own
#: once the workloads are closed, before they are killed.
REAP_GRACE_S = 10.0
#: Set-up repetitions behind setup_s (this run's own plus fresh processes).
SETUP_SAMPLES = 3
#: Ops each non-native workload runs in a traced run.
PROBE_OPS = 4
#: Op failures reported with their traceback on stderr.
SHOWN_FAILURES = 3


def _metric_defs():
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Window:
    """What a closed loop measured: latencies split by traced, and totals."""

    def __init__(self):
        self.latency_s = {True: [], False: []}
        self.cells = 0
        self.sim_jobs = 0
        self.attempted = 0
        self.failed = 0
        #: Wall time inside ops, failed ones included, summed over clients.
        self.busy_s = 0.0
        #: Host calibrations taken between ops (``calibrate=True``).
        self.calibration_s = []


def drive(workload, seconds=None, ops=None, calibrate=False):
    """Closed loop: each client sends its next op when the last returns.

    Stops issuing ops after *seconds* of wall time or *ops* ops.  With
    *calibrate*, each client times :func:`hostinfo.calibration_s` after
    each op, outside the op's time.
    """
    window = Window()
    lock = threading.Lock()
    issued = [0]
    start = time.perf_counter()

    def client_loop(client):
        while True:
            with lock:
                if ops is not None and issued[0] >= ops:
                    return
                if (seconds is not None
                        and time.perf_counter() - start >= seconds):
                    return
                issued[0] += 1
                i = issued[0]
            traced = workload.tracer.traced(i)
            t = time.perf_counter()
            try:
                with workload.tracer.span(workload.op_span, i):
                    result = workload.op(i, client)
            except Exception:
                with lock:
                    window.attempted += 1
                    window.failed += 1
                    window.busy_s += time.perf_counter() - t
                    if window.failed <= SHOWN_FAILURES:
                        print(f"{workload.name}: op {i} failed",
                              file=sys.stderr)
                        traceback.print_exc()
            else:
                latency = time.perf_counter() - t
                with lock:
                    window.attempted += 1
                    window.busy_s += latency
                    window.latency_s[traced].append(latency)
                    window.cells += result.cells
                    window.sim_jobs += result.sim_jobs
            if calibrate:
                sample = hostinfo.calibration_s()
                with lock:
                    window.calibration_s.append(sample)

    if workload.clients == 1:
        client_loop(0)  # on this thread: a SQLite store stays on its thread
    else:
        threads = [
            threading.Thread(target=client_loop, args=(c,), name=f"client-{c}")
            for c in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if not window.latency_s[True] and not window.latency_s[False]:
        raise RuntimeError(f"{workload.name}: no op succeeded")
    return window


def setup_probe(args):
    """setup_s of one fresh process running the same workload and seed."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=SETUP_DEADLINE_S + 10.0,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"set-up probe exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, host):
    """The workload untraced; adds the host's measured speed to *host*.

    Times are scaled to the reference host speed: a time divided, a rate
    multiplied by the host's slowdown, the median of the calibrations
    between ops.  The set-up times, taken a minute apart at most, are
    scaled the same way: a calibration right after each set-up spreads
    more than the set-up times themselves.
    """
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, Tracer("off"), ROOT)
    try:
        workload.setup()
        setup_s = time.perf_counter() - T_START
        if not args.setup_only:
            window = drive(workload, seconds=args.seconds, calibrate=True)
            window.failed += workload.check()
            peak_rss_mb = workload.peak_rss_mb()
    finally:
        problems = workload.close()
    if args.setup_only:
        return {"setup_s": setup_s}, problems
    setups = [setup_s] + [
        setup_probe(args) for _ in range(SETUP_SAMPLES - 1)
    ]
    calibration_s = statistics.median(window.calibration_s)
    # Above 1 when the host runs slower than the reference speed.
    slowdown = calibration_s * 1e3 / hostinfo.REF_CALIBRATION_MS
    host["calibration_ms"] = calibration_s * 1e3
    host["slowdown"] = slowdown
    latencies = window.latency_s[False]
    # Rates over the time spent in ops: calibrations between ops excluded.
    op_seconds = window.busy_s / workload.clients
    values = {
        "setup_s": statistics.median(setups) / slowdown,
        "latency_p50_ms": statistics.median(latencies) * 1e3 / slowdown,
        "cells_per_s": window.cells / op_seconds * slowdown,
        "sim_jobs_per_s": window.sim_jobs / op_seconds * slowdown,
        "peak_rss_mb": peak_rss_mb,
    }
    units = {m["name"]: m["unit"] for m in _metric_defs()["end_to_end"]}
    return {
        "correct": window.failed == 0 and not problems,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {name: _metric(values[name], units[name])
                    for name in units},
    }, problems


def run_traced(args):
    """The native workload traced on odd ops, then each other one briefly."""
    import spans
    from workloads import WORKLOADS

    order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    tracers = {}
    layer_values = {}
    attempted = failed = 0
    problems = []
    native = None
    for name in order:
        is_native = name == args.workload
        tracer = spans.Tracer("alternate" if is_native else "all", T_START)
        tracers[name] = tracer
        workload = WORKLOADS[name](args.seed, tracer, ROOT)
        try:
            workload.setup()
            if is_native:
                window = native = drive(workload, seconds=args.seconds)
            else:
                window = drive(workload, ops=PROBE_OPS)
            window.failed += workload.check()
            workload.layer_phase()
            workload.peak_rss_mb()
            layer_values.update(workload.layer_metrics())
        finally:
            problems += workload.close()
        attempted += window.attempted
        failed += window.failed

    merged = spans.merge(tracers)
    for layer, ms in spans.self_ms(merged).items():
        layer_values[f"{layer}.self_ms"] = ms
    layer_values["tracing_overhead_ms"] = 1e3 * (
        statistics.median(native.latency_s[True])
        - statistics.median(native.latency_s[False])
    )
    os.makedirs(OUT, exist_ok=True)
    from repro.io.json_io import spans_to_jsonable

    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans_to_jsonable(merged), fh)

    defs = _metric_defs()["per_layer"]
    mismatch = {m["name"] for m in defs} ^ set(layer_values)
    if mismatch:
        raise RuntimeError(f"per-layer metrics do not match metrics.json: "
                           f"{sorted(mismatch)}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: _metric(layer_values[m["name"]], m["unit"])
                    for m in defs},
    }, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fms_inspect", "fms_sweep_pool",
                                 "served_overlap"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and exit (a setup_s sample)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no library sources at {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if not args.setup_only:
        hostinfo.lead_process_group()  # a probe stays in its parent's group
    hostinfo.become_subreaper()
    guard = hostinfo.WedgeGuard(
        SETUP_DEADLINE_S if args.setup_only else RUN_DEADLINE_S,
        hostinfo.kill_tree,
    )
    try:
        host = hostinfo.host_record(ROOT, args.workload, args.seed)
        if args.trace and not args.setup_only:
            result, problems = run_traced(args)
        else:
            result, problems = run_untraced(args, host)
    finally:
        try:
            hostinfo.stop_resource_tracker()
            killed = hostinfo.reap_descendants(REAP_GRACE_S)
        finally:
            guard.cancel()
    if killed:
        problems = problems + [f"killed left-over processes {killed}"]
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if not args.setup_only:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(
            OUT, f"result-{args.workload}-seed{args.seed}-"
                 f"trace{args.trace}.json"
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"host": host, "result": result}, fh, indent=1)
        print("host " + json.dumps(host))
    print(json.dumps(result))
    return 1 if args.setup_only and problems else 0


if __name__ == "__main__":
    sys.exit(main())
