"""Kill-stress soak for the resident sweep pool.

Runs the Fig. 1 2x2 sweep on ``SweepPool(workers=2)`` with one injected
worker kill (``FaultPlan(kill_at={2: 1})``) *N* times, each run in its
own subprocess under a timeout.  A run that times out (a wedged pool) or
returns the wrong rows fails the soak; a timed-out run's whole process
group is killed, so none of its workers outlives it.

    PYTHONPATH=src python tests/soak_pool_kill.py --runs 20

Exits 0 when every run completed with all four rows, 1 otherwise.  The
file name does not match ``test_*.py``, so pytest never collects it.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: One soak run: prints "<rows> <failed cells>".
RUN = """
from repro import FaultPlan, ScenarioMatrix
from repro.apps import fig1_scenario
from repro.experiment import SweepPool

matrix = ScenarioMatrix(
    fig1_scenario(n_frames=1), {"processors": [2, 3], "jitter_seed": [0, 1]}
)
with SweepPool(workers=2, retry_backoff=0.01) as pool:
    result = pool.submit(
        matrix, ("executed_jobs", "makespan"),
        faults=FaultPlan(kill_at={2: 1}),
    ).result()
print(len(result.rows), result.stats.failed_cells)
"""


def run_once(timeout: float) -> str:
    """One sweep in a fresh process group: "ok", "timeout" or "wrong ..."."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.Popen(
        [sys.executable, "-c", RUN], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout"
    if proc.returncode != 0 or out.split()[-2:] != ["4", "0"]:
        return f"wrong (exit {proc.returncode}): {out.strip()[-200:]}"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="seconds before a run counts as wedged")
    args = parser.parse_args(argv)
    failures = 0
    for run in range(1, args.runs + 1):
        start = time.monotonic()
        outcome = run_once(args.timeout)
        failures += outcome != "ok"
        print(f"run {run}/{args.runs}: {outcome} "
              f"({time.monotonic() - start:.1f} s)", flush=True)
    print(f"{args.runs - failures}/{args.runs} runs ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
