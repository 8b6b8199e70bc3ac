"""Host record, memory high-water marks, process reaping and the wedge guard."""

from __future__ import annotations

import ctypes
import faulthandler
import gc
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from typing import Callable, Dict, Iterable, List

#: Median :func:`calibration_s` in ms on the host class the bounds were
#: fixed on (2 usable CPUs, CPython 3.11): the speed the time-based
#: end-to-end metrics are scaled to.
REF_CALIBRATION_MS = 4.5
#: ``prctl`` option that makes orphaned descendants re-parent to the caller.
PR_SET_CHILD_SUBREAPER = 36


def _calibration_work() -> Fraction:
    total = 0
    table: Dict[int, int] = {}
    for i in range(20000):
        total += i * i % 7
        table[i % 512] = total
    harmonic = Fraction(0)
    for i in range(1, 300):
        harmonic += Fraction(1, i)
    return harmonic + total


def calibration_s() -> float:
    """Median wall time of three runs of a fixed pure-Python computation.

    A shared host's single-thread speed drifts by a quarter and more over
    minutes, and the program's times drift with it.  Timed between ops,
    never inside one, this gives the host's speed at that moment, so
    the times can be scaled to the speed of :data:`REF_CALIBRATION_MS`.
    The work mixes int, dict and Fraction arithmetic, as the library's
    hot paths do.  The garbage collector is off while it runs, so the
    size of the program's heap does not change its time.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t = time.perf_counter()
            _calibration_work()
            times.append(time.perf_counter() - t)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def host_record(root: str, workload: str, seed: int) -> Dict[str, object]:
    """What a result must carry to be compared with another one.

    Results taken with a different number of usable CPUs are not
    comparable: the pool and server workloads size themselves to it.
    """
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
        "workload": workload,
        "seed": seed,
        "commit": _git_commit(root),
    }


def _git_commit(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"  # not a git checkout (git would search upwards)
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def self_hwm_mb() -> float:
    """This process's resident-memory high-water mark."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def hwm_mb(pid: int) -> float:
    """``VmHWM`` of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def descendants(pid: int) -> List[int]:
    """Live descendants of *pid*, found through each process's parent."""
    parent_of: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited while we looked
        # The command name may hold spaces: fields follow its last ')'.
        parent_of[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        children = [p for p, pp in parent_of.items() if pp == current]
        found.extend(children)
        frontier.extend(children)
    return found


def tree_hwm_mb(pids: Iterable[int]) -> float:
    return sum(hwm_mb(pid) for pid in pids)


class WedgeGuard:
    """Turn a hang into a failed run that shows every thread's stack.

    At *deadline* seconds a watchdog thread dumps all stacks to stderr,
    runs *kill_children* and exits with code 3 (unless *kill_children*
    ends this process itself).  Should the watchdog
    itself be blocked, :func:`faulthandler.dump_traceback_later` dumps the
    stacks and exits a few seconds later from outside the interpreter.
    """

    EXIT_CODE = 3

    def __init__(self, deadline: float,
                 kill_children: Callable[[], None]) -> None:
        self._kill_children = kill_children
        self._timer = threading.Timer(deadline, self._fire)
        self._timer.daemon = True
        self._timer.start()
        faulthandler.dump_traceback_later(deadline + 5.0, exit=True)

    def _fire(self) -> None:
        print("perfbench: run deadline passed, stacks follow",
              file=sys.stderr, flush=True)
        faulthandler.dump_traceback(all_threads=True)
        try:
            self._kill_children()
        finally:
            os._exit(self.EXIT_CODE)

    def cancel(self) -> None:
        self._timer.cancel()
        faulthandler.cancel_dump_traceback_later()


def kill_pool_children() -> None:
    for child in multiprocessing.active_children():
        child.kill()


def become_subreaper() -> bool:
    """Adopt this process's orphaned descendants (Linux only).

    A spawned worker pool starts a resource-tracker process, and the
    served workload's server starts its own; each outlives its parent by
    a moment.  As a subreaper this process inherits them, so
    :func:`reap_descendants` can wait for them before the run exits.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def stop_resource_tracker() -> None:
    """Stop and wait for this process's multiprocessing resource tracker.

    Call once every pool is closed; without it the tracker only ends
    after this process does, unwaited.  Queues the pool dropped are
    collected first: their finalizers unregister semaphores with the
    tracker, and would start a new one if it were already stopped.
    """
    from multiprocessing import resource_tracker

    gc.collect()

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _reap_exited() -> None:
    """Collect every child of this process that has already ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap_descendants(grace_s: float, give_up_s: float = 3.0) -> List[int]:
    """Wait up to *grace_s* for every descendant to end, then kill the rest.

    Returns the pids that had to be killed, once no descendant is left,
    zombies included, or *give_up_s* after the kills began.  Each pass
    kills whatever is alive, so a pool that respawns killed workers from
    another thread cannot outlast the loop.
    """
    deadline = time.monotonic() + grace_s
    killed: List[int] = []
    while True:
        _reap_exited()
        left = descendants(os.getpid())
        now = time.monotonic()
        if not left or now > deadline + give_up_s:
            return killed
        if now > deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    continue  # ended meanwhile
                if pid not in killed:
                    killed.append(pid)
        time.sleep(0.01)


def lead_process_group() -> bool:
    """Make this process the leader of a process group of its own.

    Processes it starts join the group, so :func:`kill_tree` can stop
    them all at once.  Returns whether this process leads its group.
    """
    try:
        os.setpgid(0, 0)
    except OSError:
        pass  # a session leader already leads its group
    return os.getpgrp() == os.getpid()


def kill_tree() -> None:
    """Kill every process this run started (the wedge guard's last step).

    Kills and reaps the descendants first, so none is left a zombie.  A
    group leader then kills its whole group, itself included, with one
    signal, which also stops whatever a pool respawned meanwhile.  (A
    set-up probe stays in its parent's group and skips that step.)
    """
    reap_descendants(0.0)
    if os.getpgrp() == os.getpid():
        os.killpg(0, signal.SIGKILL)
