#!/usr/bin/env python3
"""Compare two saved benchmark results, metric by metric.

Usage::

    python3 perfbench/compare.py BASELINE.json CANDIDATE.json

Both files are records that ``run.py`` writes to ``.perfbench_out/``.
Results of different workloads or trace modes, or taken on hosts with a
different number of usable CPUs, are refused (exit 2), not compared:
the pool and server workloads size themselves to the CPU count.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def compare(a, b):
    """Lines describing B against A, or raise ValueError if not comparable."""
    for key in ("cpus", "workload"):
        if a["host"][key] != b["host"][key]:
            raise ValueError(
                f"not comparable: {key} is {a['host'][key]} in the baseline "
                f"and {b['host'][key]} in the candidate"
            )
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    if set(ma) != set(mb):
        raise ValueError("not comparable: the two results hold other metrics")
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as fh:
        defs = json.load(fh)
    better = {
        m["name"]: m["better"] for m in defs["end_to_end"] + defs["per_layer"]
    }
    lines = []
    for name in ma:
        va, vb = ma[name]["value"], mb[name]["value"]
        change = (vb - va) / abs(va) if va else float("nan")
        lines.append(
            f"{name:32s} {va:14.4f} -> {vb:14.4f} {ma[name]['unit']:8s} "
            f"{change:+8.1%} ({better[name]} is better)"
        )
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    try:
        lines = compare(*records)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
