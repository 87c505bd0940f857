"""Summarize benchmark records, and compare a base set with a new one.

    python3 perfbench/run.py ... --out base.jsonl      # once per seed and workload
    python3 perfbench/compare.py base.jsonl             # spread of each metric
    python3 perfbench/compare.py base.jsonl new.jsonl   # change against base

For every workload and end-to-end metric it prints the median of the runs,
their spread (distance between the first and third quartile, as a share of
the median) and the metric's bound from BENCHMARK.json; with two files, the
change of the median in the metric's bad direction.  A spread or change over
the bound is marked.  Records whose host facts differ (the mpmath backend
above all) are flagged: their timings do not compare.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("mpmath_backend", "mpmath", "python", "cpu_model", "cores")


def load(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values: list) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def host_differences(records: list) -> list:
    notes = []
    for key in HOST_KEYS:
        seen = sorted({str(r["host"][key]) for r in records})
        if len(seen) > 1:
            notes.append(f"{key} differs between records: {', '.join(seen)}")
    return notes


def by_workload(records: list) -> dict:
    out: dict = {}
    for r in records:
        if r["trace"] == 0 and r["scale"] == "full":
            out.setdefault(r["workload"], []).append(r)
    return out


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    sets = [by_workload(load(p)) for p in argv]
    every = [r for s in sets for runs in s.values() for r in runs]
    notes = host_differences(every)
    for note in notes:
        print(f"WARNING: {note}; timings across these records do not compare")
    over = 0
    for workload in sorted(sets[0]):
        base = sets[0][workload]
        new = sets[1].get(workload) if len(sets) == 2 else None
        print(f"\n{workload}: {len(base)} runs" + (f" against {len(new)}" if new else ""))
        for name, spec in bounds.items():
            b_vals = [r["metrics"][name]["value"] for r in base]
            b_med, b_spread = statistics.median(b_vals), spread(b_vals)
            line = (f"  {name:18s} median {b_med:12.6g} {spec['unit']:7s} "
                    f"spread {b_spread:6.3f} bound {spec['bound']:.3f}")
            flag = name != "setup_s" and b_spread > spec["bound"]
            if new:
                n_vals = [r["metrics"][name]["value"] for r in new]
                n_med, n_spread = statistics.median(n_vals), spread(n_vals)
                sign = 1 if spec["better"] == "lower" else -1
                worse = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
                line += f" | new {n_med:12.6g} spread {n_spread:6.3f} worse by {worse:+.3f}"
                flag = flag or worse > spec["bound"]
            over += flag
            print(line + ("  <-- over bound" if flag else ""))
    return 1 if over or notes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
