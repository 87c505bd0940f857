"""The qprod benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload q_families --seed 1 --seconds 40 --trace 0

Closed loop with one client: each pass is a fresh interpreter (passrun.py)
that imports qprod from this checkout's src/, builds the workload's plan from
the seed and runs every (IdentitySpec, tolerance) pair once through
verify.run_identity, each report starting when the previous one returned.
There is no warm-up over the plan.  Passes repeat until --seconds is used up,
and the timings are medians over passes.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics and the tracing overhead.
Times are host-adjusted (passrun.reference_s); raw medians are printed too.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Any failure to run (a pass that crashes or times out,
qprod missing from src/) exits non-zero without printing it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_PASSES = 4  # guaranteed pass count; it also fixes the tail percentile
SETUP_SAMPLES = 9  # fresh-interpreter set-up timings per run, at least
DEADLINE_S = 170.0  # the whole run ends well inside 180 s

END_TO_END = (
    ("wall_s", "s"),
    ("report_ms_p50", "ms"),
    ("report_ms_tail", "ms"),
    ("setup_s", "s"),
    ("passed_share", "ratio"),
    ("digits_agreed_min", "digits"),
    ("digits_agreed_sum", "digits"),
    ("peak_rss_mb", "MiB"),
)


class BenchError(RuntimeError):
    """The benchmark could not run; it prints no result."""


def _unit(name: str) -> str:
    if name.endswith(("_calls", ".calls", ".factors", ".qq_distinct", ".lhs_terms")):
        return "count"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ns_per_factor"):
        return "ns"
    return "s"


class Runner:
    """Starts pass interpreters one at a time and keeps what they report."""

    def __init__(self, workload: str, seed: int, scale: str):
        self.base = [sys.executable, "-I", os.path.join(HERE, "passrun.py"),
                     "--workload", workload, "--seed", str(seed), "--scale", scale]
        self.t0 = time.monotonic()
        self.plan_hashes: set = set()
        self.children: list = []  # every interpreter's output, in run order

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def run(self, *extra: str) -> dict:
        budget = DEADLINE_S - self.elapsed()
        if budget <= 0:
            raise BenchError("out of time before the run was complete")
        try:
            proc = subprocess.run([*self.base, *extra], cwd=ROOT, capture_output=True,
                                  text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            raise BenchError(f"a pass ({' '.join(extra) or 'untraced'}) ran past the deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"a pass exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError("a pass printed nothing")
        out = json.loads(lines[-1])
        self.plan_hashes.add(out["plan_sha256"])
        self.children.append(out)
        return out


def tail(passes: list) -> tuple:
    """(percentile, value) of report_ms_tail: the highest whole percentile
    with at least 10 reports beyond it.

    A plan of more than 10 reports gives that percentile within each pass,
    and the value is the median over passes.  A smaller plan pools its
    passes, and the percentile is fixed by MIN_PASSES of them so that it
    does not move with the number of passes a run fits in.
    """
    entries = len(passes[0])
    if entries > 10:
        groups = passes
    else:
        groups = [[x for p in passes for x in p]]
        entries *= MIN_PASSES
    pct = max(50, math.floor(100 * (1 - 10 / entries))) if entries > 10 else 50
    return pct, statistics.median(nearest_rank(sorted(g), pct) for g in groups)


def nearest_rank(sorted_values: list, pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def collect(args) -> tuple:
    """Run the passes; return (result line, detail record)."""
    runner = Runner(args.workload, args.seed, args.scale)
    runner.run("--setup-only")  # compiles bytecode and fills the file cache; not timed

    plain, traced = [], []
    mean_pass = 0.0
    while True:
        want_trace = args.trace and len(traced) < len(plain)
        started = runner.elapsed()
        out = runner.run("--trace") if want_trace else runner.run()
        (traced if want_trace else plain).append(out)
        done = len(plain) + len(traced)
        mean_pass += (runner.elapsed() - started - mean_pass) / done
        enough = len(traced) >= 1 if args.trace else len(plain) >= MIN_PASSES
        if enough and runner.elapsed() + mean_pass > args.seconds:
            break
    while not args.trace and len(runner.children) - 1 < SETUP_SAMPLES:
        runner.run("--setup-only")
    setup_samples = [c["setup_s"] for c in runner.children[1:]]

    passes = plain + traced
    entries = passes[0]["entries"]
    attempted = entries * len(passes)
    failures = [f for p in passes for f in p["failures"]]
    failed_reports = len(failures)
    problems = failures[:5]
    if len(runner.plan_hashes) != 1:
        problems.append("passes built different plans from the same seed")
    if any(p["digits"] != passes[0]["digits"] for p in passes):
        problems.append("digits_agreed differs between passes of the same plan")

    host = passes[0]["host"]
    # a failed report misses every latency limit
    per_pass = [[x if good else math.inf for x, good in zip(p["latency_ms"], p["ok"])]
                for p in plain]
    pct, tail_ms = tail(per_pass)
    digits = passes[0]["digits"]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace), "scale": args.scale, "host": host,
        "passes": len(plain), "traced_passes": len(traced), "entries": entries,
        "pass_wall_s": [p["wall_s"] for p in plain],
        "raw_wall_s": statistics.median(p["wall_raw_s"] for p in plain),
        "raw_setup_s": statistics.median(c["setup_raw_s"] for c in runner.children[1:]),
        "tail_percentile": pct, "tail_samples": sum(map(len, per_pass)),
        "setup_samples": len(setup_samples), "run_s": runner.elapsed(),
        "problems": problems,
    }
    if args.trace:
        layers = _layer_summary(traced, problems)
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "report_ms_p50": statistics.median(x for p in per_pass for x in p),
            "report_ms_tail": tail_ms,
            "setup_s": statistics.median(setup_samples),
            "passed_share": (attempted - failed_reports) / attempted,
            "digits_agreed_min": min(digits),
            "digits_agreed_sum": sum(digits),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    result = {"correct": not problems, "attempted": attempted, "failed": failed_reports,
              "metrics": metrics}
    detail["metrics"] = metrics
    return result, detail


def _layer_summary(traced: list, problems: list) -> dict:
    """Counts and ratios from the first traced pass (they must repeat); times are medians."""
    first = traced[0]["layers"]
    out = {}
    for key, value in first.items():
        if _unit(key) in ("s", "ms", "ns"):
            # a pass's host adjustment, applied to its layer times
            out[key] = statistics.median(t["layers"][key] * t["wall_s"] / t["wall_raw_s"]
                                         for t in traced)
        else:
            if any(t["layers"][key] != value for t in traced):
                problems.append(f"{key} differs between traced passes")
            out[key] = value
    return out


def _print_human(detail: dict) -> None:
    h = detail["host"]
    print(f"# qprod benchmark: {detail['workload']} seed {detail['seed']}, "
          f"{detail['passes']} passes + {detail['traced_passes']} traced, "
          f"{detail['entries']} reports per pass, {detail['run_s']:.1f} s")
    print(f"# host: {h['cores']} cores, {h['cpu_model']}, Python {h['python']}, "
          f"mpmath {h['mpmath']} backend {h['mpmath_backend']}")
    print(f"# times are host-adjusted; raw medians: wall {detail['raw_wall_s']:.4f} s, "
          f"set-up {detail['raw_setup_s']:.4f} s")
    if "report_ms_tail" in detail["metrics"]:
        print(f"# report_ms_tail is p{detail['tail_percentile']}, from "
              f"{detail['tail_samples']} reports in {detail['passes']} passes")
    for name, m in detail["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    for p in detail["problems"]:
        print(f"# PROBLEM: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", help="append the detailed record, as one JSON line, to this file")
    args = ap.parse_args(argv)
    try:
        result, detail = collect(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(detail, sort_keys=True) + "\n")
    _print_human(detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
