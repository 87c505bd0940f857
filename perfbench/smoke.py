"""Smoke test of the benchmark itself, at a tiny size through the same code path.

    python3 perfbench/smoke.py

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, untraced and traced; that plans are deterministic per seed and
differ across seeds; that tracing fails loudly on a missing entry point; and
that the benchmark fails without printing a result when src/ is absent.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import plans  # noqa: E402
import spans  # noqa: E402


class SmokeFailure(Exception):
    pass


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SmokeFailure(what)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, w["name"], trace)
            check(proc.returncode == 0, f"{w['name']} trace {trace} exited {proc.returncode}: {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{w['name']} trace {trace}: {result['correct']=} {result['failed']=}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{w['name']} trace {trace}: metrics differ from BENCHMARK.json: "
                               f"{sorted(set(got) ^ set(want))}")
            for name, m in result["metrics"].items():
                check(isinstance(m["value"], (int, float)), f"{name} is not a number")
                check(f"{name} {m['value']} {m['unit']}" in proc.stdout, f"{name} not printed by name")
            print(f"ok  {w['name']} trace {trace}: {len(got)} metrics")


def check_plans() -> None:
    for w in plans.WORKLOADS:
        for scale in plans.SCALES:
            a = plans.plan_json(plans.build_plan(w, 5, scale))
            check(a == plans.plan_json(plans.build_plan(w, 5, scale)), f"{w} {scale}: same seed, different plan")
    for w, ids in (("q_families", {"THM1"}), ("q_near_one", {"THM1", "THM5", "COR6"}),
                   ("slow_products", {"COR2"})):
        a, b = plans.build_plan(w, 5), plans.build_plan(w, 6)
        for ident in ids:
            sa = [s.to_json() for s, _ in a if s.id == ident]
            sb = [s.to_json() for s, _ in b if s.id == ident]
            check(sa and sa != sb, f"{w}: seeds 5 and 6 give the same {ident} instances")
    print("ok  plans are deterministic per seed and differ across seeds")


def check_tracing_fails_loudly() -> None:
    missing = (("qprod.qfunc", "qpoch_inf_ctx_renamed", "qfunc.gone", None),)
    try:
        spans.Tracer().install(missing)
    except spans.TracingError:
        pass
    else:
        raise SmokeFailure("install() accepted a missing entry point")
    try:
        spans.Tracer().check_required("q_families")
    except spans.TracingError:
        pass
    else:
        raise SmokeFailure("check_required() accepted a pass with no kernel calls")
    print("ok  tracing fails loudly on a missing or bypassed entry point")


def check_fails_without_program() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "q_families", 0)
    check(proc.returncode != 0, "the benchmark succeeded without src/")
    check('"metrics"' not in proc.stdout, "the benchmark printed a result without src/")
    print("ok  without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        check_plans()
        check_tracing_fails_loudly()
        check_fails_without_program()
        check_metrics(spec)
    except SmokeFailure as exc:
        print(f"FAIL {exc}")
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
