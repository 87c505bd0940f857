"""One benchmark pass in a fresh interpreter: import qprod, build the plan, run it.

Run by run.py, never imported.  It prints one JSON object on stdout: set-up
time, plan wall time, per-report latencies and digits, the failures, peak
RSS, host facts and, with --trace, the per-layer metrics.  With --setup-only
it stops after building the plan.

Times are host-adjusted: see reference_s().  The raw times are kept too.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


# The unit of every time the benchmark reports; changing it breaks comparisons.
REF_NOMINAL_S = 0.006


def reference_s() -> float:
    """Time of a fixed big-integer loop of about 6 ms: the host's speed now.

    The host this benchmark was defined on runs the same code anywhere
    between 1x and 2x its fastest time, in states lasting from a fraction of
    a second to minutes.  So the loop runs before and after set-up and after
    every report, and each of those spans is scaled by REF_NOMINAL_S over
    the mean of the loop times on its two sides.  The results read as
    seconds on a host whose loop takes REF_NOMINAL_S.  The loop's
    fixed-point multiply-and-shift steps and small tuples resemble the work
    of mpmath's pure-Python backend, and it shares no code with qprod.
    """
    t0 = time.perf_counter()
    one = 1 << 240
    p, t, q = one, one * 37 // 100, one * 9990 // 10000
    acc = []
    for _ in range(9000):
        p = (p * (one - t)) >> 240
        t = (t * q) >> 240
        acc.append((p.bit_length(), t & 0xFFFF))
        if len(acc) > 64:
            acc.clear()
    return time.perf_counter() - t0


def _adjusted(raw_s: float, ref_before: float, ref_after: float) -> float:
    return raw_s * REF_NOMINAL_S * 2 / (ref_before + ref_after)


def _import_qprod():
    """Import qprod from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import qprod

    if os.path.dirname(os.path.dirname(os.path.abspath(qprod.__file__))) != SRC:
        raise SystemExit(f"qprod was imported from {qprod.__file__}, not from {SRC}")
    return qprod


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts() -> dict:
    import mpmath

    return {
        "cores": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def _parse_number(text: str, ctx):
    t = text.strip()
    if t.endswith("i"):
        core = t[:-1]
        for pos in range(len(core) - 1, 0, -1):
            if core[pos] in "+-" and core[pos - 1] not in "eE":
                return ctx.mpc(ctx.mpf(core[:pos]), ctx.mpf(core[pos:]))
        return ctx.mpc(0, ctx.mpf(core))
    return ctx.mpf(t)


def check_report(spec, tolerance: int, report) -> str | None:
    """Why the report is not a success against its plan entry, or None.

    Beyond the program's own verdict, the printed sides are compared again
    here: they must agree to within one digit of the plan's tolerance.
    """
    import mpmath

    if report.error is not None:
        return f"error: {report.error}"
    if not report.passed:
        return f"failed: {report.digits_agreed} digits < {tolerance}"
    if report.identity != spec.id or report.tolerance_digits != tolerance:
        return f"report is for {report.identity} at {report.tolerance_digits}, not the plan entry"
    ctx = mpmath.mp.clone()
    ctx.dps = spec.prec.digits + 5
    lhs, rhs = _parse_number(report.lhs, ctx), _parse_number(report.rhs, ctx)
    scale = max(abs(lhs), abs(rhs))
    if scale != 0 and abs(lhs - rhs) / scale > ctx.mpf(10) ** (1 - tolerance):
        return f"printed sides disagree: {report.lhs} vs {report.rhs}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ref_before = reference_s()
    t0 = time.perf_counter()
    qprod = _import_qprod()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import plans

    plan = plans.build_plan(args.workload, args.seed, args.scale)
    setup_raw_s = time.perf_counter() - t0
    refs = [reference_s()]
    plan_text = plans.plan_json(plan).encode()
    out = {"setup_s": _adjusted(setup_raw_s, ref_before, refs[0]), "setup_raw_s": setup_raw_s,
           "entries": len(plan), "plan_sha256": hashlib.sha256(plan_text).hexdigest()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    from qprod import verify

    raw_ms, reports = [], []
    for spec, tol in plan:
        t = time.perf_counter()
        report = verify.run_identity(spec, tol)
        raw_ms.append((time.perf_counter() - t) * 1000.0)
        reports.append(report)
        refs.append(reference_s())
    latency_ms = [_adjusted(x, a, b) for x, a, b in zip(raw_ms, refs, refs[1:])]

    digits, failures = [], []
    ok = []
    for (spec, tol), report in zip(plan, reports):
        digits.append(report.digits_agreed)
        why = check_report(spec, tol, report)
        ok.append(why is None)
        if why is not None:
            failures.append(f"{spec.id} {json.dumps(spec.to_json(), sort_keys=True)}: {why}")

    out.update(
        wall_s=sum(latency_ms) / 1000.0,
        wall_raw_s=sum(raw_ms) / 1000.0,
        latency_ms=latency_ms,
        ok=ok,
        digits=digits,
        failures=failures,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        host=host_facts(),
        qprod_version=qprod.__version__,
    )
    if tracer is not None:
        tracer.check_required(args.workload)
        t = time.perf_counter()
        verify.reports_json(reports)
        json_ms = (time.perf_counter() - t) * 1000.0
        layers = spans.layer_metrics(tracer.spans)
        layers["verify.reports_json_ms"] = json_ms
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
