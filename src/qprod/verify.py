"""Comparison engine and suite runner for the product identities.

compare() turns two independently computed values into a VerificationReport
with a digits-of-agreement count; run_identity() drives both evaluators of
one IdentitySpec; run_suite() executes a batch and reports in a canonical
order regardless of execution order.  The comparison engine is pure, so a
future parallel runner only needs to preserve the sort step.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, fields, replace
from decimal import Decimal
from random import Random

from .products import (
    IDENTITIES,
    IDENTITY_IDS,
    IdentitySpec,
    eval_lhs_info,
    eval_rhs_info,
    identity_id,
)
from .qfunc import Precision, SingularArgumentError, context, hp_str, to_hp

__all__ = [
    "VerificationReport",
    "compare",
    "default_suite",
    "reports_csv",
    "reports_json",
    "run_identity",
    "run_suite",
    "summarize",
]

@dataclass(frozen=True)
class VerificationReport:
    """One identity comparison: serialized sides, agreement, and verdict.

    `passed` maps to the JSON key "pass"; digits_agreed is
    floor(-log10(rel_diff)) clipped to [0, working digits], and equals the
    working digit count when the sides coincide to working precision.
    """

    identity: str
    params: dict
    lhs: str
    rhs: str
    abs_diff: str
    rel_diff: str
    digits_agreed: int
    tolerance_digits: int
    passed: bool
    vacuous: bool = False
    error: str | None = None
    elapsed_ms: int = 0

    def to_json(self) -> dict:
        return {key: getattr(self, name) for key, name in _REPORT_KEYS}


# (JSON key, field name) of every report field, in field order: the JSON
# object's keys and the CSV columns
_REPORT_KEYS = tuple(("pass" if f.name == "passed" else f.name, f.name)
                     for f in fields(VerificationReport))
_CSV_COLUMNS = tuple(key for key, _ in _REPORT_KEYS)


def compare(lhs, rhs, tolerance_digits: int, prec: Precision | None = None,
            identity: str = "COMPARE", params: dict | None = None) -> VerificationReport:
    """Compare two finite values by relative difference in agreed digits.

    The relative difference |a - b| / max(|a|, |b|) is taken at every
    magnitude, so two tiny sides agree only to the digits they share.  Only
    two sides that are both exactly 0 are vacuous: they pass, flagged, since
    zero-equals-zero carries no evidence about the identity.
    """
    prec = prec or Precision()
    ctx = context(prec)
    a = to_hp(lhs, ctx)
    b = to_hp(rhs, ctx)
    amax = max(abs(a), abs(b))
    vacuous = not amax
    rel = abs(a - b) / amax if amax else ctx.mpf(0)
    if rel == 0:
        digits = ctx.dps
    else:
        digits = int(ctx.floor(-ctx.log10(rel)))
        digits = max(0, min(digits, ctx.dps))
    return VerificationReport(
        identity=identity,
        params=params or {},
        lhs=hp_str(a, prec.digits),
        rhs=hp_str(b, prec.digits),
        abs_diff=hp_str(abs(a - b), 10),
        rel_diff=hp_str(rel, 10),
        digits_agreed=digits,
        tolerance_digits=tolerance_digits,
        passed=digits >= tolerance_digits,
        vacuous=vacuous,
    )


def _report_params(spec: IdentitySpec, lhs_info=None) -> dict:
    params = spec.to_json()
    if spec.chi is not None:
        f, primitive = spec.chi.conductor(), spec.chi.is_primitive
        params["chi"] = dict(params["chi"], conductor=f, primitive=primitive)
    if lhs_info is not None:
        params["lhs_terms"] = lhs_info.terms
        if lhs_info.rel_error_estimate is not None:
            params["rel_error_estimate"] = lhs_info.rel_error_estimate
        if lhs_info.level is not None:
            params["extrapolation_level"] = lhs_info.level
    return params


def _backed_digits(info) -> int | None:
    """floor(-log10) of the left side's relative error estimate: the digits it backs.

    None when the left side records no estimate, or an estimate of 0 (an
    exact product, as Theorem 4's at z = 0).  Exact on the decimal string.
    """
    if info.rel_error_estimate is None:
        return None
    est = Decimal(info.rel_error_estimate)
    if not est:
        return None
    power = est.adjusted()  # 10^power <= est < 10^(power + 1)
    return -power if est == Decimal(10) ** power else -power - 1


def run_identity(spec: IdentitySpec, tolerance_digits: int | None = None) -> VerificationReport:
    """Evaluate both sides through their independent paths and compare.

    Evaluator failures (poles, divergent parameters) become failing reports
    tagged with the error, never exceptions: a suite must always complete.
    A left side whose own error estimate backs fewer digits than the
    tolerance fails too, and its report says so.  Without tolerance_digits
    the identity's own tolerance applies, capped, for a left side with an
    estimate, at one digit less than the estimate backs, but never below one
    digit: a tolerance of 0 would pass sides that agree to nothing.
    """
    t0 = time.perf_counter()
    own = tolerance_digits is None
    if own:
        tolerance_digits = IDENTITIES[spec.id].tolerance(spec)
    try:
        lhs, info = eval_lhs_info(spec)
        rhs, _ = eval_rhs_info(spec)
    except (SingularArgumentError, ValueError, ZeroDivisionError, OverflowError) as exc:
        return VerificationReport(
            identity=spec.id,
            params=_report_params(spec),
            lhs="",
            rhs="",
            abs_diff="",
            rel_diff="",
            digits_agreed=0,
            tolerance_digits=tolerance_digits,
            passed=False,
            error=f"{type(exc).__name__}: {exc}",
            elapsed_ms=int(round((time.perf_counter() - t0) * 1000)),
        )
    backed = _backed_digits(info)
    if own and backed is not None:
        tolerance_digits = max(1, min(tolerance_digits, backed - 1))
    report = compare(lhs, rhs, tolerance_digits, spec.prec,
                     identity=spec.id, params=_report_params(spec, info))
    if backed is not None and backed < tolerance_digits:
        report = replace(report, passed=False,
                         error=f"the left side's error estimate {info.rel_error_estimate} backs "
                               f"{backed} digits, fewer than the tolerance {tolerance_digits}")
    return replace(report, elapsed_ms=int(round((time.perf_counter() - t0) * 1000)))


def _sort_key(report: VerificationReport):
    return (report.identity, json.dumps(report.params, sort_keys=True))


def run_suite(entries) -> list:
    """Run (spec, tolerance) pairs; reports come back canonically sorted.

    Individual failures never abort the suite.
    """
    reports = [run_identity(spec, tol) for spec, tol in entries]
    reports.sort(key=_sort_key)
    return reports


def summarize(reports) -> dict:
    passed = sum(1 for r in reports if r.passed)
    return {"total": len(reports), "passed": passed, "failed": len(reports) - passed}


def reports_json(reports) -> str:
    payload = {"reports": [r.to_json() for r in reports], "summary": summarize(reports)}
    return json.dumps(payload, indent=2, sort_keys=True)


def reports_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_CSV_COLUMNS)
    for r in reports:
        obj = r.to_json()
        obj["params"] = json.dumps(obj["params"], sort_keys=True)
        writer.writerow([obj[c] if obj[c] is not None else "" for c in _CSV_COLUMNS])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Default suite construction


def default_suite(include=None, *, seed: int = 20260818, counts=None) -> tuple:
    """The all-passing verification plan: (IdentitySpec, tolerance) pairs.

    Every identity's record builds its own entries, in catalog order, from
    one seeded generator, so two calls with the same arguments build
    byte-identical suites.  `include` filters by one identity id or several,
    in any spelling products.identity_id accepts, and an id outside the
    catalog raises ValueError; every builder still draws, so a filtered plan
    holds exactly the full plan's entries of those ids.  `counts` maps ids, in the
    same spellings, to a term or block count that replaces the record's
    `count`; an id whose record has none raises ValueError, and a count the
    spec refuses raises when the spec is built.
    """
    rng = Random(seed)
    counts = {identity_id(i): n for i, n in (counts or {}).items()}
    include = (include,) if isinstance(include, str) else include
    wanted = IDENTITY_IDS if include is None else {identity_id(i) for i in include}
    unknown = sorted((set(wanted) | set(counts)) - set(IDENTITIES))
    if unknown:
        raise ValueError(f"unknown identity id(s): {', '.join(unknown)}")
    uncounted = sorted(i for i in counts if IDENTITIES[i].count is None)
    if uncounted:
        raise ValueError(f"identity id(s) without a term or block count: {', '.join(uncounted)}")
    entries: list = []
    for ident, rec in IDENTITIES.items():
        specs = rec.suite(ident, rng, counts.get(ident, rec.count))
        if ident in wanted:
            entries += [(spec, rec.tolerance(spec)) for spec in specs]
    return tuple(entries)
