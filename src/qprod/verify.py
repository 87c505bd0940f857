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
import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from random import Random

from .characters import enumerate_characters
from .products import IdentitySpec, eval_lhs_info, eval_rhs_info
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

_CSV_COLUMNS = (
    "identity",
    "params",
    "lhs",
    "rhs",
    "abs_diff",
    "rel_diff",
    "digits_agreed",
    "tolerance_digits",
    "pass",
    "vacuous",
    "error",
    "elapsed_ms",
)


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
        return {
            "identity": self.identity,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_diff": self.abs_diff,
            "rel_diff": self.rel_diff,
            "digits_agreed": self.digits_agreed,
            "tolerance_digits": self.tolerance_digits,
            "pass": self.passed,
            "vacuous": self.vacuous,
            "error": self.error,
            "elapsed_ms": self.elapsed_ms,
        }


def compare(lhs, rhs, tolerance_digits: int, prec: Precision | None = None,
            identity: str = "COMPARE", params: dict | None = None) -> VerificationReport:
    """Compare two finite values by relative difference in agreed digits.

    Both sides below 10^-digits in modulus is a vacuous pass: flagged, since
    zero-equals-zero carries no evidence about the identity.
    """
    prec = prec or Precision()
    ctx = context(prec)
    a = to_hp(lhs, ctx)
    b = to_hp(rhs, ctx)
    tiny = ctx.mpf(10) ** (-prec.digits)
    amax = max(abs(a), abs(b))
    vacuous = amax < tiny
    if vacuous:
        rel = ctx.mpf(0)
        digits = ctx.dps
    else:
        rel = abs(a - b) / amax
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
    return params


def run_identity(spec: IdentitySpec, tolerance_digits: int) -> VerificationReport:
    """Evaluate both sides through their independent paths and compare.

    Evaluator failures (poles, divergent parameters) become failing reports
    tagged with the error, never exceptions: a suite must always complete.
    """
    t0 = time.perf_counter()
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
    report = compare(lhs, rhs, tolerance_digits, spec.prec,
                     identity=spec.id, params=_report_params(spec, info))
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


def reports_json(reports, indent: int = 2) -> str:
    payload = {"reports": [r.to_json() for r in reports], "summary": summarize(reports)}
    return json.dumps(payload, indent=indent, sort_keys=True)


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

_SCALE = 10**9


def _dec_str(fr: Fraction) -> str:
    """Exact decimal string for a fraction whose denominator divides 10^9."""
    num = fr.numerator * (_SCALE // fr.denominator)
    sign = "-" if num < 0 else ""
    a = abs(num)
    return f"{sign}{a // _SCALE}.{a % _SCALE:09d}"


def _complex_str(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return _dec_str(re)
    sign = "-" if im < 0 else "+"
    return f"{_dec_str(re)}{sign}{_dec_str(abs(im))}i"


def _rand_frac(rng: Random, lo: float, hi: float) -> Fraction:
    return Fraction(rng.randint(int(lo * _SCALE), int(hi * _SCALE)), _SCALE)


def random_thm1_instance(rng: Random):
    """Equal-sum complex parameter lists: Re in [0.2, 3], Im in [-0.5, 0.5].

    The last beta balances the sums exactly (decimal fractions), resampling
    until it falls back inside the same box.
    """
    while True:
        length = rng.randint(1, 4)
        re_a = [_rand_frac(rng, 0.2, 3) for _ in range(length)]
        im_a = [_rand_frac(rng, -0.5, 0.5) for _ in range(length)]
        re_b = [_rand_frac(rng, 0.2, 3) for _ in range(length - 1)]
        im_b = [_rand_frac(rng, -0.5, 0.5) for _ in range(length - 1)]
        re_last = sum(re_a) - sum(re_b)
        im_last = sum(im_a) - sum(im_b)
        if Fraction(1, 5) <= re_last <= 3 and abs(im_last) <= Fraction(1, 2):
            re_b.append(re_last)
            im_b.append(im_last)
            alphas = tuple(_complex_str(r, i) for r, i in zip(re_a, im_a))
            betas = tuple(_complex_str(r, i) for r, i in zip(re_b, im_b))
            return alphas, betas


def random_cor2_instance(rng: Random):
    """Equal-sum positive real lists, entries in [0.2, 1.5]."""
    while True:
        length = rng.randint(1, 4)
        a = [_rand_frac(rng, 0.2, 1.5) for _ in range(length)]
        b = [_rand_frac(rng, 0.2, 1.5) for _ in range(length - 1)]
        last = sum(a) - sum(b)
        if Fraction(1, 5) <= last <= Fraction(3, 2):
            b.append(last)
            return tuple(_dec_str(v) for v in a), tuple(_dec_str(v) for v in b)


def _thm4_tolerance(blocks: int) -> int:
    if blocks >= 10**5:
        return 5
    if blocks >= 10**4:
        return 4
    return 3


def _prototype_tolerance(terms: int) -> int:
    if terms >= 10**6:
        return 6
    return max(2, int(math.log10(terms)) - 1)


def default_suite(
    include=None,
    *,
    seed: int = 20260818,
    thm1_instances: int = 20,
    cor2_instances: int = 10,
    digits_q: int = 50,
    digits_char: int = 60,
    digits_series: int = 30,
    prototype_terms: int = 10**6,
    cor2_terms: int = 10**5,
    thm4_blocks: int = 10**6,
    moduli=range(3, 13),
    thm3_orders=range(2, 13),
    thm1_q=("0.1", "0.5", "0.9"),
    thm3_q=("0.2", "0.6", "0.95"),
    char_q=("0.3", "0.7"),
    char_z=("0.5", "-0.5", "0.25+0.25i"),
) -> tuple:
    """The all-passing verification plan: (IdentitySpec, tolerance) pairs.

    Randomized instances are seeded, so two calls with the same arguments
    build byte-identical suites.  `include` filters by identity id.
    """
    rng = Random(seed)
    p_q = Precision(digits_q)
    p_char = Precision(digits_char)
    p_series = Precision(digits_series)
    entries: list = []

    entries.append((
        IdentitySpec("PROTOTYPE", terms=prototype_terms, prec=p_series),
        _prototype_tolerance(prototype_terms),
    ))

    for _ in range(thm1_instances):
        alphas, betas = random_thm1_instance(rng)
        for q in thm1_q:
            entries.append((IdentitySpec("THM1", alphas=alphas, betas=betas, q=q, prec=p_q), 42))

    entries.append((
        IdentitySpec("COR2", alphas=("0.5", "0.5"), betas=("0.25", "0.75"),
                     terms=cor2_terms, prec=p_series),
        4,
    ))
    for _ in range(cor2_instances):
        alphas, betas = random_cor2_instance(rng)
        entries.append((IdentitySpec("COR2", alphas=alphas, betas=betas,
                                     terms=cor2_terms, prec=p_series), 4))

    for n in thm3_orders:
        for q in thm3_q:
            entries.append((IdentitySpec("THM3_FULL", n=n, q=q, prec=p_q), 40))
            entries.append((IdentitySpec("THM3_COPRIME", n=n, q=q, prec=p_q), 40))

    for k in moduli:
        for chi in enumerate_characters(k):
            if chi.is_principal:
                continue
            for q in char_q:
                for z in char_z:
                    entries.append((IdentitySpec("THM5", chi=chi, q=q, z=z, prec=p_char), 40))
                    entries.append((IdentitySpec("COR6", chi=chi, q=q, z=z, prec=p_char), 40))

    for k in (3, 4):
        chi = enumerate_characters(k)[1]
        entries.append((
            IdentitySpec("THM4", chi=chi, z="0.5", blocks=thm4_blocks, prec=p_series),
            _thm4_tolerance(thm4_blocks),
        ))

    for ident in ("EX1A", "EX1B", "EX2A", "EX2B",
                  "JACKSON1", "JACKSON2", "JACKSON3", "JACKSON4"):
        entries.append((IdentitySpec(ident, prec=p_char), 40))

    if include is not None:
        wanted = {i.upper() for i in include}
        entries = [e for e in entries if e[0].id in wanted]
    return tuple(entries)
