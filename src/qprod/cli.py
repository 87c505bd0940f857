"""Command-line front end: evaluation, character tables, Psi reduction,
and the identity verification suite.

Exit codes: 0 success (all verifications passed), 1 verification failure,
2 usage or argument error.  All numeric flags accept decimal strings plus
the literals e^-pi, e^-2pi, e^-4pi, e^-8pi.
"""

from __future__ import annotations

import argparse
import json
import sys

from .characters import enumerate_characters
from .numtheory import mobius, psi_by_definition, psi_reduced, radical
from .products import (
    IDENTITIES,
    IDENTITY_IDS,
    IdentitySpec,
    eval_lhs_info,
    eval_rhs_info,
    identity_id,
)
from .qfunc import (
    INFINITY,
    Precision,
    SingularArgumentError,
    gamma_classical,
    hp_str,
    qgamma,
    qpochhammer,
)
from .verify import (
    default_suite,
    reports_csv,
    reports_json,
    run_identity,
    run_suite,
    summarize,
)


def _add_identity_flags(sub):
    sub.add_argument("--id", help="identity id (case-insensitive), e.g. THM5, ex1b")
    sub.add_argument("--alphas", help="comma-separated numerator shifts")
    sub.add_argument("--betas", help="comma-separated denominator shifts")
    sub.add_argument("--n", type=int, help="root-of-unity order for the THM3 identities")
    sub.add_argument("--modulus", type=int, help="character modulus")
    sub.add_argument("--char-index", type=int,
                     help="index into the deterministic character enumeration (see `chars`)")
    sub.add_argument("--q", help="base q in (0, 1); accepts e^-pi style literals")
    sub.add_argument("--z", help="shift parameter z (may be complex, e.g. 0.25+0.25i)")
    sub.add_argument("--terms", type=int, help="term count, for an identity that takes one")
    sub.add_argument("--blocks", type=int, help="block count, for an identity that takes one")


def _add_precision_flags(sub):
    sub.add_argument("--digits", type=int, default=50, help="target decimal digits (default 50)")
    sub.add_argument("--guard", type=int, default=10, help="extra working digits (default 10)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprod",
        description="High-precision evaluation and verification of q-gamma product identities.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate a single function or product side")
    p_eval.add_argument("operation",
                        choices=("qgamma", "qpoch", "gamma", "product-lhs", "product-rhs"))
    p_eval.add_argument("--x", help="argument of qgamma/gamma")
    p_eval.add_argument("--a", help="first argument of the q-Pochhammer symbol")
    p_eval.add_argument("--pochhammer-n", default="inf",
                        help="q-Pochhammer factor count: integer or 'inf' (default)")
    _add_identity_flags(p_eval)
    _add_precision_flags(p_eval)
    p_eval.add_argument("--format", choices=("json", "text"), default="text")
    p_eval.add_argument("--out", help="write output to this file instead of stdout")

    p_chars = subs.add_parser("chars", help="list Dirichlet characters for a modulus")
    p_chars.add_argument("--modulus", type=int, required=True)
    p_chars.add_argument("--char-index", type=int, help="show a single character")
    p_chars.add_argument("--format", choices=("json", "text"), default="text")
    p_chars.add_argument("--out", help="write output to this file instead of stdout")

    p_psi = subs.add_parser("psi", help="reduce the Moebius product over 1 - x^d to lowest terms")
    p_psi.add_argument("--n", type=int, required=True)
    p_psi.add_argument("--format", choices=("json", "text"), default="text")
    p_psi.add_argument("--out", help="write output to this file instead of stdout")

    p_verify = subs.add_parser("verify", help="check one identity: both sides, digits agreed")
    _add_identity_flags(p_verify)
    _add_precision_flags(p_verify)
    p_verify.add_argument("--tolerance", type=int,
                          help="required agreed digits (default: the identity's own, capped, for a "
                               "left side with an error estimate, at one less than it backs)")
    p_verify.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p_verify.add_argument("--out", help="write output to this file instead of stdout")

    p_suite = subs.add_parser("suite", help="run the full verification plan")
    p_suite.add_argument("--only", help="comma-separated identity ids to keep")
    p_suite.add_argument("--seed", type=int, default=20260818)
    # one --<id>-<terms|blocks> per record with a count; dest is the id, set only when given
    for ident, rec in IDENTITIES.items():
        if rec.count is not None:
            field = "terms" if "terms" in rec.takes else "blocks"
            p_suite.add_argument(f"--{ident.lower().replace('_', '-')}-{field}", type=int,
                                 dest=ident, default=argparse.SUPPRESS, metavar="N",
                                 help=f"{ident} {field} (default {rec.count})")
    p_suite.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p_suite.add_argument("--out", help="write output to this file instead of stdout")
    return parser


# ---------------------------------------------------------------------------
# Shared argument interpretation


def _split_list(text: str | None) -> tuple:
    if not text:
        return ()
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _character_from_args(args):
    if args.modulus is None:
        return None
    if args.char_index is None:
        raise ValueError("--modulus needs --char-index; list choices with `qprod chars`")
    chars = enumerate_characters(args.modulus)
    if not 0 <= args.char_index < len(chars):
        raise ValueError(
            f"--char-index {args.char_index} out of range; "
            f"modulus {args.modulus} has {len(chars)} characters"
        )
    return chars[args.char_index]


def _spec_from_args(args) -> IdentitySpec:
    if not args.id:
        raise ValueError("--id is required")
    ident = identity_id(args.id)
    if ident not in IDENTITIES:
        raise ValueError(f"unknown identity id {args.id!r}; choose from {', '.join(IDENTITY_IDS)}")
    return IdentitySpec(
        id=ident,
        alphas=_split_list(args.alphas),
        betas=_split_list(args.betas),
        n=args.n,
        chi=_character_from_args(args),
        q=args.q,
        z=args.z,
        prec=Precision(args.digits, args.guard),
        terms=args.terms,
        blocks=args.blocks,
    )


def _pochhammer_count(text: str):
    if text.lower() in ("inf", "infinity"):
        return INFINITY
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise ValueError("--pochhammer-n must be a non-negative integer or 'inf'")
    return n


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_eval(args) -> int:
    prec = Precision(args.digits, args.guard)
    obj: dict = {"operation": args.operation, "digits": args.digits}
    if args.operation in ("qgamma", "gamma"):
        if args.x is None:
            raise ValueError(f"{args.operation} needs --x")
        if args.operation == "qgamma":
            if args.q is None:
                raise ValueError("qgamma needs --q")
            value = qgamma(args.x, args.q, prec)
            obj["q"] = args.q
        else:
            value = gamma_classical(args.x, prec)
        obj["x"] = args.x
    elif args.operation == "qpoch":
        if args.a is None or args.q is None:
            raise ValueError("qpoch needs --a and --q")
        n = _pochhammer_count(args.pochhammer_n)
        value = qpochhammer(args.a, args.q, n, prec)
        obj.update({"a": args.a, "q": args.q, "n": args.pochhammer_n})
    else:
        spec = _spec_from_args(args)
        if args.operation == "product-lhs":
            value, info = eval_lhs_info(spec)
        else:
            value, info = eval_rhs_info(spec)
        obj["params"] = spec.to_json()
        obj["terms"] = info.terms
        if info.rel_error_estimate is not None:
            obj["rel_error_estimate"] = info.rel_error_estimate
        if info.level is not None:
            obj["extrapolation_level"] = info.level
    obj["value"] = hp_str(value, args.digits)
    if args.format == "json":
        _emit(json.dumps(obj, indent=2, sort_keys=True), args.out)
    else:
        _emit(obj["value"], args.out)
    return 0


def _cmd_chars(args) -> int:
    if args.modulus < 1:
        raise ValueError("--modulus must be a positive integer")
    chars = enumerate_characters(args.modulus)
    header = f"modulus {args.modulus}: {len(chars)} character(s)"
    if args.char_index is not None:
        chars = [_character_from_args(args)]
        header += f", showing #{args.char_index}"
    if args.format == "json":
        payload = {"modulus": args.modulus, "characters": [c.to_json() for c in chars]}
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
        return 0
    lines = [header]
    for c in chars:
        values = []
        for n in range(1, c.modulus + 1):
            v = c.value(n)
            values.append("0" if v is None else str(v))
        lines.append(f"  #{c.index}: exponents {c.exponents}, order {c.order}, "
                     f"conductor {c.conductor()}, "
                     f"{'primitive' if c.is_primitive else 'imprimitive'}"
                     f"{', principal' if c.is_principal else ''}")
        lines.append(f"      chi(1..{c.modulus}) = {', '.join(values)}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_psi(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be a positive integer")
    frac = psi_by_definition(args.n)
    poly, exponent = psi_reduced(args.n)
    r = radical(args.n)
    if args.format == "json":
        payload = {
            "n": args.n,
            "psi": frac.to_json(),
            "radical": r,
            "mobius_radical": mobius(r),
            "reduced_polynomial": poly.to_json(),
            "reduced_exponent": exponent,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
        return 0
    lines = [f"Psi_{args.n}(x) = {frac}"]
    power = "" if exponent == 1 else "^-1"
    base = f"Phi_{r}(x)" if args.n > 1 else "-Phi_1(x)"
    lines.append(f"           = {base}{power}   [radical {r}, mobius {mobius(r)}]")
    _emit("\n".join(lines), args.out)
    return 0


def _format_report_text(report) -> str:
    lines = [
        f"identity:      {report.identity}",
        f"params:        {json.dumps(report.params, sort_keys=True)}",
        f"lhs:           {report.lhs}",
        f"rhs:           {report.rhs}",
        f"rel diff:      {report.rel_diff}",
        f"digits agreed: {report.digits_agreed} (tolerance {report.tolerance_digits})",
    ]
    if report.error:
        lines.append(f"error:         {report.error}")
    if report.vacuous:
        lines.append("note:          vacuous comparison (both sides exactly 0)")
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"result:        {verdict} ({report.elapsed_ms} ms)")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    report = run_identity(_spec_from_args(args), args.tolerance)
    if args.format == "json":
        _emit(json.dumps(report.to_json(), indent=2, sort_keys=True), args.out)
    elif args.format == "csv":
        _emit(reports_csv([report]), args.out)
    else:
        _emit(_format_report_text(report), args.out)
    return 0 if report.passed else 1


def _suite_line(report) -> str:
    p = report.params
    bits = []
    for key in ("q", "z", "n", "terms", "blocks"):
        if p.get(key) is not None:
            bits.append(f"{key}={p[key]}")
    if p.get("chi"):
        bits.append(f"chi=mod{p['chi']['modulus']}#{p['chi'].get('exponents')}")
    if p.get("alphas"):
        bits.append(f"len={len(p['alphas'])}")
    verdict = "PASS" if report.passed else "FAIL"
    tail = f" error={report.error}" if report.error else ""
    return (f"{verdict} {report.identity:<13} agreed={report.digits_agreed:>3} "
            f"tol={report.tolerance_digits:>2} {' '.join(bits)}{tail}")


def _cmd_suite(args) -> int:
    include = None if args.only is None else _split_list(args.only)
    if include == ():
        raise ValueError(f"--only {args.only!r} names no identity id")
    counts = {ident: getattr(args, ident) for ident in IDENTITIES if hasattr(args, ident)}
    entries = default_suite(include=include, seed=args.seed, counts=counts)
    reports = run_suite(entries)
    summary = summarize(reports)
    if args.format == "json":
        _emit(reports_json(reports), args.out)
    elif args.format == "csv":
        _emit(reports_csv(reports), args.out)
    else:
        lines = [_suite_line(r) for r in reports]
        lines.append(f"summary: {summary['passed']}/{summary['total']} passed, "
                     f"{summary['failed']} failed")
        _emit("\n".join(lines), args.out)
    if args.out:
        print(f"wrote {summary['total']} report(s) to {args.out}; "
              f"{summary['passed']}/{summary['total']} passed")
    return 0 if summary["failed"] == 0 else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "chars": _cmd_chars,
    "psi": _cmd_psi,
    "verify": _cmd_verify,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, SingularArgumentError, OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
