"""Acceptance gate: ten end-to-end checks covering the exact cyclotomic
reductions, every registered identity family at its pinned tolerance, and
the perturbation controls.  Each check prints one PASS/FAIL line (run with
`pytest tests/test_acceptance.py -v -s` to see them)."""

import random
import time

import oracles
from qprod import products
from qprod.characters import enumerate_characters
from qprod.numtheory import (
    IntPolynomial,
    RationalPolyFraction,
    cyclotomic,
    mobius,
    psi_by_definition,
    psi_reduced,
    radical,
    totient,
)
from qprod.products import (
    IdentitySpec,
    eval_lhs,
    eval_lhs_info,
    eval_rhs,
    random_cor2_instance,
    random_thm1_instance,
)
from qprod.qfunc import Precision, context, gamma_ctx, qgamma, qpoch_inf_ctx, to_hp, working_eps
from qprod.verify import compare, run_identity

SEED = 20260818


def _verdict(num: int, ok: bool, desc: str):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_psi_reduces_to_radical_cyclotomic():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 301):
        poly, exponent = psi_reduced(n)
        r = radical(n)
        ok = ok and poly == cyclotomic(r) and exponent == mobius(r)
        direct = psi_by_definition(n)
        claimed = (RationalPolyFraction(poly, IntPolynomial.one()) if exponent == 1
                   else RationalPolyFraction(IntPolynomial.one(), poly))
        ok = ok and direct == claimed
    # n = 1 is the lone sign exception: 1 - x is minus the first cyclotomic
    poly1, exp1 = psi_reduced(1)
    ok = ok and poly1.coeffs == (1, -1) and exp1 == 1
    ok = ok and psi_by_definition(1) == RationalPolyFraction(poly1, IntPolynomial.one())
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    _verdict(1, ok, f"Psi_n = Phi_rad(n)^mu(rad n) exactly for n = 2..300 "
                    f"plus the n = 1 sign case ({elapsed:.2f} s)")


def test_criterion_02_prime_power_scaling_reduction():
    ok = True
    checked = {True: 0, False: 0}
    for p in (2, 3, 5):
        for n in range(1, 51):
            base = psi_by_definition(n)
            if n % p == 0:
                expected = base
            else:
                expected = RationalPolyFraction(
                    base.numerator * base.denominator.substitute_power(p),
                    base.denominator * base.numerator.substitute_power(p),
                )
            for k in (1, 2, 3):
                ok = ok and psi_by_definition(p**k * n) == expected
            checked[n % p == 0] += 1
    ok = ok and checked[True] > 0 and checked[False] > 0
    _verdict(2, ok, "Psi_(p^k n) collapses exactly for p in {2,3,5}, k <= 3, "
                    "n <= 50, on both divisibility branches")


def test_criterion_03_balanced_qproduct_instances():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    instances = [random_thm1_instance(rng) for _ in range(20)]
    worst = 10**9
    ok = True
    for alphas, betas in instances:
        for q in ("0.1", "0.5", "0.9"):
            spec = IdentitySpec(id="THM1", alphas=alphas, betas=betas, q=q,
                                prec=Precision(50))
            report = run_identity(spec, 42)
            worst = min(worst, report.digits_agreed)
            ok = ok and report.passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30
    _verdict(3, ok, f"THM1 on 20 seeded instances x 3 bases: min digits agreed "
                    f"{worst} >= 42 ({elapsed:.1f} s)")


def test_criterion_04_root_of_unity_gamma_products():
    worst = 10**9
    ok = True
    runs = 0
    for identity in ("THM3_FULL", "THM3_COPRIME"):
        for n in range(2, 13):
            for q in ("0.2", "0.6", "0.95"):
                spec = IdentitySpec(id=identity, n=n, q=q, prec=Precision(50))
                report = run_identity(spec, 40)
                worst = min(worst, report.digits_agreed)
                ok = ok and report.passed
                runs += 1
    _verdict(4, ok, f"THM3_FULL and THM3_COPRIME for n = 2..12, three bases: "
                    f"{runs} runs, min digits agreed {worst} >= 40")


def test_criterion_05_character_shifted_products():
    prec = Precision(60)
    worst_side = 10**9
    worst_rhs = 10**9
    combos = 0
    primitive_seen = imprimitive_seen = 0
    ok = True
    for k in range(3, 13):
        for chi in enumerate_characters(k):
            if chi.is_principal:
                continue
            if chi.is_primitive:
                primitive_seen += 1
            else:
                imprimitive_seen += 1
            for z in ("0.5", "-0.5", "0.25+0.25i"):
                for q in ("0.3", "0.7"):
                    s5 = IdentitySpec(id="THM5", chi=chi, z=z, q=q, prec=prec)
                    s6 = IdentitySpec(id="COR6", chi=chi, z=z, q=q, prec=prec)
                    lhs = eval_lhs(s5)
                    r5 = eval_rhs(s5)
                    r6 = eval_rhs(s6)
                    params = {"modulus": k, "index": chi.index, "z": z, "q": q,
                              "conductor": chi.conductor(),
                              "primitive": chi.is_primitive}
                    a = compare(lhs, r5, 40, prec, identity="THM5", params=params)
                    b = compare(lhs, r6, 40, prec, identity="COR6", params=params)
                    c = compare(r5, r6, 50, prec, params=params)
                    worst_side = min(worst_side, a.digits_agreed, b.digits_agreed)
                    worst_rhs = min(worst_rhs, c.digits_agreed)
                    ok = ok and a.passed and b.passed and c.passed
                    combos += 1
    ok = ok and combos == 204 and primitive_seen > 0 and imprimitive_seen > 0
    _verdict(5, ok, f"THM5/COR6 over {combos} character-z-q combos: sides agree "
                    f"to >= 40 (min {worst_side}), closed forms to >= 50 "
                    f"(min {worst_rhs}); primitivity recorded per report")


def test_criterion_06_fixed_base_closed_forms():
    prec = Precision(60)
    worst = 10**9
    ok = True
    for identity in ("EX1A", "EX1B", "EX2A", "EX2B",
                     "JACKSON1", "JACKSON2", "JACKSON3", "JACKSON4"):
        report = run_identity(IdentitySpec(id=identity, prec=prec), 40)
        worst = min(worst, report.digits_agreed)
        ok = ok and report.passed
    ctx = context(prec)
    agm_gap = abs(gamma_ctx(ctx.mpf(1) / 4, ctx) - oracles.agm_gamma_quarter(ctx))
    ok = ok and agm_gap < ctx.mpf(10) ** -50
    _verdict(6, ok, f"eight fixed-base closed forms agree to >= 40 digits "
                    f"(min {worst}); Gamma(1/4) matches the lemniscatic AGM "
                    f"route within 1e-50")


def test_criterion_07_classical_limit_products():
    prec = Precision(30)
    ctx = context(prec)
    spec = IdentitySpec(id="COR2", alphas=("0.5", "0.5"), betas=("0.25", "0.75"),
                        terms=10**5, prec=prec)
    raw_gap = abs(products._cor2_lhs(spec, ctx, extrapolate=False)[0] - ctx.sqrt(2))
    root_gap = abs(eval_lhs(spec) - ctx.sqrt(2))
    ok = raw_gap < ctx.mpf(10) ** -4 and root_gap < ctx.mpf(10) ** -35
    rng = random.Random(SEED)
    inside = 0
    for _ in range(10):
        alphas, betas = random_cor2_instance(rng)
        s = IdentitySpec(id="COR2", alphas=alphas, betas=betas,
                         terms=10**5, prec=prec)
        target = eval_rhs(s)
        got, info = eval_lhs_info(s)
        raw, raw_info = products._cor2_lhs(s, ctx, extrapolate=False)
        if (oracles.rel_diff(got, target) <= float(info.rel_error_estimate)
                and oracles.rel_diff(raw, target) <= float(raw_info.rel_error_estimate)):
            inside += 1
    ok = ok and inside == 10
    _verdict(7, ok, f"COR2: sqrt(2) instance off by {float(raw_gap):.2e} < 1e-4 "
                    f"raw and {float(root_gap):.2e} < 1e-35 extrapolated at 1e5 "
                    f"terms; {inside}/10 random instances within their recorded "
                    f"error estimates, raw and extrapolated")


def test_criterion_08_conditionally_convergent_gamma_ratio():
    prec = Precision(30)
    ok = True
    details = []
    for modulus in (3, 4):
        chi = enumerate_characters(modulus)[1]
        target = eval_rhs(IdentitySpec(id="THM4", chi=chi, z="0.5", blocks=2,
                                       prec=prec))
        errs = {}
        for blocks in (10**3, 10**4, 10**5, 10**6):
            s = IdentitySpec(id="THM4", chi=chi, z="0.5", blocks=blocks, prec=prec)
            raw, _ = products._thm4_lhs(s, context(prec), extrapolate=False)
            errs[blocks] = oracles.rel_diff(raw, target)
        ok = ok and errs[10**6] <= 5e-6
        # one decade of blocks buys close to one decade of accuracy in the raw product
        ok = ok and errs[10**4] < errs[10**3] / 3
        ok = ok and errs[10**5] < errs[10**4] / 3
        # the extrapolated product at 1e4 blocks: within its estimate, 25 digits or more
        s = IdentitySpec(id="THM4", chi=chi, z="0.5", blocks=10**4, prec=prec)
        value, info = eval_lhs_info(s)
        extrapolated = oracles.rel_diff(value, target)
        ok = ok and extrapolated <= float(info.rel_error_estimate) and extrapolated < 1e-25
        details.append(f"mod {modulus}: 1e6-block raw error {errs[10**6]:.2e}, "
                       f"1e4-block extrapolated error {extrapolated:.2e}")
    _verdict(8, ok, f"THM4 truncations track the closed form ({'; '.join(details)}; "
                    f"raw error falls ~1/M across three decades)")


def test_criterion_09_prototype_product():
    prec = Precision(30)
    spec = IdentitySpec(id="PROTOTYPE", terms=10**6, prec=prec)
    target = oracles.parse_hp(oracles.PI_SQRT2_OVER_4, dps=40)
    raw, raw_info = products._prototype_lhs(spec, context(prec), extrapolate=False)
    actual_raw = oracles.rel_diff(raw, target)
    ok = actual_raw <= float(raw_info.rel_error_estimate) and actual_raw < 1e-6
    value, info = eval_lhs_info(spec)
    actual = oracles.rel_diff(value, target)
    ok = ok and actual <= float(info.rel_error_estimate) and actual < 1e-38
    _verdict(9, ok, f"alternating (1 -+ 1/(2k+1)) product at 1e6 factors: "
                    f"{actual_raw:.2e} off pi*sqrt(2)/4 raw, within its "
                    f"{float(raw_info.rel_error_estimate):.2e} bound, >= 6 digits; "
                    f"{actual:.2e} extrapolated, within its "
                    f"{float(info.rel_error_estimate):.2e} estimate, >= 38 digits")


def test_criterion_10_property_suites_and_controls():
    prec = Precision(50)
    ctx = context(prec)
    ok = True

    # q-gamma functional equation at random complex arguments
    rng = random.Random(SEED)
    q = to_hp("0.6", ctx)
    tol = ctx.mpf(10) ** -45
    for _ in range(5):
        x = ctx.mpc(0.1 + 2 * rng.random(), -0.5 + rng.random())
        lhs = qgamma(x + 1, q, prec)
        rhs = (1 - ctx.exp(x * ctx.log(q))) / (1 - q) * qgamma(x, q, prec)
        ok = ok and abs(lhs - rhs) / abs(rhs) < tol

    # dissection of the Euler product into n-th-root residue classes
    y = ctx.root(q, 5)
    lhs = ctx.mpf(1)
    for k in range(1, 6):
        lhs *= qpoch_inf_ctx(y**k, q, ctx)
    ok = ok and abs(lhs - qpoch_inf_ctx(y, y, ctx)) / lhs < tol

    # exact character multiplicativity and orthogonality, modulus 12
    for chi in enumerate_characters(12):
        vals = [chi.value(n) for n in range(12)]
        for m in range(12):
            for n in range(12):
                prod = (None if vals[m % 12] is None or vals[n] is None
                        else vals[m % 12] * vals[n])
                ok = ok and chi.value(m * n) == prod
        ints = [v.as_int() if v else 0 for v in vals]
        ok = ok and sum(ints) == (totient(12) if chi.is_principal else 0)

    # q -> 1 monotone approach to the classical value
    target = ctx.sqrt(ctx.pi)
    gaps = [abs(qgamma("0.5", qq, prec) - target) for qq in ("0.9", "0.99", "0.999")]
    ok = ok and gaps[0] > gaps[1] > gaps[2]

    # negative controls: 1e-10 nudges to q, z, or one character value must fail
    chi4 = enumerate_characters(4)[1]
    base = IdentitySpec(id="THM5", chi=chi4, z="0.5", q="0.3", prec=prec)
    lhs_true = eval_lhs(base)
    nudged_q = IdentitySpec(id="THM5", chi=chi4, z="0.5", q="0.3000000001", prec=prec)
    nudged_z = IdentitySpec(id="THM5", chi=chi4, z="0.5000000001", q="0.3", prec=prec)
    ok = ok and not compare(lhs_true, eval_rhs(nudged_q), 40, prec).passed
    ok = ok and not compare(lhs_true, eval_rhs(nudged_z), 40, prec).passed
    fake = oracles.NudgedCharacter(chi4, 3, "1e-10")
    bent, _ = products._char_shift_lhs(fake, ctx.mpf(1) / 2, ctx.mpf(3) / 10, ctx,
                                       working_eps(ctx))
    ok = ok and not compare(bent, eval_rhs(base), 40, prec).passed
    ok = ok and compare(lhs_true, eval_rhs(base), 40, prec).passed

    _verdict(10, ok, "functional equation, dissection, character algebra, "
                     "q -> 1 approach, and all three perturbation controls "
                     "behave as required")
