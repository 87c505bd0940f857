"""The fixed-point product kernels against the mpf loops they replaced.

Each product is computed three ways: by a kernel (geometric_product or
rational_product), by its former mpf loop (kept in oracles.py), and by an mpf
reference 40 digits past the working precision over the same factors.  The
factor count (and for the classical products' raw product at N the error
bound too) must equal the former loop's, so the truncation is unchanged, and
the kernel's relative error against the reference may not exceed the former
loop's or 10^-workdps.  The partial products rational_product records in
its pass per residue class are checked against such references at drawn
checkpoints, and each must equal, bit for bit, a call with that stop
alone.  rational_product's results on the counted products' shifts are
pinned bit for bit, as mpf shifts and as dyadic Fractions.  On drawn
dyadic, decimal and past-B mpf shifts (truncated at its B bits), and on
exact Fraction shifts of 1 to 12 decimal places or of so many that their
scale passes 2^B, its error is held to the rounding bound its docstring
derives, packed blocks of eight included.  The counted left sides must
hand the kernel exact shifts wherever their inputs are exact.  The split's
charge to the work budget is held to three factors a step.
geometric_product's blocks of _BLOCK factors are held to the rounding bound
its docstring derives, on drawn a, q and counts, and so are its blocks of
lower degree, on a drawn |a| <= 1/2 as small as 2^-200 and up to 40 blocks,
and its long blocks of 64 to 4096 factors, on drawn a at q = 0.99 and 0.999
and counts up to three blocks of 4096 and more, down to the single factors
left over; a pole in its head of single factors must still raise at its own
factor.  The THM1 sides, which take q^alpha and q^beta from alpha log q, are
held to 10^-dps of a guard+60 left side.

The Euler function's second route, euler_function, is checked against a
direct kernel product 40 digits past the working precision, on both sides of
its crossover, and the work budget must refuse an oversized product at once.
The cyclotomic psi product, psi_product, is checked on both sides of the same
crossover against a product 40 digits past the working precision that keeps
its whole tail, since its direct branch too takes the tail-rule count of
(y; y)_inf.  So is the split of a long (a; q)_inf into a direct head and the
log series of its tail, on drawn q and x, without a head, and at a pole in
the head, and Gamma_q on the split against references that take q^x from x
and q, not from q^x rounded to working precision.  The split and the eta
route keep pinned bits and create no mpmath context, and _float_log, which
both size their work by, is the float log1p of the exact 1 - q.
"""

import dataclasses
import functools
import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import to_rational

import oracles
from qprod import products, qfunc
from qprod.products import _omega, eval_lhs_info, eval_rhs_info
from qprod.characters import enumerate_characters
from qprod.numtheory import divisors, mobius
from qprod.products import IdentitySpec
from qprod.qfunc import (
    Precision,
    SingularArgumentError,
    context,
    euler_function,
    geometric_product,
    geometric_terms,
    psi_product,
    qgamma,
    qpoch_inf_ctx,
    qpochhammer,
    _context_at,
    rational_product,
    rational_products,
    rational_zeros,
    split_context,
    to_hp,
    working_eps,
)
from qprod.verify import default_suite, reports_json, run_identity, run_suite

GRID = [(digits, q) for digits in (50, 100) for q in ("0.5", "0.95", "0.99")]
CHI5 = next(c for c in enumerate_characters(5) if c.order == 4)  # complex values +-i
CHI3 = enumerate_characters(3)[1]
CHI4 = enumerate_characters(4)[1]


def contexts(digits):
    prec = Precision(digits)
    return context(prec), context(Precision(digits, prec.guard + 40))


def check_error(value, oracle, reference, ctx):
    kernel_err = abs(value - reference) / abs(reference)
    oracle_err = abs(oracle - reference) / abs(reference)
    assert kernel_err <= max(oracle_err, ctx.mpf(10) ** -ctx.dps)


def powers(ref, x, start, count):
    """x^start, x^(start+1), ... in the reference context."""
    t = x**start
    for _ in range(count):
        yield t
        t *= x


@pytest.mark.parametrize("digits,qs", GRID)
@pytest.mark.parametrize("a_text", ["0.3", "0.3+0.4i", "q"])
def test_qpoch_inf_matches_mpf_loop(digits, qs, a_text):
    ctx, ref = contexts(digits)
    q = ctx.mpf(qs)
    a = q if a_text == "q" else to_hp(a_text, ctx)
    value = qpoch_inf_ctx(a, q, ctx)
    oracle, factors = oracles.qpoch_inf_mpf(a, q, ctx)
    assert geometric_terms(abs(a), q, ctx) == factors
    ar, qr = ref.convert(a), ref.convert(q)
    # the split keeps the tail the former loop dropped: its reference keeps it too
    split = qfunc._route(a, q, ctx)[0] == "split"
    count = geometric_terms(abs(ar), qr, ref) if split else factors
    reference = ref.fprod(1 - ar * t for t in powers(ref, qr, 0, count))
    check_error(value, oracle, reference, ctx)


@pytest.mark.parametrize("digits,qs", GRID)
def test_char_shift_matches_mpf_loop(digits, qs):
    ctx, ref = contexts(digits)
    q = ctx.mpf(qs)
    z = to_hp("0.25+0.25i", ctx)
    value, info = products._char_shift_lhs(CHI5, z, q, ctx, working_eps(ctx))
    oracle, oracle_info = oracles.char_shift_lhs_mpf(CHI5, z, q, ctx)
    assert info.terms == oracle_info.terms
    # the shifts d_j = q^(-chi(j) z) are inputs both loops round alike
    lq = ctx.log(q)
    d = {j: ref.convert(ctx.exp(-(CHI5.value(j).to_complex(ctx) * z) * lq))
         for j in range(5) if CHI5.value(j) is not None}
    reference = ref.fprod(
        (1 - t * d[n % 5]) / (1 - t)
        for n, t in enumerate(powers(ref, ref.convert(q), 2, info.terms), start=2)
        if n % 5 in d
    )
    check_error(value, oracle, reference, ctx)


@pytest.mark.parametrize("digits,qs", GRID)
def test_psi_product_matches_mpf_loop(digits, qs):
    # the COR6 right side for modulus 3, on both branches held to the
    # tail-complete reference (the bounds are explained above
    # test_psi_product_matches_a_tail_complete_product)
    ctx = context(Precision(digits))
    y = ctx.mpf(qs)
    units = 2 if qfunc._route(y, y, ctx)[0] == "direct" else 100
    assert psi_error(3, y, 1, digits) <= units * ctx.mpf(10) ** -ctx.dps


@pytest.mark.parametrize("qs", ["0.5", "0.95", "0.99"])
def test_thm1_lhs_matches_mpf_loop(qs):
    prec = Precision(50)
    ctx, ref = contexts(prec.digits)
    spec = IdentitySpec("THM1", alphas=("0.3", "0.7+0.2i"), betas=("0.6", "0.4+0.2i"),
                        q=qs, prec=prec)
    value, info = products._thm1_lhs(spec, ctx)
    oracle, oracle_info = oracles.thm1_lhs_mpf(spec, ctx)
    assert info.terms == oracle_info.terms
    q = ctx.mpf(qs)
    lq = ctx.log(q)
    ta = [ref.convert(ctx.exp(to_hp(a, ctx) * lq)) for a in spec.alphas]
    tb = [ref.convert(ctx.exp(to_hp(b, ctx) * lq)) for b in spec.betas]
    reference = ref.fprod(
        (1 - a * t) / (1 - b * t)
        for t in powers(ref, ref.convert(q), 0, info.terms)
        for a, b in zip(ta, tb)
    )
    check_error(value, oracle, reference, ctx)


@pytest.mark.parametrize("qs", ["0.9", "0.999"])
def test_thm1_sides_take_their_inputs_from_log_q(qs):
    # both sides run in split_context and take q^alpha and q^beta from alpha
    # log q there: each is within 10^-dps of a guard+60 left side with the
    # side context's bits of q, alpha and beta that keeps its whole tail
    prec = Precision(50)
    ctx = context(prec)
    side = split_context(ctx.mpf(qs), ctx)
    ref = context(Precision(prec.digits, prec.guard + 60))
    spec = IdentitySpec("THM1", alphas=("0.3+0.1i", "1.7"), betas=("0.6", "1.4+0.1i"),
                        q=qs, prec=prec)
    q = ref.convert(side.mpf(qs))
    lq = ref.log(q)
    reference = ref.mpf(1)
    for a, b in zip(spec.alphas, spec.betas):
        ta, tb = (ref.exp(ref.convert(to_hp(x, side)) * lq) for x in (a, b))
        reference *= (geometric_product(ta, q, ref, n=geometric_terms(abs(ta), q, ref))
                      / geometric_product(tb, q, ref, n=geometric_terms(abs(tb), q, ref)))
    for evaluate in (eval_lhs_info, eval_rhs_info):
        value, _ = evaluate(spec)
        assert abs(value - reference) <= abs(reference) * ctx.mpf(10) ** -ctx.dps


@pytest.mark.parametrize("qs", ["0.3", "0.9"])
def test_geometric_terms_settles_a_near_integer_solution(qs):
    # mag = (1 - q) 10^-dps q^-j (1 +- s) puts the rule's threshold at N = j
    # and j + 1; float logarithms cannot see s, so only the check in working
    # precision tells the two apart
    ctx = context(Precision(50))
    q = ctx.mpf(qs)
    eps = ctx.mpf(10) ** -ctx.dps
    s = ctx.mpf(10) ** -30
    for j in (5, 40):
        for sign, expect in ((-1, j), (1, j + 1)):
            mag = (1 - q) * eps / q**j * (1 + sign * s)
            least = next(n for n in range(2 * j) if mag * q**n / (1 - q) < eps)
            assert least == expect
            assert geometric_terms(mag, q, ctx) == expect
    # a zero magnitude, and one whose logarithm is below the float range,
    # need no factor
    assert geometric_terms(ctx.mpf(0), q, ctx) == 0
    assert geometric_terms(ctx.mpf(2) ** -(10**400), q, ctx) == 0


def test_geometric_terms_past_the_float_range_refuses_a_finite_numerator():
    # at q = 1 - 10^-310, -log q is a subnormal float, and the count
    # (dps ln 10 - log(1 - q)) / -log q overflows a float though its
    # numerator does not: the work budget refuses it as an exact rational
    ctx = qfunc._context_at(320)
    q = 1 - ctx.mpf(10) ** -310
    with pytest.raises(ValueError, match="exceed the work budget"):
        geometric_terms(ctx.mpf(1), q, ctx)


def test_kernel_complex_and_finite_counts():
    ctx = context(Precision(30))
    q = ctx.mpf("0.5")
    a = ctx.mpc("0.25", "0.5")
    value = geometric_product(a, q, ctx, n=3)
    expect = (1 - a) * (1 - a * q) * (1 - a * q * q)
    assert abs(value - expect) < ctx.mpf(10) ** -ctx.dps
    assert geometric_product(ctx.mpf(1), q, ctx, n=2) == 0


def message_of(call):
    with pytest.raises(SingularArgumentError) as info:
        call()
    return str(info.value)


def former_pole(pole_eps):
    """geometric_product's pole argument that words its error as the oracle's mpf loop does."""
    return pole_eps, lambda k: f"vanishing factor 1 - a*q^k (|factor| < {pole_eps})"


def test_near_pole_raises_with_the_former_message():
    prec = Precision(50)
    ctx = context(prec)
    q = ctx.mpf("0.5")
    x = ctx.mpf(-1) + ctx.mpf(10) ** -70  # -1 once rounded to 60 digits
    qx = ctx.exp(x * ctx.log(q))
    pole_eps = ctx.mpf(10) ** -ctx.dps
    expect = message_of(lambda: oracles.qpoch_inf_mpf(qx, q, ctx, pole_eps=pole_eps))
    count = geometric_terms(abs(qx), q, ctx)
    assert message_of(lambda: geometric_product(qx, q, ctx, n=count, pole=former_pole(pole_eps))) == expect
    # Gamma_q's own rule refuses before its denominator is formed
    assert message_of(lambda: qgamma(x, q, prec)) == "Gamma_q(x) at its pole x = -1"
    # the same pole approached off the real axis
    assert message_of(lambda: qgamma("-1+1e-70i", "0.5", prec)) == (
        "Gamma_q(x) at 1.0e-70 from its pole at x = -1: the factor 1 - q^(x + 1) would cancel "
        "71 digits, more than the 60 working digits")
    # 1 - q^(n - chi(n) z) vanishes at n = 3 for the character mod 4 and z = -3
    z = ctx.mpf(-3)
    expect = message_of(lambda: oracles.char_shift_lhs_mpf(CHI4, z, q, ctx))
    assert expect.endswith("at n = 3")
    assert message_of(lambda: products._char_shift_lhs(CHI4, z, q, ctx, working_eps(ctx))) == expect


# ---------------------------------------------------------------------------
# The direct product in blocks of _BLOCK factors

BLOCK = qfunc._BLOCK


def kernel_bound(a, q, n, ctx, ref):
    """geometric_product's bound on its relative error over n factors, rounding to ctx included.

    N (3N / mu + s 3^s) units of 2^(1-B), mu the least of 1/2 and the
    moduli of the factors, and 2^(1-prec) for the result's rounding to ctx.
    """
    B = ctx.prec + 2 * n.bit_length() + 20 + qfunc._BLOCK_GUARD
    ar, qr = ref.convert(a), ref.convert(q)
    mu = min([ref.mpf(1) / 2] + [abs(1 - ar * t) for t in powers(ref, qr, 0, n)])
    assume(mu > 0)
    units = n * (3 * n / mu + BLOCK * 3**BLOCK)
    return ref.mpf(2) ** (1 - ctx.prec) + units * ref.mpf(2) ** (1 - B)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["0.1", "0.5", "0.9", "0.99", "0.999"]),
       st.floats(min_value=-4, max_value=4),
       st.one_of(st.just(0.0), st.floats(min_value=-4, max_value=4)),
       st.integers(0, 3 * BLOCK + 5), st.sampled_from([15, 50]))
@example("0.999", 0.45, 0.0, 3 * BLOCK + 5, 50)
@example("0.999", 0.3, 0.35, 3 * BLOCK + 5, 50)
@example("0.9", 0.2, -0.1, 2 * BLOCK + 1, 15)
@example("0.5", -3.5, 1.5, 2 * BLOCK + 7, 15)
@example("0.5", 3.5, 0.0, 2 * BLOCK + 3, 50)
def test_blocks_at_drawn_a_q_and_count(qs, ar, ai, n, digits):
    # against the mpf loop 40 digits past the working precision, with |a| up
    # to 4 * sqrt(2), so that a head of single factors precedes the blocks,
    # and every count from 0 to three blocks and five factors left over
    ctx, ref = contexts(digits)
    q = ctx.mpf(qs)
    a = ctx.mpc(ar, ai) if ai else ctx.mpf(ar)
    bound = kernel_bound(a, q, n, ctx, ref)
    reference = oracles.qpoch_mpf(ref.convert(a), ref.convert(q), n, ref)
    value = geometric_product(a, q, ctx, n=n)
    assert abs(value - reference) <= abs(reference) * bound


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["0.5", "0.9", "0.99"]),
       st.floats(min_value=-200, max_value=-1),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=-1, max_value=1)),
       st.integers(0, 40 * BLOCK + 15), st.sampled_from([15, 50, 100]))
@example("0.9", -1.0, 0.0, 40 * BLOCK + 7, 50)
@example("0.5", -1.0, 0.25, 20 * BLOCK + 3, 100)
@example("0.9", -math.inf, 0.5, 2 * BLOCK + 1, 15)
@example("0.9", -math.inf, 1.0, 2 * BLOCK + 1, 15)
def test_low_degree_blocks_at_drawn_a_q_and_count(qs, log2_mag, turn, n, digits):
    # |a| = 2^log2_mag <= 1/2, real (turn 0 or 1) or at the angle turn * pi, so
    # that blocks start at once and |t| falls through the degrees at which a
    # block drops its terms that cannot move it.  The examples: the degree
    # falls from 16 to 3 in one run of 40 blocks; a complex run falls to the
    # degree-1 block P = c_0 + c_1 t; t = 0, complex and real.
    ctx, ref = contexts(digits)
    q = ctx.mpf(qs)
    mag = ctx.mpf(2) ** log2_mag
    a = (mag if turn == 0 else -mag) if turn in (0, 1) else mag * ctx.expjpi(turn)
    bound = kernel_bound(a, q, n, ctx, ref)
    reference = oracles.qpoch_mpf(ref.convert(a), ref.convert(q), n, ref)
    value = geometric_product(a, q, ctx, n=n)
    assert abs(value - reference) <= abs(reference) * bound


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["0.99", "0.999"]),
       st.floats(min_value=-120, max_value=-1),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=-1, max_value=1)),
       st.integers(0, 3 * 4096 + 100), st.sampled_from([15, 50]))
@example("0.99", -1.0, 0.0, 2 * 4096 + 2000 + 7, 50)
@example("0.999", -14.0, 0.3, 2 * 4096 + 1024 + 256 + 64 + 16 + 3, 15)
@example("0.999", -8.0, 1.0, 3 * 4096 + 700, 100)
@example("0.99", -1.0, 0.5, 4096 + 1800, 50)
@example("0.999", -99.5, 0.0, 64 + 3, 50)
@example("0.999", -102.5, 0.3, 256 + 3, 50)
@example("0.999", -105.5, 1.0, 1024 + 3, 50)
@example("0.999", -107.5, 0.3, 4096 + 3, 50)
@example("1e-20", -1.0, 0.0, 1000, 50)
@example("1e-100", -1.0, 0.3, 1000, 50)
def test_long_blocks_at_drawn_a_q_and_count(qs, log2_mag, turn, n, digits):
    # Near q = 1, once |t| < 1/(2s), blocks of s = 64, 256, 1024 and 4096
    # factors follow, each the largest that fits in the factors left, and
    # then, as they run out, smaller blocks and single factors.  The
    # examples: from |t| = 1/2, real, blocks of 16, 64, 256 and 4096
    # factors, then 1024, 64 and 16 and seven single factors; a complex run
    # that starts with two blocks of 4096 and ends with one block of each
    # smaller size and three single factors; a real run at 100 digits whose
    # first blocks of 64 keep all 64 degrees, through every size and back;
    # a complex run from |t| = 1/2 whose last blocks stop at degree 3.  The
    # next four start one block of each size just below the most bits at
    # which it stops at degree 2, where its term of degree 2 is 60 to 2 10^4
    # times the bound: a block that kept one degree fewer would fail there.
    # At a tiny q, t falls far below 1/128 within the first block of 16, and
    # q = 1e-100 is 0 to the kernel's B bits.
    ctx, ref = contexts(digits)
    q = ctx.mpf(qs)
    mag = ctx.mpf(2) ** log2_mag
    a = (mag if turn == 0 else -mag) if turn in (0, 1) else mag * ctx.expjpi(turn)
    bound = kernel_bound(a, q, n, ctx, ref)
    reference = oracles.qpoch_mpf(ref.convert(a), ref.convert(q), n, ref)
    value = geometric_product(a, q, ctx, n=n)
    assert abs(value - reference) <= abs(reference) * bound


@pytest.mark.parametrize("qs,k0,n", [("0.5", 5, 60), ("0.99", 40, 300)])
@pytest.mark.parametrize("imag", [None, "1e-45"])
def test_pole_in_the_head_raises_at_its_factor(qs, k0, n, imag):
    # 1 - a q^k vanishes at k = k0, in the head of single factors, and blocks
    # follow it; eps = 10^-30 lies far above the rounding of a = q^-k0
    ctx = context(Precision(50))
    q = ctx.mpf(qs)
    a = ctx.exp(-k0 * ctx.log(q))
    if imag:
        a = ctx.mpc(a, ctx.mpf(imag))
    assert abs(a) * q ** (n - BLOCK) <= ctx.mpf(1) / 2
    pole = (ctx.mpf(10) ** -30, lambda k: f"k = {k}")
    assert message_of(lambda: geometric_product(a, q, ctx, n=n, pole=pole)) == f"k = {k0}"


# ---------------------------------------------------------------------------
# rational_product: PROTOTYPE, COR2 and THM4


def check_classical(spec, lhs, oracle, factors):
    """The kernel-backed raw product at N against its former mpf loop and a reference.

    The left side's extrapolate=False value is the raw product the former
    loop computed, with the same factor count and error bound.  factors(ref)
    yields the reference's factors in the reference context, built from the
    spec's exact inputs.
    """
    ctx, ref = contexts(spec.prec.digits)
    value, info = lhs(spec, ctx, extrapolate=False)
    old, old_info = oracle(spec, ctx)
    assert (info.terms, info.rel_error_estimate, info.level) == (
        old_info.terms, old_info.rel_error_estimate, 0)
    check_error(value, old, ref.fprod(factors(ref)), ctx)


@pytest.mark.parametrize("digits", [30, 60])
def test_prototype_matches_mpf_loop(digits):
    spec = IdentitySpec("PROTOTYPE", terms=10**4, prec=Precision(digits))

    def factors(ref):
        for j in range(1, spec.terms + 1):
            yield ref.mpf(2 * j + 2 if j & 1 else 2 * j) / (2 * j + 1)

    check_classical(spec, products._prototype_lhs, oracles.prototype_lhs_mpf, factors)


@pytest.mark.parametrize("alphas,betas", [
    (("0.3", "0.7"), ("0.45", "0.55")),
    (("-1.5", "2.25"), ("-0.75", "1.5")),
    (("0.3+0.2i", "0.6-0.1i"), ("0.5+0.1i", "0.4")),
], ids=["real", "negative", "complex"])
def test_cor2_matches_mpf_loop(alphas, betas):
    spec = IdentitySpec("COR2", alphas=alphas, betas=betas, terms=2000, prec=Precision(30))

    def factors(ref):
        pairs = [(to_hp(a, ref), to_hp(b, ref)) for a, b in zip(alphas, betas)]
        for n in range(spec.terms):
            for a, b in pairs:
                yield (n + a) / (n + b)

    check_classical(spec, products._cor2_lhs, oracles.cor2_lhs_mpf, factors)


@pytest.mark.parametrize("chi,z_text", [(CHI3, "0.5"), (CHI4, "-0.5"), (CHI5, "0.25+0.25i")],
                         ids=["mod3", "mod4", "mod5-complex"])
def test_thm4_matches_mpf_loop(chi, z_text):
    spec = IdentitySpec("THM4", chi=chi, z=z_text, blocks=2000, prec=Precision(30))
    k = chi.modulus

    def factors(ref):
        z = to_hp(z_text, ref)
        cz = {r: _omega(chi.value(r), ref) * z for r in range(k) if chi.value(r) is not None}
        for n in range(2, spec.blocks * k + 2):
            if n % k in cz:
                yield (n - cz[n % k]) / n

    check_classical(spec, products._thm4_lhs, oracles.thm4_lhs_mpf, factors)


def test_rational_product_keeps_a_tiny_shift_at_n_zero():
    # a_0 / b_0 at n = 0 is far below the kernel's fixed-point unit
    ctx, ref = contexts(30)
    a, b = ctx.mpf("1e-40"), ctx.mpf("3e-45")
    value = rational_product([(a, b)], 0, [50], ctx)[0]
    reference = ref.fprod((n + ref.convert(a)) / (n + ref.convert(b)) for n in range(50))
    assert abs(value - reference) / abs(reference) <= ctx.mpf(10) ** -ctx.dps


def test_rational_product_of_an_empty_range_is_one():
    ctx = context(Precision(30))
    assert rational_product([(ctx.mpf("0.5"), ctx.mpf("0.25"))], 0, [0], ctx) == [1]
    # the n = 0 factor, whose denominator vanishes here, lies outside [0, 0)
    assert rational_product([(ctx.mpf("0.5"), ctx.mpf(0))], 0, [0], ctx) == [1]


def test_rational_product_refuses_a_negative_start():
    # the factors n = -3 .. 0 may not be dropped silently
    ctx = context(Precision(30))
    with pytest.raises(ValueError, match="start >= 0"):
        rational_product([(ctx.mpf("0.5"), ctx.mpf("0.25"))], -3, [5], ctx)


# a shift 0.05 or more from every integer, so no factor n + x nears 0 for n >= 0
SHIFT_PART = st.floats(min_value=-3.5, max_value=3.5).filter(lambda x: abs(x - round(x)) >= 0.05)
SHIFT = st.tuples(SHIFT_PART, st.one_of(st.just(0.0), st.floats(min_value=-2, max_value=2)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.none(), st.tuples(SHIFT, SHIFT)), min_size=1, max_size=6),
       st.sampled_from([0, 1, 2]), st.integers(0, 30), st.integers(0, 5), st.booleans(),
       st.sampled_from([30, 50]))
def test_rational_product_blocks_at_drawn_shifts(shifts, start, count, extra, real, digits):
    # every class count mod 4, counts 0 to 3 without a full block, and 20 or
    # more factors a class, so every difference of every block series is used;
    # real=True drops the imaginary parts, so both paths get long classes
    k = len(shifts)
    stop = start + count * k + extra % k
    ctx, ref = contexts(digits)

    def value(part):
        return ctx.mpf(part[0]) if real or not part[1] else ctx.mpc(*part)

    pairs = [None if s is None else (value(s[0]), value(s[1])) for s in shifts]
    [result] = rational_product(pairs, start, [stop], ctx)
    reference = ref.fprod((n + ref.convert(pairs[n % k][0])) / (n + ref.convert(pairs[n % k][1]))
                          for n in range(start, stop) if pairs[n % k] is not None)
    assert abs(result - reference) <= abs(reference) * ctx.mpf(10) ** -ctx.dps


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.none(), st.tuples(SHIFT, SHIFT)), min_size=1, max_size=5),
       st.sampled_from([0, 1, 2]), st.lists(st.integers(0, 150), min_size=1, max_size=6),
       st.booleans(), st.sampled_from([30, 50]))
def test_rational_product_at_drawn_stops(shifts, start, offsets, real, digits):
    # stops anywhere, aligned to whole blocks or not, repeated or not: each
    # partial product is the product over [start, c) to 10^-(workdps + 5),
    # rounded to a context 5 digits wider than the one that sets B
    k = len(shifts)
    stops = sorted(start + c for c in offsets)
    ctx, ref = contexts(digits)
    wide = _context_at(ctx.dps + 5)

    def value(part):
        return ctx.mpf(part[0]) if real or not part[1] else ctx.mpc(*part)

    pairs = [None if s is None else (value(s[0]), value(s[1])) for s in shifts]
    results = rational_product(pairs, start, stops, ctx, wide)
    assert len(results) == len(stops)
    for c, result in zip(stops, results):
        reference = ref.fprod((n + ref.convert(pairs[n % k][0])) / (n + ref.convert(pairs[n % k][1]))
                              for n in range(start, c) if pairs[n % k] is not None)
        assert abs(result - reference) <= abs(reference) * wide.mpf(10) ** -wide.dps


# Every bit of rational_product's results on the counted products' shifts,
# as signed (mantissa, exponent) at a 70-digit result context, which holds
# each class's whole B-bit running product; a product of several classes is
# rounded once there.
def pinned_cases(ctx):
    half = ctx.mpf(1) / 2
    thm4_mod5 = [None if v is None else (-_omega(v, ctx) * ctx.mpc("0.25", "0.25"), 0)
                 for v in (CHI5.value(j) for j in range(5))]
    return {  # name: (shifts, start, stops)
        "prototype": ([(0, half), (1, half)], 1, [41, 1001, 4003]),
        "thm4-mod4-z+0.5": ([None, (-half, 0), None, (half, 0)], 2, [402, 8002]),
        "thm4-mod4-z-0.5": ([None, (half, 0), None, (-half, 0)], 2, [402, 8002]),
        "cor2-decimal": ([(ctx.mpf("0.3"), ctx.mpf("0.45"))], 0, [2000]),
        "thm4-mod5-complex-a": (thm4_mod5, 2, [62, 2002, 10002]),
        "cor2-complex-b": ([(ctx.mpc("0.3", "0.2"), ctx.mpc("0.5", "0.1"))], 0, [2000]),
        "tiny-past-B": ([(ctx.mpf("1e-40"), ctx.mpf("3e-45"))], 0, [7, 50]),
    }


RATIONAL_PINS = {
    "cor2-complex-b": [
        ((0xee906b5010f1dc5fca4a81fd832bcff0a28a63313c11056387bf0edd599, -240),
         (0x12725b8936db97b54d2b87adbea0b6b064c544df69a35c28f59f5e4e9f7, -235)),
    ],
    "cor2-decimal": [
        ((0x6bb702680af8352da1f5dff7d5f72852b663c6f8345a5ae5c0ecd84e2fd, -237),),
    ],
    "prototype": [
        ((0x8dbd524c6a13ddb06f8c918d1d423dbdd1845594ab4fc4b21efb2021c03, -235),),
        ((0x8e278d66a249377ccf070547f8d5fea4718dad551d1981a2b71cd61a305, -235),),
        ((0x8e2af5e4bd06f30bfd8d5d01e3f98be1999895b1d2c5ab04dcafb9c0f59, -235),),
    ],
    "thm4-mod4-z+0.5": [
        ((0x8a7b49ec4755ced96f9591eed733f874ac3c946e5460655d26183d96925, -235),),
        ((0x8a8aff1e85d195c26f0732185f59faf5892dd2a4f99c170c392a780d613, -235),),
    ],
    "thm4-mod4-z-0.5": [
        ((0xdf28ffde30eb4755c4fbbef98dc02bf727ae3ca07e3a8a03d236e1b3a73, -236),),
        ((0xdefed619cadd0c3fbe46babde72cfed197e79272ed073413bf7403f0ca9, -236),),
    ],
    "thm4-mod5-complex-a": [
        ((0x22b8e9814451610cc06fc9b74914c18bf63cdf6aa427fd502046284030b, -233),
         (-0x401628aa3c9b3dd110351bf3750b68d9a818eb5c000e947dd5a134159a9, -245)),
        ((0x8b378f9aeac5b4e28b1a4b7411a4dcf721f062a5b59e7b0a114c590b45f, -235),
         (0xaf4de7b140bcdf97120482fbf82353ae66d2db1d55ad4dc9f61525ffd27, -247)),
        ((0x22ce6c9c2ef6692e82025e5c8e0ee3ae3df49b26626ff5c01169dabdc83, -233),
         (0xbab1ccdfd73069aee412a3e1fe97d17b655d23276187627ecc7fd293be5, -247)),
    ],
    "tiny-past-B": [
        ((0x411aaaaaaaaaaaaaaaaaaaaaaaaaaaaaafcd4c2bf24784b9f8e255716d7, -219),),
        ((0x1046aaaaaaaaaaaaaaaaaaaaaaaaaaaaad130676fee0ee83d38deab1b0b, -217),),
    ],
}


def mantissas(value):
    """(mantissa, exponent) of a real value, or of both parts of a complex one."""
    parts = (value.real, value.imag) if hasattr(value, "_mpc_") else (value,)
    return tuple((-int(p.man) if p < 0 else int(p.man), int(p.exp)) for p in parts)


@pytest.mark.parametrize("name", sorted(RATIONAL_PINS))
def test_rational_product_keeps_its_bits(name):
    ctx = context(Precision(30))
    shifts, start, stops = pinned_cases(ctx)[name]
    values = rational_product(shifts, start, stops, ctx, _context_at(70))
    assert [mantissas(v) for v in values] == RATIONAL_PINS[name]


def decimal(i, places):
    """i / 10^places as a decimal string with that many places."""
    whole, frac = divmod(abs(i), 10**places)
    return "%s%d.%0*d" % ("-" if i < 0 else "", whole, places, frac)


def exact_places(lo, hi):
    """Decimal strings in [-3.5, 3.5] with lo to hi places."""
    return st.integers(lo, hi).flatmap(
        lambda p: st.integers(-35 * 10 ** (p - 1), 35 * 10 ** (p - 1)).map(lambda i: decimal(i, p)))


# Shift parts of five kinds.  As mpf values: dyadic, so a class runs at a
# scale of a few bits; four-place decimals, which need their mantissa's bits;
# and parts so small that they need more than B bits and are truncated at B.
# As Fractions (EXACT_KINDS): decimals of 1 to 12 places, so a class runs at
# S = 10^12 or less; and decimals of 80 to 90 places, whose S passes 2^B, so
# they are truncated at B.  A real class of any kind runs packed.  No dyadic
# part is a negative integer, which would make long products vanish.
SHIFT_KINDS = {
    "dyadic": st.integers(-56, 56).filter(lambda i: i >= 0 or i % 16)
                .map(lambda i: "%.4f" % (i / 16)),
    "decimal": st.integers(-35000, 35000).map(lambda i: "%.4f" % (i / 10**4)),
    "past-B": st.tuples(st.integers(-99, 99), st.integers(40, 60)).map("{0[0]}e-{0[1]}".format),
    "exact": exact_places(1, 12),
    "exact-past-B": exact_places(80, 90),
}
EXACT_KINDS = ("exact", "exact-past-B")


def shift_converter(kind, real, ctx):
    """A drawn (real, imag) part pair as rational_product's shift.

    An exact kind gives a Fraction of the real part, or, when real is False
    and the imaginary part is nonzero, the mpf of the real part, so a pair
    may mix a Fraction with an mpf.  Other kinds give an mpf, or an mpc when
    real is False and the imaginary part is nonzero.
    """
    def convert(part):
        if real or part[1] == "0":
            return Fraction(part[0]) if kind in EXACT_KINDS else ctx.mpf(part[0])
        return ctx.mpf(part[0]) if kind in EXACT_KINDS else ctx.mpc(*part)
    return convert


def exact(x):
    """A shift part (an int, a Fraction or an mpf) as an exact Fraction."""
    return Fraction(*to_rational(x._mpf_)) if hasattr(x, "_mpf_") else Fraction(x)


def rounding_bound(pairs, start, stop, B, ref):
    """rational_product's docstring bound on its relative error over [start, stop), first order.

    Each class runs at the scale S, the lcm of the denominators of its
    shifts' parts capped at 2^B, where each part x becomes the int floor(x
    S).  Every class steps once per factor n with n S + min(ar, br) <= 0
    (ar, ai, br, bi those ints), then once per block, then once per factor
    left over.  It takes blocks of two when bi is not 0, of four when ai
    is not 0, and of qfunc._PACKED_BLOCK otherwise.  Each step rounds by
    less than 2^(1 - B) / min(1, |f|), f its value, sqrt(2) times that in
    a complex class (a shift has a nonzero imaginary part).  A part
    truncated at B bits moves n + x by less than 2^-B, sqrt(2) times as
    much when complex; at an exact scale nothing is truncated.  The one
    rounding of the classes' product to the result context is the caller's.
    """
    k = len(pairs)
    lo = max(start, 1)
    total = ref.mpf(0)
    for r, pair in enumerate(pairs):
        if pair is None:
            continue
        a, b = (ref.convert(x) for x in pair)
        ns = range(lo + (r - lo) % k, stop, k)
        parts = [exact(part) for x in pair for part in ((x.real, x.imag) if hasattr(x, "_mpc_") else (x, 0))]
        S = math.lcm(*(part.denominator for part in parts))
        truncated = S > 2**B
        S = min(S, 2**B)
        ar, ai, br, bi = (math.floor(part * S) for part in parts)
        complex_class = any(parts[1::2])
        root = ref.sqrt(2) if complex_class else 1
        unit = ref.mpf(2) ** (1 - B) * root
        size = 2 if bi else 4 if ai else qfunc._PACKED_BLOCK
        head = sum(1 for n in ns if n * S + min(ar, br) <= 0)
        whole = head + (len(ns) - head) // size * size
        steps = ([[n] for n in ns[:head]] + [ns[i:i + size] for i in range(head, whole, size)]
                 + [[n] for n in ns[whole:]])
        for step in steps:
            total += unit / min(1, abs(ref.fprod((n + a) / (n + b) for n in step)))
        if truncated:
            cut = ref.mpf(2) ** -B * root
            total += sum(cut / abs(n + a) + cut / abs(n + b) for n in ns)
    return total


@pytest.mark.parametrize("kind", sorted(SHIFT_KINDS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.data(), st.sampled_from([0, 1, 2]), st.integers(0, 300), st.integers(0, 3), st.booleans(),
       st.sampled_from([30, 50]))
# packed classes: one whose first two factors are negative, so it steps
# over them one at a time before its blocks; the same with a four-place
# decimal, whose class runs at a wide S as an mpf (decimal, past-B) and at
# 10^4 as a Fraction; one whose shift 2^20 + 1/2 sets the field width of
# its packed differences.  Complex classes (real=False; an exact kind keeps
# only the real parts): a complex b beside a complex a, 101 factors each,
# so the blocks of two leave one over, and the n = 0 factor; a complex b
# and a complex a whose first factors have a negative real part, so they
# step over them one at a time before their blocks
@example(data=[(("-2.5", "0"), ("0.5", "0"))], start=1, count=60, extra=0, real=True, digits=30)
@example(data=[(("-2.3205", "0"), ("0.5", "0"))], start=1, count=200, extra=0, real=True, digits=30)
@example(data=[(("1048576.5", "0"), ("0.25", "0")), (("-0.5", "0"), ("1048576.75", "0"))],
         start=0, count=300, extra=1, real=True, digits=50)
@example(data=[(("0.3", "0.2"), ("0.5", "0.1")), (("-0.25", "0.5"), ("0.75", "0"))],
         start=0, count=101, extra=1, real=False, digits=30)
@example(data=[(("-2.5", "0.25"), ("0.5", "-0.5")), (("-3.25", "0.5"), ("0.5", "0"))],
         start=1, count=60, extra=0, real=False, digits=30)
def test_rational_product_within_its_rounding_bound(kind, data, start, count, extra, real, digits):
    # the docstring's own bound, against a guard+40 product over the same
    # factors, built from the shifts' exact values: the result context
    # holds every bit of each class's B-bit running product, and the three
    # roundings there (the product of the classes, the n = 0 factor, the
    # product with it) and the growth of the first-order bound, exp(total)
    # - 1, are added; an @example passes its shifts in place of data
    parts = SHIFT_KINDS[kind]
    value = st.tuples(parts, st.one_of(st.just("0"), parts))
    shifts = data if isinstance(data, list) else data.draw(
        st.lists(st.tuples(value, value), min_size=1, max_size=4))
    k = len(shifts)
    stop = start + count * k + extra % k
    ctx, ref = contexts(digits)
    B = ctx.prec + 2 * (stop - start).bit_length() + 20
    wide = _context_at(mpmath.libmp.prec_to_dps(B) + 10)
    convert = shift_converter(kind, real, ctx)
    pairs = [(convert(a), convert(b)) for a, b in shifts]
    # no factor is 0 or has a pole
    assume(all(n + x != 0 for n in range(start, stop) for x in pairs[n % k]))
    [result] = rational_product(pairs, start, [stop], ctx, wide)
    reference = ref.fprod((n + ref.convert(pairs[n % k][0])) / (n + ref.convert(pairs[n % k][1]))
                          for n in range(start, stop))
    bound = ref.expm1(rounding_bound(pairs, start, stop, B, ref)) + 3 * ref.mpf(2) ** -(wide.prec - 1)
    assert abs(result - reference) <= abs(reference) * bound


@pytest.mark.parametrize("kind", sorted(SHIFT_KINDS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.data(), st.sampled_from([0, 1, 2]), st.integers(5, 8),
       st.lists(st.integers(0, 127), min_size=2, max_size=6), st.booleans(), st.sampled_from([30, 50]))
def test_rational_product_stops_are_independent(kind, data, start, bits, offsets, real, digits):
    # every value of a call with several stops is, to the bit, the value of
    # a call with that stop alone, in a result context that holds each
    # class's whole B-bit product; every c - start has the same bit length,
    # so both calls run at the same B, and not every stop ends whole blocks
    parts = SHIFT_KINDS[kind]
    value = st.tuples(parts, st.one_of(st.just("0"), parts))
    shifts = data.draw(st.lists(st.tuples(value, value), min_size=1, max_size=4))
    k = len(shifts)
    half = 1 << (bits - 1)
    stops = sorted(start + half + c % half for c in offsets)
    assume(any((c - start) % (4 * k) for c in stops))
    ctx = context(Precision(digits))
    B = ctx.prec + 2 * (stops[-1] - start).bit_length() + 20
    wide = _context_at(mpmath.libmp.prec_to_dps(B) + 10)
    convert = shift_converter(kind, real, ctx)
    pairs = [(convert(a), convert(b)) for a, b in shifts]
    assume(all(n + x != 0 for n in range(start, stops[-1]) for x in pairs[n % k]))
    values = rational_product(pairs, start, stops, ctx, wide)
    for c, value in zip(stops, values):
        assert mantissas(value) == mantissas(rational_product(pairs, start, [c], ctx, wide)[0])


@pytest.mark.parametrize("name", ["prototype", "thm4-mod4-z+0.5", "thm4-mod4-z-0.5"])
def test_dyadic_fractions_keep_the_pinned_bits(name):
    # a dyadic Fraction runs at the scale 2^beta of the equal mpf, so its
    # ints, and so every bit of the result, are the same
    ctx = context(Precision(30))
    shifts, start, stops = pinned_cases(ctx)[name]
    fractions = [None if s is None else tuple(exact(x) for x in s) for s in shifts]
    values = rational_product(fractions, start, stops, ctx, _context_at(70))
    assert [mantissas(v) for v in values] == RATIONAL_PINS[name]


def test_dyadic_fractions_divide_the_n_zero_factor_to_the_bit():
    # COR2's fixed instance: a_0 / b_0 = 2 and 2/3, exactly divided and rounded once either way
    ctx = context(Precision(30))
    wide = _context_at(70)
    for a, b in (("0.5", "0.25"), ("0.5", "0.75")):
        as_mpf = rational_product([(ctx.mpf(a), ctx.mpf(b))], 0, [7, 2000], ctx, wide)
        as_fraction = rational_product([(Fraction(a), Fraction(b))], 0, [7, 2000], ctx, wide)
        assert [mantissas(v) for v in as_fraction] == [mantissas(v) for v in as_mpf]


@pytest.mark.parametrize("spec,exact_shifts", [
    (IdentitySpec("PROTOTYPE", terms=100, prec=Precision(30)), True),
    (IdentitySpec("COR2", alphas=("0.3205", "0.5"), betas=("0.6538", "0.1667"), terms=100,
                  prec=Precision(30)), True),
    (IdentitySpec("COR2", alphas=("0.3+0.2i", "0.6-0.1i"), betas=("0.5+0.1i", "0.4"), terms=100,
                  prec=Precision(30)), False),
    (IdentitySpec("THM4", chi=CHI4, z="0.3", blocks=100, prec=Precision(30)), True),
    (IdentitySpec("THM4", chi=CHI5, z="0.25", blocks=100, prec=Precision(30)), False),
], ids=["prototype", "cor2-decimal", "cor2-complex", "thm4-real", "thm4-complex-chi"])
def test_counted_sides_pass_exact_shifts_where_their_inputs_are_exact(monkeypatch, spec, exact_shifts):
    # the decimal classes reach the kernel's exact scale only if their
    # evaluator hands it ints and Fractions; a complex value stays an mpf or
    # mpc, but a THM4 residue with chi(n) = +-1 is exact beside the others
    calls = []

    def spy(shift_lists, *args):
        calls.extend(shift_lists)
        return rational_products(shift_lists, *args)

    monkeypatch.setattr(products, "rational_products", spy)
    qfunc._MEMO.clear()  # a side stored by an earlier test would reach no kernel
    eval_lhs_info(spec)
    seen = [x for shifts in calls for pair in shifts if pair is not None for x in pair]
    assert seen and all(isinstance(x, (int, Fraction)) for x in seen) == exact_shifts
    if spec.chi is not None:
        assert all(isinstance(x, (int, Fraction)) for shifts in calls for j, pair in enumerate(shifts)
                   if pair is not None and spec.chi.value(j).order <= 2 for x in pair)


def test_rational_zeros_are_exact_integer_roots():
    ctx = context(Precision(30))
    values = [None, ctx.mpf(-7), ctx.mpc(-5, 0), ctx.mpf("-3.5"), ctx.mpc(-4, 1)]
    # n = 7 and n = 5 lie in other classes mod 5 than -7 and -5 + 0i; -3.5 and -4 + i never vanish
    assert rational_zeros(values, 0, 100, ctx) == []
    assert rational_zeros([ctx.mpf(-6), ctx.mpc(-3, 0)], 0, 100, ctx) == [3, 6]
    assert rational_zeros([ctx.mpf(-6), ctx.mpc(-3, 0)], 4, 6, ctx) == []


def test_cor2_pole_raises_with_the_former_message():
    # an exact beta at a pole is refused when the spec is built, the complex -3+0i as the real -3
    for beta in ("-3", "-3+0i"):
        with pytest.raises(ValueError) as info:
            IdentitySpec("COR2", alphas=("0.5", "-2.5"), betas=(beta, "1"), terms=100, prec=Precision(30))
        assert str(info.value) == f"COR2 entries must avoid non-positive integers, got {beta!r}"
    # a beta 10^-60 above -3 beside a complex alpha runs as a value, which rounds onto the pole
    spec = IdentitySpec("COR2", alphas=("0.5+0.1i", "-2.5-0.1i"), betas=("-2." + "9" * 60, "0." + "9" * 60),
                        terms=100, prec=Precision(30))
    expect = "factor n + beta vanishes at n = 3"
    assert message_of(lambda: oracles.cor2_lhs_mpf(spec, context(spec.prec))) == expect
    assert message_of(lambda: eval_lhs_info(spec)) == expect


def test_thm4_pole_raises_with_the_former_message():
    # 1 - chi(3) z / 3 = 1 - (-1)(-3)/3 vanishes for the character mod 4
    spec = IdentitySpec("THM4", chi=CHI4, z="-3", blocks=10, prec=Precision(30))
    expect = "factor 1 - chi(n) z / n vanishes at n = 3"
    assert message_of(lambda: oracles.thm4_lhs_mpf(spec, context(spec.prec))) == expect
    assert message_of(lambda: eval_lhs_info(spec)) == expect


# ---------------------------------------------------------------------------
# The memo: geometric_product, euler_function, qgamma_ctx, whole sides, parsed
# inputs, logarithms and complex character values


def test_memo_hit_is_bit_identical():
    ctx = context(Precision(40))
    q = ctx.mpf("0.7")
    a = ctx.mpc("0.123456789", "0.2")
    qfunc._MEMO.clear()
    cold = geometric_product(a, q, ctx, n=200)
    warm = geometric_product(a, q, ctx, n=200)
    assert warm._mpc_ == cold._mpc_
    assert len(qfunc._MEMO) == 1
    # another context with the same working precision gets the bits in its own type
    twin = mpmath.mp.clone()
    twin.dps = ctx.dps
    value = geometric_product(twin.convert(a), twin.convert(q), twin, n=200)
    assert isinstance(value, twin.mpc) and value._mpc_ == cold._mpc_
    assert len(qfunc._MEMO) == 1
    # the same inputs at another working precision are another product
    wider = context(Precision(60))
    value = geometric_product(a, q, wider, n=200)
    assert value._mpc_ != cold._mpc_ and abs(value - cold) < ctx.mpf(10) ** -ctx.dps
    assert len(qfunc._MEMO) == 2


def test_memo_never_serves_an_unguarded_result_to_a_pole_check():
    prec = Precision(50)
    ctx = context(prec)
    q = ctx.mpf("0.5")
    qx = ctx.exp((ctx.mpf(-1) + ctx.mpf(10) ** -70) * ctx.log(q))
    pole_eps = ctx.mpf(10) ** -ctx.dps
    expect = message_of(lambda: oracles.qpoch_inf_mpf(qx, q, ctx, pole_eps=pole_eps))
    count = geometric_terms(abs(qx), q, ctx)
    geometric_product(qx, q, ctx, n=count)  # no pole check: stored
    assert message_of(lambda: geometric_product(qx, q, ctx, n=count, pole=former_pole(pole_eps))) == expect


def test_memo_stores_nothing_for_a_raising_call():
    ctx = context(Precision(50))
    q = ctx.mpf("0.5")
    eps = ctx.mpf(10) ** -ctx.dps
    before = list(qfunc._MEMO)
    message_of(lambda: geometric_product(q**-2, q, ctx, n=5, pole=(eps, str)))
    assert list(qfunc._MEMO) == before


def test_memo_keeps_its_fixed_size():
    ctx = context(Precision(30))
    q = ctx.mpf("0.5")
    for i in range(qfunc._MEMO_SIZE + 10):
        geometric_product(ctx.mpf(i) / 8192, q, ctx, n=1)
    assert len(qfunc._MEMO) == qfunc._MEMO_SIZE
    # first in, first out: the newest call is still stored, the oldest is not
    keys = list(qfunc._MEMO)
    geometric_product(ctx.mpf(qfunc._MEMO_SIZE + 9) / 8192, q, ctx, n=1)
    assert list(qfunc._MEMO) == keys
    geometric_product(ctx.mpf(0), q, ctx, n=1)  # dropped, so computed and stored anew
    assert list(qfunc._MEMO)[:-1] == keys[1:]


def bits(value):
    return value._mpc_ if hasattr(value, "_mpc_") else value._mpf_


def test_qgamma_and_euler_memo_hits_are_bit_identical():
    prec = Precision(40)
    ctx = context(prec)
    q = ctx.mpf("0.95")
    x = ctx.mpc("0.3", "0.2")
    twin = mpmath.mp.clone()
    twin.dps = ctx.dps
    for call in (lambda c: qfunc.qgamma_ctx(c.convert(x), c.convert(q), c, prec.guard),
                 lambda c: euler_function(c.convert(q), c, 3, 2)):
        qfunc._MEMO.clear()
        cold = call(ctx)
        entries = list(qfunc._MEMO)
        assert bits(call(ctx)) == bits(cold)
        # another context with the same working precision gets the bits in its own type
        value = call(twin)
        assert value.context is twin and bits(value) == bits(cold)
        assert list(qfunc._MEMO) == entries
    assert list(qfunc._MEMO)[-1] == ("euler", q._mpf_, ctx.prec, ctx.dps, 3, 2)


def test_qgamma_of_one_multiplies_its_euler_function_once(monkeypatch):
    # Gamma_q(1)'s pole-checked denominator (q; q)_inf is the numerator's
    # Euler function, the same memo entry, on the direct route (q = 0.5,
    # below the crossover) as on the eta route (q = 0.9)
    runs = []
    value = qfunc._geometric_value

    def counted(*args):
        runs.append(args)
        return value(*args)

    monkeypatch.setattr(qfunc, "_geometric_value", counted)
    for q in ("0.5", "0.9"):
        qfunc._MEMO.clear()
        runs.clear()
        assert qgamma(1, q, Precision(50)) == 1
        assert len(runs) == 1, q


def test_qpoch_inf_ctx_hands_the_euler_function_to_its_memo(monkeypatch):
    # a real a == q reaches euler_function's memo before any route is chosen
    ctx = context(Precision(50))
    q = ctx.mpf("0.9")
    qfunc._MEMO.clear()
    expect = euler_function(q, ctx)
    asked = []
    route = qfunc._route

    def recorded(a, q, ctx):
        asked.append(a)
        return route(a, q, ctx)

    monkeypatch.setattr(qfunc, "_route", recorded)
    assert qpoch_inf_ctx(q, q, ctx)._mpf_ == expect._mpf_
    assert asked == []


def test_qgamma_memo_keys_the_guard():
    # Gamma_q(-1 + 10^-5) at q = 1/2 cancels 6 digits: guard 2 recomputes
    # the value with more digits, guard 10 keeps the value in ctx
    prec = Precision(40)
    ctx = context(prec)
    q = ctx.mpf("0.5")
    x = ctx.mpf(-1) + ctx.mpf("1e-5")
    cold = {}
    for guard in (2, 10):
        qfunc._MEMO.clear()
        cold[guard] = qfunc.qgamma_ctx(x, q, ctx, guard)._mpf_
    assert cold[2] != cold[10]
    for order in ((2, 10), (10, 2)):
        qfunc._MEMO.clear()
        for guard in order + order:
            assert qfunc.qgamma_ctx(x, q, ctx, guard)._mpf_ == cold[guard]


def test_qgamma_memo_keeps_a_complex_x_apart_from_the_real_one():
    ctx = context(Precision(40))
    q = ctx.mpf("0.9")
    qfunc._MEMO.clear()
    real = qfunc.qgamma_ctx(ctx.mpf("0.3"), q, ctx, 10)
    cplx = qfunc.qgamma_ctx(ctx.mpc("0.3", 0), q, ctx, 10)
    assert isinstance(real, ctx.mpf) and isinstance(cplx, ctx.mpc)
    assert len([key for key in qfunc._MEMO if key[0] == "qgamma"]) == 2


@pytest.mark.parametrize("x_text, q_text, error", [
    ("-2", "0.5", SingularArgumentError),  # the factor 1 - q^(x+2) vanishes
    ("0.5", "0.999999999999999999", ValueError),  # the split's work budget
])
def test_qgamma_memo_stores_nothing_for_a_raising_call(x_text, q_text, error):
    prec = Precision(50)
    ctx = context(prec)
    x, q = ctx.mpf(x_text), ctx.mpf(q_text)
    qfunc._MEMO.clear()
    with pytest.raises(error) as first:
        qfunc.qgamma_ctx(x, q, ctx, prec.guard)
    assert not any(key[0] == "qgamma" for key in qfunc._MEMO)
    stored = list(qfunc._MEMO)  # the numerator's Euler function is a result
    with pytest.raises(error) as again:
        qfunc.qgamma_ctx(x, q, ctx, prec.guard)
    assert str(again.value) == str(first.value)
    assert list(qfunc._MEMO) == stored


def test_qgamma_of_a_wider_input_is_the_value_of_its_bits_in_ctx():
    # x and q from an 80-digit context are taken with all their bits, and
    # every step rounds in ctx, as for the same bits converted into ctx
    prec = Precision(30)
    ctx, wide = context(prec), context(Precision(80))
    x, q = wide.mpf(5) / 7, wide.mpf(9) / 11
    qfunc._MEMO.clear()
    value = qfunc.qgamma_ctx(x, q, ctx, prec.guard)
    assert isinstance(value, ctx.mpf)
    qfunc._MEMO.clear()
    assert value._mpf_ == qfunc.qgamma_ctx(ctx.convert(x), ctx.convert(q), ctx, prec.guard)._mpf_


def test_suite_reports_do_not_depend_on_which_entry_filled_the_memo():
    # one memo holds the geometric products, the Euler functions, the
    # Gamma_q values and whole sides, so each is filled by one entry and
    # served to another here: in reverse order COR6 fills THM5's left side
    entries = default_suite(include=("THM1", "THM3_FULL", "THM3_COPRIME", "THM5", "COR6"))

    def frozen(order):
        return reports_json([dataclasses.replace(r, elapsed_ms=0) for r in run_suite(order)])

    qfunc._MEMO.clear()
    forward = frozen(entries)
    assert any(key[0] == "qgamma" for key in qfunc._MEMO)
    assert any(key[0] == "euler" for key in qfunc._MEMO)
    assert any(key[0] == "side" for key in qfunc._MEMO)
    assert frozen(entries[::-1]) == forward  # every side served from the memo
    qfunc._MEMO.clear()
    assert frozen(entries[::-1]) == forward  # each product computed by another entry first


def test_cor6_left_side_from_thm5_entry_is_the_cold_side():
    # COR6's left side is THM5's evaluator on the same inputs: once THM5 has
    # run, COR6's is its stored pair, with the bits and EvalInfo of a cold one
    for z in ("0.5", "0.25+0.25i"):
        thm5 = IdentitySpec("THM5", chi=CHI5, q="0.7", z=z, prec=Precision(60))
        cor6 = dataclasses.replace(thm5, id="COR6")
        qfunc._MEMO.clear()
        cold_value, cold_info = eval_lhs_info(cor6)
        qfunc._MEMO.clear()
        thm5_pair = eval_lhs_info(thm5)
        sides = [key for key in qfunc._MEMO if key[0] == "side"]
        value, info = eval_lhs_info(cor6)
        assert [key for key in qfunc._MEMO if key[0] == "side"] == sides  # served, not computed
        assert (value, info) == thm5_pair and info == cold_info
        assert bits(value) == bits(cold_value) and value.context is cold_value.context


def test_side_memo_keeps_evaluators_and_input_types_apart():
    # a right side is never a left side's entry, and z = 0.5 + 0j, equal to
    # 0.5 in Python, is another key: it runs as a complex value
    spec = IdentitySpec("THM5", chi=CHI4, q="0.3", z=0.5, prec=Precision(40))
    qfunc._MEMO.clear()
    eval_lhs_info(spec)
    eval_rhs_info(spec)
    eval_lhs_info(dataclasses.replace(spec, z=complex(0.5)))
    assert len([key for key in qfunc._MEMO if key[0] == "side"]) == 3


def test_side_memo_hashes_no_fraction_on_a_repeat(monkeypatch):
    # a side's key holds the spec's exact inputs as text, made once per spec,
    # so a second lookup of a THM1 side over five Fraction inputs hashes none
    spec = IdentitySpec("THM1", alphas=("0.3", "0.7"), betas=("0.45", "0.55"), q="0.5", prec=Precision(30))
    qfunc._MEMO.clear()
    first = eval_lhs_info(spec)
    hashed = []
    fraction_hash = Fraction.__hash__

    def counted(self):
        hashed.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    value, info = eval_lhs_info(spec)
    assert hashed == []
    assert bits(value) == bits(first[0]) and info == first[1]


def test_side_memo_stores_nothing_for_a_raising_side():
    # 1 - q^(n - chi(n) z) vanishes at n = 3 for the character mod 4 at z = -3
    spec = IdentitySpec("THM5", chi=CHI4, q="0.5", z="-3", prec=Precision(40))
    qfunc._MEMO.clear()
    first = message_of(lambda: eval_lhs_info(spec))
    assert not any(key[0] == "side" for key in qfunc._MEMO)
    assert message_of(lambda: eval_lhs_info(spec)) == first


def test_side_of_an_unhashable_input_fails_as_before():
    # a list is no number: the spec refuses it when it is built, with the
    # message its report carried when the side parsed q, and nothing is stored
    qfunc._MEMO.clear()
    with pytest.raises(ValueError) as info:
        IdentitySpec("THM5", chi=CHI4, q=[0.5], z="0.5", prec=Precision(40))
    assert str(info.value) == "cannot interpret [0.5] as a number"
    assert not qfunc._MEMO


@pytest.mark.parametrize("text", ["0.3", "0.7", "0.999", "e^-pi", "e^-4pi"])
def test_log_memo_hit_is_ctx_log(text):
    # _log serves ctx.log's bits, in a context and on mpmath.libmp, for q and 1 - q
    for digits in (40, 113):
        ctx = context(Precision(digits))
        q = qfunc.to_hp(text, ctx)
        for x in (q, 1 - q):
            qfunc._MEMO.clear()
            cold = qfunc.log_ctx(x, ctx)
            assert bits(cold) == bits(ctx.log(x))
            assert bits(qfunc.log_ctx(x, ctx)) == bits(cold)
            assert len(qfunc._MEMO) == 1
            wide = ctx.prec + 40
            assert qfunc._log(x._mpf_, wide) == mpmath.libmp.mpf_log(x._mpf_, wide, "n")


def test_omega_memo_hit_is_the_root_of_unity():
    # a complex character value (+-i mod 5, a sixth root of unity mod 7) is
    # stored once per root and context; a real one stays an exact int
    ctx = context(Precision(60))
    chi7 = next(c for c in enumerate_characters(7) if c.order == 6)
    for ro in (CHI5.value(2), CHI5.value(3), chi7.value(3)):
        qfunc._MEMO.clear()
        cold = _omega(ro, ctx)
        assert bits(cold) == bits(ro.to_complex(ctx))
        assert bits(_omega(ro, ctx)) == bits(cold) and len(qfunc._MEMO) == 1
    assert _omega(CHI3.value(2), ctx) == -1


def test_memo_holds_the_default_suite_without_evicting():
    # every kind of entry of a full default-suite pass fits in the memo, so no
    # Gamma_q value is dropped before a later entry asks for it again
    qfunc._MEMO.clear()
    run_suite(default_suite())
    assert len(qfunc._MEMO) < qfunc._MEMO_SIZE
    kinds = {key[0] for key in qfunc._MEMO if isinstance(key[0], str)}
    assert {"euler", "qgamma", "side", "log", "omega"} <= kinds


# ---------------------------------------------------------------------------
# euler_function: (q; q)_inf by the Dedekind eta transformation


def euler_error(q, digits, n=1, d=1):
    """Relative error of euler_function(q, ctx, n, d) against a guard+40 direct product.

    The reference takes y = q^(d/n) from the same bits of q, 40 digits past
    the working precision, and multiplies its factors in that context.
    """
    ctx, ref = contexts(digits)
    value = euler_function(q, ctx, n, d)
    y = ref.root(ref.convert(q), n) ** d
    reference = geometric_product(y, y, ref, n=geometric_terms(y, y, ref))
    return abs(value - reference) / reference


@pytest.mark.parametrize("digits", [50, 100])
@pytest.mark.parametrize("qs", ["0.5", "0.9", "0.95", "0.99", "0.999"])
def test_euler_function_matches_a_guard_40_product(digits, qs):
    ctx = context(Precision(digits))
    assert euler_error(ctx.mpf(qs), digits) <= ctx.mpf(10) ** -ctx.dps


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=0.3, max_value=0.999))
def test_euler_function_at_drawn_q(qf):
    ctx = context(Precision(30))
    assert euler_error(ctx.mpf(qf), 30) <= ctx.mpf(10) ** -ctx.dps


def test_euler_function_agrees_across_the_crossover():
    ctx = context(Precision(50))
    # bisect for the two neighbouring q, one direct and one on the eta
    # route, whose direct products take neighbouring factor counts
    lo, hi = ctx.mpf("0.5"), ctx.mpf("0.999")
    while hi - lo > ctx.mpf(10) ** -15:
        mid = (lo + hi) / 2
        if qfunc._route(mid, mid, ctx)[0] == "direct":
            lo = mid
        else:
            hi = mid
    route, count = qfunc._route(lo, lo, ctx)
    assert route == "direct"
    assert qfunc._route(hi, hi, ctx) == ("eta", count + 1)
    # below the crossover the direct product's bits are kept
    direct = geometric_product(lo, lo, ctx, n=count)
    assert euler_function(lo, ctx)._mpf_ == direct._mpf_
    # above it the eta route differs from the direct product by that
    # product's truncation, below one unit in the last working digit
    value = euler_function(hi, ctx)
    direct = geometric_product(hi, hi, ctx, n=count + 1)
    assert abs(value - direct) / direct <= ctx.mpf(10) ** -ctx.dps
    assert euler_error(hi, 50) <= ctx.mpf(10) ** -ctx.dps


def test_euler_function_stays_direct_where_the_transform_is_longer():
    # at 3,000 digits, q = 0.001 needs 1,000 direct factors, as many as
    # take any other a to the split, but with L = -log q > 2 pi the
    # transformed product would need more
    ctx = context(Precision(3000))
    q = ctx.mpf("0.001")
    route, count = qfunc._route(q, q, ctx)
    assert route == "direct" and qfunc._route(-q, q, ctx) == ("split", count)
    assert euler_function(q, ctx)._mpf_ == geometric_product(q, q, ctx, n=count)._mpf_


@pytest.mark.parametrize("qs", ["0.9", "0.99"])
def test_qgamma_at_one_is_exactly_one(qs):
    assert qgamma(1, qs, Precision(50)) == 1


def test_pole_guarded_euler_call_raises_the_former_message():
    # the first factor, 1 - q, is below the pole check's eps; Gamma_q(1) is
    # no pole at any q, and its denominator is its numerator's memo entry
    prec = Precision(50)
    ctx = context(prec)
    pole_eps = ctx.mpf(10) ** -ctx.dps
    q = 1 - ctx.mpf(10) ** -(ctx.dps + 1)
    assert 0 < q < 1 and 1 - q < pole_eps
    expect = message_of(lambda: oracles.qpoch_inf_mpf(q, q, ctx, pole_eps=pole_eps))
    assert message_of(lambda: geometric_product(q, q, ctx, n=1, pole=former_pole(pole_eps))) == expect
    assert qgamma(1, q, prec) == 1


def test_euler_function_at_a_power_of_y():
    # (y^d; y^d)_inf with y = q^(1/n): L = -d log(q) / n on the eta route
    for qs, n, d in (("0.9", 3, 2), ("0.95", 10, 5), ("0.99", 6, 6), ("0.99", 30, 7)):
        for digits in (50, 100):
            ctx = context(Precision(digits))
            q = ctx.mpf(qs)
            y = ctx.exp(ctx.log(q) * d / n)
            assert qfunc._route(y, y, ctx)[0] == "eta"
            assert euler_error(q, digits, n, d) <= ctx.mpf(10) ** -ctx.dps


# ---------------------------------------------------------------------------
# psi_product: prod_j Phi_r(q^(j/n))^mu(r), directly or by Euler functions


def psi_error(r, q, n, digits):
    """Relative error of psi_product(r, q, ctx, n) against a guard+40 product with its tail.

    The reference takes y = q^(1/n) from the same bits of q, 40 digits past
    the working precision, and multiplies prod_{d|r} (y^d; y^d)_inf^mu(d)
    in that context, each Euler function over every factor the geometric
    tail rule asks for, so no tail is left out.
    """
    ctx, ref = contexts(digits)
    value = psi_product(r, q, ctx, n)
    y = ref.root(ref.convert(q), n)
    reference = ref.mpf(1)
    for d in divisors(r):
        t = y**d
        e = geometric_product(t, t, ref, n=geometric_terms(t, t, ref))
        reference = reference * e if mobius(d) == 1 else reference / e
    return abs(value - reference) / reference


# Below their crossovers psi_product and euler_function round y^d to working
# precision, and the products amplify that by up to pi^2 / (6 L^2), L = -log y^d,
# a few hundred at the crossover.  So both branches are held to 100 units of
# 10^-dps here.  Where no y is rounded (n = 1 on the direct branch) the test
# below holds the direct product to 2 units, and where no y^d is rounded the
# tests above and below hold the Euler route to one unit, or to its error at
# a former fault.
PSI_R = (2, 3, 6, 10, 30)  # mu(r) = -1, -1, 1, 1, -1; up to 8 divisors
PSI_Q = {1: ("0.5", "0.95"), 3: ("0.5", "0.9"), 10: ("0.2", "0.5")}  # below, above the crossover


@pytest.mark.parametrize("r", PSI_R)
@pytest.mark.parametrize("n,qs", [(n, qs) for n, pair in PSI_Q.items() for qs in pair])
def test_psi_product_matches_a_tail_complete_product(r, n, qs):
    ctx = context(Precision(50))
    q = ctx.mpf(qs)
    y = q if n == 1 else ctx.root(q, n)
    assert qfunc._route(y, y, ctx)[0] == ("eta" if qs == PSI_Q[n][1] else "direct")
    assert psi_error(r, q, n, 50) <= ctx.mpf(10) ** (2 - ctx.dps)


@pytest.mark.parametrize("digits", [30, 60])
@pytest.mark.parametrize("qs", ["0.1", "0.3", "0.5", "0.7", "0.8"])
def test_direct_psi_product_keeps_its_tail(digits, qs):
    # the direct branch multiplies the tail-rule count of (y; y)_inf; it
    # stopped at the first factor within 10^-dps of 1, 3.3 units off at
    # r = 11, q = 0.7, 60 digits
    ctx = context(Precision(digits))
    q = ctx.mpf(qs)
    assert qfunc._route(q, q, ctx)[0] == "direct"
    for r in (2, 3, 5, 6, 7, 10, 11, 30):
        assert psi_error(r, q, 1, digits) <= 2 * ctx.mpf(10) ** -ctx.dps


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=0.3, max_value=0.98), st.integers(1, 10), st.sampled_from(PSI_R))
def test_psi_product_at_drawn_q(qf, n, r):
    ctx = context(Precision(30))
    assert psi_error(r, ctx.mpf(qf), n, 30) <= ctx.mpf(10) ** (2 - ctx.dps)


def test_psi_product_keeps_its_tail():
    # Phi_6 at y = 0.99^(1/6), 60 working digits: the direct product stopped
    # at |Phi_6(t) - 1| < 10^-dps and was 1.1e-58 off
    ctx = context(Precision(50))
    assert psi_error(6, ctx.mpf("0.99"), 6, 50) <= mpmath.mpf("1e-61")


@pytest.mark.parametrize("n,qs", [(3, "0.97"), (6, "0.99"), (10, "0.95")])
def test_thm3_coprime_rhs_takes_y_from_log_q(n, qs):
    # y = q^(1/n) rounded to working precision, and the psi product's missing
    # tail, used to cost 2.1e-58, 1.1e-58 and 5.8e-59 here against the
    # guard+40 right side
    prec = Precision(50)
    value = products.eval_rhs(IdentitySpec("THM3_COPRIME", n=n, q=qs, prec=prec))
    reference = products.eval_rhs(IdentitySpec("THM3_COPRIME", n=n, q=qs, prec=Precision(50, 50)))
    assert abs(value - reference) / reference <= mpmath.mpf("1e-60")


@pytest.mark.parametrize("n,qs,bound", [(2, "0.99", "1e-60"), (6, "0.6", "1.2e-59")])
def test_thm3_full_rhs_takes_y_from_log_q(n, qs, bound):
    # y = q^(1/n) rounded to working precision used to cost 2.5e-57 and
    # 1.2e-59 here against the guard+40 right side
    prec = Precision(50)
    value = products.eval_rhs(IdentitySpec("THM3_FULL", n=n, q=qs, prec=prec))
    reference = products.eval_rhs(IdentitySpec("THM3_FULL", n=n, q=qs, prec=Precision(50, 50)))
    assert abs(value - reference) / reference <= mpmath.mpf(bound)


# ---------------------------------------------------------------------------
# The split of (a; q)_inf: a direct head and the log series of its tail


def split_error(a, q, digits):
    """Relative error of qpoch_inf_ctx(a, q) against a guard+40 product with its tail.

    The reference takes the same bits of a and q, 40 digits past the working
    precision, and multiplies every factor the tail rule asks for there.
    """
    ctx, ref = contexts(digits)
    value = qpoch_inf_ctx(a, q, ctx)
    ar, qr = ref.convert(a), ref.convert(q)
    reference = geometric_product(ar, qr, ref, n=geometric_terms(abs(ar), qr, ref))
    return abs(value - reference) / abs(reference)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=0.9, max_value=0.999), st.floats(min_value=-0.9, max_value=3),
       st.one_of(st.just(0.0), st.floats(min_value=-1, max_value=1)),
       st.sampled_from([30, 50, 100]))
@example(0.999, 0.5, 0.0, 100)
@example(0.999, -0.9, 0.7, 50)
def test_split_at_drawn_q_and_x(qf, xr, xi, digits):
    # (q^x; q)_inf, the denominator of Gamma_q(x), on both sides of the
    # crossover, 0.05 or more from the pole at x = 0, where the factor
    # 1 - q^x cancels
    assume(abs(complex(xr, xi)) >= 0.05)
    ctx = context(Precision(digits))
    q = ctx.mpf(qf)
    x = ctx.mpc(xr, xi) if xi else ctx.mpf(xr)
    assert split_error(ctx.exp(x * ctx.log(q)), q, digits) <= 2 * ctx.mpf(10) ** -ctx.dps


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=0.9, max_value=0.999), st.floats(min_value=-0.9, max_value=3),
       st.one_of(st.just(0.0), st.floats(min_value=-1, max_value=1)),
       st.sampled_from([30, 50, 100]))
@example(0.999, 0.5, 0.0, 100)
def test_qgamma_at_drawn_q_and_x(qf, xr, xi, digits):
    # Gamma_q(x) against guard+40 products from the same bits of x and q,
    # with q^x computed there: the split may not start from q^x rounded to
    # working precision, which it magnifies up to about 250 units here
    assume(abs(complex(xr, xi)) >= 0.05)
    ctx, ref = contexts(digits)
    q = ctx.mpf(qf)
    x = ctx.mpc(xr, xi) if xi else ctx.mpf(xr)
    rq, rx = ref.convert(q), ref.convert(x)
    a = ref.exp(rx * ref.log(rq))
    num = geometric_product(rq, rq, ref, n=geometric_terms(rq, rq, ref))
    den = geometric_product(a, rq, ref, n=geometric_terms(abs(a), rq, ref))
    reference = ref.exp((1 - rx) * ref.log(1 - rq)) * num / den
    value = qfunc.qgamma_ctx(x, q, ctx, Precision(digits).guard)
    assert abs(value - reference) / abs(reference) <= 2 * ctx.mpf(10) ** -ctx.dps


def test_split_without_a_head():
    # |a| <= e^-c, c = sqrt(dps ln 10 L): K = 0, and the log series is the
    # whole product
    ctx = context(Precision(50))
    q = ctx.mpf("0.999")
    c = ctx.sqrt(ctx.dps * ctx.ln10 * -ctx.log(q))
    for a_text, headless in (("0.3", True), ("0.3+0.4i", True), ("0.9", False)):
        a = to_hp(a_text, ctx)
        assert qfunc._route(a, q, ctx)[0] == "split"
        assert (abs(a) <= ctx.exp(-c)) == headless
        assert (qfunc._split_sizes(a, q, ctx)[0] == 0) == headless
        assert split_error(a, q, 50) <= 2 * ctx.mpf(10) ** -ctx.dps


def hexbits(value):
    """The bits of an mpf or mpc as hexadecimal m * 2^e, one per part."""
    parts = value._mpc_ if hasattr(value, "_mpc_") else (value._mpf_,)
    return " ".join(f"{'-' if sign else ''}0x{man:x}p{exp}" for sign, man, exp, _ in parts)


# Gamma_q on the split and (y; y)_inf on the eta route, bit for bit: the
# values mpmath's operators give in a context of the kernels' extra digits
SPLIT_PINS = {
    (60, "0.97", "0.3"): (
        "0xbdbd1185f76bc9572a3304d4981aa706d0d04ca4bb55f1fea0385610ce1p-234"
    ),
    (60, "0.97", "1.8+0.2i"): (
        "0x757780ccbbe3865c5440f260b89895a31073ba642526df11ddd2d9017c3p-235 0x1ab5a3ac216"
        "81a6fb35bd299e1c5d963fa088cae7c6007381f6dc99c83bp-237"
    ),
    (60, "0.97", 1, 1): (
        "0xf48fbbae6192692ad23091f0453a58ef278f284ed118044a663ecc98be7p-310"
    ),
    (60, "0.97", 3, 2): (
        "0x9a55a213c2c5fe539f31454c232520cf665f08173ae131c9ff63b35c03dp-348"
    ),
    (60, "0.99", "0.3"): (
        "0x5f71d744b58309cd255921929af6b2fab7ddf35105a6cc65584099fe1afp-233"
    ),
    (60, "0.99", "1.8+0.2i"): (
        "0xeab00c730dd26e5cc519335638c096c0dda2731b149eeb99ec040e46357p-236 0x6bdf3259d1c"
        "3ab680dd24a3b473612f0613c21b697f776e639a9d12ae6dp-239"
    ),
    (60, "0.99", 1, 1): (
        "0xb77814decf3a4379a2bee0e5480d0b10e7dc89f8297dd1b269c2ec1b0cdp-467"
    ),
    (60, "0.99", 3, 2): (
        "0xd7205644711f1629b0436723e3700ceab5d660ac118160152ca3846ac77p-585"
    ),
    (110, "0.97", "0.3"): (
        "0x2f6f44617ddaf255ca8cc1352606a9c1b43413292ed57c7fa80e15843383f02ab945a00310478e"
        "a94d2ac45768e5734155f07p-400"
    ),
    (110, "0.97", "1.8+0.2i"): (
        "0x1d5de0332ef8e19715103c982e262568c41cee990949b7c47774b6405f0724112b0bce4320d5ed"
        "07477402b7ee6709cc981fdp-401 0x1ab5a3ac21681a6fb35bd299e1c5d963fa088cae7c6007381"
        "f6dc99c839bee0aba3333501ad927ec42199177a9b13f5a5c4f9p-405"
    ),
    (110, "0.97", 1, 1): (
        "0x3d23eeeb98649a4ab48c247c114e963bc9e3ca13b4460112998fb32631c6ad7703f9888131026a"
        "c66bbd819b05877d1863977p-476"
    ),
    (110, "0.97", 3, 2): (
        "0x9a55a213c2c5fe539f31454c232520cf665f08173ae131c9ff63b35c0c083050d9036a48c26c90"
        "5a22972524a381b7777d41p-512"
    ),
    (110, "0.99", "0.3"): (
        "0x17dc75d12d60c27349564864a6bdacbeadf77cd44169b3195610267f86c28aa0704567ad5973d8"
        "c1c496989864ed2e7175f13p-399"
    ),
    (110, "0.99", "1.8+0.2i"): (
        "0x1d56018e61ba4dcb98a3266ac71812d81bb44e636293dd733d8081c8c6a8c714bc5a534018c374"
        "1322e95d350e9cd2222a631p-401 0xd7be64b3a38756d01ba494768e6c25e0c278436d2feeedcc7"
        "353a255cd2740204d044ff210d0e4d1b8ce69ade5260c4cad91p-404"
    ),
    (110, "0.99", 1, 1): (
        "0x2dde0537b3ce90de68afb839520342c439f7227e0a5f746c9a70bb07055070115e84c8d8eae172"
        "e7ce910240bc6c3ea6ee96dp-633"
    ),
    (110, "0.99", 3, 2): (
        "0x35c815911c47c58a6c10d9c8f8dc033aad75982b046058054b28e11b26429689494ae66649bb50"
        "819c5e7b18e1fa62318d953p-751"
    ),
}


@pytest.mark.parametrize("key", sorted(SPLIT_PINS, key=str))
def test_split_and_eta_route_keep_their_bits(key):
    digits, qs, *args = key
    prec = Precision(digits)
    ctx = context(prec)
    q = ctx.mpf(qs)
    if len(args) == 1:
        x = to_hp(args[0], ctx)
        assert qfunc._route(ctx.exp(x * ctx.log(q)), q, ctx)[0] == "split"
        value = qfunc.qgamma_ctx(x, q, ctx, prec.guard)
    else:
        n, d = args
        y = ctx.exp(ctx.log(q) * d / n)
        assert qfunc._route(y, y, ctx)[0] == "eta"
        value = euler_function(q, ctx, n, d)
    assert hexbits(value) == SPLIT_PINS[key]


def test_split_and_eta_route_create_no_context(monkeypatch):
    # once the working context and the split context exist, the split, real
    # and complex, with and without x, and the eta route add no context; a
    # cache of contexts of the test's own holds only those two
    monkeypatch.setattr(qfunc, "_context_at", functools.cache(_context_at.__wrapped__))
    prec = Precision(60)
    ctx = context(prec)
    q = ctx.mpf("0.99")
    split_context(q, ctx)
    before = qfunc._context_at.cache_info().currsize
    assert before == 2
    qfunc._MEMO.clear()
    for x_text in ("0.3", "1.8+0.2i"):
        x = to_hp(x_text, ctx)
        a = ctx.exp(x * ctx.log(q))
        assert qfunc._route(a, q, ctx)[0] == "split"
        qpoch_inf_ctx(a, q, ctx)
        qfunc.qgamma_ctx(x, q, ctx, prec.guard)
    for n, d in ((1, 1), (3, 2)):
        euler_function(q, ctx, n, d)
    assert qfunc._context_at.cache_info().currsize == before


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(20, 300), st.integers(0, 2**1100), st.integers(0, 2**1100))
@example(20, 0, 0)  # q = 1/2
def test_float_log_reads_the_bits_of_q(digits, low, shift):
    # from 1/2 on, log1p of the exact 1 - q rounded once to a float; below
    # it, log from the mantissa and the exponent
    ctx = context(Precision(digits))
    P = ctx.prec
    man = (1 << P - 1) + low % (1 << P - 1)  # P bits
    j = 1 + shift % (P - 1)
    q = ctx.mpf((man, -P - j))  # below 2^-j
    assert qfunc._float_log(q) == qfunc._flog(q)
    q = ctx.mpf(((1 << P + j) - man, -P - j))  # 1 - man 2^(-P-j), rounded to P bits
    assert 0.5 <= q < 1
    assert qfunc._float_log(q) == math.log1p(-float(1 - q))


@pytest.mark.parametrize("x_text", ["-1", "-5"])
def test_split_pole_raises_with_the_former_message(x_text, monkeypatch):
    # the factor that vanishes would lie in the split's head; Gamma_q's pole
    # rule refuses before the split starts
    prec = Precision(50)
    ctx = context(prec)
    q = ctx.mpf("0.99")
    x = ctx.mpf(x_text) + ctx.mpf(10) ** -70  # x_text once rounded to 60 digits
    qx = ctx.exp(x * ctx.log(q))
    pole_eps = ctx.mpf(10) ** -ctx.dps
    assert qfunc._route(qx, q, ctx)[0] == "split"
    expect = message_of(lambda: oracles.qpoch_inf_mpf(qx, q, ctx, pole_eps=pole_eps))
    assert expect.startswith("vanishing factor")
    count = geometric_terms(abs(qx), q, ctx)
    assert message_of(lambda: geometric_product(qx, q, ctx, n=count, pole=former_pole(pole_eps))) == expect

    def no_split(*args, **kwargs):
        raise AssertionError("the split started")

    monkeypatch.setattr(qfunc, "_qpoch_split", no_split)
    n = x_text[1:]
    assert message_of(lambda: qgamma(x, q, prec)) == f"Gamma_q(x) at its pole x = {x_text}"
    assert message_of(lambda: qgamma(x_text + "+1e-70i", "0.99", prec)) == (
        f"Gamma_q(x) at 1.0e-70 from its pole at x = {x_text}: the factor 1 - q^(x + {n}) would cancel "
        "65 digits, more than the 60 working digits")


def test_thm3_full_at_q_a_ten_millionth_from_one():
    # Gamma_q(1/2) Gamma_q(1) on the split against the Euler route; the
    # direct denominator would take 1.5e9 factors, past the work budget
    t0 = time.perf_counter()
    report = run_identity(IdentitySpec("THM3_FULL", n=2, q="0.9999999", prec=Precision(50)), 40)
    assert time.perf_counter() - t0 < 5
    assert report.passed and report.digits_agreed >= 50


def test_split_takes_q_to_the_x_from_x():
    # Gamma_q(1/2) at q = 1 - 10^-11 against (1 - q)^(1/2) (q; q)_inf^2 /
    # (q^(1/2); q^(1/2))_inf, Euler functions that take L from log q, 30
    # digits past working precision.  q^(1/2) rounded to working precision
    # and fed to the split is magnified about log(1/L) / L = 2.5e12 times:
    # 11 units of 10^-digits off, 9 correct digits of 10.
    prec = Precision(10)
    ref = context(Precision(10, prec.guard + 30))
    q = ref.mpf("0.99999999999")
    reference = ref.sqrt(1 - q) * euler_function(q, ref) ** 2 / euler_function(q, ref, n=2, d=1)
    value = qgamma("0.5", "0.99999999999", prec)
    assert abs(value - reference) / reference <= ref.mpf(10) ** -prec.digits


def test_split_rounds_a_complex_result_to_working_precision():
    # ctx.mpc of a value from the split's wider context rounds each part,
    # as ctx.mpf does for a real one
    ctx = context(Precision(50))
    for a_text in ("0.3+0.4i", "0.9+0.1i"):
        value = qpoch_inf_ctx(to_hp(a_text, ctx), ctx.mpf("0.999"), ctx)
        assert all(part[1].bit_length() <= ctx.prec for part in value._mpc_)


# ---------------------------------------------------------------------------
# The routes each side of the default suite takes

# Per (identity, q) class of the default suite, the routes _route gives the
# left and the right side of its first entry, each from a cold memo.  The
# left sides of THM1, THM5, COR6 and the EX values call geometric_product
# themselves and ask for none; those of THM3_FULL and THM3_COPRIME take the
# eta route through the (q; q)_inf numerators of their Gamma_q, which cancel
# against the right side's.  The table records the routes; it does not judge
# them.
SUITE_ROUTES = {
    ("PROTOTYPE", None): (set(), set()),
    ("THM1", "0.1"): (set(), {"direct"}),
    ("THM1", "0.5"): (set(), {"direct"}),
    ("THM1", "0.9"): (set(), {"eta", "split"}),
    ("COR2", None): (set(), set()),
    ("THM3_FULL", "0.2"): ({"direct"}, {"direct"}),
    ("THM3_FULL", "0.6"): ({"direct"}, {"direct"}),
    ("THM3_FULL", "0.95"): ({"eta", "split"}, {"eta"}),
    ("THM3_FULL", "0.99"): ({"eta", "split"}, {"eta"}),
    ("THM3_FULL", "0.999"): ({"eta", "split"}, {"eta"}),
    ("THM3_COPRIME", "0.2"): ({"direct"}, {"direct"}),
    ("THM3_COPRIME", "0.6"): ({"direct"}, {"direct"}),
    ("THM3_COPRIME", "0.95"): ({"eta", "split"}, {"eta"}),
    ("THM3_COPRIME", "0.99"): ({"eta", "split"}, {"eta"}),
    ("THM3_COPRIME", "0.999"): ({"eta", "split"}, {"eta"}),
    ("THM4", None): (set(), set()),
    ("THM5", "0.3"): (set(), {"direct"}),
    ("THM5", "0.7"): (set(), {"direct"}),
    ("COR6", "0.3"): (set(), {"direct"}),
    ("COR6", "0.7"): (set(), {"direct"}),
    ("EX1A", None): (set(), set()),
    ("EX1B", None): (set(), set()),
    ("EX2A", None): (set(), set()),
    ("EX2B", None): (set(), set()),
    ("JACKSON1", None): ({"direct"}, set()),
    ("JACKSON2", None): ({"direct"}, set()),
    ("JACKSON3", None): ({"direct"}, set()),
    ("JACKSON4", None): ({"direct"}, set()),
}


def test_each_side_of_the_suite_takes_its_routes(monkeypatch):
    taken = set()
    route = qfunc._route

    def recorded(a, q, ctx):
        chosen = route(a, q, ctx)
        taken.add(chosen[0])
        return chosen

    monkeypatch.setattr(qfunc, "_route", recorded)
    first = {}
    for spec, _ in default_suite():
        first.setdefault((spec.id, spec.q), spec)
    found = {}
    for key, spec in first.items():
        sides = []
        for side in (eval_lhs_info, eval_rhs_info):
            qfunc._MEMO.clear()
            taken.clear()
            side(spec)
            sides.append(set(taken))
        found[key] = tuple(sides)
    assert found == SUITE_ROUTES


# ---------------------------------------------------------------------------
# The work budget


def fails_fast(call):
    """The ValueError call raises, after checking that it took under a second."""
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as info:
        call()
    assert time.perf_counter() - t0 < 1
    return str(info.value)


def test_work_budget_refuses_oversized_products():
    budget = f"the work budget of {qfunc._WORK_BUDGET} factors"
    # Gamma_q(1/2) at q = 1 - 10^-18: about 3e10 head factors and series terms
    assert budget in fails_fast(lambda: qgamma("0.5", "0.999999999999999999", Precision(50)))
    assert budget in fails_fast(lambda: qpochhammer("0.5", "0.5", 10**9, Precision(30)))
    t0 = time.perf_counter()
    report = run_identity(IdentitySpec("PROTOTYPE", terms=10**12, prec=Precision(30)), 4)
    assert time.perf_counter() - t0 < 1
    assert not report.passed
    assert report.error == f"ValueError: {10**12} factors exceed {budget}"


def test_split_charges_three_factors_a_step(monkeypatch):
    # one step of the split costs 2.4 to 3.1 real direct factors, so a split
    # of K + J steps is charged 3 (K + J): refused before its head product
    # starts when the budget lies in [2 (K + J), 3 (K + J)), run when K + J
    # is just under a third of it
    ctx = context(Precision(30))
    q, x = ctx.mpf("0.999"), ctx.mpf("0.5")
    a = q**x
    K, J = qfunc._split_sizes(a, q, ctx)
    assert K > 0 and J > 0
    expect = qfunc._qpoch_split(a, q, ctx, x=x)

    def no_head(*args, **kwargs):
        raise AssertionError("the split's head product started")

    with monkeypatch.context() as patch:
        patch.setattr(qfunc, "_geometric_product", no_head)
        for budget in (2 * (K + J), 3 * (K + J) - 1):
            patch.setattr(qfunc, "_WORK_BUDGET", budget)
            message = fails_fast(lambda: qfunc._qpoch_split(a, q, ctx, x=x))
            assert message == f"{3 * (K + J)} factors exceed the work budget of {budget} factors"
    monkeypatch.setattr(qfunc, "_WORK_BUDGET", 3 * (K + J) + 2)
    assert qfunc._qpoch_split(a, q, ctx, x=x) == expect


def test_euler_function_near_one_stays_within_budget():
    ctx = context(Precision(50))
    q = ctx.mpf("0.999999999")
    t0 = time.perf_counter()
    value = qpochhammer(q, q, prec=Precision(50))
    assert time.perf_counter() - t0 < 1
    # log (q; q)_inf = -pi^2 / (6 L) + log(2 pi / L) / 2 + L / 24 + O(e^(-4 pi^2 / L))
    L = -ctx.log(q)
    assert abs(ctx.log(value) / (-ctx.pi**2 / (6 * L)) - 1) < ctx.mpf(10) ** -8
