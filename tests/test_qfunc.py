"""High-precision q-Pochhammer, q-gamma, and classical gamma: frozen-value
oracles, functional equations, and domain validation."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qprod import qfunc, verify
from qprod.characters import enumerate_characters
from qprod.products import IdentitySpec, eval_lhs, eval_rhs
from qprod.qfunc import (
    INFINITY,
    Precision,
    SingularArgumentError,
    as_q,
    context,
    gamma_classical,
    gamma_ctx,
    hp_str,
    parse_number,
    qgamma,
    qgamma_ctx,
    qpoch_inf_ctx,
    qpochhammer,
    to_hp,
    working_eps,
)

P50 = Precision(50)
P60 = Precision(60)


def test_precision_validation():
    assert Precision().digits == 50 and Precision().guard == 10
    assert Precision(30, 5).workdps == 35
    with pytest.raises(ValueError):
        Precision(9)
    with pytest.raises(ValueError):
        Precision(50, -1)
    with pytest.raises(ValueError):
        Precision(50.0)


def test_context_is_shared_per_working_precision():
    assert context(Precision(50, 10)) is context(Precision(55, 5))
    assert context(Precision(50, 10)) is not context(Precision(50, 11))


def test_evaluation_leaves_context_and_global_precision_alone():
    global_dps = mpmath.mp.dps
    prec = Precision(30)
    ctx = context(prec)
    spec = IdentitySpec("THM5", chi=enumerate_characters(5)[1], q="0.5", z="0.25+0.25i", prec=prec)
    eval_lhs(spec)
    eval_rhs(spec)
    qgamma("0.3", "0.9", prec)
    gamma_classical("0.3", prec)
    assert ctx.dps == prec.workdps
    assert context(prec) is ctx
    assert mpmath.mp.dps == global_dps


def test_parse_number():
    # exact values: a Fraction, a pair of them when complex, the text of an e^-k pi literal
    ctx = context(Precision(30))
    assert parse_number("0.25") == Fraction(1, 4) and to_hp("0.25", ctx) == ctx.mpf("0.25")
    assert parse_number("-3") == -3
    assert parse_number("0.25+0.25i") == (Fraction(1, 4), Fraction(1, 4))
    assert parse_number("1.2-0.5i") == (Fraction(6, 5), Fraction(-1, 2))
    assert parse_number("2i") == (0, 2) and to_hp("2i", ctx) == ctx.mpc(0, 2)
    assert parse_number("-i") == (0, -1)
    # a bare sign before the i is an imaginary part of one
    assert parse_number("0.5+i") == (Fraction(1, 2), 1)
    assert parse_number("2-i") == (2, -1)
    assert parse_number("1e-3") == Fraction(1, 1000)
    assert parse_number("2/3") == Fraction(2, 3)
    # 0.5 and 0.5+0j are equal in Python, but a real and a complex input
    assert parse_number(0.5) == Fraction(1, 2) and parse_number(0.5 + 0j) == (Fraction(1, 2), 0)
    assert parse_number(" e^-pi ") == "e^-pi"
    assert abs(to_hp("e^-pi", ctx) - ctx.exp(-ctx.pi)) == 0
    assert to_hp("e^-8pi", ctx) == ctx.exp(-8 * ctx.pi)
    for junk in ("", "zebra", "1+2", "e^-3pi", True, [0.5]):
        with pytest.raises(ValueError, match="cannot interpret"):
            parse_number(junk)
    with pytest.raises(ValueError, match="decimal exponent passes"):
        parse_number("1e-100000")
    with pytest.raises(ValueError, match="cannot interpret"):
        to_hp(object(), ctx)
    with pytest.raises(ValueError, match="non-finite"):
        to_hp("inf", ctx)


def test_an_infinite_mpf_is_refused_not_read_as_zero():
    # mpmath's to_rational reads +-inf as 0
    chi = enumerate_characters(4)[1]
    for call in (lambda: parse_number(mpmath.mpf("-inf")),
                 lambda: parse_number(mpmath.mpc(1, "-inf")),
                 lambda: qpochhammer(mpmath.mpf("inf"), "0.5"),
                 lambda: IdentitySpec("THM5", chi=chi, q="0.5", z=mpmath.mpf("inf")),
                 lambda: verify.compare(mpmath.mpf("inf"), 1, 10)):
        with pytest.raises(ValueError, match="non-finite value .* rejected"):
            call()


def nearest(x: Fraction, prec: int) -> Fraction:
    """x rounded to prec significant bits, to nearest with ties to even, in exact arithmetic."""
    if not x:
        return x
    scale = Fraction(2) ** (x.numerator.bit_length() - x.denominator.bit_length() - prec)
    while abs(x) / scale >= 2**prec:
        scale *= 2
    while abs(x) / scale < 2 ** (prec - 1):
        scale /= 2
    return round(x / scale) * scale


def exact_bits(value) -> Fraction:
    return Fraction(*mpmath.libmp.to_rational(value._mpf_))


def bits(value):
    return value._mpc_ if hasattr(value, "_mpc_") else value._mpf_


def test_to_hp_rounds_a_fraction_once():
    # num / den taken as mpf(num) / den rounds twice: 1.02e-31 off, where the
    # nearest value at 20 digits is 9.1e-32 off
    ctx = context(Precision(20))
    x = Fraction(68834591774196800308938414388710, 53)
    assert exact_bits(to_hp(x, ctx)) == nearest(x, ctx.prec)


@st.composite
def decimal_text(draw, signs=("", "+", "-")):
    sign = draw(st.sampled_from(signs))
    places = draw(st.text("0123456789", max_size=60))
    text = f"{sign}{draw(st.integers(0, 10**20))}" + (f".{places}" if places else "")
    return text + (f"e{draw(st.integers(-300, 300))}" if draw(st.booleans()) else "")


@st.composite
def numeric_text(draw):
    """(text, its real and imaginary parts as text, imaginary None when real; or a literal's k)."""
    kind = draw(st.sampled_from(["decimal", "ratio", "complex", "imaginary", "literal"]))
    if kind == "decimal":
        text = draw(decimal_text())
        return text, (text, None)
    if kind == "ratio":
        text = f"{draw(st.sampled_from(['', '-']))}{draw(st.integers(0, 10**40))}/{draw(st.integers(1, 10**40))}"
        return text, (text, None)
    if kind == "complex":
        re, im = draw(decimal_text()), draw(decimal_text(signs=("+", "-")))
        return f"{re}{im}i", (re, im)
    if kind == "imaginary":
        im = draw(st.sampled_from(["", "+", "-"])) + draw(st.sampled_from(["", "2", "0.75", "1e-30"]))
        return f"{im}i", ("0", im if im.strip("+-") else im + "1")
    k = draw(st.sampled_from([1, 2, 4, 8]))
    return f"e^-{k if k > 1 else ''}pi", k


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(numeric_text(), st.integers(20, 210))
def test_exact_inputs_convert_to_the_bits_of_mpmaths_own_parse(drawn, dps):
    # one rounding of the exact value gives what ctx.mpf(text) gives, part by part
    text, parts = drawn
    ctx = qfunc._context_at(dps)
    value = to_hp(text, ctx)
    # a wider mpf or mpc is rounded directly, to the bits of its exact value rounded once
    wide = to_hp(text, qfunc._context_at(dps + 20))
    assert bits(to_hp(wide, ctx)) == bits(qfunc.from_exact(parse_number(wide), ctx))
    if isinstance(parts, int):
        assert bits(value) == bits(ctx.exp(-parts * ctx.pi))
    elif parts[1] is None:
        assert bits(value) == bits(ctx.mpf(parts[0]))
    else:
        assert bits(value) == bits(ctx.mpc(ctx.mpf(parts[0]), ctx.mpf(parts[1])))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 9), st.text("0123456789", max_size=60),
       st.integers(461, 3000).flatmap(lambda e: st.sampled_from([e, -e])), st.sampled_from([20, 40, 70, 117, 210]))
@example(4, "87542260654392698714603363798018415595200370478", -554, 40)
@example(9, "677165741764047503854107232466457950452770101468988404198", 1038, 117)
def test_decimal_exponents_past_400_round_to_nearest(lead, places, exp, dps):
    # past +-400, ctx.mpf(text) multiplies by a rounded power of ten and can
    # miss the nearest value (both examples); the exact value rounds once
    text = f"{lead}.{places}e{exp}" if places else f"{lead}e{exp}"
    ctx = qfunc._context_at(dps)
    assert exact_bits(to_hp(text, ctx)) == nearest(Fraction(text), ctx.prec)


def test_as_q_domain():
    ctx = context(Precision(20))
    assert as_q("0.5", ctx) == Fraction(1, 2)
    # a zero imaginary part leaves a real q
    assert as_q("0.5+0i", ctx) == Fraction(1, 2)
    assert as_q("e^-pi", ctx) == "e^-pi"
    # the last q is below 1, but 1 once rounded into ctx
    for bad in ("0", "1", "1.5", "-0.2", "0.5+0.1i", "0." + "9" * 40):
        with pytest.raises(ValueError):
            as_q(bad, ctx)


def test_qpochhammer_finite():
    ctx = context(Precision(30))
    assert qpochhammer("0.3", "0.5", 0) == 1
    # (a;q)_2 = (1-a)(1-aq) exactly
    two = qpochhammer(Fraction(1, 3), Fraction(1, 2), 2, Precision(30))
    expect = ctx.mpf(Fraction(2, 3).numerator) / Fraction(2, 3).denominator \
        * (1 - ctx.mpf(1) / 6)
    assert abs(two - expect) < ctx.mpf(10) ** -38
    with pytest.raises(ValueError):
        qpochhammer("0.3", "0.5", -1)
    with pytest.raises(ValueError):
        qpochhammer("0.3", "0.5", 1.5)


def test_qpochhammer_rejects_bad_base():
    for q in ("0", "1", "1.5", "0.3+0.2i"):
        with pytest.raises(ValueError):
            qpochhammer("0.5", q)


def test_qpoch_inf_ctx_checks_its_base():
    ctx = context(Precision(30))
    a = ctx.mpf("0.5")
    with pytest.raises(ValueError, match="must be real"):
        qpoch_inf_ctx(a, ctx.mpc("0.5", "0.1"), ctx)
    with pytest.raises(ValueError, match="must lie in"):
        qpoch_inf_ctx(a, ctx.mpf("1.5"), ctx)
    # a complex q on the real axis is that real q
    assert qpoch_inf_ctx(a, ctx.mpc("0.5", 0), ctx) == qpoch_inf_ctx(a, ctx.mpf("0.5"), ctx)


def test_an_exactly_vanishing_factor_makes_the_product_zero():
    # 1 - a q^k is exactly 0 at k = 0 (a = 1) or k = 1 (a = 2), with no pole
    # check; 40 factors go on to blocks, which the product never reaches
    for a in (1, 1 + 0j, 2, 2 + 0j):
        for n in (3, 40):
            value = qpochhammer(a, 0.5, n)
            assert value == 0 and type(value) is type(context(P50).convert(a))


def test_working_eps_is_one_value_per_context():
    for prec in (Precision(30), P50, Precision(50, 25)):
        ctx = context(prec)
        eps = working_eps(ctx)
        assert eps == ctx.mpf(10) ** -ctx.dps
        assert working_eps(ctx) is eps


def test_qpochhammer_frozen_values():
    for a, q, frozen in (
        ("0.5", "0.5", oracles.QP_HALF_HALF),
        ("0.25", "0.5", oracles.QP_QUARTER_HALF),
        ("0.9", "0.9", oracles.QP_NINE_NINE),
    ):
        got = qpochhammer(a, q, INFINITY, P60)
        assert oracles.rel_diff(got, oracles.parse_hp(frozen)) < 1e-58


def test_qpochhammer_halving_relation():
    # (1/2; 1/2)_inf = (1 - 1/2) * (1/4; 1/2)_inf, shifting off one factor
    ctx = context(P60)
    half = ctx.mpf(1) / 2
    lhs = qpoch_inf_ctx(half, half, ctx)
    rhs = (1 - half) * qpoch_inf_ctx(half**2, half, ctx)
    assert oracles.rel_diff(lhs, rhs) < 1e-68


def test_qgamma_small_integers():
    ctx = context(P50)
    eps = ctx.mpf(10) ** -(ctx.dps - 2)
    for q in ("0.2", "0.5", "0.9"):
        qv = to_hp(q, ctx)
        assert abs(qgamma(1, q, P50) - 1) < eps
        assert abs(qgamma(2, q, P50) - 1) < eps
        assert abs(qgamma(3, q, P50) - (1 + qv)) < eps
        assert abs(qgamma(4, q, P50) - (1 + qv) * (1 + qv + qv**2)) < eps


def test_qgamma_functional_equation():
    # Gamma_q(x+1) = (1 - q^x)/(1 - q) * Gamma_q(x) across random complex x
    rng = random.Random(8841)
    ctx = context(P50)
    tol = ctx.mpf(10) ** -(P50.digits - 5)
    for q in ("0.2", "0.6", "0.9"):
        qv = to_hp(q, ctx)
        for _ in range(50):
            x = ctx.mpc(0.05 + 2.95 * rng.random(), -0.5 + rng.random())
            lhs = qgamma(x + 1, q, P50)
            step = (1 - ctx.exp(x * ctx.log(qv))) / (1 - qv)
            rhs = step * qgamma(x, q, P50)
            assert abs(lhs - rhs) / abs(rhs) < tol


def test_qgamma_poles():
    for x in (0, -1, -3):
        with pytest.raises(SingularArgumentError):
            qgamma(x, "0.5")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=5, max_value=58), st.sampled_from([0, 1, 2, 5]),
       st.sampled_from(["0.5", "0.9", "0.99"]), st.floats(min_value=-3.2, max_value=3.2),
       st.booleans())
def test_qgamma_near_a_pole_keeps_its_digits_or_raises(decades, n, qs, angle, imag):
    # x = -n + delta, delta = 10^-decades, on the real axis (either side) or
    # off it; the reference takes the same bits of x and q, 120 digits further
    ctx = context(P50)
    ref = context(Precision(50, P50.guard + 120))
    delta = ctx.mpf(10) ** -ctx.mpf(decades)
    if imag:
        offset = delta * ctx.expj(ctx.mpf(angle))
    else:
        offset = delta if angle >= 0 else -delta
    x, q = -n + offset, ctx.mpf(qs)
    try:
        value = qgamma(x, q, P50)
    except SingularArgumentError:
        # only where the factor 1 - q^(x+n) is about 10^-workdps
        assert abs(offset) * -ctx.log(q) < ctx.mpf(10) ** -(ctx.dps - 1)
        return
    true = qgamma_ctx(ref.convert(x), ref.convert(q), ref, P50.guard)
    assert abs(value - true) <= abs(true) * ref.mpf(10) ** -P50.digits


def test_qgamma_a_hair_from_its_pole():
    # 1e-58 from the pole at -1: 58 digits cancel, and the value keeps its 50
    ctx = context(P50)
    ref = context(Precision(50, 150))
    x = ctx.mpf(-1) + ctx.mpf("1e-58")
    value = qgamma(x, "0.5", P50)
    true = qgamma_ctx(ref.convert(x), ref.mpf("0.5"), ref, P50.guard)
    assert abs(value - true) <= abs(true) * ref.mpf(10) ** -P50.digits
    # with no guard digits, 45 cancelled digits are made up in full as well
    bare = Precision(50, 0)
    x = context(bare).mpf(-1) + context(bare).mpf("1e-45")
    value = qgamma(x, "0.5", bare)
    true = qgamma_ctx(ref.convert(x), ref.mpf("0.5"), ref, P50.guard)
    assert abs(value - true) <= abs(true) * ref.mpf(10) ** -bare.digits


def test_qgamma_far_past_the_float_check():
    # |Re x| >= 2^50 skips the float distance to the nearest pole and takes
    # the exact one.  (1 - q)^(1 - x) turns the rounding of log(1 - q), about
    # 10^-dps relative, into |x log 2| times that error of the value
    for prec in (Precision(30), P50):
        ctx = context(prec)
        ref = context(Precision(prec.digits, prec.guard + 20))
        x = ctx.mpf(2) ** 60 + ctx.mpf(1) / 2
        for xv in (x, ctx.mpc(x, "0.25")):
            value = qgamma_ctx(xv, ctx.mpf("0.5"), ctx, prec.guard)
            true = qgamma_ctx(ref.convert(xv), ref.mpf("0.5"), ref, prec.guard + 20)
            assert abs(value - true) <= abs(true) * abs(x) * ctx.ln2 * working_eps(ctx)


def test_qgamma_at_a_q_below_the_float_range():
    # q = 1e-400 is 0.0 as a float; Gamma_q(1/2) is 1 + q^(1/2) + ...
    assert abs(qgamma("0.5", "1e-400", Precision(30)) - 1) < mpmath.mpf(10) ** -39


def test_qgamma_refuses_to_cancel_more_than_its_working_digits():
    # the pole rule refuses before any value is computed
    ctx = context(P50)
    x = context(Precision(80)).mpf(-2) + context(Precision(80)).mpf("1e-65")
    with pytest.raises(SingularArgumentError) as info:
        qgamma_ctx(x, ctx.mpf("0.5"), ctx, P50.guard)
    assert str(info.value) == ("Gamma_q(x) at 1.0e-65 from its pole at x = -2: the factor "
                               "1 - q^(x + 2) would cancel 66 digits, more than the 60 working digits")


@pytest.mark.parametrize("n", [0, 1])
def test_qgamma_near_a_complex_pole_keeps_its_digits(n):
    # Gamma_q has a pole at every -n + 2 pi i k / log(1/q), not only at -n;
    # the reference takes the same bits of x, 90 guard digits
    ctx = context(P50)
    ref = context(Precision(50, 90))
    for decades in (15, 30, 45, 55):
        x = -n + ctx.mpf(10) ** -decades + 2j * ctx.pi / ctx.ln2
        try:
            value = qgamma(x, "0.5", P50)
        except SingularArgumentError as exc:
            assert f"pole at x = {-n} + 2*pi*i/log(1/q)" in str(exc)
            continue
        true = qgamma(ref.convert(x), "0.5", Precision(50, 90))
        assert abs(value - true) <= abs(true) * ref.mpf(10) ** -60
    # -1 + 1e-70 rounds to -1, and then x is the pole k = -2 in working precision
    x = -n + ctx.mpf(10) ** -70 - 4j * ctx.pi / ctx.ln2
    with pytest.raises(SingularArgumentError) as info:
        qgamma(x, "0.5", P50)
    assert str(info.value) == (
        "Gamma_q(x) at its pole x = -1 - 4*pi*i/log(1/q)" if n else
        "Gamma_q(x) at 1.0e-70 from its pole at x = 0 - 4*pi*i/log(1/q): the factor 1 - q^(x + 0) "
        "would cancel 71 digits, more than the 60 working digits")


def test_qgamma_near_a_pole_is_computed_once(monkeypatch):
    # 16 digits cancel: one computation, at 60 + 16 + 5 digits
    digits = []
    compute = qfunc._qgamma

    def counted(x, q, ctx):
        digits.append(ctx.dps)
        return compute(x, q, ctx)

    monkeypatch.setattr(qfunc, "_qgamma", counted)
    monkeypatch.setattr(qfunc, "_MEMO", {})
    qgamma("-1.999999999999999", "0.5", P50)
    assert digits == [81]


def test_qgamma_near_zero_is_not_refused_by_its_denominator():
    # the factor 1 - q^x is about 1e-32 at q = 0.99, below 10^-30, but the
    # split takes q^x with 7 more digits and the rule computes it at 60
    prec = Precision(20)
    ctx = context(prec)
    ref = context(Precision(20, 80))
    x, q = to_hp("1e-30", ctx), ctx.mpf("0.99")
    value = qgamma(x, q, prec)
    true = qgamma_ctx(ref.convert(x), ref.convert(q), ref, 80)
    assert abs(value - true) <= abs(true) * ref.mpf(10) ** -30


def test_qgamma_classical_limit():
    # Gamma_q(1/2) -> Gamma(1/2) = sqrt(pi) as q -> 1
    ctx = context(P50)
    target = ctx.sqrt(ctx.pi)
    gaps = []
    for q in ("0.9", "0.99", "0.999"):
        gaps.append(abs(qgamma("0.5", q, P50) - target))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < ctx.mpf("0.01")


def test_qpochhammer_dissection():
    # prod_{k=1}^{n} (q^(k/n); q)_inf = (q^(1/n); q^(1/n))_inf
    ctx = context(P50)
    tol = ctx.mpf(10) ** -55
    for q in ("0.3", "0.7"):
        qv = to_hp(q, ctx)
        for n in range(2, 9):
            y = ctx.root(qv, n)
            lhs = ctx.mpf(1)
            for k in range(1, n + 1):
                lhs *= qpoch_inf_ctx(y**k, qv, ctx)
            rhs = qpoch_inf_ctx(y, y, ctx)
            assert abs(lhs - rhs) / abs(rhs) < tol


def test_gamma_frozen_values():
    assert oracles.rel_diff(
        gamma_classical("0.25", P60), oracles.parse_hp(oracles.GAMMA_QUARTER)) < 1e-58
    assert oracles.rel_diff(
        gamma_classical(Fraction(1, 3), P60), oracles.parse_hp(oracles.GAMMA_THIRD)) < 1e-58
    z = gamma_classical("2.5-1.5i", P60)
    ctx = context(P60)
    expect = ctx.mpc(
        oracles.parse_hp(oracles.GAMMA_2P5_M1P5I_RE),
        oracles.parse_hp(oracles.GAMMA_2P5_M1P5I_IM),
    )
    assert abs(z - expect) / abs(expect) < ctx.mpf(10) ** -58


def test_gamma_exact_relatives():
    ctx = context(P60)
    tol = ctx.mpf(10) ** -65
    rt_pi = ctx.sqrt(ctx.pi)
    assert abs(gamma_classical("-0.5", P60) - (-2 * rt_pi)) < tol * rt_pi
    assert abs(gamma_classical("4.5", P60) - ctx.mpf(105) / 16 * rt_pi) < tol * 100
    assert abs(gamma_classical(6, P60) - 120) < tol * 1000


def test_gamma_modulus_on_vertical_lines():
    # |Gamma(1/2 + it)|^2 = pi / cosh(pi t) and |Gamma(1 + it)|^2 = pi t / sinh(pi t):
    # elementary functions only, none of the gamma routine's own machinery
    ctx = context(P60)
    tol = ctx.mpf(10) ** -58
    for t in (ctx.mpf("0.25"), ctx.mpf(1), ctx.mpf("-2.5"), ctx.mpf("7.125")):
        half = gamma_ctx(ctx.mpc("0.5", t), ctx)
        assert abs(abs(half) ** 2 * ctx.cosh(ctx.pi * t) / ctx.pi - 1) < tol
        one = gamma_ctx(ctx.mpc(1, t), ctx)
        assert abs(abs(one) ** 2 * ctx.sinh(ctx.pi * t) / (ctx.pi * t) - 1) < tol


def test_gamma_agm_crosscheck():
    # Gamma(1/4) against the lemniscatic arithmetic-geometric mean route
    ctx = context(P60)
    a = gamma_ctx(ctx.mpf(1) / 4, ctx)
    b = oracles.agm_gamma_quarter(ctx)
    assert abs(a - b) < ctx.mpf(10) ** -50


def test_gamma_poles():
    for x in (0, -1, -5, "-2"):
        with pytest.raises(SingularArgumentError):
            gamma_classical(x)


def test_gamma_functional_equation():
    rng = random.Random(4105)
    ctx = context(P50)
    tol = ctx.mpf(10) ** -(P50.digits - 3)
    for _ in range(30):
        x = ctx.mpc(0.1 + 5 * rng.random(), -3 + 6 * rng.random())
        lhs = gamma_ctx(x + 1, ctx)
        rhs = x * gamma_ctx(x, ctx)
        assert abs(lhs - rhs) / abs(rhs) < tol


def test_gamma_reflection():
    ctx = context(P50)
    tol = ctx.mpf(10) ** -(P50.digits - 3)
    for xs in ("0.3", "0.3+2i", "-1.7+0.4i"):
        x = to_hp(xs, ctx)
        prod = gamma_ctx(x, ctx) * gamma_ctx(1 - x, ctx)
        expect = ctx.pi / ctx.sinpi(x)
        assert abs(prod - expect) / abs(expect) < tol


def test_jackson_values_match_qgamma():
    # each JACKSON record's closed form reproduces the direct q-gamma evaluation
    ctx = context(P60)
    tol = ctx.mpf(10) ** -55
    q4 = ctx.exp(-4 * ctx.pi)
    q8 = ctx.exp(-8 * ctx.pi)
    direct = {
        "JACKSON1": qgamma("0.25", q4, P60) * qgamma("0.75", q4, P60),
        "JACKSON2": qgamma("0.5", q4, P60),
        "JACKSON3": qgamma("0.5", q8, P60),
        "JACKSON4": qgamma("0.25", q8, P60) * qgamma("0.75", q8, P60),
    }
    for vid, value in direct.items():
        closed = eval_rhs(IdentitySpec(vid, prec=P60))
        assert abs(closed - value) / abs(closed) < tol, vid


def test_determinism():
    a = qpochhammer("0.5", "0.5", INFINITY, P60)
    b = qpochhammer("0.5", "0.5", INFINITY, P60)
    assert a == b and hp_str(a, 60) == hp_str(b, 60)
    g1 = gamma_classical("0.25", P50)
    g2 = gamma_classical("0.25", P50)
    assert hp_str(g1, 50) == hp_str(g2, 50)
