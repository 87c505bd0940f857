"""The counted products (PROTOTYPE, COR2, THM4) extrapolated from their own
partial products: the checkpoints end whole periods, Neville's scheme is
exact on polynomials in 1/count, the level and estimate rules hold, the
left sides take no Gamma, and on drawn instances the estimate is never below
the true error.

The true COR2 value comes from a test-only oracle, a direct head times the
Hurwitz zeta series of the tail (oracles.cor2_limit), 40 digits past the
working precision; the true THM4 value is its closed form at the same
precision.
"""

import dataclasses
from random import Random

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from qprod import products, qfunc
from qprod.characters import enumerate_characters
from qprod.products import IdentitySpec, _checkpoints, _extrapolate, eval_lhs_info, eval_rhs
from qprod.qfunc import Precision, _context_at, context

COUNTED = ("PROTOTYPE", "COR2", "THM4")


def reference_context(spec):
    return context(Precision(spec.prec.digits, spec.prec.guard + 40))


def check_estimate(spec, true_value):
    """The extrapolated left side is within its estimate of true_value.

    10^-workdps more is allowed for the rounding of the value itself: an
    exact product, as THM4 at z = 0, has the estimate 0.
    """
    value, info = eval_lhs_info(spec)
    error = abs(value - true_value) / abs(true_value)
    assert error <= float(info.rel_error_estimate) + 10.0**-spec.prec.workdps, (spec, info, error)
    return info


@pytest.mark.parametrize("start,stop,k", [
    (1, 10**6 + 1, 2), (1, 10**4 + 2, 2), (0, 2 * 10**4, 1), (2, 5 * 10**4 * 4 + 2, 4),
    (2, 1000 * 5 + 2, 5), (0, 37, 1), (2, 10 * 4 + 2, 4), (1, 11, 2),
])
def test_checkpoints_end_whole_blocks(start, stop, k):
    marks = _checkpoints(start, stop, k)
    whole = start + (stop - start) // k * k
    assert marks == sorted(set(marks)) and marks[-1] == whole
    assert len(marks) <= products._LEVELS + 1
    for c in marks[:-1]:
        # whole blocks of four in every class, a few periods past the start
        assert (c - start) % (4 * k) == 0 and c - start >= products._MIN_PERIODS * k
        assert c - start <= (whole - start) * 2 // 3


def test_neville_is_exact_on_a_polynomial_in_one_over_count():
    ctx = context(Precision(30))
    counts = [8, 16, 36, 76, 156, 312, 624]
    coeffs = [ctx.mpf("1.25"), ctx.mpf(3), ctx.mpf(-7), ctx.mpf(11), ctx.mpf("0.5")]
    values = [sum(c / ctx.mpf(n) ** i for i, c in enumerate(coeffs)) for n in counts]
    value, est, level = _extrapolate(counts, values, ctx, ctx.mpf(1))
    # degree 4 through seven values: levels 4 to 6 hit 1.25, and from g_5 on the gaps vanish
    assert abs(value - coeffs[0]) < ctx.mpf(10) ** -(ctx.dps - 2)
    assert est == ctx.mpf(10) ** -ctx.dps and level == 6
    # with six values the top level is judged by g_4 too, which is not small
    value, est, level = _extrapolate(counts[:-1], values[:-1], ctx, ctx.mpf(1))
    assert abs(value - coeffs[0]) < ctx.mpf(10) ** -(ctx.dps - 2) and est > ctx.mpf("1e-9")


def test_extrapolation_takes_the_level_of_the_smallest_gaps():
    ctx = context(Precision(30))
    counts = [10, 20, 40, 80, 160]
    exact = [ctx.mpf(2) + 1 / ctx.mpf(n) for n in counts]
    # the smallest count is off, as an asymptotic series can be: only level 4
    # uses it, so the gaps g_2 and g_3 vanish and g_4 does not
    spoilt = [exact[0] + ctx.mpf("1e-3")] + exact[1:]
    value, est, level = _extrapolate(counts, spoilt, ctx, ctx.mpf(1))
    assert level == 2 and abs(value - 2) < ctx.mpf(10) ** -(ctx.dps - 1)
    assert ctx.mpf(10) ** -ctx.dps <= est < ctx.mpf(10) ** -(ctx.dps - 1)
    # the estimate never exceeds the proven raw bound, not even below 10^-dps
    assert _extrapolate(counts, spoilt, ctx, ctx.mpf("1e-45"))[1] == ctx.mpf("1e-45")


def test_a_product_too_short_for_two_checkpoints_is_the_raw_product():
    # 10 terms of PROTOTYPE end before four periods: one checkpoint, no table
    spec = IdentitySpec("PROTOTYPE", terms=10, prec=Precision(30))
    ctx = context(spec.prec)
    value, info = eval_lhs_info(spec)
    assert (value, info) == products._prototype_lhs(spec, ctx, extrapolate=False)
    assert info.level == 0
    assert info.rel_error_estimate == mpmath.nstr(products._prototype_estimate(spec, ctx, 10), 8)


@pytest.mark.parametrize("ident", COUNTED)
def test_counted_left_sides_take_no_gamma(ident, monkeypatch):
    # the extrapolation uses the left side's own partial products only
    spec = products.IDENTITIES[ident].suite(ident, Random(1), 2000)[-1]

    def refuse(*args, **kwargs):
        raise AssertionError("the left side evaluated Gamma or zeta")

    for module in (products, qfunc):
        monkeypatch.setattr(module, "gamma_ctx", refuse)
        monkeypatch.setattr(module, "qgamma_ctx", refuse)
    ctx = context(spec.prec)
    for shared in (ctx, _context_at(ctx.dps + products._EXTRA_DIGITS)):
        for name in ("gamma", "rgamma", "loggamma", "zeta"):
            monkeypatch.setattr(shared, name, refuse)
    value, info = eval_lhs_info(spec)
    assert info.level >= 1


def test_cor2_oracle_matches_the_gamma_side():
    for alphas, betas in ((("0.5", "0.5"), ("0.25", "0.75")),
                          (("0.3+0.2i", "0.6-0.1i"), ("0.5+0.1i", "0.4")),
                          (("1.3", "2.7", "0.2"), ("2.9", "0.9", "0.4"))):
        spec = IdentitySpec("COR2", alphas=alphas, betas=betas, prec=Precision(50))
        ctx = reference_context(spec)
        oracle = oracles.cor2_limit(alphas, betas, ctx)
        closed = eval_rhs(dataclasses.replace(spec, prec=Precision(50, 50)))
        assert abs(oracle - closed) <= abs(closed) * ctx.mpf(10) ** -(ctx.dps - 2)


def _decimal(lo, hi):
    return st.integers(int(lo * 10**4), int(hi * 10**4)).map(lambda u: u / 10**4)


def _number(re, im):
    return re if im == 0 else complex(re, im)


def _text(v):
    if isinstance(v, complex):
        return f"{v.real:.4f}{'+' if v.imag >= 0 else '-'}{abs(v.imag):.4f}i"
    return f"{v:.4f}"


@st.composite
def cor2_instances(draw):
    """Equal-sum lists of 2 to 4 entries, Re in [0.2, 3], Im in [-0.5, 0.5] or real."""
    length = draw(st.integers(2, 4))
    imag = draw(st.booleans())
    im = _decimal(-0.5, 0.5) if imag else st.just(0.0)
    alphas = [_number(draw(_decimal(0.2, 3)), draw(im)) for _ in range(length)]
    betas = [_number(draw(_decimal(0.2, 3)), draw(im)) for _ in range(length - 1)]
    last = sum(alphas) - sum(betas)
    last = _number(round(last.real, 4), round(getattr(last, "imag", 0.0), 4))
    assume(0.2 <= last.real <= 3 and abs(getattr(last, "imag", 0.0)) <= 1)
    return tuple(map(_text, alphas)), tuple(map(_text, betas + [last]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(cor2_instances(), st.sampled_from([100, 400, 1000, 3000]), st.sampled_from([30, 50]))
def test_cor2_estimate_covers_the_oracle(instance, terms, digits):
    alphas, betas = instance
    spec = IdentitySpec("COR2", alphas=alphas, betas=betas, terms=terms, prec=Precision(digits))
    check_estimate(spec, oracles.cor2_limit(alphas, betas, reference_context(spec)))


THM4_CHARACTERS = [c for k in (3, 4, 5, 8, 12) for c in enumerate_characters(k) if not c.is_principal]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(THM4_CHARACTERS), _decimal(-1.5, 1.5), _decimal(-1, 1), st.booleans(),
       st.sampled_from([30, 100, 300, 1000, 3000]), st.sampled_from([30, 50]))
def test_thm4_estimate_covers_the_closed_form(chi, re, im, imag, blocks, digits):
    # the characters mod 5 include complex ones; z stays 0.1 from the pole at 1
    z = complex(re, im) if imag else re
    if abs(z - 1) < 0.1:
        z = re - 0.2
    spec = IdentitySpec("THM4", chi=chi, z=_text(z), blocks=blocks, prec=Precision(digits))
    true = eval_rhs(dataclasses.replace(spec, prec=Precision(digits, spec.prec.guard + 40)))
    info = check_estimate(spec, true)
    assert info.terms == blocks * chi.modulus


@pytest.mark.parametrize("chi,z", [(enumerate_characters(5)[1], "0.25+0.25i"),
                                   (enumerate_characters(4)[1], "0.5")], ids=["mod5-complex", "mod4"])
def test_thm4_at_ten_thousand_blocks_backs_25_digits(chi, z):
    spec = IdentitySpec("THM4", chi=chi, z=z, blocks=10**4, prec=Precision(30))
    true = eval_rhs(dataclasses.replace(spec, prec=Precision(30, 50)))
    info = check_estimate(spec, true)
    assert float(info.rel_error_estimate) < 1e-25
