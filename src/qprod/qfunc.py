"""Working-precision numerics: q-Pochhammer, q-gamma, classical gamma.

Precision is explicit everywhere.  Each public function takes a Precision and
does its work inside the mpmath context for digits + guard decimal digits.
There is one such context per working precision, created on first use and
shared afterwards; nothing changes its precision, and mpmath's global mp is
never touched.  So identical inputs at an identical Precision give
bit-identical results.  A kernel that needs more digits than its caller's
context, the split and the Euler function's eta route below, takes them as a
bit precision on mpmath.libmp, calling the mpf_ and mpc_ functions mpmath's
own operators would, in the same order, and rounds its result once into the
caller's context: creating a context costs 0.2 to 0.8 ms (CPython 3.11),
since mpmath wraps every function anew.  Every comparison with the working
epsilon 10^-dps, a truncation rule's or a pole check's, takes it from
working_eps(ctx), computed once per context.

That determinism lets a process compute each value once.  One memo, _MEMO,
holds the results of geometric_product, the kernel behind every q-product,
euler_function and qgamma_ctx, and beside them whole identity sides
(products._side), logarithms (_log) and complex character values
(products._omega).  Each is kept under a key of everything its value
depends on: the exact bits of its inputs, converted into ctx first (a
complex value with a zero imaginary part is not the real one), the
context's working bits and digits, and its own parameters.  Those are
geometric_product's n, polynomial coefficients and pole eps (the pole's
message only words an error), euler_function's n and d, and qgamma_ctx's
guard, which decides whether a value near a pole takes more digits.  The
split's head runs geometric_product's loop outside the memo: over the
default suite no head is asked for twice.  Every other key begins with its
kind: "euler", "qgamma", "side", "log" or "omega".  A side's key holds its
evaluator itself, its spec's exact inputs and every other field of the
spec but the id, so COR6's left side, THM5's product, is computed once per
(chi, q, z, prec), and a left side never answers a right side.  A repeat
returns the bits the call would compute, an mpf or mpc in the caller's
context's own type, a side as it was stored: its value is already rounded
into the spec's shared context.  Only results are stored, never a raised
error, and past _MEMO_SIZE entries the oldest one goes.  The memo lives in
the process only.

q is restricted to real 0 < q < 1; arguments x may be complex.  q**x always
means exp(x * log q) with the real (principal) logarithm of q.

geometric_product multiplies the factors 1 - a q^k on fixed-point integers:
one at a time while |a q^k| > 1/2, then in blocks of _BLOCK factors, and
once |a q^k| < 1/(2s) in long blocks of s = 64 to 4096 factors.  By the
finite q-binomial theorem a block is one polynomial in t = a q^k,
prod_{j<s} (1 - t q^j) = sum_i c_i t^i (Gasper and Rahman, Basic
Hypergeometric Series, ch. 1), evaluated by Horner's rule, at a complex t
with two real multiplies per coefficient (Knuth, The Art of Computer
Programming, vol. 2, sec. 4.6.4).  Horner's rule stops at the least degree
whose dropped terms stay below one unit of the fixed point, which falls as t
does.  Only the grouping of the factors changes: every left side stays a
product of its own N factors.  At q = 0.99, from |a| = 1/2 over the tail
rule's count, a factor costs 7.5 to 12.4 ns real and 15 to 24 ns complex at
20 to 210 working digits, 16 to 85 times less than one at a time when real
and 21 to 112 times less when complex.

Each (a; q)_inf takes one of three routes, and one function, _route, picks
it: the direct product below a crossover count of factors; from there on
the eta route for the Euler function, a real a == q (the direct product
still where L = -log q > 2 pi), and the split for any other a.  The Euler
function (q; q)_inf, the numerator of every q-gamma value, is
euler_function's, whose memo answers before _route is asked:
qpoch_inf_ctx hands it a real a == q and routes only the other a, direct
or split.  Every direct geometric product truncates by one rule: after N
factors a q^k the tail |a| q^N / (1 - q) is below 10^-dps
(geometric_terms).  On the eta route the Dedekind eta transformation
eta(-1/tau) = sqrt(-i tau) eta(tau) turns it into a closed part times
(q'; q')_inf with q' = exp(-4 pi^2 / L), and q' is tiny once q is near 1
(below 10^-1700 at q = 0.99).  So its cost no longer grows as 1/(1 - q).
The route also gives (y; y)_inf at y = q^(d/n): L = -d log(q) / n comes from
log q, so y is never rounded.
The cyclotomic product prod_j Phi_r(q^(j/n))^mu(r) of the THM3_COPRIME and
COR6 closed forms (psi_product) is, for squarefree r, the Moebius product
prod_{d|r} (y^d; y^d)_inf^mu(d) of such Euler functions; where (y; y)_inf
is direct, it multiplies as many factors Phi_r(y^j) as (y; y)_inf takes.

The split, in qpoch_inf_ctx, takes the denominator (q^x; q)_inf of
Gamma_q(x) among others: K direct factors, then the tail (w; q)_inf,
w = a q^K, from the exact rearrangement log (w; q)_inf = -sum_{j>=1} w^j /
(j (1 - q^j)) for |w| < 1 (Gasper and Rahman, Basic Hypergeometric Series,
ch. 1).  K and the J terms summed are each about sqrt(dps ln 10 / L), so
the cost grows as 1/sqrt(1 - q).  The split runs with log10(1/L) + 5 more
digits (_split_digits), as bits on mpmath.libmp, and, for Gamma_q, takes
q^x there from x: it magnifies a rounding of q^x about log(1/L) / L times.
The left sides of THM1 and THM5/COR6, the EX special values among them,
call geometric_product themselves and stay direct.  Every side of an
identity that takes q runs in split_context too and is rounded once
(products._side).

No kernel runs past _WORK_BUDGET factors (the split counts three for each
head factor and series term): a product whose count exceeds it raises
ValueError before its loop starts, so Gamma_q with q within about 10^-13 of
1 at 60 working digits, or a term count of 10^12, fails at once instead of
running for hours.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.libmp import (
    dps_to_prec,
    from_int,
    from_man_exp,
    from_rational,
    mpc_exp,
    mpc_mul,
    mpc_mul_mpf,
    mpc_pos,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_mul_int,
    mpf_pi,
    mpf_pos,
    mpf_pow_int,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_fixed,
    to_rational,
)

from .numtheory import cyclotomic, divisors, mobius

__all__ = [
    "DEFAULT_PRECISION",
    "INFINITY",
    "Precision",
    "SingularArgumentError",
    "context",
    "euler_function",
    "from_exact",
    "gamma_classical",
    "gamma_ctx",
    "geometric_product",
    "geometric_terms",
    "hp_str",
    "log_ctx",
    "parse_number",
    "psi_product",
    "qgamma",
    "qgamma_ctx",
    "qpochhammer",
    "qpoch_inf_ctx",
    "rational_product",
    "rational_zeros",
    "split_context",
    "to_hp",
    "working_eps",
]

INFINITY = math.inf


class SingularArgumentError(ArithmeticError):
    """A gamma-type function was evaluated at (or within working epsilon of) a pole."""


@dataclass(frozen=True)
class Precision:
    """Target decimal digits plus guard digits actually carried while computing."""

    digits: int = 50
    guard: int = 10

    def __post_init__(self):
        if not isinstance(self.digits, int) or isinstance(self.digits, bool) or self.digits < 10:
            raise ValueError(f"digits must be an integer >= 10, got {self.digits!r}")
        if not isinstance(self.guard, int) or isinstance(self.guard, bool) or self.guard < 0:
            raise ValueError(f"guard must be a non-negative integer, got {self.guard!r}")

    @property
    def workdps(self) -> int:
        return self.digits + self.guard


DEFAULT_PRECISION = Precision()


def context(prec: Precision = DEFAULT_PRECISION):
    """The shared mpmath context with prec.digits + prec.guard working digits.

    Callers must not change its dps: every Precision with the same working
    digits gets this same context.
    """
    return _context_at(prec.workdps)


@functools.cache
def _context_at(workdps: int):
    ctx = mpmath.mp.clone()
    ctx.dps = workdps
    return ctx


_EPS: dict = {}  # working_eps by (context, dps)


def working_eps(ctx):
    """The working epsilon 10^-dps of ctx, computed once per context and precision."""
    eps = _EPS.get((ctx, ctx.dps))
    if eps is None:
        eps = _EPS[ctx, ctx.dps] = ctx.mpf(10) ** (-ctx.dps)
    return eps


# ---------------------------------------------------------------------------
# Value construction and serialization

_EXP_PI_LITERALS = {"e^-pi": 1, "e^-2pi": 2, "e^-4pi": 4, "e^-8pi": 8}


def parse_number(value):
    """The exact value of a numeric input: a Fraction, a pair (re, im) of them when complex, or a tag.

    Text is a decimal or p/q, optionally complex ("0.25+0.25i", "2-i",
    "2i"), or one of the literals e^-pi, e^-2pi, e^-4pi, e^-8pi, which stay
    as their text, the tag.  A float or an mpf is taken at its binary value;
    anything else, a bool or a non-finite value among it, raises ValueError.
    """
    try:
        if isinstance(value, str):
            return _parse_text(value)
        if isinstance(value, complex) or hasattr(value, "_mpc_"):
            return _fraction(value.real), _fraction(value.imag)
        return _fraction(value)
    except (ArithmeticError, TypeError, ValueError) as exc:
        try:
            finite = cmath.isfinite(complex(value))
        except (TypeError, ValueError):
            finite = True
        what = f"cannot interpret {value!r} as a number" + (f": {exc}" if isinstance(exc, OverflowError) else "")
        raise ValueError(what if finite else f"non-finite value {value!r} rejected") from exc


def _parse_text(text):
    t = text.strip().replace(" ", "")
    if t in _EXP_PI_LITERALS:
        return t
    if t[-1:] in ("i", "j"):
        core = t[:-1]
        # the real part ends at the last sign that does not follow an exponent's e or another sign
        cut = max((p for p in range(1, len(core)) if core[p] in "+-" and core[p - 1] not in "eE+-"), default=0)
        im = core[cut:]
        return _fraction(core[:cut] or "0"), _fraction(im + "1" if im in ("", "+", "-") else im)
    return _fraction(t)


def _fraction(x) -> Fraction:
    """A real number, or its decimal or p/q text, as an exact Fraction."""
    if isinstance(x, bool):
        raise TypeError("a bool is no number")
    # 10^e as an exact int, rounded into a context, takes 3 ms at e = 10^4 and 14 s at 10^6
    if isinstance(x, str) and abs(int(x.lower().partition("e")[2] or 0)) > 10**4:
        raise OverflowError("its decimal exponent passes 10000")
    # to_rational reads +-inf as 0; Fraction refuses a non-finite mpf
    return Fraction(*to_rational(x._mpf_)) if hasattr(x, "_mpf_") and mpmath.isfinite(x) else Fraction(x)


def from_exact(value, ctx):
    """An exact value (parse_number) in ctx: each Fraction part rounded once to nearest, a tag evaluated.

    So text converts to the bits of ctx.mpf(text), except past decimal
    exponents of +-400, where mpmath's own path can miss the nearest value.
    """
    if isinstance(value, str):
        return ctx.exp(-_EXP_PI_LITERALS[value] * ctx.pi)
    parts = [from_rational(x.numerator, x.denominator, ctx.prec, round_nearest)
             for x in (value if isinstance(value, tuple) else (value,))]
    return ctx.make_mpc(tuple(parts)) if len(parts) == 2 else ctx.make_mpf(parts[0])


def to_hp(value, ctx):
    """A numeric input in ctx: from_exact(parse_number(value), ctx), or a finite mpf or mpc rounded directly."""
    if hasattr(value, "_mpf_") or hasattr(value, "_mpc_"):
        v = +ctx.convert(value)  # + rounds to ctx: the bits of its exact value, rounded once
        if ctx.isfinite(v):
            return v
    return from_exact(parse_number(value), ctx)


def hp_str(value, digits: int = DEFAULT_PRECISION.digits) -> str:
    """Decimal-string form with the requested digit count ("a+bi" when complex)."""
    if hasattr(value, "imag") and value.imag != 0:
        re_s = mpmath.nstr(value.real, digits)
        im_s = mpmath.nstr(abs(value.imag), digits)
        sign = "+" if value.imag >= 0 else "-"
        return f"{re_s}{sign}{im_s}i"
    v = value.real if hasattr(value, "real") else value
    return mpmath.nstr(v, digits)


def as_q(q, ctx):
    """q's exact real value (parse_number), checked 0 < q < 1 once rounded into ctx, which may reach 1.

    A tag, e^-k pi, lies in (0, 1) at any precision and is returned unevaluated.
    """
    v = parse_number(q)
    if isinstance(v, str):
        return v
    v, im = v if isinstance(v, tuple) else (v, 0)
    if im:
        raise ValueError(f"q must be real, got {q!r}")
    if not 0 < from_exact(v, ctx) < 1:
        raise ValueError(f"q must satisfy 0 < q < 1, got {q!r}")
    return v


# ---------------------------------------------------------------------------
# q-Pochhammer


_LN2 = math.log(2)
_LN10 = math.log(10)


def _flog(x) -> float:
    """log of a positive mpf as a float, from its mantissa and exponent; +-inf past the float range."""
    _, man, exp, _ = x._mpf_
    try:
        return math.log(man) + exp * _LN2
    except OverflowError:  # exp itself is too large for a float
        return math.inf if exp > 0 else -math.inf


def _float_log(q) -> float:
    """log q as a float for 0 < q < 1, keeping its relative accuracy for q near 1.

    From the bits of q = man 2^exp: below 1/2 (bc + exp < 0) it is _flog(q);
    from 1/2 on, 1 - q = (2^-exp - man) 2^exp is exact, and the int division
    rounds it once to a float, as float(1 - q) does.
    """
    _, man, exp, bc = q._mpf_
    if bc + exp < 0:
        return _flog(q)
    one = 1 << -exp
    return math.log1p(-(one - man) / one)


def geometric_terms(mag, q, ctx) -> int:
    """Smallest N >= 0 with mag * q^N / (1 - q) below 10^-dps.

    This is the truncation rule of every geometric-tail product: once the
    terms a q^k with |a| = mag are that small, all remaining factors together
    move the product by less than one unit in the last working digit.  N is
    solved from float logarithms; a solution within float error of an
    integer is settled in working precision.  A magnitude whose logarithm
    passes the float range is decided from its exponent as an int: below
    10^-dps (1 - q) it needs 0 factors, and a count too large for a float
    raises the work budget's ValueError.
    """
    if not mag:
        return 0
    one_minus_q = 1 - q
    rest = ctx.dps * _LN10 - _flog(one_minus_q)
    top = _flog(mag) + rest
    if top == -math.inf:
        return 0
    lq = -_float_log(q)
    # N is the least integer > x
    x = top / lq
    if x == math.inf:  # x itself, at least 10^308, as an exact rational: the budget refuses it
        _, man, exp, _ = mag._mpf_
        if top == math.inf:
            top = exp * Fraction(_LN2) + Fraction(math.log(man) + rest)
        _check_budget(math.floor(Fraction(top) / Fraction(lq)) + 1)
    n = math.floor(x) + 1
    near = round(x)
    if abs(x - near) <= 1e-9 * (1 + abs(x)):
        n = near if mag * q**near / one_minus_q < working_eps(ctx) else near + 1
    return max(n, 0)


# Factors per kernel call.  On the pure-Python mpmath backend (CPython 3.11,
# 2 cores) a direct factor in blocks costs 7.5-12.4 ns real and 15-24 ns
# complex at 20 to 210 working digits (q = 0.99, from |a| = 1/2 to the tail
# rule), and 6.5 and 12.8 ns over the 1.5e7 factors at q = 0.99999 and 60
# digits, so a direct product at the budget runs about 0.65 s (real) to
# 1.3 s (complex) at 60.  _qpoch_split charges three factors for each head
# factor and each series term, but a step costs 260-1150 ns, 22 to 131 real
# or 11 to 62 complex direct factors (Gamma_q(1/2) at 1 - q = 1e-8, same
# digits), since its series terms each take a division and run with extra
# digits: a split at the budget runs about 13 s at 60 digits (9 s at 20,
# 38 s at 210).
_WORK_BUDGET = 10**8


def _check_budget(count: int):
    """Refuse a product of more than _WORK_BUDGET factors before its loop starts."""
    if count > _WORK_BUDGET:
        raise ValueError(f"{count} factors exceed the work budget of {_WORK_BUDGET} factors")


_MEMO_SIZE = 8192
_MEMO: dict = {}  # remembered results of every kind (module docstring), oldest first


def _remembered(key, ctx, compute, *args):
    """compute(*args), remembered in _MEMO under key (see the module docstring).

    An mpf or mpc result comes back converted into ctx; with ctx None, the
    result is returned as it was stored.
    """
    value = _MEMO.get(key)
    if value is None:
        value = compute(*args)
        if len(_MEMO) >= _MEMO_SIZE:
            del _MEMO[next(iter(_MEMO))]
        _MEMO[key] = value
    # a context with the same working bits rounds alike, but has its own mpf type
    return value if ctx is None else ctx.convert(value)


def _log(x, prec):
    """log x at prec bits, rounded to nearest, for the bits x of a positive mpf; remembered in the memo.

    This is mpf_log(x, prec), the bits ctx.log(v) gives for v with v._mpf_
    = x in a context of prec working bits.
    """
    return _remembered(("log", x, prec), None, mpf_log, x, prec, round_nearest)


def log_ctx(x, ctx):
    """ctx.log(x) for a positive mpf x, bit for bit, from _log's memo."""
    return ctx.make_mpf(_log(x._mpf_, ctx.prec))


def geometric_product(a, q, ctx, n, poly=None, pole=None):
    """prod_{k=0}^{n-1} f(a q^k) on fixed-point integers.

    f(t) = 1 - t for real or complex a.  Or f is an IntPolynomial with
    f(0) = 1, evaluated by Horner's rule at real a.  With pole =
    (eps, message), a factor 1 - a q^k of modulus below eps raises
    SingularArgumentError(message(k)).  Polynomial factors take no pole: the
    callers' f is a cyclotomic polynomial Phi_r, r >= 2, at 0 < t < 1, where
    it is positive.  More than _WORK_BUDGET factors raise ValueError before
    the loop.

    Every value is an int scaled by 2^B, a complex value a pair of them, and
    the running product m * 2^e keeps a B-bit mantissa m: it is renormalised
    after every multiply, so a product as small as (q;q)_inf at q = 0.99
    (about 1e-71) keeps all its bits.

    The factors 1 - t, t = a q^k, come in three runs.  The head, from the
    first factor while |t| > 1/2 (about ln 2 / L factors from |a| = 1,
    L = -log q), is multiplied one factor at a time with the pole check.
    Then come blocks.  By the finite q-binomial theorem (Gasper and Rahman,
    Basic Hypergeometric Series, ch. 1), s factors make one polynomial,
    prod_{j<s} (1 - t q^j) = P_s(t) = sum_{i<=s} c_i t^i with
    c_i = (-1)^i q^(i(i-1)/2) [s choose i]_q.  A block is P_s(t), then t
    steps on by Q = q^s.  Its size is s = _BLOCK = 16 until |t| < 1/(2s)
    for a long size s of _LONG_BLOCKS (64, 256, 1024, 4096): from there on
    each block is the largest long size whose bound on |t| holds and that
    still fits in the factors left, and smaller ones as they run out
    (_block_size).  P_s(t) is evaluated by Horner's rule; at a complex t,
    b_j = c_j + r b_{j+1} - |t|^2 b_{j+2} with r = 2 Re t gives
    P_s(t) = c_0 + t b_1 - |t|^2 b_2, two real multiplies per coefficient
    (Knuth, The Art of Computer Programming, vol. 2, sec. 4.6.4).  Both
    start at the least degree h >= 1 whose dropped terms cannot move the
    block.  With |t| < 2^-j, the terms of degree d = h + 1 and above of a
    block of 16 sum to at most 2^s |t|^d, since |c_i| <= C(s, i), below one
    unit of 2^-B once d j >= B + s.  In a long block each term is at most
    half the one before, since |c_(i+1) / c_i| <= (s - i) / (i + 1) and
    s |t| <= 1/2, so they sum to at most 2 |c_d| |t|^d, below one unit once
    d j >= B + 1 + log2 |c_d|; log2 |c_d|, taken as a float plus a bit, is
    at most log2 C(s, d) and falls far below it as q^s falls.  _Blocks
    holds, per (q, B) and size, Q, the c_i and the most bits t may have for
    each h, and computes the c_i only up to the highest degree a block has
    asked for: a size that a product takes only at a tiny t costs a few
    coefficients.  |t| only falls along a product, so h only falls; t falls
    log-uniformly to about 10^-dps, so most factors of a long product sit
    in long blocks that stop at a low degree, and the last blocks at
    P = c_0 + c_1 t.  A long block's terms
    sum to |P_s(t) - 1| <= (1 + |t|)^s - 1 < e^(1/2) - 1, so it cancels
    almost nothing.  A block needs no pole check: each of its factors has
    modulus at least 1/2.  The fewer than 16 factors left over go one at a
    time.  A product too short for one block never asks for coefficients.
    A factor that vanishes exactly, which only a product without a pole
    check meets, makes the product 0 at once.  Every other single factor is
    at least one unit of 2^-B in modulus (a complex one of exactly one unit
    is a unit of the Gaussian integers), a block of 16 is at least 2^-16
    and a long block at least 1/2, so no multiply leaves the mantissa with
    fewer than B bits: renormalising only shifts down.

    Rounding, in units of 2^-B.  q is exact in B bits for q >= 2^-62.  Each
    step t -> t q, and each step t -> t Q with Q rounded once, adds at most
    1.5 units to t, so t is off by at most d <= 1.5 N units over N factors.
    A single factor f is then off by (d + 1) / |f| relative units.  A block
    is off by at most 2 s d relative units from t, since |P_s'(t) / P_s(t)|
    <= s / (1 - |t|).  A block of s = 16 is off by 3^s s^2 more from the
    rounded c_i, from rounding |t|^2 and from Horner's steps.  The terms
    |c_i t^i| sum to at most prod_j (1 + |t| q^j) <= (3/2)^s, and
    |P(t)| >= prod_j (1 - |t| q^j) >= 2^-s, so P may cancel s log2 3 bits.
    With mu the least of 1/2 and the moduli of the factors, the relative
    error of the product is at most N (3N / mu + s 3^s) units of 2^(1-B),
    s = _BLOCK.  A block of 16 that stops below degree 16 adds at most one
    unit more.  It stops only at |t| < 2^-ceil((B + s) / s) <= 1/64, where
    |P(t)| >= 3/4, so the N / s blocks add at most 2N / s relative units.
    They fit in the bound's slack: its 6N^2 / mu units of 2^-B for the
    steps of t are used at most N (d + 1) / mu <= (1.5 N^2 + N) / mu, since
    2 s d per block is at most the (d + 1) / mu per factor of single
    factors.
    A long block of s factors has |P_s(t)| >= 1 - s |t| >= 1/2.  The c_i
    of every block come from the closed form c_i = -c_(i-1) (q^(i-1) - q^s)
    / (1 - q^i) on ints scaled by 2^W, W = B + g, g = 2 bits(s) + lambda + 2
    with 1 / (1 - q) <= 2^lambda, and are rounded once to B bits.  Every
    power q^m there is off by less than m units of 2^-W (a multiply adds
    less than one unit to its factors' errors), so a step adds less than
    (2s C(s, i - 1) + i C(s, i)) 2^lambda + 1 units to c_i: the division by
    1 - q^i >= 1 - q magnifies a unit up to 1 / (1 - q) times, which the
    lambda bits of g absorb.  An error in c_i reaches c_j, j > i, at most
    C(s, j) / C(s, i) times, since |c_l / c_(l-1)| <= (s - l + 1) / l.  In a
    long block sum_{j>=i} C(s, j) |t|^j <= 2 C(s, i) |t|^i, so the c_i move
    P_s(t) by less than 4 s^2 2^lambda units of 2^-W, a quarter of a unit
    of 2^-B, and their rounding to B bits by less than 1 / (2s - 1) units;
    in a block of 16 at |t| <= 1/2, by less than 1,400 units, inside its
    3^s s^2.  Q, from log2 s squarings at W bits, is off by less than
    1 + s 2^-g units, and a long block's |t| Q by less than 1.5 units.
    Horner's steps add less than 2 units to a long block: an error in b_j
    reaches P as t^j times it.  Rounding |t|^2 moves a complex P by at most
    sum_i |c_i| |t|^(i-2) i (i - 1) / 2 <= s^2 units.
    Dropped terms add less than one unit.  So a long block is off by at
    most 2 s d + 2 s^2 + 10 relative units, at most 2 d + 2s + 1 per
    factor, inside the per-factor (d + 1) / mu + 16 3^16 of the bound.
    B is the context's working bits plus 2 log2 N + 20 + _BLOCK_GUARD guard
    bits.  _BLOCK_GUARD = 2s + 8 is at least log2(s 3^s) + 10, so the
    rounding stays as far below the truncation error 10^-dps as the N^2
    units of a loop of single factors stay below 2^-(2 log2 N + 20).
    Polynomial factors, one at a time with t -> t q, take that loop's N^2
    units and B without _BLOCK_GUARD.

    Results are remembered in the module's memo; the loop itself,
    _geometric_product, works on the bits of a and q at ctx's working bits.
    """
    a = ctx.convert(a)
    bits = a._mpc_ if isinstance(a, ctx.mpc) else a._mpf_
    key = (bits, q._mpf_, ctx.prec, ctx.dps, n,
           None if poly is None else poly.coeffs, None if pole is None else pole[0]._mpf_)
    return _remembered(key, ctx, _geometric_value, bits, q._mpf_, ctx, n, poly, pole)


def _geometric_value(a, q, ctx, n, poly, pole):
    """_geometric_product at ctx's working bits, as an mpf or mpc of ctx."""
    m, mi, e = _geometric_product(a, q, ctx.prec, n, poly, pole)
    if mi is None:
        return ctx.mpf((m, e))
    return ctx.mpc(ctx.mpf((m, e)), ctx.mpf((mi, e)))


# Factors per block of a direct product with |a q^k| <= 1/2 (geometric_product),
# and the guard bits the blocks add to B: a block's polynomial may cancel
# s log2 3 bits.
_BLOCK = 16
_BLOCK_GUARD = 2 * _BLOCK + 8
# Sizes of the long blocks, each taken once |a q^k| < 1/(2s) (geometric_product)
_LONG_BLOCKS = (64, 256, 1024, 4096)


class _Blocks:
    """prod_{j<s} (1 - x q^j) = sum_i c_i x^i for blocks of s factors at q = qf 2^-B.

    Q = q^s and the c_i are ints scaled by 2^B; kept holds c_h, ..., c_0,
    computed as far as the blocks so far have needed, and widths[i], i <= h,
    the most bits a t may have for P(t) to keep only its terms of degree i
    and below.  A block of 16 at |t| <= 1/2 drops terms of degree d and
    above, at most 2^s |t|^d in all, only once |t| < 2^-j, d j >= B + s.  A
    long block, at |t| < 1/(2s), drops them once d j >= B + 1 + log2 |c_d|:
    each term is at most half the one before, so they sum to at most
    2 |c_d| |t|^d; log2 |c_d| is taken as a float, plus a bit, from
    |c_d / c_(d-1)| = q^(d-1) (1 - q^(s-d+1)) / (1 - q^d).  The coefficients
    come from the closed form c_d = -c_(d-1) (q^(d-1) - q^s) / (1 - q^d) on
    ints scaled by 2^W, W = B + g (see geometric_product for g), each
    rounded once to B bits.  A product's first blocks of a size keep the most
    terms, and a long size's last ones, at a tiny t, only c_0 + c_1 t.
    """

    def __init__(self, qf, B, s):
        self.B, self.s = B, s
        # -log q as a float; 2^64 stands for q = 0, a q below 2^-B
        self.L = (-math.log1p(-((1 << B) - qf) / (1 << B)) if 2 * qf > 1 << B
                  else B * _LN2 - math.log(qf) if qf else 2.0**64)
        self.g = 2 * s.bit_length() + B + 3 - ((1 << B) - qf).bit_length()
        self.W = W = B + self.g
        self.q_w = qs = qf << self.g  # q and q^s at W bits
        for _ in range(s.bit_length() - 1):  # q^s by squaring, s a power of two
            qs = qs * qs >> W
        self.qs_w, self.Q = qs, qs >> self.g
        self.c = [1 << W]  # c_0, ..., c_h at W bits
        self.qh = 1 << W  # q^h at W bits
        self.log_c = 0.0  # log2 |c_(h+1)|
        self.kept = (1 << B,)
        self.widths = []
        self._width()

    def _width(self):
        """Append widths[h], h the degree of the last coefficient, from the terms past degree h."""
        d, s, B = len(self.c), self.s, self.B
        if d > s:  # degree s keeps every term
            self.widths.append(B)
        elif s == _BLOCK:
            self.widths.append(B + (-(B + s) // d))
        else:
            L = self.L
            self.log_c += (math.log(-math.expm1((d - s - 1) * L)) - math.log(-math.expm1(-d * L))
                           - (d - 1) * L) / _LN2
            width = B + (-(B + 3 + math.floor(self.log_c)) // d)
            # a degree that suffices, with one more term, does too
            self.widths.append(max(width, self.widths[-1]) if self.widths else width)

    def degree(self, bits):
        """The coefficients c_h, ..., c_0 to keep at a t of at most bits bits, and widths[h - 1].

        h is the least degree that widths allows, at least 1 since widths[0]
        is below every bit count.  The width returned is the most bits at
        which the next lower degree would do.
        """
        if self.widths[-1] < bits:
            c, W = self.c, self.W
            while self.widths[-1] < bits:
                qn = self.qh * self.q_w >> W
                c.append(-(c[-1] * (self.qh - self.qs_w)) // ((1 << W) - qn))
                self.qh = qn
                self._width()
            self.kept = tuple(x >> self.g for x in reversed(c))
        h = bisect.bisect_left(self.widths, bits)
        return self.kept[len(self.kept) - 1 - h:], self.widths[h - 1]


_blocks = functools.lru_cache(maxsize=1024)(_Blocks)  # the last 1024 (q, B, s)


def _block_size(bits, left, qf, B):
    """The size s of the next blocks at a t of at most bits bits with left factors to go.

    s is the largest long size with s <= left and 2^bits <= 2^B / (2s), else
    _BLOCK.  Returns s, its _Blocks, and up, the most bits at which the next
    larger size would start: -1 when it does not fit in the factors left.
    """
    s = _BLOCK
    for size in _LONG_BLOCKS:
        if size > left or bits > B - size.bit_length():
            break
        s = size
    up = B - (4 * s).bit_length() if s < _LONG_BLOCKS[-1] and 4 * s <= left else -1
    return s, _blocks(qf, B, s), up


def _geometric_product(a, q, prec, n, poly, pole):
    """geometric_product's loop at prec working bits; returns (m, mi, e), the product (m + i mi) 2^e.

    a is an mpf's bits, a 4-tuple, or an mpc's, a pair of them; q an mpf's
    bits.  mi is None for a real a.
    """
    _check_budget(n)
    B = prec + 2 * n.bit_length() + 20 + (_BLOCK_GUARD if poly is None else 0)
    one = 1 << B
    half = one >> 1
    qf = to_fixed(q, B)
    pe = to_fixed(pole[0]._mpf_, B) if pole is not None else 0
    m, e = one, -B  # the running product is m * 2^e
    if poly is not None:
        t = to_fixed(a, B)
        head, *rest = [c << B for c in reversed(poly.coeffs)]
        for _ in range(n):
            v = head
            for c in rest:
                v = (v * t >> B) + c
            m *= v
            s = m.bit_length() - B
            m = m >> s if s >= 0 else m << -s
            e += s - B
            t = t * qf >> B
        return m, None, e
    if len(a) == 2:  # an mpc's parts
        tr, ti = (to_fixed(part, B) for part in a)
        mi = 0
        k = 0
        while k < n:
            if n - k >= _BLOCK and tr * tr + ti * ti <= half * half:
                while n - k >= _BLOCK:
                    # |t| < 2^(ceil(bits(|t|^2) / 2) - B)
                    size, table, up = _block_size(((tr * tr + ti * ti).bit_length() + 1) >> 1, n - k, qf, B)
                    qs = table.Q
                    fall = B  # the first block takes its degree
                    blocks = (n - k) // size
                    for done in range(blocks):
                        # P(t) = c_0 + t b_1 - |t|^2 b_2, b_j = c_j + r b_{j+1} - |t|^2 b_{j+2}, r = 2 Re t
                        tt = tr * tr + ti * ti
                        if tt.bit_length() <= 2 * fall:
                            if tt.bit_length() <= 2 * up:
                                break  # a larger block starts
                            kept, fall = table.degree((tt.bit_length() + 1) >> 1)
                            fall = max(fall, up)
                            # the degree-1 block P = c_0 + c_1 t runs as b_2 = 0, b_1 = c_1
                            top, second, *middle, c0 = kept if len(kept) > 2 else (0, *kept)
                        r = tr << 1
                        t2 = tt >> B
                        b2, b1 = top, second + (r * top >> B)
                        for c in middle:
                            b2, b1 = b1, c + ((r * b1 - t2 * b2) >> B)
                        pr = c0 + ((tr * b1 - t2 * b2) >> B)
                        pi = ti * b1 >> B
                        m, mi = m * pr - mi * pi, m * pi + mi * pr
                        s = max(m.bit_length(), mi.bit_length()) - B
                        m >>= s
                        mi >>= s
                        e += s - B
                        tr = tr * qs >> B
                        ti = ti * qs >> B
                    else:
                        done = blocks
                    k += done * size
                continue
            fr = one - tr
            if -pe < fr < pe and -pe < ti < pe and fr * fr + ti * ti < pe * pe:
                raise SingularArgumentError(pole[1](k))
            if not (fr or ti):
                return 0, 0, 0
            m, mi = m * fr + mi * ti, mi * fr - m * ti
            s = max(m.bit_length(), mi.bit_length()) - B
            m >>= s
            mi >>= s
            e += s - B
            tr = tr * qf >> B
            ti = ti * qf >> B
            k += 1
        return m, mi, e
    t = to_fixed(a, B)
    k = 0
    while k < n:
        if n - k >= _BLOCK and -half <= t <= half:
            while n - k >= _BLOCK:
                size, table, up = _block_size(t.bit_length(), n - k, qf, B)
                qs = table.Q
                fall = B  # the first block takes its degree
                blocks = (n - k) // size
                for done in range(blocks):
                    if t.bit_length() <= fall:
                        if t.bit_length() <= up:
                            break  # a larger block starts
                        (top, *rest), fall = table.degree(t.bit_length())
                        fall = max(fall, up)
                    v = top
                    for c in rest:
                        v = (v * t >> B) + c
                    m *= v
                    s = m.bit_length() - B
                    m >>= s
                    e += s - B
                    t = t * qs >> B
                else:
                    done = blocks
                k += done * size
            continue
        f = one - t
        if -pe < f < pe:
            raise SingularArgumentError(pole[1](k))
        if not f:
            return 0, None, 0
        m *= f
        s = m.bit_length() - B
        m >>= s
        e += s - B
        t = t * qf >> B
        k += 1
    return m, None, e


def _fixed_parts(x, B):
    """Real and imaginary part of an mpf or mpc as ints scaled by 2^B."""
    if hasattr(x, "_mpc_"):
        return tuple(to_fixed(part, B) for part in x._mpc_)
    return to_fixed(x._mpf_, B), 0


def _exact_scale(pair, B):
    """The pair's parts as ints at the least scale S that holds them all exactly, capped at 2^B, and S.

    pair is a class's shifts (a, b): ints or Fractions, or mpf or mpc values.
    Every part is an exact rational (an mpf man * 2^exp, man odd, has the
    denominator 2^max(0, -exp)), so S is the lcm of the parts' denominators:
    a power of two 2^beta for mpf shifts, 100 for (0.31, 0.87) as Fractions.
    Where that lcm exceeds 2^B, S = 2^B and every part x becomes floor(x
    2^B), as to_fixed truncates it.  Returns ((ar, ai), (br, bi)) scaled by
    S, and S.
    """
    parts = []
    for x in pair:
        if hasattr(x, "_mpc_"):
            parts += [Fraction(*to_rational(p)) for p in x._mpc_]
        else:
            parts += [Fraction(*to_rational(x._mpf_)) if hasattr(x, "_mpf_") else Fraction(x), Fraction(0)]
    S = min(math.lcm(*(p.denominator for p in parts)), 1 << B)
    ar, ai, br, bi = (p.numerator * S // p.denominator for p in parts)
    return ((ar, ai), (br, bi)), S


# Real classes (rational_product) take blocks of _PACKED_BLOCK factors with
# their forward differences packed into one int.
_PACKED_BLOCK = 8


def _block_differences(first, k, xs, S, s):
    """Forward differences at i = 0, orders 0 .. d, of P(i) = prod_{t<s} prod_{x in xs} (first + (s i + t) k + x).

    Each x of xs is a pair (real, imag) of ints scaled by S, its class's
    exact scale (rational_product).  P is a polynomial of degree d = s
    len(xs) in i with integer coefficients, so its values at i = 0 .. d fix
    it; returns the differences of its real part and of its imaginary part,
    exact ints scaled by S^d: those at any scale S' that S divides, divided
    by (S' / S)^d.
    """
    d = s * len(xs)
    re, im = [], []
    for i in range(d + 1):
        pr, pi = 1, 0
        for t in range(s):
            for xr, xi in xs:
                nr = (first + (s * i + t) * k) * S + xr
                pr, pi = pr * nr - pi * xi, pr * xi + pi * nr
        re.append(pr)
        im.append(pi)
    for diffs in (re, im):
        for j in range(1, d + 1):
            for t in range(d, j - 1, -1):
                diffs[t] -= diffs[t - 1]
    return re, im


def rational_product(shifts, start, stops, ctx, result_ctx=None) -> list:
    """The products prod_{n=start}^{c-1} (n + a_r) / (n + b_r), r = n mod k, for each c of stops.

    shifts[r] is the pair (a_r, b_r) for residue r mod k = len(shifts), or
    None where every factor is exactly 1.  A shift is an int or a Fraction,
    taken exactly, or a real or complex value that ctx converts; start >= 0,
    stops ascend from start or above, and an empty range gives 1.  No
    denominator may vanish (rational_zeros finds those).

    Each residue class r is one pass over its factors n, n + k, ..., from
    its first at or after max(start, 1) to the last stop, on a running
    product m * 2^e with a B-bit mantissa, a complex one a pair of them,
    renormalised after every step.  The pass first steps one factor at a
    time over its factors whose real part is not positive, n + min(Re a_r,
    Re b_r) <= 0, then takes the rest in blocks of s: the numerator and
    denominator of block i, prod_{t<s} (n_{si+t} + a_r) and prod_{t<s}
    (n_{si+t} + b_r), are polynomials of degree s in i (2s with a complex
    b_r, below), so their exact values follow from that many exact additions
    each, by forward differences (Knuth, The Art of Computer Programming,
    vol. 2, sec. 4.6.4); _block_differences seeds them.  At each stop c the
    class's partial product is the running product up to its last whole
    block below c times the fewer than s factors left before c, multiplied
    one at a time onto a copy; the pass goes on from the block boundary.
    Then the classes' mantissas at c are multiplied exactly and rounded once
    to result_ctx.  So a stop's value depends on the other stops only
    through B, which the last stop sets: it is the value a call with stops
    [c, ..., stops[-1]] returns, and the value of a call with c alone
    whenever c - start and stops[-1] - start have the same bit length.

    Each class runs at its own exact scale S: its shifts, factors and block
    values are ints scaled by S, the least integer that makes every part of
    both shifts an int (_exact_scale).  That is the lcm of their
    denominators: 2^beta for mpf or mpc shifts, whose mantissas are odd, and
    10^4 for four-place decimals given as Fractions.  A factor's numerator
    and denominator are both scaled by S, a block's by S^d, d their degree,
    so every floor division, m * P // D for a block and its complex and
    single-factor forms, returns floor(m f) for the exact value f of its
    factors, whatever S: exact shifts carry no input rounding, and a dyadic
    Fraction gives the very ints of the equal mpf.  Where the lcm exceeds
    2^B, S = 2^B and each part x is truncated to floor(x 2^B).

    The block size follows the class, complex where an imaginary part is not
    0 at S.  A class with a complex a_r and a real b_r takes blocks of four,
    their differences unpacked: five for the real and five for the imaginary
    part of the numerator, and five for the real denominator.  A class with
    a complex b_r takes blocks of two, each factor multiplied through by the
    conjugate of its denominator, (n + a_r)(n + conj b_r) / |n + b_r|^2: a
    numerator of degree four over a real denominator of degree four, in the
    same loop of five differences.  A real class, at any scale S, takes
    blocks of s = _PACKED_BLOCK with all s + 1 differences of the numerator
    packed into one int, D_j = Delta^j P(i) in bits [jW, (j + 1)W), and
    those of the denominator into another.  A block is then
    m * (P & M) // (D & M), M = 2^W - 1, and the step to block i + 1 is
    P += P >> W, D += D >> W: field j of P >> W is D_{j+1}, and
    D_j + D_{j+1} is Delta^j P(i + 1).

    The packed step is exact while every field lies in [0, 2^W).  With the
    block's factors L_t(i) = c_t + h i, c_t = n_t S + a_r S > 0 (and so for
    b_r) and h = s k S, P(i) = prod_t L_t(i) has non-negative coefficients,
    and Delta maps such a polynomial to another (Delta i^d = sum_{l<d} C(d,
    l) i^l), so every D_j is non-negative and grows with i.  By the mean
    value theorem for differences, Delta^j P(i) = P^(j)(xi) for some xi in
    [i, i + j], and P^(j)(xi) = j! h^j sum_{|T|=j} prod_{t not in T}
    L_t(xi) <= s! / (s - j)! G^s <= s! G^s, with G at least h and every
    L_t(xi).  The pass forms Delta^j P(i) for i up to its last block plus
    one, whose factors lie below the last stop plus k, and xi <= i + s, so
    every L_t(xi) is below (stops[-1] + s (s + 1) k + max(|a_r|, |b_r|)) S;
    G = g S, g that bound's integer ceiling, bounds them and h, and G <
    2^(ceil(log2 S) + bitlen(g)).  So W = s (ceil(log2 S) + bitlen(g)) +
    bitlen(s!) keeps every field below 2^W.

    A step, block or factor, rounds in its floor division and in the shift
    that renormalises m; together they lose less than one unit of the new
    B-bit mantissa, 2^(1 - B) relative, when its value f has |f| >= 1, and
    less than 2^(1 - B) / |f| when it shrinks the product (a complex class:
    sqrt(2) times as much).  So at a stop c a class of N factors before c
    rounds at most h + floor((N - h) / s) + (s - 1) times, h its single
    steps over factors whose real part is not positive and s its block size:
    _PACKED_BLOCK = 8 for a real class, 4 for a complex a_r and 2 for a
    complex b_r.  The product of the classes rounds once more, to
    result_ctx.  A class at an exact scale rounds nowhere else.  A part
    truncated at 2^B moves n + x by less than 2^-B (sqrt(2) times as much
    when complex), 2^-B / |n + x| relative: below 2^(1 - B) for n >= 1 when
    |x| <= 1/2, and a part with |x| > 1/2 is truncated only if it has more
    than B bits after the point, which no mpf of ctx has.  B = working bits
    + 2 log2 N + 20 guard bits keeps all that far below one unit in the last
    working digit, unless a step's |f| falls below about 2^-20, which costs
    as many guard bits.  The n = 0 factor a_0 / b_0 is divided in the
    result's precision instead, because fixed point would truncate a tiny
    shift: exactly, and rounded once, when both shifts are ints or
    Fractions.  More than _WORK_BUDGET factors raise ValueError before the
    loop, and so does start < 0.

    The products are rounded to result_ctx, ctx by default.  Those guard
    bits back a wider result_ctx too: the rounding of N factors stays below
    2^-(log2 N + 20) units of ctx's last bit, so result_ctx may carry up to
    6 more digits than ctx.
    """
    if start < 0:
        raise ValueError(f"rational_product needs start >= 0, got {start}")
    out_ctx = result_ctx or ctx
    stop = stops[-1]
    _check_budget(stop - start)
    k = len(shifts)
    B = ctx.prec + 2 * (stop - start).bit_length() + 20
    pairs = [None if s is None else [x if isinstance(x, (int, Fraction)) else ctx.convert(x) for x in s]
             for s in shifts]
    head = 1
    if start == 0 < stop and pairs[0] is not None:
        a0, b0 = pairs[0]
        if isinstance(a0, (int, Fraction)) and isinstance(b0, (int, Fraction)):
            f = Fraction(a0) / b0
            head = out_ctx.fdiv(f.numerator, f.denominator)  # the exact quotient, rounded once
        else:
            head = out_ctx.convert(a0) / out_ctx.convert(b0)
    lo = max(start, 1)
    classes = []  # per class, its partial product (m, mi, e) at every stop
    for r, pair in enumerate(pairs):
        if pair is None:
            continue
        first = lo + (r - lo) % k
        fixed, S = _exact_scale(pair, B)
        classes.append(_class_products(fixed, S, first, k, stops, B))
    is_complex = any(isinstance(x, ctx.mpc) for pair in pairs if pair for x in pair)
    out = []
    for i, c in enumerate(stops):
        re, im, e = 1, 0, 0  # the product of the classes, (re + i im) * 2^e, exact
        for parts in classes:
            m, mi, f = parts[i]
            re, im, e = re * m - im * mi, re * mi + im * m, e + f
        value = out_ctx.mpf((re, e))
        if is_complex:
            value = out_ctx.mpc(value, out_ctx.mpf((im, e)))
        out.append(head * value if c > start else value)
    return out


def _single_steps(m, mi, e, n, fixed, S, k, count, B):
    """(m + i mi) 2^e times count factors (n S + a) / (n S + b), n stepping by k; returns m, mi, e.

    fixed is the shifts ((ar, ai), (br, bi)) scaled by S (rational_product).
    Each part of a step is the floor of its exact value: over |n S + b|^2
    when bi is not 0, else over n S + br alone.
    """
    (ar, ai), (br, bi) = fixed
    num, den, step = n * S + ar, n * S + br, k * S
    for _ in range(count):
        xr = m * num - mi * ai
        xi = m * ai + mi * num
        if bi:
            dd = den * den + bi * bi
            m, mi = (xr * den + xi * bi) // dd, (xi * den - xr * bi) // dd
        else:
            m, mi = xr // den, xi // den
        s = max(m.bit_length(), mi.bit_length()) - B
        if s > 0:
            m, mi, e = m >> s, mi >> s, e + s
        elif s:
            m, mi, e = m << -s, mi << -s, e + s
        num += step
        den += step
    return m, mi, e


def _class_products(fixed, S, first, k, stops, B):
    """One class's partial products (m, mi, e), (m + i mi) 2^e, at every stop (rational_product).

    fixed is its shifts ((ar, ai), (br, bi)) at its exact scale S, one
    scale over all four parts (_exact_scale); its factors are n = first,
    first + k, ....
    """
    (ar, ai), (br, bi) = a, b = fixed
    if bi:  # (n + a) (n + conj b) / |n + b|^2
        s, tops, bottoms = 2, (a, (br, -bi)), (b, (br, -bi))
    else:
        s, tops, bottoms = 4 if ai else _PACKED_BLOCK, (a,), (b,)
    m, mi, e = 1 << B, 0, -B
    n = first
    # the blocks start at body: the factors with n S + min(ar, br) <= 0 step one at a time first
    body = first + len(range(first, -min(ar, br) // S + 1, k)) * k
    seeded = False
    out = []
    for c in stops:
        if n < body:
            count = len(range(n, min(c, body), k))
            m, mi, e = _single_steps(m, mi, e, n, fixed, S, k, count, B)
            n += count * k
        blocks = len(range(n, c, k)) // s
        if blocks and (ai or bi):
            if not seeded:
                (p, p1, p2, p3, p4), (u, u1, u2, u3, u4) = _block_differences(n, k, tops, S, s)
                (d, d1, d2, d3, d4), _ = _block_differences(n, k, bottoms, S, s)
                seeded = True
            for _ in range(blocks):
                # (m + i mi) (p + i u) / d
                m, mi = (m * p - mi * u) // d, (m * u + mi * p) // d
                t = max(m.bit_length(), mi.bit_length()) - B
                if t > 0:
                    m, mi, e = m >> t, mi >> t, e + t
                elif t:
                    m, mi, e = m << -t, mi << -t, e + t
                p += p1
                p1 += p2
                p2 += p3
                p3 += p4
                u += u1
                u1 += u2
                u2 += u3
                u3 += u4
                d += d1
                d1 += d2
                d2 += d3
                d3 += d4
        elif blocks:
            if not seeded:
                g = stops[-1] + s * (s + 1) * k + max(abs(ar), abs(br)) // S + 1
                W = s * ((S - 1).bit_length() + g.bit_length()) + math.factorial(s).bit_length()
                M = (1 << W) - 1
                P, D = (sum(f << j * W for j, f in enumerate(_block_differences(n, k, xs, S, s)[0]))
                        for xs in (tops, bottoms))
                seeded = True
            for _ in range(blocks):
                m = m * (P & M) // (D & M)
                t = m.bit_length() - B
                if t:
                    m = m >> t if t > 0 else m << -t
                    e += t
                P += P >> W
                D += D >> W
        n += s * k * blocks
        out.append(_single_steps(m, mi, e, n, fixed, S, k, len(range(n, c, k)), B))
    return out


def rational_zeros(values, start, stop, ctx) -> list:
    """The n in [start, stop), ascending, where n + values[n mod k] is exactly 0.

    k = len(values), and a None entry never vanishes.  Only an integer value
    x (real, or complex with zero imaginary part) vanishes, at n = -x.
    """
    k = len(values)
    return sorted(
        n for r, x in enumerate(values) if x is not None and ctx.isint(x)
        for n in (-int(x.real),) if start <= n < stop and n % k == r
    )


# Direct factors below which (q; q)_inf stays a direct product; the same
# count sends any other (a; q)_inf to _qpoch_split.  Measured on the
# pure-Python mpmath backend (CPython 3.11, 2 cores, best of 7, the direct
# product's block tables warm), against a direct product of the whole
# tail-rule count: the eta route costs 0.033 ms at 40 working digits, 0.036
# ms at 60 and 0.051 ms at 110, and breaks even at about 2,100, 2,750 and
# 3,100 factors (0.037 ms for 2,335 at 40 digits, 0.037 ms for 2,751 at 60,
# 0.050 ms for 3,067 at 110).  The split of (q^(1/2); q)_inf breaks even at
# about 3,700, 7,000 and 14,000 factors (0.051 ms against 0.053 ms for
# 3,784 at 40, 0.076 ms for both at 7,032 at 60, 0.143 ms against 0.135 ms
# for 12,731 and 0.157 ms against 0.168 ms for 17,037 at 110).  The
# crossover sits lower, because products shorter than it keep the bits the
# default suite was pinned with: at 400, the THM3_FULL n = 2 and n = 3
# entries at q = 0.6 agree to 59 digits instead of 60, and at 1,000 no suite
# entry agrees to fewer digits than before; what a higher crossover does to
# those bits was not measured.  A higher one would also hand more Gamma_q
# denominators the same direct kernel calls the left sides make.
_EULER_CROSSOVER = 1000


def _route(a, q, ctx):
    """The route of (a; q)_inf in ctx, "direct", "eta" or "split", and N = geometric_terms(|a|, q, ctx).

    "direct" below _EULER_CROSSOVER factors; from there on "eta" for a real
    a == q ("direct" where L = -log q > 2 pi: the transformed product would
    be the longer one) and "split" for any other a.  qpoch_inf_ctx hands a
    real a == q to euler_function before it asks, so it only ever gets
    "direct" or "split"; the eta arm answers euler_function, psi_product
    and Gamma_q's pole guard.
    """
    count = geometric_terms(abs(a), q, ctx)
    if count < _EULER_CROSSOVER:
        return "direct", count
    if a == q and not isinstance(a, ctx.mpc):
        return ("direct" if -_float_log(q) > 2 * math.pi else "eta"), count
    return "split", count


def euler_function(q, ctx, n=1, d=1):
    """The Euler function (y; y)_inf at y = q^(d/n), for real 0 < q < 1 and n, d >= 1.

    Where _route(y, y, ctx) says "direct", the product is multiplied
    directly: geometric_product at y, with y rounded to working precision
    (q itself when d = n, ctx.root(q, n) when d = 1, else exp(d log(q) / n)
    in ctx).  On its eta route the Dedekind eta transformation gives

        (y; y)_inf = sqrt(2 pi / L) exp(L/24 - pi^2 / (6 L)) (y'; y')_inf,

    y' = exp(-4 pi^2 / L).  L comes from log q itself, so y is never rounded.
    The closed part runs with g more digits, g = log10(pi^2 / (6 L)) plus a
    margin, because exp(-pi^2 / (6 L)) turns the relative error of its large
    argument into the same absolute error; they are a bit precision on
    mpmath.libmp, and the closed part and y' are each rounded once to ctx.
    The short product (y'; y')_inf goes through geometric_product in ctx.

    q is first converted into ctx, so every step outside the closed part
    rounds there.  The value is remembered in the module's memo.
    """
    q = ctx.convert(q)
    key = ("euler", q._mpf_, ctx.prec, ctx.dps, n, d)
    return _remembered(key, ctx, _euler_function, q, ctx, n, d)


def _euler_function(q, ctx, n, d):
    y = q if d == n else ctx.root(q, n) if d == 1 else ctx.exp(log_ctx(q, ctx) * d / n)
    route, count = _route(y, y, ctx)
    if route == "direct":
        return geometric_product(y, y, ctx, n=count)
    lq = -_float_log(y)
    prec = dps_to_prec(ctx.dps + max(0, math.ceil(math.log10(math.pi**2 / (6 * lq)))) + 5)
    rnd = round_nearest
    log_q = _log(mpf_pos(q._mpf_, prec, rnd), prec)
    L = mpf_div(mpf_mul_int(log_q, -d, prec, rnd), from_int(n), prec, rnd)  # -d log(q) / n
    pi = mpf_pi(prec, rnd)
    pi2 = mpf_pow_int(pi, 2, prec, rnd)
    root = mpf_sqrt(mpf_div(mpf_mul_int(pi, 2, prec, rnd), L, prec, rnd), prec, rnd)  # sqrt(2 pi / L)
    # L/24 - pi^2 / (6 L)
    power = mpf_sub(mpf_div(L, from_int(24), prec, rnd), mpf_div(pi2, mpf_mul_int(L, 6, prec, rnd), prec, rnd),
                    prec, rnd)
    closed = mpf_mul(root, mpf_exp(power, prec, rnd), prec, rnd)
    t = ctx.mpf(mpf_exp(mpf_div(mpf_mul_int(pi2, -4, prec, rnd), L, prec, rnd), prec, rnd))  # y'
    return ctx.mpf(closed) * geometric_product(t, t, ctx, n=geometric_terms(t, t, ctx))


def psi_product(r, q, ctx, n=1):
    """prod_{j>=1} Phi_r(y^j)^mu(r) at y = q^(1/n), for squarefree r >= 2.

    This is the cyclotomic product of the THM3_COPRIME and COR6 closed
    forms.  Where (y; y)_inf is direct, _route(y, y, ctx), it is the direct
    product of the first N factors Phi_r(y^j) (Horner's rule in
    geometric_product, y = ctx.root(q, n) rounded to working precision), N
    the tail-rule count of (y; y)_inf.  That count is enough:
    log Phi_r(t) = sum_{d|r} mu(r/d) log(1 - t^d), so the factors past N
    move the product by y^(N+1) / (1 - y) to first order, the tail bound of
    (y; y)_inf, below 10^-dps.  Otherwise, since
    Phi_r(x)^mu(r) = prod_{d|r} (1 - x^d)^mu(d) for squarefree r, it is

        prod_{d|r} (y^d; y^d)_inf^mu(d),

    each factor from euler_function(q, ctx, n, d): no factor is dropped from
    the tail, and where a factor takes the eta route no y^d is rounded.
    """
    y = q if n == 1 else ctx.root(q, n)
    route, count = _route(y, y, ctx)
    if route == "direct":
        p = geometric_product(y, y, ctx, n=count, poly=cyclotomic(r))
        return p if mobius(r) == 1 else 1 / p
    p = ctx.mpf(1)
    for d in divisors(r):
        e = euler_function(q, ctx, n, d)
        p = p * e if mobius(d) == 1 else p / e
    return p


def split_context(q, ctx):
    """The context of _split_digits(q, ctx) digits: ctx's digits plus log10(1/L) + 5, L = -log q.

    The split magnifies a rounding of its inputs about log(1/L) / L times,
    and takes those digits as bits on mpmath.libmp; every side of an
    identity that takes q runs in this context (products._side).
    """
    return _context_at(_split_digits(q, ctx))


def _split_digits(q, ctx) -> int:
    """The working digits of the split at q: ctx's digits plus log10(1/L) + 5, L = -log q."""
    return ctx.dps + max(0, math.ceil(-math.log10(-_float_log(q)))) + 5


def _split_sizes(a, q, ctx):
    """_qpoch_split's K head factors and J series terms for (a; q)_inf in ctx."""
    L = -_float_log(q)
    c = math.sqrt(ctx.dps * _LN10 * L)
    log_a = _flog(abs(a))
    K = max(0, math.ceil((log_a + c) / L))
    lam = K * L - log_a  # -log |w|, at least c
    # the least J with (J + 1) lam + log(J + 1) >= T, taking log(J + 1) at
    # the lower bound (T - log(T / lam)) / lam of J + 1
    T = _split_digits(q, ctx) * _LN10 - math.log(-math.expm1(-L)) - math.log(-math.expm1(-lam))
    low = max(1.0, (T - math.log(T / lam)) / lam)
    return K, max(1, math.ceil((T - math.log(low)) / lam) - 1)


def _qpoch_split(a, q, ctx, x=None):
    """(a; q)_inf as K direct factors times exp(-S), the log series of the rest.

    K is the least k with |a| q^k <= e^-c, c = sqrt(dps ln 10 L), L = -log q.
    The head prod_{k<K} (1 - a q^k) is geometric_product's loop, without a
    pole check and outside the memo; no later factor can vanish, since
    |a q^k| <= e^-c < 1.  With
    w = a q^K the tail is exact: log (w; q)_inf = -S,

        S = sum_{j>=1} w^j / (j (1 - q^j)),

    and S is summed to the least J whose bound |w|^(J+1) / ((J+1) (1 - q)
    (1 - |w|)) on the terms left out is below 10^-(dps+g).  K and J are each
    about sqrt(dps ln 10 / L) (_split_sizes), and 3 (K + J) is charged to
    the work budget.

    Both parts magnify a relative error in a: the head's factors 1 - a q^k
    by up to sum_k |a q^k| / |1 - a q^k|, about log(1/L) / L for a = q^x,
    and S, which is about 1/L in size, since exp(-S) turns its absolute
    error into the same relative error.  So the head, w = a exp(K log q) and
    exp(-S) run with g = log10(1/L) + 5 more digits, from the exact bits of
    q and of a, or, given x, of a = exp(x log q) computed there: a rounded
    to working precision would cost up to log10(log(1/L) / L) digits.  Those
    digits are prec = dps_to_prec(dps + g) bits on mpmath.libmp, the
    functions and the order mpmath's operators would take in a context of
    dps + g digits, and the result is rounded once to ctx.  S
    itself runs on ints scaled by 2^B, a complex value a pair of them: a
    term's 1 - q^j is off by at most min(j, 1/(1-q)) units, about 1/L units
    relative to its size, so B adds log2(1/L) + 2 log2 J + 20 bits to those
    digits.
    """
    K, J = _split_sizes(a, q, ctx)
    _check_budget(3 * (K + J))
    L = -_float_log(q)
    prec, rnd = dps_to_prec(_split_digits(q, ctx)), round_nearest
    hq = mpf_pos(q._mpf_, prec, rnd)
    log_q = _log(hq, prec)
    is_complex = isinstance(a, ctx.mpc)
    if x is None:
        a = a._mpc_ if is_complex else a._mpf_
    elif is_complex:
        a = mpc_exp(mpc_mul_mpf(x._mpc_, log_q, prec, rnd), prec, rnd)
    else:
        a = mpf_exp(mpf_mul(x._mpf_, log_q, prec, rnd), prec, rnd)
    m, mi, e = _geometric_product(a, hq, prec, K, None, None)
    qK = mpf_exp(mpf_mul_int(log_q, K, prec, rnd), prec, rnd)  # q^K; w = a q^K
    B = prec + max(0, math.ceil(-math.log2(L))) + 2 * J.bit_length() + 20
    one = 1 << B
    qf = qj = to_fixed(hq, B)
    if is_complex:
        head = from_man_exp(m, e, prec, rnd), from_man_exp(mi, e, prec, rnd)
        wr, wi = (to_fixed(part, B) for part in mpc_mul_mpf(a, qK, prec, rnd))
        pr, pi, sr, si = wr, wi, 0, 0  # w^j and S
        for j in range(1, J + 1):
            d = j * (one - qj)
            sr += (pr << B) // d
            si += (pi << B) // d
            pr, pi = (pr * wr - pi * wi) >> B, (pr * wi + pi * wr) >> B
            qj = qj * qf >> B
        minus_s = from_man_exp(-sr, -B, prec, rnd), from_man_exp(-si, -B, prec, rnd)
        return ctx.make_mpc(mpc_pos(mpc_mul(head, mpc_exp(minus_s, prec, rnd), prec, rnd), ctx.prec, rnd))
    head = from_man_exp(m, e, prec, rnd)
    p = wr = to_fixed(mpf_mul(a, qK, prec, rnd), B)
    s = 0
    for j in range(1, J + 1):
        s += (p << B) // (j * (one - qj))
        p = p * wr >> B
        qj = qj * qf >> B
    return ctx.mpf(mpf_mul(head, mpf_exp(from_man_exp(-s, -B, prec, rnd), prec, rnd), prec, rnd))


def qpoch_inf_ctx(a, q, ctx, x=None):
    """(a; q)_inf inside an existing context.

    A real a equal to q is the Euler function, euler_function(q, ctx), on
    whichever route that takes.  Any other a takes the route _route picks:
    the direct route multiplies the smallest N factors with |a| q^N / (1-q)
    below the working epsilon 10^-(dps), and the split is _qpoch_split.
    Neither checks for a vanishing factor: Gamma_q, whose denominator this
    is, decides from x's distance to its nearest pole before it calls
    (qgamma_ctx).  Given x, a is q^x = exp(x log q) rounded to working
    precision, and the split recomputes it from x with its extra digits.
    """
    if isinstance(q, ctx.mpc):
        if q.imag != 0:
            raise ValueError("base q must be real with 0 < q < 1")
        q = q.real
    if not 0 < q < 1:
        raise ValueError(f"base q must lie in (0, 1), got {q}")
    a = ctx.convert(a)
    if a == q and not isinstance(a, ctx.mpc):
        return euler_function(q, ctx)
    route, count = _route(a, q, ctx)
    if route == "direct":
        return geometric_product(a, q, ctx, n=count)
    return _qpoch_split(a, q, ctx, x)


def qpochhammer(a, q, n=INFINITY, prec: Precision = DEFAULT_PRECISION):
    """(a; q)_n = prod_{k=0}^{n-1} (1 - a q^k); n may be INFINITY.

    The infinite product is qpoch_inf_ctx: on the direct route it truncates
    once the geometric tail bound drops below one unit in the last working
    digit; the eta route and the head-and-log-series split keep the whole
    tail.  Results are deterministic for fixed inputs and Precision.
    """
    ctx = context(prec)
    qv = from_exact(as_q(q, ctx), ctx)
    av = to_hp(a, ctx)
    if n == INFINITY or n == mpmath.inf:
        return qpoch_inf_ctx(av, qv, ctx)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a non-negative integer or INFINITY, got {n!r}")
    return geometric_product(av, qv, ctx, n=n)


# ---------------------------------------------------------------------------
# q-gamma


# Digits past the cancellation that a Gamma_q near one of its poles is recomputed with
_POLE_MARGIN = 5


def qgamma_ctx(x, q, ctx, guard):
    """Gamma_q(x) = (1-q)^(1-x) (q;q)_inf / (q^x;q)_inf inside an existing context.

    The numerator is euler_function and the denominator qpoch_inf_ctx, so
    near q = 1 the numerator takes the eta route and the denominator the
    head-and-log-series split, and the cost grows as 1/sqrt(1 - q), not
    1/(1 - q).  The split takes q^x from x and log q with its extra digits,
    not from q^x rounded to working precision, which it would magnify.  At
    x = 1 the denominator is the numerator's memo entry, so Gamma_q(1) is
    exactly 1.

    Gamma_q has a pole at every x = -n + 2 pi i k / L, n >= 0 and k
    integers, L = -log q (Gasper and Rahman, Basic Hypergeometric Series,
    sec. 1.10), and one rule guards them all before any value is computed.
    At the nearest, n = max(0, nint(-Re x)) and k = round(Im(x) L / 2 pi),
    the factor 1 - q^(x+n) is about |x + n - 2 pi i k / L| L, and forming it
    cancels log10 of its inverse in digits of q^x; every other factor has
    |Re(x + m)| >= 1/2.  |Re x + n| L, a lower bound on that size, decides
    away from the poles in one float comparison.  Off the direct route
    (_route of q^x), as many fewer digits are lost as the
    _split_digits(q, ctx) digits carry past ctx: the split takes q^x with
    them, and the eta route, at x = 1, takes L from log q.  Up to `guard`
    lost digits, the caller's guard, the value is computed in ctx; up to the
    working digits, once, in a context with that many more digits plus
    _POLE_MARGIN, from the same bits of x and q; past them, or at the pole
    itself, SingularArgumentError names the pole.

    x and q are first converted into ctx, so every step rounds there.  The
    value is remembered in the module's memo.
    """
    x, q = ctx.convert(x), ctx.convert(q)
    key = ("qgamma", x._mpc_ if isinstance(x, ctx.mpc) else x._mpf_, q._mpf_, ctx.prec, ctx.dps,
           guard)
    return _remembered(key, ctx, _qgamma_guarded, x, q, ctx, guard)


def _qgamma_guarded(x, q, ctx, guard):
    xr, L = float(x.real), -_float_log(q)
    # |Re x + n| less the float rounding of Re x is a lower bound on the distance to every pole
    if abs(xr) < 2.0**50 and (abs(xr + max(0, round(-xr))) - abs(xr) * 2.0**-50) * L >= 10.0**-guard:
        return _qgamma(x, q, ctx)
    log_q = log_ctx(q, ctx)
    n = max(0, int(ctx.nint(-x.real)))
    k = int(ctx.nint(ctx.im(x) * log_q / (-2 * ctx.pi)))  # the pole is -n + 2 pi i k / L
    gap = abs(x + n - 2j * ctx.pi * k / -log_q)
    size = float(gap) * L
    if size >= 10.0**-guard:
        return _qgamma(x, q, ctx)
    lost = math.ceil(-math.log10(size)) if size else math.inf
    if _route(ctx.exp(x * log_q), q, ctx)[0] != "direct":  # the work budget may refuse here
        lost -= _split_digits(q, ctx) - ctx.dps
    if lost <= guard:
        return _qgamma(x, q, ctx)
    pole = f"{-n}" + (f" {'-' if k < 0 else '+'} {2 * abs(k)}*pi*i/log(1/q)" if k else "")
    if not gap:
        raise SingularArgumentError(f"Gamma_q(x) at its pole x = {pole}")
    if lost > ctx.dps:
        raise SingularArgumentError(
            f"Gamma_q(x) at {ctx.nstr(gap, 3)} from its pole at x = {pole}: the factor "
            f"1 - q^(x + {n}) would cancel {lost} digits, more than the {ctx.dps} working digits")
    hi = _context_at(ctx.dps + lost + _POLE_MARGIN)
    return +ctx.convert(_qgamma(hi.convert(x), hi.convert(q), hi))  # + rounds to ctx


def _qgamma(x, q, ctx):
    """Gamma_q(x) in ctx."""
    qx = q if x == 1 else ctx.exp(x * log_ctx(q, ctx))
    return ctx.exp((1 - x) * log_ctx(1 - q, ctx)) * euler_function(q, ctx) / qpoch_inf_ctx(qx, q, ctx, x=x)


def qgamma(x, q, prec: Precision = DEFAULT_PRECISION):
    """The q-gamma function for 0 < q < 1 and complex x.

    q**x is exp(x log q) with the principal (real) logarithm.  Near a pole
    -n + 2 pi i k / log(1/q), where forming the factor 1 - q^(x+n) cancels
    more than prec.guard digits, the value is computed with more digits;
    past the working digits, or at the pole, SingularArgumentError names it
    (qgamma_ctx).
    """
    ctx = context(prec)
    qv = from_exact(as_q(q, ctx), ctx)
    xv = to_hp(x, ctx)
    return qgamma_ctx(xv, qv, ctx, prec.guard)


# ---------------------------------------------------------------------------
# Classical gamma


def gamma_ctx(x, ctx):
    """Gamma(x) inside an existing context; raises at non-positive integers."""
    if isinstance(x, ctx.mpc) and x.imag == 0:
        x = x.real
    if not isinstance(x, ctx.mpc) and x <= 0 and ctx.isint(x):
        raise SingularArgumentError(f"gamma pole at non-positive integer {ctx.nstr(x, 8)}")
    return ctx.gamma(x)


def gamma_classical(x, prec: Precision = DEFAULT_PRECISION):
    """Gamma(x) to the target digits, for complex x away from the non-positive integers.

    The value is mpmath's gamma in the working context; qprod's own rule
    comes first: a real non-positive integer raises SingularArgumentError.
    """
    ctx = context(prec)
    return gamma_ctx(to_hp(x, ctx), ctx)

