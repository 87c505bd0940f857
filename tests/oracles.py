"""Independent reference values, alternate-route computations and a test double.

The digit strings were produced by library routines (mpmath's qp and gamma),
frozen here so the test suite never recomputes its own expectations through
the code under test.  mpmath's qp shares no code with the package.  Its
classical gamma does: the package takes Gamma from mpmath's gamma behind its
own pole rule, so the GAMMA_* strings pin that call (working precision,
real and complex arguments) rather than check Gamma independently.  The
independent checks of Gamma are the AGM route to Gamma(1/4) below, the exact
values Gamma(-1/2), Gamma(9/2) and Gamma(6), and |Gamma(1/2 + it)|^2 and
|Gamma(1 + it)|^2 against elementary functions (tests/test_qfunc.py).
"""

import math

import mpmath

from qprod.numtheory import IntPolynomial, divisors, mobius, totient
from qprod.products import EvalInfo, _omega
from qprod.qfunc import SingularArgumentError, to_hp

# (1/2; 1/2)_inf, (1/4; 1/2)_inf, (9/10; 9/10)_inf via mpmath.qp, dps 70
QP_HALF_HALF = "0.28878809508660242127889972192923078008891190484068578411474107"
QP_QUARTER_HALF = "0.57757619017320484255779944385846156017782380968137156822948213"
QP_NINE_NINE = "0.0000012860674342766176274595939139832816669849984004816235599121135"

# classical gamma via mpmath.gamma, dps 70
GAMMA_QUARTER = "3.625609908221908311930685155867672002995167682880065467433378"
GAMMA_THIRD = "2.6789385347077476336556929409746776441286893779573011009504283"
GAMMA_2P5_M1P5I_RE = "0.309936225840741353308639602360741748911993990525996037172079"
GAMMA_2P5_M1P5I_IM = "-0.734084273621481339419123871283869975084882563472326269360681"

PI_SQRT2_OVER_4 = "1.1107207345395915617539702475151734246536554223439225557713489"


def agm_gamma_quarter(ctx):
    """Gamma(1/4) from the lemniscate constant: sqrt(2 * pi/agm(1, sqrt 2) * sqrt(2 pi)).

    Touches only ctx.agm/sqrt/pi, none of the package's gamma machinery.
    """
    varpi = ctx.pi / ctx.agm(1, ctx.sqrt(2))
    return ctx.sqrt(2 * varpi * ctx.sqrt(2 * ctx.pi))


def cyclotomic_by_mobius(n: int) -> IntPolynomial:
    """Phi_n as the Moebius quotient prod_{d | n} (x^(n/d) - 1)^mu(d).

    Alternate route to the recursive-division construction in the package.
    """
    num = IntPolynomial.one()
    den = IntPolynomial.one()
    for d in divisors(n):
        mu = mobius(d)
        if mu == 1:
            num = num * IntPolynomial.x_power_minus_one(n // d)
        elif mu == -1:
            den = den * IntPolynomial.x_power_minus_one(n // d)
    return num.exact_div(den)


def rel_diff(a, b) -> float:
    """Relative difference |a-b|/max(|a|,|b|) as a plain float."""
    hi = max(abs(a), abs(b))
    if hi == 0:
        return 0.0
    return float(abs(a - b) / hi)


def parse_hp(digits_string: str, dps: int = 70):
    """Parse a frozen digit string at full stated precision."""
    with mpmath.workdps(dps):
        return mpmath.mpf(digits_string)


# ---------------------------------------------------------------------------
# Differential oracle for the fixed-point product kernel: the mpf loops the
# package evaluated its geometric q-products with before the kernel existed,
# kept verbatim apart from the factor counts they now also return.


def qpoch_inf_mpf(a, q, ctx, pole_eps=None):
    """(a; q)_inf factor by factor on mpf values; returns (value, factors)."""
    if isinstance(q, ctx.mpc):
        if q.imag != 0:
            raise ValueError("base q must be real with 0 < q < 1")
        q = q.real
    if not 0 < q < 1:
        raise ValueError(f"base q must lie in (0, 1), got {q}")
    eps = ctx.mpf(10) ** (-ctx.dps)
    one_minus_q = 1 - q
    p = ctx.mpf(1)
    t = a
    factors = 0
    while not abs(t) / one_minus_q < eps:
        f = 1 - t
        if pole_eps is not None and abs(f) < pole_eps:
            raise SingularArgumentError(
                f"vanishing factor 1 - a*q^k (|factor| < {pole_eps})"
            )
        p *= f
        t *= q
        factors += 1
    return p, factors


def qpoch_mpf(a, q, n, ctx):
    """(a; q)_n = prod_{k<n} (1 - a q^k) factor by factor on mpf values."""
    p = ctx.mpf(1)
    t = a
    for _ in range(n):
        p *= 1 - t
        t *= q
    return p


def char_shift_lhs_mpf(chi, z, q, ctx, min_terms=0):
    """prod_{n>=2} (1 - q^(n - chi(n) z)) / (1 - q^n) on mpf values."""
    k = chi.modulus
    lq = ctx.log(q)
    eps = ctx.mpf(10) ** (-ctx.dps)
    shifts: list = [None] * k
    dev = ctx.mpf(0)
    for j in range(k):
        ro = chi.value(j)
        if ro is None:
            continue
        d = ctx.exp(-(_omega(ro, ctx) * z) * lq)
        shifts[j] = d
        dev = max(dev, abs(d - 1))
    p = ctx.mpf(1)
    t = q * q
    n = 2
    terms = 0
    while not (dev * t / (1 - q) < eps and terms >= min_terms):
        d = shifts[n % k]
        if d is not None:
            num = 1 - t * d
            if abs(num) < eps:
                raise SingularArgumentError(f"vanishing factor 1 - q^(n - chi(n) z) at n = {n}")
            p *= num / (1 - t)
        t *= q
        n += 1
        terms += 1
    return p, EvalInfo(terms=terms)


def thm1_lhs_mpf(spec, ctx, min_terms=0):
    """The THM1 left side prod_n prod_j (1 - q^(n+alpha_j)) / (1 - q^(n+beta_j)) on mpf values."""
    q = to_hp(spec.q, ctx)
    lq = ctx.log(q)
    ta = [ctx.exp(to_hp(a, ctx) * lq) for a in spec.alphas]
    tb = [ctx.exp(to_hp(b, ctx) * lq) for b in spec.betas]
    eps = ctx.mpf(10) ** (-ctx.dps)
    p = ctx.mpf(1)
    terms = 0
    while True:
        s = sum((abs(t) for t in ta), ctx.mpf(0)) + sum((abs(t) for t in tb), ctx.mpf(0))
        if s / (1 - q) < eps and terms >= min_terms:
            break
        for j in range(len(ta)):
            den = 1 - tb[j]
            if abs(den) < eps:
                raise SingularArgumentError(f"vanishing factor 1 - q^(n + beta_{j})")
            p *= (1 - ta[j]) / den
            ta[j] *= q
            tb[j] *= q
        terms += 1
    return p, EvalInfo(terms=terms)


# The mpf loops of the slowly convergent classical products, from before the
# rational product kernel, kept verbatim.


def prototype_lhs_mpf(spec, ctx, min_terms=0):
    """The PROTOTYPE left side prod_j (1 +- 1/(2j+1)) on mpf values."""
    n_terms = spec.terms or 10**6
    n_terms = max(n_terms, min_terms)
    one = ctx.mpf(1)
    p = ctx.mpf(1)
    for j in range(1, n_terms + 1):
        inv = one / (2 * j + 1)
        p *= (1 + inv) if (j & 1) else (1 - inv)
    est = ctx.mpf(1) / (2 * n_terms + 3) + ctx.mpf(1) / (8 * n_terms) + ctx.mpf(1) / (4 * n_terms**2)
    return p, EvalInfo(terms=n_terms, rel_error_estimate=mpmath.nstr(est, 8))


def cor2_lhs_mpf(spec, ctx, min_terms=0):
    """The COR2 left side prod_n prod_i (n + alpha_i) / (n + beta_i) on mpf values."""
    n_terms = spec.terms or 10**5
    n_terms = max(n_terms, min_terms)
    al = [to_hp(a, ctx) for a in spec.alphas]
    be = [to_hp(b, ctx) for b in spec.betas]
    # convergence requires the sums to agree exactly
    mismatch = abs(sum(al) - sum(be))
    scale = max(max(abs(v) for v in al + be), ctx.mpf(1))
    if mismatch > scale * ctx.mpf(10) ** (-(ctx.dps - 8)):
        raise ValueError("sum(alphas) != sum(betas): the product does not converge")
    if scale > n_terms / 4:
        raise ValueError("terms too small for entries of this magnitude")
    p = ctx.mpf(1)
    for m in range(n_terms):
        for a, b in zip(al, be):
            den = m + b
            if den == 0:
                raise SingularArgumentError(f"factor n + beta vanishes at n = {m}")
            p *= (m + a) / den
    quad = abs(sum(a * a for a in al) - sum(b * b for b in be)) / 2 / (n_terms - 1)
    cubic = (
        (sum(abs(a) ** 3 for a in al) + sum(abs(b) ** 3 for b in be))
        * 2 / (3 * ctx.mpf(n_terms - 1) ** 2)
    )
    return p, EvalInfo(terms=n_terms, rel_error_estimate=mpmath.nstr(quad + cubic, 8))


def thm4_lhs_mpf(spec, ctx, min_terms=0):
    """The THM4 left side prod_n (1 - chi(n) z / n) on mpf values."""
    blocks = spec.blocks or 10**6
    chi = spec.chi
    k = chi.modulus
    z = to_hp(spec.z, ctx)
    if 4 * abs(z) > blocks * k:
        raise ValueError("blocks too small for |z|; tail estimate invalid")
    values = [chi.value(j) for j in range(k)]
    real_case = not isinstance(z, ctx.mpc) and all(v is None or v.order <= 2 for v in values)
    stop = blocks * k + 2  # n runs over 2 .. blocks*k + 1: exactly `blocks` full periods
    p = ctx.mpf(1)
    if real_case:
        ints = [0 if v is None else v.as_int() for v in values]
        for n in range(2, stop):
            c = ints[n % k]
            if c:
                f = 1 - z / n if c == 1 else 1 + z / n
                if f == 0:
                    raise SingularArgumentError(f"factor 1 - chi(n) z / n vanishes at n = {n}")
                p *= f
    else:
        cvals = [None if v is None else _omega(v, ctx) for v in values]
        for n in range(2, stop):
            c = cvals[n % k]
            if c is not None:
                f = 1 - c * z / n
                if f == 0:
                    raise SingularArgumentError(f"factor 1 - chi(n) z / n vanishes at n = {n}")
                p *= f
    # tail estimate: blocks m >= M contribute ~ C/m^2 each; sum_{m>=M} < C/(M-1)
    phi = totient(k)
    weighted = sum(
        (r * chi.value(r).to_complex(ctx) for r in range(2, k + 2) if chi.value(r) is not None),
        ctx.mpc(0),
    )
    az = abs(z)
    c_est = (az * abs(weighted) + az**2 * phi / 2 + az**3 * phi * 2 / 3) / k**2
    est = c_est / (blocks - 1)
    return p, EvalInfo(terms=blocks * k, rel_error_estimate=mpmath.nstr(est, 8))


# The limit of the COR2 product without Gamma: a direct head and the
# Hurwitz zeta series of its tail.  It is the Taylor series of log Gamma, the
# right side's closed form, so it stays here and out of the package.


def cor2_tail_log(alphas, betas, start, ctx):
    """log prod_{n>=start} prod_i (n + alpha_i) / (n + beta_i) for sum(alphas) = sum(betas).

    log(1 + x/n) = sum_{m>=1} (-1)^(m+1) x^m / (m n^m) for |x| < n, summed
    over n >= start:

        sum_{m>=2} (-1)^(m+1) sum_i (alpha_i^m - beta_i^m) zeta(m, start) / m,

    the m = 1 term cancelling because the sums agree.  Needs every |entry|
    below start / 2; the series is summed until its terms fall below
    10^-dps.  mpmath's zeta(m, start) is accurate to about 10^-dps absolute,
    not relative, so each is taken with m log10(start) + 10 more digits, in
    a context of its own.
    """
    r = max(abs(v) for v in (*alphas, *betas))
    assert r < start / 2, "the tail series needs |entries| well below start"
    log_eps = -ctx.dps * math.log(10)
    log_ratio = math.log(2 * float(r) / start) if r else -math.inf
    wide = mpmath.mp.clone()
    total = ctx.mpf(0)
    m = 2
    while True:
        wide.dps = ctx.dps + math.ceil(m * math.log10(start)) + 10
        power = sum(a**m for a in alphas) - sum(b**m for b in betas)
        term = (-1) ** (m + 1) * power * ctx.convert(wide.zeta(m, start)) / m
        total += term
        # the terms left are below (2 r)^m zeta(m, start) (r / start)^j summed
        # over j, and zeta(m, start) <= start^-m (1 + start / (m - 1)), the
        # integral bound, which exceeds it by about start^-m / 2, far more
        # than float rounding: so stop once that bound, in logs, is below
        # 10^-dps
        if m * log_ratio + math.log1p(start / (m - 1)) < log_eps:
            return total
        m += 1


def cor2_limit(alphas, betas, ctx, head=256):
    """prod_{n>=0} prod_i (n + alpha_i) / (n + beta_i): `head` factors directly, then the tail series."""
    al = [to_hp(a, ctx) for a in alphas]
    be = [to_hp(b, ctx) for b in betas]
    value = ctx.fprod((n + a) / (n + b) for n in range(head) for a, b in zip(al, be))
    return value * ctx.exp(cor2_tail_log(al, be, head, ctx))


# A test double of a character that perturbs one value: the controls that must fail

class NudgedRoot:
    """Duck-typed root of unity whose complex value is off by a fixed delta."""

    is_real = False  # forces the complex-value path

    def __init__(self, base, delta):
        self._base = base
        self._delta = delta

    def to_complex(self, ctx):
        return ctx.mpf(self._base) + ctx.mpf(self._delta)


class NudgedCharacter:
    """Wraps a real character, perturbing its value at one residue."""

    def __init__(self, chi, residue, delta):
        self._chi = chi
        self._residue = residue
        self._delta = delta
        self.modulus = chi.modulus

    def value(self, n):
        v = self._chi.value(n)
        if v is None or n % self.modulus != self._residue:
            return v
        return NudgedRoot(v.as_int(), self._delta)
