"""Two-sided evaluators for every verified product identity.

Each identity id names a left side (an infinite or blocked product evaluated
by direct truncation) and a right side (a closed form assembled from qgamma,
gamma_classical, cyclotomic polynomials, and character data).  The two sides
never share a code path beyond the primitive operations, so agreement is
evidence, not tautology.

One `Identity` record per id, in `IDENTITIES`, holds everything that defines
it: the parameters it takes, both evaluators, its default term or block
count, its tolerance, and its entries in the default suite.  The paper's
special values are instances: the records EX1A-EX2B and JACKSON1-4 take no
parameter, and their left side is THM5's or THM3_COPRIME's own, run on fixed
parameters (_instance), against a closed form in pi, e^-pi and Gamma(1/4).

Truncation policy: geometric-tail products stop once the remaining factors
are provably below one unit in the last working digit.  The polynomially
convergent products (PROTOTYPE, COR2, THM4), whose error falls only as
1/N, stop at a configured term or block count N, but their left side is
not the raw product at N.  One pass over their N factors, per residue
class, records the partial products at checkpoints c_0 ~ N, c_j ~ N / 1.5^j, each ending a
whole period of the factors, and Neville's scheme extrapolates those
partial products, not their logarithms, to 1/count = 0 (Richardson
extrapolation: L. F. Richardson and J. A. Gaunt, Phil. Trans. R. Soc. A 226
(1927); A. Sidi, Practical Extrapolation Methods, CUP 2003, ch. 1-2).  Only
the left side's own partial products enter, never Gamma or the right side.
EvalInfo records the level taken and a relative error estimate from the
gaps between neighbouring levels (_extrapolate), at least 10^-dps and at
most the proven bound on the raw product at N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable, NamedTuple

import mpmath

from .characters import DirichletCharacter, enumerate_characters
from .numtheory import factorize, radical, totient
from .qfunc import (
    DEFAULT_PRECISION,
    Precision,
    SingularArgumentError,
    _context_at,
    _fixed_parts,
    _remembered,
    as_q,
    context,
    euler_function,
    from_exact,
    gamma_ctx,
    geometric_product,
    geometric_terms,
    log_ctx,
    parse_number,
    psi_product,
    qgamma_ctx,
    rational_product,
    rational_zeros,
    split_context,
    working_eps,
)

__all__ = [
    "EvalInfo",
    "IDENTITIES",
    "IDENTITY_IDS",
    "Identity",
    "IdentitySpec",
    "eval_lhs",
    "eval_lhs_info",
    "eval_rhs",
    "eval_rhs_info",
    "identity_id",
]


@dataclass(frozen=True)
class EvalInfo:
    """How a product was truncated: factors consumed and the error estimate.

    rel_error_estimate is None for geometric-tail products (tail below one
    unit in the last working digit).  For the polynomially convergent ones
    (PROTOTYPE, COR2, THM4) it is a decimal string: the relative error
    estimate of the extrapolated value, and level is the extrapolation level
    taken (0 for the raw product at N).
    """

    terms: int = 0
    rel_error_estimate: str | None = None
    level: int | None = None


class ExactInputs(NamedTuple):
    """A spec's numeric inputs as exact values (qfunc.parse_number); None where not taken."""

    alphas: tuple
    betas: tuple
    q: object
    z: object


def _exact_text(given, exact) -> str:
    """given if it is text, else its exact value as text parse_number reads back: p/q, or a+bi with p/q parts."""
    if isinstance(given, str):
        return given
    if isinstance(exact, tuple):
        re, im = exact
        return f"{re}{'-' if im < 0 else '+'}{abs(im)}i"
    return str(exact)


@dataclass(frozen=True)
class IdentitySpec:
    """Parameters for one identity verification.

    Numeric parameters (q, z, alphas, betas) are best given as decimal
    strings.  Each is parsed once, here, into its exact value in `exact`
    (qfunc.parse_number; no part of init, == or repr, and what to_json
    writes for an input not given as text), and a side rounds it once into
    its own context (qfunc.from_exact), so one spec evaluates identically at
    any Precision.  An input that is no finite number, or a q outside
    0 < q < 1, raises ValueError here.
    """

    id: str
    alphas: tuple = ()
    betas: tuple = ()
    n: int | None = None
    chi: DirichletCharacter | None = None
    q: object = None
    z: object = None
    prec: Precision = DEFAULT_PRECISION
    terms: int | None = None
    blocks: int | None = None
    exact: ExactInputs = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))
        object.__setattr__(self, "betas", tuple(self.betas))
        object.__setattr__(self, "exact", self._validate())

    def _validate(self) -> ExactInputs:
        """Check the spec against its record, a field the identity does not take being a typo; its exact inputs."""
        i = self.id
        if i not in IDENTITIES:
            raise ValueError(f"unknown identity id {i!r}; expected one of {IDENTITY_IDS}")
        rec = IDENTITIES[i]
        if (self.alphas or self.betas) and "alphas" not in rec.takes:
            raise ValueError(f"{i} takes no alphas/betas")
        for name, word in (("n", "n"), ("chi", "character"), ("q", "q"), ("z", "z"),
                           ("terms", "terms parameter"), ("blocks", "blocks parameter")):
            if getattr(self, name) is not None and name not in rec.takes:
                fixed = " (it is fixed by the identity)" if name == "q" and not rec.takes else ""
                raise ValueError(f"{i} takes no {word}{fixed}")
            if getattr(self, name) is None and name in ("q", "z") and name in rec.takes:
                raise ValueError(f"{i} needs {name}")
        alphas, betas = (), ()
        if "alphas" in rec.takes:
            if not self.alphas or len(self.alphas) != len(self.betas):
                raise ValueError(f"{i} needs equal-length non-empty alphas and betas")
            alphas, betas = tuple(map(parse_number, self.alphas)), tuple(map(parse_number, self.betas))
            for e, v in zip((*self.alphas, *self.betas), (*alphas, *betas)):
                if isinstance(v, tuple) and v[1] == 0:  # x+0i is the real x to both rules
                    v = v[0]
                if v == 0:
                    raise ValueError(f"{i} entries must be nonzero")
                if rec.gamma_args and isinstance(v, Fraction) and v.denominator == 1 and v <= 0:
                    raise ValueError(f"{i} entries must avoid non-positive integers, got {e!r}")
        if "n" in rec.takes and (type(self.n) is not int or self.n < rec.n_min):  # a bool is no n
            raise ValueError(f"{i} needs integer n >= {rec.n_min}, got {self.n!r}")
        if "chi" in rec.takes:
            if self.chi is None:
                raise ValueError(f"{i} needs a Dirichlet character")
            if self.chi.is_principal or self.chi.modulus < 3:
                raise ValueError(f"{i} needs a non-principal character of modulus > 2")
        if self.terms is not None and (type(self.terms) is not int or self.terms < 10):
            raise ValueError(f"terms must be an integer >= 10, got {self.terms!r}")
        if self.blocks is not None and (type(self.blocks) is not int or self.blocks < 2):
            raise ValueError(f"blocks must be an integer >= 2, got {self.blocks!r}")
        return ExactInputs(alphas, betas, self.q if self.q is None else as_q(self.q, context(self.prec)),
                           self.z if self.z is None else parse_number(self.z))

    # -- serialization

    def to_json(self) -> dict:
        obj: dict = {"id": self.id}
        if self.alphas:
            obj["alphas"] = list(map(_exact_text, self.alphas, self.exact.alphas))
            obj["betas"] = list(map(_exact_text, self.betas, self.exact.betas))
        if self.n is not None:
            obj["n"] = self.n
        if self.chi is not None:
            obj["chi"] = {"modulus": self.chi.modulus, "exponents": list(self.chi.exponents)}
        if self.q is not None:
            obj["q"] = _exact_text(self.q, self.exact.q)
        if self.z is not None:
            obj["z"] = _exact_text(self.z, self.exact.z)
        obj["prec"] = {"digits": self.prec.digits, "guard": self.prec.guard}
        if self.terms is not None:
            obj["terms"] = self.terms
        if self.blocks is not None:
            obj["blocks"] = self.blocks
        return obj


@dataclass(frozen=True)
class Identity:
    """Everything that defines one identity id.

    lhs and rhs map (spec, ctx) to (value, EvalInfo): the defining product
    and the closed form.  `takes` names the IdentitySpec fields the identity
    needs ("alphas" covers alphas and betas); every other field must be left
    unset, and an identity that takes nothing has its q fixed.
    suite(id, rng, count) returns the default plan's specs, drawing from the
    one generator that default_suite shares among all identities.

    Every identity asks for `target` digits, or 8 fewer than the spec's
    digits if that is less; the tolerance is closed-form, so building a plan
    evaluates no product.  An identity with a term or block count (`count`
    is its default) extrapolates its left side, and a report of it fails if
    the left side's own error estimate backs fewer digits than its
    tolerance (verify.run_identity).
    """

    lhs: Callable
    rhs: Callable
    suite: Callable
    takes: tuple = ()
    n_min: int = 1  # smallest n, when n is taken
    gamma_args: bool = False  # alphas/betas are classical Gamma arguments: no non-positive integers
    count: int | None = None  # default terms or blocks, when either is taken
    target: int = 40

    def tolerance(self, spec: IdentitySpec) -> int:
        """Digits the two sides of `spec` must agree to."""
        return min(self.target, spec.prec.digits - 8)


def _count(spec: IdentitySpec) -> int:
    """The spec's term or block count, or its identity's default."""
    return spec.terms or spec.blocks or IDENTITIES[spec.id].count


def _pole_eps(spec: IdentitySpec, ctx):
    """The spec's working epsilon in ctx, the threshold of the evaluators' own pole checks.

    Gamma_q inside a side checks against its context's own epsilon (qgamma_ctx).
    """
    return ctx.convert(working_eps(context(spec.prec)))


# ---------------------------------------------------------------------------
# Shared product kernels

_CHI4 = DirichletCharacter(modulus=4, exponents=(1,))


def _omega(ro, ctx):
    """A character value as an exact int when real, else a unit-modulus complex from the memo."""
    if ro.is_real:
        return ro.as_int()
    return _remembered(("omega", ro, ctx.prec, ctx.dps), ctx, ro.to_complex, ctx)


def _char_shift_lhs(chi, z, q, ctx, eps):
    """prod_{n>=2} (1 - q^(n - chi(n) z)) / (1 - q^n).

    The per-residue constants d_j = q^(-chi(j) z) are precomputed; the
    product stops once max_j |d_j - 1| * q^n / (1-q) is below the working
    epsilon (every remaining factor is then within that bound of 1).  The n
    with chi(n) != 0 in one residue class j mod k form the pair of
    geometric products (q^n_j d_j; q^k) / (q^n_j; q^k), n_j the class's
    first n >= 2.  A shifted factor below `eps` raises SingularArgumentError.
    """
    k = chi.modulus
    lq = log_ctx(q, ctx)
    shifts: dict = {}
    dev = ctx.mpf(0)
    for j in range(k):
        ro = chi.value(j)
        if ro is None:
            continue
        d = ctx.exp(-(_omega(ro, ctx) * z) * lq)
        shifts[j] = d
        dev = max(dev, abs(d - 1))
    terms = geometric_terms(dev * q * q, q, ctx)
    stop = 2 + terms  # the factors are n = 2 .. stop - 1
    qk = q**k
    p = ctx.mpf(1)
    for j, d in shifts.items():
        first = 2 + (j - 2) % k
        count = max(0, (stop - first + k - 1) // k)
        t = q**first

        def message(i, first=first):
            return f"vanishing factor 1 - q^(n - chi(n) z) at n = {first + i * k}"

        num = geometric_product(t * d, qk, ctx, n=count, pole=(eps, message))
        den = geometric_product(t, qk, ctx, n=count)
        p *= num / den
    return p, EvalInfo(terms=terms)


def _front_factor(q, z, ctx, eps):
    """(1 - q) / (1 - q^(1-z)) with a pole guard, `eps`, on the denominator."""
    den = 1 - ctx.exp((1 - z) * log_ctx(q, ctx))
    if abs(den) < eps:
        raise SingularArgumentError("1 - q^(1-z) vanishes (z too close to 1)")
    return (1 - q) / den


# ---------------------------------------------------------------------------
# The counted products: partial products at checkpoints, extrapolated

_LEVELS = 16  # checkpoints below c_0: about N/r, N/r^2, ..., N/r^16
_RATIO = (3, 2)  # r = 3/2, as (numerator, denominator)
_MIN_PERIODS = 4  # the smallest checkpoint lies at least this many periods past the start
_EXTRA_DIGITS = 5  # carried past the working precision by the partial products and the table


def _checkpoints(start, stop, k) -> list:
    """Ascending checkpoints c_L < ... < c_1 < c_0 of a product over n in [start, stop), period k.

    c_0 ends the last whole period, stop itself unless the range ends in part
    of one; c_j = start + 4k floor((c_0 - start) / (4k r^j)) for j = 1 ..
    _LEVELS, r = _RATIO = 3/2, so each of them ends a whole block of four
    factors in every residue class.  rational_product no longer needs that
    (a stop's value does not depend on the other stops); the alignment stays
    only so that the reports keep their bytes.  The error of a product
    over whole periods is a smooth series in 1 / count; a part period would
    add a term that alternates with it.  Only distinct checkpoints at least
    _MIN_PERIODS periods past start are kept.

    The ratio sets what the table can reach.  Level L removes the first L
    terms of the error series and leaves about the next coefficient times
    the product of the L + 1 values of 1 / count, N^-(L+1) r^(L(L+1)/2):
    the smallest counts dominate, and the coefficients of this asymptotic
    series grow.  r = 2 with 11 levels (counts down to N / 2048) leaves COR2
    at 2 * 10^4 terms 1.5e-34 to 4e-37 off, by instance; r = 3/2 with 16
    levels (down to N / 657) reaches the rounding of 40 working digits there,
    as for PROTOTYPE and THM4, while the weights that carry the partial
    products' rounding into the value sum to 78.
    """
    whole = start + (stop - start) // k * k
    num, den = _RATIO
    marks = []
    for j in range(_LEVELS, 0, -1):
        c = start + 4 * k * ((whole - start) * den**j // (4 * k * num**j))
        if c - start >= _MIN_PERIODS * k and c not in marks:
            marks.append(c)
    return marks + [whole] if whole > start else marks


def _extrapolate(counts, values, ctx, bound):
    """(value, relative error estimate, level) of a product from its partial products.

    Neville's scheme interpolates the values, at x = 1 / count, by
    polynomials in x and evaluates them at x = 0: T_{i,j} = T_{i,j-1} +
    (T_{i,j-1} - T_{i-1,j-1}) count_{i-j} / (count_i - count_{i-j}).  Its
    last row, T_{L,j}, j = 0 .. L, is the raw product at the largest count
    and its extrapolations of level j.  The gap g_j = |T_{L,j} - T_{L,j-1}|
    alone can mislead: where a term of the error series nearly vanishes,
    two levels nearly coincide while both are still off.  So level j is
    judged by the larger of g_j and the next gap g_{j+1} (g_{L-1} at the top
    level), and the level taken is the one so judged smallest, the last one
    while the gaps shrink.  The estimate is ten times that gap, relative, at
    least 10^-dps (a zero gap means the table reached working precision) and
    at most `bound`, the proven bound on the raw product.  It takes two
    values or more.

    The table runs on fixed-point integers, a complex value a pair of them,
    scaled by 2^B relative to the last value, B its precision plus 30 bits:
    each entry rounds once, in a floor division, and the L(L+1)/2 entries
    with their growth through the table stay far below one unit of its
    precision.
    """
    last = values[-1]
    B = last.context.prec + 30 - int(ctx.mag(last))
    row = []
    for i, (n, v) in enumerate(zip(counts, values)):
        new = [_fixed_parts(v, B)]
        for j in range(1, i + 1):
            n0 = counts[i - j]
            (a, b), (c, d) = new[j - 1], row[j - 1]
            new.append((a + (a - c) * n0 // (n - n0), b + (b - d) * n0 // (n - n0)))
        row = new

    squares = [ctx.mpf((a - c) ** 2 + (b - d) ** 2) / (a * a + b * b)
               for (a, b), (c, d) in zip(row[1:], row)]  # g_1^2 .. g_L^2
    judged = [max(squares[i:i + 2]) for i in range(len(squares) - 1)] + [max(squares[-2:])]
    i = min(range(len(judged)), key=lambda i: (judged[i], -i))
    est = min(max(10 * ctx.sqrt(judged[i]), working_eps(ctx)), bound)
    re, im = row[i + 1]
    value = ctx.mpc(ctx.mpf((re, -B)), ctx.mpf((im, -B))) if im else ctx.mpf((re, -B))
    return value, est, i + 1


def _counted_lhs(shift_lists, start, stop, ctx, terms, bound, extrapolate):
    """The product over n in [start, stop) of every shift list's rational factors, and its EvalInfo.

    Each list in shift_lists is rational_product's shifts, all of one period
    k, taken in working precision plus _EXTRA_DIGITS (hi).  The partial
    products come from one pass per list, at _checkpoints and at stop, in
    hi; with `extrapolate` and two checkpoints or more the value is
    _extrapolate's over the checkpoints, else the raw product at stop with
    `bound` as its estimate.
    """
    hi = _context_at(ctx.dps + _EXTRA_DIGITS)
    marks = _checkpoints(start, stop, len(shift_lists[0])) if extrapolate else []
    stops = marks if marks and marks[-1] == stop else marks + [stop]
    values = [1] * len(stops)
    for shifts in shift_lists:
        values = [v * p for v, p in zip(values, rational_product(shifts, start, stops, ctx, hi))]
    if len(marks) > 1:
        value, est, level = _extrapolate([c - start for c in marks], values[:len(marks)], ctx, bound)
    else:
        value, est, level = +ctx.convert(values[-1]), bound, 0  # + rounds to ctx
    return value, EvalInfo(terms=terms, rel_error_estimate=mpmath.nstr(est, 8), level=level)


# ---------------------------------------------------------------------------
# Per-identity evaluators: fn(spec, ctx) -> (value, EvalInfo); the proven
# bounds on the raw counted products at N: fn(spec, ctx, count) -> mpf.  A
# counted left side takes extrapolate=False for its raw product at N.


def _prototype_estimate(spec, ctx, n_terms):
    return ctx.mpf(1) / (2 * n_terms + 3) + ctx.mpf(1) / (8 * n_terms) + ctx.mpf(1) / (4 * n_terms**2)


def _prototype_lhs(spec, ctx, extrapolate=True):
    n_terms = _count(spec)
    # 1 - 1/(2j+1) = j / (j + 1/2) for even j, 1 + 1/(2j+1) = (j + 1) / (j + 1/2) for odd j
    half = Fraction(1, 2)
    return _counted_lhs([[(0, half), (1, half)]], 1, n_terms + 1, ctx, n_terms,
                        _prototype_estimate(spec, ctx, n_terms), extrapolate)


def _prototype_rhs(spec, ctx):
    return ctx.pi * ctx.sqrt(2) / 4, EvalInfo()


def _thm1_lhs(spec, ctx):
    q = from_exact(spec.exact.q, ctx)
    lq = log_ctx(q, ctx)
    ta = [ctx.exp(from_exact(a, ctx) * lq) for a in spec.exact.alphas]
    tb = [ctx.exp(from_exact(b, ctx) * lq) for b in spec.exact.betas]
    terms = geometric_terms(sum((abs(t) for t in ta + tb), ctx.mpf(0)), q, ctx)
    p = ctx.mpf(1)
    for j, (a, b) in enumerate(zip(ta, tb)):
        num = geometric_product(a, q, ctx, n=terms)
        den = geometric_product(b, q, ctx, n=terms, pole=(
            _pole_eps(spec, ctx), lambda k, j=j: f"vanishing factor 1 - q^(n + beta_{j})"))
        p *= num / den
    return p, EvalInfo(terms=terms)


def _thm1_rhs(spec, ctx):
    q = from_exact(spec.exact.q, ctx)
    p = ctx.mpf(1)
    for a, b in zip(spec.exact.alphas, spec.exact.betas):
        p *= (qgamma_ctx(from_exact(b, ctx), q, ctx, spec.prec.guard)
              / qgamma_ctx(from_exact(a, ctx), q, ctx, spec.prec.guard))
    return p, EvalInfo()


def _cor2_estimate(spec, ctx, n_terms):
    al = [from_exact(a, ctx) for a in spec.exact.alphas]
    be = [from_exact(b, ctx) for b in spec.exact.betas]
    quad = abs(sum(a * a for a in al) - sum(b * b for b in be)) / 2 / (n_terms - 1)
    cubic = (
        (sum(abs(a) ** 3 for a in al) + sum(abs(b) ** 3 for b in be))
        * 2 / (3 * ctx.mpf(n_terms - 1) ** 2)
    )
    return quad + cubic


def _exact_sum(values) -> tuple:
    """A sum of exact inputs (qfunc.parse_number) as its real part, imaginary part and sorted tags.

    1, e^-pi, e^-2pi, e^-4pi, e^-8pi are linearly independent over Q, so two sums are equal iff these are.
    """
    parts = [v if isinstance(v, tuple) else (v, 0) for v in values if not isinstance(v, str)]
    return (sum(re for re, _ in parts), sum(im for _, im in parts),
            sorted(v for v in values if isinstance(v, str)))


def _cor2_lhs(spec, ctx, extrapolate=True):
    n_terms = _count(spec)
    hi = _context_at(ctx.dps + _EXTRA_DIGITS)
    al = [from_exact(a, hi) for a in spec.exact.alphas]
    be = [from_exact(b, hi) for b in spec.exact.betas]
    # convergence requires the sums to agree exactly
    if _exact_sum(spec.exact.alphas) != _exact_sum(spec.exact.betas):
        raise ValueError("sum(alphas) != sum(betas): the product does not converge")
    scale = max(max(abs(v) for v in al + be), ctx.mpf(1))
    if scale > n_terms / 4:
        raise ValueError("terms too small for entries of this magnitude")
    # the spec refuses an exact non-positive integer beta, but one within rounding of it lands on
    # it in hi when its pair runs as values (beside a complex alpha)
    poles = [n for b in be for n in rational_zeros([b], 0, n_terms, hi)]
    if poles:
        raise SingularArgumentError(f"factor n + beta vanishes at n = {min(poles)}")
    # an exact real pair runs at the lcm of its denominators, any other as values in hi
    pairs = [(a, b) if isinstance(a, Fraction) and isinstance(b, Fraction) else (ah, bh)
             for a, b, ah, bh in zip(spec.exact.alphas, spec.exact.betas, al, be)]
    return _counted_lhs([[pair] for pair in pairs], 0, n_terms, ctx, n_terms,
                        _cor2_estimate(spec, ctx, n_terms), extrapolate)


def _cor2_rhs(spec, ctx):
    p = ctx.mpf(1)
    for a, b in zip(spec.exact.alphas, spec.exact.betas):
        p *= gamma_ctx(from_exact(b, ctx), ctx) / gamma_ctx(from_exact(a, ctx), ctx)
    return p, EvalInfo()


def _thm3_lhs(coprime):
    """Theorem 3's left side: prod Gamma_q(j/n) over j = 1..n, or over the j coprime to n only.

    One evaluator per choice, so the side memo tells the two products apart.
    """
    def lhs(spec, ctx):
        q = from_exact(spec.exact.q, ctx)
        js = [j for j in range(1, spec.n + 1) if not coprime or math.gcd(j, spec.n) == 1]
        p = ctx.mpf(1)
        for j in js:
            p *= qgamma_ctx(ctx.mpf(j) / spec.n, q, ctx, spec.prec.guard)
        return p, EvalInfo(terms=len(js))
    return lhs


def _thm3_full_rhs(spec, ctx):
    q = from_exact(spec.exact.q, ctx)
    n = spec.n
    euler = euler_function(q, ctx)
    head = ctx.exp(log_ctx(1 - q, ctx) * (n - 1) / 2)
    return head * euler**n / euler_function(q, ctx, n), EvalInfo()


def _thm3_coprime_rhs(spec, ctx):
    q = from_exact(spec.exact.q, ctx)
    n = spec.n
    phi = totient(n)
    euler = euler_function(q, ctx)
    head = ctx.exp(log_ctx(1 - q, ctx) * ctx.mpf(phi) / 2)
    return head * euler**phi / psi_product(radical(n), q, ctx, n), EvalInfo()


def _thm4_estimate(spec, ctx, blocks):
    # tail estimate: blocks m >= M contribute ~ C/m^2 each; sum_{m>=M} < C/(M-1)
    chi = spec.chi
    k = chi.modulus
    phi = totient(k)
    weighted = sum(
        (r * chi.value(r).to_complex(ctx) for r in range(2, k + 2) if chi.value(r) is not None),
        ctx.mpc(0),
    )
    az = abs(from_exact(spec.exact.z, ctx))
    c_est = (az * abs(weighted) + az**2 * phi / 2 + az**3 * phi * 2 / 3) / k**2
    return c_est / (blocks - 1)


def _thm4_lhs(spec, ctx, extrapolate=True):
    blocks = _count(spec)
    chi = spec.chi
    k = chi.modulus
    if 4 * abs(from_exact(spec.exact.z, ctx)) > blocks * k:
        raise ValueError("blocks too small for |z|; tail estimate invalid")
    # 1 - chi(n) z / n = (n - chi(n) z) / n
    hi = _context_at(ctx.dps + _EXTRA_DIGITS)
    # a real z stays exact in the residues with chi(j) = +-1, which run at its denominator;
    # every other -chi(j) z is a value in hi
    z = spec.exact.z
    shifts = [None if v is None else -_omega(v, hi) * (z if v.is_real and isinstance(z, Fraction)
                                                       else from_exact(z, hi))
              for v in (chi.value(j) for j in range(k))]
    stop = blocks * k + 2  # n runs over 2 .. blocks*k + 1: exactly `blocks` full periods
    zeros = rational_zeros(shifts, 2, stop, hi)
    if zeros:
        raise SingularArgumentError(f"factor 1 - chi(n) z / n vanishes at n = {zeros[0]}")
    return _counted_lhs([[None if a is None else (a, 0) for a in shifts]], 2, stop, ctx, blocks * k,
                        _thm4_estimate(spec, ctx, blocks), extrapolate)


def _thm4_rhs(spec, ctx):
    chi = spec.chi
    k = chi.modulus
    z = from_exact(spec.exact.z, ctx)
    one_minus_z = 1 - z
    if abs(one_minus_z) < working_eps(ctx):
        raise SingularArgumentError("z = 1 is a pole of the closed form")
    fac = factorize(k)  # e^(Lambda(k)/2): sqrt(p) when k = p^a, else 1
    exp_half_lambda = ctx.sqrt(ctx.mpf(fac[0][0])) if len(fac) == 1 else ctx.mpf(1)
    phi = totient(k)
    head = (2 * ctx.pi) ** (ctx.mpf(phi) / 2) / (one_minus_z * exp_half_lambda)
    gprod = ctx.mpf(1)
    for j in range(1, k):
        if math.gcd(j, k) != 1:
            continue
        ro = chi.value(j)
        gprod *= gamma_ctx((j - _omega(ro, ctx) * z) / k, ctx)
    return head / gprod, EvalInfo()


def _thm5_lhs(spec, ctx):
    q = from_exact(spec.exact.q, ctx)
    z = from_exact(spec.exact.z, ctx)
    return _char_shift_lhs(spec.chi, z, q, ctx, _pole_eps(spec, ctx))


def _thm5_rhs(spec, ctx):
    q = from_exact(spec.exact.q, ctx)
    z = from_exact(spec.exact.z, ctx)
    chi = spec.chi
    k = chi.modulus
    qk = q**k
    p = _front_factor(q, z, ctx, _pole_eps(spec, ctx))
    for j in range(1, k + 1):
        ro = chi.value(j)
        if ro is None:
            continue  # the Gamma_qk ratio is exactly 1
        num = qgamma_ctx(ctx.mpf(j) / k, qk, ctx, spec.prec.guard)
        den = qgamma_ctx((j - _omega(ro, ctx) * z) / k, qk, ctx, spec.prec.guard)
        p *= num / den
    return p, EvalInfo()


def _cor6_rhs(spec, ctx):
    q = from_exact(spec.exact.q, ctx)
    z = from_exact(spec.exact.z, ctx)
    chi = spec.chi
    k = chi.modulus
    phi = totient(k)  # even for every modulus >= 3, so phi/2 is an integer power
    qk = q**k
    head = _front_factor(q, z, ctx, _pole_eps(spec, ctx)) * (1 - qk) ** (phi // 2)
    euler = euler_function(qk, ctx) ** phi
    pp = psi_product(radical(k), q, ctx)
    gprod = ctx.mpf(1)
    for j in range(1, k + 1):
        if math.gcd(j, k) != 1:
            continue
        ro = chi.value(j)
        gprod *= qgamma_ctx((j - _omega(ro, ctx) * z) / k, qk, ctx, spec.prec.guard)
    return head * euler / (pp * gprod), EvalInfo()


def _instance(family, **fixed):
    """A special value's left side: `family`'s own, on its IdentitySpec of the parameters `fixed`.

    It runs in the context it is handed, the special value's own, not through _side.
    """
    def lhs(spec, ctx):
        return IDENTITIES[family].lhs(IdentitySpec(family, prec=spec.prec, **fixed), ctx)
    return lhs


def _ex1a_rhs(spec, ctx):
    g4 = gamma_ctx(ctx.mpf(1) / 4, ctx)
    pi = ctx.pi
    val = (
        ctx.exp(3 * pi / 8) * (1 - ctx.exp(-pi)) * g4**2
        / (ctx.mpf(2) ** (ctx.mpf(23) / 8) * pi ** (ctx.mpf(3) / 2))
    )
    return val, EvalInfo()


def _ex1b_rhs(spec, ctx):
    pi = ctx.pi
    return ctx.mpf(2) ** (ctx.mpf(5) / 8) * ctx.exp(-pi / 8) / (1 + ctx.exp(-pi)), EvalInfo()


def _ex2a_rhs(spec, ctx):
    g4 = gamma_ctx(ctx.mpf(1) / 4, ctx)
    pi = ctx.pi
    val = (
        ctx.exp(3 * pi / 4) * (1 - ctx.exp(-2 * pi)) * g4**2
        / (16 * pi ** (ctx.mpf(3) / 2) * ctx.sqrt(1 + ctx.sqrt(ctx.mpf(2))))
    )
    return val, EvalInfo()


def _ex2b_rhs(spec, ctx):
    pi = ctx.pi
    val = ctx.sqrt(2 + 2 * ctx.sqrt(ctx.mpf(2))) * ctx.exp(-pi / 4) / (1 + ctx.exp(-2 * pi))
    return val, EvalInfo()


def _jackson1_rhs(spec, ctx):
    pi, g4 = ctx.pi, gamma_ctx(ctx.mpf(1) / 4, ctx)
    return (ctx.exp(-29 * pi / 8) * (ctx.exp(4 * pi) - 1) * g4**2
            / (ctx.mpf(2) ** (ctx.mpf(23) / 8) * pi ** (ctx.mpf(3) / 2))), EvalInfo()


def _jackson2_rhs(spec, ctx):
    pi, g4 = ctx.pi, gamma_ctx(ctx.mpf(1) / 4, ctx)
    return (ctx.exp(-7 * pi / 4) * ctx.sqrt(ctx.exp(4 * pi) - 1) * g4
            / (ctx.mpf(2) ** (ctx.mpf(7) / 4) * pi ** (ctx.mpf(3) / 4))), EvalInfo()


def _jackson3_rhs(spec, ctx):
    pi, g4 = ctx.pi, gamma_ctx(ctx.mpf(1) / 4, ctx)
    return (ctx.exp(-7 * pi / 2) * ctx.sqrt(ctx.exp(8 * pi) - 1) * g4
            / (ctx.mpf(2) ** (ctx.mpf(9) / 4) * pi ** (ctx.mpf(3) / 4)
               * ctx.sqrt(1 + ctx.sqrt(ctx.mpf(2))))), EvalInfo()


def _jackson4_rhs(spec, ctx):
    pi, g4 = ctx.pi, gamma_ctx(ctx.mpf(1) / 4, ctx)
    return (ctx.exp(-29 * pi / 4) * (ctx.exp(8 * pi) - 1) * g4**2
            / (16 * pi ** (ctx.mpf(3) / 2) * ctx.sqrt(1 + ctx.sqrt(ctx.mpf(2))))), EvalInfo()


# ---------------------------------------------------------------------------
# Default-suite entries: fn(id, rng, count) -> [IdentitySpec]

_SCALE = 10**9
_P30, _P50, _P60 = Precision(30), Precision(50), Precision(60)


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
    """Equal-sum complex parameter lists of length 2 to 4: Re in [0.2, 3], Im in [-0.5, 0.5].

    The last beta balances the sums exactly (decimal fractions), resampling
    until it falls back inside the same box and the betas are not the alphas
    reordered, whose two sides would both be exactly 1.
    """
    while True:
        length = rng.randint(2, 4)
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
            if sorted(alphas) != sorted(betas):
                return alphas, betas


def random_cor2_instance(rng: Random):
    """Equal-sum positive real lists of length 2 to 4, entries in [0.2, 1.5], not reorderings of each other."""
    while True:
        length = rng.randint(2, 4)
        a = [_rand_frac(rng, 0.2, 1.5) for _ in range(length)]
        b = [_rand_frac(rng, 0.2, 1.5) for _ in range(length - 1)]
        last = sum(a) - sum(b)
        if Fraction(1, 5) <= last <= Fraction(3, 2) and sorted(a) != sorted(b + [last]):
            b.append(last)
            return tuple(_dec_str(v) for v in a), tuple(_dec_str(v) for v in b)


def _prototype_suite(ident, rng, terms):
    return [IdentitySpec(ident, terms=terms, prec=_P30)]


def _thm1_suite(ident, rng, count):
    specs = []
    for _ in range(20):
        alphas, betas = random_thm1_instance(rng)
        specs += [IdentitySpec(ident, alphas=alphas, betas=betas, q=q, prec=_P50)
                  for q in ("0.1", "0.5", "0.9")]
    return specs


def _cor2_suite(ident, rng, terms):
    pairs = [(("0.5", "0.5"), ("0.25", "0.75"))] + [random_cor2_instance(rng) for _ in range(10)]
    return [IdentitySpec(ident, alphas=a, betas=b, terms=terms, prec=_P30) for a, b in pairs]


def _thm3_suite(ident, rng, count):
    return [IdentitySpec(ident, n=n, q=q, prec=_P50)
            for n in range(2, 13) for q in ("0.2", "0.6", "0.95", "0.99", "0.999")]


def _thm4_suite(ident, rng, blocks):
    return [IdentitySpec(ident, chi=enumerate_characters(k)[1], z="0.5", blocks=blocks, prec=_P30)
            for k in (3, 4)]


def _char_shift_suite(ident, rng, count):
    return [IdentitySpec(ident, chi=chi, q=q, z=z, prec=_P60)
            for k in range(3, 13) for chi in enumerate_characters(k) if not chi.is_principal
            for q in ("0.3", "0.7") for z in ("0.5", "-0.5", "0.25+0.25i")]


def _constant_suite(ident, rng, count):
    return [IdentitySpec(ident, prec=_P60)]


# ---------------------------------------------------------------------------
# The catalog, in default-suite order (THM1 draws its instances before COR2)

IDENTITIES: dict = {
    "PROTOTYPE": Identity(_prototype_lhs, _prototype_rhs, _prototype_suite, takes=("terms",),
                          count=10**6),
    "THM1": Identity(_thm1_lhs, _thm1_rhs, _thm1_suite, takes=("alphas", "q"), target=42),
    "COR2": Identity(_cor2_lhs, _cor2_rhs, _cor2_suite, takes=("alphas", "terms"), gamma_args=True,
                     count=10**5),
    "THM3_FULL": Identity(_thm3_lhs(coprime=False), _thm3_full_rhs, _thm3_suite, takes=("n", "q")),
    "THM3_COPRIME": Identity(_thm3_lhs(coprime=True), _thm3_coprime_rhs, _thm3_suite,
                             takes=("n", "q"), n_min=2),
    "THM4": Identity(_thm4_lhs, _thm4_rhs, _thm4_suite, takes=("chi", "z", "blocks"),
                     count=10**6),
    "THM5": Identity(_thm5_lhs, _thm5_rhs, _char_shift_suite, takes=("chi", "z", "q")),
    "COR6": Identity(_thm5_lhs, _cor6_rhs, _char_shift_suite, takes=("chi", "z", "q")),
    "EX1A": Identity(_instance("THM5", chi=_CHI4, q="e^-pi", z="1"), _ex1a_rhs, _constant_suite),
    "EX1B": Identity(_instance("THM5", chi=_CHI4, q="e^-pi", z="-1"), _ex1b_rhs, _constant_suite),
    "EX2A": Identity(_instance("THM5", chi=_CHI4, q="e^-2pi", z="1"), _ex2a_rhs, _constant_suite),
    "EX2B": Identity(_instance("THM5", chi=_CHI4, q="e^-2pi", z="-1"), _ex2b_rhs, _constant_suite),
    "JACKSON1": Identity(_instance("THM3_COPRIME", n=4, q="e^-4pi"), _jackson1_rhs, _constant_suite),
    "JACKSON2": Identity(_instance("THM3_COPRIME", n=2, q="e^-4pi"), _jackson2_rhs, _constant_suite),
    "JACKSON3": Identity(_instance("THM3_COPRIME", n=2, q="e^-8pi"), _jackson3_rhs, _constant_suite),
    "JACKSON4": Identity(_instance("THM3_COPRIME", n=4, q="e^-8pi"), _jackson4_rhs, _constant_suite),
}

IDENTITY_IDS = tuple(IDENTITIES)


def identity_id(text: str) -> str:
    """The catalog spelling of an identity id: case-insensitive, '-' for '_'."""
    return text.strip().upper().replace("-", "_")


def _side(evaluate, spec: IdentitySpec) -> tuple:
    """One side of `spec`, (value, EvalInfo), in the context chosen for it.

    A side whose identity takes q runs in split_context(q, ctx), ctx the
    spec's context, and is rounded once to ctx; every other side runs in
    ctx.  The evaluator reads spec.exact and truncates in the context it is
    handed; its own pole checks keep the spec's epsilon (_pole_eps), and
    Gamma_q's check against the context's.

    The pair is remembered in qfunc's memo under the evaluator itself, the
    spec's exact inputs (0.5, a Fraction, runs as a real value, 0.5+0j, a
    pair, as a complex one) and its other fields but the id.  So COR6's
    left side, THM5's evaluator on the same inputs, is THM5's stored pair,
    and one evaluator never answers for another.  The value, already
    rounded into the spec's context, is returned as stored; a side that
    raises stores nothing.
    """
    key = ("side", evaluate, spec.exact, spec.n, spec.chi, spec.prec, spec.terms, spec.blocks)
    return _remembered(key, None, _evaluate_side, evaluate, spec)


def _evaluate_side(evaluate, spec: IdentitySpec) -> tuple:
    ctx = context(spec.prec)
    if "q" not in IDENTITIES[spec.id].takes:
        return evaluate(spec, ctx)
    value, info = evaluate(spec, split_context(from_exact(spec.exact.q, ctx), ctx))
    return +ctx.convert(value), info  # + rounds to ctx


def eval_lhs_info(spec: IdentitySpec) -> tuple:
    """Left side of the identity plus truncation info."""
    return _side(IDENTITIES[spec.id].lhs, spec)


def eval_lhs(spec: IdentitySpec):
    """Left side of the identity, directly from its defining product."""
    return eval_lhs_info(spec)[0]


def eval_rhs_info(spec: IdentitySpec) -> tuple:
    """Right side (closed form) of the identity plus trivial info."""
    return _side(IDENTITIES[spec.id].rhs, spec)


def eval_rhs(spec: IdentitySpec):
    """Right side of the identity, via its closed form."""
    return eval_rhs_info(spec)[0]
