"""Two-sided evaluators for every verified product identity.

Each identity id names a left side (an infinite or blocked product evaluated
by direct truncation) and a right side (a closed form assembled from qgamma,
gamma_classical, cyclotomic polynomials, and character data).  The two sides
never share a code path beyond the primitive operations, so agreement is
evidence, not tautology.

Truncation policy: geometric-tail products stop once the remaining factors
are provably below one unit in the last working digit; the blocked and
polynomially-decaying products (THM4, COR2, PROTOTYPE) stop at a configured
term/block count and record an explicit relative error estimate in EvalInfo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .characters import DirichletCharacter
from .numtheory import cyclotomic, mobius, radical, totient, von_mangoldt
from .qfunc import (
    DEFAULT_PRECISION,
    Precision,
    SingularArgumentError,
    as_q,
    context,
    gamma_ctx,
    geometric_product,
    geometric_terms,
    jackson_value,
    qgamma_ctx,
    qpoch_inf_ctx,
    rational_product,
    rational_zeros,
    to_hp,
)

__all__ = [
    "EvalInfo",
    "IDENTITY_IDS",
    "IdentitySpec",
    "eval_lhs",
    "eval_lhs_info",
    "eval_rhs",
    "eval_rhs_info",
]

IDENTITY_IDS = (
    "PROTOTYPE",
    "THM1",
    "COR2",
    "THM3_FULL",
    "THM3_COPRIME",
    "THM4",
    "THM5",
    "COR6",
    "EX1A",
    "EX1B",
    "EX2A",
    "EX2B",
    "JACKSON1",
    "JACKSON2",
    "JACKSON3",
    "JACKSON4",
)

# ids needing each parameter; anything else present is rejected to catch typos
_NEEDS_Q = {"THM1", "THM3_FULL", "THM3_COPRIME", "THM5", "COR6"}
_NEEDS_Z = {"THM4", "THM5", "COR6"}
_NEEDS_CHI = {"THM4", "THM5", "COR6"}
_NEEDS_N = {"THM3_FULL", "THM3_COPRIME"}
_NEEDS_AB = {"THM1", "COR2"}
_TAKES_TERMS = {"PROTOTYPE", "COR2"}
_TAKES_BLOCKS = {"THM4"}

_JACKSON_MAP = {
    "JACKSON1": "J_QTR_4PI",
    "JACKSON2": "J_HALF_4PI",
    "JACKSON3": "J_HALF_8PI",
    "JACKSON4": "J_QTR_8PI",
}


@dataclass(frozen=True)
class EvalInfo:
    """How a product was truncated: factors consumed and the tail estimate.

    rel_error_estimate is None for geometric-tail products (tail below one
    unit in the last working digit) and a decimal string for the
    polynomially convergent ones (COR2, THM4, PROTOTYPE).
    """

    terms: int = 0
    rel_error_estimate: str | None = None


def _exact_entry(e) -> Fraction | None:
    """The entry as an exact Fraction when that is faithful, else None."""
    if isinstance(e, bool):
        return None
    if isinstance(e, (int, Fraction)):
        return Fraction(e)
    if isinstance(e, str):
        try:
            return Fraction(e.strip())
        except (ValueError, ZeroDivisionError):
            return None
    return None


@dataclass(frozen=True)
class IdentitySpec:
    """Parameters for one identity verification.

    Numeric parameters (q, z, alphas, betas) are best given as decimal
    strings; they are converted at evaluation time under the working
    precision, so one spec evaluates identically at any Precision.
    """

    id: str
    alphas: tuple = ()
    betas: tuple = ()
    n: int | None = None
    k: int | None = None
    chi: DirichletCharacter | None = None
    q: object = None
    z: object = None
    prec: Precision = DEFAULT_PRECISION
    terms: int | None = None
    blocks: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))
        object.__setattr__(self, "betas", tuple(self.betas))
        self._validate()

    def _validate(self):
        i = self.id
        if i not in IDENTITY_IDS:
            raise ValueError(f"unknown identity id {i!r}; expected one of {IDENTITY_IDS}")
        if i in _NEEDS_AB:
            if not self.alphas or len(self.alphas) != len(self.betas):
                raise ValueError(f"{i} needs equal-length non-empty alphas and betas")
            for e in (*self.alphas, *self.betas):
                fr = _exact_entry(e)
                if fr is not None and fr == 0:
                    raise ValueError(f"{i} entries must be nonzero")
                if i == "COR2" and fr is not None and fr.denominator == 1 and fr <= 0:
                    raise ValueError(f"COR2 entries must avoid non-positive integers, got {e!r}")
        elif self.alphas or self.betas:
            raise ValueError(f"{i} takes no alphas/betas")
        if i in _NEEDS_N:
            low = 2 if i == "THM3_COPRIME" else 1
            if not isinstance(self.n, int) or self.n < low:
                raise ValueError(f"{i} needs integer n >= {low}, got {self.n!r}")
        elif self.n is not None:
            raise ValueError(f"{i} takes no n")
        if i in _NEEDS_CHI:
            if self.chi is None:
                raise ValueError(f"{i} needs a Dirichlet character")
            if self.chi.is_principal or self.chi.modulus < 3:
                raise ValueError(f"{i} needs a non-principal character of modulus > 2")
            if self.k is not None and self.k != self.chi.modulus:
                raise ValueError(f"k = {self.k} disagrees with the character modulus {self.chi.modulus}")
        elif self.chi is not None or self.k is not None:
            raise ValueError(f"{i} takes no character")
        if i in _NEEDS_Q:
            if self.q is None:
                raise ValueError(f"{i} needs q")
        elif self.q is not None:
            raise ValueError(f"{i} takes no q (it is fixed by the identity)" if i.startswith(("EX", "JACK")) else f"{i} takes no q")
        if i in _NEEDS_Z:
            if self.z is None:
                raise ValueError(f"{i} needs z")
        elif self.z is not None:
            raise ValueError(f"{i} takes no z")
        if self.terms is not None and i not in _TAKES_TERMS:
            raise ValueError(f"{i} takes no terms parameter")
        if self.blocks is not None and i not in _TAKES_BLOCKS:
            raise ValueError(f"{i} takes no blocks parameter")
        if self.terms is not None and (not isinstance(self.terms, int) or self.terms < 10):
            raise ValueError(f"terms must be an integer >= 10, got {self.terms!r}")
        if self.blocks is not None and (not isinstance(self.blocks, int) or self.blocks < 2):
            raise ValueError(f"blocks must be an integer >= 2, got {self.blocks!r}")

    # -- serialization

    def to_json(self) -> dict:
        obj: dict = {"id": self.id}
        if self.alphas:
            obj["alphas"] = [str(a) for a in self.alphas]
            obj["betas"] = [str(b) for b in self.betas]
        if self.n is not None:
            obj["n"] = self.n
        if self.chi is not None:
            obj["chi"] = {"modulus": self.chi.modulus, "exponents": list(self.chi.exponents)}
        if self.q is not None:
            obj["q"] = str(self.q)
        if self.z is not None:
            obj["z"] = str(self.z)
        obj["prec"] = {"digits": self.prec.digits, "guard": self.prec.guard}
        if self.terms is not None:
            obj["terms"] = self.terms
        if self.blocks is not None:
            obj["blocks"] = self.blocks
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "IdentitySpec":
        chi = None
        if obj.get("chi") is not None:
            chi = DirichletCharacter(
                modulus=int(obj["chi"]["modulus"]),
                exponents=tuple(obj["chi"]["exponents"]),
            )
        prec = DEFAULT_PRECISION
        if obj.get("prec"):
            prec = Precision(int(obj["prec"]["digits"]), int(obj["prec"].get("guard", 10)))
        return cls(
            id=obj["id"],
            alphas=tuple(obj.get("alphas", ())),
            betas=tuple(obj.get("betas", ())),
            n=obj.get("n"),
            chi=chi,
            q=obj.get("q"),
            z=obj.get("z"),
            prec=prec,
            terms=obj.get("terms"),
            blocks=obj.get("blocks"),
        )


# ---------------------------------------------------------------------------
# Shared product kernels

_CHI4 = DirichletCharacter(modulus=4, exponents=(1,))


def _omega(ro, ctx):
    """A character value as an exact int when real, else a unit-modulus complex."""
    return ro.as_int() if ro.order <= 2 else ro.to_complex(ctx)


def _char_shift_lhs(chi, z, q, ctx, min_terms=0):
    """prod_{n>=2} (1 - q^(n - chi(n) z)) / (1 - q^n).

    The per-residue constants d_j = q^(-chi(j) z) are precomputed; the
    product stops once max_j |d_j - 1| * q^n / (1-q) is below the working
    epsilon (every remaining factor is then within that bound of 1).  The n
    with chi(n) != 0 in one residue class j mod k form the pair of
    geometric products (q^n_j d_j; q^k) / (q^n_j; q^k), n_j the class's
    first n >= 2.
    """
    k = chi.modulus
    lq = ctx.log(q)
    eps = ctx.mpf(10) ** (-ctx.dps)
    shifts: dict = {}
    dev = ctx.mpf(0)
    for j in range(k):
        ro = chi.value(j)
        if ro is None:
            continue
        d = ctx.exp(-(_omega(ro, ctx) * z) * lq)
        shifts[j] = d
        dev = max(dev, abs(d - 1))
    terms = geometric_terms(dev * q * q, q, ctx, at_least=min_terms)
    stop = 2 + terms  # the factors are n = 2 .. stop - 1
    qk = q**k
    p = ctx.mpf(1)
    for j, d in shifts.items():
        first = 2 + (j - 2) % k
        count = max(0, (stop - first + k - 1) // k)
        t = q**first

        def message(i, first=first):
            return f"vanishing factor 1 - q^(n - chi(n) z) at n = {first + i * k}"

        num, _ = geometric_product(t * d, qk, ctx, n=count, pole=(eps, message))
        den, _ = geometric_product(t, qk, ctx, n=count)
        p *= num / den
    return p, EvalInfo(terms=terms)


def _psi_factor_product(poly, mu, start, ratio, ctx):
    """prod_{j>=1} poly(start * ratio^(j-1)) ** mu, truncated when |poly(t) - 1| < eps."""
    eps = ctx.mpf(10) ** (-ctx.dps)
    p, _ = geometric_product(start, ratio, ctx, poly=poly,
                             pole=(eps, lambda k: "vanishing cyclotomic factor"))
    return p if mu == 1 else 1 / p


def _front_factor(q, z, ctx):
    """(1 - q) / (1 - q^(1-z)) with a pole guard on the denominator."""
    den = 1 - ctx.exp((1 - z) * ctx.log(q))
    if abs(den) < ctx.mpf(10) ** (-ctx.dps):
        raise SingularArgumentError("1 - q^(1-z) vanishes (z too close to 1)")
    return (1 - q) / den


# ---------------------------------------------------------------------------
# Per-identity evaluators: fn(spec, ctx, min_terms) -> (value, EvalInfo)


def _prototype_lhs(spec, ctx, min_terms=0):
    n_terms = spec.terms or 10**6
    n_terms = max(n_terms, min_terms)
    # 1 - 1/(2j+1) = j / (j + 1/2) for even j, 1 + 1/(2j+1) = (j + 1) / (j + 1/2) for odd j
    half = ctx.mpf(1) / 2
    p = rational_product([(0, half), (1, half)], 1, n_terms + 1, ctx)
    est = ctx.mpf(1) / (2 * n_terms + 3) + ctx.mpf(1) / (8 * n_terms) + ctx.mpf(1) / (4 * n_terms**2)
    return p, EvalInfo(terms=n_terms, rel_error_estimate=mpmath.nstr(est, 8))


def _prototype_rhs(spec, ctx, min_terms=0):
    return ctx.pi * ctx.sqrt(2) / 4, EvalInfo()


def _thm1_lhs(spec, ctx, min_terms=0):
    q = as_q(spec.q, ctx)
    lq = ctx.log(q)
    ta = [ctx.exp(to_hp(a, ctx) * lq) for a in spec.alphas]
    tb = [ctx.exp(to_hp(b, ctx) * lq) for b in spec.betas]
    eps = ctx.mpf(10) ** (-ctx.dps)
    s = sum((abs(t) for t in ta), ctx.mpf(0)) + sum((abs(t) for t in tb), ctx.mpf(0))
    terms = geometric_terms(s, q, ctx, at_least=min_terms)
    p = ctx.mpf(1)
    for j, (a, b) in enumerate(zip(ta, tb)):
        num, _ = geometric_product(a, q, ctx, n=terms)
        den, _ = geometric_product(b, q, ctx, n=terms,
                                   pole=(eps, lambda k, j=j: f"vanishing factor 1 - q^(n + beta_{j})"))
        p *= num / den
    return p, EvalInfo(terms=terms)


def _thm1_rhs(spec, ctx, min_terms=0):
    q = as_q(spec.q, ctx)
    p = ctx.mpf(1)
    for a, b in zip(spec.alphas, spec.betas):
        p *= qgamma_ctx(to_hp(b, ctx), q, ctx) / qgamma_ctx(to_hp(a, ctx), q, ctx)
    return p, EvalInfo()


def _cor2_lhs(spec, ctx, min_terms=0):
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
    poles = [n for b in be for n in rational_zeros([b], 0, n_terms, ctx)]
    if poles:
        raise SingularArgumentError(f"factor n + beta vanishes at n = {min(poles)}")
    p = ctx.mpf(1)
    for a, b in zip(al, be):
        p *= rational_product([(a, b)], 0, n_terms, ctx)
    quad = abs(sum(a * a for a in al) - sum(b * b for b in be)) / 2 / (n_terms - 1)
    cubic = (
        (sum(abs(a) ** 3 for a in al) + sum(abs(b) ** 3 for b in be))
        * 2 / (3 * ctx.mpf(n_terms - 1) ** 2)
    )
    return p, EvalInfo(terms=n_terms, rel_error_estimate=mpmath.nstr(quad + cubic, 8))


def _cor2_rhs(spec, ctx, min_terms=0):
    p = ctx.mpf(1)
    for a, b in zip(spec.alphas, spec.betas):
        p *= gamma_ctx(to_hp(b, ctx), ctx) / gamma_ctx(to_hp(a, ctx), ctx)
    return p, EvalInfo()


def _thm3_full_lhs(spec, ctx, min_terms=0):
    q = as_q(spec.q, ctx)
    p = ctx.mpf(1)
    for j in range(1, spec.n + 1):
        p *= qgamma_ctx(ctx.mpf(j) / spec.n, q, ctx)
    return p, EvalInfo(terms=spec.n)


def _thm3_full_rhs(spec, ctx, min_terms=0):
    q = as_q(spec.q, ctx)
    n = spec.n
    y = ctx.root(q, n)
    euler = qpoch_inf_ctx(q, q, ctx)
    head = ctx.exp(ctx.log(1 - q) * (n - 1) / 2)
    return head * euler**n / qpoch_inf_ctx(y, y, ctx), EvalInfo()


def _thm3_coprime_lhs(spec, ctx, min_terms=0):
    q = as_q(spec.q, ctx)
    p = ctx.mpf(1)
    count = 0
    for j in range(1, spec.n + 1):
        if math.gcd(j, spec.n) == 1:
            p *= qgamma_ctx(ctx.mpf(j) / spec.n, q, ctx)
            count += 1
    return p, EvalInfo(terms=count)


def _thm3_coprime_rhs(spec, ctx, min_terms=0):
    q = as_q(spec.q, ctx)
    n = spec.n
    phi = totient(n)
    r = radical(n)
    y = ctx.root(q, n)
    euler = qpoch_inf_ctx(q, q, ctx)
    head = ctx.exp(ctx.log(1 - q) * ctx.mpf(phi) / 2)
    pp = _psi_factor_product(cyclotomic(r), mobius(r), y, y, ctx)
    return head * euler**phi / pp, EvalInfo()


def _thm4_lhs(spec, ctx, min_terms=0):
    blocks = spec.blocks or 10**6
    chi = spec.chi
    k = chi.modulus
    z = to_hp(spec.z, ctx)
    if 4 * abs(z) > blocks * k:
        raise ValueError("blocks too small for |z|; tail estimate invalid")
    # 1 - chi(n) z / n = (n - chi(n) z) / n
    shifts = [None if v is None else -_omega(v, ctx) * z for v in (chi.value(j) for j in range(k))]
    stop = blocks * k + 2  # n runs over 2 .. blocks*k + 1: exactly `blocks` full periods
    zeros = rational_zeros(shifts, 2, stop, ctx)
    if zeros:
        raise SingularArgumentError(f"factor 1 - chi(n) z / n vanishes at n = {zeros[0]}")
    p = rational_product([None if a is None else (a, 0) for a in shifts], 2, stop, ctx)
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


def _thm4_rhs(spec, ctx, min_terms=0):
    chi = spec.chi
    k = chi.modulus
    z = to_hp(spec.z, ctx)
    one_minus_z = 1 - z
    if abs(one_minus_z) < ctx.mpf(10) ** (-ctx.dps):
        raise SingularArgumentError("z = 1 is a pole of the closed form")
    lam = von_mangoldt(k)
    exp_half_lambda = ctx.sqrt(ctx.mpf(lam.prime)) if lam.kind == "prime-power-log" else ctx.mpf(1)
    phi = totient(k)
    head = (2 * ctx.pi) ** (ctx.mpf(phi) / 2) / (one_minus_z * exp_half_lambda)
    gprod = ctx.mpf(1)
    for j in range(1, k):
        if math.gcd(j, k) != 1:
            continue
        ro = chi.value(j)
        gprod *= gamma_ctx((j - _omega(ro, ctx) * z) / k, ctx)
    return head / gprod, EvalInfo()


def _thm5_lhs(spec, ctx, min_terms=0):
    q = as_q(spec.q, ctx)
    z = to_hp(spec.z, ctx)
    return _char_shift_lhs(spec.chi, z, q, ctx, min_terms=min_terms)


def _thm5_rhs(spec, ctx, min_terms=0):
    q = as_q(spec.q, ctx)
    z = to_hp(spec.z, ctx)
    chi = spec.chi
    k = chi.modulus
    qk = q**k
    p = _front_factor(q, z, ctx)
    for j in range(1, k + 1):
        ro = chi.value(j)
        if ro is None:
            continue  # the Gamma_qk ratio is exactly 1
        num = qgamma_ctx(ctx.mpf(j) / k, qk, ctx)
        den = qgamma_ctx((j - _omega(ro, ctx) * z) / k, qk, ctx)
        p *= num / den
    return p, EvalInfo()


def _cor6_lhs(spec, ctx, min_terms=0):
    return _thm5_lhs(spec, ctx, min_terms=min_terms)


def _cor6_rhs(spec, ctx, min_terms=0):
    q = as_q(spec.q, ctx)
    z = to_hp(spec.z, ctx)
    chi = spec.chi
    k = chi.modulus
    phi = totient(k)  # even for every modulus >= 3, so phi/2 is an integer power
    r = radical(k)
    qk = q**k
    head = _front_factor(q, z, ctx) * (1 - qk) ** (phi // 2)
    euler = qpoch_inf_ctx(qk, qk, ctx) ** phi
    pp = _psi_factor_product(cyclotomic(r), mobius(r), q, q, ctx)
    gprod = ctx.mpf(1)
    for j in range(1, k + 1):
        if math.gcd(j, k) != 1:
            continue
        ro = chi.value(j)
        gprod *= qgamma_ctx((j - _omega(ro, ctx) * z) / k, qk, ctx)
    return head * euler / (pp * gprod), EvalInfo()


def _example_lhs(pi_mult, z_sign):
    def evaluator(spec, ctx, min_terms=0):
        q = ctx.exp(-pi_mult * ctx.pi)
        return _char_shift_lhs(_CHI4, ctx.mpf(z_sign), q, ctx, min_terms=min_terms)

    return evaluator


def _ex1a_rhs(spec, ctx, min_terms=0):
    g4 = gamma_ctx(ctx.mpf(1) / 4, ctx)
    pi = ctx.pi
    val = (
        ctx.exp(3 * pi / 8) * (1 - ctx.exp(-pi)) * g4**2
        / (ctx.mpf(2) ** (ctx.mpf(23) / 8) * pi ** (ctx.mpf(3) / 2))
    )
    return val, EvalInfo()


def _ex1b_rhs(spec, ctx, min_terms=0):
    pi = ctx.pi
    return ctx.mpf(2) ** (ctx.mpf(5) / 8) * ctx.exp(-pi / 8) / (1 + ctx.exp(-pi)), EvalInfo()


def _ex2a_rhs(spec, ctx, min_terms=0):
    g4 = gamma_ctx(ctx.mpf(1) / 4, ctx)
    pi = ctx.pi
    val = (
        ctx.exp(3 * pi / 4) * (1 - ctx.exp(-2 * pi)) * g4**2
        / (16 * pi ** (ctx.mpf(3) / 2) * ctx.sqrt(1 + ctx.sqrt(ctx.mpf(2))))
    )
    return val, EvalInfo()


def _ex2b_rhs(spec, ctx, min_terms=0):
    pi = ctx.pi
    val = ctx.sqrt(2 + 2 * ctx.sqrt(ctx.mpf(2))) * ctx.exp(-pi / 4) / (1 + ctx.exp(-2 * pi))
    return val, EvalInfo()


def _jackson_lhs(value_id):
    def evaluator(spec, ctx, min_terms=0):
        pi_mult = 4 if value_id.endswith("4PI") else 8
        q = ctx.exp(-pi_mult * ctx.pi)
        if value_id.startswith("J_HALF"):
            val = qgamma_ctx(ctx.mpf(1) / 2, q, ctx)
        else:
            val = qgamma_ctx(ctx.mpf(1) / 4, q, ctx) * qgamma_ctx(ctx.mpf(3) / 4, q, ctx)
        return val, EvalInfo()

    return evaluator


def _jackson_rhs(value_id):
    def evaluator(spec, ctx, min_terms=0):
        return jackson_value(value_id, spec.prec), EvalInfo()

    return evaluator


_REGISTRY: dict = {
    "PROTOTYPE": (_prototype_lhs, _prototype_rhs),
    "THM1": (_thm1_lhs, _thm1_rhs),
    "COR2": (_cor2_lhs, _cor2_rhs),
    "THM3_FULL": (_thm3_full_lhs, _thm3_full_rhs),
    "THM3_COPRIME": (_thm3_coprime_lhs, _thm3_coprime_rhs),
    "THM4": (_thm4_lhs, _thm4_rhs),
    "THM5": (_thm5_lhs, _thm5_rhs),
    "COR6": (_cor6_lhs, _cor6_rhs),
    "EX1A": (_example_lhs(1, 1), _ex1a_rhs),
    "EX1B": (_example_lhs(1, -1), _ex1b_rhs),
    "EX2A": (_example_lhs(2, 1), _ex2a_rhs),
    "EX2B": (_example_lhs(2, -1), _ex2b_rhs),
    "JACKSON1": (_jackson_lhs("J_QTR_4PI"), _jackson_rhs("J_QTR_4PI")),
    "JACKSON2": (_jackson_lhs("J_HALF_4PI"), _jackson_rhs("J_HALF_4PI")),
    "JACKSON3": (_jackson_lhs("J_HALF_8PI"), _jackson_rhs("J_HALF_8PI")),
    "JACKSON4": (_jackson_lhs("J_QTR_8PI"), _jackson_rhs("J_QTR_8PI")),
}


def eval_lhs_info(spec: IdentitySpec, min_terms: int = 0) -> tuple:
    """Left side of the identity plus truncation info."""
    ctx = context(spec.prec)
    return _REGISTRY[spec.id][0](spec, ctx, min_terms)


def eval_lhs(spec: IdentitySpec):
    """Left side of the identity, directly from its defining product."""
    return eval_lhs_info(spec)[0]


def eval_rhs_info(spec: IdentitySpec) -> tuple:
    """Right side (closed form) of the identity plus trivial info."""
    ctx = context(spec.prec)
    return _REGISTRY[spec.id][1](spec, ctx, 0)


def eval_rhs(spec: IdentitySpec):
    """Right side of the identity, via its closed form."""
    return eval_rhs_info(spec)[0]
