"""Seeded benchmark plans: tuples of (IdentitySpec, tolerance) pairs.

A plan depends only on (workload, seed, scale), so the same arguments give
byte-identical specs.  The program under test receives nothing but the
generated specs.  The seed picks only parameters that leave a plan's work
nearly unchanged (alpha/beta values, z, a character among ones of equal
cost), so wall time compares across seeds while the instances differ.
"""

from __future__ import annotations

import json
import math
from random import Random

import qprod

WORKLOADS = ("q_families", "q_near_one", "slow_products")
SCALES = ("full", "tiny")

_UNIT = 10**4  # generated parameters are decimal strings with four places


def _dec(units: int) -> str:
    sign = "-" if units < 0 else ""
    a = abs(units)
    return f"{sign}{a // _UNIT}.{a % _UNIT:04d}"


def _cplx(re: int, im: int) -> str:
    if im == 0:
        return _dec(re)
    return f"{_dec(re)}{'-' if im < 0 else '+'}{_dec(abs(im))}i"


def _balanced_lists(rng: Random, length: int, lo: float, hi: float, imag: float):
    """Two lists of `length` parameters with equal sums, every entry in the box.

    Real parts lie in [lo, hi] and imaginary parts in [-imag, imag]; the last
    beta balances both sums exactly and is redrawn until it lands in the box.
    """
    lo_u, hi_u, im_u = round(lo * _UNIT), round(hi * _UNIT), round(imag * _UNIT)
    while True:
        re_a = [rng.randint(lo_u, hi_u) for _ in range(length)]
        im_a = [rng.randint(-im_u, im_u) for _ in range(length)]
        re_b = [rng.randint(lo_u, hi_u) for _ in range(length - 1)]
        im_b = [rng.randint(-im_u, im_u) for _ in range(length - 1)]
        re_last = sum(re_a) - sum(re_b)
        im_last = sum(im_a) - sum(im_b)
        if lo_u <= re_last <= hi_u and abs(im_last) <= im_u:
            re_b.append(re_last)
            im_b.append(im_last)
            return (tuple(_cplx(r, i) for r, i in zip(re_a, im_a)),
                    tuple(_cplx(r, i) for r, i in zip(re_b, im_b)))


def _random_z(rng: Random) -> str:
    """A complex z with |Re|, |Im| <= 0.5, kept away from the poles near 1."""
    return _cplx(rng.randint(-5000, 5000), rng.randint(-5000, 5000))


def _nonprincipal(k: int) -> tuple:
    return tuple(c for c in qprod.enumerate_characters(k) if not c.is_principal)


def _q_families(rng: Random, tiny: bool) -> list:
    """The default suite's geometric families, scaled down (see README.md)."""
    P = qprod.Precision
    p_q, p_char = P(50), P(60)
    thm1_lengths = (2,) if tiny else (2, 3)
    thm1_q = ("0.1", "0.5") if tiny else ("0.1", "0.5", "0.9")
    thm3_orders = (2, 3) if tiny else (2, 3, 6)
    thm3_q = ("0.2",) if tiny else ("0.2", "0.6", "0.95")
    moduli = (3,) if tiny else (3, 4, 5)
    char_q = ("0.3",) if tiny else ("0.3", "0.7")
    char_z = ("0.5",) if tiny else ("0.5", "-0.5", "0.25+0.25i")
    fixed = ("EX1A", "JACKSON1") if tiny else (
        "EX1A", "EX1B", "EX2A", "EX2B", "JACKSON1", "JACKSON2", "JACKSON3", "JACKSON4")

    entries = []
    for length in thm1_lengths:
        alphas, betas = _balanced_lists(rng, length, 0.2, 3.0, 0.5)
        for q in thm1_q:
            entries.append((qprod.IdentitySpec("THM1", alphas=alphas, betas=betas, q=q, prec=p_q), 42))
    for n in thm3_orders:
        for q in thm3_q:
            entries.append((qprod.IdentitySpec("THM3_FULL", n=n, q=q, prec=p_q), 40))
            entries.append((qprod.IdentitySpec("THM3_COPRIME", n=n, q=q, prec=p_q), 40))
    for k in moduli:
        for chi in _nonprincipal(k):
            for q in char_q:
                for z in char_z:
                    entries.append((qprod.IdentitySpec("THM5", chi=chi, q=q, z=z, prec=p_char), 40))
                    entries.append((qprod.IdentitySpec("COR6", chi=chi, q=q, z=z, prec=p_char), 40))
    for ident in fixed:
        entries.append((qprod.IdentitySpec(ident, prec=p_char), 40))
    return entries


def _q_near_one(rng: Random, tiny: bool) -> list:
    """Few long kernel calls: q in {0.97, 0.99}, half at 50 and half at 100 digits.

    Orders n and character moduli are fixed per entry; the seed picks the
    character among ones of equal cost (a conjugate pair mod 5, two real
    characters mod 8), z, and alpha/beta.
    """
    P = qprod.Precision
    p50, p100 = P(50), P(100)
    alphas, betas = _balanced_lists(rng, 2, 0.2, 3.0, 0.0)
    chi5 = qprod.enumerate_characters(5)[rng.choice((1, 3))]
    chi8 = qprod.enumerate_characters(8)[rng.choice((2, 3))]
    entries = [
        (qprod.IdentitySpec("THM1", alphas=alphas, betas=betas, q="0.97", prec=p50), 40),
        (qprod.IdentitySpec("COR6", chi=chi8, q="0.97", z=_random_z(rng), prec=p100), 90),
    ]
    if not tiny:
        entries += [
            (qprod.IdentitySpec("THM3_FULL", n=2, q="0.99", prec=p50), 40),
            (qprod.IdentitySpec("THM5", chi=chi5, q="0.99", z=_random_z(rng), prec=p50), 40),
            (qprod.IdentitySpec("THM3_FULL", n=3, q="0.97", prec=p100), 90),
            (qprod.IdentitySpec("THM3_COPRIME", n=3, q="0.97", prec=p100), 90),
        ]
    return entries


def _cor2_instance(rng: Random, quad: float):
    """Seeded length-2 COR2 lists in [0.2, 1.5] with equal sums.

    The sums of squares differ by `quad`, which sets the truncation error
    (about quad / 2N), so digits_agreed does not depend on the seed.
    """
    lo, hi = 2000, 15000
    while True:
        s = rng.randint(2 * lo, 2 * hi)
        a1 = rng.randint(max(lo, s - hi), min(hi, s - lo))
        d_b = math.sqrt((2 * a1 - s) ** 2 + 2 * quad * _UNIT**2)
        b1 = round((s + d_b) / 2)
        if lo <= s - b1 and b1 <= hi:
            return (_dec(a1), _dec(s - a1)), (_dec(b1), _dec(s - b1))


def _slow_products(rng: Random, tiny: bool) -> list:
    """The slowly convergent classical products at fixed term and block counts."""
    p = qprod.Precision(30)
    prototype_terms = 10**4 if tiny else 10**5
    cor2_terms = 10**3 if tiny else 2 * 10**4
    thm4_blocks = 10**3 if tiny else 5 * 10**4
    cor2 = [(("0.5", "0.5"), ("0.25", "0.75"))]
    cor2 += [_cor2_instance(rng, 0.1) for _ in range(1 if tiny else 2)]
    entries = [(qprod.IdentitySpec("PROTOTYPE", terms=prototype_terms, prec=p), 3 if tiny else 4)]
    for alphas, betas in cor2:
        entries.append((qprod.IdentitySpec("COR2", alphas=alphas, betas=betas,
                                           terms=cor2_terms, prec=p), 2 if tiny else 4))
    for k in (3, 4):
        chi = qprod.enumerate_characters(k)[1]
        for z in ("0.5", "-0.5"):
            entries.append((qprod.IdentitySpec("THM4", chi=chi, z=z, blocks=thm4_blocks, prec=p),
                            3 if tiny else 4))
    return entries


_BUILDERS = {"q_families": _q_families, "q_near_one": _q_near_one, "slow_products": _slow_products}


def build_plan(workload: str, seed: int, scale: str = "full") -> tuple:
    """The workload's (IdentitySpec, tolerance) pairs for this seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    rng = Random(f"{workload}:{seed}")
    return tuple(_BUILDERS[workload](rng, scale == "tiny"))


def plan_json(plan) -> str:
    """Canonical serialization of a plan, for byte-level comparisons."""
    return json.dumps([[spec.to_json(), tol] for spec, tol in plan], sort_keys=True)
