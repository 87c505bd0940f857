"""Dirichlet characters mod k with exact root-of-unity values.

The unit group (Z/kZ)^* is decomposed into cyclic factors via CRT over the
prime-power parts of k (two generators -1, 5 for the 2-adic part when
8 | k).  A character is an integer exponent per factor; evaluation goes
through a precomputed table of exact RootOfUnity values, so multiplicativity
and orthogonality can be tested without any rounding.

Intended modulus range is k <= 1000; the construction is generic beyond that
but the value table is dense in k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _iter_product

from .numtheory import divisors, factorize, totient

__all__ = [
    "DirichletCharacter",
    "RootOfUnity",
    "enumerate_characters",
    "legendre_character",
]


@dataclass(frozen=True)
class RootOfUnity:
    """exp(2*pi*i * numerator/order), held exactly in lowest terms."""

    numerator: int
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        num = self.numerator % self.order
        g = math.gcd(num, self.order)
        object.__setattr__(self, "numerator", num // g)
        object.__setattr__(self, "order", self.order // g)

    @classmethod
    def one(cls) -> "RootOfUnity":
        return cls(0, 1)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "RootOfUnity":
        return cls(f.numerator % f.denominator, f.denominator)

    @property
    def is_one(self) -> bool:
        return self.numerator == 0

    @property
    def is_real(self) -> bool:
        return self.order <= 2

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.order)

    def as_int(self) -> int:
        """1 or -1 for real roots; raises for anything of higher order."""
        if self.order == 1:
            return 1
        if self.order == 2:
            return -1
        raise ValueError(f"root of unity of order {self.order} is not an integer")

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity.from_fraction(self.as_fraction() + other.as_fraction())

    def __pow__(self, e: int) -> "RootOfUnity":
        return RootOfUnity(self.numerator * e, self.order)

    def to_complex(self, ctx):
        """The value as a complex number in the given mpmath context."""
        if self.order == 1:
            return ctx.mpf(1)
        if self.order == 2:
            return ctx.mpf(-1)
        return ctx.expjpi(ctx.mpf(2 * self.numerator) / self.order)

    def __str__(self) -> str:
        if self.order == 1:
            return "1"
        if self.order == 2:
            return "-1"
        return f"e(2*pi*i*{self.numerator}/{self.order})"


# ---------------------------------------------------------------------------
# Unit group structure


def _crt(a1: int, m1: int, a2: int, m2: int) -> int:
    """x with x = a1 (mod m1), x = a2 (mod m2) for coprime m1, m2."""
    t = (a2 - a1) * pow(m1, -1, m2) % m2
    return (a1 + m1 * t) % (m1 * m2)


def _primitive_root_mod_prime_power(p: int, e: int) -> int:
    """A generator of the cyclic group (Z/p^e Z)^* for odd prime p."""
    # smallest primitive root mod p, then adjust so it stays primitive mod p^2
    order = p - 1
    prime_parts = [pp for pp, _ in factorize(order)]
    g = 2
    while True:
        if all(pow(g, order // pp, p) != 1 for pp in prime_parts):
            break
        g += 1
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


@lru_cache(maxsize=None)
def _unit_group(k: int) -> tuple[tuple[int, int], ...]:
    """Cyclic decomposition of (Z/kZ)^* as ((generator, order), ...).

    Generators are lifted to residues mod k that are 1 modulo every other
    prime-power part, so exponent vectors combine independently.
    """
    if k < 1:
        raise ValueError(f"modulus must be >= 1, got {k}")
    gens: list[tuple[int, int]] = []
    for p, e in factorize(k):
        pe = p**e
        rest = k // pe
        if p == 2:
            if e == 1:
                continue  # trivial factor
            if e == 2:
                local = [(3, 2)]
            else:
                local = [(pe - 1, 2), (5, 1 << (e - 2))]
        else:
            local = [(_primitive_root_mod_prime_power(p, e), pe - pe // p)]
        for g, d in local:
            lifted = g if rest == 1 else _crt(g % pe, pe, 1, rest)
            gens.append((lifted, d))
    return tuple(gens)


@lru_cache(maxsize=None)
def _residue_logs(k: int) -> dict[int, tuple[int, ...]]:
    """Map each residue coprime to k to its exponent vector on the generators.

    Every vector e, 0 <= e_i < order(g_i), names the residue prod g_i^(e_i) mod k.
    """
    gens = _unit_group(k)
    return {
        math.prod(pow(g, e, k) for (g, _), e in zip(gens, vec)) % k: vec
        for vec in _iter_product(*(range(d) for _, d in gens))
    }


# ---------------------------------------------------------------------------
# Characters


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod k, as one exponent per cyclic factor of (Z/kZ)^*.

    chi(g_i) = exp(2*pi*i * exponents[i] / order(g_i)); values extend by
    complete multiplicativity and vanish off the coprime residues.
    """

    modulus: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        gens = _unit_group(self.modulus)
        exps = tuple(int(e) for e in self.exponents)
        if len(exps) != len(gens):
            raise ValueError(
                f"modulus {self.modulus} needs {len(gens)} exponents, got {len(exps)}"
            )
        exps = tuple(e % d for e, (_, d) in zip(exps, gens))
        object.__setattr__(self, "exponents", exps)

    # -- evaluation

    def value(self, n: int) -> RootOfUnity | None:
        """chi(n) as an exact root of unity, or None when gcd(n, k) > 1."""
        return _value_table(self.modulus, self.exponents).get(n % self.modulus)

    # -- classification

    @property
    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @property
    def order(self) -> int:
        """Order of the character in the dual group."""
        o = 1
        for e, (_, d) in zip(self.exponents, _unit_group(self.modulus)):
            o = math.lcm(o, d // math.gcd(d, e))
        return o

    def conductor(self) -> int:
        return _conductor(self.modulus, self.exponents)

    @property
    def is_primitive(self) -> bool:
        return self.conductor() == self.modulus

    @property
    def index(self) -> int:
        """Position of this character in enumerate_characters(modulus)."""
        idx = 0
        for e, (_, d) in zip(self.exponents, _unit_group(self.modulus)):
            idx = idx * d + e
        return idx

    # -- presentation

    def __str__(self) -> str:
        kind = "principal" if self.is_principal else f"order {self.order}"
        prim = "primitive" if self.is_primitive else f"conductor {self.conductor()}"
        return f"chi mod {self.modulus} #{self.index} ({kind}, {prim})"

    def to_json(self) -> dict:
        table: list[list[int] | None] = []
        for n in range(1, self.modulus + 1):
            v = self.value(n)
            table.append(None if v is None else [v.numerator, v.order])
        return {
            "modulus": self.modulus,
            "exponents": list(self.exponents),
            "value_table": table,
            "conductor": self.conductor(),
            "primitive": self.is_primitive,
            "principal": self.is_principal,
        }


@lru_cache(maxsize=None)
def _value_table(k: int, exponents: tuple[int, ...]) -> dict[int, RootOfUnity]:
    gens = _unit_group(k)
    table: dict[int, RootOfUnity] = {}
    for r, vec in _residue_logs(k).items():
        f = Fraction(0)
        for e, v, (_, d) in zip(exponents, vec, gens):
            f += Fraction(e * v, d)
        table[r] = RootOfUnity.from_fraction(f)
    return table


@lru_cache(maxsize=None)
def _conductor(k: int, exponents: tuple[int, ...]) -> int:
    chi_table = _value_table(k, exponents)
    # f = k always qualifies
    return next(
        f for f in divisors(k)
        if all(chi_table[a % k].is_one for a in range(1, k + 1) if a % f == 1 % f and math.gcd(a, k) == 1)
    )


# ---------------------------------------------------------------------------
# Module-level operations


def enumerate_characters(k: int) -> tuple[DirichletCharacter, ...]:
    """All totient(k) characters mod k, ordered lexicographically by exponents."""
    gens = _unit_group(k)
    out = tuple(
        DirichletCharacter(modulus=k, exponents=exps)
        for exps in _iter_product(*(range(d) for _, d in gens))
    )
    assert len(out) == totient(k)
    return out


def legendre_character(p: int) -> DirichletCharacter:
    """The quadratic character mod an odd prime p (values = Legendre symbols)."""
    fac = factorize(p)
    if p < 3 or len(fac) != 1 or fac[0][1] != 1:
        raise ValueError(f"p must be an odd prime, got {p}")
    return DirichletCharacter(modulus=p, exponents=((p - 1) // 2,))
