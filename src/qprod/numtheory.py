"""Exact arithmetic for multiplicative number theory and cyclotomic-type polynomials.

Everything in this module is integer-exact: multiplicative functions computed
from trial-division factorizations, dense integer-coefficient polynomials with
exact division, cyclotomic polynomials Phi_n, and the modified cyclotomic
rational functions prod_{d|n} (1 - x^d)^mu(d), reduced by exact division.

Intended argument range is n <= 10**6 (trial division dominates beyond that).
All functions are pure; caches are append-only, so concurrent use is safe.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

__all__ = [
    "IntPolynomial",
    "RationalPolyFraction",
    "cyclotomic",
    "divisors",
    "factorize",
    "jacobi_symbol",
    "mobius",
    "psi_by_definition",
    "psi_reduced",
    "radical",
    "totient",
]


def _check_positive(n: int, what: str = "n") -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{what} must be a positive integer, got {n!r}")
    if n < 1:
        raise ValueError(f"{what} must be >= 1, got {n}")
    return n


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with primes ascending."""
    _check_positive(n)
    out: list[tuple[int, int]] = []
    m = n
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    f = 5
    # trial divisors 5, 7, 11, 13, ... (6k +- 1)
    step = 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            out.append((f, e))
        f += step
        step = 6 - step
    if m > 1:
        out.append((m, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return tuple(sorted(ds))


def mobius(n: int) -> int:
    """Moebius function: 0 if n has a squared prime factor, else (-1)^(number of prime factors)."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def totient(n: int) -> int:
    """Euler totient, the number of 1 <= a <= n coprime to n."""
    t = n
    for p, _ in factorize(n):
        t -= t // p
    return t


def radical(n: int) -> int:
    """Product of the distinct primes dividing n; rad(1) = 1."""
    r = 1
    for p, _ in factorize(n):
        r *= p
    return r


def jacobi_symbol(n: int, m: int) -> int:
    """Jacobi symbol (n|m) for odd positive m, extending the Legendre symbol."""
    if not isinstance(m, int) or m <= 0 or m % 2 == 0:
        raise ValueError(f"modulus must be a positive odd integer, got {m!r}")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"numerator must be an integer, got {n!r}")
    n %= m
    result = 1
    while n:
        while n % 2 == 0:
            n //= 2
            if m % 8 in (3, 5):
                result = -result
        n, m = m, n
        if n % 4 == 3 and m % 4 == 3:
            result = -result
        n %= m
    return result if m == 1 else 0


# ---------------------------------------------------------------------------
# Integer-coefficient polynomials


class IntPolynomial:
    """Dense integer-coefficient polynomial, coefficients stored lowest degree first.

    Immutable.  All arithmetic is exact; exact_div raises if the division
    leaves a remainder.  The zero polynomial has an empty coefficient tuple
    and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"coefficients must be integers, got {c!r}")
        self.coeffs: tuple[int, ...] = tuple(cs)

    # -- constructors

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def x_power_minus_one(cls, n: int) -> "IntPolynomial":
        """x**n - 1."""
        _check_positive(n)
        return cls((-1,) + (0,) * (n - 1) + (1,))

    # -- structure

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        a, b = self.coeffs, other.coeffs
        # iterate over the operand with fewer nonzero terms; binomials like
        # 1 - x^d then cost O(degree) instead of O(degree^2)
        if sum(1 for c in a if c) > sum(1 for c in b if c):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return IntPolynomial(out)

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        """Exact polynomial division; raises ValueError on any nonzero remainder.

        Long division in the integers: when the quotient lies in Z[x], every
        leading coefficient met on the way is a multiple of lc(other).
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return IntPolynomial(())
        if self.degree < other.degree:
            raise ValueError("exact division leaves a remainder")
        rem = list(self.coeffs)
        db = other.degree
        quot = [0] * (len(rem) - db)
        for i in range(len(rem) - db - 1, -1, -1):
            qc, r = divmod(rem[i + db], other.leading)
            if r:
                raise ValueError("exact division leaves a remainder")
            quot[i] = qc
            if qc:
                for j, bj in enumerate(other.coeffs):
                    rem[i + j] -= qc * bj
        if any(rem[:db]):
            raise ValueError("exact division leaves a remainder")
        return IntPolynomial(quot)

    def substitute_power(self, e: int) -> "IntPolynomial":
        """Return p(x**e)."""
        _check_positive(e, "e")
        if self.is_zero:
            return self
        out = [0] * (self.degree * e + 1)
        for i, c in enumerate(self.coeffs):
            out[i * e] = c
        return IntPolynomial(out)

    # -- presentation

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                mag = str(abs(c))
            elif abs(c) == 1:
                mag = "x" if i == 1 else f"x^{i}"
            else:
                mag = f"{abs(c)}*x" if i == 1 else f"{abs(c)}*x^{i}"
            if not parts:
                parts.append(mag if c > 0 else f"-{mag}")
            else:
                parts.append(f"+ {mag}" if c > 0 else f"- {mag}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"

    def to_json(self) -> list[int]:
        """Coefficient list, lowest degree first."""
        return list(self.coeffs)


# ---------------------------------------------------------------------------
# Rational functions


class RationalPolyFraction:
    """Quotient of two integer polynomials, kept as given.

    No gcd is divided out and no sign is moved: the numerator and the
    denominator are the ones passed in.  Equality is decided by
    cross-multiplication, so it holds for any two representations of the
    same rational function.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: IntPolynomial, denominator: IntPolynomial = IntPolynomial((1,))):
        if denominator.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.numerator = numerator
        self.denominator = denominator

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalPolyFraction):
            return (self.numerator * other.denominator) == (other.numerator * self.denominator)
        return NotImplemented

    @property
    def is_polynomial(self) -> bool:
        return self.denominator == IntPolynomial((1,))

    def __str__(self) -> str:
        if self.is_polynomial:
            return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"

    def __repr__(self) -> str:
        return f"RationalPolyFraction({self.numerator!r}, {self.denominator!r})"

    def to_json(self) -> dict:
        return {
            "numerator": self.numerator.to_json(),
            "denominator": self.denominator.to_json(),
        }


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and their modified products


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial Phi_n, by exact division of x**n - 1.

    Phi_n = (x**n - 1) / prod_{d | n, d < n} Phi_d; the recursion bottoms out
    at Phi_1 = x - 1 and every division is checked to be remainder-free.
    """
    _check_positive(n)
    if n == 1:
        return IntPolynomial((-1, 1))
    num = IntPolynomial.x_power_minus_one(n)
    den = IntPolynomial.one()
    for d in divisors(n):
        if d < n:
            den = den * cyclotomic(d)
    return num.exact_div(den)


def psi_by_definition(n: int) -> RationalPolyFraction:
    """The modified cyclotomic rational function prod_{d|n} (1 - x**d)**mu(d).

    Built literally from the divisor product, with Moebius +1 factors in the
    numerator and -1 factors in the denominator.  One of the two always
    divides the other: the result is their exact quotient, a polynomial over
    1 or 1 over a polynomial, and exact_div's remainder check proves it.
    For n = 1 this is simply 1 - x.
    """
    _check_positive(n)
    num = IntPolynomial.one()
    den = IntPolynomial.one()
    for d in divisors(n):
        m = mobius(d)
        if m == 1:
            num = num * -IntPolynomial.x_power_minus_one(d)
        elif m == -1:
            den = den * -IntPolynomial.x_power_minus_one(d)
    if num.degree >= den.degree:
        return RationalPolyFraction(num.exact_div(den))
    return RationalPolyFraction(IntPolynomial.one(), den.exact_div(num))


def psi_reduced(n: int) -> tuple[IntPolynomial, int]:
    """Closed form of psi_by_definition(n) as (base polynomial, exponent in {-1, +1}).

    For n >= 2 the product collapses to Phi_rad(n) ** mu(rad(n)).  n = 1 is the
    lone exception: the value is 1 - x, which is -Phi_1, returned here with
    exponent +1 and the sign folded into the base.
    """
    _check_positive(n)
    if n == 1:
        return IntPolynomial((1, -1)), 1
    r = radical(n)
    return cyclotomic(r), mobius(r)
