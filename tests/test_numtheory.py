"""Exact arithmetic: multiplicative functions, polynomials, and the
Moebius product over 1 - x^d reduced to cyclotomic form."""

import math
import time
from fractions import Fraction

import pytest

from oracles import cyclotomic_by_mobius
from qprod.numtheory import (
    IntPolynomial,
    RationalPolyFraction,
    cyclotomic,
    divisors,
    factorize,
    jacobi_symbol,
    mobius,
    psi_by_definition,
    psi_reduced,
    radical,
    totient,
)


def test_factorize():
    assert factorize(1) == ()
    assert factorize(2) == ((2, 1),)
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(2**20) == ((2, 20),)
    assert factorize(97) == ((97, 1),)
    assert factorize(91) == ((7, 1), (13, 1))
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)
    for not_int in (2.0, True):
        with pytest.raises(ValueError, match="positive integer"):
            factorize(not_int)


def test_divisors():
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(36) == (1, 2, 3, 4, 6, 9, 12, 18, 36)
    for n in range(1, 200):
        ds = divisors(n)
        assert all(n % d == 0 for d in ds)
        assert len(ds) == sum(1 for d in range(1, n + 1) if n % d == 0)


def test_mobius_totient_radical():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert mobius(30) == -1
    assert mobius(2 * 3 * 5 * 7) == 1
    assert totient(1) == 1
    assert totient(12) == 4
    assert totient(97) == 96
    assert totient(360) == 96
    assert radical(1) == 1
    assert radical(12) == 6
    assert radical(360) == 30
    assert radical(2**10) == 2


def test_mobius_sum_identities():
    # sum_{d|n} mu(d) vanishes beyond n = 1; sum mu(d)/d = phi(n)/n exactly
    for n in range(2, 1001):
        assert sum(mobius(d) for d in divisors(n)) == 0
        s = sum(Fraction(mobius(d), d) for d in divisors(n))
        assert s == Fraction(totient(n), n)
    assert sum(mobius(d) for d in divisors(1)) == 1


def test_totient_is_multiplicative():
    for m in range(1, 40):
        for n in range(1, 40):
            if math.gcd(m, n) == 1:
                assert totient(m * n) == totient(m) * totient(n)


def test_jacobi_symbol():
    assert jacobi_symbol(1, 1) == 1
    assert jacobi_symbol(2, 3) == -1
    assert jacobi_symbol(2, 7) == 1
    assert jacobi_symbol(5, 9) == 1
    assert jacobi_symbol(3, 9) == 0
    assert jacobi_symbol(-1, 5) == 1
    assert jacobi_symbol(-1, 3) == -1
    # squares are residues
    for m in (3, 5, 7, 11, 13):
        for a in range(1, m):
            assert jacobi_symbol(a * a, m) == 1
    with pytest.raises(ValueError):
        jacobi_symbol(2, 4)
    with pytest.raises(ValueError):
        jacobi_symbol(2, -3)
    with pytest.raises(ValueError, match="numerator"):
        jacobi_symbol(1.5, 3)


# ---------------------------------------------------------------------------
# IntPolynomial


def test_polynomial_basics():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial(()).is_zero
    assert IntPolynomial.zero().degree == -1
    assert IntPolynomial.one().coeffs == (1,)
    assert IntPolynomial.x_power_minus_one(3).coeffs == (-1, 0, 0, 1)
    with pytest.raises(ValueError):
        IntPolynomial((1, Fraction(1, 2)))
    with pytest.raises(ValueError, match="no leading coefficient"):
        IntPolynomial.zero().leading
    assert IntPolynomial.zero().substitute_power(3).is_zero
    # a polynomial equals only a polynomial, never an int
    assert IntPolynomial.one() != 1


def test_polynomial_arithmetic():
    x3m1 = IntPolynomial.x_power_minus_one(3)
    xm1 = IntPolynomial.x_power_minus_one(1)
    assert x3m1.exact_div(xm1).coeffs == (1, 1, 1)
    assert (xm1 * IntPolynomial((1, 1, 1))) == x3m1
    assert (x3m1 - x3m1).is_zero
    assert (x3m1 + (-x3m1)).is_zero
    with pytest.raises(ValueError):
        x3m1.exact_div(IntPolynomial((1, 1)))
    with pytest.raises(ZeroDivisionError):
        x3m1.exact_div(IntPolynomial.zero())
    assert IntPolynomial((1,)) + xm1 == IntPolynomial((0, 1))
    assert (x3m1 * IntPolynomial.zero()).is_zero
    assert IntPolynomial.zero().exact_div(xm1).is_zero
    with pytest.raises(ValueError):
        xm1.exact_div(x3m1)


def test_polynomial_substitute_power():
    p = IntPolynomial((1, -1, 2))  # 1 - x + 2x^2
    assert p.substitute_power(2).coeffs == (1, 0, -1, 0, 2)
    assert p.substitute_power(1) == p


def test_polynomial_str_and_json():
    assert str(IntPolynomial((1, -1, 1))) == "1 - x + x^2"
    assert str(IntPolynomial((-1, 1))) == "-1 + x"
    assert str(IntPolynomial((0, 0, 3))) == "3*x^2"
    assert str(IntPolynomial.zero()) == "0"
    # coefficients lowest degree first, trailing zeros dropped
    assert IntPolynomial((2, 0, -5, 1, 0)).to_json() == [2, 0, -5, 1]


def test_exact_div_non_unit_leading_coefficient():
    two_x_plus_one = IntPolynomial((1, 2))
    f = two_x_plus_one * IntPolynomial((3, 1))
    assert f.exact_div(two_x_plus_one) == IntPolynomial((3, 1))
    assert (IntPolynomial((3,)) * f).exact_div(IntPolynomial((3, 6))) == IntPolynomial((3, 1))
    # quotients with a non-integer coefficient, or a nonzero remainder
    with pytest.raises(ValueError):
        IntPolynomial((1, 1)).exact_div(IntPolynomial((1, 2)))
    with pytest.raises(ValueError):
        IntPolynomial((2, 0, 2)).exact_div(IntPolynomial((1, 2)))


def test_polynomial_hash_and_repr():
    p = IntPolynomial((1, -2, 3))
    assert hash(p) == hash(IntPolynomial([1, -2, 3, 0])) and eval(repr(p)) == p
    r = RationalPolyFraction(IntPolynomial((2, 2)), IntPolynomial((-4, 0, 4)))
    same = RationalPolyFraction(IntPolynomial((-1,)), IntPolynomial((2, -2)))
    assert r == same and eval(repr(r)) == r


# ---------------------------------------------------------------------------
# Cyclotomic polynomials


def test_cyclotomic_small():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(3).coeffs == (1, 1, 1)
    assert cyclotomic(4).coeffs == (1, 0, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)
    assert cyclotomic(7).coeffs == (1,) * 7


def test_cyclotomic_degree_and_constant_term():
    for n in range(1, 121):
        phi = cyclotomic(n)
        assert phi.degree == totient(n)
        assert phi.leading == 1
        if n >= 2:
            assert phi.coeffs[0] == 1


def test_cyclotomic_product_identity():
    # x^n - 1 = prod_{d | n} Phi_d
    for n in range(1, 101):
        prod = IntPolynomial.one()
        for d in divisors(n):
            prod = prod * cyclotomic(d)
        assert prod == IntPolynomial.x_power_minus_one(n)


def test_cyclotomic_against_mobius_route():
    for n in range(1, 61):
        assert cyclotomic(n) == cyclotomic_by_mobius(n)


def test_cyclotomic_105_has_coefficient_two():
    # first index with a coefficient outside {-1, 0, 1}
    assert cyclotomic(105).coeffs[7] == -2
    assert all(abs(c) <= 1 for n in range(1, 105) for c in cyclotomic(n).coeffs)


# ---------------------------------------------------------------------------
# RationalPolyFraction and the Psi reduction


def test_rational_fraction_algebra():
    one = IntPolynomial.one()
    a = RationalPolyFraction(IntPolynomial((1, 1)), one)
    b = RationalPolyFraction(one, IntPolynomial((1, 1)))
    assert a.is_polynomial and not b.is_polynomial
    assert b.to_json() == {"numerator": [1], "denominator": [1, 1]}
    assert str(b) == "(1) / (1 + x)"
    # kept as given: no common factor is divided out and no sign moves
    r = RationalPolyFraction(IntPolynomial((1, -1)), IntPolynomial((-1, 0, 1)))
    assert (r.numerator, r.denominator) == (IntPolynomial((1, -1)), IntPolynomial((-1, 0, 1)))
    assert r == RationalPolyFraction(-one, IntPolynomial((1, 1)))
    assert r != IntPolynomial((1, -1))
    with pytest.raises(TypeError):
        hash(r)
    with pytest.raises(ZeroDivisionError):
        RationalPolyFraction(one, IntPolynomial.zero())


def test_psi_by_definition_small():
    one = IntPolynomial.one()
    assert psi_by_definition(1) == RationalPolyFraction(IntPolynomial((1, -1)), one)
    assert psi_by_definition(2) == RationalPolyFraction(one, IntPolynomial((1, 1)))
    # squarefree n with mu = +1 stays polynomial
    assert psi_by_definition(6) == RationalPolyFraction(cyclotomic(6), one)
    assert psi_by_definition(12) == RationalPolyFraction(cyclotomic(6), one)
    assert psi_by_definition(9) == RationalPolyFraction(one, cyclotomic(3))


def test_psi_reduced_matches_definition():
    for n in range(2, 101):
        poly, exponent = psi_reduced(n)
        assert poly == cyclotomic(radical(n))
        assert exponent == mobius(radical(n))
        direct = psi_by_definition(n)
        if exponent == 1:
            assert direct == RationalPolyFraction(poly, IntPolynomial.one())
        else:
            assert direct == RationalPolyFraction(IntPolynomial.one(), poly)
        # the exact quotient is the reduced form, coefficient for coefficient
        one = IntPolynomial.one()
        parts = (poly, one) if exponent == 1 else (one, poly)
        assert (direct.numerator, direct.denominator) == parts, n


def test_psi_n1_sign_case():
    # Psi_1 = 1 - x = -(x - 1) = -Phi_1: the only n where the identity
    # Psi_n = Phi_rad^mu picks up a sign
    poly, exponent = psi_reduced(1)
    assert poly.coeffs == (1, -1)
    assert exponent == 1
    assert poly == -cyclotomic(1)
    assert psi_by_definition(1) == RationalPolyFraction(-cyclotomic(1), IntPolynomial.one())


def _power_product(n, exponent):
    """prod_{d | n} Psi_d(x)^exponent(d), exponent(d) in {-1, 0, 1}, from IntPolynomial products."""
    num = den = IntPolynomial.one()
    for d in divisors(n):
        psi, e = psi_by_definition(d), exponent(d)
        if e == 1:
            num, den = num * psi.numerator, den * psi.denominator
        elif e == -1:
            num, den = num * psi.denominator, den * psi.numerator
    return RationalPolyFraction(num, den)


def test_psi_mobius_inversion():
    # inverting the defining Moebius convolution recovers 1 - x^n:
    # prod_{d | n} Psi_d(x)^mu(n/d) = (1 - x^n)^mu(n), exact for n <= 100.
    # Note the cofactor exponent mu(n/d); pairing mu with d instead gives
    # the companion product checked in the next test.
    one = IntPolynomial.one()
    unit = RationalPolyFraction(one, one)
    for n in range(1, 101):
        acc = _power_product(n, lambda d: mobius(n // d))
        mu_n = mobius(n)
        if mu_n == 1:
            expected = RationalPolyFraction(-IntPolynomial.x_power_minus_one(n), one)
        elif mu_n == -1:
            expected = RationalPolyFraction(one, -IntPolynomial.x_power_minus_one(n))
        else:
            expected = unit
        assert acc == expected, n


def test_psi_divisor_weighted_product():
    # the same convolution with mu paired to the divisor itself telescopes
    # to the radical: prod_{d | n} Psi_d(x)^mu(d) = 1 - x^rad(n)
    one = IntPolynomial.one()
    for n in range(1, 101):
        acc = _power_product(n, mobius)
        assert acc == RationalPolyFraction(-IntPolynomial.x_power_minus_one(radical(n)), one), n


def test_psi_reduction_lemma_spot_cases():
    # scaling n by p^k collapses: same reduced form when p | n, and the
    # quotient Psi_n(x)/Psi_n(x^p) when p does not divide n
    for p, n in ((2, 6), (3, 6), (5, 10), (2, 9), (3, 25)):
        if n % p == 0:
            for k in (1, 2, 3):
                assert psi_by_definition(p**k * n) == psi_by_definition(n)
        else:
            base = psi_by_definition(n)
            quotient = RationalPolyFraction(
                base.numerator * base.denominator.substitute_power(p),
                base.denominator * base.numerator.substitute_power(p),
            )
            for k in (1, 2, 3):
                assert psi_by_definition(p**k * n) == quotient


def test_psi_full_reduction_sweep_is_fast():
    t0 = time.perf_counter()
    for n in range(2, 301):
        poly, exponent = psi_reduced(n)
        assert psi_by_definition(n) == (
            RationalPolyFraction(poly, IntPolynomial.one())
            if exponent == 1
            else RationalPolyFraction(IntPolynomial.one(), poly)
        )
    assert time.perf_counter() - t0 < 60
