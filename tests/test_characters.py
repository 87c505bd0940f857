"""Dirichlet characters with exact root-of-unity values: enumeration,
conductors, multiplicativity, and orthogonality."""

import math
from fractions import Fraction

import pytest

from qprod import characters
from qprod.characters import (
    DirichletCharacter,
    RootOfUnity,
    enumerate_characters,
    legendre_character,
)
from qprod.numtheory import factorize, jacobi_symbol, totient
from qprod.qfunc import Precision, context


def test_root_of_unity_normalization():
    assert RootOfUnity(5, 10) == RootOfUnity(1, 2)
    assert RootOfUnity(7, 4) == RootOfUnity(3, 4)
    assert RootOfUnity(-1, 4) == RootOfUnity(3, 4)
    assert RootOfUnity.one() == RootOfUnity(0, 1)
    assert RootOfUnity.from_fraction(Fraction(3, 12)) == RootOfUnity(1, 4)
    with pytest.raises(ValueError, match="order must be positive"):
        RootOfUnity(1, 0)


def test_root_of_unity_algebra():
    i = RootOfUnity(1, 4)
    assert i * i == RootOfUnity(1, 2)
    assert i**4 == RootOfUnity.one()
    assert i**-1 == RootOfUnity(3, 4)
    assert (i * i**-1).is_one
    assert RootOfUnity(1, 2).as_int() == -1
    assert RootOfUnity.one().as_int() == 1
    with pytest.raises(ValueError):
        i.as_int()
    assert RootOfUnity(1, 2).is_real and not i.is_real
    assert i.as_fraction() == Fraction(1, 4)


def test_root_of_unity_to_complex():
    ctx = context(Precision(40))
    assert RootOfUnity.one().to_complex(ctx) == 1
    assert RootOfUnity(1, 2).to_complex(ctx) == -1
    z = RootOfUnity(1, 4).to_complex(ctx)
    assert abs(z - ctx.mpc(0, 1)) < ctx.mpf(10) ** -45
    for num, order in ((1, 3), (2, 5), (5, 7), (3, 8)):
        z = RootOfUnity(num, order).to_complex(ctx)
        assert abs(abs(z) - 1) < ctx.mpf(10) ** -45
        assert abs(z**order - 1) < ctx.mpf(10) ** -40


def test_mod4_character_table():
    chars = enumerate_characters(4)
    assert len(chars) == 2
    principal, chi = chars
    assert principal.is_principal and principal.index == 0
    assert [principal.value(n) for n in range(1, 5)] == [
        RootOfUnity.one(), None, RootOfUnity.one(), None]
    assert [chi.value(n) for n in range(1, 5)] == [
        RootOfUnity.one(), None, RootOfUnity(1, 2), None]
    assert chi.order == 2
    assert (chi.conductor(), chi.is_primitive) == (4, True)
    assert (principal.conductor(), principal.is_primitive) == (1, False)


def test_mod1_trivial_character():
    chars = enumerate_characters(1)
    assert len(chars) == 1
    chi = chars[0]
    assert chi.is_principal
    for n in range(7):
        assert chi.value(n) == RootOfUnity.one()
    assert (chi.conductor(), chi.is_primitive) == (1, True)


def test_mod5_orders():
    chars = enumerate_characters(5)
    assert sorted(c.order for c in chars) == [1, 2, 4, 4]
    quad = [c for c in chars if c.order == 2][0]
    for n in range(1, 5):
        assert quad.value(n).as_int() == jacobi_symbol(n, 5)
    quart = [c for c in chars if c.order == 4][0]
    assert quart.value(quart.modulus - 1) in (RootOfUnity.one(), RootOfUnity(1, 2))
    # chi(2) generates the order-4 image
    assert (quart.value(2) ** 4).is_one and not (quart.value(2) ** 2).is_one


def test_mod8_conductors():
    chars = enumerate_characters(8)
    assert len(chars) == 4
    facts = {tuple(c.exponents): (c.conductor(), c.is_primitive) for c in chars}
    assert facts[(0, 0)] == (1, False)
    assert facts[(1, 0)] == (4, False)  # induced by the mod-4 character
    assert facts[(0, 1)] == (8, True)
    assert facts[(1, 1)] == (8, True)


def test_legendre_character():
    for p in (3, 5, 7, 11, 13, 17):
        chi = legendre_character(p)
        assert chi.order == 2 and chi.is_primitive
        for n in range(2 * p):
            v = chi.value(n)
            expected = jacobi_symbol(n, p)
            assert (v.as_int() if v is not None else 0) == expected
    with pytest.raises(ValueError):
        legendre_character(2)
    with pytest.raises(ValueError):
        legendre_character(9)


def test_primitive_root_lifts_to_the_prime_square():
    # 5 is the least primitive root mod 40487, but 5^40486 = 1 mod 40487^2,
    # so the generator mod 40487^2 is 5 + 40487
    p = 40487
    assert characters._primitive_root_mod_prime_power(p, 1) == 5
    assert pow(5, p - 1, p * p) == 1
    g = characters._primitive_root_mod_prime_power(p, 2)
    assert g == 40492
    order = p * (p - 1)
    assert all(pow(g, order // r, p * p) != 1 for r, _ in factorize(order))


def test_enumeration_counts_and_distinctness():
    for k in range(1, 25):
        chars = enumerate_characters(k)
        assert len(chars) == totient(k)
        assert chars[0].is_principal
        tables = {tuple(str(c.value(n)) if c.value(n) else "0" for n in range(k))
                  for c in chars}
        assert len(tables) == len(chars)
        for i, c in enumerate(chars):
            assert c.index == i


def test_exact_multiplicativity_and_periodicity():
    for k in range(1, 25):
        for chi in enumerate_characters(k):
            for m in range(2 * k):
                assert chi.value(m) == chi.value(m + k)
                for n in range(k):
                    lhs = chi.value(m * n)
                    a, b = chi.value(m), chi.value(n)
                    rhs = None if a is None or b is None else a * b
                    assert lhs == rhs


def test_vanishing_exactly_off_units():
    for k in (2, 6, 9, 12, 15):
        for chi in enumerate_characters(k):
            for n in range(k):
                assert (chi.value(n) is None) == (math.gcd(n, k) != 1)


def test_character_order_divides_group_order():
    for k in (3, 4, 5, 7, 8, 9, 12, 16, 24):
        for chi in enumerate_characters(k):
            assert totient(k) % chi.order == 0
            # chi^order is principal: value(g)^order = 1 on every unit
            for n in range(1, k):
                v = chi.value(n)
                if v is not None:
                    assert (v**chi.order).is_one


def test_orthogonality_over_n():
    # sum over a full period vanishes for non-principal characters
    ctx = context(Precision(40))
    tiny = ctx.mpf(10) ** -38
    for k in (3, 4, 5, 7, 8, 12):
        for chi in enumerate_characters(k):
            values = (chi.value(n) for n in range(k))
            total = sum((0 if v is None else v.to_complex(ctx) for v in values), ctx.mpc(0))
            if chi.is_principal:
                assert abs(total - totient(k)) < tiny
            else:
                assert abs(total) < tiny


def test_orthogonality_over_characters():
    # sum over all characters of chi(n) detects n = 1 (mod k)
    ctx = context(Precision(40))
    tiny = ctx.mpf(10) ** -38
    for k in (3, 4, 5, 8, 12):
        chars = enumerate_characters(k)
        for n in range(1, k):
            values = (c.value(n) for c in chars)
            total = sum((0 if v is None else v.to_complex(ctx) for v in values), ctx.mpc(0))
            if n % k == 1:
                assert abs(total - len(chars)) < tiny
            elif math.gcd(n, k) == 1:
                assert abs(total) < tiny
            else:
                assert total == 0


def test_real_characters_are_exactly_pm_one():
    # symbolic orthogonality for the order <= 2 characters: integer sums
    for k in (3, 4, 8, 12, 24):
        for chi in enumerate_characters(k):
            if chi.order > 2:
                continue
            ints = [chi.value(n).as_int() if chi.value(n) else 0 for n in range(k)]
            assert sum(ints) == (totient(k) if chi.is_principal else 0)


def test_induced_character_agreement():
    # an imprimitive character equals its primitive inducer on shared units
    for k in (8, 9, 12, 15, 16):
        for chi in enumerate_characters(k):
            f = chi.conductor()
            if f == k:
                continue
            inducers = [
                c for c in enumerate_characters(f)
                if c.is_primitive or f == 1
                if all(
                    chi.value(n) == c.value(n)
                    for n in range(1, 3 * k)
                    if math.gcd(n, k) == 1
                )
            ]
            assert len(inducers) == 1, (k, chi.exponents, f)


def test_conductor_divides_modulus():
    for k in range(1, 30):
        for chi in enumerate_characters(k):
            f = chi.conductor()
            assert k % f == 0
            assert chi.is_primitive == (f == k)
            # principal characters always have conductor 1
            if chi.is_principal:
                assert f == 1


def test_character_json_roundtrip():
    for k in (1, 4, 8, 12):
        for chi in enumerate_characters(k):
            obj = chi.to_json()
            assert (obj["modulus"], obj["exponents"]) == (k, list(chi.exponents))
            assert obj["conductor"] == chi.conductor()
            assert obj["primitive"] == chi.is_primitive
            table = obj["value_table"]
            assert len(table) == k
            # n runs 1..k, and chi(k) = chi(0) vanishes except for k = 1
            assert table[k - 1] == ([0, 1] if k == 1 else None)


def test_character_validation():
    with pytest.raises(ValueError):
        DirichletCharacter(0, ())
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        enumerate_characters(0)
    with pytest.raises(ValueError):
        DirichletCharacter(4, (1, 1))  # wrong exponent arity


def test_str_forms():
    chi = enumerate_characters(4)[1]
    s = str(chi)
    assert "mod 4" in s and "primitive" in s
    assert str(RootOfUnity(1, 4)) == "e(2*pi*i*1/4)"
    assert str(RootOfUnity.one()) == "1"
