import random
from fractions import Fraction

import pytest

from edspower import (
    QuadElement,
    SplitType,
    prime_valuation,
    primes_above,
    splitting_type,
)
from edspower.quadfield import _lift_root, _sqrt_mod_p

from helpers import is_prime_oracle


def test_element_arithmetic():
    r5 = QuadElement(5, 0, 1)
    z = (1 + r5) * (1 + r5)
    assert z == QuadElement(5, 6, 2)
    assert (3 + 2 * r5) - (1 + r5) == QuadElement(5, 2, 1)
    assert -QuadElement(5, 2, -3) == QuadElement(5, -2, 3)
    assert r5 * r5 == QuadElement(5, 5, 0)
    assert QuadElement(5, 2, 3) ** 0 == QuadElement(5, 1, 0)
    assert QuadElement(5, 2, 3) ** 3 == QuadElement(5, 2, 3) * QuadElement(5, 2, 3) * QuadElement(5, 2, 3)


def test_norm_and_conjugate():
    z = QuadElement(5, 3, 2)
    assert z.norm() == 9 - 5 * 4
    assert z.conjugate() == QuadElement(5, 3, -2)
    assert z * z.conjugate() == QuadElement(5, z.norm(), 0)
    assert QuadElement(5, 0, 1).norm() == -5


def test_rational_field_folds():
    z = QuadElement(1, 2, 3)
    assert (z.x, z.y) == (5, 0)
    assert z.norm() == 25
    assert QuadElement(1, 0, 1) == QuadElement(1, 1, 0)


def test_integrality_and_zero():
    assert QuadElement(5, 2, 3).is_integral
    assert not QuadElement(5, Fraction(1, 2), 3).is_integral
    assert QuadElement(5, 0, 0).is_zero
    with pytest.raises(ValueError):
        QuadElement(0, 1, 1)
    with pytest.raises(ValueError):
        QuadElement(-5, 1, 1)


def test_field_label_must_be_squarefree():
    with pytest.raises(ValueError):
        splitting_type(12, 7)
    with pytest.raises(ValueError):
        primes_above(4, 7)


def test_splitting_types():
    assert splitting_type(5, 11) == SplitType.SPLIT  # 4^2 = 16 = 5 mod 11
    assert splitting_type(5, 7) == SplitType.INERT
    assert splitting_type(5, 5) == SplitType.RAMIFIED
    assert splitting_type(5, 2) == SplitType.INERT  # 5 = 5 mod 8
    assert splitting_type(17, 2) == SplitType.SPLIT  # 17 = 1 mod 8
    assert splitting_type(3, 2) == SplitType.RAMIFIED  # 3 mod 4
    assert splitting_type(6, 2) == SplitType.RAMIFIED  # even
    assert splitting_type(6, 3) == SplitType.RAMIFIED
    assert splitting_type(1, 11) == SplitType.SPLIT
    assert splitting_type(1, 2) == SplitType.SPLIT


def test_splitting_matches_euler_criterion():
    rng = random.Random(11)
    primes = [p for p in range(3, 300) if is_prime_oracle(p)]
    for a in (2, 3, 5, 7, 10, 13, 15, 21):
        for p in primes:
            kind = splitting_type(a, p)
            if a % p == 0:
                assert kind == SplitType.RAMIFIED
            elif pow(a, (p - 1) // 2, p) == 1:
                assert kind == SplitType.SPLIT
            else:
                assert kind == SplitType.INERT


def test_primes_above_structure():
    split = primes_above(5, 11)
    assert len(split) == 2
    roots = sorted(P.root for P in split)
    assert roots == [4, 7]
    for P in split:
        assert P.residue_norm == 11
        assert P.root * P.root % 11 == 5
    inert = primes_above(5, 7)
    assert len(inert) == 1 and inert[0].residue_norm == 49 and inert[0].root is None
    ram = primes_above(5, 5)
    assert len(ram) == 1 and ram[0].residue_norm == 5
    rational = primes_above(1, 7)
    assert len(rational) == 1 and rational[0].root == 1 and rational[0].residue_norm == 7


def test_sqrt_mod_p_all_residue_classes():
    # covers the 3 mod 4, 5 mod 8, and 1 mod 8 branches
    for a, p in ((5, 11), (2, 7), (5, 29), (10, 13), (2, 17), (13, 17), (5, 41), (3, 97)):
        r = _sqrt_mod_p(a, p)
        assert r * r % p == a % p


def test_root_lifting():
    r = _lift_root(5, 11, 4, 3)
    assert r * r % 11**3 == 5
    assert r % 11 == 4


def test_prime_valuation_conjugates():
    z = QuadElement(5, 4, 1)  # norm 11
    vals = sorted(prime_valuation(z, P) for P in primes_above(5, 11))
    assert vals == [0, 1]
    # the prime whose root is 7 carries the valuation: 4 + 7 = 11
    P7 = next(P for P in primes_above(5, 11) if P.root == 7)
    assert prime_valuation(z, P7) == 1


def test_prime_valuation_inert():
    P = primes_above(5, 7)[0]
    assert prime_valuation(QuadElement(5, 2, 1), P) == 0  # norm -1
    z = QuadElement(5, 7, 7)  # norm 49 * (1 - 5)
    assert prime_valuation(z, P) == 1
    assert prime_valuation(z * z, P) == 2


def test_prime_valuation_powers_and_rational_integers():
    P7 = next(P for P in primes_above(5, 11) if P.root == 7)
    z = QuadElement(5, 4, 1)
    for e in range(1, 6):
        assert prime_valuation(z**e, P7) == e
    # rational integer: both conjugate valuations equal the p-adic one
    eleven = QuadElement(5, 11**3, 0)
    for P in primes_above(5, 11):
        assert prime_valuation(eleven, P) == 3


def test_prime_valuation_sums_to_norm_valuation():
    rng = random.Random(13)
    for _ in range(60):
        a = rng.choice([2, 3, 5, 13])
        x = rng.randrange(-50, 51)
        y = rng.randrange(-50, 51)
        z = QuadElement(a, x, y)
        if z.is_zero:
            continue
        for p in (7, 11, 13, 17, 19, 23):
            kind = splitting_type(a, p)
            if kind == SplitType.RAMIFIED:
                continue
            n = z.norm()
            from edspower import valuation

            vn = valuation(n, p) if n % p == 0 else 0
            vals = [prime_valuation(z, P) for P in primes_above(a, p)]
            if kind == SplitType.SPLIT:
                assert sum(vals) == vn
            else:
                assert vals[0] * 2 == vn


def test_prime_valuation_rejections():
    P = primes_above(5, 11)[0]
    with pytest.raises(ValueError):
        prime_valuation(QuadElement(5, 0, 0), P)
    with pytest.raises(ValueError):
        prime_valuation(QuadElement(5, Fraction(1, 2), 1), P)
    with pytest.raises(ValueError):
        prime_valuation(QuadElement(3, 1, 1), P)  # field mismatch
    ram = primes_above(5, 5)[0]
    with pytest.raises(ValueError):
        prime_valuation(QuadElement(5, 1, 1), ram)
    two = primes_above(5, 2)[0]
    with pytest.raises(ValueError):
        prime_valuation(QuadElement(5, 1, 1), two)


def test_element_display():
    assert str(QuadElement(5, 2, 3)) == "2 + 3*sqrt(5)"
    assert str(QuadElement(5, 2, 0)) == "2"
