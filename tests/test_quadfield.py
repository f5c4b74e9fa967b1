import random
from fractions import Fraction

import pytest

from edspower import (
    BudgetExhausted,
    QuadElement,
    QuadPrime,
    SplitType,
    prime_valuation,
    primes_above,
    valuation,
)
from edspower.quadfield import _sqrt_mod_p

from helpers import is_prime_oracle, prime_valuation_oracle, qmul


def test_rational_field_folds():
    z = QuadElement(1, 2, 3)
    assert (z.x, z.y) == (5, 0)
    assert z.x * z.x - z.a * z.y * z.y == 25
    assert QuadElement(1, 0, 1) == QuadElement(1, 1, 0)


def test_integrality_and_zero():
    with pytest.raises(ValueError):
        QuadElement(5, Fraction(1, 2), 3)
    with pytest.raises(ValueError):
        QuadElement(5, 2, Fraction(3))
    assert QuadElement(5, 0, 0).is_zero
    with pytest.raises(ValueError):
        QuadElement(0, 1, 1)
    with pytest.raises(ValueError):
        QuadElement(-5, 1, 1)


def test_field_label_must_be_squarefree():
    with pytest.raises(ValueError):
        primes_above(12, 7)[0].kind
    with pytest.raises(ValueError):
        primes_above(4, 7)
    with pytest.raises(ValueError, match="a must be a positive integer"):
        primes_above(0, 3)
    with pytest.raises(ValueError, match="4 is not prime"):
        primes_above(5, 4)
    for a in (1, 30):
        primes_above(a, 3)
    for a in (12, 49):
        with pytest.raises(ValueError, match="not squarefree"):
            primes_above(a, 3)
    # exactly the labels a trial oracle finds a square prime factor in
    for a in range(1, 800):
        if any(a % (p * p) == 0 for p in range(2, 29)):
            with pytest.raises(ValueError, match=f"a = {a} is not squarefree"):
                primes_above(a, 3)
        else:
            assert primes_above(a, 3)
    # a = 2199023255713 * 8796093022853 splits only past the default rho budget
    a = 19342813116668607771809189
    with pytest.raises(BudgetExhausted, match=f"^factoring budget exhausted on cofactor {a}$"):
        primes_above(a, 3)


def test_splitting_types():
    assert primes_above(5, 11)[0].kind == SplitType.SPLIT  # 4^2 = 16 = 5 mod 11
    assert primes_above(5, 7)[0].kind == SplitType.INERT
    assert primes_above(5, 5)[0].kind == SplitType.RAMIFIED
    assert primes_above(5, 2)[0].kind == SplitType.INERT  # 5 = 5 mod 8
    assert primes_above(17, 2)[0].kind == SplitType.SPLIT  # 17 = 1 mod 8
    assert primes_above(3, 2)[0].kind == SplitType.RAMIFIED  # 3 mod 4
    assert primes_above(6, 2)[0].kind == SplitType.RAMIFIED  # even
    assert primes_above(6, 3)[0].kind == SplitType.RAMIFIED
    assert primes_above(1, 11)[0].kind == SplitType.SPLIT
    assert primes_above(1, 2)[0].kind == SplitType.SPLIT


def test_splitting_matches_euler_criterion():
    rng = random.Random(11)
    primes = [p for p in range(3, 300) if is_prime_oracle(p)]
    for a in (2, 3, 5, 7, 10, 13, 15, 21):
        for p in primes:
            kind = primes_above(a, p)[0].kind
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
    # p = 3 mod 4, 5 mod 8 and 1 mod 8
    for a, p in ((5, 11), (2, 7), (5, 29), (10, 13), (2, 17), (13, 17), (5, 41), (3, 97)):
        r = _sqrt_mod_p(a, p)
        assert r * r % p == a % p
    assert _sqrt_mod_p(0, 17) == 0 and _sqrt_mod_p(34, 17) == 0 and _sqrt_mod_p(7, 7) == 0
    # the roots printed as QuadPrime.root are the classical closed forms
    for p in (p for p in range(3, 400) if is_prime_oracle(p) and p % 8 != 1):
        for a in {x * x % p for x in range(1, p)}:
            if p % 4 == 3:
                expected = pow(a, (p + 1) // 4, p)
            else:
                expected = pow(a, (p + 3) // 8, p)
                if expected * expected % p != a:
                    expected = expected * pow(2, (p - 1) // 4, p) % p
            assert _sqrt_mod_p(a, p) == expected


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
    assert prime_valuation(qmul(5, (7, 7), (7, 7)), P) == 2


def test_prime_valuation_powers_and_rational_integers():
    P7 = next(P for P in primes_above(5, 11) if P.root == 7)
    for e in range(1, 6):
        assert prime_valuation(qmul(5, *[(4, 1)] * e), P7) == e
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
            Ps = primes_above(a, p)
            kind = Ps[0].kind
            if kind == SplitType.RAMIFIED:
                continue
            n = x * x - a * y * y
            vn = valuation(n, p) if n % p == 0 else 0
            vals = [prime_valuation(z, P) for P in Ps]
            if kind == SplitType.SPLIT:
                assert sum(vals) == vn
            else:
                assert vals[0] * 2 == vn


def test_prime_valuation_matches_lifting_oracle():
    # random elements times planted powers of root + sqrt(a), its conjugate and p
    rng = random.Random(17)
    fields = (1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 17, 21, 29, 41)
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    pairs = positive = 0
    for a in fields:
        for p in primes:
            if a % p == 0:
                continue
            for P in primes_above(a, p):
                r = P.root if P.root is not None else rng.randrange(1, p)
                if a == 1:
                    r = p - 1  # the other root of 1, so that r - sqrt(1) is not 0
                for _ in range(21):
                    z = QuadElement(a, rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6))
                    if z.is_zero:
                        continue
                    z = qmul(a, (z.x, z.y), *[(r, 1)] * rng.randrange(4), *[(r, -1)] * rng.randrange(4),
                             (p ** rng.randrange(3), 0))
                    v = prime_valuation(z, P)
                    assert v == prime_valuation_oracle(z, P), (z, P)
                    pairs += 1
                    positive += v > 0
    assert pairs >= 5000 and positive >= pairs // 2


def test_prime_valuation_rejections():
    P = primes_above(5, 11)[0]
    with pytest.raises(ValueError):
        prime_valuation(QuadElement(5, 0, 0), P)
    with pytest.raises(ValueError):
        QuadElement(5, Fraction(1, 2), 1)  # such an element cannot reach prime_valuation
    with pytest.raises(ValueError):
        prime_valuation(QuadElement(3, 1, 1), P)  # field mismatch
    ram = primes_above(5, 5)[0]
    with pytest.raises(ValueError):
        prime_valuation(QuadElement(5, 1, 1), ram)
    two = primes_above(5, 2)[0]
    with pytest.raises(ValueError):
        prime_valuation(QuadElement(5, 1, 1), two)
    # a ramified prime over an odd p not dividing a comes out of no primes_above
    hand_built = QuadPrime(5, 7, SplitType.RAMIFIED, None, 7)
    with pytest.raises(ValueError, match="ramified primes are out of scope"):
        prime_valuation(QuadElement(5, 1, 1), hand_built)


def test_element_display():
    assert str(QuadElement(5, 2, 3)) == "2 + 3*sqrt(5)"
    assert str(QuadElement(5, 2, 0)) == "2"
