import random
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import count, islice

import pytest

from edspower import (
    Budget,
    BudgetExhausted,
    exact_root,
    factorize,
    is_probable_prime,
    perfect_power,
    valuation,
)
from edspower import arith
from edspower.arith import _floor_root
from edspower.quadfield import _require_squarefree

from helpers import (
    factor_oracle,
    iroot_oracle,
    is_prime_oracle,
    perfect_power_oracle,
    perfect_power_root_oracle,
    reassembled,
    small_peak,
    trial_factors_oracle,
)


def test_primality_small_range():
    for n in range(-2, 2000):
        assert is_probable_prime(n) == is_prime_oracle(n), n


def test_primality_carmichael_and_strong_pseudoprimes():
    # Carmichael numbers fool Fermat tests but not strong tests
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
        assert not is_probable_prime(n)
    # strong pseudoprimes to base 2
    for n in (2047, 3277, 4033, 4681, 8321):
        assert not is_probable_prime(n)


def test_primality_large():
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(2**67 - 1)  # 193707721 * 761838257287
    assert is_probable_prime(2**89 - 1)
    assert is_probable_prime(10**18 + 9)
    assert not is_probable_prime(10**18 + 7)


def test_factorize_matches_oracle():
    for n in range(1, 3000):
        f = factorize(n)
        assert f.is_complete
        assert f.factors == factor_oracle(n)
        assert reassembled(f) == n


def test_factorize_negative_and_zero():
    # magnitudes only: factorize(-n) == factorize(n)
    f = factorize(-12)
    assert f.factors == {2: 2, 3: 1}
    assert reassembled(f) == 12
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_beyond_trial_division():
    n = 99999989 * 99999971  # both prime, far above the trial bound
    f = factorize(n)
    assert f.is_complete
    assert f.factors == {99999971: 1, 99999989: 1}

    n = 1000003**3 * 1000033
    f = factorize(n)
    assert f.is_complete
    assert f.factors == {1000003: 3, 1000033: 1}
    # the rho stage takes whatever trial division leaves, 1 included
    assert arith.rho_factors(1, arith.DEFAULT_BUDGET) == ({}, 1)


def test_factorize_budget_exhaustion_reported():
    n = 99999989 * 99999971
    f = factorize(n, Budget(trial_bound=100, rho_iterations=8))
    assert not f.is_complete
    assert f.unfactored_cofactor > 1
    assert reassembled(f) == n


def test_factorize_is_deterministic():
    n = 76185612469 * 9334605488291
    effort = Budget(rho_iterations=1_000_000)
    a = factorize(n, effort)
    b = factorize(n, effort)
    assert a == b
    assert a.is_complete
    assert a.factors == {76185612469: 1, 9334605488291: 1}
    # under-budgeted runs are deterministic too
    little = Budget(rho_iterations=100)
    assert factorize(n, little) == factorize(n, little)


def test_budget_validation():
    Budget(trial_bound=2, rho_iterations=0)  # the least accepted values
    for kwargs, field in (
        ({"trial_bound": 1}, "trial_bound"),
        ({"trial_bound": 1000.0}, "trial_bound"),
        ({"trial_bound": True}, "trial_bound"),
        ({"rho_iterations": -1}, "rho_iterations"),
        ({"rho_iterations": "10"}, "rho_iterations"),
    ):
        with pytest.raises(ValueError, match=field):
            Budget(**kwargs)


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(48, 5) == 0
    assert valuation(-8, 2) == 3
    assert valuation(7**100 * 3, 7) == 100
    with pytest.raises(ValueError):
        valuation(0, 2)
    with pytest.raises(ValueError):
        valuation(12, 4)
    # numbers below 2 are refused by the primality test, with the same message
    for p in (1, 0, -3):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            valuation(8, p)


def test_floor_root_matches_bisection():
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randrange(1, 10**24)
        k = rng.randrange(1, 12)
        assert _floor_root(n, k) == iroot_oracle(n, k)
    # boundary values around exact powers
    for w in (2, 3, 10, 99, 1024):
        for k in (2, 3, 5, 7):
            assert _floor_root(w**k, k) == w
            assert _floor_root(w**k - 1, k) == w - 1
            assert _floor_root(w**k + 1, k) == w


def test_floor_root_matches_bisection_to_2048_bits():
    # Newton from above stops at the floor with no correction step
    rng = random.Random(22)
    for _ in range(200):
        n = rng.randrange(1, 1 << rng.randrange(1, 2049))
        k = rng.randrange(1, 65)
        assert _floor_root(n, k) == iroot_oracle(n, k), (n, k)
    for _ in range(100):
        k = rng.randrange(2, 65)
        w = rng.randrange(2, 1 << max(2, 2048 // k))
        for n in (w**k - 1, w**k, w**k + 1):
            assert _floor_root(n, k) == iroot_oracle(n, k), (n, k)
    # n = 1, and every n of exactly k bits, whose root is 1: Newton takes
    # them from its start 1 << ceil(bits(n)/k) like any other input
    for k in range(1, 65):
        for n in (1, 1 << (k - 1), (1 << k) - 1):
            assert _floor_root(n, k) == iroot_oracle(n, k), (n, k)


def test_trial_factors_matches_trial_division():
    for bound in range(2, 13):
        for m in range(1, 5001):
            assert list(arith.trial_factors(m, bound)) == trial_factors_oracle(m, bound), (m, bound)
    # a bound below 5 still strips 2, 3 and 5; 49 is left for the rho stage
    assert list(arith.trial_factors(2**3 * 3**2 * 5 * 49, 2)) == [
        (2, 3, 3**2 * 5 * 49), (3, 2, 5 * 49), (5, 1, 49),
    ]


def test_exact_root():
    assert exact_root(36, 2) == 6
    assert exact_root(729, 3) == 9
    assert exact_root(729, 6) == 3
    assert exact_root(37, 2) is None
    assert exact_root(1, 2) == 1
    rng = random.Random(21)
    for _ in range(200):
        w = rng.randrange(2, 10**6)
        ell = rng.randrange(2, 8)
        assert exact_root(w**ell, ell) == w
    with pytest.raises(ValueError):
        exact_root(0, 2)
    with pytest.raises(ValueError):
        exact_root(8, 0)
    # ell = 1 is the identity, and 1 is its own root for every ell
    assert exact_root(8, 1) == 8
    assert exact_root(1, 1) == 1
    # ell >= bits(n) leaves no root above 1: answered without 2^(ell-1)
    with small_peak():
        assert exact_root(19679, 10**8) is None
        assert exact_root(1, 10**8) == 1


def test_perfect_power_small_range():
    for n in range(2, 2000):
        assert perfect_power(n) == perfect_power_oracle(n), n


def test_perfect_power_maximal_exponent():
    assert perfect_power(36) == (6, 2)
    assert perfect_power(729) == (3, 6)
    assert perfect_power(2**10) == (2, 10)
    assert perfect_power(6**6) == (6, 6)
    assert perfect_power(2**4 * 3**4) == (6, 4)
    rng = random.Random(22)
    for _ in range(100):
        w = rng.randrange(2, 5000)
        ell = rng.randrange(2, 8)
        base, exp = perfect_power(w**ell)
        assert base**exp == w**ell
        assert exp % ell == 0 or ell % exp == 0 or exp >= ell
        # maximality: the base admits no further root
        assert perfect_power(base) is None
    # 1 is no w**ell with w > 1
    assert perfect_power(1) is None
    with pytest.raises(ValueError):
        perfect_power(0)


def _row(q: int) -> list[tuple[int, int]]:
    """The witness table's row for the prime q: the row beside q in the prime list."""
    primes = arith._primes_through(q)
    return arith._witness_rows(primes)[primes.index(q)]


def _witnesses_oracle(q: int):
    """The odd primes r = 1 (mod q), in increasing order, by trial division."""
    return (r for r in count(q + 1, q) if r % 2 and is_prime_oracle(r))


def test_witnesses_are_the_first_primes_one_mod_q():
    # each row lists the first 8 odd primes r = 1 (mod q) as (r, (r-1)/q);
    # 1 is a q-th power residue at every witness, so the whole row is built
    for q in (2, 3, 5, 7, 11, 13, 97, 1009):
        row = _row(q)
        assert arith._survivor_root(1, q, row) == 1
        assert row == [(r, (r - 1) // q) for r in islice(_witnesses_oracle(q), 8)], q


def test_witness_table_holds_under_threads(monkeypatch):
    # threads that grow the table at once may repeat a witness or build a row
    # twice, but each row lies beside its prime and holds only its witnesses
    rng = random.Random(27)
    inputs = [rng.randrange(2 ** (bits - 1), 2**bits) for bits in range(8, 1200, 37)]
    inputs += [w**ell for w, ell in ((3, 200), (10**30 + 3, 14), (rng.randrange(2**90, 2**91), 11))]
    expected = [perfect_power(n) for n in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(arith, "_sieved", (1, []))
            monkeypatch.setattr(arith, "_witnesses", [])
            with ThreadPoolExecutor(8) as pool:
                results = list(pool.map(perfect_power, inputs * 4, timeout=120))
            assert results == expected * 4
            for q, row in zip(arith._primes_through(1), arith._witnesses):
                r = next(_witnesses_oracle(q))
                assert row[0] == (r, (r - 1) // q), q
                assert all(r % 2 and r % q == 1 and e == (r - 1) // q and is_prime_oracle(r) for r, e in row), q
    finally:
        sys.setswitchinterval(interval)


def test_first_witness_settles_most_exponents_inline(monkeypatch):
    # a near-miss of about 2,000 bits: only the q whose first witness r divides
    # n or finds n a q-th power residue mod r go on to the rest of the row
    rng = random.Random(26)
    n = rng.randrange(2**284, 2**285) ** 7 + 1
    standing = []
    for q in filter(is_prime_oracle, range(2, n.bit_length() + 1)):
        r = next(_witnesses_oracle(q))
        if n % r == 0 or pow(n, (r - 1) // q, r) == 1:
            standing.append(q)
    survivor, reached = arith._survivor_root, []
    monkeypatch.setattr(arith, "_survivor_root", lambda n, q, row: reached.append(q) or survivor(n, q, row))
    assert perfect_power(n) is None
    assert reached == standing and len(standing) < 10


def test_prime_list_is_kept_and_grown_by_doubling(monkeypatch):
    # perfect_power walks one module-level list of the primes up to a bound,
    # re-sieved at twice the bound (or at the limit) only when a limit passes it
    monkeypatch.setattr(arith, "_sieved", (1, []))
    for limit, bound in [(5, 5), (6, 10), (7, 10), (10, 10), (25, 25), (26, 50), (3, 50)]:
        primes = arith._primes_through(limit)
        assert arith._sieved == (bound, primes), limit
        assert primes == [p for p in range(bound + 1) if is_prime_oracle(p)], limit
    assert perfect_power(3**200) == (3, 200) and arith._sieved[0] == 317


def _planted(rng, bits: int, ell: int) -> int:
    return rng.randrange(2 ** (bits // ell - 1), 2 ** (bits // ell)) ** ell


def test_perfect_power_planted_matches_root_oracle():
    rng = random.Random(23)
    for ell in range(2, 17):
        for bits in (40, 1000, 2000, 3000):
            n = _planted(rng, bits, ell)
            assert perfect_power(n) == perfect_power_root_oracle(n), (ell, bits)
            assert perfect_power(n)[1] % ell == 0
        # bases that are themselves powers
        for k in (2, 3, 5):
            v = rng.randrange(2, 2 ** (1500 // (k * ell)))
            n = v ** (k * ell)
            assert perfect_power(n) == perfect_power_root_oracle(n), (ell, k)
            assert perfect_power(n)[1] % (k * ell) == 0


def test_perfect_power_near_misses_match_root_oracle():
    rng = random.Random(24)
    sizes = (1000, 2000, 3000)
    for ell in range(2, 17):
        n = _planted(rng, sizes[ell % 3], ell)
        for near in (n - 1, n + 1, n * 3, n * 10007):
            assert perfect_power(near) == perfect_power_root_oracle(near), ell


def test_perfect_power_base_divisible_by_first_witness():
    # the first witness for q divides n, so it says nothing about q
    rng = random.Random(25)
    for q, r in ((2, 3), (3, 7), (5, 11)):
        assert next(_witnesses_oracle(q)) == r
        for bits in (60, 1200, 2400):
            w = r * rng.randrange(2 ** (bits // q - 4), 2 ** (bits // q - 3))
            for n in (w**q, w ** (2 * q)):
                assert perfect_power(n) == perfect_power_root_oracle(n), (q, bits)
                assert perfect_power(n)[1] % q == 0
    # every witness for q = 2 divides n, so exact_root alone decides
    all_two = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    k = rng.randrange(2**500, 2**501)
    assert perfect_power((all_two * k) ** 2) == perfect_power_root_oracle((all_two * k) ** 2)
    assert perfect_power(all_two * k * k) == perfect_power_root_oracle(all_two * k * k)
    assert _row(2) == [(r, (r - 1) // 2) for r in (3, 5, 7, 11, 13, 17, 19, 23)]
    # n = c^q (mod r) at the first witness r yet no power, so a later
    # witness or exact_root decides
    for q, r in ((2, 3), (3, 7), (5, 11)):
        for bits in (60, 1200, 2400):
            n = rng.randrange(2 ** (bits - 1), 2**bits)
            n += (pow(rng.randrange(1, r), q, r) - n) % r
            assert pow(n, (r - 1) // q, r) == 1
            assert perfect_power_root_oracle(n) is None, (q, bits)
            assert perfect_power(n) is None, (q, bits)


def _split(n: int) -> tuple[int, int]:
    """n = a*u^2 with a squarefree, read off a complete factorization of n."""
    f = factorize(n)
    assert f.is_complete
    a = u = 1
    for p, e in f.factors.items():
        a *= p ** (e % 2)
        u *= p ** (e // 2)
    return a, u


def test_squarefree_split():
    assert _split(1) == (1, 1)
    assert _split(12) == (3, 2)
    assert _split(500) == (5, 10)
    assert _split(6241) == (1, 79)
    for n in range(1, 800):
        a, u = _split(n)
        assert a * u * u == n
        assert _split(a) == (a, 1)
        _require_squarefree(a, factorize(a))
        if u > 1:
            with pytest.raises(ValueError, match=f"a = {n} is not squarefree"):
                _require_squarefree(n, factorize(n))
    # the check needs the complete factorization: a short budget is refused
    n = 99999989 * 99999971
    f = factorize(n, Budget(trial_bound=100, rho_iterations=4))
    assert not f.is_complete
    with pytest.raises(BudgetExhausted):
        _require_squarefree(n, f)


def test_is_squarefree():
    for n in (1, 30):
        _require_squarefree(n, factorize(n))
    for n in (12, 49):
        with pytest.raises(ValueError, match="not squarefree"):
            _require_squarefree(n, factorize(n))
