import random

import pytest

from edspower import (
    Budget,
    BudgetExhausted,
    exact_root,
    factorize,
    is_probable_prime,
    is_squarefree,
    perfect_power,
    squarefree_split,
    valuation,
)
from edspower.arith import _floor_root

from helpers import factor_oracle, iroot_oracle, is_prime_oracle, perfect_power_oracle


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
        assert f.magnitude() == n


def test_factorize_negative_and_zero():
    # magnitudes only: factorize(-n) == factorize(n)
    f = factorize(-12)
    assert f.factors == {2: 2, 3: 1}
    assert f.magnitude() == 12
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


def test_factorize_budget_exhaustion_reported():
    n = 99999989 * 99999971
    f = factorize(n, Budget(trial_bound=100, rho_iterations=8))
    assert not f.is_complete
    assert f.unfactored_cofactor > 1
    assert f.magnitude() == n


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
        exact_root(8, 1)


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
    with pytest.raises(ValueError):
        perfect_power(1)


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(12) == (3, 2)
    assert squarefree_split(500) == (5, 10)
    assert squarefree_split(6241) == (1, 79)
    for n in range(1, 800):
        a, u = squarefree_split(n)
        assert a * u * u == n
        assert is_squarefree(a)
    with pytest.raises(BudgetExhausted):
        squarefree_split(99999989 * 99999971, Budget(trial_bound=100, rho_iterations=4))


def test_is_squarefree():
    assert is_squarefree(1)
    assert is_squarefree(30)
    assert not is_squarefree(12)
    assert not is_squarefree(49)
