import random
from dataclasses import replace
from math import gcd, isqrt

import pytest

from edspower import (
    Budget,
    BudgetExhausted,
    FreySolution,
    QuadElement,
    Reduction,
    arith,
    bad_set,
    classify_reduction,
    construct,
    exponent_divisibility,
    primes_above,
    prime_valuation,
)

from helpers import invariants_oracle, is_prime_oracle, small_peak


def _random_solutions(seed, count):
    """Valid quartic solutions with w = 1: any coprime-ish (a, u, v) works."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = rng.choice([1, 1, 2, 3, 5, 6, 7, 10, 13, 15])
        u = rng.randrange(1, 40)
        v = rng.randrange(1, 2000)
        d = v * v - a * u**4
        if d < 1:
            continue
        if (a * d) % gcd(u, v) != 0:
            continue
        out.append(FreySolution(a=a, d=d, u=u, v=v, w=1, ell=rng.choice([1, 2, 3])))
    return out


def test_construct_known_instance():
    # the doubled-generator solution on the b = 5 curve
    F = construct(FreySolution(a=1, d=5, u=79, v=6881, w=36, ell=1))
    assert F.a2_coeff == QuadElement(1, 316, 0)
    assert F.a4_coeff == QuadElement(1, 26244, 0)
    assert F.delta == QuadElement(1, -56422198149120, 0)
    assert F.c4 == QuadElement(1, 337984, 0)
    assert F.bad_primes == frozenset({2, 5})
    assert F.solution.a == 1


def test_construct_minimal_instance():
    F = construct(FreySolution(a=1, d=8, u=1, v=3, w=1, ell=1))
    assert F.delta == QuadElement(1, -16384, 0)
    assert F.c4 == QuadElement(1, -128, 0)
    assert F.bad_primes == frozenset({2})


def test_construct_quadratic_field_instance():
    # third multiple on the b = 5 curve lands in Q(sqrt(5))
    F = construct(FreySolution(a=5, d=1, u=11834, v=498029769, w=19679, ell=1))
    assert F.delta == QuadElement(
        5, -268834624239946467966894540800, -191208577721951504878836963840
    )
    assert F.c4 == QuadElement(5, 112034844800, -47810857824)
    assert F.bad_primes == frozenset({2, 5})


def test_closed_forms_match_generic_invariants():
    for sol in _random_solutions(31, 40):
        invariants_oracle(construct(sol))  # raises on any mismatch


def test_construct_validation():
    with pytest.raises(ValueError):
        construct(FreySolution(a=4, d=5, u=1, v=3, w=1, ell=1))  # a not squarefree
    with pytest.raises(ValueError):
        construct(FreySolution(a=1, d=5, u=79, v=6881, w=36, ell=2))  # quartic fails
    # the quartic holds at ell = 1: a huge ell fails it without w^(4*ell) being built
    with small_peak(), pytest.raises(ValueError, match="fails"):
        construct(FreySolution(a=1, d=5, u=79, v=6881, w=36, ell=10**8))
    with pytest.raises(ValueError):
        construct(FreySolution(a=1, d=8, u=0, v=3, w=1, ell=1))
    with pytest.raises(ValueError):
        construct(FreySolution(a=1, d=-8, u=1, v=3, w=1, ell=1))
    with pytest.raises(ValueError):
        # gcd(u, v) = 2 does not divide a*d = 3
        construct(FreySolution(a=3, d=1, u=2, v=8, w=2, ell=1))
    with pytest.raises(ValueError, match="a must be a positive integer"):
        construct(FreySolution(a=0, d=5, u=79, v=6881, w=36, ell=1))
    with pytest.raises(ValueError, match="ell must be a positive integer"):
        construct(FreySolution(a=1, d=5, u=79, v=6881, w=36, ell=0))


def test_construct_factors_a_last(monkeypatch):
    # a = 1000036000099 cannot be proven squarefree without rho: a malformed
    # solution is a ValueError, a valid one exhausts the budget
    tiny = Budget(trial_bound=10, rho_iterations=0)
    with pytest.raises(ValueError, match="d must be"):
        construct(FreySolution(a=1000036000099, d=0, u=1, v=1, w=1, ell=1), tiny)
    with pytest.raises(BudgetExhausted):
        construct(FreySolution(a=1000036000099, d=225, u=1, v=1000018, w=1, ell=1), tiny)
    # a square prime of a that is found settles the check, unfactored rest or not
    a = 9 * 1000036000099
    v = isqrt(a) + 1
    with pytest.raises(ValueError, match="not squarefree"):
        construct(FreySolution(a=a, d=v * v - a, u=1, v=v, w=1, ell=1), tiny)

    real = arith.factorize
    calls = []

    def spy(n, budget=arith.DEFAULT_BUDGET):
        calls.append((n, budget))
        return real(n, budget)

    # a wrong solution with a 150-bit a is rejected before a is factored
    monkeypatch.setattr(arith, "factorize", spy)
    a = (2**61 - 1) * (2**89 - 1)
    with pytest.raises(ValueError, match="fails"):
        construct(FreySolution(a=a, d=1, u=1, v=a, w=1, ell=1))
    assert calls == []
    # a valid one is factored once, as 2ad, under the budget passed in
    budget = Budget(trial_bound=100, rho_iterations=50)
    F = construct(FreySolution(a=5, d=1, u=11834, v=498029769, w=19679, ell=1), budget)
    assert calls == [(10, budget)]
    assert F.bad_primes == {2, 5}


def test_bad_set():
    assert bad_set(1, 5) == {2, 5}
    assert bad_set(5, 1) == {2, 5}
    assert bad_set(3, 14) == {2, 3, 7}
    n, budget = 99999989 * 99999971, Budget(trial_bound=50, rho_iterations=4)
    with pytest.raises(BudgetExhausted, match=f"could not fully factor {2 * n}$"):
        bad_set(1, n, budget)


def test_reduction_classification():
    F = construct(FreySolution(a=1, d=5, u=79, v=6881, w=36, ell=1))
    # plus factor 6881 + 79^2 = 13122 = 2 * 3^8, minus factor 6881 - 6241 = 640
    three = primes_above(1, 3)[0]
    assert classify_reduction(F, three) == Reduction.MULTIPLICATIVE
    seven = primes_above(1, 7)[0]
    assert classify_reduction(F, seven) == Reduction.GOOD
    with pytest.raises(ValueError):
        classify_reduction(F, primes_above(1, 2)[0])  # bad prime
    with pytest.raises(ValueError):
        classify_reduction(F, primes_above(5, 3)[0])  # wrong field


def test_additive_reduction_outside_the_bad_set_is_a_fault():
    F = construct(FreySolution(a=5, d=1, u=11834, v=498029769, w=19679, ell=1))
    P = next(P for P in primes_above(5, 1789) if classify_reduction(F, P) is Reduction.MULTIPLICATIVE)
    # a c4 that P divides as well
    with pytest.raises(ArithmeticError, match="^additive reduction at p = 1789 outside the bad set; "
                       "model not semistable$"):
        classify_reduction(replace(F, c4=QuadElement(5, 1789)), P)


def test_exponent_divisibility_known_valuations():
    F = construct(FreySolution(a=1, d=5, u=79, v=6881, w=36, ell=1))
    three = primes_above(1, 3)[0]
    val, ok = exponent_divisibility(F, three)
    assert val == 16 and ok  # 2 * v(13122) + v(640) = 2*8 + 0
    assert prime_valuation(F.delta, three) == 16
    seven = primes_above(1, 7)[0]
    assert exponent_divisibility(F, seven) == (0, True)


def test_exponent_divisibility_planted_power():
    # v = 1 + 3^8, d = 2 + 3^8: v^2 - 1 = d * 3^8, an ell = 2 instance
    sol = FreySolution(a=1, d=6563, u=1, v=6562, w=3, ell=2)
    F = construct(sol)
    assert F.bad_primes == frozenset({2, 6563})
    three = primes_above(1, 3)[0]
    assert classify_reduction(F, three) == Reduction.MULTIPLICATIVE
    val, ok = exponent_divisibility(F, three)
    assert val == 8 and ok
    five = primes_above(1, 5)[0]
    assert exponent_divisibility(F, five) == (0, True)


def test_delta_valuation_identity_random():
    primes = [p for p in range(3, 60) if is_prime_oracle(p)]
    for sol in _random_solutions(37, 15):
        F = construct(sol)
        for p in primes:
            if p in F.bad_primes:
                continue
            for P in primes_above(sol.a, p):
                val, ok = exponent_divisibility(F, P)
                assert val == prime_valuation(F.delta, P)
                assert ok == (val % sol.ell == 0)


def test_exponent_divisibility_refuses_a_prime_of_another_field():
    F = construct(FreySolution(a=5, d=1, u=11834, v=498029769, w=19679, ell=1))
    with pytest.raises(ValueError, match="element and prime live in different fields"):
        exponent_divisibility(F, primes_above(1, 7)[0])
    # a prime of another field that is also in the bad set reports the bad set
    with pytest.raises(ValueError, match=r"p = 5 is in the bad set \[2, 5\]"):
        exponent_divisibility(F, primes_above(1, 5)[0])
