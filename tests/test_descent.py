from math import isqrt

import pytest

from edspower import (
    Budget,
    EDSTerm,
    HypothesisError,
    arith,
    construct,
    decompose,
    descent,
    generate,
    make_curve_xb,
    perfect_power,
    term,
    to_frey,
)
from helpers import SWEEP, small_peak


def test_known_decompositions(base_curve, base_point, base_seq):
    expected = {
        1: (5, 2, 9),
        2: (1, 79, 6881),
        3: (5, 11834, 498029769),
        4: (1, 30552001, 3550271935059841),
        5: (5, 186059465930, 2279682657974436345714249),
    }
    for m, (a, u, v) in expected.items():
        t = base_seq.terms[m - 1]
        d = decompose(base_curve, t, 1, t.B)
        assert (d.a, d.u, d.v) == (a, u, v)
        assert t.A == d.a * d.u**2
        assert abs(t.C) == d.a * d.u * d.v
        assert d.v**2 - d.a * d.u**4 == (d.b // d.a) * d.w ** (4 * d.ell)


def test_quartic_identity_doubled_generator():
    assert 6881**2 - 79**4 == 8398080
    assert 8398080 == 5 * 36**4


def test_decompose_with_maximal_exponent(base_curve, base_seq):
    t = base_seq.terms[1]  # B = 36 = 6^2
    d = decompose(base_curve, t, 2, 6)
    assert (d.a, d.u, d.v, d.w, d.ell) == (1, 79, 6881, 6, 2)
    assert d.v**2 - d.a * d.u**4 == 5 * 6**8


def test_decompose_validation(base_curve, base_seq):
    t = base_seq.terms[1]
    with pytest.raises(ValueError):
        decompose(base_curve, t, 2, 5)  # 5^2 != 36
    with pytest.raises(ValueError):
        decompose(base_curve, t, 0, 36)
    # B_3 = 19679 against a huge exponent: rejected without building w**ell
    with small_peak(), pytest.raises(ValueError, match=r"w\^ell does not equal B"):
        decompose(base_curve, base_seq.terms[2], 10**8, 2)
    with pytest.raises(HypothesisError):
        decompose(base_curve, EDSTerm(1, 0, 1, 0), 1, 1)  # the 2-torsion shape
    with pytest.raises(ArithmeticError):
        decompose(base_curve, EDSTerm(1, -20, 1, 90), 1, 1)  # A < 0 fails C^2 = A(A^2 + b)
    # (1, 2) on b = 3 written over B = 2: C^2 = A(A^2 + b*B^4) holds, but
    # u = 2, v = 8 and gcd(u, v) = 2 does not divide 3
    with pytest.raises(ArithmeticError, match=r"gcd\(u, v\) does not divide b"):
        decompose(make_curve_xb(3), EDSTerm(1, 4, 2, 16), 1, 2)


def test_to_frey_and_construct(base_curve, base_seq):
    for m in range(1, 6):
        t = base_seq.terms[m - 1]
        d = decompose(base_curve, t, 1, t.B)
        sol = to_frey(d)
        assert (sol.a, sol.d) == (d.a, d.b // d.a)
        assert (sol.u, sol.v, sol.w, sol.ell) == (d.u, d.v, d.w, d.ell)
        F = construct(sol)  # validates the quartic again
        assert F.solution.a == d.a


def _split_over_divisors(b, A):
    """(a, u) with A = a*u^2 and a a squarefree divisor of b, found without factoring A."""
    for a in range(1, b + 1):
        squarefree = all(a % (k * k) for k in range(2, isqrt(a) + 1))
        if b % a == 0 and squarefree and A % a == 0 and isqrt(A // a) ** 2 == A // a:
            return a, isqrt(A // a)
    raise AssertionError(f"A = {A} is no squarefree divisor of b = {b} times a square")


def test_descent_identities_over_sweep():
    # a modest budget suffices for every term: only 2b is factored
    budget = Budget(trial_bound=10_000, rho_iterations=20_000)
    data = 0
    for b, P in SWEEP:
        c = make_curve_xb(b)
        for t in generate(c, P, 12).terms:
            a, u = _split_over_divisors(b, t.A)
            exponents = {(1, t.B)}
            pp = perfect_power(t.B)
            if pp is not None:
                exponents.add((pp[1], pp[0]))
            for ell, w in exponents:
                d = decompose(c, t, ell, w, budget)
                data += 1
                assert (d.a, d.u, d.w, d.ell, d.b) == (a, u, w, ell, b)
                assert t.A == d.a * d.u**2
                assert abs(t.C) == d.a * d.u * d.v
                assert d.a * d.v**2 == t.A**2 + b * t.B**4
                assert d.v**2 - d.a * d.u**4 == (b // d.a) * d.w ** (4 * d.ell)
    assert data == 50


def test_decompose_fault_when_a_prime_of_b_is_missed(monkeypatch, base_curve, base_seq):
    # A_3 has odd valuation at 5, so without 5 its squarefree part is lost
    real = descent.bad_set
    monkeypatch.setattr(descent, "bad_set", lambda *args: real(*args) - {5})
    t = base_seq.terms[2]
    with pytest.raises(ArithmeticError, match="^squarefree part of A does not divide b$"):
        decompose(base_curve, t, 1, t.B)


def test_decompose_does_not_factor_the_term(monkeypatch):
    # A has hundreds to thousands of bits from m = 8 on, but only divisors
    # of 2b may be factored
    real = arith.factorize
    for b, P in SWEEP:

        def guarded(n, budget=arith.DEFAULT_BUDGET, b=b):
            if (2 * b) % n:
                raise AssertionError(f"factorize({n}) called")
            return real(n, budget)

        monkeypatch.setattr(arith, "factorize", guarded)
        c = make_curve_xb(b)
        for t in generate(c, P, 12).terms:
            d = decompose(c, t, 1, t.B)
            assert t.A == d.a * d.u**2 and b % d.a == 0
