"""Acceptance checks: known values for the reference curve reproduced
exactly, plus the property suites.  One test per check; run with -v for a
line-per-check report.  All comparisons are exact; the only tolerances are
the wall-clock ceilings asserted inside the timed checks."""
import random
import time
from fractions import Fraction
from math import gcd

from edspower import (
    Budget,
    EDSTerm,
    EigenRecord,
    FreySolution,
    Point,
    Reduction,
    Sequence,
    SplitType,
    bad_set,
    build_report,
    check_strong_divisibility,
    check_valuation_growth,
    classify_reduction,
    construct,
    decompose,
    envelope_bound,
    exponent_divisibility,
    find_k_p0,
    generate,
    level_support,
    make_curve_xb,
    mul,
    prime_valuation,
    primes_above,
    primitive_divisors,
    scan_powers,
    threshold,
    valuation,
)

from helpers import invariants_oracle, iroot_oracle, is_prime_oracle


def test_small_multiples_and_denominators_exact():
    start = time.perf_counter()
    c = make_curve_xb(5)
    P = Point(20, 90)
    assert mul(c, 2, P) == Point(Fraction(6241, 36**2), Fraction(543599, 36**3))
    assert mul(c, 3, P) == Point(
        Fraction(700217780, 19679**2), Fraction(29468421431730, 19679**3)
    )
    assert mul(c, 4, P) == Point(
        Fraction(933424765104001, 39139128**2),
        Fraction(108467911710220197291841, 39139128**3),
    )
    s = generate(c, P, 4)
    assert [t.B for t in s.terms] == [1, 36, 19679, 39139128]
    assert time.perf_counter() - start < 1.0


def test_primitive_divisor_sets_first_terms():
    start = time.perf_counter()
    c = make_curve_xb(5)
    s = generate(c, Point(20, 90), 4)
    expected = {2: {2, 3}, 3: {11, 1789}, 4: {7, 79, 983}}
    for m, primes in expected.items():
        pd = primitive_divisors(s, m)
        assert pd.complete
        assert pd.primes == frozenset(primes)
    assert time.perf_counter() - start < 5.0


def test_strong_divisibility_three_curves():
    start = time.perf_counter()
    cases = [
        (make_curve_xb(5), Point(20, 90)),
        (make_curve_xb(3), Point(1, 2)),
        (make_curve_xb(8), Point(1, 3)),
    ]
    for c, P in cases:
        s = generate(c, P, 24)
        B = [t.B for t in s.terms]
        for m in range(1, 25):
            for n in range(1, 25):
                assert check_strong_divisibility(s, m, n)
                assert gcd(B[m - 1], B[n - 1]) == B[gcd(m, n) - 1]
    assert time.perf_counter() - start < 60.0


def test_valuation_growth_base_curve():
    c = make_curve_xb(5)
    s = generate(c, Point(20, 90), 24)
    checked = 0
    for p in (2, 3, 11, 1789):
        for n in range(1, 25):
            if s.terms[n - 1].B % p != 0:
                continue
            v_n = valuation(s.terms[n - 1].B, p)
            for k in range(1, 24 // n + 1):
                assert check_valuation_growth(s, p, n, k)
                assert valuation(s.terms[n * k - 1].B, p) == v_n + valuation(k, p)
                checked += 1
    assert checked > 50  # the suite actually exercised many (p, n, k) triples


def _random_quartic_solutions(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = rng.choice([1, 1, 1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 17, 21])
        u = rng.randrange(1, 60)
        v = rng.randrange(1, 5000)
        d = v * v - a * u**4
        if d < 1 or (a * d) % gcd(u, v) != 0:
            continue
        out.append(FreySolution(a=a, d=d, u=u, v=v, w=1, ell=rng.choice([1, 2, 3, 5])))
    return out


def _planted_power_solutions(seed, count):
    # v = u^2 + s*q^(4*ell) gives v^2 - u^4 = d*q^(4*ell) with d = s*(2u^2 + s*q^(4*ell))
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = rng.choice([3, 5, 7, 11])
        ell = rng.choice([1, 2])
        s_ = rng.randrange(1, 6)
        u = rng.randrange(1, 12)
        if gcd(u, q) != 1:
            continue
        v = u * u + s_ * q ** (4 * ell)
        d = s_ * (2 * u * u + s_ * q ** (4 * ell))
        if gcd(u, v) != 1:
            continue
        out.append(FreySolution(a=1, d=d, u=u, v=v, w=q, ell=ell))
    return out


def test_invariant_closed_forms_match_generic():
    solutions = _random_quartic_solutions(101, 80) + _planted_power_solutions(102, 20)
    assert len(solutions) >= 100
    for sol in solutions:
        invariants_oracle(construct(sol, Budget(rho_iterations=2_000_000)))  # raises on any mismatch


def test_discriminant_factor_valuation_identity():
    primes = [p for p in range(3, 200) if is_prime_oracle(p)]
    solutions = _random_quartic_solutions(103, 40) + _planted_power_solutions(104, 10)
    assert len(solutions) >= 50
    for sol in solutions:
        F = construct(sol, Budget(rho_iterations=2_000_000))
        for p in primes:
            if p in F.bad_primes:
                continue
            for P in primes_above(sol.a, p):
                val, _ = exponent_divisibility(F, P)
                assert val == prime_valuation(F.delta, P)
                # semistable away from the bad set: never additive
                red = classify_reduction(F, P)
                assert red in (Reduction.GOOD, Reduction.MULTIPLICATIVE)
                assert (red == Reduction.GOOD) == (val == 0)


def test_term_decomposition_round_trip():
    c = make_curve_xb(5)
    s = generate(c, Point(20, 90), 5)
    for m in range(1, 6):
        t = s.terms[m - 1]
        d = decompose(c, t, 1, t.B)
        assert t.A == d.a * d.u**2
        assert abs(t.C) == d.a * d.u * d.v
        assert d.v**2 - d.a * d.u**4 == (5 // d.a) * d.w**4
    t2 = s.terms[1]
    d2 = decompose(c, t2, 1, t2.B)
    assert (d2.a, d2.u, d2.v) == (1, 79, 6881)
    assert 6881**2 - 79**4 == 8398080 == 5 * 36**4


def test_exponent_bound_assembly():
    start = time.perf_counter()
    c = make_curve_xb(5)
    twoP = mul(c, 2, Point(20, 90))
    s = generate(c, twoP, 1)
    assert find_k_p0(s, 2, {2, 5}) == (3, 7, ())
    assert threshold(3, 5, 100, 7) == 100
    env = envelope_bound(7, primes_above(5, 7)[0].kind)
    assert env.residue_norm == 49 and env.exact_value == 64
    assert level_support(5, sorted(bad_set(5, 1))).count == 27
    # the assembled report agrees with the pieces
    r = build_report(c, twoP, 2, 100)
    assert (r.k, r.p0, r.threshold) == (3, 7, 100)
    assert r.T == (2, 5)
    quad = next(f for f in r.candidate_fields if f.a == 5)
    assert quad.splitting_of_p0 == SplitType.INERT
    assert quad.envelope.exact_value == 64
    assert quad.level_support.count == 27
    assert time.perf_counter() - start < 10.0


def _oracle_power_scan(seq):
    hits = []
    for t in seq.terms:
        if t.B <= 1:
            continue
        best = None
        for ell in range(2, t.B.bit_length() + 1):
            w = iroot_oracle(t.B, ell)
            if w**ell == t.B:
                best = (ell, w)
        if best is not None:
            hits.append((t.m, best[0], best[1]))
    return hits


def test_power_scan_matches_root_oracle():
    c = make_curve_xb(5)
    s = generate(c, Point(20, 90), 20)
    oracle = _oracle_power_scan(s)
    assert scan_powers(s) == oracle
    # B_2 = 36 is the lone square among the first 20 terms
    assert oracle == [(2, 2, 6)]
    # planted powers, one per exponent, all detected with the maximal exponent
    planted = [10**2, 7**3, 6**5, 5**7, 15, 1]
    terms = tuple(EDSTerm(m, 1, B, 1) for m, B in enumerate(planted, start=1))
    fake = Sequence(c, Point(20, 90), terms)
    assert scan_powers(fake) == _oracle_power_scan(fake) == [
        (1, 2, 10), (2, 3, 7), (3, 5, 6), (4, 7, 5),
    ]
