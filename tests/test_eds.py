import gc
import random
from math import gcd

import pytest

from edspower import (
    Budget,
    EDSTerm,
    HypothesisError,
    Point,
    PrimitiveDivisors,
    Sequence,
    arith,
    check_strong_divisibility,
    check_valuation_growth,
    extend,
    generate,
    make_curve_xb,
    mul,
    primitive_divisors,
    scan_powers,
    term,
    valuation,
)

from helpers import multiples_oracle, primitive_primes_oracle, small_peak


def test_first_terms_known_values(base_curve, base_point, base_seq):
    Bs = [t.B for t in base_seq.terms[:4]]
    assert Bs == [1, 36, 19679, 39139128]
    t2 = base_seq.terms[1]
    assert (t2.A, t2.B, t2.C) == (6241, 36, 543599)
    assert term(base_curve, base_point, 1) == EDSTerm(1, 20, 1, 90)
    assert term(base_curve, base_point, 4).B == 39139128


def test_terms_are_normalized(base_curve, base_point, base_seq):
    oracle = multiples_oracle(base_curve, base_point, 10)
    for t, (A, B, C) in zip(base_seq.terms[:10], oracle):
        assert (t.A, t.B, t.C) == (A, B, C)
        assert t.B > 0
        assert gcd(t.A, t.B) == 1 and gcd(t.C, t.B) == 1


def test_net_leaves_no_reference_cycles(base_curve, base_point):
    # each net's memo must be freed by reference counting alone
    def work():
        s = generate(base_curve, base_point, 30)
        term(base_curve, base_point, 45)
        extend(s, 40)

    work()
    gc.collect()
    gc.disable()
    try:
        work()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_generate_keeps_no_product_past_its_last_reader(base_curve, base_point):
    # the terms of generate(5, (20, 90), 200) take 3.52 MB, and the net with
    # them peaks at 4.3 MB; one that kept every product it formed would peak
    # at about 8.3 MB
    with small_peak(5_390_000):
        s = generate(base_curve, base_point, 200)
    assert s.terms[-1].B.bit_length() == 64745


def test_generate_validation(base_curve, base_seq):
    with pytest.raises(ValueError):
        generate(base_curve, Point(3, 7), 3)  # not on the curve
    with pytest.raises(HypothesisError):
        generate(base_curve, Point(0, 0), 3)  # 2-torsion
    with pytest.raises(ValueError):
        generate(base_curve, Point(20, 90), 0)
    with pytest.raises(ValueError, match="index m must be positive"):
        term(base_curve, Point(20, 90), 0)
    with pytest.raises(ValueError, match=r"index 25 outside the generated range 1\.\.24"):
        check_strong_divisibility(base_seq, 25, 5)


def test_extend_matches_generate(base_curve, base_point):
    s10 = generate(base_curve, base_point, 10)
    s15 = extend(s10, 15)
    assert s15.terms[:10] == s10.terms
    assert s15.terms == generate(base_curve, base_point, 15).terms
    # extending to a smaller index is a no-op
    assert extend(s15, 8).terms == s15.terms
    # from every prefix length, and single terms, the net gives the same triples
    s = generate(base_curve, base_point, 60)
    for L in range(1, 60):
        assert extend(Sequence(base_curve, base_point, s.terms[:L]), 60).terms == s.terms, L
    rng = random.Random(11)
    for m in [1, 2, 3, 60] + rng.sample(range(4, 60), 12):
        assert term(base_curve, base_point, m) == s.terms[m - 1], m


def test_doubled_generator_sequence(base_curve, base_point, base_seq):
    twoP = mul(base_curve, 2, base_point)
    primed = generate(base_curve, twoP, 12)
    for m in range(1, 13):
        assert primed.terms[m - 1].B == base_seq.terms[2 * m - 1].B


def test_strong_divisibility_pairs(base_seq):
    for m in range(1, 13):
        for n in range(1, 13):
            assert check_strong_divisibility(base_seq, m, n)
    # spelled out for the known values
    assert gcd(36, 39139128) == 36
    assert gcd(36, 19679) == 1


def test_divisibility_along_multiples(base_seq):
    for m in range(1, 13):
        for n in range(m, 25, m):
            assert base_seq.terms[n - 1].B % base_seq.terms[m - 1].B == 0


def test_valuation_growth(base_seq):
    assert valuation(base_seq.terms[1].B, 2) == 2
    assert valuation(base_seq.terms[3].B, 2) == 3
    for p, n in ((2, 2), (3, 2), (11, 3), (1789, 3), (7, 4)):
        for k in range(1, 25):
            if n * k > 24:
                break
            assert check_valuation_growth(base_seq, p, n, k)
    with pytest.raises(ValueError):
        check_valuation_growth(base_seq, 7, 2, 2)  # 7 does not divide B_2
    with pytest.raises(ValueError):
        check_valuation_growth(base_seq, 2, 2, 0)


def test_primitive_divisors_known_sets(base_seq):
    # B_1 = 1 is factored like any term: factorize(1) is empty and complete
    assert primitive_divisors(base_seq, 1) == PrimitiveDivisors(frozenset(), True)
    for m, expected in ((2, {2, 3}), (3, {11, 1789}), (4, {7, 79, 983}),
                        (5, {29, 401, 1109, 117041}), (6, {61, 97, 18445547})):
        pd = primitive_divisors(base_seq, m)
        assert pd.complete
        assert pd.primes == frozenset(expected)


def test_primitive_divisors_incomplete_budget(base_seq):
    pd = primitive_divisors(base_seq, 7, Budget(trial_bound=1000, rho_iterations=8))
    assert not pd.complete
    assert pd.primes == frozenset()


def test_primitive_divisors_match_all_earlier_terms(base_seq, monkeypatch):
    # both sides get the same primes: those trial division finds in B_m,
    # where checking B_{m/r} for r | m must agree with checking every
    # earlier term
    trial = Budget(trial_bound=20_000, rho_iterations=0)
    found = {t.B: arith.factorize(t.B, trial) for t in base_seq.terms[1:]}
    monkeypatch.setattr(arith, "factorize", lambda n, budget: found[n])
    nonprimitive = 0
    for m in range(2, 25):
        pd = primitive_divisors(base_seq, m)
        expected = primitive_primes_oracle(base_seq, m, found[base_seq.terms[m - 1].B].factors)
        assert pd.primes == expected, m
        nonprimitive += len(found[base_seq.terms[m - 1].B].factors) - len(expected)
    assert nonprimitive > 20


def test_primitive_divisors_every_early_term(base_seq):
    # each of these terms gains a new prime; heavier indices need more effort
    budgets = {7: Budget(rho_iterations=1_000_000), 13: Budget(rho_iterations=16_000_000)}
    for m in range(5, 15):
        pd = primitive_divisors(base_seq, m, budgets.get(m, Budget()))
        assert pd.primes, f"no primitive divisor found for m={m}"


def test_scan_powers(base_seq):
    assert scan_powers(base_seq) == [(2, 2, 6)]


def test_scan_powers_to_one_hundred(base_curve, base_point):
    # B_100 has 16,182 bits; a Newton root per prime exponent took minutes
    assert scan_powers(generate(base_curve, base_point, 100)) == [(2, 2, 6)]


def test_scan_powers_planted():
    # fabricated terms exercise the reporting shape; only B is read
    c = make_curve_xb(5)
    dummy = Point(20, 90)
    terms = tuple(
        EDSTerm(m, 1, B, 1)
        for m, B in enumerate([1, 729, 12, 6**10, 37, 97**3], start=1)
    )
    s = Sequence(c, dummy, terms)
    assert scan_powers(s) == [(2, 6, 3), (4, 10, 6), (6, 3, 97)]


def test_scan_powers_skips_ones():
    c = make_curve_xb(5)
    terms = (EDSTerm(1, 1, 1, 1), EDSTerm(2, 1, 1, 1))
    assert scan_powers(Sequence(c, Point(20, 90), terms)) == []
