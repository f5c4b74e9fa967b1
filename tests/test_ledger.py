import random
import re
from fractions import Fraction
from math import isqrt

import pytest

from edspower import (
    Budget,
    BudgetExhausted,
    EigenRecord,
    HypothesisError,
    Point,
    Sequence,
    SplitType,
    arith,
    bad_set,
    build_report,
    curve,
    envelope_bound,
    find_k_p0,
    generate,
    is_torsion,
    ledger,
    level_support,
    load_eigenvalue_table,
    make_curve_xb,
    mul,
    primes_above,
    threshold,
)

from helpers import find_k_p0_oracle, is_prime_oracle


def test_find_k_p0_doubled_generator(doubled_seq):
    assert find_k_p0(doubled_seq, 2, {2, 5}) == (3, 7, ())
    assert find_k_p0(doubled_seq, 3, {2, 5}) == (3, 11, ())
    # without rho 79 * 983 stays unfactored, but the walk reaches 7 first,
    # so 7 is proven the least
    tiny = Budget(trial_bound=10, rho_iterations=0)
    assert find_k_p0(doubled_seq, 2, {2, 5}, budget=tiny) == (3, 7, ())
    # no prime up to 10 qualifies at index 3; rho finds 61 but leaves a
    # composite, so a smaller primitive prime may hide there
    small = Budget(trial_bound=10, rho_iterations=8)
    assert find_k_p0(doubled_seq, 3, {2, 3, 5, 7, 11}, budget=small) == (3, 61, (3,))


def test_find_k_p0_skips_saturated_index(doubled_seq):
    # with the index-2 primes all excluded, the search moves to index 4
    assert find_k_p0(doubled_seq, 2, {2, 3, 5, 7, 79, 983}) == (4, 30552001, ())


def test_find_k_p0_incomplete_indices_are_reported(doubled_seq):
    T = {2, 3, 5, 7, 11, 61}
    # the default budget settles index 3: 97 is the least primitive prime
    assert find_k_p0(doubled_seq, 3, T) == (3, 97, ())
    # a small budget leaves indices 3 and 9 unfactored and passes them, and
    # finds 107 at 27 by rho, so neither k nor p0 is proven least
    small = Budget(trial_bound=10, rho_iterations=16)
    assert find_k_p0(doubled_seq, 3, T, budget=small) == (5, 107, (3, 9, 27))


def _sweep_cases(seed, count):
    """(b, generator, q): 2P or 3P of integral points with b <= 80, q | B_1."""
    cases = []
    for b in range(1, 81):
        c = make_curve_xb(b)
        for x in range(1, 60):
            y = isqrt(x * (x * x + b))
            if y * y != x * (x * x + b) or is_torsion(c, Point(x, y)):
                continue
            for m in (2, 3):
                Q = mul(c, m, Point(x, y))
                for q in arith.factorize(isqrt(Q.x.denominator)).factors:
                    cases.append((b, Q, q))
    return random.Random(seed).sample(cases, count)


def test_find_k_p0_matches_factoring_oracle(doubled_seq):
    # both sides get the same budget, so the oracle's full factoring finds
    # every prime the walk can reach
    for q, T in ((2, {2, 5}), (3, {2, 5}), (2, {2, 3, 5, 7, 79, 983}),
                 (3, {2, 3, 5, 7, 11, 61})):
        assert find_k_p0(doubled_seq, q, T)[:2] == find_k_p0_oracle(doubled_seq, q, T, 64)
    budget = Budget(trial_bound=10_000, rho_iterations=300)
    settled = 0
    for b, Q, q in _sweep_cases(7, 60):
        s = generate(make_curve_xb(b), Q, 1)
        T = bad_set(1, b)
        if q > 16:
            with pytest.raises(ValueError, match="no index to try"):
                find_k_p0(s, q, T, 16, budget)
            continue
        try:
            k, p0, incomplete = find_k_p0(s, q, T, 16, budget)
        except BudgetExhausted:
            assert find_k_p0_oracle(s, q, T, 16, budget) is None, (b, Q, q)
            continue
        assert (k, p0) == find_k_p0_oracle(s, q, T, 16, budget), (b, Q, q)
        settled += not incomplete
    assert settled >= 30


def test_find_k_p0_validation(base_curve, base_point, doubled_seq):
    with pytest.raises(HypothesisError):
        find_k_p0(doubled_seq, 7, {2, 5})  # 7 does not divide B_1 = 36
    with pytest.raises(ValueError):
        find_k_p0(doubled_seq, 4, {2, 5})
    with pytest.raises(ValueError, match="^q = 1 is not prime$"):
        find_k_p0(doubled_seq, 1, {2, 5})
    integral = generate(base_curve, base_point, 1)
    with pytest.raises(HypothesisError, match="the bound needs B_1 > 1"):
        find_k_p0(integral, 2, {2, 5})
    with pytest.raises(ValueError, match="sequence has no terms"):
        find_k_p0(Sequence(base_curve, base_point, ()), 2, {2, 5})


def test_find_k_p0_search_cap_exhausted(doubled_seq):
    # every primitive prime of B_2 lies in T, and the cap stops the walk there
    with pytest.raises(BudgetExhausted, match=r"up to 2; tried index 2 \(fully factored\)$"):
        find_k_p0(doubled_seq, 2, {2, 3, 5, 7, 79, 983}, search_cap=2)
    # a cap below q leaves no index to try: a usage slip, not an exhaustion
    with pytest.raises(ValueError, match="search_cap = 1 is below q = 2; no index to try"):
        find_k_p0(doubled_seq, 2, {2, 5}, search_cap=1)


def test_threshold():
    assert threshold(3, 5, 100, 7) == 100
    assert threshold(3, 5, 1, 7) == 10
    assert threshold(1, 1, 1, 1) == 5
    rng = random.Random(41)
    for _ in range(100):
        k, b, c, p0 = (rng.randrange(1, 500) for _ in range(4))
        t = threshold(k, b, c, p0)
        assert t >= max(k, 2 * b, c, p0, 5)
        assert t <= threshold(k + 1, b + 1, c + 1, p0 + 1)
    with pytest.raises(ValueError):
        threshold(0, 1, 1, 1)


def test_envelope_bound_known_values():
    e = envelope_bound(primes_above(5, 7)[0])
    assert (e.residue_norm, e.exact_value, e.ceiling) == (49, 64, 64)
    assert e.display == "64"
    e = envelope_bound(primes_above(1, 7)[0])
    assert (e.residue_norm, e.exact_value, e.ceiling) == (7, None, 14)
    assert e.display == "8 + 2*sqrt(7)"
    e = envelope_bound(primes_above(5, 11)[0])
    assert (e.residue_norm, e.exact_value, e.ceiling) == (11, None, 19)
    with pytest.raises(ValueError):
        envelope_bound(primes_above(5, 5)[0])  # ramified


def test_envelope_ceiling_is_tight():
    primes = [p for p in range(3, 120) if is_prime_oracle(p)]
    for a in (1, 2, 3, 5, 7):
        for p0 in primes:
            if a % p0 == 0:
                continue
            e = envelope_bound(primes_above(a, p0)[0])
            N = e.residue_norm
            assert e.ceiling > 0
            if e.exact_value is not None:
                s = round(N**0.5)
                assert s * s == N
                assert e.exact_value == (s + 1) ** 2 == e.ceiling
            else:
                # ceiling is the least integer exceeding N + 1 + 2*sqrt(N)
                r = e.ceiling - N - 1
                assert r * r > 4 * N >= (r - 1) * (r - 1)


def _level_support(a, d):
    # the ideals over the primes of 2ad, as build_report hands them over
    return level_support(P for p in sorted(bad_set(a, d)) for P in primes_above(a, p))


def test_level_support_known_counts():
    ls = _level_support(5, 1)
    assert ls.count == 27
    assert sorted((e.p, e.cap) for e in ls.entries) == [(2, 8), (5, 2)]
    inert_two = next(e for e in ls.entries if e.p == 2)
    assert inert_two.kind == SplitType.INERT and inert_two.ramification == 1
    ls = _level_support(1, 5)
    assert ls.count == 27
    ls = _level_support(1, 1)
    assert ls.count == 9
    assert [(e.p, e.cap) for e in ls.entries] == [(2, 8)]


def test_level_support_ramified_caps():
    # 2 and 3 both ramify in Q(sqrt(15)): caps 2 + 12 and 2 + 6
    ls = _level_support(15, 1)
    caps = {e.p: e.cap for e in ls.entries}
    assert caps == {2: 14, 3: 8, 5: 2}
    assert ls.count == 15 * 9 * 3
    # split primes over p not dividing 6 contribute two ideals of cap 2
    ls = _level_support(5, 11)
    caps = [(e.p, e.cap) for e in ls.entries]
    assert caps.count((11, 2)) == 2
    assert ls.count == 27 * 9


def test_load_eigenvalue_table():
    lines = [
        "# comment",
        "",
        "L49a\t0\t7\t0",
        "L49a\t1\t7\t-3",
        "L7x 2 7 5",
    ]
    records = load_eigenvalue_table(lines)
    assert records == [
        EigenRecord("L49a", 0, 7, 0),
        EigenRecord("L49a", 1, 7, -3),
        EigenRecord("L7x", 2, 7, 5),
    ]
    # a wrong field count and a field that is no integer get the same message,
    # which names the record
    for raw in ("L1\t0\t7", "L1\t0\t7\tx", "L\t0\tseven\t15\n", "L 1.5 7 0"):
        with pytest.raises(ValueError, match=f"^malformed eigenvalue record: {re.escape(repr(raw))}$"):
            load_eigenvalue_table(["# fine", "L49a\t0\t7\t0", raw])


@pytest.fixture(scope="module")
def doubled_report(base_curve, doubled_point):
    return build_report(base_curve, doubled_point, 2, 100)


def test_build_report_known_values(doubled_report, base_curve, doubled_point):
    r = doubled_report
    assert r.b == 5 and r.q == 2 and r.B1 == 36
    assert r.T == (2, 5)
    assert (r.k, r.p0) == (3, 7)
    assert r.threshold == 100
    assert [f.a for f in r.candidate_fields] == [1, 5]
    quad = r.candidate_fields[1]
    assert quad.splitting_of_p0 == SplitType.INERT
    assert quad.envelope.exact_value == 64
    assert quad.level_support.count == 27
    rational = r.candidate_fields[0]
    assert rational.splitting_of_p0 == SplitType.SPLIT
    assert rational.envelope.ceiling == 14
    assert r.exact_bound is None
    assert any("envelope" in c for c in r.caveats)
    assert any("user-supplied" in c for c in r.caveats)
    assert not any("incomplete" in c for c in r.caveats)
    # 7 <= trial_bound is proven least even when rho is off
    tiny = Budget(trial_bound=10, rho_iterations=0)
    r = build_report(base_curve, doubled_point, 2, 100, budget=tiny)
    assert (r.k, r.p0) == (3, 7)
    assert not any("incomplete" in c for c in r.caveats)
    # 11 lies past the bound and rho leaves a composite at index 3
    small = Budget(trial_bound=10, rho_iterations=8)
    r = build_report(base_curve, doubled_point, 3, 100, budget=small)
    assert (r.k, r.p0) == (3, 11)
    assert any("incomplete at index 3;" in c for c in r.caveats)


def test_build_report_caveat_names_every_incomplete_index(base_curve, doubled_point, monkeypatch):
    # widen T so the search passes two unfactored indices before it stops
    real = ledger.frey.bad_set
    monkeypatch.setattr(ledger.frey, "bad_set", lambda *a: real(*a) | {3, 7, 11, 61})
    small = Budget(trial_bound=10, rho_iterations=16)
    r = build_report(base_curve, doubled_point, 3, 100, budget=small)
    assert (r.k, r.p0) == (5, 107)
    note = next(c for c in r.caveats if "incomplete" in c)
    assert "indices 3, 9, 27;" in note and "k or p0 may not be the least" in note


def test_build_report_builds_one_net(base_curve, doubled_point, monkeypatch):
    # net checks its point with curve.on_curve, looked up at call time: one
    # call means B_1 and the index terms come off one net of the generator
    real = curve.on_curve
    calls = []

    def spy(c, P):
        calls.append(P)
        return real(c, P)

    monkeypatch.setattr(curve, "on_curve", spy)
    r = build_report(base_curve, doubled_point, 2, 100)
    assert (r.k, r.p0) == (3, 7)
    assert calls == [doubled_point]


def test_build_report_walk_does_not_factor_the_index_term(base_curve, doubled_point, monkeypatch):
    # p0 = 7 <= trial_bound: the one factorization is of 2b = 10, for T,
    # under the budget passed in; the field data reuse its primes
    real = arith.factorize
    calls = []

    def spy(n, budget=arith.DEFAULT_BUDGET):
        calls.append((n, budget))
        return real(n, budget)

    monkeypatch.setattr(arith, "factorize", spy)
    budget = Budget(trial_bound=1000, rho_iterations=500)
    r = build_report(base_curve, doubled_point, 2, 100, budget)
    assert (r.k, r.p0) == (3, 7)
    assert calls == [(10, budget)]


def test_build_report_pair_matches_generating_oracle():
    # the report reads only B_{q^j} and B_{q^(j-1)} off the net; the oracle
    # generates every earlier term and checks primitivity against each
    budget = Budget(trial_bound=10_000, rho_iterations=300)
    reports = 0
    for b, Q, q in _sweep_cases(11, 20):
        c = make_curve_xb(b)
        s = generate(c, Q, 1)
        if q > 16:
            with pytest.raises(ValueError, match="no index to try"):
                build_report(c, Q, q, 100, budget, 16)
            continue
        try:
            r = build_report(c, Q, q, 100, budget, 16)
        except BudgetExhausted:
            assert find_k_p0_oracle(s, q, bad_set(1, b), 16, budget) is None, (b, Q, q)
            continue
        assert (r.k, r.p0) == find_k_p0_oracle(s, q, set(r.T), 16, budget), (b, Q, q)
        reports += 1
    assert reports >= 14


def test_build_report_large_index_term():
    # B_1 = 47 and B_47 has 17,901 bits: the walk stops at 15791 instead of
    # factoring the term
    c = make_curve_xb(14)
    P = Point(Fraction(103058, 2209), Fraction(-33190578, 103823))
    r = build_report(c, P, 47, 100)
    assert (r.k, r.p0) == (2, 15791)
    assert not any("incomplete" in note for note in r.caveats)


def test_build_report_with_eigenvalues(base_curve, doubled_point):
    table = [EigenRecord("L", 0, 7, 0)]
    r = build_report(base_curve, doubled_point, 2, 100, eigen_table=table)
    assert r.exact_bound == 50
    assert not any("envelope;" in c for c in r.caveats)


def test_exact_bound_policies(base_curve, doubled_point):
    def exact_bound(table):
        return build_report(base_curve, doubled_point, 2, 100, eigen_table=table).exact_bound

    # widest usable record wins: |49 + 1 - (-3)| = 53
    assert exact_bound([EigenRecord("L", 0, 7, 0), EigenRecord("L", 1, 7, -3)]) == 53
    # a_p = 5 fits both fields (25 <= 4*7): 7 + 1 + 5 = 13 in Q, 49 + 1 + 5 = 55 in Q(sqrt(5))
    assert exact_bound([EigenRecord("L", 0, 7, 0), EigenRecord("L", 1, 7, 5)]) == 55
    # no record usable for the rational field: coverage gap, envelope stands
    assert exact_bound([EigenRecord("L", 0, 7, 10)]) is None
    # records at other primes are irrelevant
    assert exact_bound([EigenRecord("L", 0, 11, 1)]) is None
    # Ramanujan-Petersson violation for every field is corrupt input
    with pytest.raises(ValueError):
        exact_bound([EigenRecord("L", 0, 7, 15)])


def test_build_report_rejections(base_curve, base_point):
    with pytest.raises(HypothesisError):
        build_report(base_curve, Point(0, 0), 2, 100)  # torsion
    with pytest.raises(HypothesisError):
        build_report(base_curve, base_point, 2, 100)  # integral, B_1 = 1
    with pytest.raises(ValueError):
        build_report(base_curve, Point(3, 7), 2, 100)  # not on the curve
    twoP = mul(base_curve, 2, base_point)
    with pytest.raises(ValueError):
        build_report(base_curve, twoP, 2, 0)  # c_config must be positive
    with pytest.raises(HypothesisError):
        build_report(base_curve, twoP, 7, 100)  # 7 does not divide B_1


def test_build_report_on_second_curve():
    # b = 8: (1, 3) is integral, its double (49/36, -791/216) has B_1 = 6
    c = make_curve_xb(8)
    twoP = mul(c, 2, Point(1, 3))
    assert twoP.x.denominator == 36
    r = build_report(c, twoP, 2, 1)
    assert r.b == 8 and r.B1 == 6
    assert r.T == (2,)
    # index 2 term is 9492 = 2^2 * 3 * 7 * 113; 3 divides B_1, so 7 is first
    assert (r.k, r.p0) == (2, 7)
    assert r.threshold == 16  # 2b dominates
    assert [f.a for f in r.candidate_fields] == [1, 2]
    assert r.p0 not in r.T
