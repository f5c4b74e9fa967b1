import random

import pytest

from edspower import (
    Budget,
    BudgetExhausted,
    EigenRecord,
    HypothesisError,
    Point,
    SplitType,
    build_report,
    envelope_bound,
    find_k_p0,
    ledger,
    level_support,
    load_eigenvalue_table,
    make_curve_xb,
    threshold,
)

from helpers import is_prime_oracle


def test_find_k_p0_doubled_generator(doubled_seq):
    assert find_k_p0(doubled_seq, 2, {2, 5}) == (3, 7, True)
    assert find_k_p0(doubled_seq, 3, {2, 5}) == (3, 11, True)
    # without rho the composite 79 * 983 stays unfactored; 7 is still found
    tiny = Budget(trial_bound=10, rho_iterations=0)
    assert find_k_p0(doubled_seq, 2, {2, 5}, budget=tiny) == (3, 7, False)


def test_find_k_p0_skips_saturated_index(doubled_seq):
    # with the index-2 primes all excluded, the search moves to index 4
    assert find_k_p0(doubled_seq, 2, {2, 3, 5, 7, 79, 983}) == (4, 30552001, True)


def test_find_k_p0_validation(base_curve, base_point, doubled_seq):
    from edspower import generate

    with pytest.raises(HypothesisError):
        find_k_p0(doubled_seq, 7, {2, 5})  # 7 does not divide B_1 = 36
    with pytest.raises(ValueError):
        find_k_p0(doubled_seq, 4, {2, 5})
    integral = generate(base_curve, base_point, 1)
    with pytest.raises(HypothesisError):
        find_k_p0(integral, 2, {2, 5})


def test_find_k_p0_search_cap_exhausted(doubled_seq):
    with pytest.raises(BudgetExhausted):
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
    e = envelope_bound(7, 5)
    assert (e.residue_norm, e.exact_value, e.ceiling) == (49, 64, 64)
    assert e.display == "64"
    e = envelope_bound(7, 1)
    assert (e.residue_norm, e.exact_value, e.ceiling) == (7, None, 14)
    assert e.display == "8 + 2*sqrt(7)"
    e = envelope_bound(11, 5)
    assert (e.residue_norm, e.exact_value, e.ceiling) == (11, None, 19)
    with pytest.raises(ValueError):
        envelope_bound(5, 5)  # ramified


def test_envelope_ceiling_is_tight():
    primes = [p for p in range(3, 120) if is_prime_oracle(p)]
    for a in (1, 2, 3, 5, 7):
        for p0 in primes:
            if a % p0 == 0:
                continue
            e = envelope_bound(p0, a)
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


def test_level_support_known_counts():
    ls = level_support(5, 1)
    assert ls.count == 27
    assert sorted((e.p, e.cap) for e in ls.entries) == [(2, 8), (5, 2)]
    inert_two = next(e for e in ls.entries if e.p == 2)
    assert inert_two.kind == SplitType.INERT and inert_two.ramification == 1
    ls = level_support(1, 5)
    assert ls.count == 27
    ls = level_support(1, 1)
    assert ls.count == 9
    assert [(e.p, e.cap) for e in ls.entries] == [(2, 8)]


def test_level_support_ramified_caps():
    # 2 and 3 both ramify in Q(sqrt(15)): caps 2 + 12 and 2 + 6
    ls = level_support(15, 1)
    caps = {e.p: e.cap for e in ls.entries}
    assert caps == {2: 14, 3: 8, 5: 2}
    assert ls.count == 15 * 9 * 3
    # split primes over p not dividing 6 contribute two ideals of cap 2
    ls = level_support(5, 11)
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
    with pytest.raises(ValueError):
        load_eigenvalue_table(["L1\t0\t7"])
    with pytest.raises(ValueError):
        load_eigenvalue_table(["L1\t0\t7\tx"])


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
    # the caveat follows find_k_p0's completeness flag
    tiny = Budget(trial_bound=10, rho_iterations=0)
    r = build_report(base_curve, doubled_point, 2, 100, budget=tiny)
    assert (r.k, r.p0) == (3, 7)
    assert any("index 2 is incomplete" in c for c in r.caveats)


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
    # a_p = 5 exceeds 2*sqrt(7) in the rational field but fits N = 49
    assert exact_bound([EigenRecord("L", 0, 7, 0), EigenRecord("L", 1, 7, 5)]) == 55
    # no record usable for the rational field: coverage gap, envelope stands
    assert exact_bound([EigenRecord("L", 0, 7, 10)]) is None
    # records at other primes are irrelevant
    assert exact_bound([EigenRecord("L", 0, 11, 1)]) is None
    # Ramanujan-Petersson violation for every field is corrupt input
    with pytest.raises(ValueError):
        exact_bound([EigenRecord("L", 0, 7, 15)])


def test_build_report_rejections(base_curve, base_point, monkeypatch):
    with pytest.raises(HypothesisError):
        build_report(base_curve, Point(0, 0), 2, 100)  # torsion
    with pytest.raises(HypothesisError):
        build_report(base_curve, base_point, 2, 100)  # integral, B_1 = 1
    with pytest.raises(ValueError):
        build_report(base_curve, Point(3, 7), 2, 100)  # not on the curve
    from edspower import mul

    twoP = mul(base_curve, 2, base_point)
    with pytest.raises(ValueError):
        build_report(base_curve, twoP, 2, 0)  # c_config must be positive
    with pytest.raises(HypothesisError):
        build_report(base_curve, twoP, 7, 100)  # 7 does not divide B_1
    # the re-verification rejects a pair that is not a primitive divisor
    # outside T: 5 is in T, 11 does not divide B_2, 3 already divides B_1
    for bad in (5, 11, 3):
        monkeypatch.setattr(ledger, "find_k_p0", lambda *args, p0=bad: (3, p0, True))
        with pytest.raises(ArithmeticError):
            build_report(base_curve, twoP, 2, 100)


def test_build_report_on_second_curve():
    # b = 8: (1, 3) is integral, its double (49/36, -791/216) has B_1 = 6
    c = make_curve_xb(8)
    from edspower import mul

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
