import dataclasses
import hashlib
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from edspower import (
    Curve,
    HypothesisError,
    Point,
    generate,
    is_torsion,
    make_curve_xb,
    mul,
    on_curve,
)
from edspower import curve, eds
from edspower.curve import net

from helpers import SWEEP, O, add, multiples_oracle, neg, net_H_oracle, torsion_oracle, weierstrass_invariants


def test_make_curve_xb():
    c = make_curve_xb(5)
    assert c == Curve(5) and c.b == 5
    assert [f.name for f in dataclasses.fields(Curve)] == ["b"]
    with pytest.raises(ValueError):
        make_curve_xb(0)
    with pytest.raises(ValueError):
        make_curve_xb(-5)
    with pytest.raises(ValueError):
        make_curve_xb(5.0)
    # a bool is an int to isinstance, but JSON would write it as true
    with pytest.raises(ValueError):
        make_curve_xb(True)


def test_invariants_of_the_x_cubed_family():
    # the discriminant -64b^3 never vanishes: every curve of the family is smooth
    for b in range(1, 30):
        disc, c4 = weierstrass_invariants(0, 0, 0, b, 0)
        assert disc == -64 * b**3
        assert c4 == -48 * b


def test_invariants_general_curve():
    # y^2 + y = x^3 - x^2 - 10x - 20, a standard conductor-11 model
    assert weierstrass_invariants(0, -1, 1, -10, -20) == (-161051, 496)
    # y^2 + xy + y = x^3 + 4x - 6 has known invariants as well
    disc, c4 = weierstrass_invariants(1, 0, 1, 4, -6)
    b2 = 1
    b4 = 2 * 4 + 1 * 1
    b6 = 1 + 4 * (-6)
    b8 = 1 * (-6) + 0 - 1 * 1 * 4 + 0 - 16
    assert disc == -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    assert c4 == b2 * b2 - 24 * b4


def test_singular_curve_rejected():
    # b = 0 gives the cuspidal cubic y^2 = x^3
    with pytest.raises(ValueError):
        Curve(0)
    with pytest.raises(ValueError):
        Curve(-3)


def test_point_coercion_and_infinity():
    P = Point(20, 90)
    assert isinstance(P.x, Fraction) and isinstance(P.y, Fraction)
    assert [f.name for f in dataclasses.fields(Point)] == ["x", "y"]
    # there is no point at infinity: every point has two rational coordinates
    with pytest.raises(TypeError):
        Point(None, None)
    # the text form is "x,y", the form the CLI parses
    minus_2P = Point(Fraction(6241, 1296), "-543599/46656")
    assert str(minus_2P) == "6241/1296,-543599/46656" and str(P) == "20,90"


def test_on_curve():
    c = make_curve_xb(5)
    assert on_curve(c, Point(20, 90))
    assert on_curve(c, Point(0, 0))
    assert not on_curve(c, Point(3, 7))
    assert on_curve(c, Point(Fraction(6241, 1296), Fraction(543599, 46656)))


def test_group_identity_and_inverse():
    c = make_curve_xb(5)
    P = Point(20, 90)
    assert add(c, P, O) == P
    assert add(c, O, P) == P
    assert add(c, P, neg(c, P)) is O
    assert neg(c, neg(c, P)) == P
    # 2-torsion is its own inverse
    T = Point(0, 0)
    assert add(c, T, T) is O


def test_doubling_matches_known_coordinates():
    c = make_curve_xb(5)
    P = Point(20, 90)
    Q = add(c, P, P)
    assert Q == Point(Fraction(6241, 1296), Fraction(543599, 46656))
    R = add(c, Q, P)
    assert R == Point(Fraction(700217780, 19679**2), Fraction(29468421431730, 19679**3))


def test_group_law_consistency():
    c = make_curve_xb(5)
    P = Point(20, 90)
    pts = [mul(c, n, P) for n in range(1, 7)]
    # commutativity and associativity on a sample of multiples
    for i in range(len(pts)):
        for j in range(len(pts)):
            assert add(c, pts[i], pts[j]) == add(c, pts[j], pts[i])
    rng = random.Random(7)
    for _ in range(20):
        A, B, C = (pts[rng.randrange(len(pts))] for _ in range(3))
        assert add(c, add(c, A, B), C) == add(c, A, add(c, B, C))
    # mul agrees with repeated addition
    acc = P
    for n in range(2, 8):
        acc = add(c, acc, P)
        assert mul(c, n, P) == acc
    with pytest.raises(ValueError):
        mul(c, 0, P)


def test_points_stay_on_curve():
    c = make_curve_xb(5)
    P = Point(20, 90)
    for n in range(1, 12):
        assert on_curve(c, mul(c, n, P))


def test_torsion_detection():
    c = make_curve_xb(5)
    assert is_torsion(c, Point(0, 0))
    assert not is_torsion(c, Point(20, 90))
    # (2, 4) on y^2 = x(x^2 + 4) has order 4
    c4_curve = make_curve_xb(4)
    assert is_torsion(c4_curve, Point(2, 4))
    # generators of the other test curves are free points
    assert not is_torsion(make_curve_xb(3), Point(1, 2))
    assert not is_torsion(make_curve_xb(8), Point(1, 3))


def _integral_points(b, x_max):
    """Affine points of y^2 = x(x^2 + b) with 0 <= x <= x_max and y integral."""
    for x in range(x_max + 1):
        rhs = x * (x * x + b)
        y = isqrt(rhs)
        if y * y == rhs:
            yield from {Point(x, y), Point(x, -y)}


def test_torsion_matches_oracle():
    cases = []
    for b in range(1, 201):
        c = make_curve_xb(b)
        for P in _integral_points(b, 400):
            # the double of (0, 0) is the oracle's O, which the package has no form for
            cases += [(c, Q) for Q in (P, add(c, P, P)) if Q is not O]
    # b = 4t^4 carries the order-4 points (2t^2, +-4t^3)
    for t in range(1, 8):
        c = make_curve_xb(4 * t**4)
        cases += [(c, Point(2 * t * t, 4 * t**3)), (c, Point(2 * t * t, -4 * t**3))]
    for c, P in cases:
        assert on_curve(c, P)
        assert is_torsion(c, P) == torsion_oracle(c, P), (c, P)


def test_net_matches_group_law_oracle():
    # every non-torsion integral point with b <= 200, 1 <= x <= 400, and its
    # double: terms 1..12 from the net against repeated Fraction addition
    generators = []
    for b in range(1, 201):
        c = make_curve_xb(b)
        for P in _integral_points(b, 400):
            if P.x and not is_torsion(c, P):
                generators += [(c, P), (c, add(c, P, P))]
    assert len(generators) == 576
    for c, G in generators:
        terms = [(t.A, t.B, t.C) for t in generate(c, G, 12).terms]
        assert terms == multiples_oracle(c, G, 12), (c, G)



def test_net_sheds_the_excess_of_singular_reduction():
    # generators singular mod 2, 3, 5 or 7, among them non-minimal models at 2
    # (b = 80) and a point on a component of order 4 (b = 196), and the edges
    # of the reduction by gcds with D = 2b: a modulus of two limbs (2b > 2^64),
    # a deep power of 2 (b = 128, H = 2^42) and an odd b with a single 2 in D:
    # terms 1..40 against the oracle, every memoised net value within a few
    # words of B_n (unscaled, W_40 of (100, (20, 100)) carries about 2,600 bits
    # more), and every product within a few words per factor.  Random access
    # too, on fresh nets and out of order on one, with and without the end of
    # a prefix.  A new net's memo holds the seeds alone and no product, so no
    # unscaled W_5 .. W_7 from finding H is left in it
    assert net(make_curve_xb(128), Point(32, 192)).args[1] == 2**42
    for b, x, y in [(100, 20, 100), (196, 98, 980), (80, 80, 720), (18, 6, 18), (15, 15, 60), (5, 20, 90),
                    (19342813116668607771809189, Fraction(1, 4), Fraction(17592186045705, 8)),
                    (128, 32, 192), (163, 81, 738)]:
        c, P = make_curve_xb(b), Point(x, y)
        f = net(c, P)
        assert sorted(f.args[0]) == [-1, 0, 1, 2, 3, 4] and f.args[5] == ({}, {}, {}), (b, x, y)
        terms = [f(n) for n in range(1, 41)]
        assert terms == multiples_oracle(c, P, 40), (b, x, y)
        memo, (S, D, O) = f.args[0], f.args[5]
        bits = [0] + [t[1].bit_length() for t in terms]
        assert all(memo[n].bit_length() <= bits[n] + 64 for n in range(1, 41)), (b, x, y)
        assert all(S[j].bit_length() <= 2 * bits[j] + 128 for j in S if 1 <= j <= 40), (b, x, y)
        assert all(D[j].bit_length() <= bits[j - 1] + bits[j + 1] + 128 for j in D if 2 <= j <= 39), (b, x, y)
        assert all(O[j].bit_length() <= 3 * bits[j] + 192 for j in O if 1 <= j <= 40), (b, x, y)
        for m in [*range(1, 13), 40]:
            assert net(c, P)(m) == terms[m - 1], (b, x, y, m)
        for m in (40, 3, 39, 4, 5, 1, 2, 7, 6, 38, 40):
            assert f(m) == terms[m - 1] and f(m, 40) == terms[m - 1], (b, x, y, m)


def test_net_reduces_by_a_digit_of_2b_and_keeps_only_the_products_still_read(monkeypatch):
    # gcds with the largest power of 2b below 2^30, or with 2b when it is larger
    assert net(make_curve_xb(5), Point(20, 90)).args[4] == 10**9
    assert net(make_curve_xb(128), Point(32, 192)).args[4] == 2**24
    b = 19342813116668607771809189
    assert net(make_curve_xb(b), Point(Fraction(1, 4), Fraction(17592186045705, 8))).args[4] == 2 * b > 2**30
    # along generate to M, V_1 .. V_{M+2} read products at indices up to
    # (M + 3) // 2 only: past (M + 2) // 2 + 2 the memo keeps just the squares
    # of the window, and below it a product goes once its last reader has run
    # (V_{2j+1} for s_j and d_j, V_{2j} for o_j), so after term m none is left
    # at 2 .. m // 2
    M, seen = 60, []
    L = (M + 2) // 2 + 2

    def counted(c, P):
        f = net(c, P)

        def call(m, last=None):
            out = f(m, last)
            S, D, O = f.args[5]
            seen.append(m)
            for memo in (S, D, O):
                kept = [j for j in memo if not (j <= 1 or m // 2 < j <= L or (memo is S and j in (m, m + 1)))]
                assert not kept, (m, kept)
            return out
        return call

    monkeypatch.setattr(eds, "net", counted)
    generate(make_curve_xb(100), Point(20, 100), M)
    assert seen == list(range(1, M + 1))


# SHA-256 of the (A_m, B_m, C_m) of generate, each int as signed big-endian
# bytes, taken before the net shared its squares: pins the prefixes far past
# the oracle's 40 terms, on b = 5, on a generator with H > 1 and on a 2b of
# two 64-bit limbs
LONG_PREFIXES = [
    (5, 20, 90, 150, "c7e54e9c1977f29c682f6cf0bbf266c5505c4f69169821491011f9629c16584a"),
    (100, 20, 100, 150, "0a504504cee62f307ee222103bce09cfe604ccc227be311bdf43f0c538b41dcb"),
    (19342813116668607771809189, Fraction(1, 4), Fraction(17592186045705, 8), 80,
     "30d506dbef204e38dfab4b41d3a31989d135bb57ae039d8b3ed635652f646879"),
]


def test_long_prefixes_are_pinned():
    assert net(make_curve_xb(100), Point(20, 100)).args[1] > 1
    for b, x, y, M, digest in LONG_PREFIXES:
        h = hashlib.sha256()
        for t in generate(make_curve_xb(b), Point(x, y), M).terms:
            for n in (t.A, t.B, t.C):
                h.update(n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True))
        assert h.hexdigest() == digest, (b, M)


def test_a_resumed_prefix_and_a_late_jump_match_fresh_nets():
    # extend from a non-empty prefix starts its net at L + 1 by random access
    # and then runs along the prefix; a net that has run along 1..60, with and
    # without the end of that prefix, then jumps past it
    for b, x, y, M, _ in LONG_PREFIXES[:2]:
        c, P = make_curve_xb(b), Point(x, y)
        full = generate(c, P, M)
        for L in (1, 37, M - 1):
            assert eds.extend(eds.Sequence(c, P, full.terms[:L]), M) == full, (b, L)
        for last in (None, 60):
            f = net(c, P)
            assert [f(m, last) for m in range(1, 61)] == [(t.A, t.B, t.C) for t in full.terms[:60]]
            assert f(200) == net(c, P)(200) and f(61, 61) == net(c, P)(61), (b, last)


def test_net_squares_the_modulus_when_a_prime_of_2b_fills_dj(monkeypatch):
    # one gcd with Dj finds the common factor of x(nP) unless a prime of 2b
    # divides it as often as Dj: then the net takes the gcd again modulo Dj^2,
    # Dj^4, ...  Where P is singular the factor fills Dj at some n; at the
    # b = 8 generator (H = 1) one gcd per term is enough
    calls = []
    monkeypatch.setattr(curve, "gcd", lambda *args: calls.append(args) or gcd(*args))
    for b, x, y, H in [(5, 20, 90, 5**6), (128, 32, 192, 2**42), (18, 6, 18, 2**6 * 3**12),
                       (8, Fraction(49, 36), Fraction(-791, 216), 1)]:
        c, P = make_curve_xb(b), Point(x, y)
        f = net(c, P)
        assert f.args[1] == H
        terms, counts = [], []
        for n in range(1, 41):
            before = len(calls)
            terms.append(f(n))
            counts.append(len(calls) - before)
        assert terms == multiples_oracle(c, P, 40), b
        assert (max(counts) >= 2) == (H > 1) and min(counts) == 1, (b, counts)


def test_integer_curve_checks_match_the_fraction_formulas():
    # on_curve and is_torsion read numerators and denominators; the Fraction
    # forms y^2 = x(x^2 + b) and x = 0 or x^2 = b are the oracle, on the sweep
    # generators and their multiples, on points moved off the curve, on the
    # torsion points and on random fractions
    rng = random.Random(29)
    cases = []
    for b, G in SWEEP:
        c = make_curve_xb(b)
        for Q in (G, mul(c, 2, G), mul(c, 3, G)):
            x, y = Q.x, Q.y
            cases += [(c, Point(x, y)), (c, Point(x, -y)), (c, Point(x, y + 1)), (c, Point(x + 1, y)),
                      (c, Point(x, y / 2)), (c, Point(x / 4, y / 8)), (c, Point(-x, y)), (c, Point(x, 0))]
    for t in range(1, 6):
        c = make_curve_xb(4 * t**4)
        cases += [(c, Point(2 * t * t, 4 * t**3)), (c, Point(2 * t * t, -4 * t**3)), (c, Point(0, 0)),
                  (c, Point(-2 * t * t, 4 * t**3)),
                  (c, Point(Fraction(2 * t * t, 9), Fraction(4 * t**3, 27)))]
    for _ in range(3000):
        u = rng.randrange(1, 6)
        x = Fraction(rng.randrange(-30, 31), rng.choice((1, u * u, rng.randrange(1, 40))))
        y = Fraction(rng.randrange(-200, 201), rng.choice((1, u**3, rng.randrange(1, 60))))
        cases.append((make_curve_xb(rng.randrange(1, 40)), Point(x, y)))
    for c, Q in cases:
        x, y = Q.x, Q.y
        assert on_curve(c, Q) == (y * y == x * (x * x + c.b)), (c, Q)
        assert is_torsion(c, Q) == (x == 0 or x * x == c.b), (c, Q)
    assert sum(on_curve(c, Q) for c, Q in cases) >= 39
    assert sum(is_torsion(c, Q) for c, Q in cases) >= 15


def test_net_takes_no_gcd_of_two_big_numbers(monkeypatch):
    # the common factor of x(nP) is stripped by gcds with 2b, never by a
    # gcd of two numbers of about the bits of B_n
    calls = []

    def spy(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(curve, "gcd", spy)
    s = generate(make_curve_xb(5), Point(20, 90), 60)
    assert s.terms[-1].B.bit_length() > 5000 and calls
    assert not [a for a in calls if sum(x.bit_length() > 1000 for x in a) >= 2]


def test_mul_rejects_torsion():
    with pytest.raises(HypothesisError):
        mul(make_curve_xb(5), 2, Point(0, 0))
    for t in range(1, 5):
        c = make_curve_xb(4 * t**4)
        for y in (4 * t**3, -4 * t**3):
            with pytest.raises(HypothesisError):
                mul(c, 3, Point(2 * t * t, y))
    with pytest.raises(ValueError):
        mul(make_curve_xb(5), 2, Point(3, 7))  # not on the curve


def test_net_faults_are_arithmetic_errors(monkeypatch):
    # (3 - 0) / 2 is no integer
    with pytest.raises(ArithmeticError, match="^a term of the elliptic net is not an integer$"):
        curve._quotient(1, 0, 3, 0, 0, 0, 2)
    # a gcd of 2 leaves the x-denominator of 3P off a square
    f = net(make_curve_xb(5), Point(20, 90))
    answers = iter([2])
    monkeypatch.setattr(curve, "gcd", lambda *args: next(answers, 1))
    with pytest.raises(ArithmeticError, match="^x-denominator of 3P is not a perfect square$"):
        f(3)


def test_x_part_is_the_first_two_of_the_triple_and_h_its_own_formula():
    # B_n alone comes off the x-part, which forms no y-numerator: read upward
    # before the full triples on one net, and out of order on a fresh one, it
    # is (A_n, B_n) of the triple.  H, read off B_5 through the x-part, is
    # B W_5 / B_5 with W_5 from the division polynomial psi_5, on the sweep
    # (H > 1 at b = 5 and b = 14) and at two deeper excesses
    for b, P in SWEEP:
        c = make_curve_xb(b)
        f, fresh = net(c, P), net(c, P)
        xs = [curve._x_part(*f.args, n)[:2] for n in range(1, 121)]
        assert xs == [f(n)[:2] for n in range(1, 121)], b
        assert all(curve._x_part(*fresh.args, n)[:2] == xs[n - 1] for n in (120, 119, 64, 47, 25, 5, 2, 1)), b
    for b, P in [*SWEEP, (100, Point(20, 100)), (128, Point(32, 192))]:
        c = make_curve_xb(b)
        assert net(c, P).args[1] == net_H_oracle(c, P), b
