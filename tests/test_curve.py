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

from helpers import O, add, multiples_oracle, neg, torsion_oracle, weierstrass_invariants


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
    # terms 1..40 against the oracle, and every memoised net value within a few
    # words of B_n (unscaled, W_40 of (100, (20, 100)) carries about 2,600 bits more).
    # Random access too, on fresh nets and out of order on one: the net keeps
    # only the squares of V_{m-1} .. V_{m+1}.  A new net's memo holds the seeds
    # alone, so no unscaled W_5 .. W_7 from finding H is left in it
    assert net(make_curve_xb(128), Point(32, 192)).args[1] == 2**42
    for b, x, y in [(100, 20, 100), (196, 98, 980), (80, 80, 720), (18, 6, 18), (15, 15, 60), (5, 20, 90),
                    (19342813116668607771809189, Fraction(1, 4), Fraction(17592186045705, 8)),
                    (128, 32, 192), (163, 81, 738)]:
        c, P = make_curve_xb(b), Point(x, y)
        f = net(c, P)
        assert sorted(f.args[0]) == [-1, 0, 1, 2, 3, 4], (b, x, y)
        terms = [f(n) for n in range(1, 41)]
        assert terms == multiples_oracle(c, P, 40), (b, x, y)
        memo = f.args[0]
        assert all(memo[n].bit_length() <= terms[n - 1][1].bit_length() + 64 for n in range(1, 41)), (b, x, y)
        for m in [*range(1, 13), 40]:
            assert net(c, P)(m) == terms[m - 1], (b, x, y, m)
        for m in (40, 3, 39, 4, 5, 1, 2, 7, 6, 38, 40):
            assert f(m) == terms[m - 1] and sorted(f.args[5]) == [m - 1, m, m + 1], (b, x, y, m)


def test_net_reduces_by_a_digit_of_2b_and_keeps_three_squares(monkeypatch):
    # gcds with the largest power of 2b below 2^30, or with 2b when it is larger
    assert net(make_curve_xb(5), Point(20, 90)).args[4] == 10**9
    assert net(make_curve_xb(128), Point(32, 192)).args[4] == 2**24
    b = 19342813116668607771809189
    assert net(make_curve_xb(b), Point(Fraction(1, 4), Fraction(17592186045705, 8))).args[4] == 2 * b > 2**30
    # along generate, the squares never outnumber the window
    sizes = []

    def counted(c, P):
        f = net(c, P)

        def call(m):
            out = f(m)
            sizes.append(len(f.args[5]))
            return out
        return call

    monkeypatch.setattr(eds, "net", counted)
    generate(make_curve_xb(100), Point(20, 100), 60)
    assert len(sizes) == 60 and max(sizes) == 3


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
