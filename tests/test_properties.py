"""Property tests: the elliptic net against the Fraction group law, the
closed-form prime valuations against p-adic lifting, the sieved
perfect-power search against a Newton root for every prime exponent, and
the closed-form Frey invariants against the generic Weierstrass formulas."""
from math import gcd, isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from edspower import (  # noqa: E402
    FreySolution,
    Point,
    SplitType,
    construct,
    generate,
    is_torsion,
    make_curve_xb,
    perfect_power,
    prime_valuation,
    primes_above,
    valuation,
)

from helpers import (  # noqa: E402
    add,
    multiples_oracle,
    perfect_power_root_oracle,
    invariants_oracle,
    prime_valuation_oracle,
    qmul,
)

M = 8


def _generators():
    """Non-torsion integral points of y^2 = x(x^2 + b), b <= 60, 1 <= x <= 60."""
    out = []
    for b in range(1, 61):
        c = make_curve_xb(b)
        for x in range(1, 61):
            rhs = x * (x * x + b)
            y = isqrt(rhs)
            if y * y == rhs and not is_torsion(c, Point(x, y)):
                out += [(b, x, y), (b, x, -y)]
    return out


GENERATORS = _generators()


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.sampled_from(GENERATORS), st.integers(1, 3))
def test_net_matches_oracle_on_multiples(gen, k):
    b, x, y = gen
    c = make_curve_xb(b)
    P = Point(x, y)
    G = P
    for _ in range(k - 1):
        G = add(c, G, P)
    s = generate(c, G, M)
    assert [(t.A, t.B, t.C) for t in s.terms] == multiples_oracle(c, G, M)
    B = [t.B for t in s.terms]
    for m in range(1, M + 1):
        for n in range(1, M + 1):
            assert gcd(B[m - 1], B[n - 1]) == B[gcd(m, n) - 1]


FIELDS = (1, 2, 3, 5, 6, 7, 10, 13, 14, 15, 17, 21, 30, 41)
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    st.sampled_from(FIELDS),
    st.sampled_from(ODD_PRIMES),
    st.integers(-10**9, 10**9),
    st.integers(-10**9, 10**9),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 3),
)
def test_valuations_match_lifting_and_the_norm(a, p, x, y, e_plus, e_minus, e_p):
    hypothesis.assume(a % p != 0 and (x, y) != (0, 0))
    Ps = primes_above(a, p)
    # plant powers of root + sqrt(a), of its conjugate and of p
    r = Ps[0].root if Ps[0].kind is SplitType.SPLIT and a > 1 else 1 + p
    z = qmul(a, (x, y), *[(r, 1)] * e_plus, *[(r, -1)] * e_minus, (p**e_p, 0))
    hypothesis.assume(not z.is_zero)
    vals = [prime_valuation(z, P) for P in Ps]
    assert vals == [prime_valuation_oracle(z, P) for P in Ps]
    v_norm = valuation(z.x * z.x - a * z.y * z.y, p)
    if Ps[0].kind is SplitType.SPLIT and a > 1:
        assert sum(vals) == v_norm
    else:
        assert 2 * vals[0] == v_norm


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    st.integers(2, 2**200),
    st.integers(1, 16),
    st.sampled_from((1, 2, 3, 7, 11, 3 * 7 * 11, 10007)),
    st.integers(-1, 1),
)
def test_perfect_power_matches_root_oracle(w, ell, factor, shift):
    # planted w**ell, times a witness-sized prime or off by one
    n = w**ell * factor + shift
    hypothesis.assume(n > 1)
    assert perfect_power(n) == perfect_power_root_oracle(n)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    st.sampled_from((1, 2, 3, 5, 6, 7, 10, 13, 15, 21)),
    st.integers(1, 60),
    st.integers(1, 10**6),
    st.integers(1, 5),
    st.sampled_from((1, -1)),
    st.sampled_from((1, -1)),
)
def test_frey_invariants_match_generic_formulas(a, u, v, ell, su, sv):
    d = v * v - a * u**4
    hypothesis.assume(d >= 1 and (a * d) % gcd(u, v) == 0)
    F = construct(FreySolution(a=a, d=d, u=su * u, v=sv * v, w=1, ell=ell))
    invariants_oracle(F)  # raises on any mismatch
    assert not F.delta.is_zero
