"""Property tests: the elliptic net against the Fraction group law."""
from math import gcd, isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from edspower import Point, generate, is_torsion, make_curve_xb  # noqa: E402

from helpers import add, multiples_oracle  # noqa: E402

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
