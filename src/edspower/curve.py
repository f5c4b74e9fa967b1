"""The curves y^2 = x(x^2 + b), b a positive integer, and the multiples of a point.

Every curve of the package belongs to this one family.  Its discriminant
-64b^3 never vanishes, so every member is nonsingular.  Points are affine,
with exact Fraction coordinates: no multiple of a non-torsion point is O,
so there is no point at infinity.  The multiples nP come from one integer
recurrence, the elliptic net of P, with y(nP) read off squares shared
between neighbouring windows and x(nP) reduced over the primes of 2b only
(Ayad 1992); there is no chord-tangent group law here.  No floating point
anywhere: the sequences downstream need bit-exact denominators.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable

from .errors import HypothesisError


@dataclass(frozen=True)
class Curve:
    """y^2 = x(x^2 + b) = x^3 + b*x."""

    b: int

    def __post_init__(self):
        if not isinstance(self.b, int) or isinstance(self.b, bool) or self.b < 1:
            raise ValueError("b must be a positive integer")


@dataclass(frozen=True)
class Point:
    """An affine rational point (x, y); its text "x,y" is the form the CLI parses."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))

    def __str__(self):
        return f"{self.x},{self.y}"


make_curve_xb = Curve  # the name edsbench calls


def on_curve(c: Curve, P: Point) -> bool:
    """Exact check of the curve equation."""
    x, y = P.x, P.y
    return y * y == x * (x * x + c.b)


def net(c: Curve, P: Point) -> Callable[[int], tuple[int, int, int]]:
    """n -> (A_n, B_n, C_n) of nP = (A_n/B_n^2, C_n/B_n^3), read off the elliptic net of P.

    P must be a non-torsion point of c.  With P = (A/B^2, C/B^3)
    the net W_n = B^(n^2-1) psi_n(P) is an integer sequence (Ward 1948;
    Stange 2007, "Elliptic nets"), and
        x(nP) = (A W_n^2 - W_{n-1} W_{n+1}) / (B W_n)^2,
        y(nP) = (W_{n+2} W_{n-1}^2 - W_{n-2} W_{n+1}^2) / (2 W_2 (B W_n)^3).
    A prime at which P is non-singular divides no common factor of the
    numerator and denominator of x(nP) (Ayad 1992, "Points S-entiers des
    courbes elliptiques"), and the singular primes divide the discriminant
    -64b^3.  So x(nP) is reduced by gcds with Dj, the largest power of 2b
    below 2^30 (2b itself when larger), which stays one digit of an int:
    never by a gcd of two numbers of twice the bits of B_n.
    Where P is singular mod p, W_n carries p^(g n^2 - r(n)) beyond B_n, with
    r periodic in n (local heights): at some generators more bits than B_n
    itself.  The reduction there is additive, so 5P lies on the component of
    +-P and the excess of W_5 is H = prod p^(24 g).  The memo holds
    V_n = W_n / H^t(n), t(n) = (n^2 - 1) // 24, with about the bits of B_n;
    every division is checked to be exact.  The net also keeps the squares
    of V_{n-1} .. V_{n+1} from its last call, so along a sequence each
    square V_n^2 is taken once and serves in x(nP) and in the y of both
    neighbours.
    """
    if not on_curve(c, P):
        raise ValueError("point does not satisfy the curve equation")
    if is_torsion(c, P):
        raise HypothesisError("generator is a torsion point")
    # a rational point of the curve has x = A/B^2, y = C/B^3 in lowest terms
    A, B, C = P.x.numerator, isqrt(P.x.denominator), P.y.numerator
    A2, u, Dj = A * A, c.b * B**4, 2 * c.b
    while Dj * 2 * c.b < 1 << 30:  # the largest power of 2b in one digit of an int
        Dj *= 2 * c.b
    W = {-1: -1, 0: 0, 1: 1, 2: 2 * C, 3: 3 * A2 * A2 + 6 * u * A2 - u * u,
         4: 4 * C * (A2**3 + 5 * u * A2 * A2 - 5 * u * u * A2 - u**3)}
    W1 = dict(W)  # the unscaled W_5 .. W_7 stay in this copy
    H = B * abs(_w(W1, 1, 5)) // _multiple(W1, 1, A, B, Dj, {}, 5)[1]
    return functools.partial(_multiple, W, H, A, B, Dj, {})


def _t(n: int) -> int:
    """The power of H taken out of W_n."""
    return max(n * n - 1, 0) // 24


def _quotient(H: int, a: int, X: int, b: int, Y: int, c: int, d: int = 1, f: int = 1) -> int:
    """f (H^a X - H^b Y) / (d H^c), which must be an integer."""
    m = min(a, b, c)
    q, r = divmod(f * (X * H ** (a - m) - Y * H ** (b - m)), d * H ** (c - m))
    if r:
        raise ArithmeticError("a term of the elliptic net is not an integer")
    return q


def _w(W: dict[int, int], H: int, n: int) -> int:
    """V_n by the duplication formulas, memoised in W.

    A plain function handed the dict: a self-calling closure would put each
    memo in a reference cycle, which only the cyclic garbage collector frees.
    """
    v = W.get(n)
    if v is None:
        k, t, w = n >> 1, _t, functools.partial(_w, W, H)
        if n & 1:
            v = _quotient(H, t(k + 2) + 3 * t(k), w(k + 2) * w(k) ** 3,
                          t(k - 1) + 3 * t(k + 1), w(k - 1) * w(k + 1) ** 3, t(n))
        else:
            v = _quotient(H, t(k + 2) + 2 * t(k - 1), w(k + 2) * w(k - 1) ** 2,
                          t(k - 2) + 2 * t(k + 1), w(k - 2) * w(k + 1) ** 2, t(n) - t(k), W[2], w(k))
        W[n] = v
    return v


def _multiple(W: dict[int, int], H: int, A: int, B: int, Dj: int, S: dict[int, int],
              n: int) -> tuple[int, int, int]:
    """(A_n, B_n, C_n) from the window V_{n-2} .. V_{n+2}.

    S holds the squares of the last call's V_{n-1} .. V_{n+1}: those inside
    this window are reused, the others dropped.
    """
    wm2, wm1, w, wp1, wp2 = (_w(W, H, i) for i in range(n - 2, n + 3))
    sq = {i: S.get(i) or _w(W, H, i) ** 2 for i in range(n - 1, n + 2)}
    S.clear()
    S.update(sq)
    t = _t
    e = t(n - 1) + t(n + 1) - 2 * t(n)
    k = max(0, 1 - e) // 2  # x = num / den^2 with no negative power of H
    ww, Hk = sq[n], H**k
    num, den2 = A * Hk * Hk * ww - wm1 * wp1 * H ** (e + 2 * k), (B * Hk) ** 2 * ww
    # gcd(num, den2) divides a power of 2b: strip it one single-digit gcd at a time
    g = 1
    while (r := gcd(num % Dj, den2 % Dj, Dj)) > 1:
        num, den2, g = num // r, den2 // r, g * r
    s = isqrt(g)
    if s * s != g:
        raise ArithmeticError(f"x-denominator of {n}P is not a perfect square")
    Cn = _quotient(H, t(n + 2) + 2 * t(n - 1) + 3 * k, wp2 * sq[n - 1],
                   t(n - 2) + 2 * t(n + 1) + 3 * k, wm2 * sq[n + 1], 3 * t(n), 2 * W[2] * s**3)
    return num, B * Hk * abs(w) // s, Cn if w > 0 else -Cn


def mul(c: Curve, n: int, P: Point) -> Point:
    """nP for n >= 1 and a non-torsion P, read off the elliptic net."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    A, B, C = net(c, P)(n)
    return Point(Fraction(A, B * B), Fraction(C, B**3))


def is_torsion(c: Curve, P: Point) -> bool:
    """True iff P has finite order.  P must lie on c.

    For b > 0 the affine rational torsion is (0, 0), except for b = 4t^4,
    which adds the points (2t^2, +-4t^3) of order 4 (Knapp, Elliptic
    Curves, the torsion of y^2 = x^3 + bx).  These are exactly the points
    of c with x^2 = b: x(2P) = (x^2 - b)^2 / (4y^2) vanishes there.
    """
    return P.x == 0 or P.x * P.x == c.b
