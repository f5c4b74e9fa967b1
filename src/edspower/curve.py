"""The curves y^2 = x(x^2 + b), b a positive integer, and the multiples of a point.

Every curve of the package belongs to this one family.  Its discriminant
-64b^3 never vanishes, so every member is nonsingular.  Points are affine,
with exact Fraction coordinates: no multiple of a non-torsion point is O,
so there is no point at infinity.  The multiples nP come from one integer
recurrence, the elliptic net of P, with x(nP) and y(nP) read off products
that the net's duplication formulas share and x(nP) reduced over the primes
of 2b only (Ayad 1992); there is no chord-tangent group law here.  No
floating point anywhere: the sequences downstream need bit-exact
denominators.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable

from .errors import HypothesisError, _require_positive


@dataclass(frozen=True)
class Curve:
    """y^2 = x(x^2 + b) = x^3 + b*x."""

    b: int

    def __post_init__(self):
        _require_positive(self.b, "b")


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
    """Exact check of the curve equation.

    With x = p/q and y = r/s in lowest terms, x(x^2 + b) = p(p^2 + b q^2)/q^3
    is in lowest terms too, so the equation holds exactly when s^2 = q^3 and
    r^2 = p(p^2 + b q^2).
    """
    p, q, r, s = P.x.numerator, P.x.denominator, P.y.numerator, P.y.denominator
    return s * s == q * q * q and r * r == p * (p * p + c.b * q * q)


def net(c: Curve, P: Point) -> Callable[..., tuple[int, int, int]]:
    """n -> (A_n, B_n, C_n) of nP = (A_n/B_n^2, C_n/B_n^3), read off the elliptic net of P.

    P must be a non-torsion point of c.  With P = (A/B^2, C/B^3)
    the net W_n = B^(n^2-1) psi_n(P) is an integer sequence (Ward 1948;
    Stange 2007, "Elliptic nets"), and
        x(nP) = (A W_n^2 - W_{n-1} W_{n+1}) / (B W_n)^2,
        y(nP) = (W_{n+2} W_{n-1}^2 - W_{n-2} W_{n+1}^2) / (2 W_2 (B W_n)^3).
    A prime at which P is non-singular divides no common factor of the
    numerator and denominator of x(nP) (Ayad 1992, "Points S-entiers des
    courbes elliptiques"), and the singular primes divide the discriminant
    -64b^3.  So the common factor of x(nP) is the gcd of residues modulo
    Dj, the largest power of 2b below 2^30 (2b itself when larger), which
    stays one digit of an int; only when a prime of 2b divides it as often
    as Dj are the residues taken again modulo Dj^2, Dj^4, ...  There is never
    a gcd of two numbers of twice the bits of B_n.
    Where P is singular mod p, W_n carries p^(g n^2 - r(n)) beyond B_n, with
    r periodic in n (local heights): at some generators more bits than B_n
    itself.  The reduction there is additive, so 5P lies on the component of
    +-P and the excess of W_5 is H = prod p^(24 g), read off W_5 and B_5.
    The memo holds V_n = W_n / H^t(n), t(n) = (n^2 - 1) // 24, with about
    the bits of B_n; every division is checked to be exact.
    A second memo holds three products per index j: the square
    s_j = V_j^2, the neighbour product d_j = V_{j-1} V_{j+1} and the
    y-numerator W_{j+2} W_{j-1}^2 - W_{j-2} W_{j+1}^2 = H^m(j) o_j.  The
    term n is cut in two: its x-part (A_n, B_n) reads s_n and d_n, and its
    y-part C_n reads o_n, which needs V_{n-2} and V_{n+2} besides.  A read
    of B_n alone, such as B_5 for H here and the ledger's index walk, runs
    the x-part only.  The duplication formulas read the same products at
    half the index, unscaled
        W_{2k+1} = d_{k+1} s_k - d_k s_{k+1},  W_{2k} = W_k o_k / W_2,
    so along a sequence each product is formed once.  The memo is a cache:
    whatever it lacks is formed again.  f(n, M) tells the net that the
    calls run n, n + 1, .. M: it then drops each product once its last
    reader on that path has run, and keeps none that only indices past M
    would read.
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
    W1, Q1 = dict(W), ({}, {}, {})  # the unscaled W_5, W_6 and their products stay in these copies
    H = B * abs(_w(W1, 1, Q1, 5)) // _x_part(W1, 1, A, B, Dj, Q1, 5)[1]
    return functools.partial(_multiple, W, H, A, B, Dj, ({}, {}, {}))


@functools.lru_cache(maxsize=1 << 12)
def _t(n: int) -> int:
    """The power of H taken out of W_n."""
    return max(n * n - 1, 0) // 24


@functools.lru_cache(maxsize=1 << 12)
def _m(j: int) -> int:
    """The power of H taken out of the y-numerator at j."""
    return min(_t(j + 2) + 2 * _t(j - 1), _t(j - 2) + 2 * _t(j + 1))


def _quotient(H: int, a: int, X: int, b: int, Y: int, c: int, d: int = 1) -> int:
    """(H^a X - H^b Y) / (d H^c), which must be an integer."""
    m = min(a, b, c)
    q, r = divmod(X * H ** (a - m) - Y * H ** (b - m), d * H ** (c - m))
    if r:
        raise ArithmeticError("a term of the elliptic net is not an integer")
    return q


def _w(W: dict[int, int], H: int, Q: tuple[dict[int, int], ...], n: int) -> int:
    """V_n by the duplication formulas, memoised in W.

    Plain functions handed the dicts: a self-calling closure would put each
    memo in a reference cycle, which only the cyclic garbage collector frees.
    """
    v = W.get(n)
    if v is None:
        k, t = n >> 1, _t
        if n & 1:
            v = _quotient(H, t(k + 2) + 3 * t(k), _nb(W, H, Q, k + 1) * _sq(W, H, Q, k),
                          t(k - 1) + 3 * t(k + 1), _nb(W, H, Q, k) * _sq(W, H, Q, k + 1), t(n))
        else:
            m = _m(k)
            v = _quotient(H, m, _w(W, H, Q, k) * _om(W, H, Q, k), m, 0, t(n) - t(k), W[2])
        W[n] = v
    return v


def _sq(W: dict[int, int], H: int, Q: tuple[dict[int, int], ...], j: int) -> int:
    """s_j = V_j^2, memoised in Q[0]."""
    s = Q[0].get(j)
    if s is None:
        s = Q[0][j] = _w(W, H, Q, j) ** 2
    return s


def _nb(W: dict[int, int], H: int, Q: tuple[dict[int, int], ...], j: int) -> int:
    """d_j = V_{j-1} V_{j+1}, memoised in Q[1]."""
    d = Q[1].get(j)
    if d is None:
        d = Q[1][j] = _w(W, H, Q, j - 1) * _w(W, H, Q, j + 1)
    return d


def _om(W: dict[int, int], H: int, Q: tuple[dict[int, int], ...], j: int) -> int:
    """o_j = (W_{j+2} W_{j-1}^2 - W_{j-2} W_{j+1}^2) / H^m(j), memoised in Q[2]."""
    o = Q[2].get(j)
    if o is None:
        t, m = _t, _m(j)
        o = Q[2][j] = (_w(W, H, Q, j + 2) * _sq(W, H, Q, j - 1) * H ** (t(j + 2) + 2 * t(j - 1) - m)
                       - _w(W, H, Q, j - 2) * _sq(W, H, Q, j + 1) * H ** (t(j - 2) + 2 * t(j + 1) - m))
    return o


def _x_part(W: dict[int, int], H: int, A: int, B: int, Dj: int, Q: tuple[dict[int, int], ...],
            n: int) -> tuple[int, int, int, int]:
    """(A_n, B_n, s, k), x(nP) = A_n / B_n^2, from the products s_n and d_n alone.

    It forms V_{n-1} .. V_{n+1} and no y-numerator.  s^2 is the common
    factor taken out of x(nP) times H^k, which C_n's quotient divides out
    as s^3.  This is the one reduction path: _multiple adds the y-part to
    it, and a read of B_n alone (H in net, the ledger's index walk) stops
    here.
    """
    t = _t
    ww, w = _sq(W, H, Q, n), W[n]
    e = t(n - 1) + t(n + 1) - 2 * t(n)
    # x = (A s_n - d_n H^e) / (B^2 s_n).  At e = -1 (k = 1) both are taken
    # times H^2, so that den = B H V_n is an integer; num is then the
    # numerator over H, and that H, common to both, goes into g at once
    k = max(0, 1 - e) // 2
    Hk = H**k
    num = A * Hk * ww - _nb(W, H, Q, n) * H ** (e + k)
    # gcd(num, den^2 / H^k) divides a power of 2b, so its gcd with R = Dj, read
    # off residues, is all of it unless a prime of 2b divides it as often as R;
    # only then is R squared and the residues taken again
    R = Dj
    while pow(R // (g := gcd(num % R, B * B * Hk * (w % R) ** 2 % R, R)), R.bit_length(), R):
        R *= R
    if g > 1:
        num //= g
    g *= Hk
    s = isqrt(g)
    if s * s != g:
        raise ArithmeticError(f"x-denominator of {n}P is not a perfect square")
    return num, B * Hk * abs(w) // s, s, k


def _multiple(W: dict[int, int], H: int, A: int, B: int, Dj: int, Q: tuple[dict[int, int], ...],
              n: int, last: int | None = None) -> tuple[int, int, int]:
    """(A_n, B_n, C_n): the x-part, then C_n from the y-numerator o_n, which reads s_{n-1} and s_{n+1}.

    With last, the calls run n, n + 1, .. last, and the products that no
    later call on that path reads are dropped from Q.
    """
    num, den, s, k = _x_part(W, H, A, B, Dj, Q, n)
    a = _m(n) + 3 * k
    Cn = _quotient(H, a, _om(W, H, Q, n), a, 0, 3 * _t(n), 2 * W[2] * s**3)
    if last is not None:
        S, D, O = Q
        # on the path n, n + 1, .., V_{2j+1} is the last reader of s_j and d_j
        # and V_{2j} of o_j; this call formed V_{n+2}, so j = n // 2 + 1
        for memo in (S, D) if n & 1 else (O,):
            memo.pop(n // 2 + 1, None)
        if n > (last + 2) // 2 + 2:  # past the indices that V_1 .. V_{last+2} read
            for memo, j in ((S, n - 1), (D, n), (O, n)):
                memo.pop(j, None)
    return num, den, Cn if W[n] > 0 else -Cn


def mul(c: Curve, n: int, P: Point) -> Point:
    """nP for n >= 1 and a non-torsion P, read off the elliptic net."""
    _require_positive(n, "n")
    A, B, C = net(c, P)(n)
    return Point(Fraction(A, B * B), Fraction(C, B**3))


def is_torsion(c: Curve, P: Point) -> bool:
    """True iff P has finite order.  P must lie on c.

    For b > 0 the affine rational torsion is (0, 0), except for b = 4t^4,
    which adds the points (2t^2, +-4t^3) of order 4 (Knapp, Elliptic
    Curves, the torsion of y^2 = x^3 + bx).  These are exactly the points
    of c with x^2 = b: x(2P) = (x^2 - b)^2 / (4y^2) vanishes there.  The
    integer b is the square of a fraction only when that fraction is an
    integer.
    """
    x = P.x.numerator
    return x == 0 or (P.x.denominator == 1 and x * x == c.b)
