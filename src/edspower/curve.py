"""The curves y^2 = x(x^2 + b), b a positive integer, with an exact group law.

Every curve of the package belongs to this one family.  Its discriminant
-64b^3 never vanishes, so every member is nonsingular.  Points carry exact
Fraction coordinates.  No floating point anywhere: the sequence extraction
downstream needs bit-exact denominators.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Curve:
    """y^2 = x(x^2 + b) = x^3 + b*x."""

    b: int

    def __post_init__(self):
        if not isinstance(self.b, int) or self.b < 1:
            raise ValueError("b must be a positive integer")


@dataclass(frozen=True)
class Point:
    """A rational point: affine (x, y) or the point at infinity (None, None)."""

    x: Fraction | None
    y: Fraction | None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ValueError("both coordinates must be given, or neither")
        if self.x is not None:
            object.__setattr__(self, "x", Fraction(self.x))
            object.__setattr__(self, "y", Fraction(self.y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = Point(None, None)


def make_curve_xb(b: int) -> Curve:
    """The curve y^2 = x(x^2 + b) for a positive integer b."""
    return Curve(b)


def on_curve(c: Curve, P: Point) -> bool:
    """Exact check of the curve equation."""
    if P.is_infinity:
        return True
    x, y = P.x, P.y
    return y * y == x * (x * x + c.b)


def neg(c: Curve, P: Point) -> Point:
    if P.is_infinity:
        return P
    return Point(P.x, -P.y)


def add(c: Curve, P: Point, Q: Point) -> Point:
    """Chord-tangent sum of two points on c, exactly."""
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
    if x1 == x2:
        if y1 + y2 == 0:
            return INFINITY  # Q = -P (covers doubling a 2-torsion point)
        # otherwise both points coincide: tangent line
        lam = (3 * x1 * x1 + c.b) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    # the line through Q: sequence generation passes the small generator as Q
    return Point(x3, lam * (x2 - x3) - y2)


def mul(c: Curve, n: int, P: Point) -> Point:
    """n-fold sum of P by double-and-add, n >= 1."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    result = INFINITY
    addend = P
    while n:
        if n & 1:
            result = add(c, result, addend)
        n >>= 1
        if n:
            addend = add(c, addend, addend)
    return result


def is_torsion(c: Curve, P: Point) -> bool:
    """True iff P has finite order.  P must lie on c.

    For b > 0 the rational torsion is {O, (0, 0)}, except for b = 4t^4,
    which adds the points (2t^2, +-4t^3) of order 4 (Knapp, Elliptic
    Curves, the torsion of y^2 = x^3 + bx).  These are exactly the points
    of c with x^2 = b: x(2P) = (x^2 - b)^2 / (4y^2) vanishes there.
    """
    return P.is_infinity or P.x == 0 or P.x * P.x == c.b
