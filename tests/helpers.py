"""Slow reference computations the tests compare against."""
from __future__ import annotations

from math import isqrt

import pytest

from edspower import (
    DEFAULT_BUDGET,
    Point,
    QuadElement,
    SplitType,
    exact_root,
    extend,
    factorize,
    valuation,
)


# The oracle's point at infinity: the package's points are all affine.
O = None


def neg(c, P):
    if P is O:
        return O
    return Point(P.x, -P.y)


def add(c, P, Q):
    """Chord-tangent sum of two points of y^2 = x(x^2 + b), exactly, over Fractions."""
    if P is O:
        return Q
    if Q is O:
        return P
    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
    if x1 == x2:
        if y1 + y2 == 0:
            return O  # Q = -P (covers doubling a 2-torsion point)
        lam = (3 * x1 * x1 + c.b) / (2 * y1)  # tangent line
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return Point(x3, lam * (x2 - x3) - y2)


def multiples_oracle(c, P, M: int) -> list[tuple[int, int, int]]:
    """(A_m, B_m, C_m) for m = 1..M by repeated oracle addition."""
    out = []
    Q = P
    for m in range(1, M + 1):
        B = isqrt(Q.x.denominator)
        assert B * B == Q.x.denominator and Q.y.denominator == B**3
        out.append((Q.x.numerator, B, Q.y.numerator))
        Q = add(c, Q, P)
    return out


def iroot_oracle(n: int, k: int) -> int:
    """floor(n ** (1/k)) by bisection."""
    assert n >= 0 and k >= 1
    if n < 2:
        return n
    # root < 2**ceil(bits/k); keeps bisection iterates small for large k
    lo, hi = 1, 1 << ((n.bit_length() + k - 1) // k)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def factor_oracle(n: int) -> dict[int, int]:
    """Complete factorization by unbounded trial division.  Small n only."""
    assert n >= 1
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def trial_factors_oracle(m: int, bound: int) -> list[tuple[int, int, int]]:
    """trial_factors' (p, e, rest) triples by plain trial division.  Small m only.

    Every prime up to max(bound, 5) is tried, in increasing order.  What is
    left is reported as a prime when it is below the square of the next
    prime, which for a bound of at most 12 is also the wheel's next step.
    """
    assert m >= 1 and bound <= 12
    bound = max(bound, 5)
    out = []
    for p in range(2, bound + 1):
        if is_prime_oracle(p) and m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e, m))
    nxt = next(p for p in range(bound + 1, 2 * bound + 2) if is_prime_oracle(p))
    if m > 1 and nxt * nxt > m:
        out.append((m, 1, 1))
    return out


def reassembled(f) -> int:
    """The product of a Factorization's prime powers and its unfactored cofactor."""
    out = f.unfactored_cofactor
    for p, e in f.factors.items():
        out *= p**e
    return out


def is_prime_oracle(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def perfect_power_oracle(n: int) -> tuple[int, int] | None:
    """Maximal (base, exp) with base**exp == n, exp >= 2, by direct root search."""
    assert n > 1
    for exp in range(n.bit_length(), 1, -1):
        base = iroot_oracle(n, exp)
        if base**exp == n:
            return base, exp
    return None


def perfect_power_root_oracle(n: int) -> tuple[int, int] | None:
    """Maximal (base, exp) with base**exp == n, exp >= 2, by a Newton root per prime.

    Every prime q <= bits(base) gets an exact_root call, with no sieve;
    after each root found the search starts again at 2.  Fast enough for
    inputs of a few thousand bits, where perfect_power_oracle is not.
    """
    assert n > 1
    base, exp = n, 1
    reduced = True
    while reduced:
        reduced = False
        for q in range(2, base.bit_length() + 1):
            if not is_prime_oracle(q):
                continue
            r = exact_root(base, q)
            if r is not None:
                base, exp = r, exp * q
                reduced = True
                break
    if exp == 1:
        return None
    return base, exp


def torsion_oracle(c, P) -> bool:
    """True iff nP = infinity for some n <= 12, by repeated addition.

    12 bounds the order of any rational torsion point (Mazur).
    """
    Q = P
    for _ in range(12):
        if Q is O:
            return True
        Q = add(c, Q, P)
    return False


def primitive_primes_oracle(s, m: int, primes) -> frozenset[int]:
    """The primes among `primes` that divide B_m and none of B_1..B_{m-1}."""
    Bm = s.terms[m - 1].B
    earlier = [t.B for t in s.terms[: m - 1]]
    return frozenset(p for p in primes if Bm % p == 0 and all(B % p for B in earlier))


def find_k_p0_oracle(s, q: int, T, search_cap: int, budget=DEFAULT_BUDGET):
    """(k, p0) by factoring each index term q^j in full, or None up to search_cap.

    p0 is the least primitive prime outside T among the primes the budget
    finds, primitivity checked against every earlier term.
    """
    v1 = valuation(s.terms[0].B, q)
    j = 1
    while q**j <= search_cap:
        index = q**j
        s = extend(s, index)
        primes = factorize(s.terms[index - 1].B, budget).factors
        found = sorted(p for p in primitive_primes_oracle(s, index, primes) if p not in T)
        if found:
            return v1 + j, found[0]
        j += 1
    return None


def _lift_root(a: int, p: int, r: int, precision: int) -> int:
    """Hensel lift: a root of x^2 = a mod an odd prime p into a root mod p**precision."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    mod = p
    while mod < p**precision:
        mod_next = min(mod * mod, p**precision)
        # Newton step: r <- r - (r^2 - a) / (2r)
        inv = pow(2 * r % mod_next, -1, mod_next)
        r = (r - (r * r - a) * inv) % mod_next
        mod = mod_next
    if (r * r - a) % p**precision != 0:
        raise ArithmeticError("Hensel lift failed to reach the requested precision")
    return r


def prime_valuation_oracle(z, P) -> int:
    """v_P(z) at a split or inert prime P over an odd p not dividing a, by p-adic lifting.

    Inert: v_p(norm)/2.  Split: the p-adic valuation of x + y*root with the
    root Hensel-lifted until the valuation resolves below the precision;
    the conjugate valuations are checked to sum to v_p(norm).
    """
    n = z.x * z.x - z.a * z.y * z.y
    v_norm = valuation(n, P.p)
    if P.kind is SplitType.INERT:
        if v_norm % 2 != 0:
            raise ArithmeticError("odd norm valuation at an inert prime")
        return v_norm // 2
    if v_norm == 0:
        return 0
    x, y = z.x, z.y
    t = 1
    cap = 4 * (v_norm + 2)
    while True:
        if t > cap:
            raise ArithmeticError("lift precision exhausted without resolving the valuation")
        base = P.root if t == 1 else _lift_root(z.a, P.p, P.root % P.p, t)
        mod = P.p**t
        here = (x + y * base) % mod
        conj = (x - y * base) % mod
        if here == 0 or conj == 0:
            t *= 2
            continue
        v_here = valuation(here, P.p)
        v_conj = valuation(conj, P.p)
        if v_here + v_conj != v_norm:
            raise ArithmeticError("conjugate valuations do not add up to the norm valuation")
        return v_here


def qmul(a: int, *factors: tuple[int, int]) -> QuadElement:
    """The product of the elements x + y*sqrt(a) given as (x, y) pairs."""
    x, y = 1, 0
    for fx, fy in factors:
        x, y = x * fx + a * y * fy, x * fy + y * fx
    return QuadElement(a, x, y)


def weierstrass_invariants(a1, a2, a3, a4, a6):
    """(discriminant, c4) of a long Weierstrass model by the standard formulas.

    Works over any commutative ring whose elements support +, -, * and
    multiplication by ints: used with sympy expressions in sqrt(a) by
    invariants_oracle and with plain integers in the tests.
    """
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * (a3 * a3) - a4 * a4
    disc = -b2 * b2 * b8 - 8 * (b4 * b4 * b4) - 27 * (b6 * b6) + 9 * b2 * b4 * b6
    c4 = b2 * b2 - 24 * b4
    return disc, c4


def invariants_oracle(F) -> None:
    """Check F's coefficients, delta and c4 against sympy over sqrt(a).

    The coefficients are built from F.solution as 4u*sqrt(a) and
    2*sqrt(a)*(v + u^2*sqrt(a)) and fed to the generic invariant formulas;
    none of F's stored values enters.  Raises ArithmeticError when any
    stored x + y*sqrt(a) differs from its expansion.
    """
    sympy = pytest.importorskip("sympy")
    s = F.solution
    r = sympy.sqrt(s.a)
    a2, a4 = 4 * s.u * r, 2 * r * (s.v + s.u**2 * r)
    disc, c4 = weierstrass_invariants(0, a2, 0, a4, 0)
    for want, z in ((a2, F.a2_coeff), (a4, F.a4_coeff), (disc, F.delta), (c4, F.c4)):
        if sympy.expand(want - z.x - z.y * r) != 0:
            raise ArithmeticError(f"the generic formulas disagree with the stored {z}")
