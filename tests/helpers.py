"""Slow reference computations the tests compare against."""
from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from enum import Enum
from fractions import Fraction
from functools import cache, partial
from itertools import chain, count, cycle
from math import gcd, isqrt

import pytest

from edspower import (
    DEFAULT_BUDGET,
    EnvelopeBound,
    Factorization,
    LevelSupport,
    Point,
    QuadElement,
    SplitType,
    exact_root,
    extend,
    factorize,
    primes_above,
    valuation,
)
from edspower.arith import rho_factors
from edspower.ledger import CandidateField, LevelEntry


# The oracle's point at infinity: the package's points are all affine.
O = None

# (b, generator): (20, 90) on b = 5, its double, a b = 8 generator and the
# b = 14 ledger point
SWEEP = (
    (5, Point(20, 90)),
    (5, Point(Fraction(6241, 1296), Fraction(543599, 46656))),
    (8, Point(Fraction(49, 36), Fraction(-791, 216))),
    (14, Point(Fraction(103058, 2209), Fraction(-33190578, 103823))),
)


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


@contextmanager
def small_peak(limit: int = 1 << 20):
    """Assert that the block's peak traced allocation stays below limit bytes.

    Guards inputs whose size lies in an exponent: an answer that builds
    w**ell for a huge ell peaks far above a megabyte.
    """
    tracemalloc.start()
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, f"peak {peak} bytes"


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


def trial_factors_wheel(m: int, bound: int) -> list[tuple[int, int, int]]:
    """trial_factors' (p, e, rest) triples by one division per candidate of a mod-30 wheel.

    2, 3 and 5, then every number prime to 30 from 7 on, up to max(bound, 5)
    and while p*p <= rest.  The remainder is reported as a prime when the
    wheel's next candidate, which may be composite (49 after 47), has a
    square above it.
    """
    bound = max(bound, 5)
    steps = chain((1, 2, 2), cycle((4, 2, 4, 2, 4, 6, 2, 6)))
    out = []
    p = 2
    while p <= bound and p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e, m))
        p += next(steps)
    if m > 1 and p * p > m:
        out.append((m, 1, 1))
    return out


def factorize_wheel(n: int, budget=DEFAULT_BUDGET) -> Factorization:
    """factorize with the wheel's trial stage, then the same rho stage."""
    factors: dict[int, int] = {}
    rest = abs(n)
    for p, e, rest in trial_factors_wheel(rest, budget.trial_bound):
        factors[p] = e
    found, cofactor = rho_factors(rest, budget)
    factors.update(found)
    return Factorization(factors, cofactor)


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


@cache
def _prime_one_mod(q: int, k: int) -> int:
    """The k-th prime r = 1 (mod q), counting from 0, by trial division."""
    start = q + 1 if k == 0 else _prime_one_mod(q, k - 1) + q
    return next(r for r in count(start, q) if is_prime_oracle(r))


def perfect_power_valuation_oracle(n: int, bound: int = 1000) -> tuple[int, int] | None:
    """Maximal (base, exp) with base**exp == n, exp >= 2, for long n, from its valuations.

    n = w**ell makes ell divide the gcd g of the valuations of n at the primes
    below bound.  If none of them divides n (g = 0), w > bound, so ell is
    below bits(n) / log2(bound).  Each prime q left is ruled out when n is no
    q-th power mod the least prime r = 1 (mod q) that does not divide n, and
    is otherwise settled by exact_root: one pow of the whole n per q, with no
    table and no blocks.  Fast on long terms B_m, where
    perfect_power_root_oracle is not.
    """
    assert n > 1
    g = 0
    for p in filter(is_prime_oracle, range(2, bound)):
        m, e = n, 0
        while m % p == 0:
            m, e = m // p, e + 1
        g = gcd(g, e)
    top = g or n.bit_length() // (bound.bit_length() - 1)
    base, exp = n, 1
    for q in filter(is_prime_oracle, range(2, top + 1)):
        if g % q:
            continue
        r = next(r for r in map(partial(_prime_one_mod, q), count()) if n % r)
        while pow(base, (r - 1) // q, r) == 1 and (w := exact_root(base, q)) is not None:
            base, exp = w, exp * q
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


@cache
def _primes_above_oracle(a: int, p: int):
    return primes_above(a, p)


def envelope_bound_oracle(P) -> EnvelopeBound:
    """(sqrt(N) + 1)^2 at a prime P over p0, from P's residue norm as primes_above built it."""
    N = P.residue_norm
    r = isqrt(N)
    if r * r == N:
        return EnvelopeBound(N, (r + 1) ** 2, (r + 1) ** 2, str((r + 1) ** 2))
    # the least integer above N + 1 + 2*sqrt(N), as 2*sqrt(N) is irrational
    ceiling = N + 2 + isqrt(4 * N)
    return EnvelopeBound(N, None, ceiling, f"{N + 1} + 2*sqrt({N})")


def level_support_oracle(ideals) -> LevelSupport:
    """Exponent caps for the given prime ideals of primes_above, one entry per ideal."""
    entries, count = [], 1
    for P in ideals:
        e = 2 if P.kind is SplitType.RAMIFIED else 1
        cap = 2 + 6 * e if P.p == 2 else 2 + 3 * e if P.p == 3 else 2
        entries.append(LevelEntry(P.p, P.kind, e, cap))
        count *= cap + 1
    return LevelSupport(tuple(entries), count)


@cache
def _level_supports_oracle(b: int) -> list[tuple[int, LevelSupport]]:
    """(a, level support) for each squarefree a | b, by trial division, over the ideals of 2b."""
    T = sorted(factor_oracle(2 * b))
    return [(a, level_support_oracle([P for p in T for P in _primes_above_oracle(a, p)]))
            for a in range(1, b + 1) if b % a == 0 and all(a % (p * p) for p in T)]


def candidate_fields_oracle(b: int, p0: int) -> tuple[CandidateField, ...]:
    """The ledger's fields at p0, assembled from the prime ideals that primes_above builds.

    Per squarefree a | b: the ideal over p0, and every ideal of Q(sqrt(a))
    over the primes of 2b.
    """
    fields = []
    for a, support in _level_supports_oracle(b):
        P0 = _primes_above_oracle(a, p0)[0]
        fields.append(CandidateField(a, P0.kind, envelope_bound_oracle(P0), support))
    return tuple(fields)


def net_H_oracle(c, P) -> int:
    """The excess H = B W_5 / B_5 of the net at P, from the division polynomial psi_5.

    W_5 = B^24 psi_5(P) with B^2 the denominator of x(P), and B_5 the
    denominator of 5P by repeated chord-tangent addition.
    """
    x, y, b = P.x, P.y, c.b
    psi3 = 3 * x**4 + 6 * b * x**2 - b * b
    psi4 = 4 * y * (x**6 + 5 * b * x**4 - 5 * b * b * x**2 - b**3)
    psi5 = psi4 * (2 * y) ** 3 - psi3**3
    B = isqrt(x.denominator)
    W5 = psi5 * B**24
    assert W5.denominator == 1
    return B * abs(W5.numerator) // multiples_oracle(c, P, 5)[4][1]


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


def stringify_oracle(obj):
    """The JSON form of a result as a tree of str, list, dict, bool and None.

    Integers and rationals become decimal strings, an Enum its value, a set
    a sorted list, a QuadElement {"x", "y", "display"}, and any other
    dataclass an object read from vars().  json.dumps(..., indent=2) of this
    tree is the reference for the CLI's one-walk writer.
    """
    if obj is None or isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, Fraction)):
        return str(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, str):
        return obj
    if isinstance(obj, (list, tuple)):
        return [stringify_oracle(v) for v in obj]
    if isinstance(obj, dict):
        return {k: stringify_oracle(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [stringify_oracle(v) for v in sorted(obj)]
    if isinstance(obj, QuadElement):
        return {"x": str(obj.x), "y": str(obj.y), "display": str(obj)}
    return stringify_oracle(vars(obj))
