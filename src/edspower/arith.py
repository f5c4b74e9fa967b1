"""Arbitrary-precision integer utilities.

Factorization (trial division, then Pollard rho with Brent's cycle
detection under an iteration cap), Miller-Rabin primality, integer roots,
and perfect-power detection behind a residue sieve.  Everything is pure
Python on built-in ints; factoring effort is governed by an explicit
:class:`Budget` so that large inputs fail gracefully instead of hanging.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, compress, cycle
from math import gcd, isqrt

# Deterministic Miller-Rabin witness set, sufficient below this limit.
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Pseudo-random bases added to _MR_BASES at and above that limit.
_MR_EXTRA_ROUNDS = 16

# mod-30 wheel for trial division: the steps from 7 on, after 2, 3 and 5
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


@dataclass(frozen=True)
class Budget:
    """Effort descriptor for factoring work.

    trial_bound bounds the trial-division primes; rho_iterations caps the
    total number of Pollard-rho function evaluations per factorize() call.
    """

    trial_bound: int = 1_000_000
    rho_iterations: int = 200_000

    def __post_init__(self):
        for name, least in (("trial_bound", 2), ("rho_iterations", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


DEFAULT_BUDGET = Budget()


@dataclass
class Factorization:
    """Prime factorization of a magnitude, possibly partial.

    factors maps prime -> exponent.  unfactored_cofactor is 1 when the
    factorization is complete; otherwise it is a composite whose prime
    factors all exceed the trial-division bound that was used.
    """

    factors: dict[int, int]
    unfactored_cofactor: int = 1

    @property
    def is_complete(self) -> bool:
        return self.unfactored_cofactor == 1


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic for n below 3.3e24 via the fixed witness set; above that,
    the fixed witnesses are supplemented with _MR_EXTRA_ROUNDS pseudo-random
    bases drawn from a generator seeded by n, so results are reproducible.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = list(_MR_BASES)
    if n >= _MR_DETERMINISTIC_LIMIT:
        rng = random.Random(n)
        bases.extend(rng.randrange(2, n - 1) for _ in range(_MR_EXTRA_ROUNDS))
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trial_factors(m: int, bound: int):
    """Yield (p, e, rest) for the primes p dividing m > 0, in increasing order.

    p**e exactly divides m, and rest is what remains of m once p and every
    smaller prime are stripped.  The bound is raised to at least 5, so 2, 3
    and 5 are always tried before the wheel runs on up to bound.  A
    remainder with no divisor up to its square root is prime and comes
    last, with rest 1; otherwise the last rest is the cofactor left for the
    rho stage, every prime factor of which exceeds bound.
    """
    bound = max(bound, 5)
    steps = chain((1, 2, 2), cycle(_WHEEL))
    p = 2
    while p <= bound and p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            yield p, e, m
        p += next(steps)
    if m > 1 and p * p > m:
        yield m, 1, 1


def _brent_rho(n: int, budget_box: list[int], rng: random.Random) -> int | None:
    """One nontrivial divisor of odd composite n, or None on budget exhaustion."""
    while budget_box[0] > 0:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        g = r = q = 1
        x = ys = y
        while g == 1 and budget_box[0] > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            budget_box[0] -= r
            k = 0
            while k < r and g == 1 and budget_box[0] > 0:
                ys = y
                take = min(128, r - k)
                for _ in range(take):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                budget_box[0] -= take
                g = gcd(q, n)
                k += take
            r *= 2
        if g == n:
            # batched gcd collapsed; replay one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g
        # g == n or the budget ran out mid-cycle; retry with new parameters
    return None


def rho_factors(m: int, budget: Budget) -> tuple[dict[int, int], int]:
    """Split m >= 1 by Brent-variant Pollard rho under budget.rho_iterations.

    Returns (factors, cofactor): the primes found with their exponents and
    the product of the parts the budget left unsplit (1 when none), so
    m = 1 gives ({}, 1).  Meant for the cofactor trial division leaves, 1
    included, so it does no trial division.  Only rho steps are charged to
    the budget: the Miller-Rabin test on each piece is not, so a small
    budget bounds the steps, not the time.
    """
    factors: dict[int, int] = {}
    cofactor = 1
    budget_box = [budget.rho_iterations]
    stack: list[tuple[int, int]] = [(m, 1)] if m > 1 else []
    while stack:
        comp, mult = stack.pop()
        if is_probable_prime(comp):
            factors[comp] = factors.get(comp, 0) + mult
            continue
        pp = perfect_power(comp)
        if pp is not None:
            w, e = pp
            stack.append((w, mult * e))
            continue
        g = _brent_rho(comp, budget_box, random.Random(comp))
        if g is None:
            cofactor *= comp**mult
        else:
            stack.append((g, mult))
            stack.append((comp // g, mult))
    return factors, cofactor


def factorize(n: int, budget: Budget = DEFAULT_BUDGET) -> Factorization:
    """Factor |n| within the given effort budget.

    Trial division up to budget.trial_bound, then Brent-variant Pollard rho
    on the remaining composites with a shared iteration cap.  Whatever
    resists ends up multiplied into unfactored_cofactor.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    factors: dict[int, int] = {}
    rest = abs(n)
    for p, e, rest in trial_factors(rest, budget.trial_bound):
        factors[p] = e
    found, cofactor = rho_factors(rest, budget)
    factors.update(found)
    return Factorization(factors, cofactor)


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n.  Requires p prime and n nonzero."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _floor_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, k >= 1, by integer Newton iteration.

    Precondition for bounded work: k < bits(n), which exact_root ensures.
    The root is then at least 1, and from the start 2^ceil(bits(n)/k) no
    step builds a power above n**2; with k >= bits(n) the first step
    divides by 2^(k-1).  Newton started at or above the root stays there
    (by AM-GM) and falls while above it, so it stops exactly at the floor.
    """
    if k == 2:
        return isqrt(n)
    x = 1 << -(-n.bit_length() // k)  # >= true root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x


def exact_root(n: int, ell: int) -> int | None:
    """The integer w with w**ell = n, or None if n is not an exact power.

    Defined for n >= 1 and ell >= 1; exact_root(n, 1) is n.  Once
    ell >= bits(n) the root lies below 2, so the answer (1 for n = 1, else
    None) comes in O(1), without building a power of size ell.
    """
    if n < 1:
        raise ValueError("exact_root requires n >= 1")
    if ell < 1:
        raise ValueError("exact_root requires ell >= 1")
    r = _floor_root(n, ell) if ell < n.bit_length() else 1
    return r if r**ell == n else None


# The residue-sieve table (bound, entries): entries lists (q, row) for every
# prime q <= bound, in increasing order.  row holds q's witnesses, the primes
# r = 1 (mod q) in increasing order (r = 1 (mod 2q) for odd q, as r is odd),
# each as the pair (r, (r-1)/q).  A row starts with its first witness, which
# perfect_power tests inline, and grows, up to _WITNESS_COUNT, only as far as
# some n needed it: most n are ruled out by the first.  Every witness is
# checked prime and = 1 (mod q) when it is added, and a growth swaps in a new
# tuple whole, so a race between threads can repeat a witness, or lose an
# entry to be built again, but never add a wrong one.
_WITNESS_COUNT = 8
_table: tuple[int, list[tuple[int, list[tuple[int, int]]]]] = (1, [])


def _next_witness(q: int, r: int) -> tuple[int, int]:
    """(s, (s-1)/q) for the least odd prime s > r with s = 1 (mod q), for r = 1 or a witness."""
    step = q if q == 2 else 2 * q
    r += step
    while not is_probable_prime(r):
        r += step
    return r, (r - 1) // q


def _entries_through(limit: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """The table's entries (q, row), for every prime q <= limit and maybe more.

    A limit past the bound re-sieves by a plain sieve, up to twice the bound
    or to the limit if larger (limits stay small here).  Only the primes past
    the old bound get a new entry, with its first witness; the rows already
    kept carry over as they are.  The bound starts at 1, so the sieve is
    never read at 0 or 1.
    """
    global _table
    old, entries = _table
    if limit > old:
        bound = max(limit, 2 * old)
        sieve = bytearray([1]) * (bound + 1)
        for p in range(2, isqrt(bound) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        new = compress(range(old + 1, bound + 1), sieve[old + 1 :])
        entries = entries + [(q, [_next_witness(q, 1)]) for q in new]
        _table = bound, entries
    return entries


def _survivor_root(n: int, q: int, row: list[tuple[int, int]]) -> int | None:
    """exact_root(n, q) for an n > 0 that q's first witness left standing.

    The later witnesses of q's row come first, and one that proves n no q-th
    power gives None at once.  A q-th power prime to r is a q-th power in
    (Z/r)^*, whose q-th powers are exactly the x with x^((r-1)/q) = 1.  A
    witness dividing n says nothing and is passed over.
    """
    for i in range(1, _WITNESS_COUNT):
        if i == len(row):
            row.append(_next_witness(q, row[-1][0]))
        r, e = row[i]
        if pow(n, e, r) > 1:  # 0 if r | n, 1 at a q-th power residue
            return None
    return exact_root(n, q)


def perfect_power(n: int) -> tuple[int, int] | None:
    """Write n = w**ell with maximal ell >= 2, or return None.

    Prime exponents q <= bits(n) are tried in increasing order, each as
    often as it divides ell.  A residue sieve (Bernstein 1998) rules most
    of them out first: if some prime r = 1 (mod q), r not dividing n, has
    n^((r-1)/q) != 1 (mod r), n is no q-th power.  The loop walks the
    entries (q, row) of one table kept between calls and tests q's first
    witness, row[0], inline; only a q it leaves standing goes on to
    _survivor_root, the rest of the row, and then exact_root, which remains
    the arbiter, so the answer is exact.  A root of n is a q-th power only
    if n is, so the entries are walked once.  The returned base is itself
    not a perfect power and the exponent is the largest possible.  n = 1 is
    no w**ell with w > 1, so perfect_power(1) is None.
    """
    if n < 1:
        raise ValueError("perfect_power requires n >= 1")
    base, exp, bits = n, 1, n.bit_length()
    for q, row in _entries_through(bits):
        if q > bits:
            break
        r, e = row[0]  # pow(base, e, r) is 0 if r | base, 1 at a q-th power residue, else q is out
        while pow(base, e, r) < 2 and (w := _survivor_root(base, q, row)) is not None:
            base, exp, bits = w, exp * q, w.bit_length()
    if exp == 1:
        return None
    return base, exp
