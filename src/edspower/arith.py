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


_sieved: tuple[int, list[int]] = (1, [])  # (bound, the primes <= bound): one tuple, never a torn pair


def _primes_through(limit: int) -> list[int]:
    """Every prime <= limit and maybe more, from a list kept between calls.

    A limit past the bound re-sieves the list by a plain sieve, up to twice
    the bound or to the limit if larger (limits stay small here).
    """
    global _sieved
    bound = _sieved[0]
    if limit > bound:
        bound = max(limit, 2 * bound)
        sieve = bytearray([1]) * (bound + 1)
        sieve[0] = sieve[1] = 0
        for p in range(2, isqrt(bound) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        _sieved = bound, list(compress(range(bound + 1), sieve))
    return _sieved[1]


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
    """Split m > 1 by Brent-variant Pollard rho under budget.rho_iterations.

    Returns (factors, cofactor): the primes found with their exponents and
    the product of the parts the budget left unsplit (1 when none).  Meant
    for the cofactor trial division leaves, so it does no trial division.
    Only rho steps are charged to the budget: the Miller-Rabin test on each
    piece is not, so a small budget bounds the steps, not the time.
    """
    factors: dict[int, int] = {}
    cofactor = 1
    budget_box = [budget.rho_iterations]
    stack: list[tuple[int, int]] = [(m, 1)]
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
    cofactor = 1
    if rest > 1:
        found, cofactor = rho_factors(rest, budget)
        factors.update(found)
    return Factorization(factors, cofactor)


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n.  Requires p prime and n nonzero."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if p < 2 or not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _floor_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by integer Newton iteration.

    Newton started at or above the root stays there (by AM-GM) and falls
    while above it, so it stops exactly at the floor.
    """
    if k == 1 or n < 2:
        return n
    if k == 2:
        return isqrt(n)
    if n.bit_length() <= k:
        return 1
    x = 1 << -(-n.bit_length() // k)  # >= true root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x


def exact_root(n: int, ell: int) -> int | None:
    """The integer w with w**ell = n, or None if n is not an exact power."""
    if n < 1:
        raise ValueError("exact_root requires n >= 1")
    if ell < 2:
        raise ValueError("exact_root requires ell >= 2")
    r = _floor_root(n, ell)
    return r if r**ell == n else None


# Residue witnesses: for each prime exponent q, the primes r = 1 (mod q) in
# increasing order (r = 1 (mod 2q) for odd q, as r is odd).  A row grows only
# as far as some n needed it: most n are ruled out by the first witness.
# Every entry is checked prime and = 1 (mod q) when it is added, so a race
# between threads growing one row can repeat a witness but never add a wrong one.
_WITNESS_COUNT = 8
_witnesses: dict[int, list[int]] = {}


def _witness(q: int, i: int) -> int:
    """The i-th (from 0) odd prime r with r = 1 (mod q), for a prime q."""
    rs = _witnesses.setdefault(q, [])
    step = q if q == 2 else 2 * q
    while len(rs) <= i:
        r = (rs[-1] if rs else 1) + step
        while not is_probable_prime(r):
            r += step
        rs.append(r)
    return rs[i]


def _not_a_power(n: int, q: int) -> bool:
    """True if some witness r proves n > 0 is no q-th power.

    A q-th power prime to r is a q-th power in (Z/r)^*, whose q-th powers
    are exactly the x with x^((r-1)/q) = 1.  A witness dividing n says
    nothing and is passed over.
    """
    for i in range(_WITNESS_COUNT):
        r = _witness(q, i)
        x = n % r
        if x and pow(x, (r - 1) // q, r) != 1:
            return True
    return False


def perfect_power(n: int) -> tuple[int, int] | None:
    """Write n = w**ell with maximal ell >= 2, or return None.

    Prime exponents q <= bits(n) are tried in increasing order, each as
    often as it divides ell.  A residue sieve (Bernstein 1998) rules most
    of them out first: if some prime r = 1 (mod q), r not dividing n, has
    n^((r-1)/q) != 1 (mod r), n is no q-th power.  exact_root remains the
    arbiter: it runs on every q the witnesses leave standing, so the answer
    is exact.  A root of n is a q-th power only if n is, so the primes, from
    a list kept between calls, are walked once.  The returned base is itself
    not a perfect power and the exponent is the largest possible.
    """
    if n <= 1:
        raise ValueError("perfect_power requires n > 1")
    base, exp = n, 1
    for q in _primes_through(n.bit_length()):
        if q > base.bit_length():
            break
        while not _not_a_power(base, q) and (r := exact_root(base, q)) is not None:
            base, exp = r, exp * q
    if exp == 1:
        return None
    return base, exp

