"""Arbitrary-precision integer utilities.

Factorization (trial division, then Pollard rho with Brent's cycle
detection under an iteration cap), Miller-Rabin primality, integer roots,
perfect-power detection, and squarefree decomposition.  Everything is pure
Python on built-in ints; factoring effort is governed by an explicit
:class:`Budget` so that large inputs fail gracefully instead of hanging.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, isqrt

from .errors import BudgetExhausted

# Deterministic Miller-Rabin witness set, sufficient below this limit.
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# mod-30 wheel for trial division, starting at 7
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

    def magnitude(self) -> int:
        out = self.unfactored_cofactor
        for p, e in self.factors.items():
            out *= p**e
        return out


def is_probable_prime(n: int, extra_rounds: int = 16) -> bool:
    """Miller-Rabin primality test.

    Deterministic for n below 3.3e24 via the fixed witness set; above that,
    the fixed witnesses are supplemented with extra_rounds pseudo-random
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
        bases.extend(rng.randrange(2, n - 1) for _ in range(extra_rounds))
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


def _small_primes_upto(limit: int) -> list[int]:
    """Primes <= limit by a plain sieve (limit stays small here)."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


def _trial_divide(m: int, bound: int, factors: dict[int, int]) -> int:
    """Strip prime factors <= bound from m, recording them in factors."""
    for p in (2, 3, 5):
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    p = 7
    i = 0
    while p <= bound and p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += _WHEEL[i]
        i = (i + 1) & 7
    # if the loop ended because p*p > m, the remainder has no divisor up to
    # its square root and is therefore prime
    if m > 1 and p * p > m:
        factors[m] = factors.get(m, 0) + 1
        m = 1
    return m


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


def factorize(n: int, budget: Budget = DEFAULT_BUDGET) -> Factorization:
    """Factor |n| within the given effort budget.

    Trial division up to budget.trial_bound, then Brent-variant Pollard rho
    on the remaining composites with a shared iteration cap.  Whatever
    resists ends up multiplied into unfactored_cofactor.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    m = abs(n)
    factors: dict[int, int] = {}
    if m == 1:
        return Factorization(factors, 1)
    m = _trial_divide(m, budget.trial_bound, factors)
    cofactor = 1
    if m > 1:
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
    result = Factorization(factors, cofactor)
    if result.magnitude() != abs(n):
        raise ArithmeticError("factorization does not reassemble to |n|")
    return result


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
    """floor(n ** (1/k)) for n >= 0, k >= 1, by integer Newton iteration."""
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
    while x**k > n:
        x -= 1
    return x


def exact_root(n: int, ell: int) -> int | None:
    """The integer w with w**ell = n, or None if n is not an exact power."""
    if n < 1:
        raise ValueError("exact_root requires n >= 1")
    if ell < 2:
        raise ValueError("exact_root requires ell >= 2")
    r = _floor_root(n, ell)
    return r if r**ell == n else None


def perfect_power(n: int) -> tuple[int, int] | None:
    """Write n = w**ell with maximal ell >= 2, or return None.

    The exponent is built up by repeatedly extracting prime-order roots, so
    the returned base is itself not a perfect power and the exponent is the
    largest possible.
    """
    if n <= 1:
        raise ValueError("perfect_power requires n > 1")
    base, exp = n, 1
    reduced = True
    while reduced:
        reduced = False
        for q in _small_primes_upto(base.bit_length()):
            r = exact_root(base, q)
            if r is not None:
                base, exp = r, exp * q
                reduced = True
                break
    if exp == 1:
        return None
    return base, exp


def squarefree_split(n: int, budget: Budget = DEFAULT_BUDGET) -> tuple[int, int]:
    """Write n = a * u**2 with a squarefree; returns (a, u).

    Needs the complete factorization of n, so the effort budget must
    suffice; otherwise BudgetExhausted is raised.
    """
    if n < 1:
        raise ValueError("squarefree_split requires n >= 1")
    f = factorize(n, budget)
    if not f.is_complete:
        raise BudgetExhausted(
            f"factoring budget exhausted on cofactor {f.unfactored_cofactor}"
        )
    a = u = 1
    for p, e in f.factors.items():
        if e % 2:
            a *= p
        u *= p ** (e // 2)
    return a, u


def is_squarefree(n: int, budget: Budget = DEFAULT_BUDGET) -> bool:
    """True iff no prime square divides n (n >= 1)."""
    return squarefree_split(n, budget)[1] == 1
