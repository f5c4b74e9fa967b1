"""Arbitrary-precision integer utilities.

Factorization (trial division by blocks of primes, then Pollard rho with
Brent's cycle detection under an iteration cap), Miller-Rabin primality,
integer roots, and perfect-power detection behind a residue sieve.
Everything is pure Python on built-in ints; factoring effort is governed
by an explicit :class:`Budget` so that large inputs fail gracefully
instead of hanging.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, compress
from math import gcd, isqrt, prod

from .errors import _is_integer

# Deterministic Miller-Rabin witness set, sufficient below this limit.
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Pseudo-random bases added to _MR_BASES at and above that limit.
_MR_EXTRA_ROUNDS = 16


@dataclass(frozen=True)
class Budget:
    """Effort descriptor for factoring work.

    trial_bound bounds the trial-division primes; bounds 2 to 4 act as 5,
    since trial_factors always tries 2, 3 and 5.  rho_iterations caps the
    Pollard-rho function evaluations of one factorize() or rho_factors()
    call, not of a whole computation: the ledger's index walk calls
    rho_factors at each index with a fresh cap, so one build_report may
    spend one cap on 2b plus one per index walked.
    """

    trial_bound: int = 1_000_000
    rho_iterations: int = 200_000

    def __post_init__(self):
        for name, least in (("trial_bound", 2), ("rho_iterations", 0)):
            value = getattr(self, name)
            if not _is_integer(value) or value < least:
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
    Anything that is not an integer, a bool or a float included, is not
    prime.
    """
    if not _is_integer(n) or n < 2:
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


# The kept primes: every prime up to a bound, in increasing order, the one
# list from which both the trial-division table and the witness table take
# their blocks.  Only _primes_to grows it, a window (bound, 2*bound] at a time
# from bound 1, so the bound is a power of 2 and, by Bertrand's postulate, the
# least one at or above the last prime.  It reaches 10^6 in 20 sieves and
# holds at most one window past the primes asked of it.  It is swapped in
# whole, and readers keep the tuple _primes_to returns, not the global, so a
# race between threads can only make a growth sieve again.
_primes: tuple[int, ...] = ()


def _primes_to(count: int) -> tuple[int, ...]:
    """The kept primes, grown until there are at least count of them."""
    global _primes
    primes = _primes
    while len(primes) < count:
        bound = 1 << (primes[-1] - 1).bit_length() if primes else 1
        primes = _primes = primes + tuple(_sieve(bound, 2 * bound))
    return primes


def _sieve(old: int, bound: int):
    """The primes in (old, bound], for old >= 1, in increasing order.

    A sieve of that window alone, by the primes up to its root, so
    _primes_to, its one caller, sieves nothing below the kept bound again.
    The window holds its odd numbers alone, and 2 is added when it lies in
    it.
    """
    root = isqrt(bound)
    sieve = bytearray([1]) * (root + 1)
    for p in range(2, isqrt(root) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, root + 1, p)))
    first = old + 1 | 1
    window = bytearray([1]) * len(range(first, bound + 1, 2))
    zero = bytes(len(window))
    for p in compress(range(3, root + 1), sieve[3:]):
        # window[i] is first + 2i; p strikes its odd multiples from p * p on
        m = first + -first % p
        i = (max(p * p, m + p if m % 2 == 0 else m) - first) // 2
        window[i::p] = zero[: len(range(i, len(window), p))]
    odd = compress(range(first, bound + 1, 2), window)
    return chain((2,), odd) if old < 2 <= bound else odd


def trial_factors(m: int, bound: int):
    """Yield (p, e, rest) for the primes p dividing m > 0, in increasing order.

    p**e exactly divides m, and rest is what remains of m once p and every
    smaller prime are stripped.  The primes are tried in increasing order
    up to the bound, raised to at least 5 so that 2, 3 and 5 are always
    tried, and while p*p <= rest.  When the walk stops at a prime p with
    p*p above the remainder, the remainder has no divisor up to its square
    root: it is prime and comes last, with rest 1.  Otherwise the last rest
    is the cofactor left for the rho stage, every prime factor of which
    exceeds bound.
    The primes come in blocks, each with the product P of its primes, from
    one table kept between calls and grown a block at a time as walks reach
    its end.  m is reduced once per block, gcd(m mod P, P) gives the
    block's primes that divide it, and only when that gcd is not 1 is the
    block walked prime by prime, each prime tested on the gcd; so a long m
    costs one division and one gcd per block, not one division per prime.
    The block where the walk stops, at the bound or at the root of an m
    below the square of its last prime, is walked on m itself, one
    division per prime it tries: on a long m a small bound tries fewer
    primes than a gcd with the whole block's product would cost.
    """
    bound = max(bound, 5)
    i = 0
    while True:
        blocks = _trial_table
        while len(blocks) <= i:
            blocks = _grown(blocks)
        P, block = blocks[i]
        i += 1
        end = block[-1]
        if end <= bound and end * end <= m:  # the walk may pass the block whole
            g = gcd(m % P, P)
            if g == 1:
                continue
        else:  # it stops in the block, at the bound or at the root of a short m
            g = m
        for p in block:
            if p > bound or p * p > m:
                break
            if g % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                yield p, e, m
        else:
            continue
        break
    if m > 1 and p * p > m:
        yield m, 1, 1


# The trial-division table: blocks (P, primes), each the next _TRIAL_BLOCK kept
# primes in increasing order, the first block starting at 2, with P their
# product.  A block is a slice of the kept primes: it shares their ints and
# costs 0.6 MB of pointers at 10^6, and spares a walk a slice per block.  It
# grows a block at a time, when a walk runs off its end, so it holds the primes
# that some call has reached and at most one block more.  A growth swaps in a
# new tuple whole, so a race between threads can lose a block, to be built
# again, but never add a wrong one.  Of blocks of 32 to 1,024 primes, 256 and
# 512 did best on inputs of 300 and 2,000 bits walked to 10^6 and on a term of
# 17,901 bits walked to 16,000.
_TRIAL_BLOCK = 256
_trial_table: tuple[tuple[int, tuple[int, ...]], ...] = ()


def _grown(blocks: tuple[tuple[int, tuple[int, ...]], ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """blocks and one block more, the kept primes after its last, swapped in as the table."""
    global _trial_table
    i = len(blocks) * _TRIAL_BLOCK
    block = _primes_to(i + _TRIAL_BLOCK)[i : i + _TRIAL_BLOCK]
    _trial_table = blocks = blocks + ((prod(block), block),)
    return blocks


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
    resists ends up multiplied into unfactored_cofactor.  n must be a
    nonzero integer.
    """
    if not _is_integer(n) or n == 0:
        raise ValueError(f"cannot factor {n!r}")
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


# The residue-sieve table (bound, blocks).  Every prime q <= bound has an entry
# (q, r, e, row), in increasing order of q.  row holds q's witnesses, the
# primes r = 1 (mod q) in increasing order (r = 1 (mod 2q) for odd q, as r is
# odd), each as the pair (r, (r-1)/q), and (r, e) is its first, row[0], which
# perfect_power tests inline; the entry keeps it so that test needs no lookup,
# which short inputs notice.  A row grows, up to _WITNESS_COUNT, only as far
# as some n needed it: most n are ruled out by the first.  The entries are cut
# into blocks of _BLOCK, each the pair (m, entries) with m the product of their
# first witnesses, so that perfect_power reduces a long base once per block,
# not once per q.  row[0] never changes, so neither does m, and every block is
# full and carries over as it is when the table grows.  Every witness is
# checked prime and = 1 (mod q) when it is added, and a growth swaps in a new
# tuple whole, so a race between threads can repeat a witness, or lose an entry
# to be built again, but never add a wrong one.  Of blocks of 8 to 64, 16 to 32
# did best on terms of 1,000 to 2,800 bits; longer terms favour larger blocks,
# and inputs of 300 bits or fewer smaller ones, so 24 sits between.
_WITNESS_COUNT = 8
_BLOCK = 24
_table: tuple[int, list[tuple[int, list[tuple[int, int, int, list[tuple[int, int]]]]]]] = (1, [])


def _next_witness(q: int, r: int) -> tuple[int, int]:
    """(s, (s-1)/q) for the least odd prime s > r with s = 1 (mod q), for r = 1 or a witness."""
    step = q if q == 2 else 2 * q
    r += step
    while not is_probable_prime(r):
        r += step
    return r, (r - 1) // q


def _entries_through(limit: int) -> list[tuple[int, list[tuple[int, int, int, list[tuple[int, int]]]]]]:
    """The table's blocks (m, entries), with an entry for each prime q <= limit and maybe more.

    A limit past the bound grows the table by whole blocks, each the next
    _BLOCK kept primes with their first witnesses, until the prime after
    its last entry is past the limit; the bound is one below that prime.
    So a long input builds the witnesses it needs and at most one block
    more, and limits that rise one by one grow it once per block.  The
    blocks already kept, and their rows, carry over as they are.
    """
    global _table
    old, blocks = _table
    if limit > old:
        blocks = list(blocks)
        n = len(blocks) * _BLOCK
        primes = _primes_to(n + 1)
        while primes[n] <= limit:
            primes = _primes_to(n + _BLOCK + 1)
            entries = [(q, r, e, [(r, e)]) for q in primes[n : n + _BLOCK] for r, e in [_next_witness(q, 1)]]
            blocks.append((prod(r for _, r, _, _ in entries), entries))
            n += _BLOCK
        _table = primes[n] - 1, blocks
    return blocks


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
    blocks (m, entries) of one table kept between calls.  It reduces the
    base once per block, to small = base mod m, and tests each q's first
    witness r, kept in q's entry, on small, which is the base mod r as
    r | m; so a long base costs one division per block, not one per q.
    Only a q that r leaves standing goes on to _survivor_root, the rest of
    the row, and then exact_root, which remains the arbiter, so the answer
    is exact.  A root of n is a q-th power only if n is, so the entries are
    walked once; a root that replaces the base is reduced mod m again.  The
    returned base is itself not a perfect power and the exponent is the
    largest possible.  n = 1 is no w**ell with w > 1, so perfect_power(1)
    is None.
    """
    if n < 1:
        raise ValueError("perfect_power requires n >= 1")
    base, exp, bits = n, 1, n.bit_length()
    for m, block in _entries_through(bits):
        small = base % m
        for q, r, e, row in block:
            if q > bits:
                break
            # pow(small, e, r) is 0 if r | base, 1 at a q-th power residue, else q is out
            while pow(small, e, r) < 2 and (w := _survivor_root(base, q, row)) is not None:
                base, exp, bits, small = w, exp * q, w.bit_length(), w % m
        if q > bits:
            break  # and so is every q in the later blocks
    if exp == 1:
        return None
    return base, exp
