"""Seeded inputs for the edspower benchmark, built with the benchmark's own arithmetic.

Nothing here calls edspower.  Points come from a search, multiples and
sequence terms from a small Fraction group law on y^2 = x^3 + b*x,
factors from trial division, primality from Miller-Rabin.  Every builder
depends only on its seed, so the same seed gives the same inputs.

Item sizes are laid out on fixed grids and only the choice of curve,
point and multiple is drawn from the seed, so that the work in one round
varies little from seed to seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

POINT_B_MAX = 200
POINT_X_MAX = 400
SMALL_PRIME_BOUND = 10_000
# After trial division by every prime up to SMALL_PRIME_BOUND, a cofactor
# below EASY_COFACTOR is 1 or a prime: the program's own trial division then
# stops early and never reaches its rho stage.
EASY_COFACTOR = SMALL_PRIME_BOUND**2

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


SMALL_PRIMES = _sieve(SMALL_PRIME_BOUND)


def is_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases: exact below 3.3e24, probable above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trial_factor(n: int) -> tuple[dict[int, int], int]:
    """Strip the primes up to SMALL_PRIME_BOUND from |n|: (factors, cofactor)."""
    n = abs(n)
    factors: dict[int, int] = {}
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if 1 < n <= SMALL_PRIME_BOUND**2:
        factors[n] = factors.get(n, 0) + 1
        n = 1
    return factors, n


def prime_set(n: int) -> set[int]:
    """The primes of a small |n| (at most EASY_COFACTOR after small primes)."""
    factors, rest = trial_factor(n)
    if rest != 1:
        raise ValueError(f"{n} is too large to factor by trial division")
    return set(factors)


def squarefree_divisors(n: int) -> list[int]:
    divisors = [1]
    for p in sorted(prime_set(n)):
        divisors += [d * p for d in divisors]
    return sorted(divisors)


# --- group law on y^2 = x^3 + b*x; None is the point at infinity ----------

def add(b: int, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 + y2 == 0:
            return None
        lam = (3 * x1 * x1 + b) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return (x3, lam * (x1 - x3) - y1)


def multiples(b: int, P, count: int) -> list:
    """[P, 2P, ..., count*P]."""
    out, Q = [], None
    for _ in range(count):
        Q = add(b, Q, P)
        out.append(Q)
    return out


def denominator(P) -> int:
    """B with x(P) = A/B^2."""
    den = P[0].denominator
    B = isqrt(den)
    if B * B != den:
        raise ArithmeticError("x-denominator is not a square")
    return B


def is_torsion(b: int, P) -> bool:
    """nP = O for some n <= 12 (Mazur's bound on rational torsion orders).

    Stops at the first multiple with a non-integral coordinate: by
    Nagell-Lutz every multiple of a torsion point on this integral model is
    integral, so such a point has infinite order."""
    Q = P
    for _ in range(12):
        if Q is None:
            return True
        if Q[0].denominator != 1 or Q[1].denominator != 1:
            return False
        Q = add(b, Q, P)
    return Q is None


@dataclass(frozen=True)
class Generator:
    """k times the integral point (px, py) on y^2 = x^3 + b*x."""

    b: int
    k: int
    px: int
    py: int
    x: Fraction
    y: Fraction

    @property
    def point(self):
        return (self.x, self.y)

    @property
    def arg(self) -> str:
        return f"{self.x},{self.y}"

    @property
    def label(self) -> str:
        return f"b={self.b} {self.k}*({self.px},{self.py})"


def integral_points() -> list[tuple[int, int, int]]:
    """(b, x, y) with y > 0 on y^2 = x(x^2 + b), b <= POINT_B_MAX, x <= POINT_X_MAX."""
    found = []
    for b in range(1, POINT_B_MAX + 1):
        for x in range(1, POINT_X_MAX + 1):
            v = x * (x * x + b)
            y = isqrt(v)
            if y * y == v:
                found.append((b, x, y))
    return found


def make_generator(b: int, px: int, py: int, k: int) -> Generator | None:
    """kP, or None when P is torsion."""
    P = (Fraction(px), Fraction(py))
    if is_torsion(b, P):
        return None
    x, y = multiples(b, P, k)[-1]
    return Generator(b, k, px, py, x, y)


def height_estimate(B16: int) -> float:
    """log2(B_m) / m^2 read off B_16; it tends to a constant multiple of the canonical height."""
    return B16.bit_length() / 256


# --- sequence workload -----------------------------------------------------

# Sizes come in three groups: 7 small (M_ref 14..50), 21 at M_ref 55 and 7 at
# M_ref 90.  p50 then falls in the middle of the 21 and p90 in the middle of
# the top 7, so each is a median over several generators' items rather than
# the latency of one item.
SEQ_SMALL, SEQ_MID, SEQ_TOP = 7, 21, 7
SEQ_REF_M = (tuple(round(14 + i * (50 - 14) / (SEQ_SMALL - 1)) for i in range(SEQ_SMALL))
             + (55,) * SEQ_MID + (90,) * SEQ_TOP)
# (5, (20, 90)) has B_100 of 16,182 bits; its height estimate is the reference.
SEQ_REF_HEIGHT = 1.62
# generate() costs about h^1.7 * M^4.4; M is scaled by (h_ref / h)^(1.7 / 4.4)
# so that an item costs about the same whatever generator the seed draws.
SEQ_COST_EXPONENT = 1.7 / 4.4
SEQ_HEIGHTS = (0.5, 4.0)
SEQ_PAIRS = 8
SEQ_GROWTH = 4


@dataclass(frozen=True)
class SequenceItem:
    gen: Generator
    M: int
    pairs: tuple[tuple[int, int], ...]
    growth: tuple[tuple[int, int, int], ...]  # (p, n, k): v_p(B_nk) = v_p(B_n) + v_p(k)
    spots: tuple[int, ...]  # indices recomputed with eds.term


def _shuffled_generators(rng: random.Random, ks: tuple[int, ...]):
    """Every (integral point, k) once, in seeded order, torsion rejected."""
    pool = [(b, x, y, k) for b, x, y in integral_points() for k in ks]
    rng.shuffle(pool)
    for b, x, y, k in pool:
        g = make_generator(b, x, y, k)
        if g is not None:
            yield g


def build_sequence(seed: int) -> list[SequenceItem]:
    rng = random.Random(seed * 10 + 1)
    gens = _shuffled_generators(rng, (1, 2, 3))
    items = []
    for ref_M in SEQ_REF_M:
        while True:
            g = next(gens)
            early = [denominator(Q) for Q in multiples(g.b, g.point, 16)]
            h = height_estimate(early[15])
            if not SEQ_HEIGHTS[0] <= h <= SEQ_HEIGHTS[1]:
                continue
            M = max(8, round(ref_M * (SEQ_REF_HEIGHT / h) ** SEQ_COST_EXPONENT))
            growth = _growth_triples(rng, early, M)
            if growth:
                break
        pairs = tuple(tuple(sorted(rng.sample(range(1, M + 1), 2))) for _ in range(SEQ_PAIRS))
        spots = (M, rng.randrange(2, M))
        items.append(SequenceItem(g, M, pairs, growth, spots))
    return items


def _growth_triples(rng: random.Random, early: list[int], M: int) -> tuple:
    """Up to SEQ_GROWTH (p, n, k) with p an odd prime dividing an early B_n."""
    candidates = []
    for n in range(2, 9):
        factors, _ = trial_factor(early[n - 1])
        candidates += [(p, n) for p in sorted(factors) if p > 2]
    rng.shuffle(candidates)
    triples = []
    for p, n in candidates[:SEQ_GROWTH]:
        ks = [k for k in (p, M // n) if k >= 2 and n * k <= M]
        if ks:
            triples.append((p, n, rng.choice(ks)))
    return tuple(triples)


# --- powers workload -------------------------------------------------------

# 35 items: 7 real windows from 1,000..1,800 bits, 21 from 2,000 bits
# (their four terms span about 2,000..2,400 bits), and 7 planted sequences at
# 2,800 bits, which cost about three times a mid window.  p50 is then the
# middle of the 21 mid windows and p90 the middle of the 7 planted ones,
# each well away from the next group although one perfect_power call
# varies by about 25%.
POW_SMALL_BITS = (1000, 1133, 1267, 1400, 1533, 1667, 1800)
POW_MID_BITS = 2000
POW_MID = 21
POW_PLANTED = 7
POW_PLANTED_BITS = 2800
POW_HEIGHTS = (1.0, 2.5)
POW_WINDOW = 4  # terms per scan; the cost of one perfect_power call varies by about 25%
POW_ELLS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16)  # 14 = 2 * POW_PLANTED
NEAR_MISS_KINDS = ("+1", "-1", "*r")


@dataclass(frozen=True)
class RealWindow:
    source: int  # index into PowersInputs.gens
    m: int  # the window is terms m .. m + POW_WINDOW - 1


@dataclass(frozen=True)
class Planted:
    """Planted powers w**ell and near-misses of the same size, in scan order."""

    terms: tuple[int, ...]
    powers: tuple[tuple[int, int, int], ...]  # (position from 1, ell, w)


@dataclass(frozen=True)
class PowersInputs:
    gens: tuple[Generator, ...]
    max_m: tuple[int, ...]  # each generator's sequence is generated to this index
    items: tuple[RealWindow | Planted, ...]


def build_powers(seed: int) -> PowersInputs:
    """One generator per real window, each generated just past its window."""
    rng = random.Random(seed * 10 + 2)
    sizes = POW_SMALL_BITS + (POW_MID_BITS,) * POW_MID
    gens, max_m, items = [], [], []
    for g in _shuffled_generators(rng, (1, 2, 3)):
        h = height_estimate(denominator(multiples(g.b, g.point, 16)[-1]))
        if POW_HEIGHTS[0] <= h <= POW_HEIGHTS[1]:
            m = round((sizes[len(gens)] / h) ** 0.5)
            items.append(RealWindow(len(gens), m))
            gens.append(g)
            max_m.append(m + POW_WINDOW - 1)
            if len(gens) == len(sizes):
                break
    items += [_planted(rng, POW_PLANTED_BITS, i) for i in range(POW_PLANTED)]
    return PowersInputs(tuple(gens), tuple(max_m), tuple(items))


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(n):
            return n


def _planted_power(rng: random.Random, bits: int, ell: int) -> int:
    """w of about bits/ell bits, a product of distinct primes, so ell is maximal in w**ell."""
    w_bits = max(2, bits // ell)
    w, primes = 1, set()
    while w.bit_length() < w_bits - 24:
        p = _random_prime(rng, rng.randrange(12, 25))
        if p not in primes:
            primes.add(p)
            w *= p
    while True:
        p = _random_prime(rng, max(2, w_bits - w.bit_length()))
        if p not in primes:
            return w * p


def _near_miss(rng: random.Random, w: int, ell: int, kind: str) -> int:
    power = w**ell
    if kind == "+1":
        return power + 1
    if kind == "-1":
        return power - 1
    r = _random_prime(rng, 20)
    while w % r == 0:
        r = _random_prime(rng, 20)
    return power * r  # r to the first power: no perfect power


def _planted(rng: random.Random, bits: int, i: int) -> Planted:
    """Two planted powers, each beside its three near-misses, shuffled."""
    entries = []
    for j in range(2):
        ell = POW_ELLS[(2 * i + j) % len(POW_ELLS)]
        w = _planted_power(rng, bits, ell)
        entries.append((w**ell, (ell, w)))
        entries += [(_near_miss(rng, w, ell, kind), None) for kind in NEAR_MISS_KINDS]
    rng.shuffle(entries)
    powers = tuple((pos, hit[0], hit[1]) for pos, (_, hit) in enumerate(entries, start=1) if hit)
    return Planted(tuple(B for B, _ in entries), powers)


# --- ledger workload -------------------------------------------------------

# 45 items: 9 heavy reports on top and 9 descend/frey items at the bottom
# put p90 in the middle of the heavy reports and p50 in the middle of the
# 27 light ones.
LEDGER_HEAVY = 9  # 3P-type reports whose index term exhausts the rho budget
LEDGER_LIGHT = 27  # reports whose index terms factor over small primes
LEDGER_DESCEND = 5  # descend --ell 1 items
LEDGER_FREY = 4  # frey --prime items, on the solutions of the first descents
HEAVY_Q = (11, 13)
HEAVY_BITS = (1100, 2500)
LIGHT_MAX_BITS = 1000
C_CONFIGS = (1, 10, 100, 1000)
# The heavy reports get a smaller rho budget than the default 200,000 so that
# one report takes tenths of a second, not seconds; the budget is still
# exhausted on their index terms.
HEAVY_RHO = 2000
SEARCH_CAP = 64
DESCEND_MAX_M = 4
DESCEND_MAX_A_BITS = 160


@dataclass(frozen=True)
class LedgerItem:
    gen: Generator
    q: int
    c_config: int
    heavy: bool


@dataclass(frozen=True)
class DescendItem:
    gen: Generator
    m: int


@dataclass(frozen=True)
class FreyItem:
    a: int
    d: int
    u: int
    v: int
    w: int
    prime: int


def _least_prime(n: int) -> int | None:
    for p in SMALL_PRIMES:
        if n % p == 0:
            return p
    return None


def _primitive_at(Bs: list[int], index: int, T: set[int], easy: bool) -> bool:
    """Some prime outside T found by trial division divides B_index and no earlier B."""
    factors, rest = trial_factor(Bs[index - 1])
    if easy and rest >= EASY_COFACTOR:
        return False
    primes = set(factors) | ({rest} if 1 < rest < EASY_COFACTOR else set())
    return any(
        p not in T and all(B % p for B in Bs[: index - 1]) for p in primes
    )


def _denominators_upto(g: Generator, count: int, max_bits: int) -> list[int] | None:
    """B_1 .. B_count, or None as soon as one exceeds max_bits."""
    Bs, Q = [], None
    for _ in range(count):
        Q = add(g.b, Q, g.point)
        Bs.append(denominator(Q))
        if Bs[-1].bit_length() > max_bits:
            return None
    return Bs


def _ledger_candidate(g: Generator) -> tuple[LedgerItem, int] | None:
    """(report item, bit length of its last index term), or None when unsuitable."""
    q = _least_prime(denominator(g.point))
    if q is None or q > SEARCH_CAP:
        return None
    T = prime_set(2 * g.b)
    if q in HEAVY_Q:
        Bs = _denominators_upto(g, q, HEAVY_BITS[1])
        if Bs and Bs[-1].bit_length() >= HEAVY_BITS[0] and _primitive_at(Bs, q, T, False):
            return LedgerItem(g, q, 0, True), Bs[-1].bit_length()
        return None
    index = q
    while index <= SEARCH_CAP:
        Bs = _denominators_upto(g, index, LIGHT_MAX_BITS)
        if Bs is None or trial_factor(Bs[-1])[1] >= EASY_COFACTOR:
            return None
        if _primitive_at(Bs, index, T, True):
            return LedgerItem(g, q, 0, False), Bs[-1].bit_length()
        index *= q
    return None


def _descend_candidates(g: Generator) -> list[tuple[int, DescendItem]]:
    """(bits of B_4, item) for the early terms of g whose A factors over small primes.

    The program's torsion test adds g to itself twelve times, so the height
    of g, read off B_4, sizes most of the cost of a descent."""
    terms = multiples(g.b, g.point, DESCEND_MAX_M)
    size = denominator(terms[-1]).bit_length()
    return [(size, DescendItem(g, m)) for m, (x, y) in enumerate(terms, start=1)
            if denominator((x, y)) > 1 and x.numerator.bit_length() <= DESCEND_MAX_A_BITS
            and trial_factor(x.numerator)[1] == 1]


def _frey_item(rng: random.Random, d: DescendItem) -> FreyItem:
    """The quartic solution of a descend item, with a prime outside 2b for its Frey curve:
    half the time one dividing w = B_m (multiplicative reduction), else one prime to it."""
    g = d.gen
    x, y = multiples(g.b, g.point, d.m)[-1]
    B, A, C = denominator((x, y)), x.numerator, y.numerator
    factors, _ = trial_factor(A)
    a = 1
    for p, e in factors.items():
        if e % 2:
            a *= p
    u = isqrt(A // a)
    v = abs(C) // (a * u)
    bad = prime_set(2 * g.b)
    dividing = sorted(p for p in trial_factor(B)[0] if p not in bad)
    coprime = [p for p in SMALL_PRIMES[1:60] if p not in bad and B % p]
    prime = rng.choice(dividing) if dividing and rng.random() < 0.5 else rng.choice(coprime)
    return FreyItem(a, g.b // a, u, v, B, prime)


def _stratified(rng: random.Random, keyed: list[tuple], count: int) -> list:
    """One draw from each of `count` strata of the candidates ordered by their key."""
    keyed = sorted(keyed, key=lambda kv: kv[0])
    n = len(keyed)
    if n < count:
        raise RuntimeError(f"the point search found {n} candidates, {count} needed")
    return [rng.choice(keyed[i * n // count : (i + 1) * n // count])[1] for i in range(count)]


def _middle_half(keyed: list[tuple]) -> list[tuple]:
    keyed = sorted(keyed, key=lambda kv: kv[0])
    return keyed[len(keyed) // 4 : 3 * len(keyed) // 4]


@dataclass(frozen=True)
class LedgerInputs:
    reports: tuple[LedgerItem, ...]
    descends: tuple[DescendItem, ...]
    freys: tuple[FreyItem, ...]


def build_ledger(seed: int) -> LedgerInputs:
    """Each class is drawn stratified by size from a fixed candidate pool, so that
    the cost profile of a round changes little from seed to seed."""
    rng = random.Random(seed * 10 + 3)
    heavy, light, descends = [], [], []
    for b, x, y in integral_points():
        for k in (2, 3):
            g = make_generator(b, x, y, k)
            if g is None:
                continue
            found = _ledger_candidate(g)
            if found is not None:
                item, bits = found
                (heavy if item.heavy else light).append((bits, item))
            descends += _descend_candidates(g)
    # reports from the middle half of each pool by index-term size: p90 is
    # the median heavy report and p50 the median light one, so neither should
    # hinge on the one draw in the middle
    picked = (_stratified(rng, _middle_half(heavy), LEDGER_HEAVY)
              + _stratified(rng, _middle_half(light), LEDGER_LIGHT))
    reports = tuple(LedgerItem(i.gen, i.q, rng.choice(C_CONFIGS), i.heavy) for i in picked)
    chosen = _stratified(rng, descends, LEDGER_DESCEND)
    return LedgerInputs(reports, tuple(chosen), tuple(_frey_item(rng, d) for d in chosen[:LEDGER_FREY]))
