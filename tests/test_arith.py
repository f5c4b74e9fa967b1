import random
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import count, islice
from math import prod

import pytest

from edspower import (
    Budget,
    BudgetExhausted,
    Point,
    build_report,
    exact_root,
    factorize,
    generate,
    is_probable_prime,
    make_curve_xb,
    perfect_power,
    scan_powers,
    valuation,
)
from edspower import arith
from edspower.arith import _floor_root
from edspower.quadfield import _require_squarefree

from helpers import (
    SWEEP,
    factor_oracle,
    factorize_wheel,
    iroot_oracle,
    is_prime_oracle,
    perfect_power_oracle,
    perfect_power_root_oracle,
    perfect_power_valuation_oracle,
    reassembled,
    small_peak,
    trial_factors_oracle,
    trial_factors_wheel,
)


def test_primality_small_range():
    for n in range(-2, 2000):
        assert is_probable_prime(n) == is_prime_oracle(n), n


def test_primality_carmichael_and_strong_pseudoprimes():
    # Carmichael numbers fool Fermat tests but not strong tests
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
        assert not is_probable_prime(n)
    # strong pseudoprimes to base 2
    for n in (2047, 3277, 4033, 4681, 8321):
        assert not is_probable_prime(n)


def test_primality_large():
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(2**67 - 1)  # 193707721 * 761838257287
    assert is_probable_prime(2**89 - 1)
    assert is_probable_prime(10**18 + 9)
    assert not is_probable_prime(10**18 + 7)


def test_factorize_matches_oracle():
    for n in range(1, 3000):
        f = factorize(n)
        assert f.is_complete
        assert f.factors == factor_oracle(n)
        assert reassembled(f) == n


def test_factorize_negative_and_zero():
    # magnitudes only: factorize(-n) == factorize(n)
    f = factorize(-12)
    assert f.factors == {2: 2, 3: 1}
    assert reassembled(f) == 12
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_beyond_trial_division():
    n = 99999989 * 99999971  # both prime, far above the trial bound
    f = factorize(n)
    assert f.is_complete
    assert f.factors == {99999971: 1, 99999989: 1}

    n = 1000003**3 * 1000033
    f = factorize(n)
    assert f.is_complete
    assert f.factors == {1000003: 3, 1000033: 1}
    # the rho stage takes whatever trial division leaves, 1 included
    assert arith.rho_factors(1, arith.DEFAULT_BUDGET) == ({}, 1)


def test_factorize_budget_exhaustion_reported():
    n = 99999989 * 99999971
    f = factorize(n, Budget(trial_bound=100, rho_iterations=8))
    assert not f.is_complete
    assert f.unfactored_cofactor > 1
    assert reassembled(f) == n


def test_factorize_is_deterministic():
    n = 76185612469 * 9334605488291
    effort = Budget(rho_iterations=1_000_000)
    a = factorize(n, effort)
    b = factorize(n, effort)
    assert a == b
    assert a.is_complete
    assert a.factors == {76185612469: 1, 9334605488291: 1}
    # under-budgeted runs are deterministic too
    little = Budget(rho_iterations=100)
    assert factorize(n, little) == factorize(n, little)


def test_budget_validation():
    Budget(trial_bound=2, rho_iterations=0)  # the least accepted values
    for kwargs, field in (
        ({"trial_bound": 1}, "trial_bound"),
        ({"trial_bound": 1000.0}, "trial_bound"),
        ({"trial_bound": True}, "trial_bound"),
        ({"rho_iterations": -1}, "rho_iterations"),
        ({"rho_iterations": "10"}, "rho_iterations"),
    ):
        with pytest.raises(ValueError, match=field):
            Budget(**kwargs)


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(48, 5) == 0
    assert valuation(-8, 2) == 3
    assert valuation(7**100 * 3, 7) == 100
    with pytest.raises(ValueError):
        valuation(0, 2)
    with pytest.raises(ValueError):
        valuation(12, 4)
    # numbers below 2 are refused by the primality test, with the same message
    for p in (1, 0, -3):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            valuation(8, p)


def test_floor_root_matches_bisection():
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randrange(1, 10**24)
        k = rng.randrange(1, 12)
        assert _floor_root(n, k) == iroot_oracle(n, k)
    # boundary values around exact powers
    for w in (2, 3, 10, 99, 1024):
        for k in (2, 3, 5, 7):
            assert _floor_root(w**k, k) == w
            assert _floor_root(w**k - 1, k) == w - 1
            assert _floor_root(w**k + 1, k) == w


def test_floor_root_matches_bisection_to_2048_bits():
    # Newton from above stops at the floor with no correction step
    rng = random.Random(22)
    for _ in range(200):
        n = rng.randrange(1, 1 << rng.randrange(1, 2049))
        k = rng.randrange(1, 65)
        assert _floor_root(n, k) == iroot_oracle(n, k), (n, k)
    for _ in range(100):
        k = rng.randrange(2, 65)
        w = rng.randrange(2, 1 << max(2, 2048 // k))
        for n in (w**k - 1, w**k, w**k + 1):
            assert _floor_root(n, k) == iroot_oracle(n, k), (n, k)
    # n = 1, and every n of exactly k bits, whose root is 1: Newton takes
    # them from its start 1 << ceil(bits(n)/k) like any other input
    for k in range(1, 65):
        for n in (1, 1 << (k - 1), (1 << k) - 1):
            assert _floor_root(n, k) == iroot_oracle(n, k), (n, k)


def test_trial_factors_matches_trial_division():
    for bound in range(2, 13):
        for m in range(1, 5001):
            assert list(arith.trial_factors(m, bound)) == trial_factors_oracle(m, bound), (m, bound)
    # a bound below 5 still strips 2, 3 and 5; 49 is left for the rho stage
    assert list(arith.trial_factors(2**3 * 3**2 * 5 * 49, 2)) == [
        (2, 3, 3**2 * 5 * 49), (3, 2, 5 * 49), (5, 1, 49),
    ]


def _check_trial_table(blocks):
    # full blocks of the primes in order from 2, each with its product
    primes = [p for _, block in blocks for p in block]
    assert primes == [p for p in range(primes[-1] + 1) if is_prime_oracle(p)]
    assert all(len(block) == arith._TRIAL_BLOCK and P == prod(block) for P, block in blocks)


def _matches_the_wheel(m: int, bound: int) -> bool:
    """trial_factors against the wheel; False at the one edge where the yields differ.

    There the walk stops at the bound, the wheel at its next candidate c,
    which is composite (49 at bound 48), and the blocks at the next prime p;
    a remainder r with c^2 <= r < p^2 is then prime, and only the blocks
    yield it.  factorize, whose rho stage finds r prime, is the same either way.
    """
    got, want = list(arith.trial_factors(m, bound)), trial_factors_wheel(m, bound)
    if got == want:
        return True
    r = want[-1][2] if want else m
    assert got == want + [(r, 1, 1)] and is_probable_prime(r), (m, bound)
    budget = Budget(bound, 0)
    f, g = factorize(m, budget), factorize_wheel(m, budget)
    assert f == g and list(f.factors) == list(g.factors) and f.is_complete, (m, bound)
    return False


def test_trial_factors_match_the_wheel_on_random_inputs(monkeypatch):
    # m up to 4,000 bits with small, block-edge and large primes in it, from
    # an empty table, under bounds from 2 to 10^5
    monkeypatch.setattr(arith, "_trial_table", ())
    rng = random.Random(30)
    primes = [p for p in range(2, 20_000) if is_prime_oracle(p)]
    for _ in range(60):
        m = rng.getrandbits(rng.randrange(1, 4000)) | 1
        for _ in range(rng.randrange(0, 6)):
            m *= rng.choice(primes) ** rng.randrange(1, 4)
        _matches_the_wheel(m, int(10 ** rng.uniform(0.3, 5)))
    _check_trial_table(arith._trial_table)


def test_trial_factors_at_block_edges(monkeypatch):
    # powers of the first and last prime of a block, primes on either side of
    # a boundary, alone and beside a prime R past every bound, under bounds
    # at and around the edges
    monkeypatch.setattr(arith, "_trial_table", ())
    R = 2**89 - 1
    blocks = [block for _, block in arith._grown(arith._grown(arith._grown(())))]
    for block, after in zip(blocks, blocks[1:]):
        first, last, nxt = block[0], block[-1], after[0]
        for m in (first**3, last**2, first * last, last * nxt, last**5 * nxt**2, nxt**3):
            for bound in (first - 1, first, last - 1, last, last + 1, nxt, 10**5):
                assert _matches_the_wheel(m, bound), (m, bound)
                assert _matches_the_wheel(m * R, bound), (m, bound)
    _check_trial_table(arith._trial_table)
    # a prime m just past the bound: 2203 < 47^2 and 2411 > 47^2 at bound 46,
    # where the wheel's next candidate is the prime 47; at bound 48 the
    # wheel stops at 49 and leaves 2411 >= 49^2 unproven, while the walk stops
    # at 53 and yields it, as 2411 < 53^2.  Over the bounds to 200 that edge
    # is the only difference near c^2 and p^2, for every prime in [c^2, p^2)
    assert _matches_the_wheel(2203, 46) and _matches_the_wheel(2411, 46)
    assert list(arith.trial_factors(2411, 48)) == [(2411, 1, 1)] and trial_factors_wheel(2411, 48) == []
    edges = 0
    for bound in range(5, 200):
        p = next(q for q in count(bound + 1) if is_prime_oracle(q))
        c = next(q for q in count(bound + 1) if q % 2 and q % 3 and q % 5)
        for m in range(c * c - 20, p * p + 20):
            if _matches_the_wheel(m, bound) == (c * c <= m < p * p and is_probable_prime(m)):
                raise AssertionError((m, bound))
        edges += c < p
    assert edges == 35


def test_trial_factors_match_the_wheel_on_sweep_terms():
    for b, P in SWEEP:
        for t in generate(make_curve_xb(b), P, 60).terms:
            assert _matches_the_wheel(t.B, 3000), (b, t.m)


def test_trial_table_grows_only_as_far_as_walks_reach(monkeypatch):
    # factoring 2b = 400 walks the first block; the b = 14, q = 47 report walks
    # B_47 (17,901 bits) up to 15,791, and the table ends with that prime's block
    monkeypatch.setattr(arith, "_trial_table", ())
    assert factorize(2 * 200).factors == {2: 4, 5: 2}
    assert len(arith._trial_table) == 1
    b, P = SWEEP[3]
    assert build_report(make_curve_xb(b), P, 47, 100).p0 == 15791
    table = arith._trial_table
    assert table[-1][1][0] <= 15791 <= table[-1][1][-1]
    _check_trial_table(table)


def test_trial_table_holds_under_threads(monkeypatch):
    # threads that grow the table at once may build a block twice, or lose
    # one to be built again, but every walk sees the primes in order and the
    # table stays full blocks of them with their products
    rng = random.Random(31)
    inputs = [(rng.getrandbits(bits) | 1, bound) for bits, bound in
              ((8, 100), (300, 30_000), (900, 60_000), (2000, 20_000), (40, 10**5), (1200, 45_000))]
    expected = [trial_factors_wheel(m, bound) for m, bound in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(arith, "_trial_table", ())
            with ThreadPoolExecutor(8) as pool:
                results = list(pool.map(lambda a: list(arith.trial_factors(*a)), inputs * 4, timeout=120))
            assert results == expected * 4
            _check_trial_table(arith._trial_table)
    finally:
        sys.setswitchinterval(interval)


def test_exact_root():
    assert exact_root(36, 2) == 6
    assert exact_root(729, 3) == 9
    assert exact_root(729, 6) == 3
    assert exact_root(37, 2) is None
    assert exact_root(1, 2) == 1
    rng = random.Random(21)
    for _ in range(200):
        w = rng.randrange(2, 10**6)
        ell = rng.randrange(2, 8)
        assert exact_root(w**ell, ell) == w
    with pytest.raises(ValueError):
        exact_root(0, 2)
    with pytest.raises(ValueError):
        exact_root(8, 0)
    # ell = 1 is the identity, and 1 is its own root for every ell
    assert exact_root(8, 1) == 8
    assert exact_root(1, 1) == 1
    # ell >= bits(n) leaves no root above 1: answered without 2^(ell-1)
    with small_peak():
        assert exact_root(19679, 10**8) is None
        assert exact_root(1, 10**8) == 1


def test_perfect_power_small_range():
    for n in range(2, 2000):
        assert perfect_power(n) == perfect_power_oracle(n), n


def test_perfect_power_maximal_exponent():
    assert perfect_power(36) == (6, 2)
    assert perfect_power(729) == (3, 6)
    assert perfect_power(2**10) == (2, 10)
    assert perfect_power(6**6) == (6, 6)
    assert perfect_power(2**4 * 3**4) == (6, 4)
    rng = random.Random(22)
    for _ in range(100):
        w = rng.randrange(2, 5000)
        ell = rng.randrange(2, 8)
        base, exp = perfect_power(w**ell)
        assert base**exp == w**ell
        assert exp % ell == 0 or ell % exp == 0 or exp >= ell
        # maximality: the base admits no further root
        assert perfect_power(base) is None
    # 1 is no w**ell with w > 1
    assert perfect_power(1) is None
    with pytest.raises(ValueError):
        perfect_power(0)


def _flat(blocks) -> list[tuple[int, int, int, list[tuple[int, int]]]]:
    """The entries (q, r, e, row) of the witness table's blocks, block after block."""
    return [entry for _, block in blocks for entry in block]


def _entries(limit: int) -> list[tuple[int, int, int, list[tuple[int, int]]]]:
    """The witness table's entries through limit."""
    return _flat(arith._entries_through(limit))


def _row(q: int) -> list[tuple[int, int]]:
    """The witness table's row for the prime q, read from q's own entry."""
    return {entry[0]: entry[3] for entry in _entries(q)}[q]


def _witnesses_oracle(q: int):
    """The odd primes r = 1 (mod q), in increasing order, by trial division."""
    return (r for r in count(q + 1, q) if r % 2 and is_prime_oracle(r))


def _check_blocks(blocks) -> None:
    """Every block but the last holds _BLOCK entries, and each block's m is the product of their r."""
    assert blocks and all(len(block) == arith._BLOCK for _, block in blocks[:-1])
    assert 1 <= len(blocks[-1][1]) <= arith._BLOCK
    for m, block in blocks:
        assert m == prod(r for _, r, _, _ in block), [q for q, *_ in block]


def test_witnesses_are_the_first_primes_one_mod_q():
    # each row lists the first 8 odd primes r = 1 (mod q) as (r, (r-1)/q), and
    # the entry keeps the first of them; 1 is a q-th power residue at every
    # witness, so the whole row is built
    for q in (2, 3, 5, 7, 11, 13, 97, 1009):
        row = _row(q)
        assert arith._survivor_root(1, q, row) == 1
        assert row == [(r, (r - 1) // q) for r in islice(_witnesses_oracle(q), 8)], q
        assert [entry[1:3] for entry in _entries(q) if entry[0] == q] == [row[0]], q


def test_witness_table_holds_under_threads(monkeypatch):
    # threads that grow the table at once may repeat a witness or build an
    # entry twice, but the entries are the primes in order, each row holding
    # only its own witnesses, and each block's m the product of its first ones
    rng = random.Random(27)
    inputs = [rng.randrange(2 ** (bits - 1), 2**bits) for bits in range(8, 1200, 37)]
    inputs += [w**ell for w, ell in ((3, 200), (10**30 + 3, 14), (rng.randrange(2**90, 2**91), 11))]
    expected = [perfect_power(n) for n in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(arith, "_table", (1, []))
            with ThreadPoolExecutor(8) as pool:
                results = list(pool.map(perfect_power, inputs * 4, timeout=120))
            assert results == expected * 4
            bound, blocks = arith._table
            _check_blocks(blocks)
            entries = _flat(blocks)
            assert [q for q, *_ in entries] == [p for p in range(bound + 1) if is_prime_oracle(p)]
            for q, r, e, row in entries:
                first = next(_witnesses_oracle(q))
                assert (r, e) == row[0] == (first, (first - 1) // q), q
                assert all(r % 2 and r % q == 1 and e == (r - 1) // q and is_prime_oracle(r) for r, e in row), q
    finally:
        sys.setswitchinterval(interval)


def test_first_witness_settles_most_exponents_inline(monkeypatch):
    # a near-miss of about 2,000 bits: only the q whose first witness r divides
    # n or finds n a q-th power residue mod r go on to the rest of the row
    rng = random.Random(26)
    n = rng.randrange(2**284, 2**285) ** 7 + 1
    standing = []
    for q in filter(is_prime_oracle, range(2, n.bit_length() + 1)):
        r = next(_witnesses_oracle(q))
        if n % r == 0 or pow(n, (r - 1) // q, r) == 1:
            standing.append(q)
    survivor, reached = arith._survivor_root, []
    monkeypatch.setattr(arith, "_survivor_root", lambda n, q, row: reached.append(q) or survivor(n, q, row))
    assert perfect_power(n) is None
    assert reached == standing and len(standing) < 10


def test_prime_list_is_kept_and_grown_a_block_past_the_limit(monkeypatch):
    # perfect_power walks one module-level table with an entry for each prime
    # up to a bound, grown only when a limit passes it: to the limit and on to
    # the end of its last block, so every block is full and the bound is one
    # below the first prime left out
    primes = [p for p in range(2000) if is_prime_oracle(p)]
    monkeypatch.setattr(arith, "_table", (1, []))
    # the 24th prime is 89 and the 168th is 997, the last below 1000
    for limit, count in [(2, 24), (89, 24), (96, 24), (97, 48), (3, 48), (1000, 168), (1009, 192)]:
        blocks = arith._entries_through(limit)
        assert arith._table == (primes[count] - 1, blocks), limit
        _check_blocks(blocks)
        assert all(len(block) == arith._BLOCK for _, block in blocks), limit
        assert [q for q, *_ in _flat(blocks)] == primes[:count], limit
    # 3**200 has 317 bits, and 66 primes are at most 317
    monkeypatch.setattr(arith, "_table", (1, []))
    assert perfect_power(3**200) == (3, 200) and arith._table[0] == primes[72] - 1
    _check_blocks(arith._table[1])


def test_rows_carry_over_when_the_table_grows(monkeypatch):
    # a row grown past its first witness is the same object, with the same
    # pairs, once a later limit has added entries for the primes past the
    # bound; so is every entry, and every block but the last, whose entries
    # are cut again with the new ones after them
    monkeypatch.setattr(arith, "_table", (1, []))
    arith._entries_through(7)
    row = _row(7)
    assert arith._survivor_root(1, 7, row) == 1 and len(row) == 8
    pairs = list(row)
    # each growth fills its last block, so a limit that rises by one grows the
    # table once per block
    for limit in (1000, 1001, 1009, 2001, 4000):
        old, kept = arith._table
        blocks = arith._entries_through(limit)
        bound = arith._table[0]
        assert arith._table == (bound, blocks) and bound >= limit, limit
        _check_blocks(blocks)
        assert all(new is old for new, old in zip(blocks, kept[:-1])), limit
        entries = _flat(blocks)
        assert all(new is old for new, old in zip(entries, _flat(kept))), limit
        assert [q for q, *_ in entries] == [p for p in range(bound + 1) if is_prime_oracle(p)], limit
        assert (blocks is kept) == (limit <= old), limit
    assert {q: row for q, _, _, row in entries}[7] is row and row == pairs


def test_witnesses_are_built_only_for_the_exponents_a_scan_needs(monkeypatch):
    # B_200 of (20, 90) on b = 5 has 64,745 bits, and 6,472 primes are at
    # most that; a table grown to twice its bound held 11,554 entries
    s = generate(make_curve_xb(5), Point(20, 90), 200)
    bits = s.terms[-1].B.bit_length()
    primes = [p for p in range(bits + 1) if is_prime_oracle(p)]
    monkeypatch.setattr(arith, "_table", (1, []))
    assert scan_powers(s) == [(2, 2, 6)]
    entries = _flat(arith._table[1])
    assert (bits, len(primes), len(entries)) == (64_745, 6_472, 6_480)
    assert [q for q, *_ in entries[: len(primes)]] == primes


def _planted(rng, bits: int, ell: int) -> int:
    return rng.randrange(2 ** (bits // ell - 1), 2 ** (bits // ell)) ** ell


def test_perfect_power_planted_matches_root_oracle():
    rng = random.Random(23)
    for ell in range(2, 17):
        for bits in (40, 1000, 2000, 3000):
            n = _planted(rng, bits, ell)
            assert perfect_power(n) == perfect_power_root_oracle(n), (ell, bits)
            assert perfect_power(n)[1] % ell == 0
        # bases that are themselves powers
        for k in (2, 3, 5):
            v = rng.randrange(2, 2 ** (1500 // (k * ell)))
            n = v ** (k * ell)
            assert perfect_power(n) == perfect_power_root_oracle(n), (ell, k)
            assert perfect_power(n)[1] % (k * ell) == 0


def test_perfect_power_near_misses_match_root_oracle():
    rng = random.Random(24)
    sizes = (1000, 2000, 3000)
    for ell in range(2, 17):
        n = _planted(rng, sizes[ell % 3], ell)
        for near in (n - 1, n + 1, n * 3, n * 10007):
            assert perfect_power(near) == perfect_power_root_oracle(near), ell


def test_perfect_power_base_divisible_by_first_witness():
    # the first witness for q divides n, so it says nothing about q
    rng = random.Random(25)
    for q, r in ((2, 3), (3, 7), (5, 11)):
        assert next(_witnesses_oracle(q)) == r
        for bits in (60, 1200, 2400):
            w = r * rng.randrange(2 ** (bits // q - 4), 2 ** (bits // q - 3))
            for n in (w**q, w ** (2 * q)):
                assert perfect_power(n) == perfect_power_root_oracle(n), (q, bits)
                assert perfect_power(n)[1] % q == 0
    # every witness for q = 2 divides n, so exact_root alone decides
    all_two = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    k = rng.randrange(2**500, 2**501)
    assert perfect_power((all_two * k) ** 2) == perfect_power_root_oracle((all_two * k) ** 2)
    assert perfect_power(all_two * k * k) == perfect_power_root_oracle(all_two * k * k)
    assert _row(2) == [(r, (r - 1) // 2) for r in (3, 5, 7, 11, 13, 17, 19, 23)]
    # n = c^q (mod r) at the first witness r yet no power, so a later
    # witness or exact_root decides
    for q, r in ((2, 3), (3, 7), (5, 11)):
        for bits in (60, 1200, 2400):
            n = rng.randrange(2 ** (bits - 1), 2**bits)
            n += (pow(rng.randrange(1, r), q, r) - n) % r
            assert pow(n, (r - 1) // q, r) == 1
            assert perfect_power_root_oracle(n) is None, (q, bits)
            assert perfect_power(n) is None, (q, bits)


def _block_qs(limit: int) -> list[list[int]]:
    """The q of each block of the witness table, for the blocks that start at or below limit."""
    return [[q for q, *_ in block] for _, block in arith._entries_through(limit) if block[0][0] <= limit]


def test_perfect_power_at_block_edges():
    # bit lengths one below, at and one past the first and the last q of a
    # block: the loop leaves at the first q past bits(n), in the block or at
    # the start of the next one
    rng = random.Random(28)
    edges = sorted({qs[0] for qs in _block_qs(1200)} | {qs[-1] for qs in _block_qs(1200)})
    assert len(edges) >= 6
    for q in edges:
        for bits in {max(q - 1, 2), q, q + 1}:
            n = rng.randrange(2 ** (bits - 1), 2**bits)
            assert perfect_power(n) == perfect_power_root_oracle(n), bits
        # powers whose bit length is q itself
        for ell in (2, 3, 5, 7):
            lo, hi = iroot_oracle(2 ** (q - 1) - 1, ell) + 1, iroot_oracle(2**q - 1, ell)
            if lo <= hi:
                n = rng.randint(lo, hi) ** ell
                assert n.bit_length() == q
                assert perfect_power(n) == perfect_power_root_oracle(n), (q, ell)
                assert perfect_power(n)[1] % ell == 0


def test_perfect_power_root_replaces_the_base_mid_block():
    # w**(q1*q2): the root at q1 replaces the base, which is reduced mod the
    # block's m again before q2 comes, in the same block or in a later one
    first, second = _block_qs(200)[:2]
    same = [(first[0], first[1]), (first[0], first[-1]), (first[1], first[2]), (second[0], second[1])]
    apart = [(first[0], second[0]), (first[-1], second[0]), (first[2], second[-1])]
    for q1, q2 in same + apart:
        for w in (3, 10, 2**13 - 1):
            n = w ** (q1 * q2)
            if n.bit_length() <= 20_000:
                assert perfect_power(n) == perfect_power_root_oracle(n) == (w, q1 * q2), (w, q1, q2)
            # and one off a power, so q1's root is tried and fails
            assert perfect_power(n + 2) == perfect_power_valuation_oracle(n + 2), (w, q1, q2)


def test_a_root_is_reduced_again_before_its_next_test(monkeypatch):
    # after a root replaces the base, each first witness reads the root's
    # residue: a stale residue of the old base would send q1 to the rest of
    # its row again, as the old base is a q1-th power
    rng = random.Random(30)
    first, second = _block_qs(200)[:2]
    survivor, reached = arith._survivor_root, []
    monkeypatch.setattr(arith, "_survivor_root", lambda n, q, row: reached.append(q) or survivor(n, q, row))
    for q1, q2 in ((first[1], first[3]), (first[2], second[1])):
        r1, w = next(_witnesses_oracle(q1)), rng.randrange(2**63, 2**64)
        while pow(w, q2 * (r1 - 1) // q1, r1) < 2:  # the root w**q2 must fail q1's first witness
            w += 1
        base, standing = w ** (q1 * q2), []
        for q in filter(is_prime_oracle, count(2)):
            if q > base.bit_length():
                break
            r = next(_witnesses_oracle(q))
            while base % r == 0 or pow(base, (r - 1) // q, r) == 1:
                standing.append(q)
                if (root := exact_root(base, q)) is None:
                    break
                base = root
        reached.clear()
        assert perfect_power(w ** (q1 * q2)) == (w, q1 * q2)
        assert reached == standing and standing.count(q1) == 1, (q1, q2)


def test_perfect_power_first_witness_divides_the_base_at_block_edges():
    # the first witness r of q divides w, so the block's residue is 0 mod r,
    # r says nothing, and the rest of q's row and exact_root decide
    rng = random.Random(29)
    for qs in _block_qs(400)[:2]:
        for q in (qs[0], qs[-1]):
            r = next(_witnesses_oracle(q))
            w = r * rng.randrange(2**20, 2**21)
            for n in (w**q, w**q * r, w ** (2 * q)):
                assert perfect_power(n) == perfect_power_root_oracle(n), (q, n.bit_length())


def test_perfect_power_matches_oracles_on_the_sweep_terms():
    # B_1 .. B_120 of the sweep generators, up to about 117,000 bits: every
    # term against the valuation oracle, those up to 3,000 bits against the
    # root oracle too
    for b, P in SWEEP:
        for t in generate(make_curve_xb(b), P, 120).terms:
            if t.B > 1:
                got = perfect_power(t.B)
                assert got == perfect_power_valuation_oracle(t.B), (b, P, t.m)
                if t.B.bit_length() <= 3000:
                    assert got == perfect_power_root_oracle(t.B), (b, P, t.m)


def _split(n: int) -> tuple[int, int]:
    """n = a*u^2 with a squarefree, read off a complete factorization of n."""
    f = factorize(n)
    assert f.is_complete
    a = u = 1
    for p, e in f.factors.items():
        a *= p ** (e % 2)
        u *= p ** (e // 2)
    return a, u


def test_squarefree_split():
    assert _split(1) == (1, 1)
    assert _split(12) == (3, 2)
    assert _split(500) == (5, 10)
    assert _split(6241) == (1, 79)
    for n in range(1, 800):
        a, u = _split(n)
        assert a * u * u == n
        assert _split(a) == (a, 1)
        _require_squarefree(a, factorize(a))
        if u > 1:
            with pytest.raises(ValueError, match=f"a = {n} is not squarefree"):
                _require_squarefree(n, factorize(n))
    # the check needs the complete factorization: a short budget is refused
    n = 99999989 * 99999971
    f = factorize(n, Budget(trial_bound=100, rho_iterations=4))
    assert not f.is_complete
    with pytest.raises(BudgetExhausted):
        _require_squarefree(n, f)


def test_is_squarefree():
    for n in (1, 30):
        _require_squarefree(n, factorize(n))
    for n in (12, 49):
        with pytest.raises(ValueError, match="not squarefree"):
            _require_squarefree(n, factorize(n))
