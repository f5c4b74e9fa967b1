"""Assembly of the effective exponent bound.

For a non-integral generator (B_1 > 1) the finiteness argument needs: the
prime set T dividing 2b, a pair (k, p0) where the term at index q^(k -
v_q(B_1)) gains a primitive divisor p0 outside T, the threshold max{k, 2b,
C_config, p0, 5}, and, per candidate field Q(sqrt(a)) for squarefree a | b,
the splitting of p0, the envelope bound (sqrt(N)+1)^2 on the surviving
exponents, and the size of the lowered-level search space.  An optional
eigenvalue table sharpens the envelope to an exact bound: per field, the
largest N + 1 + |a_p| (the larger of |N + 1 +- a_p|) over the field's
usable records at p0, and then the largest of these over the fields.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from math import isqrt

from . import arith, frey
from .arith import DEFAULT_BUDGET, Budget
from .curve import Curve, Point, _x_part, net
from .eds import Sequence
from .errors import BudgetExhausted, HypothesisError, _is_integer, _require_positive
from .quadfield import SplitType, _kind

DEFAULT_SEARCH_CAP = 64

# Conductor exponent caps: semistable-away-from-S curves need f_P <= 2 at
# P over p not dividing 6, and at most 2 + 6e over 2 and 2 + 3e over 3
# (e the ramification index, which is v_P(2) or v_P(3) here).  These are
# the bound f_P <= 2 + 6 v_P(2) + 3 v_P(3) for an elliptic curve over a
# number field (Brumer and Kramer, "The conductor of an abelian variety",
# Compositio Math. 92, 1994).  The caveat text is report output that the
# command-line tests pin byte for byte, so it keeps its older wording.
_CAP_NOTE = "exponent caps over 2 and 3 use the design constants 2+6e and 2+3e"


@dataclass(frozen=True)
class EnvelopeBound:
    """(sqrt(N) + 1)^2 for the residue norm N of a prime over p0.

    exact_value is set when N is a perfect square; otherwise the value is
    irrational and only the integer ceiling is reported alongside the
    symbolic form N + 1 + 2*sqrt(N), which display carries either way.
    """

    residue_norm: int
    exact_value: int | None
    ceiling: int
    display: str


@dataclass(frozen=True)
class LevelEntry:
    p: int
    kind: SplitType
    ramification: int
    cap: int


@dataclass(frozen=True)
class LevelSupport:
    """Exponent caps for each prime ideal over the primes of 2ad."""

    entries: tuple[LevelEntry, ...]
    count: int


@dataclass(frozen=True)
class EigenRecord:
    level_tag: str
    form_index: int
    p: int
    a_p: int


@dataclass(frozen=True)
class CandidateField:
    a: int
    splitting_of_p0: SplitType
    envelope: EnvelopeBound
    level_support: LevelSupport


@dataclass(frozen=True)
class LedgerReport:
    b: int
    generator: str
    q: int
    B1: int
    T: tuple[int, ...]
    k: int
    p0: int
    c_config: int
    threshold: int
    candidate_fields: tuple[CandidateField, ...]
    exact_bound: int | None
    caveats: tuple[str, ...]


def _least_primitive(B: int, B_prev: int, T: set[int], budget: Budget) -> tuple[int | None, bool]:
    """The least prime of B outside T that does not divide B_prev.

    Primes are walked upward by trial division, so the first one that
    qualifies is the least, and the walk stops there; trial_factors reduces
    a long B once per block of primes, not once per prime, and builds no
    block past the one it stops in.  Past budget.trial_bound only the
    leftover cofactor goes to rho.  Returns (p, settled), p None when no prime
    qualifies; settled is False when rho left part of B unsplit, so a
    smaller qualifying prime, or with p None any, may hide there.
    """
    rest = B
    for p, _, rest in arith.trial_factors(B, budget.trial_bound):
        if p not in T and B_prev % p:
            return p, True
    found, cofactor = arith.rho_factors(rest, budget)
    return min((p for p in found if p not in T and B_prev % p), default=None), cofactor == 1


def _check_index_search(B1: int, q: int, search_cap: int) -> None:
    """The checks on B_1, q and search_cap that find_k_p0 makes before it walks any index."""
    if B1 == 1:
        raise HypothesisError("generator is integral (B_1 = 1); the bound needs B_1 > 1")
    if not arith.is_probable_prime(q):
        raise ValueError(f"q = {q} is not prime")
    if not _is_integer(search_cap):
        raise ValueError(f"search_cap must be an integer, got {search_cap!r}")
    if search_cap < q:
        raise ValueError(f"search_cap = {search_cap} is below q = {q}; no index to try")
    if B1 % q != 0:
        raise HypothesisError(f"q = {q} does not divide B_1 = {B1}")


def find_k_p0(
    s: Sequence,
    q: int,
    T: set[int],
    search_cap: int = DEFAULT_SEARCH_CAP,
    budget: Budget = DEFAULT_BUDGET,
) -> tuple[int, int, tuple[int, ...]]:
    """Smallest k whose index q^(k - v_q(B_1)) has a primitive divisor outside T.

    Returns (k, p0, incomplete) with p0 the least such primitive divisor
    found.  The search walks indices n = q, q^2, ... up to search_cap,
    reading each B_n off the x-part of one elliptic net of the generator,
    which computes no term between the indices and no y-numerator.  By strong divisibility a prime of B_n is
    primitive exactly when it does not divide B_{n/q}, so at each index
    the primes of B_n are walked upward and the first one outside T that
    passes this test is p0.  incomplete lists the indices, passed or
    stopped at, whose factoring the budget cut short; when it is empty the
    pair is proven least, otherwise a smaller k or p0 may exist.
    A search_cap below q is a ValueError; exhaustion raises
    BudgetExhausted with the progress made.  Each index walked gets a fresh
    cap of budget.rho_iterations, so the walk may spend one cap per index,
    and trial bounds 2 to 4 act as 5.
    """
    if not s.terms:
        raise ValueError("sequence has no terms")
    _check_index_search(s.terms[0].B, q, search_cap)
    return _walk_indices(net(s.curve, s.generator), s.terms[0].B, q, T, search_cap, budget)


def _walk_indices(
    f: Callable[[int], tuple[int, int, int]], B1: int, q: int, T: set[int], search_cap: int, budget: Budget,
) -> tuple[int, int, tuple[int, ...]]:
    """find_k_p0's walk over the indices q, q^2, ... on the net f, once its checks have passed."""
    v1 = arith.valuation(B1, q)
    incomplete = []
    B_prev, j = B1, 1
    while q**j <= search_cap:
        index = q**j
        B = _x_part(*f.args, index)[1]  # B_n alone: no y-numerator, no V_{n+-2}
        p0, settled = _least_primitive(B, B_prev, T, budget)
        if not settled:
            incomplete.append(index)
        if p0 is not None:
            return v1 + j, p0, tuple(incomplete)
        B_prev, j = B, j + 1
    detail = ", ".join(
        f"index {idx} ({'factoring incomplete' if idx in incomplete else 'fully factored'})"
        for idx in (q**i for i in range(1, j))
    )
    raise BudgetExhausted(
        f"no primitive divisor outside T at indices up to {search_cap}; tried {detail}"
    )


def threshold(k: int, b: int, c_config: int, p0: int) -> int:
    """max{k, 2b, C_config, p0, 5}."""
    for name, value in (("k", k), ("b", b), ("c_config", c_config), ("p0", p0)):
        _require_positive(value, name)
    return max(k, 2 * b, c_config, p0, 5)


def envelope_bound(p0: int, kind: SplitType) -> EnvelopeBound:
    """(sqrt(N) + 1)^2 where N is the residue norm of a prime over p0 that splits as kind.

    N is p0 at a split prime and p0^2 at an inert one; a ramified p0 is a
    ValueError.
    """
    if kind is SplitType.RAMIFIED:
        raise ValueError(f"p0 = {p0} ramifies; p0 must avoid 2a")
    N = p0 if kind is SplitType.SPLIT else p0 * p0
    r = isqrt(N)
    if r * r == N:
        value = (r + 1) ** 2
        return EnvelopeBound(N, value, value, str(value))
    # N + 1 + 2*sqrt(N) with 2*sqrt(N) irrational: ceiling via isqrt(4N)
    ceiling = N + 2 + isqrt(4 * N)
    return EnvelopeBound(N, None, ceiling, f"{N + 1} + 2*sqrt({N})")


def level_support(a: int, primes: Iterable[int]) -> LevelSupport:
    """Exponent caps for the prime ideals of Q(sqrt(a)) over the given primes, those of 2ad.

    a is squarefree and the primes are prime, neither checked.  Caps: 2 at
    ideals over p not dividing 6; 2 + 6e over 2; 2 + 3e over 3, with e the
    ramification index.  A split p has two ideals, which share one entry,
    but in Q itself (a = 1) it is one.  count multiplies out (cap + 1) over
    all ideals, the size of the exponent-vector enumeration.
    """
    entries: list[LevelEntry] = []
    count = 1
    for p in primes:
        kind = _kind(a, p)
        e = 2 if kind is SplitType.RAMIFIED else 1
        cap = {2: 2 + 6 * e, 3: 2 + 3 * e}.get(p, 2)
        ideals = 2 if kind is SplitType.SPLIT and a > 1 else 1
        entries += [LevelEntry(p, kind, e, cap)] * ideals
        count *= (cap + 1) ** ideals
    return LevelSupport(tuple(entries), count)


def load_eigenvalue_table(lines) -> list[EigenRecord]:
    """Parse records `level_tag TAB form_index TAB p TAB a_p`, one per line.

    Accepts any iterable of strings; blank lines and lines starting with #
    are skipped.  Each number is ASCII decimal with an optional sign,
    [+-]?[0-9]+ as --point takes it; any other field, such as 7_0 or a
    non-ASCII digit that int() would read, makes the record malformed.
    """
    records = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:  # a wrong field count and a field that is no such number both raise ValueError
            tag, idx, p, a_p = line.split("\t") if "\t" in line else line.split()
            if not all(v.isascii() and v.lstrip("+-").isdigit() for v in (idx, p, a_p)):
                raise ValueError("not an ASCII decimal integer")  # int() refuses a second sign
            records.append(EigenRecord(tag, int(idx), int(p), int(a_p)))
        except ValueError as exc:
            raise ValueError(f"malformed eigenvalue record: {raw!r}") from exc
    return records


def _exact_bound(fields: tuple[CandidateField, ...], p0: int, table: Iterable[EigenRecord]) -> int | None:
    """max over forms and signs of |N + 1 +- a_p| at the prime over p0.

    Level tags are opaque, so each record is applied to every candidate
    field whose envelope it respects; a record violating |a_p| <= 2*sqrt(N)
    for every candidate field is corrupt input.  Returns None when some
    candidate field has no applicable record (the envelope bound stands).
    """
    relevant = [r for r in table if r.p == p0]
    for r in relevant:
        if all(r.a_p * r.a_p > 4 * f.envelope.residue_norm for f in fields):
            raise ValueError(
                f"eigenvalue {r.a_p} at p = {r.p} violates |a_p| <= 2*sqrt(N) for every candidate field"
            )
    best = 0
    for f in fields:
        N = f.envelope.residue_norm
        usable = [r for r in relevant if r.a_p * r.a_p <= 4 * N]
        if not usable:
            return None
        # |a_p| <= 2*sqrt(N) <= N + 1, so the larger of |N + 1 +- a_p| is N + 1 + |a_p|
        best = max(best, N + 1 + max(abs(r.a_p) for r in usable))
    return best


def _candidate_fields(b: int, T: set[int], p0: int) -> tuple[CandidateField, ...]:
    """The field data at p0 for each squarefree a | b, in increasing order of a.

    T, the primes of 2*a*(b/a) = 2b, is every field's bad set and each
    label is a product of its primes, so nothing is factored again.  Only
    the kinds of p0 and of the primes of T are read: no prime ideal, and
    no square root mod p, is formed.
    """
    primes = sorted(T)
    divisors = [1]
    for p in primes:
        if b % p == 0:
            divisors += [a * p for a in divisors]
    fields = []
    for a in sorted(divisors):
        kind = _kind(a, p0)
        fields.append(CandidateField(a, kind, envelope_bound(p0, kind), level_support(a, primes)))
    return tuple(fields)


def build_report(
    curve: Curve,
    generator: Point,
    q: int,
    c_config: int,
    budget: Budget = DEFAULT_BUDGET,
    search_cap: int = DEFAULT_SEARCH_CAP,
    eigen_table: list[EigenRecord] | None = None,
) -> LedgerReport:
    """Assemble the full exponent-bound report for one generator.

    The generator must be non-torsion and non-integral (B_1 > 1), with q a
    prime dividing B_1.  c_config stands in for the effective
    irreducibility constant, which is configuration, not derivation.
    The budget holds per factoring call: 2b is factored under one cap of
    budget.rho_iterations and each index walked under a fresh one, so one
    report may spend one cap plus one per index; trial bounds 2 to 4 act
    as 5.
    A report computes only what it prints: B_1 from the generator's x,
    each B_{q^j} through the net's x-part (no C_{q^j}), the primes of
    B_{q^j} by trial division in blocks up to the first that qualifies,
    and per field the splitting kinds of p0 and of the primes of 2b, with
    no prime ideal or square root mod p.
    """
    b = curve.b
    _require_positive(c_config, "c_config")
    # building the net checks the generator: on the curve, not torsion, so
    # its x is A/B_1^2 in lowest terms
    f = net(curve, generator)
    B1 = isqrt(generator.x.denominator)
    # before 2b is factored, so a usage slip is not reported as an exhausted budget
    _check_index_search(B1, q, search_cap)

    T = frey.bad_set(1, b, budget)
    k, p0, incomplete = _walk_indices(f, B1, q, T, search_cap, budget)

    thr = threshold(k, b, c_config, p0)
    fields = _candidate_fields(b, T, p0)

    caveats = [
        "c_config is user-supplied configuration, not derived from the sequence",
        _CAP_NOTE,
    ]
    if incomplete:
        caveats.append(
            f"factoring is incomplete at {'index' if len(incomplete) == 1 else 'indices'} "
            f"{', '.join(map(str, incomplete))}; (k, p0) = ({k}, {p0}) is valid "
            "but k or p0 may not be the least"
        )
    exact = _exact_bound(fields, p0, eigen_table or ())
    if exact is None:
        caveats.append(
            "exponent bound is the Ramanujan-Petersson envelope; exact maxima need "
            "eigenvalue tables for every candidate level (rational eigenvalues only)"
        )

    return LedgerReport(
        b=b,
        generator=str(generator),
        q=q,
        B1=B1,
        T=tuple(sorted(T)),
        k=k,
        p0=p0,
        c_config=c_config,
        threshold=thr,
        candidate_fields=fields,
        exact_bound=exact,
        caveats=tuple(caveats),
    )
