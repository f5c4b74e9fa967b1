"""Assembly of the effective exponent bound.

For a non-integral generator (B_1 > 1) the finiteness argument needs: the
prime set T dividing 2b, a pair (k, p0) where the term at index q^(k -
v_q(B_1)) gains a primitive divisor p0 outside T, the threshold max{k, 2b,
C_config, p0, 5}, and, per candidate field Q(sqrt(a)) for squarefree a | b,
the splitting of p0, the envelope bound (sqrt(N)+1)^2 on the surviving
exponents, and the size of the lowered-level search space.  An optional
eigenvalue table sharpens the envelope to the exact maximum of
|N + 1 +- a_p| over the supplied eigenforms.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from . import arith, eds, frey, quadfield
from .arith import DEFAULT_BUDGET, Budget
from .curve import Curve, Point, is_torsion, on_curve
from .eds import Sequence
from .errors import BudgetExhausted, HypothesisError
from .quadfield import SplitType

DEFAULT_SEARCH_CAP = 64

# Conductor exponent caps: semistable-away-from-S curves need f_P <= 2 at
# P over p not dividing 6, and at most 2 + 6e over 2 and 2 + 3e over 3
# (e the ramification index).  The 2/3 constants are design constants
# adopted from the standard conductor bound; reports carry this caveat.
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


def find_k_p0(
    s: Sequence,
    q: int,
    T: set[int],
    search_cap: int = DEFAULT_SEARCH_CAP,
    budget: Budget = DEFAULT_BUDGET,
) -> tuple[int, int, bool]:
    """Smallest k whose index q^(k - v_q(B_1)) has a primitive divisor outside T.

    Returns (k, p0, complete) with p0 the least such primitive divisor
    found; complete is False when the factoring of the term at that index
    was cut short, so a smaller primitive divisor may exist.  The search
    walks indices q, q^2, ... up to search_cap, extending the
    sequence as needed; exhaustion raises BudgetExhausted with the progress
    made.
    """
    if not s.terms:
        raise ValueError("sequence has no terms")
    B1 = s.terms[0].B
    if B1 == 1:
        raise HypothesisError("generator is integral (B_1 = 1); a divisor q | B_1 is required")
    if q < 2 or not arith.is_probable_prime(q):
        raise ValueError(f"q = {q} is not prime")
    if B1 % q != 0:
        raise HypothesisError(f"q = {q} does not divide B_1 = {B1}")
    v1 = arith.valuation(B1, q)
    tried = []
    j = 1
    while q**j <= search_cap:
        index = q**j
        s = eds.extend(s, index)
        found = eds.primitive_divisors(s, index, budget)
        candidates = sorted(p for p in found.primes if p not in T)
        if candidates:
            return v1 + j, candidates[0], found.complete
        tried.append((index, found.complete))
        j += 1
    detail = ", ".join(
        f"index {idx} ({'fully factored' if comp else 'factoring incomplete'})"
        for idx, comp in tried
    )
    raise BudgetExhausted(
        f"no primitive divisor outside T at indices up to {search_cap}; tried {detail or 'nothing'}"
    )


def threshold(k: int, b: int, c_config: int, p0: int) -> int:
    """max{k, 2b, C_config, p0, 5}."""
    if min(k, b, c_config, p0) < 1:
        raise ValueError("all threshold inputs must be positive")
    return max(k, 2 * b, c_config, p0, 5)


def envelope_bound(p0: int, a: int) -> EnvelopeBound:
    """(sqrt(N) + 1)^2 where N is the residue norm of a prime over p0 in Q(sqrt(a))."""
    kind = quadfield.splitting_type(a, p0)
    if kind is SplitType.RAMIFIED:
        raise ValueError(f"p0 = {p0} ramifies in Q(sqrt({a})); p0 must avoid 2a")
    N = p0 if kind is SplitType.SPLIT else p0 * p0
    r = isqrt(N)
    if r * r == N:
        value = (r + 1) ** 2
        return EnvelopeBound(N, value, value, str(value))
    # N + 1 + 2*sqrt(N) with 2*sqrt(N) irrational: ceiling via isqrt(4N)
    ceiling = N + 2 + isqrt(4 * N)
    return EnvelopeBound(N, None, ceiling, f"{N + 1} + 2*sqrt({N})")


def level_support(a: int, d: int) -> LevelSupport:
    """Exponent caps for every prime ideal over a prime of 2ad.

    Caps: 2 at ideals over p not dividing 6; 2 + 6e over 2; 2 + 3e over 3,
    with e the ramification index.  count multiplies out (cap + 1) over all
    ideals, the size of the exponent-vector enumeration.
    """
    if a < 1 or d < 1:
        raise ValueError("a and d must be positive")
    entries = []
    count = 1
    for p in sorted(frey.bad_set(a, d)):
        for P in quadfield.primes_above(a, p):
            e = 2 if P.kind is SplitType.RAMIFIED else 1
            if p == 2:
                cap = 2 + 6 * e
            elif p == 3:
                cap = 2 + 3 * e
            else:
                cap = 2
            entries.append(LevelEntry(p, P.kind, e, cap))
            count *= cap + 1
    return LevelSupport(tuple(entries), count)


def load_eigenvalue_table(lines) -> list[EigenRecord]:
    """Parse records `level_tag TAB form_index TAB p TAB a_p`, one per line.

    Accepts any iterable of strings; blank lines and lines starting with #
    are skipped.
    """
    records = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 4:
            raise ValueError(f"malformed eigenvalue record: {raw!r}")
        tag, idx, p, a_p = parts
        records.append(EigenRecord(tag, int(idx), int(p), int(a_p)))
    return records


def _exact_bound(fields: tuple[CandidateField, ...], p0: int, table: list[EigenRecord]) -> int | None:
    """max over forms and signs of |N + 1 +- a_p| at the prime over p0.

    Level tags are opaque, so each record is applied to every candidate
    field whose envelope it respects; a record violating |a_p| <= 2*sqrt(N)
    for every candidate field is corrupt input.  Returns None when some
    candidate field has no applicable record (the envelope bound stands).
    """
    relevant = [r for r in table if r.p == p0]
    if not relevant:
        return None
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
        for r in usable:
            best = max(best, abs(N + 1 + r.a_p), abs(N + 1 - r.a_p))
    return best


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
    """
    b = curve.b
    if c_config < 1:
        raise ValueError("c_config must be a positive integer")
    if not on_curve(curve, generator):
        raise ValueError("generator does not satisfy the curve equation")
    if generator.is_infinity or is_torsion(curve, generator):
        raise HypothesisError("generator is a torsion point")
    if generator.x.denominator == 1 and generator.y.denominator == 1:
        raise HypothesisError("generator is integral (B_1 = 1); the bound needs B_1 > 1")

    T = frey.bad_set(1, b, budget)

    s = eds.generate(curve, generator, 1)
    B1 = s.terms[0].B
    k, p0, complete = find_k_p0(s, q, T, search_cap, budget)

    # re-verify the pair against its defining property: p0 lies outside T,
    # divides the term at the index and none of the earlier terms
    index = q ** (k - arith.valuation(B1, q))
    s = eds.extend(s, index)
    B = [t.B for t in s.terms[:index]]
    if p0 in T or B[-1] % p0 != 0 or any(Bj % p0 == 0 for Bj in B[:-1]):
        raise ArithmeticError("(k, p0) failed re-verification against the sequence")

    thr = threshold(k, b, c_config, p0)
    # the squarefree divisors of b, from the primes of T that divide it
    divisors = [1]
    for p in sorted(T):
        if b % p == 0:
            divisors += [a * p for a in divisors]
    fields = []
    for a in sorted(divisors):
        fields.append(
            CandidateField(
                a=a,
                splitting_of_p0=quadfield.splitting_type(a, p0),
                envelope=envelope_bound(p0, a),
                level_support=level_support(a, b // a),
            )
        )

    caveats = [
        "c_config is user-supplied configuration, not derived from the sequence",
        _CAP_NOTE,
    ]
    if not complete:
        caveats.append(
            f"factoring of the term at index {index} is incomplete; p0 = {p0} is valid "
            "but may not be the least primitive divisor"
        )
    exact = None
    if eigen_table is not None:
        exact = _exact_bound(tuple(fields), p0, eigen_table)
    if exact is None:
        caveats.append(
            "exponent bound is the Ramanujan-Petersson envelope; exact maxima need "
            "eigenvalue tables for every candidate level (rational eigenvalues only)"
        )

    report = LedgerReport(
        b=b,
        generator=f"{generator.x},{generator.y}",
        q=q,
        B1=B1,
        T=tuple(sorted(T)),
        k=k,
        p0=p0,
        c_config=c_config,
        threshold=thr,
        candidate_fields=tuple(fields),
        exact_bound=exact,
        caveats=tuple(caveats),
    )
    if report.threshold != threshold(report.k, report.b, report.c_config, report.p0):
        raise ArithmeticError("threshold failed re-verification")
    return report
