"""Checks of edspower's outputs by computations that do not use its code.

Each check raises CheckFailed with a reason.  Sequence terms are checked
against the curve equation and the doubling formula, divisibility laws are
recomputed with math.gcd and plain division, non-powers carry a residue
certificate, ledger data are recomputed from their definitions with
modular arithmetic, and Frey invariants are recomputed from the generic
Weierstrass formulas in Z[sqrt(a)].
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, isqrt

from inputs import SMALL_PRIME_BOUND, SMALL_PRIMES, is_prime, prime_set, squarefree_divisors


class CheckFailed(Exception):
    pass


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def valuation(n: int, p: int) -> int:
    n, e = abs(n), 0
    while n % p == 0:
        n //= p
        e += 1
    return e


# --- sequence --------------------------------------------------------------

def check_terms(b: int, x1: Fraction, y1: Fraction, terms: list[tuple[int, int, int, int]]) -> None:
    """(m, A, B, C) for m = 1..M: curve equation, lowest terms, the first
    term equal to the generator, term 2m equal to the double of term m, and
    x(m+1) + x(m-1) = 2(x_m + x_1)(x_m x_1 + b) / (x_m - x_1)^2, which fixes
    every x from x_1 and x_2."""
    require([t[0] for t in terms] == list(range(1, len(terms) + 1)), "indices are not 1..M")
    for m, A, B, C in terms:
        require(B > 0, f"B_{m} is not positive")
        require(C * C == A * (A * A + b * B**4), f"term {m} fails C^2 = A(A^2 + b*B^4)")
        require(gcd(A, B) == 1 and gcd(C, B) == 1, f"term {m} is not in lowest terms")
    _, A, B, C = terms[0]
    require(Fraction(A, B * B) == x1 and Fraction(C, B**3) == y1, "term 1 is not the generator")
    for m in range(1, len(terms) // 2 + 1):
        _, A, B, C = terms[m - 1]
        _, A2, B2, _ = terms[2 * m - 1]
        # x(2P) = (x^2 - b)^2 / (4y^2) = (A^2 - b*B^4)^2 / (4*C^2*B^2)
        require(A2 * 4 * C * C * B * B == (A * A - b * B**4) ** 2 * B2 * B2,
                f"x of term {2 * m} is not the double of term {m}")
    X1, Z1 = terms[0][1], terms[0][2] ** 2
    for m in range(2, len(terms)):
        X, Z = terms[m - 1][1], terms[m - 1][2] ** 2
        Xl, Zl = terms[m - 2][1], terms[m - 2][2] ** 2
        Xn, Zn = terms[m][1], terms[m][2] ** 2
        require((Xn * Zl + Xl * Zn) * (X * Z1 - X1 * Z) ** 2
                == 2 * (X * Z1 + X1 * Z) * (X * X1 + b * Z * Z1) * Zn * Zl,
                f"x of terms {m - 1}, {m}, {m + 1} break the addition law with the generator")


def check_strong_divisibility(Bs: list[int], m: int, n: int, reported: bool) -> None:
    require(reported is True, f"strong divisibility reported false at ({m}, {n})")
    require(gcd(Bs[m - 1], Bs[n - 1]) == Bs[gcd(m, n) - 1], f"gcd(B_{m}, B_{n}) != B_gcd")


def check_valuation_growth(Bs: list[int], p: int, n: int, k: int, reported: bool) -> None:
    require(reported is True, f"valuation growth reported false at p={p}, n={n}, k={k}")
    v_n = valuation(Bs[n - 1], p)
    require(v_n > 0, f"{p} does not divide B_{n}")
    require(valuation(Bs[n * k - 1], p) == v_n + valuation(k, p), f"v_{p}(B_{n * k}) breaks the growth law")


# --- powers ----------------------------------------------------------------

def non_power_certificate(B: int, tries: int = 400) -> dict[int, int]:
    """For each prime ell <= bits(B), a prime r = 1 mod ell with B mod r != 0
    and B^((r-1)/ell) != 1 mod r: then B is no ell-th power, for any ell."""
    bits = B.bit_length()
    require(bits <= SMALL_PRIME_BOUND, "term too large for a certificate")
    cert = {}
    for ell in SMALL_PRIMES[: bisect_right(SMALL_PRIMES, bits)]:
        step = ell if ell == 2 else 2 * ell
        r = 1 + step
        for _ in range(tries):
            if is_prime(r):
                residue = B % r
                if residue and pow(residue, (r - 1) // ell, r) != 1:
                    cert[ell] = r
                    break
            r += step
        else:
            raise CheckFailed(f"no residue certificate for exponent {ell}: the term may be a power")
    return cert


class PowerChecker:
    """Checks scan output; certificates are kept per term value for the run."""

    def __init__(self) -> None:
        self._certs: dict[int, dict[int, int]] = {}

    def certify(self, B: int) -> None:
        if B not in self._certs:
            self._certs[B] = non_power_certificate(B)

    def check_hit(self, B: int, ell: int, w: int) -> None:
        require(ell >= 2 and w >= 2 and w**ell == B, f"w^ell != B for ({w}, {ell})")
        self.certify(w)  # w is no perfect power, so ell is maximal

    def check_real(self, terms: list[tuple[int, int]], hits: list[tuple[int, int, int]]) -> None:
        """terms are (m, B_m); every hit is a maximal power, every other term > 1 is certified."""
        by_m = dict(terms)
        reported = [h[0] for h in hits]
        require(len(set(reported)) == len(reported) and set(reported) <= set(by_m), "hits outside the window")
        for m, ell, w in hits:
            self.check_hit(by_m[m], ell, w)
        for m, B in terms:
            if B > 1 and m not in reported:
                self.certify(B)

    def check_planted(self, terms: list[tuple[int, int]], planted: list[tuple[int, int, int]],
                      hits: list[tuple[int, int, int]]) -> None:
        """planted are the (m, ell, w) put in; every other term is a near-miss."""
        require(hits == planted, f"planted {planted} reported as {hits}")
        for m, B in terms:
            if m not in {p[0] for p in planted}:
                self.certify(B)


# --- ledger ----------------------------------------------------------------

def _point_mod(b: int, x: Fraction, y: Fraction, p: int):
    return (x.numerator * pow(x.denominator, -1, p) % p, y.numerator * pow(y.denominator, -1, p) % p)


def _add_mod(b: int, P, Q, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + b) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def apparition_rank(b: int, x: Fraction, y: Fraction, p: int, limit: int) -> int | None:
    """Least n <= limit with p | B_n, i.e. nP = O modulo p (p prime, p not dividing 2b*B_1)."""
    P = _point_mod(b, x, y, p)
    Q = P
    for n in range(2, limit + 1):
        Q = _add_mod(b, Q, P, p)
        if Q is None:
            return n
    return None


def level_support_count(a: int, d: int) -> int:
    """Product of (cap + 1) over the prime ideals of Q(sqrt(a)) above the primes of 2ad."""
    count = 1
    for p in prime_set(2 * a * d):
        if a == 1:
            ideals, e = 1, 1
        elif p == 2:
            if a % 4 in (2, 3):
                ideals, e = 1, 2
            else:
                ideals, e = (2 if a % 8 == 1 else 1), 1
        elif a % p == 0:
            ideals, e = 1, 2
        else:
            ideals, e = (2 if pow(a, (p - 1) // 2, p) == 1 else 1), 1
        cap = 2 + 6 * e if p == 2 else 2 + 3 * e if p == 3 else 2
        count *= (cap + 1) ** ideals
    return count


def check_report(doc: dict, b: int, x: Fraction, y: Fraction, q: int, c_config: int) -> None:
    """A `ledger` JSON document against the definitions of its fields."""
    B1 = isqrt(x.denominator)
    T = sorted(prime_set(2 * b))
    require(int(doc["b"]) == b and int(doc["q"]) == q and int(doc["c_config"]) == c_config, "inputs not echoed")
    require(int(doc["B1"]) == B1, "B1 is not the generator's denominator")
    require([int(t) for t in doc["T"]] == T, f"T is not the primes of 2b = {2 * b}")
    k, p0 = int(doc["k"]), int(doc["p0"])
    require(is_prime(p0), f"p0 = {p0} is not prime")
    require(p0 not in T, f"p0 = {p0} lies in T")
    j = k - valuation(B1, q)
    require(j >= 1, "k does not exceed v_q(B_1)")
    index = q**j
    require(B1 % p0 != 0, f"p0 = {p0} divides B_1")
    require(apparition_rank(b, x, y, p0, index) == index,
            f"p0 = {p0} does not first divide the term at index {index}")
    require(int(doc["threshold"]) == max(k, 2 * b, c_config, p0, 5), "threshold is not max{k, 2b, C, p0, 5}")
    fields = doc["candidate_fields"]
    require([int(f["a"]) for f in fields] == squarefree_divisors(b), "fields are not the squarefree a | b")
    for f in fields:
        a = int(f["a"])
        split = a == 1 or pow(a, (p0 - 1) // 2, p0) == 1
        require(f["splitting_of_p0"] == ("split" if split else "inert"), f"splitting of p0 in Q(sqrt({a}))")
        N = p0 if split else p0 * p0
        env = f["envelope"]
        require(int(env["residue_norm"]) == N, f"residue norm in Q(sqrt({a}))")
        # ceil((sqrt(N) + 1)^2) = N + 1 + ceil(2*sqrt(N)), and ceil(2*sqrt(N)) = isqrt(4N - 1) + 1
        require(int(env["ceiling"]) == N + 2 + isqrt(4 * N - 1), f"envelope ceiling in Q(sqrt({a}))")
        root = isqrt(N)
        exact = (root + 1) ** 2 if root * root == N else None
        require((env["exact_value"] is None and exact is None) or int(env["exact_value"] or 0) == exact,
                f"envelope exact value in Q(sqrt({a}))")
        require(int(f["level_support"]["count"]) == level_support_count(a, b // a),
                f"level-support count in Q(sqrt({a}))")


def check_descend(doc: dict, b: int, m: int, x: Fraction, y: Fraction) -> tuple[int, int, int, int]:
    """A `descend --ell 1` document for term m, whose coordinates are (x, y)."""
    t, dat, sol = doc["term"], doc["datum"], doc["frey_solution"]
    A, B, C = int(t["A"]), int(t["B"]), int(t["C"])
    require(int(t["m"]) == m and Fraction(A, B * B) == x and Fraction(C, B**3) == y and B > 0,
            f"term {m} is not m times the generator")
    a, u, v, w, ell = (int(dat[k]) for k in ("a", "u", "v", "w", "ell"))
    require(ell == 1 and w == B and int(dat["b"]) == b, "datum does not echo ell = 1, w = B")
    require(b % a == 0 and all(a % (p * p) for p in prime_set(a)), f"a = {a} is not a squarefree divisor of b")
    require(u > 0 and v > 0 and A == a * u * u, "A != a*u^2")
    require(v * v - a * u**4 == (b // a) * w ** (4 * ell), "v^2 - a*u^4 != (b/a)*w^(4*ell)")
    require([int(sol[k]) for k in ("a", "d", "u", "v", "w", "ell")] == [a, b // a, u, v, w, ell],
            "frey_solution does not match the datum")
    return a, u, v, w


def _qmul(a: int, s, t):
    return (s[0] * t[0] + a * s[1] * t[1], s[0] * t[1] + s[1] * t[0])


def _qadd(*terms):
    return (sum(t[0] for t in terms), sum(t[1] for t in terms))


def _qscale(c: int, s):
    return (c * s[0], c * s[1])


def generic_invariants(a: int, a1, a2, a3, a4, a6):
    """(discriminant, c4) of a long Weierstrass model over Z[sqrt(a)], elements as (x, y)."""
    m = lambda s, t: _qmul(a, s, t)  # noqa: E731
    b2 = _qadd(m(a1, a1), _qscale(4, a2))
    b4 = _qadd(_qscale(2, a4), m(a1, a3))
    b6 = _qadd(m(a3, a3), _qscale(4, a6))
    b8 = _qadd(m(m(a1, a1), a6), _qscale(4, m(a2, a6)), _qscale(-1, m(m(a1, a3), a4)),
               m(a2, m(a3, a3)), _qscale(-1, m(a4, a4)))
    disc = _qadd(_qscale(-1, m(m(b2, b2), b8)), _qscale(-8, m(b4, m(b4, b4))),
                 _qscale(-27, m(b6, b6)), _qscale(9, m(b2, m(b4, b6))))
    c4 = _qadd(m(b2, b2), _qscale(-24, b4))
    return disc, c4


def _fold(a: int, z):
    """The program stores elements of Q(sqrt(1)) = Q with y folded into x."""
    return (z[0] + z[1], 0) if a == 1 else z


def _root_lift(a: int, p: int, r: int, precision: int) -> int:
    mod = p
    while mod < p**precision:
        mod = min(mod * mod, p**precision)
        r = (r - (r * r - a) * pow(2 * r, -1, mod)) % mod
    return r


def ideal_valuation(a: int, z, p: int, kind: str, root: int | None) -> int:
    """v_P(x + y*sqrt(a)) at the prime P over p (p odd, p not dividing a)."""
    x, y = z
    if a == 1:
        return valuation(x, p)
    v_norm = valuation(x * x - a * y * y, p)
    if kind == "inert":
        return v_norm // 2
    precision = v_norm + 1
    r = _root_lift(a, p, root, precision)
    value = (x + y * r) % p**precision
    require(value != 0, "split valuation does not resolve")
    return valuation(value, p)


def check_frey(doc: dict, a: int, d: int, u: int, v: int, w: int, p: int) -> None:
    """A `frey --ell 1 --prime p` document against the generic invariants and valuations."""
    sol = doc["solution"]
    require([int(sol[k]) for k in ("a", "d", "u", "v", "w", "ell")] == [a, d, u, v, w, 1], "solution not echoed")
    zero = (0, 0)
    a2 = (0, 4 * u)  # 4u*sqrt(a)
    a4 = (2 * a * u * u, 2 * v)  # 2*sqrt(a)*(v + u^2*sqrt(a))
    disc, c4 = generic_invariants(a, zero, a2, zero, a4, zero)
    disc, c4 = _fold(a, disc), _fold(a, c4)
    got_disc = (Fraction(doc["delta"]["x"]), Fraction(doc["delta"]["y"]))
    got_c4 = (Fraction(doc["c4"]["x"]), Fraction(doc["c4"]["y"]))
    require(got_disc == disc, "delta differs from the generic discriminant")
    require(got_c4 == c4, "c4 differs from the generic c4")
    require([int(q) for q in doc["bad_primes"]] == sorted(prime_set(2 * a * d)), "bad set is not the primes of 2ad")
    analysis = doc["prime_analysis"]
    require(int(analysis["p"]) == p, "prime not echoed")
    if a == 1:
        kinds = ["split"]
    elif pow(a, (p - 1) // 2, p) == 1:
        kinds = ["split", "split"]
    else:
        kinds = ["inert"]
    ideals = analysis["ideals"]
    require([i["kind"] for i in ideals] == kinds, f"splitting of {p} in Q(sqrt({a}))")
    roots = set()
    for ideal in ideals:
        root = None
        if ideal["kind"] == "split" and a != 1:
            root = int(ideal["root"]) % p
            require((root * root - a) % p == 0, f"root {root} is not sqrt({a}) mod {p}")
            roots.add(root)
        val = ideal_valuation(a, disc, p, ideal["kind"], root)
        require(int(ideal["delta_valuation"]) == val, f"v_P(delta) at a prime over {p}")
        require((ideal["reduction"] == "good") == (val == 0), f"reduction type at a prime over {p}")
        require(ideal["ell_divides"] is True, "ell = 1 must divide every valuation")
    require(len(roots) == sum(k == "split" for k in kinds if a != 1), "split primes share a root")
