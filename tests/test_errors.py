"""The one rule for integer inputs: an int that is not a bool.

Every checked integer input of the package refuses a bool (an int to
isinstance, but JSON would write it as true), a float, integral or not,
and a value below its least, each with a ValueError and the site's message.
A value that is not an integer is not prime, so each check for a prime
refuses it too.
"""
import re
from dataclasses import replace

import pytest

from edspower import (
    Budget,
    Curve,
    FreySolution,
    Point,
    QuadElement,
    bad_set,
    build_report,
    check_strong_divisibility,
    check_valuation_growth,
    construct,
    decompose,
    extend,
    factorize,
    find_k_p0,
    generate,
    is_probable_prime,
    mul,
    primes_above,
    primitive_divisors,
    term,
    threshold,
    valuation,
)

C = Curve(5)
P = Point(20, 90)
TWO_P = mul(C, 2, P)
SEQ = generate(C, P, 4)
SEQ_2P = generate(C, TWO_P, 1)  # B_1 = 36, so q = 2 leads the ledger's walk to (k, p0) = (3, 7)
T2 = term(C, P, 2)  # B_2 = 36 = 6^2
SOLUTION = FreySolution(a=1, d=5, u=79, v=6881, w=36, ell=1)
BAD = (True, 5.0, 2.5, 0)
# search_cap values that are no integers; 5.0 and 8.5 are past q = 2, so without the rule
# the walk would reach index 2 and return (3, 7, ())
BAD_CAP = (True, 5.0, 2.5, 8.5)


def _positive(name):
    return f"{name} must be a positive integer"


def _threshold(**kwargs):
    return threshold(**{"k": 3, "b": 5, "c_config": 100, "p0": 7, **kwargs})


# (site, call on the value, expected message, values to refuse)
SITES = [
    ("Curve.b", Curve, _positive("b"), BAD),
    ("mul.n", lambda n: mul(C, n, P), _positive("n"), BAD),
    ("term.m", lambda m: term(C, P, m), "index m must be positive", BAD),
    ("generate.M", lambda M: generate(C, P, M), "M must be positive", BAD),
    ("extend.M", lambda M: extend(SEQ, M), "M must be positive", (*BAD, 7.0)),
    ("check_strong_divisibility.m", lambda m: check_strong_divisibility(SEQ, m, 2),
     "index m must be positive", BAD),
    ("primitive_divisors.m", lambda m: primitive_divisors(SEQ, m), "index m must be positive", (*BAD, 4.0)),
    # v_3(B_2) = 2, so n = 2.0 would pass the growth law's own check
    ("check_valuation_growth.n", lambda n: check_valuation_growth(SEQ, 3, n, 2),
     "index m must be positive", (*BAD, 2.0)),
    ("check_valuation_growth.k", lambda k: check_valuation_growth(SEQ, 2, 2, k),
     "multiplier k must be positive", BAD),
    ("decompose.ell", lambda ell: decompose(C, T2, ell, 6), _positive("ell"), BAD),
    ("decompose.w", lambda w: decompose(C, T2, 2, w), _positive("w"), BAD),
    *((f"construct.{f}", lambda v, f=f: construct(replace(SOLUTION, **{f: v})), _positive(f), BAD)
      for f in ("a", "d", "ell")),
    *((f"construct.{f}", lambda v, f=f: construct(replace(SOLUTION, **{f: v})),
       "u, v, w must all be nonzero", BAD) for f in ("u", "v", "w")),
    ("QuadElement.a", lambda a: QuadElement(a, 3), _positive("field label a"), BAD),
    # a coordinate may be 0 or negative
    ("QuadElement.x", lambda x: QuadElement(5, x, 1), "coordinates must be integers", BAD[:-1]),
    ("QuadElement.y", lambda y: QuadElement(5, 1, y), "coordinates must be integers", BAD[:-1]),
    ("primes_above.a", lambda a: primes_above(a, 5), _positive("a"), BAD),
    # 2*a*d would make a bool an int, and 0 would reach factorize unnamed
    ("bad_set.a", lambda a: bad_set(a, 5), _positive("a"), (*BAD, -5)),
    ("bad_set.d", lambda d: bad_set(1, d), _positive("d"), (*BAD, -5)),
    *((f"threshold.{f}", lambda v, f=f: _threshold(**{f: v}), _positive(f), BAD)
      for f in ("k", "b", "c_config", "p0")),
    ("build_report.c_config", lambda c: build_report(C, TWO_P, 2, c), _positive("c_config"), BAD),
    # a float or bool q or p is not prime, and every check for a prime says so
    ("find_k_p0.q", lambda q: find_k_p0(SEQ_2P, q, {2, 5}), "q = {} is not prime", (*BAD, 2.0)),
    ("build_report.q", lambda q: build_report(C, TWO_P, q, 100), "q = {} is not prime", (*BAD, 2.0, 3.0)),
    ("primes_above.p", lambda p: primes_above(5, p), "{} is not prime", (*BAD, 11.0)),
    ("valuation.p", lambda p: valuation(8, p), "{} is not prime", (*BAD, 2.0)),
    # a search_cap of 0 is an int below q, with its own message
    ("find_k_p0.search_cap", lambda cap: find_k_p0(SEQ_2P, 2, {2, 5}, search_cap=cap),
     "search_cap must be an integer, got {!r}", BAD_CAP),
    ("build_report.search_cap", lambda cap: build_report(C, TWO_P, 2, 100, search_cap=cap),
     "search_cap must be an integer, got {!r}", BAD_CAP),
    # 0 has no factorization; any other int does, its sign dropped
    ("factorize.n", factorize, "cannot factor {!r}", BAD),
    ("Budget.trial_bound", lambda t: Budget(trial_bound=t), "trial_bound must be an integer >= 2, got {!r}",
     BAD),
    # no rho at all is a budget
    ("Budget.rho_iterations", lambda r: Budget(rho_iterations=r),
     "rho_iterations must be an integer >= 0, got {!r}", (*BAD[:-1], -1)),
]


@pytest.mark.parametrize(
    "call, message, value",
    [(call, message, value) for _, call, message, values in SITES for value in values],
    ids=[f"{site}={value!r}" for site, _, _, values in SITES for value in values],
)
def test_integer_inputs_refuse_bools_floats_and_values_below_the_least(call, message, value):
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(value))}$"):
        call(value)


def test_integer_inputs_accept_their_least_values():
    assert Curve(1).b == 1
    assert mul(C, 1, P) == P
    assert term(C, P, 1).B == 1
    assert QuadElement(5, 0, -1).y == -1
    assert Budget(trial_bound=2, rho_iterations=0).rho_iterations == 0
    assert threshold(1, 1, 1, 1) == 5
    assert construct(SOLUTION).solution == SOLUTION
    assert bad_set(1, 1) == {2}
    assert extend(SEQ, 1) is SEQ
    assert find_k_p0(SEQ_2P, 2, {2, 5}, search_cap=2) == (3, 7, ())
    assert build_report(C, TWO_P, 2, 100, search_cap=2).p0 == 7


def test_only_an_integer_is_prime():
    assert is_probable_prime(2) and is_probable_prime(3)
    for value in (2.0, 3.0, True):
        assert is_probable_prime(value) is False
