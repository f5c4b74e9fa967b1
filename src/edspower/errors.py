"""Exceptions shared across the package, and its one rule for integer inputs.

An integer input is an int that is not a bool: a bool is an int to
isinstance, but JSON would write it as true.  A float, Fraction or
string is refused, never truncated.  The checks on the package's inputs
use _require_positive for those that must be >= 1, indices and bounds
included: the sequence index (term's m, and the m that eds._get_B reads
for the divisibility laws and primitive divisors), extend's M, the CLI's
--max-m, --m and --ell, and frey.bad_set's a and d.  The rest use
_is_integer with their own least: factorize's nonzero n, the ledger's
search_cap (at least q) and the Budget fields.  is_probable_prime is
False for anything that is not an integer, so every "is not prime"
check, on the ledger's q and on p in valuation and primes_above, refuses
a float or a bool with its ValueError.  The arith kernels (exact_root,
perfect_power, valuation's n), which receive only ints from the package,
check values alone.
"""


class HypothesisError(ValueError):
    """A mathematical hypothesis required by an operation does not hold.

    Raised for inputs that are well-formed but outside the theory this
    package implements: torsion generators, integral generators where a
    non-integral one is required, terms that are not the stated power.
    """


class BudgetExhausted(RuntimeError):
    """An effort budget ran out before the computation could finish."""


def _is_integer(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_positive(value, name: str, message: str | None = None) -> None:
    """Raise ValueError unless value is an integer >= 1.

    The message defaults to "<name> must be a positive integer".
    """
    if not _is_integer(value) or value < 1:
        raise ValueError(message or f"{name} must be a positive integer")
