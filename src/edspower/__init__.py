"""Perfect powers in denominator sequences of rational points.

For a non-torsion rational point P on y^2 = x(x^2 + b) the multiples mP
have coordinates (A_m/B_m^2, C_m/B_m^3) in lowest terms.  This package
computes the sequence {B_m}, scans it for perfect powers, decomposes terms
into the quartic v^2 - a*u^4 = (b/a)*w^(4*ell), attaches the associated
curve over Q(sqrt(a)) with its invariants and reduction types, and
assembles the effective bound on the exponent of any perfect-power term.
"""
from .arith import (
    Budget,
    DEFAULT_BUDGET,
    Factorization,
    exact_root,
    factorize,
    is_probable_prime,
    perfect_power,
    valuation,
)
from .curve import Curve, Point, is_torsion, make_curve_xb, mul, on_curve
from .descent import DescentDatum, decompose, to_frey
from .eds import (
    EDSTerm,
    PrimitiveDivisors,
    Sequence,
    check_strong_divisibility,
    check_valuation_growth,
    extend,
    generate,
    primitive_divisors,
    scan_powers,
    term,
)
from .errors import BudgetExhausted, HypothesisError
from .frey import FreyCurve, FreySolution, Reduction, bad_set, classify_reduction, construct, exponent_divisibility
from .ledger import (
    EigenRecord,
    EnvelopeBound,
    LedgerReport,
    LevelSupport,
    build_report,
    envelope_bound,
    find_k_p0,
    level_support,
    load_eigenvalue_table,
    threshold,
)
from .quadfield import QuadElement, QuadPrime, SplitType, prime_valuation, primes_above

__version__ = "0.1.0"

# every class, function and instance imported above carries the name of its
# defining module; submodules and this module's own dunder names carry none
__all__ = [n for n, v in globals().items() if getattr(v, "__module__", "").startswith("edspower.")]
__all__.append("__version__")
