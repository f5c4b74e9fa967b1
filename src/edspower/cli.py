"""Command-line surface.

Subcommands: gen (sequence terms), scan (perfect-power report), descend
(term decomposition), frey (curve invariants and reduction), ledger
(exponent-bound report).  Each handler returns its result; main renders
it once.  Output is a single JSON document per invocation with every
integer rendered as a decimal string, so consumers are never exposed to
64-bit truncation.  --table prints the same document as text: one
`dotted.name: value` line per leaf, and a list of flat records (the gen
terms, the scan hits) as an aligned table under its field names.

Exit codes: 0 success, 2 usage or malformed input, 3 hypothesis violation
(torsion or integral generator, term not a power), 4 factoring budget
exhausted, 5 an internal arithmetic check failed.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from enum import Enum
from fractions import Fraction

from . import arith, descent, eds, frey, ledger, quadfield
from .arith import Budget
from .curve import Curve, Point, make_curve_xb
from .errors import BudgetExhausted, HypothesisError
from .frey import FreySolution
from .quadfield import QuadElement


# a coordinate: an optional sign, digits and an optional /digits, as str(Fraction)
# writes it; Fraction itself would also take 1e10000000 and build the power
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _parse_point(text: str) -> Point:
    """The point of str(Point)'s text "x,y"."""
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected X,Y rational coordinates, got {text!r}")
    if not all(map(_RATIONAL.fullmatch, parts)):
        raise ValueError(f"cannot parse point {text!r}: coordinates are num or num/den")
    try:
        return Point(*parts)
    except ZeroDivisionError as exc:
        raise ValueError(f"cannot parse point {text!r}: {exc}") from exc


def _stringify(obj):
    """The JSON form of a result, built in one walk.

    Integers and rationals become decimal strings, an Enum its value, a set
    a sorted list, a QuadElement {"x", "y", "display"}, and any other
    dataclass an object read from vars(): every result is a dataclass whose
    __dict__ holds exactly its fields, in field order.
    """
    if obj is None or isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, Fraction)):
        return str(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, str):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [_stringify(v) for v in sorted(obj)]
    if isinstance(obj, QuadElement):
        return {"x": str(obj.x), "y": str(obj.y), "display": str(obj)}
    return _stringify(vars(obj))


def _leaf(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _table_lines(node, name: str = ""):
    """The --table text of a _stringify result, in document order."""
    if isinstance(node, list) and node and all(
        isinstance(r, dict) and r.keys() == node[0].keys()
        and not any(isinstance(v, (dict, list)) for v in r.values())
        for r in node
    ):
        rows = [list(node[0])] + [[_leaf(v) for v in r.values()] for r in node]
        widths = [max(map(len, column)) for column in zip(*rows)]
        for row in rows:
            yield "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        return
    if isinstance(node, (dict, list)) and node:
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _table_lines(value, f"{name}.{key}" if name else str(key))
        return
    yield f"{name}: {_leaf(node)}"


def _curve_and_point(args: argparse.Namespace) -> tuple[Curve, Point]:
    return make_curve_xb(args.b), _parse_point(args.point)


def _cmd_gen(args: argparse.Namespace) -> dict:
    c, P = _curve_and_point(args)
    if args.max_m < 1:
        raise ValueError("--max-m must be positive")
    s = eds.generate(c, P, args.max_m)
    return {"b": args.b, "generator": str(P), "terms": s.terms}


def _cmd_scan(args: argparse.Namespace) -> dict:
    c, P = _curve_and_point(args)
    if args.max_m < 1:
        raise ValueError("--max-m must be positive")
    s = eds.generate(c, P, args.max_m)
    return {
        "b": args.b,
        "generator": str(P),
        "max_m": args.max_m,
        "hits": [{"m": m, "ell": ell, "w": w} for m, ell, w in eds.scan_powers(s)],
    }


def _descend_exponent(B: int, ell_arg: int | None) -> tuple[int, int]:
    """Resolve (ell, w) with w^ell = B for the requested or maximal exponent."""
    if ell_arg is not None:
        if ell_arg < 1:
            raise ValueError("--ell must be positive")
        if ell_arg == 1:
            return 1, B
        w = arith.exact_root(B, ell_arg)
        if w is None:
            raise HypothesisError(f"B = {B} is not a perfect power with exponent {ell_arg}")
        return ell_arg, w
    if B > 1:
        pp = arith.perfect_power(B)
        if pp is not None:
            return pp[1], pp[0]
    return 1, B


def _cmd_descend(args: argparse.Namespace) -> dict:
    budget = Budget(args.trial_bound, args.rho_iterations)
    c, P = _curve_and_point(args)
    if args.m < 1:
        raise ValueError("--m must be positive")
    t = eds.term(c, P, args.m)
    ell, w = _descend_exponent(t.B, args.ell)
    d = descent.decompose(c, t, ell, w, budget)
    return {
        "b": args.b,
        "generator": str(P),
        "term": t,
        "datum": d,
        "frey_solution": descent.to_frey(d),
    }


def _cmd_frey(args: argparse.Namespace) -> dict:
    budget = Budget(args.trial_bound, args.rho_iterations)
    sol = FreySolution(a=args.a, d=args.d, u=args.u, v=args.v, w=args.w, ell=args.ell)
    F = frey.construct(sol, budget)
    # the curve's fields in order, with the field's name placed after the
    # solution (a repeated key keeps its first position)
    payload = {"solution": sol, "field": f"Q(sqrt({F.field_label}))", **vars(F)}
    if args.prime is not None:
        p = args.prime
        if p < 2 or not arith.is_probable_prime(p):
            raise ValueError(f"--prime {p} is not prime")
        ideals = []
        # construct has checked the label, so it is not factored again
        for qp in quadfield._primes_above(F.field_label, p):
            red = frey.classify_reduction(F, qp)
            val, ok = frey.exponent_divisibility(F, qp)
            ideals.append({
                "kind": qp.kind,
                "root": qp.root,
                "residue_norm": qp.residue_norm,
                "reduction": red,
                "delta_valuation": val,
                "ell_divides": ok,
            })
        payload["prime_analysis"] = {"p": p, "ideals": ideals}
    return payload


def _cmd_ledger(args: argparse.Namespace) -> ledger.LedgerReport:
    budget = Budget(args.trial_bound, args.rho_iterations)
    c, P = _curve_and_point(args)
    table = None
    if args.eigen_table is not None:
        try:
            with open(args.eigen_table, encoding="utf-8") as fh:
                table = ledger.load_eigenvalue_table(fh)
        except OSError as exc:
            raise ValueError(f"cannot read eigenvalue table: {exc}") from exc
    return ledger.build_report(
        c, P, args.q, args.c_config,
        budget=budget, search_cap=args.search_cap, eigen_table=table,
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="edspower",
        description="Denominator sequences of rational points on y^2 = x(x^2 + b): "
        "generation, perfect-power scanning, descent data, Frey-curve invariants, "
        "and exponent-bound reports.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--table", action="store_true",
                        help="the same document as plain text instead of JSON")
    effort = argparse.ArgumentParser(add_help=False)
    effort.add_argument("--trial-bound", type=int, default=Budget().trial_bound,
                        metavar="N", help="trial-division bound (default %(default)s)")
    effort.add_argument("--rho-iterations", type=int, default=Budget().rho_iterations,
                        metavar="N", help="iteration budget for the rho stage (default %(default)s)")
    curve = argparse.ArgumentParser(add_help=False)
    curve.add_argument("--b", type=int, required=True, help="curve parameter, y^2 = x(x^2 + b)")
    curve.add_argument("--point", required=True, metavar="X,Y", help="generator, rational coordinates as num/den")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common, curve], help="generate sequence terms (m, A, B, C)")
    p.add_argument("--max-m", type=int, required=True, help="last index to generate")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("scan", parents=[common, curve], help="report perfect powers among B_1..B_M")
    p.add_argument("--max-m", type=int, required=True, help="last index to scan")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("descend", parents=[common, effort, curve],
                       help="decompose a term: A = a*u^2, v^2 - a*u^4 = (b/a)*w^(4*ell)")
    p.add_argument("--m", type=int, required=True, help="term index to decompose")
    p.add_argument("--ell", type=int, default=None,
                   help="treat B_m as an ell-th power (default: maximal exponent)")
    p.set_defaults(handler=_cmd_descend)

    p = sub.add_parser("frey", parents=[common, effort],
                       help="curve for a quartic solution: invariants and reduction")
    p.add_argument("--a", type=int, required=True, help="squarefree field label, K = Q(sqrt(a))")
    p.add_argument("--d", type=int, required=True, help="quartic coefficient, v^2 - a*u^4 = d*w^(4*ell)")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--prime", type=int, default=None, metavar="P",
                   help="also classify reduction at the primes over P")
    p.set_defaults(handler=_cmd_frey)

    p = sub.add_parser("ledger", parents=[common, effort, curve],
                       help="assemble the exponent-bound report for a non-integral generator")
    p.add_argument("--q", type=int, required=True, help="prime divisor of B_1")
    p.add_argument("--c-config", type=int, required=True,
                   help="stand-in for the effective irreducibility constant")
    p.add_argument("--eigen-table", metavar="PATH", default=None,
                   help="optional eigenvalue table (level_tag TAB form_index TAB p TAB a_p)")
    p.add_argument("--search-cap", type=int, default=ledger.DEFAULT_SEARCH_CAP,
                   help="largest index tried when hunting the (k, p0) pair (default %(default)s)")
    p.set_defaults(handler=_cmd_ledger)

    return parser


# Exit code per failure class, tried in this order: HypothesisError is a
# ValueError, so it must come first.
_EXIT_CODES = {HypothesisError: 3, BudgetExhausted: 4, ValueError: 2, ArithmeticError: 5}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Terms outgrow the int/str digit limit (Python 3.10.7 and later) near
    # m = 55; lift it for this call only, so in-process callers keep theirs.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            result = args.handler(args)
        except tuple(_EXIT_CODES) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
        document = _stringify(result)
        if args.table:
            print("\n".join(_table_lines(document)))
        else:
            print(json.dumps({"tool": "edspower", "command": args.command,
                              "integer_encoding": "decimal string", **document}, indent=2))
        return 0
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
