"""Command-line surface.

Subcommands: gen (sequence terms), scan (perfect-power report), descend
(term decomposition), frey (curve invariants and reduction), ledger
(exponent-bound report).  Each handler returns its result; main writes
its JSON text in one walk of it.  Output is a single JSON document per
invocation with every integer rendered as a decimal string, so consumers
are never exposed to 64-bit truncation.  --table parses that text and
prints the same document as text: one `dotted.name: value` line per leaf,
and a list of flat records (the gen terms, the scan hits) as an aligned
table under its field names.

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
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import arith, descent, eds, frey, ledger, quadfield
from .arith import Budget
from .curve import Curve, Point
from .errors import BudgetExhausted, HypothesisError, _require_positive
from .frey import FreySolution
from .quadfield import QuadElement


# a coordinate: an optional sign, digits and an optional /digits, as str(Fraction)
# writes it; Fraction itself would also take 1e10000000 and build the power
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_point(text: str) -> Point:
    """The point of str(Point)'s text "x,y", each coordinate built from the integers its match holds."""
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected X,Y rational coordinates, got {text!r}")
    matches = [_RATIONAL.fullmatch(part) for part in parts]
    if not all(matches):
        raise ValueError(f"cannot parse point {text!r}: coordinates are num or num/den")
    try:
        return Point(*(Fraction(int(num), int(den or 1)) for num, den in (m.groups() for m in matches)))
    except ZeroDivisionError as exc:
        raise ValueError(f"cannot parse point {text!r}: {exc}") from exc


def _json(obj) -> str:
    """The JSON text of a result, in one walk, as json.dumps(indent=2) writes it.

    Integers and rationals become decimal strings, an Enum its value (every
    Enum here is a str Enum), a set a sorted list, a QuadElement {"x", "y",
    "display"}, and any other dataclass an object read from vars(): every
    result is a dataclass whose __dict__ holds exactly its fields, in field
    order.  Dict keys are str.  Every piece goes on one list, joined once.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, pad: str, out: list[str]) -> None:
    """Append the JSON text of obj to out; pad is a newline and the indent of obj's line.

    A container writes its int and str members itself, each with the text
    before it in one piece, and hands every other member back to _write.
    """
    if isinstance(obj, str):  # a str Enum too, whose text is its value
        out.append(encode_basestring_ascii(obj))
        return
    if obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
        return
    if isinstance(obj, (int, Fraction)):
        out.append('"%s"' % obj)
        return
    if isinstance(obj, (set, frozenset)):
        obj = sorted(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        sep = "[" + inner
        for v in obj:
            if type(v) is int:
                out.append(f'{sep}"{v}"')
            elif type(v) is str:
                out.append(sep + encode_basestring_ascii(v))
            else:
                out.append(sep)
                _write(v, inner, out)
            sep = "," + inner
        out.append(pad + "]")
        return
    if isinstance(obj, QuadElement):
        obj = {"x": obj.x, "y": obj.y, "display": str(obj)}
    elif not isinstance(obj, dict):
        obj = vars(obj)
    if not obj:
        out.append("{}")
        return
    sep = "{" + inner
    for k, v in obj.items():
        if type(v) is int:
            out.append(f'{sep}{encode_basestring_ascii(k)}: "{v}"')
        elif type(v) is str:
            out.append(f"{sep}{encode_basestring_ascii(k)}: {encode_basestring_ascii(v)}")
        else:
            out.append(f"{sep}{encode_basestring_ascii(k)}: ")
            _write(v, inner, out)
        sep = "," + inner
    out.append(pad + "}")


def _leaf(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _table_lines(node, name: str = ""):
    """The --table text of a parsed JSON document, in document order."""
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


def _cmd_gen(args: argparse.Namespace) -> dict:
    c, P = Curve(args.b), _parse_point(args.point)
    _require_positive(args.max_m, "--max-m", "--max-m must be positive")
    s = eds.generate(c, P, args.max_m)
    return {"b": args.b, "generator": str(P), "terms": s.terms}


def _cmd_scan(args: argparse.Namespace) -> dict:
    c, P = Curve(args.b), _parse_point(args.point)
    _require_positive(args.max_m, "--max-m", "--max-m must be positive")
    s = eds.generate(c, P, args.max_m)
    return {
        "b": args.b,
        "generator": str(P),
        "max_m": args.max_m,
        "hits": [{"m": m, "ell": ell, "w": w} for m, ell, w in eds.scan_powers(s)],
    }


def _cmd_descend(args: argparse.Namespace) -> dict:
    budget = Budget(args.trial_bound, args.rho_iterations)
    c, P = Curve(args.b), _parse_point(args.point)
    _require_positive(args.m, "--m", "--m must be positive")
    t = eds.term(c, P, args.m)
    # w^ell = B_m for the requested exponent, else the maximal one
    if args.ell is None:
        w, ell = arith.perfect_power(t.B) or (t.B, 1)
    else:
        _require_positive(args.ell, "--ell", "--ell must be positive")
        w, ell = arith.exact_root(t.B, args.ell), args.ell
        if w is None:
            raise HypothesisError(f"B = {t.B} is not a perfect power with exponent {ell}")
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
    payload = {"solution": sol, "field": f"Q(sqrt({F.solution.a}))", **vars(F)}
    if args.prime is not None:
        p = args.prime
        if not arith.is_probable_prime(p):
            raise ValueError(f"--prime {p} is not prime")
        ideals = []
        # construct has checked the label, so it is not factored again
        for qp in quadfield._primes_above(F.solution.a, p):
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


def _cmd_ledger(args: argparse.Namespace) -> dict:
    budget = Budget(args.trial_bound, args.rho_iterations)
    c, P = Curve(args.b), _parse_point(args.point)
    table = None
    if args.eigen_table is not None:
        try:
            with open(args.eigen_table, encoding="utf-8") as fh:
                table = ledger.load_eigenvalue_table(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read eigenvalue table: {exc}") from exc
    return vars(ledger.build_report(
        c, P, args.q, args.c_config,
        budget=budget, search_cap=args.search_cap, eigen_table=table,
    ))


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
                        metavar="N", help="trial-division bound; 2 to 4 act as 5 (default %(default)s)")
    effort.add_argument("--rho-iterations", type=int, default=Budget().rho_iterations,
                        metavar="N", help="rho steps per factoring call; ledger spends one cap on 2b "
                        "and a fresh one per index walked (default %(default)s)")
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


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), parsed by the named command's own subparser.

    The full parser would hand the command's arguments to the same
    subparser, which reports its own errors and --help, after a top-level
    pass that costs as much again.  Only argv that names no command, or
    leaves arguments the subparser does not know, goes through the full
    parser, so that its usage errors, their text and their exit codes stay.
    """
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    # Terms outgrow the int/str digit limit (Python 3.10.7 and later) near
    # m = 55, and the options that read them back (frey --u, --v, --w) parse
    # as int; lift it for this call only, so in-process callers keep theirs.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            args = _parse_args(sys.argv[1:] if argv is None else argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        try:
            result = args.handler(args)
        except tuple(_EXIT_CODES) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
        if args.table:
            print("\n".join(_table_lines(json.loads(_json(result)))))
        else:
            print(_json({"tool": "edspower", "command": args.command,
                         "integer_encoding": "decimal string", **result}))
        return 0
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
