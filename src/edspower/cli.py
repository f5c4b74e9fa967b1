"""Command-line surface.

Subcommands: gen (sequence terms), scan (perfect-power report), descend
(term decomposition), frey (curve invariants and reduction), ledger
(exponent-bound report).  Output is a single JSON document per invocation
with every integer rendered as a decimal string, so consumers are never
exposed to 64-bit truncation; --table switches to plain text.

Exit codes: 0 success, 2 usage or malformed input, 3 hypothesis violation
(torsion or integral generator, term not a power), 4 factoring budget
exhausted, 5 an internal arithmetic check failed (a result did not pass
its re-verification).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from enum import Enum
from fractions import Fraction

from . import arith, descent, eds, frey, ledger, quadfield
from .arith import Budget
from .curve import Curve, Point, make_curve_xb
from .errors import BudgetExhausted, HypothesisError
from .frey import FreySolution
from .quadfield import QuadElement


def _parse_point(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected X,Y rational coordinates, got {text!r}")
    try:
        return Point(Fraction(parts[0].strip()), Fraction(parts[1].strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse point {text!r}: {exc}") from exc


def _point_str(P: Point) -> str:
    return f"{P.x},{P.y}"


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _stringify(obj):
    """The JSON form of a result, built in one walk.

    Integers and rationals become decimal strings, an Enum its value, a set
    a sorted list, a QuadElement {"x", "y", "display"}, and any other
    dataclass an object keyed by its field names in field order.
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
    return {name: _stringify(getattr(obj, name)) for name in _field_names(type(obj))}


def _curve_and_point(args: argparse.Namespace) -> tuple[Curve, Point]:
    return make_curve_xb(args.b), _parse_point(args.point)


def _cmd_gen(args: argparse.Namespace) -> tuple[dict, list[str]]:
    c, P = _curve_and_point(args)
    if args.max_m < 1:
        raise ValueError("--max-m must be positive")
    s = eds.generate(c, P, args.max_m)
    payload = {
        "b": args.b,
        "generator": _point_str(P),
        "terms": s.terms,
    }
    rows = [("m", "A", "B", "C")]
    rows += [(str(t.m), str(t.A), str(t.B), str(t.C)) for t in s.terms]
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)) for row in rows]
    return payload, lines


def _cmd_scan(args: argparse.Namespace) -> tuple[dict, list[str]]:
    c, P = _curve_and_point(args)
    if args.max_m < 1:
        raise ValueError("--max-m must be positive")
    s = eds.generate(c, P, args.max_m)
    hits = eds.scan_powers(s)
    payload = {
        "b": args.b,
        "generator": _point_str(P),
        "max_m": args.max_m,
        "hits": [{"m": m, "ell": ell, "w": w} for m, ell, w in hits],
    }
    if hits:
        lines = [f"m={m}: B = {w}^{ell}" for m, ell, w in hits]
    else:
        lines = [f"no perfect powers among B_1..B_{args.max_m}"]
    return payload, lines


def _descend_exponent(B: int, ell_arg: int | None) -> tuple[int, int]:
    """Resolve (ell, w) with w^ell = B for the requested or maximal exponent."""
    if ell_arg is not None:
        if ell_arg < 1:
            raise ValueError("--ell must be positive")
        if ell_arg == 1:
            return 1, B
        w = arith.exact_root(B, ell_arg)
        if w is None:
            raise HypothesisError(f"B = {B} is not a perfect {ell_arg}th power")
        return ell_arg, w
    if B > 1:
        pp = arith.perfect_power(B)
        if pp is not None:
            return pp[1], pp[0]
    return 1, B


def _cmd_descend(args: argparse.Namespace) -> tuple[dict, list[str]]:
    budget = Budget(args.trial_bound, args.rho_iterations)
    c, P = _curve_and_point(args)
    if args.m < 1:
        raise ValueError("--m must be positive")
    t = eds.term(c, P, args.m)
    ell, w = _descend_exponent(t.B, args.ell)
    d = descent.decompose(c, t, ell, w, budget)
    payload = {
        "b": args.b,
        "generator": _point_str(P),
        "term": t,
        "datum": d,
        "frey_solution": descent.to_frey(d),
    }
    lines = [
        f"term m={t.m}: A={t.A} B={t.B} C={t.C}",
        f"A = a*u^2 with a={d.a}, u={d.u}",
        f"v = {d.v}  (C = sign * a*u*v)",
        f"B = {d.w}^{d.ell}",
        f"quartic: v^2 - a*u^4 = (b/a)*w^(4*ell) with b/a = {d.b // d.a}",
    ]
    return payload, lines


def _cmd_frey(args: argparse.Namespace) -> tuple[dict, list[str]]:
    budget = Budget(args.trial_bound, args.rho_iterations)
    sol = FreySolution(a=args.a, d=args.d, u=args.u, v=args.v, w=args.w, ell=args.ell)
    F = frey.construct(sol, budget)
    frey.invariants_oracle(F)
    # the curve's fields in order, with the field's name placed after the
    # solution (a repeated key keeps its first position)
    payload = {"solution": sol, "field": f"Q(sqrt({F.field_label}))", **vars(F)}
    lines = [
        f"field: Q(sqrt({F.field_label}))",
        f"a2 = {F.a2_coeff}",
        f"a4 = {F.a4_coeff}",
        f"delta = {F.delta}",
        f"c4 = {F.c4}",
        f"bad primes: {sorted(F.bad_primes)}",
    ]
    if args.prime is not None:
        p = args.prime
        if p < 2 or not arith.is_probable_prime(p):
            raise ValueError(f"--prime {p} is not prime")
        ideals = []
        for qp in quadfield.primes_above(F.field_label, p):
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
            lines.append(
                f"prime over {p} ({qp.kind.value}"
                + (f", root {qp.root}" if qp.root is not None else "")
                + f"): {red.value}, v(delta) = {val}, ell | v: {ok}"
            )
        payload["prime_analysis"] = {"p": p, "ideals": ideals}
    return payload, lines


def _cmd_ledger(args: argparse.Namespace) -> tuple[ledger.LedgerReport, list[str]]:
    budget = Budget(args.trial_bound, args.rho_iterations)
    c, P = _curve_and_point(args)
    table = None
    if args.eigen_table is not None:
        try:
            with open(args.eigen_table, encoding="utf-8") as fh:
                table = ledger.load_eigenvalue_table(fh)
        except OSError as exc:
            raise ValueError(f"cannot read eigenvalue table: {exc}") from exc
    report = ledger.build_report(
        c, P, args.q, args.c_config,
        budget=budget, search_cap=args.search_cap, eigen_table=table,
    )
    lines = [
        f"b = {report.b}, generator {report.generator}",
        f"B_1 = {report.B1}, q = {report.q}, T = {sorted(report.T)}",
        f"(k, p0) = ({report.k}, {report.p0})",
        f"threshold = max{{k, 2b, C, p0, 5}} = {report.threshold}",
    ]
    for f in report.candidate_fields:
        lines.append(
            f"field Q(sqrt({f.a})): p0 {f.splitting_of_p0.value}, N = {f.envelope.residue_norm}, "
            f"envelope = {f.envelope.display} (<= {f.envelope.ceiling}), "
            f"level support count = {f.level_support.count}"
        )
    if report.exact_bound is not None:
        lines.append(f"exact bound from eigenvalue table: {report.exact_bound}")
    for note in report.caveats:
        lines.append(f"caveat: {note}")
    return report, lines


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
                        help="plain-text output instead of JSON")
    effort = argparse.ArgumentParser(add_help=False)
    effort.add_argument("--trial-bound", type=int, default=Budget().trial_bound,
                        metavar="N", help="trial-division bound (default %(default)s)")
    effort.add_argument("--rho-iterations", type=int, default=Budget().rho_iterations,
                        metavar="N", help="iteration budget for the rho stage (default %(default)s)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate sequence terms (m, A, B, C)")
    p.add_argument("--b", type=int, required=True, help="curve parameter, y^2 = x(x^2 + b)")
    p.add_argument("--point", required=True, metavar="X,Y", help="generator, rational coordinates as num/den")
    p.add_argument("--max-m", type=int, required=True, help="last index to generate")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("scan", parents=[common], help="report perfect powers among B_1..B_M")
    p.add_argument("--b", type=int, required=True, help="curve parameter")
    p.add_argument("--point", required=True, metavar="X,Y", help="generator")
    p.add_argument("--max-m", type=int, required=True, help="last index to scan")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("descend", parents=[common, effort],
                       help="decompose a term: A = a*u^2, v^2 - a*u^4 = (b/a)*w^(4*ell)")
    p.add_argument("--b", type=int, required=True, help="curve parameter")
    p.add_argument("--point", required=True, metavar="X,Y", help="generator")
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

    p = sub.add_parser("ledger", parents=[common, effort],
                       help="assemble the exponent-bound report for a generator")
    p.add_argument("--b", type=int, required=True, help="curve parameter")
    p.add_argument("--point", required=True, metavar="X,Y", help="non-integral generator")
    p.add_argument("--q", type=int, required=True, help="prime divisor of B_1")
    p.add_argument("--c-config", type=int, required=True,
                   help="stand-in for the effective irreducibility constant")
    p.add_argument("--eigen-table", metavar="PATH", default=None,
                   help="optional eigenvalue table (level_tag TAB form_index TAB p TAB a_p)")
    p.add_argument("--search-cap", type=int, default=ledger.DEFAULT_SEARCH_CAP,
                   help="largest index tried when hunting the (k, p0) pair (default %(default)s)")
    p.set_defaults(handler=_cmd_ledger)

    return parser


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
            payload, lines = args.handler(args)
        except HypothesisError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except BudgetExhausted as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ArithmeticError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 5
        if args.table:
            print("\n".join(lines))
        else:
            document = {"tool": "edspower", "command": args.command,
                        "integer_encoding": "decimal string"}
            document.update(_stringify(payload))
            print(json.dumps(document, indent=2))
        return 0
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
