"""End-to-end benchmark of edspower, one process and one thread.

    python3 edsbench/run.py --workload {sequence,powers,ledger} --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the package is imported from ./src.  The
run builds its inputs from the seed, then repeats whole rounds of the
workload's items until the timed items add up to --seconds (and at least
the workload's minimum item count).  Every output is checked outside the
timed intervals.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Results and spans
are also written under edsbench/out/.  Times are scaled to a fixed machine
speed (speed.py).  See edsbench/README.md.
"""
import time

_T0 = time.perf_counter()
_STARTUP_CPU_S = time.process_time()  # interpreter start-up, before this line ran

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
from tracing import NO_TRACE, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "edsbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

_t_import = time.perf_counter()
import edspower  # noqa: E402
from edspower import arith, cli, curve, descent, eds, frey, ledger, quadfield  # noqa: E402

CLI_IMPORT_S = time.perf_counter() - _t_import
_T_IMPORTED = time.perf_counter()

SETUP_REPEATS = 3
SETUP_REFERENCES = 9  # reference timings before each set-up repetition and after the last
# An untraced run times at least MIN_ITEMS items; the tail is the
# percentile with ten items beyond it at that count, p90.
MIN_ITEMS = 100
TAIL_PERCENTILE = 100 * (1 - 10 / MIN_ITEMS)
MAX_WALL_S = 150  # a run stops after the round that crosses this, whatever --seconds says

PER_LAYER = {
    "curve.mul.busy_s": "s",
    "curve.is_torsion.calls": "count",
    "curve.is_torsion.busy_s": "s",
    "eds.generate.busy_s": "s",
    "eds.generate.out_bits": "bits",
    "eds.check_strong_divisibility.busy_s": "s",
    "eds.check_valuation_growth.busy_s": "s",
    "eds.scan_powers.busy_s": "s",
    "arith.perfect_power.calls": "count",
    "arith.perfect_power.busy_s": "s",
    "arith.perfect_power.in_bits": "bits",
    "arith.perfect_power.hits": "count",
    "arith.factorize.calls": "count",
    "arith.factorize.busy_s": "s",
    "arith.factorize.in_bits": "bits",
    "arith.factorize.primes_found": "count",
    "arith.factorize.unfactored_bits": "bits",
    "eds.primitive_divisors.busy_s": "s",
    "eds.primitive_divisors.incomplete": "count",
    "ledger.find_k_p0.busy_s": "s",
    "ledger.build_report.busy_s": "s",
    "descent.decompose.busy_s": "s",
    "frey.construct.busy_s": "s",
    "frey.exponent_divisibility.busy_s": "s",
    "quadfield.prime_valuation.busy_s": "s",
    "cli.main.busy_s": "s",
    "cli.main.out_bytes": "bytes",
}


class OperationFailed(Exception):
    """The program reported failure (a non-zero exit code)."""


@dataclass
class Item:
    """One timed operation: run(tracer) -> output, then check(output), untimed."""

    kind: str
    run: Callable
    check: Callable


def _point(g: inputs.Generator) -> curve.Point:
    return curve.Point(g.x, g.y)


def _validate_generator(tr, g: inputs.Generator) -> None:
    """The program's curve checks must agree with the builder's: on the curve, not torsion."""
    c, P = curve.make_curve_xb(g.b), _point(g)
    checks.require(curve.on_curve(c, P), f"{g.label}: on_curve is false")
    checks.require(not tr.call("curve.is_torsion", curve.is_torsion, c, P), f"{g.label}: is_torsion is true")


class Verified:
    """Outputs already checked in full this run, by item position, as digests."""

    def __init__(self) -> None:
        self._seen: dict[int, str] = {}

    def check(self, key: int, digest: str, full_check: Callable[[], None]) -> None:
        if key in self._seen:
            checks.require(self._seen[key] == digest, "output differs from the checked output of the same input")
        else:
            full_check()
            self._seen[key] = digest


def _digest(*ints) -> str:
    h = hashlib.sha256()
    for n in ints:
        h.update(n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True))
    return h.hexdigest()


# --- sequence --------------------------------------------------------------

def setup_sequence(seed: int, tr) -> list[Item]:
    verified = Verified()
    items = []
    for position, spec in enumerate(inputs.build_sequence(seed)):
        _validate_generator(tr, spec.gen)
        items.append(_sequence_item(position, spec, verified))
    return items


def _sequence_item(position: int, spec: inputs.SequenceItem, verified: Verified) -> Item:
    g = spec.gen
    c, P = curve.make_curve_xb(g.b), _point(g)
    out_bits = lambda s: {"out_bits": sum(t.B.bit_length() for t in s.terms)}  # noqa: E731

    def run(tr):
        s = tr.call("eds.generate", eds.generate, c, P, spec.M, counts=out_bits)
        strong = [tr.call("eds.check_strong_divisibility", eds.check_strong_divisibility, s, m, n)
                  for m, n in spec.pairs]
        growth = [tr.call("eds.check_valuation_growth", eds.check_valuation_growth, s, p, n, k)
                  for p, n, k in spec.growth]
        spots = [tr.call("eds.term", eds.term, c, P, m) for m in spec.spots]
        if tr.on:
            tr.call("curve.is_torsion", curve.is_torsion, c, P)
            for m in spec.spots:
                tr.call("curve.mul", curve.mul, c, m, P)
        return s, strong, growth, spots

    def check(output):
        s, strong, growth, spots = output
        terms = [(t.m, t.A, t.B, t.C) for t in s.terms]
        checks.require(len(terms) == spec.M, "wrong number of terms")
        Bs = [t[2] for t in terms]

        def full():
            checks.check_terms(g.b, g.x, g.y, terms)
            for (m, n), ok in zip(spec.pairs, strong):
                checks.check_strong_divisibility(Bs, m, n, ok)
            for (p, n, k), ok in zip(spec.growth, growth):
                checks.check_valuation_growth(Bs, p, n, k, ok)

        verified.check(position, _digest(*(x for t in terms for x in t), *strong, *growth), full)
        for m, t in zip(spec.spots, spots):
            checks.require((t.m, t.A, t.B, t.C) == terms[m - 1], f"term({m}) differs from generate")

    return Item("sequence", run, check)


def check_sequence_reference() -> None:
    """Known values on y^2 = x^3 + 5x, P = (20, 90)."""
    s = eds.generate(curve.make_curve_xb(5), curve.Point(20, 90), 10)
    checks.require([t.B for t in s.terms[:4]] == [1, 36, 19679, 39139128], "B_1..B_4 of (5, (20, 90))")
    checks.require(eds.scan_powers(s) == [(2, 2, 6)], "scan of (5, (20, 90)) up to 10")


# --- powers ----------------------------------------------------------------

def setup_powers(seed: int, tr) -> list[Item]:
    spec = inputs.build_powers(seed)
    sequences = []
    for g, M in zip(spec.gens, spec.max_m):
        _validate_generator(tr, g)
        s = tr.call("eds.generate", eds.generate, curve.make_curve_xb(g.b), _point(g), M,
                    counts=lambda s: {"out_bits": sum(t.B.bit_length() for t in s.terms)})
        checks.check_terms(g.b, g.x, g.y, [(t.m, t.A, t.B, t.C) for t in s.terms])
        sequences.append(s)
    checker = checks.PowerChecker()
    items = []
    for position, it in enumerate(spec.items):
        if isinstance(it, inputs.RealWindow):
            full = sequences[it.source]
            window = eds.Sequence(full.curve, full.generator, full.terms[it.m - 1 : it.m - 1 + inputs.POW_WINDOW])
            check = _real_check(window, checker)
        else:
            # scan_powers reads only m and B; planted terms carry A = C = 0
            terms = tuple(eds.EDSTerm(m, 0, B, 0) for m, B in enumerate(it.terms, start=1))
            window = eds.Sequence(sequences[0].curve, sequences[0].generator, terms)
            check = _planted_check(window, it, checker)
        items.append(Item("powers", _scan_run(window), check))
    return items


def _scan_run(window):
    def run(tr):
        hits = tr.call("eds.scan_powers", eds.scan_powers, window)
        if tr.on:
            for t in window.terms:
                if t.B > 1:
                    tr.call("arith.perfect_power", arith.perfect_power, t.B,
                            counts=lambda r: {"in_bits": t.B.bit_length(), "hits": int(r is not None)})
        return hits
    return run


def _real_check(window, checker):
    terms = [(t.m, t.B) for t in window.terms]
    return lambda hits: checker.check_real(terms, hits)


def _planted_check(window, it: inputs.Planted, checker):
    terms = [(t.m, t.B) for t in window.terms]
    return lambda hits: checker.check_planted(terms, list(it.powers), hits)


# --- ledger ----------------------------------------------------------------

def _run_cli(tr, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()

    def main():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(argv)

    code = tr.call("cli.main", main, counts=lambda _: {"out_bytes": len(out.getvalue().encode())})
    if code != 0:
        raise OperationFailed(f"edspower {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def _factorize_counts(n: int):
    def counts(f):
        return {"in_bits": n.bit_length(), "primes_found": len(f.factors),
                "unfactored_bits": f.unfactored_cofactor.bit_length() if f.unfactored_cofactor > 1 else 0}
    return counts


def setup_ledger(seed: int, tr) -> list[Item]:
    spec = inputs.build_ledger(seed)
    for g in {r.gen for r in spec.reports} | {d.gen for d in spec.descends}:
        _validate_generator(tr, g)
    items = ([_report_item(r) for r in spec.reports] + [_descend_item(d) for d in spec.descends]
             + [_frey_item(f) for f in spec.freys])
    verified = Verified()
    for position, item in enumerate(items):
        item.check = _verified_doc(verified, position, item.check)
    return items


def _verified_doc(verified: Verified, position: int, check: Callable) -> Callable:
    def checked(doc):
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        verified.check(position, digest, lambda: check(doc))
    return checked


def _report_item(r: inputs.LedgerItem) -> Item:
    g = r.gen
    argv = ["ledger", "--b", str(g.b), "--point", g.arg, "--q", str(r.q), "--c-config", str(r.c_config)]
    budget = arith.DEFAULT_BUDGET
    if r.heavy:
        argv += ["--rho-iterations", str(inputs.HEAVY_RHO)]
        budget = arith.Budget(rho_iterations=inputs.HEAVY_RHO)
    c, P = curve.make_curve_xb(g.b), _point(g)
    T = inputs.prime_set(2 * g.b)

    def run(tr):
        doc = _run_cli(tr, argv)
        if tr.on:
            tr.call("curve.is_torsion", curve.is_torsion, c, P)
            tr.call("ledger.build_report", ledger.build_report, c, P, r.q, r.c_config, budget)
            s = eds.generate(c, P, 1)
            tr.call("ledger.find_k_p0", ledger.find_k_p0, s, r.q, T, inputs.SEARCH_CAP, budget)
            v1 = checks.valuation(s.terms[0].B, r.q)
            for j in range(1, int(doc["k"]) - v1 + 1):
                s = eds.extend(s, r.q**j)
                tr.call("eds.primitive_divisors", eds.primitive_divisors, s, r.q**j, budget,
                        counts=lambda pd: {"incomplete": int(not pd.complete)})
                B = s.terms[r.q**j - 1].B
                tr.call("arith.factorize", arith.factorize, B, budget, counts=_factorize_counts(B))
        return doc

    return Item("ledger", run, lambda doc: checks.check_report(doc, g.b, g.x, g.y, r.q, r.c_config))


def _descend_item(d: inputs.DescendItem) -> Item:
    g = d.gen
    c, P = curve.make_curve_xb(g.b), _point(g)
    x, y = inputs.multiples(g.b, g.point, d.m)[-1]
    argv = ["descend", "--b", str(g.b), "--point", g.arg, "--m", str(d.m), "--ell", "1"]

    def run(tr):
        doc = _run_cli(tr, argv)
        if tr.on:
            t = tr.call("eds.term", eds.term, c, P, d.m)
            tr.call("curve.mul", curve.mul, c, d.m, P)
            tr.call("arith.factorize", arith.factorize, t.A, counts=_factorize_counts(t.A))
            tr.call("descent.decompose", descent.decompose, c, t, 1, t.B)
        return doc

    return Item("descend", run, lambda doc: checks.check_descend(doc, g.b, d.m, x, y))


def _frey_item(f: inputs.FreyItem) -> Item:
    sol = frey.FreySolution(a=f.a, d=f.d, u=f.u, v=f.v, w=f.w, ell=1)
    argv = ["frey", "--a", str(f.a), "--d", str(f.d), "--u", str(f.u), "--v", str(f.v),
            "--w", str(f.w), "--ell", "1", "--prime", str(f.prime)]

    def run(tr):
        doc = _run_cli(tr, argv)
        if tr.on:
            F = tr.call("frey.construct", frey.construct, sol)
            for ideal in quadfield.primes_above(f.a, f.prime):
                tr.call("frey.exponent_divisibility", frey.exponent_divisibility, F, ideal)
                tr.call("quadfield.prime_valuation", quadfield.prime_valuation, F.delta, ideal)
        return doc

    return Item("frey", run, lambda doc: checks.check_frey(doc, f.a, f.d, f.u, f.v, f.w, f.prime))


SETUPS = {"sequence": setup_sequence, "powers": setup_powers, "ledger": setup_ledger}


# --- measurement -----------------------------------------------------------

@dataclass
class Tally:
    latencies: list  # seconds at the nominal speed, one per item that did not fail
    wall: list  # the same items' wall-clock seconds
    attempted: int = 0
    failed: int = 0


def run_item(item: Item, tr, tally: Tally, errors: list, reference_s: float) -> None:
    """Time one item; `reference_s` is the reference timing taken just before it."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        output = item.run(tr)
    except Exception:  # a failed operation is counted, reported, and the run goes on
        tally.failed += 1
        errors.append(f"{item.kind} failed:\n{traceback.format_exc()}")
        return
    wall = time.perf_counter() - t0
    tally.wall.append(wall)
    tally.latencies.append(wall * speed.NOMINAL_S / reference_s)
    try:
        item.check(output)
    except checks.CheckFailed as exc:
        errors.append(f"{item.kind} output is wrong: {exc}")


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def measure(items: list, seconds: float, tracer, errors: list):
    """Whole rounds until the timed items reach `seconds` of wall-clock time and MIN_ITEMS.

    With a tracer, rounds alternate untraced and traced, at least two of
    each, until both together reach `seconds`; the result holds both
    tallies and the per-layer stats of each traced round.
    """
    plain, traced = Tally([], []), Tally([], [])
    round_stats = []
    wall0 = time.perf_counter()
    rounds = 0
    while True:
        use_trace = tracer is not None and rounds % 2 == 1
        tally = traced if use_trace else plain
        tr = tracer if use_trace else NO_TRACE
        for position, item in enumerate(items):
            reference_s = speed.reference_s()
            if use_trace:
                tracer.item = f"{rounds}.{position}"
                tracer.call(f"item.{item.kind}", run_item, item, tr, tally, errors, reference_s)
            else:
                run_item(item, tr, tally, errors, reference_s)
        if use_trace:
            round_stats.append(tracer.take_stats())
        rounds += 1
        if tracer is None:
            done = sum(plain.wall) >= seconds and len(plain.wall) >= MIN_ITEMS
        else:
            done = sum(plain.wall) + sum(traced.wall) >= seconds and rounds >= 4
        if done or time.perf_counter() - wall0 > MAX_WALL_S:
            return plain, traced, round_stats


def per_layer_metrics(setup_stats: dict, round_stats: list, errors: list) -> dict:
    """One set-up plus one round.  Counts must repeat exactly from round to round."""
    metrics = {}
    for name, unit in PER_LAYER.items():
        layer, _, field = name.rpartition(".")
        per_round = [stats.get(layer, {}).get(field, 0) for stats in round_stats]
        if unit == "s":
            round_value = statistics.fmean(per_round)
        else:
            round_value = per_round[0]
            if len(set(per_round)) > 1:
                errors.append(f"{name} differs between traced rounds: {per_round}")
        value = setup_stats.get(layer, {}).get(field, 0) + round_value
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def items_per_s(tally: Tally) -> float:
    """Items per second of scaled timed work, over whole rounds."""
    return len(tally.latencies) / sum(tally.latencies)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SETUPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(edspower.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"edspower was imported from {edspower.__file__}, not from this checkout", file=sys.stderr)
        return 2

    errors: list = []
    tracer = Tracer() if args.trace else None
    setup = SETUPS[args.workload]
    build_s, references = [], []
    for repeat in range(SETUP_REPEATS):  # a set-up that fails ends the run with a traceback
        last = repeat == SETUP_REPEATS - 1
        tr = tracer if tracer is not None and last else NO_TRACE
        if tracer is not None and last:
            tracer.item = "setup"
        references += [speed.reference_s() for _ in range(SETUP_REFERENCES)]
        t0 = time.perf_counter()
        items = setup(args.seed, tr)
        build_s.append(time.perf_counter() - t0)
    references += [speed.reference_s() for _ in range(SETUP_REFERENCES)]
    setup_stats = tracer.take_stats() if tracer is not None else {}
    setup_wall_s = _STARTUP_CPU_S + (_T_IMPORTED - _T0) + statistics.median(build_s)
    setup_s = setup_wall_s * speed.NOMINAL_S / statistics.median(references)
    gc.collect()
    gc.freeze()

    plain, traced, round_stats = measure(items, args.seconds, tracer, errors)
    try:
        check_sequence_reference()
    except checks.CheckFailed as exc:
        errors.append(str(exc))

    if args.trace:
        metrics = per_layer_metrics(setup_stats, round_stats, errors)
        metrics["cli.import_s"] = {"value": CLI_IMPORT_S, "unit": "s"}
        metrics["trace.overhead_items_per_s"] = {
            "value": items_per_s(traced) - items_per_s(plain), "unit": "1/s"}
    elif plain.latencies:
        ms = [x * 1000 for x in plain.latencies]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": items_per_s(plain), "unit": "1/s"},
            "item_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
            "item_tail_ms": {"value": percentile(ms, TAIL_PERCENTILE), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    else:
        metrics = {}

    for message in errors[:20]:
        print(message, file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wall = {"setup_s": setup_wall_s, "setup_reference_ms": 1000 * statistics.median(references)}
    if plain.wall:
        wall_ms = [x * 1000 for x in plain.wall]
        wall.update(item_p50_ms=statistics.median(wall_ms), item_tail_ms=percentile(wall_ms, TAIL_PERCENTILE),
                    items_per_s=len(plain.wall) / sum(plain.wall))
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {**result, "seconds": args.seconds, "items_timed": len(plain.latencies),
         "tail_percentile": TAIL_PERCENTILE, "nominal_reference_ms": 1000 * speed.NOMINAL_S,
         "wall_clock": wall, "python": sys.version.split()[0]}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"trace-{stem}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
