"""The benchmark's own checks, run on the current code."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "edsbench"


def test_bench_selftest_passes():
    # the checks recompute every term's gcd and pass genuine output only;
    # the selftest imports edspower from ./src; -B keeps edsbench/ unwritten
    run = subprocess.run([sys.executable, "-B", "edsbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]


KINDS = {"sequence": {"sequence"}, "powers": {"powers"}, "ledger": {"ledger", "descend", "frey"}}


@pytest.mark.parametrize("workload", KINDS)
def test_bench_items_pass_their_checks(monkeypatch, workload):
    # the seed-1 items of one edsbench/run.py workload, each run once and
    # checked in process by the benchmark's own independent checks: terms and
    # divisibility (sequence), maximal exponents and near-misses through
    # checks.PowerChecker (powers), and its readers of the ledger, descend and
    # frey documents written by cli.main (ledger); no bytecode is written, so
    # edsbench/ stays unwritten
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])
    spec = importlib.util.spec_from_file_location("edsbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    try:
        spec.loader.exec_module(run)
        items = getattr(run, f"setup_{workload}")(1, run.NO_TRACE)
        assert len(items) > 30 and {item.kind for item in items} == KINDS[workload]
        for item in items:
            item.check(item.run(run.NO_TRACE))
    finally:  # the bench's own modules (checks, inputs, ...) leave with it
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or ROOT).parent == BENCH:
                del sys.modules[name]
