"""The package names edsbench/run.py calls stay importable and callable."""
import importlib
import re
from pathlib import Path

import pytest

import edspower

BENCH_CALLS = (
    "curve.mul", "curve.make_curve_xb", "curve.on_curve", "curve.is_torsion",
    "eds.term", "eds.generate", "eds.extend", "eds.primitive_divisors",
    "eds.scan_powers", "eds.check_strong_divisibility", "eds.check_valuation_growth",
    "arith.factorize", "arith.perfect_power",
    "ledger.find_k_p0", "ledger.build_report",
    "descent.decompose",
    "frey.construct", "frey.exponent_divisibility",
    "quadfield.prime_valuation", "quadfield.primes_above",
    "cli.main",
)


@pytest.mark.parametrize("dotted", BENCH_CALLS)
def test_bench_name_is_callable(dotted):
    module, name = dotted.split(".")
    assert callable(getattr(importlib.import_module(f"edspower.{module}"), name))


def test_package_exports_resolve():
    for name in edspower.__all__:
        assert hasattr(edspower, name), name


def test_readme_export_list_matches_all():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    start = readme.index("The package root exports, by module:")
    sentence = readme[start:readme.index(").", start) + 1]
    # the backticked names in each module's parentheses, not the module names
    listed = {name for group in re.findall(r"\(([^()]*)\)", sentence)
              for name in re.findall(r"`([^`]+)`", group)}
    assert listed == set(edspower.__all__) - {"__version__"}
