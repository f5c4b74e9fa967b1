"""Self-test of the benchmark's checks: genuine outputs pass, corrupted ones fail.

    python3 edsbench/selftest.py

Run from the root of a checkout; edspower is imported from ./src.
"""
import contextlib
import copy
import io
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from edspower import cli, curve, eds  # noqa: E402

TWO_P = (Fraction(6241, 1296), Fraction(543599, 46656))  # 2 * (20, 90) on b = 5


def run_cli(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, argv
    return json.loads(out.getvalue())


class SequenceChecks(unittest.TestCase):
    def setUp(self):
        s = eds.generate(curve.make_curve_xb(5), curve.Point(20, 90), 12)
        self.terms = [(t.m, t.A, t.B, t.C) for t in s.terms]

    def test_genuine_terms_pass(self):
        checks.check_terms(5, Fraction(20), Fraction(90), self.terms)

    def test_changed_B_fails(self):
        m, A, B, C = self.terms[6]
        self.terms[6] = (m, A, B + 1, C)
        with self.assertRaises(checks.CheckFailed):
            checks.check_terms(5, Fraction(20), Fraction(90), self.terms)

    def test_term_of_another_multiple_fails(self):
        # a valid point of the curve, but 6P in the place of 7P: breaks x(14P) = x(2 * 7P)
        self.terms[6] = (7,) + self.terms[5][1:]
        with self.assertRaises(checks.CheckFailed):
            checks.check_terms(5, Fraction(20), Fraction(90), self.terms)

    def test_divisibility_laws(self):
        Bs = [t[2] for t in self.terms]
        checks.check_strong_divisibility(Bs, 6, 9, True)
        checks.check_valuation_growth(Bs, 3, 2, 3, True)
        with self.assertRaises(checks.CheckFailed):
            checks.check_strong_divisibility(Bs, 6, 9, False)
        Bs[8] *= 3
        with self.assertRaises(checks.CheckFailed):
            checks.check_strong_divisibility(Bs, 6, 9, True)


class PowerChecks(unittest.TestCase):
    def test_real_window(self):
        checker = checks.PowerChecker()
        checker.check_real([(2, 36), (3, 19679)], [(2, 2, 6)])
        with self.assertRaises(checks.CheckFailed):  # 36 left unreported
            checks.PowerChecker().check_real([(2, 36), (3, 19679)], [])
        with self.assertRaises(checks.CheckFailed):  # 19679 is no power
            checks.PowerChecker().check_real([(2, 36), (3, 19679)], [(2, 2, 6), (3, 2, 140)])

    def test_non_maximal_exponent_fails(self):
        with self.assertRaises(checks.CheckFailed):  # 729 = 3^6, not maximal as 27^2
            checks.PowerChecker().check_real([(1, 729)], [(1, 2, 27)])
        w = 2 * 3 * 5 * 7 * 11
        planted = [(1, w**4), (2, w**4 + 1)]
        checks.PowerChecker().check_planted(planted, [(1, 4, w)], [(1, 4, w)])
        with self.assertRaises(checks.CheckFailed):
            checks.PowerChecker().check_planted(planted, [(1, 4, w)], [(1, 2, w * w)])

    def test_reported_near_miss_fails(self):
        w = 2 * 3 * 5 * 7 * 11
        planted = [(1, w**4), (2, w**4 + 1)]
        with self.assertRaises(checks.CheckFailed):
            checks.PowerChecker().check_planted(planted, [(1, 4, w)], [(1, 4, w), (2, 2, w * w)])

    def test_certificate_refuses_a_power(self):
        with self.assertRaises(checks.CheckFailed):
            checks.non_power_certificate(3**40)
        checks.non_power_certificate(3**40 + 1)


class LedgerChecks(unittest.TestCase):
    def setUp(self):
        self.doc = run_cli("ledger", "--b", "5", "--point", f"{TWO_P[0]},{TWO_P[1]}",
                           "--q", "2", "--c-config", "100")

    def check(self, doc):
        checks.check_report(doc, 5, TWO_P[0], TWO_P[1], 2, 100)

    def test_genuine_report_passes(self):
        self.check(self.doc)

    def test_wrong_p0_fails(self):
        for p0 in ("3", "11", "13"):
            doc = copy.deepcopy(self.doc)
            doc["p0"] = p0
            with self.assertRaises(checks.CheckFailed, msg=p0):
                self.check(doc)

    def test_wrong_fields_fail(self):
        for path, value in ((("threshold",), "99"), (("T",), ["2"]), (("k",), "2"),
                            (("candidate_fields", 1, "envelope", "ceiling"), "63"),
                            (("candidate_fields", 0, "level_support", "count"), "1")):
            doc = copy.deepcopy(self.doc)
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            with self.assertRaises(checks.CheckFailed, msg=str(path)):
                self.check(doc)

    def test_descend_and_frey(self):
        x, y = inputs.multiples(5, TWO_P, 2)[-1]
        doc = run_cli("descend", "--b", "5", "--point", f"{TWO_P[0]},{TWO_P[1]}", "--m", "2", "--ell", "1")
        a, u, v, w = checks.check_descend(doc, 5, 2, x, y)
        bad = copy.deepcopy(doc)
        bad["datum"]["u"] = str(u + 1)
        with self.assertRaises(checks.CheckFailed):
            checks.check_descend(bad, 5, 2, x, y)
        for p in (3, 7, 11, 13):
            frey_doc = run_cli("frey", "--a", str(a), "--d", str(5 // a), "--u", str(u), "--v", str(v),
                               "--w", str(w), "--ell", "1", "--prime", str(p))
            checks.check_frey(frey_doc, a, 5 // a, u, v, w, p)
            bad = copy.deepcopy(frey_doc)
            bad["delta"]["x"] = str(int(bad["delta"]["x"]) + 1)
            with self.assertRaises(checks.CheckFailed):
                checks.check_frey(bad, a, 5 // a, u, v, w, p)
            bad = copy.deepcopy(frey_doc)
            ideal = bad["prime_analysis"]["ideals"][0]
            ideal["reduction"] = "good" if ideal["reduction"] != "good" else "multiplicative"
            with self.assertRaises(checks.CheckFailed):
                checks.check_frey(bad, a, 5 // a, u, v, w, p)


class Manifest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        import run

        manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        printed = dict(run.PER_LAYER, **{"cli.import_s": "s", "trace.overhead_items_per_s": "1/s"})
        self.assertEqual({m["name"]: m["unit"] for m in manifest["per_layer"]}, printed)
        self.assertEqual([w["name"] for w in manifest["workloads"]], list(run.SETUPS))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(inputs.build_powers(7), inputs.build_powers(7))
        self.assertNotEqual(inputs.build_powers(7), inputs.build_powers(8))

    def test_torsion_rejected(self):
        self.assertTrue(inputs.is_torsion(4, (Fraction(2), Fraction(4))))  # order 4 on b = 4
        self.assertIsNone(inputs.make_generator(4, 2, 4, 1))
        self.assertFalse(inputs.is_torsion(5, (Fraction(20), Fraction(90))))


if __name__ == "__main__":
    unittest.main()
