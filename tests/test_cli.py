import json
import sys
from dataclasses import fields

from edspower import (
    DescentDatum,
    EDSTerm,
    EnvelopeBound,
    FreySolution,
    LedgerReport,
    LevelSupport,
    Point,
    generate,
    ledger,
    make_curve_xb,
)
from edspower.cli import build_parser, main
from edspower.ledger import CandidateField, LevelEntry


def field_names(cls):
    return [f.name for f in fields(cls)]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_gen_document(capsys):
    doc = run_json(capsys, ["gen", "--b", "5", "--point", "20,90", "--max-m", "4"])
    assert doc["command"] == "gen"
    assert doc["integer_encoding"] == "decimal string"
    assert [t["B"] for t in doc["terms"]] == ["1", "36", "19679", "39139128"]
    assert doc["terms"][1]["A"] == "6241"
    assert doc["terms"][1]["C"] == "543599"
    # every integer survives the decimal round trip
    for t in doc["terms"]:
        for key in ("m", "A", "B", "C"):
            int(t[key])


def test_gen_past_int_str_digit_limit(capsys):
    # C_60 has about 5,300 digits, past the default 4,300-digit limit of
    # Python 3.10.7 and later; main restores the caller's limit
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    doc = run_json(capsys, ["gen", "--b", "5", "--point", "20,90", "--max-m", "60"])
    assert get_limit() == limit
    last = generate(make_curve_xb(5), Point(20, 90), 60).terms[-1]
    assert doc["terms"][-1]["m"] == "60"
    assert doc["terms"][-1]["B"] == str(last.B)
    assert len(doc["terms"][-1]["C"]) > 4300


def test_gen_table(capsys):
    assert main(["gen", "--b", "5", "--point", "20,90", "--max-m", "4", "--table"]) == 0
    out = capsys.readouterr().out
    assert "39139128" in out and "19679" in out


def test_gen_rational_point(capsys):
    doc = run_json(capsys, ["gen", "--b", "5", "--point", "6241/1296,543599/46656", "--max-m", "2"])
    assert [t["B"] for t in doc["terms"]] == ["36", "39139128"]


def test_scan_document(capsys):
    doc = run_json(capsys, ["scan", "--b", "5", "--point", "20,90", "--max-m", "10"])
    assert doc["hits"] == [{"m": "2", "ell": "2", "w": "6"}]


def test_descend_document(capsys):
    doc = run_json(capsys, ["descend", "--b", "5", "--point", "20,90", "--m", "2", "--ell", "1"])
    datum = doc["datum"]
    assert (datum["a"], datum["u"], datum["v"]) == ("1", "79", "6881")
    assert doc["frey_solution"]["d"] == "5"
    assert doc["frey_solution"]["w"] == "36"
    # each object mirrors its dataclass field for field
    assert list(doc["term"]) == field_names(EDSTerm)
    assert list(datum) == field_names(DescentDatum)
    assert list(doc["frey_solution"]) == field_names(FreySolution)


def test_descend_maximal_exponent_default(capsys):
    doc = run_json(capsys, ["descend", "--b", "5", "--point", "20,90", "--m", "2"])
    assert doc["datum"]["ell"] == "2" and doc["datum"]["w"] == "6"


def test_descend_wrong_exponent(capsys):
    assert main(["descend", "--b", "5", "--point", "20,90", "--m", "3", "--ell", "2"]) == 3
    assert "power" in capsys.readouterr().err


def test_frey_document(capsys):
    doc = run_json(capsys, [
        "frey", "--a", "1", "--d", "5", "--u", "79", "--v", "6881",
        "--w", "36", "--ell", "1", "--prime", "3",
    ])
    assert doc["delta"]["x"] == "-56422198149120"
    assert doc["c4"]["x"] == "337984"
    assert list(doc["solution"]) == field_names(FreySolution)
    assert doc["bad_primes"] == ["2", "5"]
    ideal = doc["prime_analysis"]["ideals"][0]
    assert ideal["reduction"] == "multiplicative"
    assert ideal["delta_valuation"] == "16"
    assert ideal["ell_divides"] is True


def test_frey_quadratic_field(capsys):
    doc = run_json(capsys, [
        "frey", "--a", "5", "--d", "1", "--u", "11834", "--v", "498029769",
        "--w", "19679", "--ell", "1",
    ])
    assert doc["delta"]["y"] == "-191208577721951504878836963840"
    assert doc["field"] == "Q(sqrt(5))"


def test_frey_invalid_solution(capsys):
    assert main(["frey", "--a", "1", "--d", "5", "--u", "1", "--v", "2",
                 "--w", "1", "--ell", "1"]) == 2
    assert "fails" in capsys.readouterr().err


def test_ledger_document(capsys):
    doc = run_json(capsys, [
        "ledger", "--b", "5", "--point", "6241/1296,543599/46656",
        "--q", "2", "--c-config", "100",
    ])
    assert doc["k"] == "3" and doc["p0"] == "7"
    assert doc["threshold"] == "100"
    assert doc["T"] == ["2", "5"]
    candidates = doc["candidate_fields"]
    assert candidates[1]["envelope"]["exact_value"] == "64"
    assert candidates[0]["envelope"]["display"] == "8 + 2*sqrt(7)"
    assert candidates[1]["level_support"]["count"] == "27"
    assert doc["exact_bound"] is None
    for f in candidates:
        assert list(f) == field_names(CandidateField)
        assert list(f["envelope"]) == field_names(EnvelopeBound)
        assert list(f["level_support"]) == field_names(LevelSupport)
        for entry in f["level_support"]["entries"]:
            assert list(entry) == field_names(LevelEntry)
    header = ["tool", "command", "integer_encoding"]
    assert list(doc) == header + field_names(LedgerReport)


def test_ledger_with_eigen_table(capsys, tmp_path):
    path = tmp_path / "eig.tsv"
    path.write_text("# tag idx p a_p\nL49\t0\t7\t0\n")
    doc = run_json(capsys, [
        "ledger", "--b", "5", "--point", "6241/1296,543599/46656",
        "--q", "2", "--c-config", "100", "--eigen-table", str(path),
    ])
    assert doc["exact_bound"] == "50"


def test_ledger_missing_table_is_usage_error(capsys, tmp_path):
    assert main([
        "ledger", "--b", "5", "--point", "6241/1296,543599/46656",
        "--q", "2", "--c-config", "100", "--eigen-table", str(tmp_path / "nope"),
    ]) == 2


def test_exit_codes(capsys):
    assert main(["gen", "--b", "5", "--point", "0,0", "--max-m", "2"]) == 3
    capsys.readouterr()
    assert main(["gen", "--b", "5", "--point", "3,7", "--max-m", "2"]) == 2
    capsys.readouterr()
    assert main(["ledger", "--b", "5", "--point", "20,90", "--q", "2",
                 "--c-config", "100"]) == 3
    capsys.readouterr()
    assert main(["gen", "--b", "5", "--max-m", "2"]) == 2  # missing --point
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_budget_exhaustion_exit_code(capsys):
    # A_3 = 2^2 * 5 * 61^2 * 97^2; a tiny budget cannot certify its square part
    code = main(["descend", "--b", "5", "--point", "20,90", "--m", "3",
                 "--trial-bound", "10", "--rho-iterations", "0"])
    assert code == 4
    assert "factor" in capsys.readouterr().err


def test_internal_arithmetic_error_exit_code(capsys, monkeypatch):
    # a (k, p0) pair that fails re-verification: 11 does not divide B_2
    monkeypatch.setattr(ledger, "find_k_p0", lambda *args: (3, 11, ()))
    code = main(["ledger", "--b", "5", "--point", "6241/1296,543599/46656",
                 "--q", "2", "--c-config", "100"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "re-verification" in captured.err
    assert "Traceback" not in captured.err


def test_effort_settings_validated(capsys):
    assert main(["descend", "--b", "5", "--point", "20,90", "--m", "2",
                 "--trial-bound", "1"]) == 2
    assert "trial_bound" in capsys.readouterr().err


def test_output_is_deterministic(capsys):
    argv = ["ledger", "--b", "5", "--point", "6241/1296,543599/46656",
            "--q", "2", "--c-config", "100"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_parser_structure():
    parser = build_parser()
    assert parser.prog == "edspower"
