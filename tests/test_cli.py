import argparse
import hashlib
import importlib
import json
import re
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from edspower import (
    DescentDatum,
    EDSTerm,
    EnvelopeBound,
    FreySolution,
    LedgerReport,
    LevelSupport,
    Point,
    curve,
    eds,
    generate,
    make_curve_xb,
)
from edspower.cli import _json, _parse_args, _parse_point, build_parser, main
from edspower.frey import Reduction
from edspower.ledger import CandidateField, LevelEntry
from edspower.quadfield import QuadElement, SplitType
from helpers import small_peak, stringify_oracle


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


@pytest.mark.parametrize("point", ["1e10000000,1", "0.5,1", "1_0,1", "20,+-90", "1/0,1"])
def test_point_outside_the_num_den_form_is_refused(capsys, point):
    # Fraction alone would build 10**10000000 from the first before any check
    assert main(["gen", "--b", "5", "--point", point, "--max-m", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot parse point {point!r}: ")


def test_point_coordinates_are_built_from_their_integers(monkeypatch):
    # each coordinate is Fraction(num, den) of the integers its match holds, as
    # Fraction reads the text, and Point is handed no text to parse again; a
    # zero denominator keeps Fraction's message
    real, handed = curve.Fraction, []
    monkeypatch.setattr(curve, "Fraction", lambda v: handed.append(type(v)) or real(v))
    for text in ("20,90", " -6241/1296 ,+543599/46656", "007/0010,-0", "-0/5,+3/3"):
        x, y = (part.strip() for part in text.split(","))
        assert _parse_point(text) == Point(Fraction(x), Fraction(y)), text
    assert str not in handed
    for text, zero in (("1/0,1", "Fraction(1, 0)"), ("2,-7/00", "Fraction(-7, 0)"), ("-0/0,3", "Fraction(0, 0)")):
        with pytest.raises(ValueError, match=f"^cannot parse point {re.escape(repr(text))}: {re.escape(zero)}$"):
            _parse_point(text)


def test_point_text_round_trips():
    for t in generate(make_curve_xb(5), Point(20, 90), 3).terms:
        Q = Point(Fraction(t.A, t.B**2), Fraction(-t.C, t.B**3))
        assert _parse_point(str(Q)) == Q


def test_scan_document(capsys):
    doc = run_json(capsys, ["scan", "--b", "5", "--point", "20,90", "--max-m", "10"])
    assert doc["hits"] == [{"m": "2", "ell": "2", "w": "6"}]


def test_console_script_target_returns_the_exit_code(capsys, monkeypatch):
    # the installed script calls sys.exit(target()), so the target returns the code
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["edspower"]
    module, name = target.split(":")
    entry = getattr(importlib.import_module(module), name)
    argv = ["scan", "--b", "5", "--point", "20,90", "--max-m", "10"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["edspower", *argv])
    assert entry() == 0
    assert capsys.readouterr().out == expected
    assert json.loads(expected)["command"] == "scan"
    monkeypatch.setattr(sys, "argv", ["edspower", *argv[:-1], "0"])
    assert entry() == 2
    assert "--max-m must be positive" in capsys.readouterr().err


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
    # an exponent past bits(B) is answered at once, with no power built
    with small_peak():
        code = main(["descend", "--b", "5", "--point", "20,90", "--m", "3", "--ell", "100000000"])
    assert code == 3
    assert capsys.readouterr().err == "error: B = 19679 is not a perfect power with exponent 100000000\n"


def test_descend_explicit_exponent_matches_the_maximal_one(capsys):
    # B_2 = 36 = 6^2: naming the exponent gives the default document
    explicit = run_json(capsys, ["descend", "--b", "5", "--point", "20,90", "--m", "2", "--ell", "2"])
    assert explicit == run_json(capsys, ["descend", "--b", "5", "--point", "20,90", "--m", "2"])
    assert (explicit["datum"]["ell"], explicit["datum"]["w"]) == ("2", "6")


@pytest.mark.parametrize("argv, err", [
    ("gen --b 5 --point 20 --max-m 2", "error: expected X,Y rational coordinates, got '20'\n"),
    ("descend --b 5 --point 20,90 --m 2 --ell 0", "error: --ell must be positive\n"),
    ("descend --b 5 --point 20,90 --m 0", "error: --m must be positive\n"),
    ("frey --a 1 --d 5 --u 79 --v 6881 --w 36 --ell 1 --prime 4", "error: --prime 4 is not prime\n"),
    ("scan --b 5 --point 20,90 --max-m 0", "error: --max-m must be positive\n"),
    ("frey --a 1 --d 5 --u 79 --v 6881 --w 36 --ell 1 --prime 1", "error: --prime 1 is not prime\n"),
    ("frey --a 1 --d 5 --u 79 --v 6881 --w 36 --ell 1 --prime 0", "error: --prime 0 is not prime\n"),
    ("frey --a 1 --d 5 --u 79 --v 6881 --w 36 --ell 1 --prime -3", "error: --prime -3 is not prime\n"),
    # 2*(20, 90), so B_1 = 36 > 1 and q is the first check that fails
    ("ledger --b 5 --point 6241/1296,543599/46656 --q 1 --c-config 100", "error: q = 1 is not prime\n"),
])
def test_malformed_arguments_are_usage_errors(capsys, argv, err):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


def test_integers_past_the_digit_limit_round_trip_through_frey(capsys):
    # descend's frey_solution at m = 80 has u, v and w of 3,119, 6,238 and
    # 3,119 digits, past the default 4,300-digit limit of Python 3.10.7 and
    # later for v; frey reads them back as int options
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    sol = run_json(capsys, ["descend", "--b", "5", "--point", "20,90", "--m", "80", "--ell", "1"])["frey_solution"]
    assert [len(sol[k]) for k in "uvw"] == [3119, 6238, 3119]
    argv = ["frey"] + [arg for k in ("a", "d", "u", "v", "w", "ell") for arg in (f"--{k}", sol[k])]
    assert run_json(capsys, argv)["solution"] == sol
    assert get_limit() == limit
    # and a parse that fails restores it too
    assert main(["frey", "--a", "x"]) == 2
    assert get_limit() == limit


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


def test_frey_huge_exponent_rejected_before_the_power(capsys):
    # w^(4*ell) would have about 4e12 bits; exact_root rejects it unbuilt
    assert main(["frey", "--a", "1", "--d", "5", "--u", "79", "--v", "6881",
                 "--w", "2", "--ell", "1000000000000"]) == 2
    assert capsys.readouterr().err == "error: v^2 - a*u^4 = d*w^(4*ell) fails\n"


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


def test_ledger_table_not_in_utf8_is_a_table_read_error(capsys, tmp_path):
    path = tmp_path / "eig.tsv"
    path.write_bytes(b"L49\t0\t\xff\t0\n")
    assert main([
        "ledger", "--b", "5", "--point", "6241/1296,543599/46656",
        "--q", "2", "--c-config", "100", "--eigen-table", str(path),
    ]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: cannot read eigenvalue table: "
        "'utf-8' codec can't decode byte 0xff in position 6: invalid start byte\n"
    )


def test_ledger_malformed_table_record_is_usage_error(capsys, tmp_path):
    path = tmp_path / "eig.tsv"
    path.write_text("L49\t0\t7\t0\nL\t0\tseven\t15\n")
    assert main([
        "ledger", "--b", "5", "--point", "6241/1296,543599/46656",
        "--q", "2", "--c-config", "100", "--eigen-table", str(path),
    ]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: malformed eigenvalue record: 'L\\t0\\tseven\\t15\\n'\n"


@pytest.mark.parametrize("record", ["L49\t0\t7_0\t0", "L49\t0\t\u0667\t0"])
def test_ledger_table_number_outside_ascii_decimal_is_usage_error(capsys, tmp_path, record):
    # int() would read 7_0 as p = 70 and the Arabic-Indic digit as p = 7
    path = tmp_path / "eig.tsv"
    path.write_text(f"L49\t0\t7\t0\n{record}\n", encoding="utf-8")
    assert main([
        "ledger", "--b", "5", "--point", "6241/1296,543599/46656",
        "--q", "2", "--c-config", "100", "--eigen-table", str(path),
    ]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: malformed eigenvalue record: {record + chr(10)!r}\n"


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
    # a valid solution whose a = 1000036000099 cannot be proven squarefree
    # without rho
    code = main(["frey", "--a", "1000036000099", "--d", "225", "--u", "1",
                 "--v", "1000018", "--w", "1", "--ell", "1",
                 "--trial-bound", "10", "--rho-iterations", "0"])
    assert code == 4
    assert "factor" in capsys.readouterr().err


def test_internal_arithmetic_error_exit_code(capsys, monkeypatch):
    # a term off the curve: decompose's curve-equation check fails
    real = eds.term

    def off_curve(c, P, m):
        t = real(c, P, m)
        return EDSTerm(t.m, t.A, t.B, t.C + 1)

    monkeypatch.setattr(eds, "term", off_curve)
    code = main(["descend", "--b", "5", "--point", "20,90", "--m", "3"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err == "error: term fails C^2 = A(A^2 + b*B^4)\n"
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
    # the four commands on a curve share one declaration of --b and --point
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name in ("gen", "scan", "descend", "ledger"):
        helps = {a.dest: a.help for a in sub.choices[name]._actions}
        assert helps["b"] == "curve parameter, y^2 = x(x^2 + b)"
        assert helps["point"] == "generator, rational coordinates as num/den"


# Byte-for-byte pins of the command line: argv (with {2P} the point 2P of
# (20, 90) on b = 5 and {eigen} a small eigenvalue table), exit code, stderr
# and the sha256 of stdout.
TWO_P = "6241/1296,543599/46656"
EIGEN_TABLE = "# tag idx p a_p\nL49\t0\t7\t0\n"
NO_OUTPUT = hashlib.sha256(b"").hexdigest()
GOLDEN = [
    ("gen --b 5 --point 20,90 --max-m 4",
     0, "", "0768af396e818c5379ae39b93d4ac07b66a68f319cd2e26b99d436f5629d6ddd"),
    ("gen --b 5 --point {2P} --max-m 3",
     0, "", "fa16576f44dd0ff7b6436ad7dce84ba04e89fc16bc662a0f78c3027c6ca32c23"),
    ("gen --b 5 --point 20,90 --max-m 60",
     0, "", "bad1b094faabbc14c88c8eeac4b7c1675cdf08e81a6942c8b9d6936c2413f8c9"),
    ("gen --b 5 --point 0,0 --max-m 2",
     3, "error: generator is a torsion point\n", NO_OUTPUT),
    ("gen --b 5 --point 3,7 --max-m 2",
     2, "error: point does not satisfy the curve equation\n", NO_OUTPUT),
    ("gen --b 5 --point 20,90 --max-m 0",
     2, "error: --max-m must be positive\n", NO_OUTPUT),
    ("scan --b 5 --point 20,90 --max-m 10",
     0, "", "aefdee7d8478f2792cc2d465b733e6054617843f5f3ae82ce5b091850841460a"),
    ("scan --b 5 --point {2P} --max-m 6",
     0, "", "e8f095100a16fbdf38e9f8557de35da569bcef02c9af4d0aa882f15926fa37b8"),
    ("descend --b 5 --point 20,90 --m 2 --ell 1",
     0, "", "ef15e12535efbf18a8fedd3086ed4981db0fae9c79b33155fa76e006a5a0efe3"),
    ("descend --b 5 --point 20,90 --m 2",
     0, "", "592ef0a47172293add31a5e8e2f595ad5902c6e2d11fb3151151878da2c83ea3"),
    ("descend --b 5 --point 20,90 --m 3 --ell 2",
     3, "error: B = 19679 is not a perfect power with exponent 2\n", NO_OUTPUT),
    ("descend --b 5 --point 20,90 --m 3 --trial-bound 10 --rho-iterations 0",
     0, "", "7ce4518484eef7251c5346c9a57c567538867e8318a7c761ac65d12ea11ecb60"),
    ("descend --b 5 --point 20,90 --m 8",
     0, "", "d4aa8fa0f54aa3dee481d256b19d243f1589b9c21a8ce624feadde469b5dfde9"),
    ("frey --a 1 --d 5 --u 79 --v 6881 --w 36 --ell 1",
     0, "", "4759d73dbcdb6710d6d736e17e471c9f98c8ae3ffaa7640b4cc23112bab8069b"),
    ("frey --a 1 --d 5 --u 79 --v 6881 --w 36 --ell 1 --prime 3",
     0, "", "fa478b1bde222a3c8f621eb04b077381a4cd817e508540861e2e2dcab0ee4b32"),
    ("frey --a 5 --d 1 --u 11834 --v 498029769 --w 19679 --ell 1 --prime 11",
     0, "", "80967eb7181fc1b5062cd4f087828ae822b2d5b42efacaf516a1b30dafbde7e3"),
    # in Q(sqrt(5)), 7 is inert (good reduction) and 1789 splits (multiplicative, delta valuations 8, 4)
    ("frey --a 5 --d 1 --u 11834 --v 498029769 --w 19679 --ell 1 --prime 7",
     0, "", "2d3e32a5b6821531ef7d85b87dd0244b74ae97813488d53af17e411117b5c7c3"),
    ("frey --a 5 --d 1 --u 11834 --v 498029769 --w 19679 --ell 1 --prime 1789 --table",
     0, "", "1339e87046d696cd8a10733c5b6d57fa0421da82d6c53c09f8d9e92a917df388"),
    # a = 1: sqrt(a) folds into the rational part
    ("frey --a 1 --d 5 --u 79 --v 6881 --w 36 --ell 1 --prime 3 --table",
     0, "", "813b2e2bf9267a6fea596da0c5cf062815acdf8bfb6ebd15e9ea02b0621b2126"),
    ("frey --a 1 --d 5 --u 1 --v 2 --w 1 --ell 1",
     2, "error: v^2 - a*u^4 = d*w^(4*ell) fails\n", NO_OUTPUT),
    ("frey --a 1000036000099 --d 225 --u 1 --v 1000018 --w 1 --ell 1 --trial-bound 10 --rho-iterations 0",
     4, "error: factoring budget exhausted on cofactor 1000036000099\n", NO_OUTPUT),
    ("frey --a 1000036000099 --d 0 --u 1 --v 1 --w 1 --ell 1 --trial-bound 10 --rho-iterations 0",
     2, "error: d must be a positive integer\n", NO_OUTPUT),
    ("ledger --b 5 --point {2P} --q 2 --c-config 100",
     0, "", "ce33d91e8ca4907a58e4373652a094c1fe9ee5726df893ba62bffb76f1f528f2"),
    ("ledger --b 5 --point {2P} --q 3 --c-config 100",
     0, "", "030503d847197da57353ea15fde62f2bdae8f38e9653d501f5c7f03614efee88"),
    ("ledger --b 5 --point {2P} --q 2 --c-config 100 --eigen-table {eigen}",
     0, "", "b5d1a60818f32c788002c2f295305bdf8da5e8c48e6d0bc2d24137cb61de85a5"),
    ("ledger --b 5 --point {2P} --q 3 --c-config 100 --search-cap 2",
     2, "error: search_cap = 2 is below q = 3; no index to try\n", NO_OUTPUT),
    ("ledger --b 5 --point {2P} --q 3 --c-config 100 --search-cap 0",
     2, "error: search_cap = 0 is below q = 3; no index to try\n", NO_OUTPUT),
    ("ledger --b 5 --point {2P} --q 3 --c-config 100 --trial-bound 10 --rho-iterations 0",
     4, "error: no primitive divisor outside T at indices up to 64; tried index 3 (factoring "
        "incomplete), index 9 (factoring incomplete), index 27 (factoring incomplete)\n", NO_OUTPUT),
    ("ledger --b 5 --point 20,90 --q 2 --c-config 100",
     3, "error: generator is integral (B_1 = 1); the bound needs B_1 > 1\n", NO_OUTPUT),
    ("ledger --b 5 --point {2P} --q 4 --c-config 100",
     2, "error: q = 4 is not prime\n", NO_OUTPUT),
    ("ledger --b 14 --point 103058/2209,-33190578/103823 --q 47 --c-config 100",
     0, "", "734c74ff04e003483508dfc1696fa4402c461d75ef50f96ec4ddbbe56b483ee1"),
    # b = 19 * 210527 * 1000003, a prime past the default trial bound
    ("ledger --b 4000025000039 --point 1/4,8000025/8 --q 2 --c-config 1",
     0, "", "760c12a3216db31a0342b3a2b6650d20f08d2373eebebdc7f33853be4b703165"),
    # a = b = 2199023255713 * 8796093022853 splits only under the raised rho
    # budget, which every factorization of the call must use
    ("ledger --b 19342813116668607771809189 --point 1/4,17592186045705/8 --q 2 --c-config 1 "
     "--rho-iterations 20000000",
     0, "", "bcb20637fd08b9b1a6d4a94a87d9d341fed75100478a2d647407d2730b5473ce"),
    ("ledger --b 19342813116668607771809189 --point 1/4,17592186045705/8 --q 2 --c-config 1 "
     "--search-cap 0",
     2, "error: search_cap = 0 is below q = 2; no index to try\n", NO_OUTPUT),
    # the budget error names the number the command factored, 2b
    ("ledger --b 19342813116668607771809189 --point 1/4,17592186045705/8 --q 2 --c-config 1 "
     "--rho-iterations 0",
     4, "error: could not fully factor 38685626233337215543618378\n", NO_OUTPUT),
    ("descend --b 19342813116668607771809189 --point 1/4,17592186045705/8 --m 2 --ell 1 "
     "--rho-iterations 0",
     4, "error: could not fully factor 38685626233337215543618378\n", NO_OUTPUT),
    ("frey --a 19342813116668607771809189 --d 6597069767140 --u 1 --v 4398046511427 --w 1 --ell 1 "
     "--rho-iterations 20000000 --prime 3",
     0, "", "cfb1634fb153a7286c9e674d14ab3ed6f4c51f406b19ca85a663038e437909fd"),
    # --table renders the parsed JSON text: records as an aligned table, the rest as dotted names
    ("ledger --b 5 --point {2P} --q 2 --c-config 100 --table",
     0, "", "88ba8b1ab60fa62c28000f0c36ead53df77c5bbba8154a026e71ab26ad0e2d28"),
    ("descend --b 5 --point 20,90 --m 3 --table",
     0, "", "6ba7a6139666f8a6be985dcac39ff13aeb5d3db4c374fb99846ed459d5ef89a8"),
    ("gen --b 5 --point 20,90 --max-m 4 --table",
     0, "", "0d2138df24c740645e1852c80696f062146749208a52d79bf60f2b800dd80476"),
]


def golden_argv(command, tmp_path):
    eigen = tmp_path / "eig.tsv"
    eigen.write_text(EIGEN_TABLE)
    return command.replace("{2P}", TWO_P).replace("{eigen}", str(eigen)).split()


@pytest.mark.parametrize("command, code, err, digest", GOLDEN, ids=["_".join(g[0].split()) for g in GOLDEN])
def test_golden_output(capsys, tmp_path, command, code, err, digest):
    assert main(golden_argv(command, tmp_path)) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", [g[0] for g in GOLDEN], ids=["_".join(g[0].split()) for g in GOLDEN])
def test_the_command_parser_reads_what_the_full_parser_reads(tmp_path, command):
    argv = golden_argv(command, tmp_path)
    args = vars(_parse_args(argv))
    assert args == vars(build_parser().parse_args(argv))
    assert args["command"] == argv[0]


def test_a_well_formed_command_skips_the_top_level_parse(capsys, monkeypatch):
    def full_parse(argv):
        raise AssertionError("the full parser ran")

    monkeypatch.setattr(build_parser(), "parse_args", full_parse)
    argv = ["ledger", "--b", "5", "--point", TWO_P, "--q", "2", "--c-config", "100"]
    assert run_json(capsys, argv)["k"] == "3"


@pytest.mark.parametrize("argv", [
    [],
    ["--help"],
    ["nope"],
    ["ledger"],
    ["ledger", "--help"],
    ["ledger", "--b", "5", "--point", TWO_P, "--q", "2", "--c-config", "100", "--bogus"],
    ["gen", "--b", "x", "--point", "20,90", "--max-m", "4"],
], ids=["empty", "help", "unknown-command", "ledger-bare", "ledger-help", "ledger-bogus", "gen-b-not-int"])
def test_usage_errors_and_help_match_the_full_parser(capsys, argv):
    # the same interpreter's argparse is the reference, so its usage text may
    # differ between Python versions
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    assert main(argv) == int(exc.value.code or 0)
    assert capsys.readouterr() == expected
    assert expected.err or expected.out.startswith("usage: edspower")


def _leaf_strings(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _leaf_strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from _leaf_strings(value)


@pytest.mark.parametrize("command", [
    "gen --b 5 --point 20,90 --max-m 6",
    "scan --b 5 --point 20,90 --max-m 10",
    "descend --b 5 --point 20,90 --m 2",
    "frey --a 1 --d 5 --u 79 --v 6881 --w 36 --ell 1 --prime 3",
    "frey --a 5 --d 1 --u 11834 --v 498029769 --w 19679 --ell 1 --prime 11",
    "ledger --b 5 --point {2P} --q 2 --c-config 100 --eigen-table {eigen}",
], ids=["gen", "scan", "descend", "frey-prime-3", "frey-sqrt5-prime-11", "ledger-eigen-table"])
def test_table_renders_every_json_value(capsys, tmp_path, command):
    # --table is the same document as the JSON, so no value may go missing
    argv = golden_argv(command, tmp_path)
    doc = run_json(capsys, argv)
    assert main(argv + ["--table"]) == 0
    table = capsys.readouterr().out
    for key in ("tool", "command", "integer_encoding"):
        del doc[key]
    missing = [leaf for leaf in _leaf_strings(doc) if leaf not in table]
    assert not missing


def assert_writer_matches_oracle(result):
    # decimal strings of any length, as main allows for the call
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert _json(result) == json.dumps(stringify_oracle(result), indent=2)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("command", [g[0] for g in GOLDEN if g[1] == 0],
                         ids=["_".join(g[0].split()) for g in GOLDEN if g[1] == 0])
def test_json_writer_matches_the_oracle_on_golden_results(tmp_path, command):
    args = build_parser().parse_args(golden_argv(command, tmp_path))
    assert_writer_matches_oracle(args.handler(args))


def test_json_writer_matches_the_oracle_on_every_leaf_kind():
    assert_writer_matches_oracle({
        "empty": ((), {}, frozenset(), []),
        "literals": [None, True, False],
        "numbers": (0, -7, 10**40, Fraction(-3, 8), Fraction(6, 2), frozenset({12, -3, 5})),
        "enums": [SplitType.SPLIT, Reduction.MULTIPLICATIVE],
        "elements": (QuadElement(5, 3, -2), QuadElement(1, 4, 2), QuadElement(7, 0)),
        "strings": ['say "hi"', "back\\slash", "two\nlines", "tab\tand \u00e9 \u221a \U0001d53d", ""],
        "nested": {"term": EDSTerm(2, 6241, 36, 543599), "deeper": {"x": [{}, [[]], {"y": ()}]}},
        'key "quoted" \u00e9': "value",
    })
