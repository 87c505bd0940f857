"""Command-line interface: exit codes, output formats, and agreement with
the library API, exercised in-process through main(argv), plus one run of
`python -m qprod` in a subprocess."""

import json
import os
import re
import subprocess
import sys

import pytest

import oracles
from qprod.characters import enumerate_characters
from qprod import cli, products, qfunc, verify
from qprod.cli import main
from qprod.numtheory import psi_by_definition
from qprod.products import IdentitySpec
from qprod.qfunc import Precision, qgamma, qpochhammer


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert "usage: qprod" in out


def test_missing_subcommand_is_usage_error(capsys):
    code, out, err = run(capsys)
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = run(capsys, "chars", "--modulus", "4", "--badflag", "1")
    assert code == 2


def test_eval_gamma_matches_oracle(capsys):
    code, out, err = run(capsys, "eval", "gamma", "--x", "0.25", "--digits", "60")
    assert code == 0
    assert out.strip()[:50] == oracles.GAMMA_QUARTER[:50]


def test_eval_qgamma_matches_api(capsys):
    code, out, err = run(capsys, "eval", "qgamma", "--x", "0.5", "--q", "0.5")
    assert code == 0
    from qprod.qfunc import hp_str
    assert out.strip() == hp_str(qgamma("0.5", "0.5", Precision(50)), 50)


# 2^-30 from a pole, exact in binary: forming 1 - q^(x + n) cancels about 9
# digits, more than a guard of 2, so the value is recomputed with more digits
NEAR_POLE = [
    (("eval", "qgamma", "--x=-0.999999999068677425384521484375", "--q", "0.5", "--digits", "30"),
     "-387270501.643293750183490102158"),
    (("eval", "product-rhs", "--id", "thm5", "--modulus", "3", "--char-index", "1", "--q", "0.5",
      "--z=-1.999999999068677425384521484375", "--digits", "30"),
     "8.10780681233357902976902495091e-10"),
]


@pytest.mark.parametrize("argv,value", NEAR_POLE)
def test_eval_near_a_pole_recomputes_at_the_given_guard(capsys, argv, value):
    for guard in ("2", "20"):
        code, out, err = run(capsys, *argv, "--guard", guard)
        assert code == 0
        assert out.strip() == value


def test_eval_accepts_exponential_literal(capsys):
    code, out, err = run(capsys, "eval", "qgamma", "--x", "0.5", "--q", "e^-pi",
                         "--digits", "40")
    assert code == 0
    from qprod.qfunc import context, hp_str
    ctx = context(Precision(40))
    expect = qgamma("0.5", ctx.exp(-ctx.pi), Precision(40))
    assert out.strip() == hp_str(expect, 40)


def test_eval_qpoch_infinite_and_finite(capsys):
    code, out, err = run(capsys, "eval", "qpoch", "--a", "0.5", "--q", "0.5",
                         "--digits", "60")
    assert code == 0
    assert out.strip()[:55] == oracles.QP_HALF_HALF[:55]
    code, out, err = run(capsys, "eval", "qpoch", "--a", "0.5", "--q", "0.5",
                         "--pochhammer-n", "2")
    assert code == 0
    from qprod.qfunc import hp_str
    assert out.strip() == hp_str(qpochhammer("0.5", "0.5", 2), 50)


def test_eval_rejects_bad_q(capsys):
    code, out, err = run(capsys, "eval", "qgamma", "--x", "0.5", "--q", "1.5")
    assert code == 2
    assert "error:" in err


def test_eval_product_lhs_json(capsys):
    code, out, err = run(capsys, "eval", "product-lhs", "--id", "thm5",
                         "--modulus", "4", "--char-index", "1",
                         "--q", "0.3", "--z", "0.5", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["operation"] == "product-lhs"
    assert obj["terms"] > 0
    assert obj["params"]["id"] == "THM5"
    assert obj["value"].startswith("1.")


def test_eval_product_sides_agree(capsys):
    args = ("--id", "ex2b", "--digits", "60")
    _, lhs, _ = run(capsys, "eval", "product-lhs", *args)
    _, rhs, _ = run(capsys, "eval", "product-rhs", *args)
    assert lhs.strip()[:55] == rhs.strip()[:55]


def test_chars_text_table(capsys):
    code, out, err = run(capsys, "chars", "--modulus", "4")
    assert code == 0
    assert "modulus 4: 2 character(s)" in out
    assert "#1" in out and "primitive" in out and "principal" in out
    assert "1, 0, -1, 0" in out


def test_chars_json_roundtrip(capsys):
    code, out, err = run(capsys, "chars", "--modulus", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [(c["modulus"], c["exponents"]) for c in payload["characters"]] == [
        (8, list(chi.exponents)) for chi in enumerate_characters(8)]


def test_chars_index_out_of_range(capsys):
    code, out, err = run(capsys, "chars", "--modulus", "4", "--char-index", "9")
    assert code == 2
    assert "out of range" in err


def test_psi_text_forms(capsys):
    code, out, err = run(capsys, "psi", "--n", "12")
    assert code == 0
    assert "Psi_12(x) = 1 - x + x^2" in out
    assert "Phi_6(x)" in out and "radical 6" in out
    code, out, err = run(capsys, "psi", "--n", "2")
    assert code == 0
    assert "Phi_2(x)^-1" in out
    code, out, err = run(capsys, "psi", "--n", "1")
    assert code == 0
    assert "-Phi_1(x)" in out


def test_psi_json(capsys):
    code, out, err = run(capsys, "psi", "--n", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["radical"] == 6
    assert payload["mobius_radical"] == 1
    assert payload["reduced_exponent"] == 1
    assert payload["psi"] == psi_by_definition(6).to_json()


def test_verify_pass_json(capsys):
    code, out, err = run(capsys, "verify", "--id", "ex1b", "--digits", "60",
                         "--tolerance", "40", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["digits_agreed"] >= 40
    assert obj["identity"] == "EX1B"


def test_verify_case_insensitive_id_with_hyphen(capsys):
    code, out, err = run(capsys, "verify", "--id", "thm3-full", "--n", "3",
                         "--q", "0.5")
    assert code == 0
    assert "PASS" in out


def test_verify_mismatch_exits_one(capsys):
    code, out, err = run(capsys, "verify", "--id", "thm1",
                         "--alphas", "0.5", "--betas", "0.6", "--q", "0.5")
    assert code == 1
    assert "FAIL" in out


def test_verify_thm4_default_tolerance_follows_blocks(capsys):
    # 200 blocks, extrapolated, agree to 16 digits, inside their own error
    # estimate of 4.3e-15; the default tolerance is one digit less than that
    # estimate backs, not the 22 digits the suite asks at 30
    code, out, err = run(capsys, "verify", "--id", "thm4", "--modulus", "4",
                         "--char-index", "1", "--z", "0.5", "--blocks", "200",
                         "--digits", "30")
    assert code == 0
    assert "(tolerance 13)" in out and "PASS" in out


def test_verify_default_tolerance_is_at_least_one_digit(capsys):
    # at z = 1000 a thousand blocks leave an estimate of 0.41, which backs no
    # digit; the sides are e+186 against -0.001, so a default of 0 digits
    # would pass them
    code, out, err = run(capsys, "verify", "--id", "thm4", "--modulus", "4",
                         "--char-index", "1", "--z", "1000", "--blocks", "1000",
                         "--digits", "30")
    assert code == 1
    assert "digits agreed: 0 (tolerance 1)" in out
    assert "backs 0 digits, fewer than the tolerance 1" in out and "FAIL" in out


def test_verify_compares_tiny_sides_by_their_digits(capsys):
    # Gamma(50)^2 / Gamma(99), about 3.9e-29, is below 10^-20 on both sides,
    # and they agree to 22 digits of it, not vacuously
    code, out, err = run(capsys, "verify", "--id", "cor2", "--alphas", "1,99",
                         "--betas", "50,50", "--terms", "100000", "--digits", "20")
    assert code == 0
    assert "digits agreed: 22 (tolerance 12)" in out.splitlines()
    assert "vacuous" not in out and "PASS" in out


def test_text_report_notes_a_vacuous_comparison():
    text = cli._format_report_text(verify.compare(0, 0, 10))
    assert "note:          vacuous comparison (both sides exactly 0)" in text.splitlines()
    assert "PASS" in text


def test_verify_fails_tiny_sides_near_a_pole(capsys):
    # z = 5 - 10^-58 is within 10^-58 of THM5's pole for the character mod
    # 4: both sides are about 7.7e-59 and differ in the 10th digit
    code, out, err = run(capsys, "verify", "--id", "thm5", "--modulus", "4", "--char-index", "1",
                         "--q", "0.5", "--z", "4." + "9" * 58, "--digits", "50")
    assert code == 1
    assert "digits agreed: 9 (tolerance 40)" in out.splitlines()
    assert "vacuous" not in out and "FAIL" in out


@pytest.mark.parametrize("argv", [
    "--id thm5 --modulus 4 --char-index 1 --z 0.5 --q 0.5 --digits 30",
    "--id ex1a --digits 30",
    "--id cor2 --alphas 0.5,0.5 --betas 0.25,0.75 --terms 100",
    "--id thm4 --modulus 4 --char-index 1 --z 0.5 --blocks 10 --digits 30",
    "--id thm4 --modulus 4 --char-index 1 --z 0 --blocks 10",  # an estimate of 0
    "--id prototype --terms 10 --digits 30",
])
def test_verify_default_tolerance_follows_precision_and_estimate(capsys, argv):
    # the default asks for no more digits than the precision carries, nor
    # more than the left side's own error estimate backs
    code, out, err = run(capsys, "verify", *argv.split())
    assert code == 0, out
    assert "PASS" in out


def test_verify_unknown_id(capsys):
    code, out, err = run(capsys, "verify", "--id", "nope")
    assert code == 2
    assert "unknown identity id" in err


def test_verify_missing_char_index(capsys):
    code, out, err = run(capsys, "verify", "--id", "thm5", "--modulus", "4",
                         "--q", "0.3", "--z", "0.5")
    assert code == 2
    assert "--char-index" in err


def test_verify_csv_format(capsys):
    code, out, err = run(capsys, "verify", "--id", "ex1a", "--digits", "50",
                         "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("identity,")
    assert lines[1].startswith("EX1A,")


def test_suite_subset(capsys):
    code, out, err = run(capsys, "suite", "--only", "EX1A,EX1B,JACKSON2")
    assert code == 0
    assert "summary: 3/3 passed, 0 failed" in out
    assert out.count("PASS") == 3


def test_suite_only_accepts_the_verify_id_spellings(capsys):
    # lower case and '-' for '_', as `verify --id thm3-full` takes them
    code, out, err = run(capsys, "suite", "--only", "thm3-full,Jackson2")
    assert code == 0, err
    assert "summary: 56/56 passed, 0 failed" in out


def test_suite_unknown_only(capsys):
    code, out, err = run(capsys, "suite", "--only", "BOGUS")
    assert code == 2
    assert err == "error: unknown identity id(s): BOGUS\n"


@pytest.mark.parametrize("only", [",", " ", ""])
def test_suite_only_naming_no_identity_is_usage_error(capsys, only):
    code, out, err = run(capsys, "suite", "--only", only)
    assert code == 2 and out == ""
    assert err == f"error: --only {only!r} names no identity id\n"


@pytest.mark.parametrize("argv,message", [
    ("verify --q 0.5", "--id is required"),
    ("verify --id thm5 --modulus 4 --char-index 9 --q 0.3 --z 0.5",
     "--char-index 9 out of range; modulus 4 has 2 characters"),
    ("verify --id thm1 --q 0.5", "THM1 needs equal-length non-empty alphas and betas"),
    ("eval qgamma --q 0.5", "qgamma needs --x"),
    ("eval qgamma --x 0.5", "qgamma needs --q"),
    ("eval qpoch --q 0.5", "qpoch needs --a and --q"),
    ("eval qpoch --a 0.5 --q 0.5 --pochhammer-n 1.5", "--pochhammer-n must be a non-negative integer or 'inf'"),
    ("chars --modulus 0", "--modulus must be a positive integer"),
    ("psi --n 0", "--n must be a positive integer"),
    # numeric inputs are parsed and q is checked when the spec is built
    ("verify --id thm3-full --n 2 --q abc", "cannot interpret 'abc' as a number"),
    ("verify --id thm3-full --n 2 --q 1.5", "q must satisfy 0 < q < 1, got '1.5'"),
    ("verify --id thm5 --modulus 4 --char-index 1 --q 0.5 --z 0.5+", "cannot interpret '0.5+' as a number"),
    # an entry x+0i meets the real x's rules
    ("verify --id cor2 --alphas=-2+0i,3 --betas 0.25,0.75 --terms 1000 --digits 20",
     "COR2 entries must avoid non-positive integers, got '-2+0i'"),
])
def test_usage_errors_exit_two_with_a_message(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("error", [OverflowError("int too large to convert to float"),
                                   ZeroDivisionError("division by zero")])
def test_evaluator_arithmetic_errors_exit_two_with_a_message(capsys, monkeypatch, error):
    # exit code 1 is kept for a failed verification, so an evaluator's
    # arithmetic error is reported like any other argument error
    def raises(*args):
        raise error

    monkeypatch.setattr(cli, "qgamma", raises)
    code, out, err = run(capsys, "eval", "qgamma", "--x", "0.5", "--q", "0.5")
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_extreme_magnitudes_decide_their_factor_counts(capsys):
    # q^x about 2^(-1.4e400) needs no factor of (q^x; q)_inf; at x = -1e400 the
    # count, about 10^400, is refused by the work budget
    code, out, err = run(capsys, "eval", "qgamma", "--x", "1e400", "--q", "0.5")
    assert code == 0 and err == "" and "e+3010299956639811952137388947244930267681898814621085" in out
    code, out, err = run(capsys, "eval", "qgamma", "--x=-1e400", "--q", "0.5")
    assert code == 2 and out == ""
    assert err.startswith("error: 9999999999") and err.endswith(" factors exceed the work budget of "
                                                                f"{qfunc._WORK_BUDGET} factors\n")
    code, out, err = run(capsys, "verify", "--id", "thm1", "--alphas", "1e400,1", "--betas", "1e400,1",
                         "--q", "0.5", "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["pass"] and report["digits_agreed"] == 60


def test_chars_single_character(capsys):
    code, out, err = run(capsys, "chars", "--modulus", "8", "--char-index", "2")
    assert code == 0
    assert out.splitlines() == [
        "modulus 8: 4 character(s), showing #2",
        "  #2: exponents (1, 0), order 2, conductor 4, imprimitive",
        "      chi(1..8) = 1, 0, -1, 0, 1, 0, -1, 0",
    ]


def test_eval_counted_product_json_has_its_estimate(capsys):
    code, out, err = run(capsys, "eval", "product-lhs", "--id", "prototype", "--terms", "100",
                         "--digits", "30", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == 100
    # the raw product's bound is 0.0062011084; five levels of extrapolation
    assert obj["rel_error_estimate"] == "6.5294275e-8"
    assert obj["extrapolation_level"] == 5


def test_verify_text_report_names_the_error(capsys):
    # 1 - chi(3) z / 3 vanishes for the character mod 4 at z = -3
    code, out, err = run(capsys, "verify", "--id", "thm4", "--modulus", "4", "--char-index", "1",
                         "--z", "-3", "--blocks", "10", "--digits", "30")
    assert code == 1
    assert ("error:         SingularArgumentError: factor 1 - chi(n) z / n vanishes at n = 3"
            in out.splitlines())
    assert "FAIL" in out


def test_suite_text_lines_name_the_character_and_length(capsys):
    # 1e4 blocks and terms back the suite's 22 digits at 30
    code, out, err = run(capsys, "suite", "--only", "thm4", "--thm4-blocks", "10000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith(" z=0.5 blocks=10000 chi=mod3#[1]")
    assert lines[1].endswith(" z=0.5 blocks=10000 chi=mod4#[1]")
    code, out, err = run(capsys, "suite", "--only", "cor2", "--cor2-terms", "10000")
    assert code == 0
    lines = out.splitlines()[:-1]
    assert len(lines) == 11
    assert all(" terms=10000 len=" in line for line in lines)


def test_suite_at_too_few_blocks_fails_and_says_why(capsys):
    # 200 blocks back 14 digits, fewer than the 22 the suite asks at 30
    code, out, err = run(capsys, "suite", "--only", "thm4", "--thm4-blocks", "200")
    assert code == 1
    lines = out.splitlines()
    assert lines[1].startswith("FAIL THM4          agreed= 16 tol=22 ")
    assert lines[1].endswith(" error=the left side's error estimate 4.285273e-15 backs 14 digits, "
                             "fewer than the tolerance 22")


def test_suite_count_of_zero_is_refused_not_replaced(capsys):
    # a count of 0 reaches the spec, which refuses it, rather than falling back to the default
    code, out, err = run(capsys, "suite", "--only", "thm4", "--thm4-blocks", "0")
    assert code == 2
    assert out == ""
    assert err == "error: blocks must be an integer >= 2, got 0\n"


def test_suite_help_lists_one_count_flag_per_counted_record(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    code, out, err = run(capsys, "suite", "--help")
    assert code == 0
    flags = re.findall(r"^  (--[a-z0-9-]+-(?:terms|blocks)) N +(.*)$", out, re.MULTILINE)
    assert flags == [("--prototype-terms", "PROTOTYPE terms (default 1000000)"),
                     ("--cor2-terms", "COR2 terms (default 100000)"),
                     ("--thm4-blocks", "THM4 blocks (default 1000000)")]


def test_a_new_counted_record_needs_no_other_edit(monkeypatch, capsys):
    seen = []

    def toy_suite(ident, rng, terms):
        seen.append(terms)
        return [IdentitySpec(ident, terms=terms, prec=Precision(30))]

    proto = products.IDENTITIES["PROTOTYPE"]
    monkeypatch.setitem(products.IDENTITIES, "TOY",
                        products.Identity(proto.lhs, proto.rhs, toy_suite, takes=("terms",), count=500))
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, "suite", "--help")
    assert code == 0
    assert re.search(r"^  --toy-terms N +TOY terms \(default 500\)$", out, re.MULTILINE)
    entries = verify.default_suite(include=("toy",), counts={"TOY": 30})
    assert seen == [30]
    assert [spec.terms for spec, _ in entries] == [30]
    code, out, err = run(capsys, "suite", "--only", "toy", "--toy-terms", "5")
    assert (code, err) == (2, "error: terms must be an integer >= 10, got 5\n")
    assert seen == [30, 5]


def test_suite_json_to_stdout(capsys):
    code, out, err = run(capsys, "suite", "--only", "EX1A,JACKSON2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"total": 2, "passed": 2, "failed": 0}
    assert [r["identity"] for r in payload["reports"]] == ["EX1A", "JACKSON2"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--id", "ex1b", "--format", "json",
                         "--out", str(target))
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["identity"] == "EX1B"
    target2 = tmp_path / "suite.csv"
    code, out, err = run(capsys, "suite", "--only", "EX1A", "--format", "csv",
                         "--out", str(target2))
    assert code == 0
    assert "wrote 1 report(s)" in out
    assert target2.read_text().startswith("identity,")


def test_digits_flag_controls_output_length(capsys):
    _, narrow, _ = run(capsys, "eval", "gamma", "--x", "0.25", "--digits", "30")
    _, wide, _ = run(capsys, "eval", "gamma", "--x", "0.25", "--digits", "70")
    assert len(wide.strip()) > len(narrow.strip())
    # identical up to the final rounded digit of the narrow run
    assert wide.strip()[:30] == narrow.strip()[:30]


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-m", "qprod", "suite", "--only", "EX1A"],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "1/1 passed" in done.stdout
