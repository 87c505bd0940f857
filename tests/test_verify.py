"""Verification layer: digit-agreement comparison, report serialization,
suite determinism, and the perturbation controls that prove the evaluators
would catch a wrong identity."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

import oracles
from qprod import products, verify
from qprod.characters import enumerate_characters
from qprod.products import IdentitySpec, eval_rhs, random_cor2_instance, random_thm1_instance
from qprod.qfunc import Precision, context, working_eps
from qprod.verify import (
    VerificationReport,
    compare,
    default_suite,
    reports_csv,
    reports_json,
    run_identity,
    run_suite,
    summarize,
)

CHI4 = enumerate_characters(4)[1]


def _frac_parts(s):
    """Exact (re, im) Fractions from an 'a', 'a+bi', or 'a-bi' decimal string."""
    if s.endswith("i"):
        core = s[:-1]
        for pos in range(len(core) - 1, 0, -1):
            if core[pos] in "+-":
                return Fraction(core[:pos]), Fraction(core[pos:])
    return Fraction(s), Fraction(0)


def test_compare_equal_values():
    r = compare(1, 1, 40, Precision(50))
    assert r.passed and not r.vacuous
    assert r.digits_agreed == 60  # clipped at working digits incl. guard
    assert r.rel_diff == "0.0"


def test_compare_graded_disagreement():
    # a value off by 1e-30, constructed at full working precision
    ctx = context(Precision(50))
    b = 1 + ctx.mpf(10) ** -30
    r = compare(1, b, 40, Precision(50))
    assert r.digits_agreed == 30 and not r.passed
    r2 = compare(1, b, 25, Precision(50))
    assert r2.passed
    assert r2.tolerance_digits == 25


def test_backed_digits_are_exact_on_the_decimal_string():
    for text, digits in (("1.0e-40", 40), ("9.99e-40", 39), ("1.0000001e-40", 39),
                         ("0.0062011084", 2), ("1.0", 0), ("0.0", None)):
        assert verify._backed_digits(products.EvalInfo(rel_error_estimate=text)) == digits
    assert verify._backed_digits(products.EvalInfo(terms=5)) is None


def test_compare_total_disagreement_clips_to_zero():
    r = compare(1, -1, 10, Precision(50))
    assert r.digits_agreed == 0 and not r.passed


def test_compare_vacuous():
    # two tiny sides agree only to the digits they share; only two exact
    # zeros are vacuous
    r = compare("1e-60", "2e-60", 40, Precision(50))
    assert not r.vacuous and not r.passed
    assert r.rel_diff == "0.5" and r.digits_agreed == 0
    r = compare("1e-60", "1.0000000001e-60", 10, Precision(50))
    assert not r.vacuous and r.passed and r.digits_agreed == 10
    r = compare(0, 0, 40, Precision(50))
    assert r.vacuous and r.passed
    assert r.rel_diff == "0.0" and r.digits_agreed == 60


def test_report_json_shape():
    r = compare(1, 1, 40, Precision(50), identity="X", params={"a": 1})
    obj = r.to_json()
    assert obj["identity"] == "X"
    assert obj["pass"] is True
    assert set(obj) == {
        "identity", "params", "lhs", "rhs", "abs_diff", "rel_diff",
        "digits_agreed", "tolerance_digits", "pass", "vacuous", "error",
        "elapsed_ms",
    }


def test_run_identity_records_character_facts():
    spec = IdentitySpec(id="THM5", chi=CHI4, z="0.5", q="0.3", prec=Precision(50))
    r = run_identity(spec, 40)
    assert r.passed
    assert r.params["chi"]["conductor"] == 4
    assert r.params["chi"]["primitive"] is True
    assert r.params["lhs_terms"] > 0
    assert r.elapsed_ms >= 0


def test_run_identity_error_becomes_failing_report():
    spec = IdentitySpec(id="COR2", alphas=("0.5",), betas=("0.6",), terms=1000)
    r = run_identity(spec, 4)
    assert not r.passed
    assert r.error.startswith("ValueError")
    assert "converge" in r.error


def test_run_suite_sorted_and_total():
    entries = [
        (IdentitySpec(id="EX1B", prec=Precision(50)), 40),
        (IdentitySpec(id="COR2", alphas=("0.5",), betas=("0.6",), terms=1000), 4),
        (IdentitySpec(id="EX1A", prec=Precision(50)), 40),
    ]
    reports = run_suite(entries)
    assert [r.identity for r in reports] == ["COR2", "EX1A", "EX1B"]
    s = summarize(reports)
    assert s == {"total": 3, "passed": 2, "failed": 1}
    assert run_suite([]) == []


def test_perturbed_q_fails():
    good = IdentitySpec(id="THM5", chi=CHI4, z="0.5", q="0.3", prec=Precision(50))
    assert run_identity(good, 40).passed
    ctx = context(Precision(50))
    lhs = products.eval_lhs(good)
    nudged = IdentitySpec(id="THM5", chi=CHI4, z="0.5", q="0.3000000001",
                          prec=Precision(50))
    r = compare(lhs, eval_rhs(nudged), 40, Precision(50), identity="THM5")
    assert not r.passed
    assert r.digits_agreed < 12


def test_perturbed_z_fails():
    good = IdentitySpec(id="THM5", chi=CHI4, z="0.5", q="0.3", prec=Precision(50))
    lhs = products.eval_lhs(good)
    nudged = IdentitySpec(id="THM5", chi=CHI4, z="0.5000000001", q="0.3",
                          prec=Precision(50))
    r = compare(lhs, eval_rhs(nudged), 40, Precision(50), identity="THM5")
    assert not r.passed
    assert r.digits_agreed < 12


def test_perturbed_character_value_fails():
    prec = Precision(50)
    ctx = context(prec)
    spec = IdentitySpec(id="THM5", chi=CHI4, z="0.5", q="0.3", prec=prec)
    rhs = eval_rhs(spec)
    fake = oracles.NudgedCharacter(CHI4, 3, "1e-10")
    q = ctx.mpf(3) / 10
    z = ctx.mpf(1) / 2
    lhs, _ = products._char_shift_lhs(fake, z, q, ctx, working_eps(ctx))
    r = compare(lhs, rhs, 40, prec, identity="THM5")
    assert not r.passed
    assert r.digits_agreed < 15
    # sanity: the same call with delta 0 reproduces the true left side
    clean, _ = products._char_shift_lhs(oracles.NudgedCharacter(CHI4, 3, "0"), z, q, ctx,
                                        working_eps(ctx))
    assert compare(clean, rhs, 40, prec).passed


def test_reports_json_deterministic():
    entries = [
        (IdentitySpec(id="EX1A", prec=Precision(50)), 40),
        (IdentitySpec(id="THM5", chi=CHI4, z="0.5", q="0.3", prec=Precision(50)), 40),
    ]

    def frozen(reports):
        return reports_json([dataclasses.replace(r, elapsed_ms=0) for r in reports])

    one = frozen(run_suite(entries))
    two = frozen(run_suite(list(reversed(entries))))
    assert one == two
    payload = json.loads(one)
    assert payload["summary"] == {"total": 2, "passed": 2, "failed": 0}
    assert [r["identity"] for r in payload["reports"]] == ["EX1A", "THM5"]


def test_reports_csv_shape():
    reports = run_suite([(IdentitySpec(id="EX1B", prec=Precision(50)), 40)])
    text = reports_csv(reports)
    lines = text.strip().splitlines()
    assert lines[0].startswith("identity,")
    assert len(lines) == 2
    assert lines[1].startswith("EX1B,")


def test_csv_columns_are_the_json_keys_in_order():
    report = compare(1, 1, 40, Precision(50), identity="X")
    header = reports_csv([report]).splitlines()[0]
    assert header.split(",") == list(report.to_json())
    # every field of the report, `passed` written as "pass"
    assert [f.name for f in dataclasses.fields(VerificationReport)] == [
        "passed" if k == "pass" else k for k in report.to_json()]


def test_random_thm1_instances_balance_exactly():
    rng = random.Random(99)
    for _ in range(50):
        alphas, betas = random_thm1_instance(rng)
        parts_a = [_frac_parts(a) for a in alphas]
        parts_b = [_frac_parts(b) for b in betas]
        assert sum(r for r, _ in parts_a) == sum(r for r, _ in parts_b)
        assert sum(i for _, i in parts_a) == sum(i for _, i in parts_b)
        assert 2 <= len(alphas) == len(betas) <= 4
        assert all(Fraction(1, 5) <= r <= 3 for r, _ in parts_a + parts_b)
        assert sorted(alphas) != sorted(betas)


def test_random_cor2_instances_balance_exactly():
    rng = random.Random(7)
    for _ in range(50):
        alphas, betas = random_cor2_instance(rng)
        sa = sum(Fraction(a) for a in alphas)
        sb = sum(Fraction(b) for b in betas)
        assert sa == sb
        assert all(Fraction(e) > 0 for e in alphas + betas)
        assert 2 <= len(alphas) == len(betas) <= 4
        assert sorted(map(Fraction, alphas)) != sorted(map(Fraction, betas))


class ScriptedRandom:
    """A stand-in for random.Random whose randint returns the scripted values in turn."""

    def __init__(self, values):
        self.values = iter(values)

    def randint(self, lo, hi):
        value = next(self.values)
        assert lo <= value <= hi
        return value


def test_balanced_draws_redraw_a_reordering():
    # the first draw balances into the alphas reordered, the second does not
    e = 10**8  # 0.1 in the generators' units of 10^-9
    rng = ScriptedRandom([2, 5 * e, 7 * e, 7 * e,
                          2, 5 * e, 7 * e, 6 * e])
    assert random_cor2_instance(rng) == (("0.500000000", "0.700000000"),
                                         ("0.600000000", "0.600000000"))
    # THM1 draws the real parts, then the imaginary parts
    rng = ScriptedRandom([2, 5 * e, 7 * e, e, -e, 7 * e, -e,
                          2, 5 * e, 7 * e, e, -e, 6 * e, 0])
    assert random_thm1_instance(rng) == (("0.500000000+0.100000000i", "0.700000000-0.100000000i"),
                                         ("0.600000000", "0.600000000"))


def test_default_suite_composition():
    entries = default_suite()
    assert len(entries) == 600
    counts: dict = {}
    for spec, tol in entries:
        counts[spec.id] = counts.get(spec.id, 0) + 1
        assert tol >= 4
    assert counts["THM1"] == 60
    assert counts["COR2"] == 11
    assert counts["THM3_FULL"] == counts["THM3_COPRIME"] == 55
    assert counts["THM5"] == counts["COR6"] == 204
    assert counts["THM4"] == 2
    assert counts["PROTOTYPE"] == 1
    for ex in ("EX1A", "EX1B", "EX2A", "EX2B",
               "JACKSON1", "JACKSON2", "JACKSON3", "JACKSON4"):
        assert counts[ex] == 1


def test_default_suite_seeded_and_filterable():
    a = default_suite()
    b = default_suite()
    assert [(s.to_json(), t) for s, t in a] == [(s.to_json(), t) for s, t in b]
    only = default_suite(include=("EX1A", "THM4"))
    assert sorted({s.id for s, _ in only}) == ["EX1A", "THM4"]
    assert len(only) == 3
    # smaller knobs produce a smaller run without changing shape
    quick = default_suite(include=("THM4",), counts={"THM4": 1000})
    assert all(s.blocks == 1000 for s, _ in quick)


def test_default_suite_takes_a_bare_string_as_one_id():
    # a string is iterable, but names one identity, not one per letter
    assert default_suite(include="thm4") == default_suite(include=("THM4",))


def test_default_suite_counts_are_keyed_by_id_and_checked():
    # keyed in any spelling identity_id accepts; a count replaces its record's default
    plan = default_suite(include=("prototype", "cor2"), counts={"Prototype": 20, "cor2": 30})
    assert [s.terms for s, _ in plan] == [20] + [30] * 11
    # a count of 0 reaches the spec, which refuses it, rather than falling back to the default
    with pytest.raises(ValueError, match="^terms must be an integer >= 10, got 0$"):
        default_suite(include=("COR2",), counts={"cor2": 0})
    with pytest.raises(ValueError, match="^unknown identity id\\(s\\): THM9$"):
        default_suite(counts={"thm9": 10})
    with pytest.raises(ValueError, match="^identity id\\(s\\) without a term or block count: THM1$"):
        default_suite(counts={"thm1": 10})


def test_every_default_suite_spec_has_its_own_json():
    # reports are told apart by their identity and params, the spec's JSON
    specs = [spec for spec, _ in default_suite()]
    assert len({json.dumps(spec.to_json(), sort_keys=True) for spec in specs}) == len(specs) == 600


def test_default_suite_rejects_unknown_ids():
    with pytest.raises(ValueError, match="^unknown identity id\\(s\\): NOPE, THM9$"):
        default_suite(include=("THM1", "THM9", "nope"))
    with pytest.raises(ValueError, match="THM9"):
        default_suite(include=(i for i in ("thm1", "thm9")))


def test_default_plan_has_no_vacuous_balanced_entry():
    # betas that reorder the alphas make both sides exactly 1
    entries = default_suite(include=("THM1", "COR2"))
    assert len(entries) == 71
    for spec, _ in entries:
        assert len(spec.alphas) >= 2
        assert sorted(spec.alphas) != sorted(spec.betas)


def test_default_plan_is_pinned():
    # sha256 of the plan's sorted (spec, tolerance) rows, 600 entries; the
    # PROTOTYPE, COR2 and THM4 entries ask for 22 digits at 30 (6, 4 and 5 before
    # their left sides were extrapolated)
    rows = sorted(json.dumps([spec.to_json(), tol], sort_keys=True) for spec, tol in default_suite())
    assert len(rows) == 600
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "d3c71bf4ec30c98c9c24f764624531fdf8bee8135e097cff9beda9df1a3fb1d3"
    # filtering draws the same instances
    cor2 = [(s.to_json(), t) for s, t in default_suite() if s.id == "COR2"]
    assert [(s.to_json(), t) for s, t in default_suite(include=("COR2",))] == cor2
