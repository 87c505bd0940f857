"""Identity evaluators: both sides of every registered identity agree, series
truncation is stable under refinement, and error estimates bound the truth:
for the counted products both the proven bound on the raw product at N and
the estimate of the extrapolated value."""

from fractions import Fraction

import mpmath
import pytest

import oracles
from qprod import products, verify
from qprod.characters import enumerate_characters
from qprod.products import (
    IDENTITIES,
    IDENTITY_IDS,
    EvalInfo,
    IdentitySpec,
    eval_lhs,
    eval_lhs_info,
    eval_rhs,
    eval_rhs_info,
)
from qprod.qfunc import Precision, SingularArgumentError, context, parse_number
from qprod.verify import run_identity

CHI4 = enumerate_characters(4)[1]
CHI5 = enumerate_characters(5)[1]  # quartic, complex values


def spec_for(identity, **kw):
    return IdentitySpec(id=identity, **kw)


def agree(spec, digits):
    lhs = eval_lhs(spec)
    rhs = eval_rhs(spec)
    return oracles.rel_diff(lhs, rhs) < 10.0 ** -digits


def test_identity_registry_is_complete():
    assert len(IDENTITY_IDS) == 16
    for identity in IDENTITY_IDS:
        kw = {}
        if identity in ("THM1",):
            kw = dict(alphas=("0.5",), betas=("0.5",), q="0.5")
        elif identity == "COR2":
            kw = dict(alphas=("0.5", "0.5"), betas=("0.25", "0.75"))
        elif identity in ("THM3_FULL", "THM3_COPRIME"):
            kw = dict(n=3, q="0.5")
        elif identity == "THM4":
            kw = dict(chi=CHI4, z="0.5", blocks=100)
        elif identity in ("THM5", "COR6"):
            kw = dict(chi=CHI4, z="0.5", q="0.5")
        spec = spec_for(identity, **kw)
        lv, li = eval_lhs_info(spec)
        rv, ri = eval_rhs_info(spec)
        assert isinstance(li, EvalInfo) and isinstance(ri, EvalInfo)


def test_prototype_error_estimate_bounds_truth():
    prec = Precision(30)
    target = oracles.parse_hp(oracles.PI_SQRT2_OVER_4, dps=40)
    spec = spec_for("PROTOTYPE", terms=10**4, prec=prec)
    raw, raw_info = products._prototype_lhs(spec, context(prec), extrapolate=False)
    actual = oracles.rel_diff(raw, target)
    assert raw_info.terms == 10**4 and raw_info.level == 0
    assert actual <= float(raw_info.rel_error_estimate)
    assert actual > float(raw_info.rel_error_estimate) / 50  # the bound is not absurdly loose
    # the extrapolated value: the same factors, 24 digits backed
    value, info = eval_lhs_info(spec)
    assert info.terms == 10**4 and info.level >= 8
    assert oracles.rel_diff(value, target) <= float(info.rel_error_estimate) < 1e-24
    rhs, rinfo = eval_rhs_info(spec)
    assert oracles.rel_diff(rhs, target) < 1e-35
    assert rinfo.terms == 0 and rinfo.rel_error_estimate is None


def test_thm1_sides_agree():
    prec = Precision(50)
    for q in ("0.1", "0.5", "0.9"):
        spec = spec_for(
            "THM1",
            alphas=("0.5", "1.25"), betas=("0.75", "1.0"),
            q=q, prec=prec,
        )
        assert agree(spec, 48)


def test_thm1_complex_entries():
    spec = spec_for(
        "THM1",
        alphas=("0.5+0.25i", "0.5-0.25i"), betas=("0.3", "0.7"),
        q="0.6", prec=Precision(50),
    )
    assert agree(spec, 48)


def test_thm1_unbalanced_sides_differ():
    # both sides are well-defined q-products for any exponents, but they only
    # coincide when the exponent sums balance and the (1-q) powers cancel
    good = spec_for("THM1", alphas=("0.3", "0.9"), betas=("0.4", "0.8"), q="0.5")
    assert oracles.rel_diff(eval_lhs(good), eval_rhs(good)) < 1e-45
    bad = spec_for("THM1", alphas=("0.3", "0.9"), betas=("0.4", "0.9"), q="0.5")
    assert oracles.rel_diff(eval_lhs(bad), eval_rhs(bad)) > 1e-3


def test_cor2_estimate_scaling():
    target = eval_rhs(spec_for("COR2", alphas=("0.5", "0.5"), betas=("0.25", "0.75")))
    errs = {}
    for n_terms in (10**3, 2 * 10**3, 10**4):
        spec = spec_for(
            "COR2", alphas=("0.5", "0.5"), betas=("0.25", "0.75"),
            terms=n_terms, prec=Precision(40),
        )
        raw, raw_info = products._cor2_lhs(spec, context(spec.prec), extrapolate=False)
        actual = oracles.rel_diff(raw, target)
        assert actual <= float(raw_info.rel_error_estimate)
        errs[n_terms] = actual
        value, info = eval_lhs_info(spec)
        assert oracles.rel_diff(value, target) <= float(info.rel_error_estimate) < actual / 10**10
    # the raw product's leading error term is O(1/N): doubling N roughly halves it
    ratio = errs[10**3] / errs[2 * 10**3]
    assert 1.6 < ratio < 2.4
    assert errs[10**4] < errs[10**3] / 8


def test_cor2_rejects_divergent_input():
    spec = spec_for("COR2", alphas=("0.5",), betas=("0.6",), terms=1000)
    with pytest.raises(ValueError, match="does not converge"):
        eval_lhs(spec)
    # the gamma side has no such constraint
    assert eval_rhs(spec) is not None
    # the sums are compared exactly: 10^-3 apart, the product diverges like N^-0.001,
    # yet at 10 digits with no guard its sides agree to 2
    spec = spec_for("COR2", alphas=("0.5", "0.5"), betas=("0.25", "0.751"), terms=1000,
                    prec=Precision(10, guard=0))
    report = run_identity(spec)
    assert not report.passed and "does not converge" in report.error
    # by real and imaginary part, and e^-k pi literals as a multiset
    for alphas, betas in ((("0.5+0.1i", "0.5"), ("0.25", "0.75")),
                          (("e^-pi", "e^-pi"), ("e^-2pi", "1"))):
        with pytest.raises(ValueError, match="does not converge"):
            eval_lhs(spec_for("COR2", alphas=alphas, betas=betas, terms=1000))
    spec = spec_for("COR2", alphas=("e^-pi", "0.5", "0.5"), betas=("0.25", "e^-pi", "0.75"),
                    terms=20000, prec=Precision(30))
    assert run_identity(spec).passed


def test_cor2_gamma_side_matches_oracle():
    # prod Gamma(beta)/Gamma(alpha) for alphas (1/2, 1/2), betas (1/4, 3/4):
    # Gamma(1/4) Gamma(3/4) / Gamma(1/2)^2 = (pi sqrt 2) / pi = sqrt 2
    ctx = context(Precision(50))
    rhs = eval_rhs(spec_for("COR2", alphas=("0.5", "0.5"), betas=("0.25", "0.75")))
    assert abs(rhs - ctx.sqrt(2)) < ctx.mpf(10) ** -55


def test_thm3_small_cases():
    prec = Precision(50)
    for n in (1, 2, 3, 7, 12):
        for q in ("0.2", "0.95"):
            spec = spec_for("THM3_FULL", n=n, q=q, prec=prec)
            assert agree(spec, 45), (n, q)
    for n in (2, 3, 7, 12):
        for q in ("0.2", "0.95"):
            spec = spec_for("THM3_COPRIME", n=n, q=q, prec=prec)
            assert agree(spec, 45), (n, q)


def test_thm3_variants_differ_for_composite_n():
    # full product over k = 1..n vs product over k coprime to n only
    full = eval_lhs(spec_for("THM3_FULL", n=6, q="0.5"))
    coprime = eval_lhs(spec_for("THM3_COPRIME", n=6, q="0.5"))
    assert oracles.rel_diff(full, coprime) > 0.01


def test_thm4_sides_agree_and_estimate_holds():
    for chi, z in ((CHI4, "0.5"), (CHI5, "0.25+0.25i")):
        spec = spec_for("THM4", chi=chi, z=z, blocks=2000, prec=Precision(30))
        target = eval_rhs(spec)
        value, info = eval_lhs_info(spec)
        actual = oracles.rel_diff(value, target)
        assert actual <= float(info.rel_error_estimate) < 1e-18
        raw, raw_info = products._thm4_lhs(spec, context(spec.prec), extrapolate=False)
        assert oracles.rel_diff(raw, target) <= float(raw_info.rel_error_estimate)
        assert oracles.rel_diff(raw, target) < 1e-3


def test_thm4_pole_at_z_one():
    spec = spec_for("THM4", chi=CHI4, z="1", blocks=100)
    with pytest.raises(SingularArgumentError):
        eval_rhs(spec)


def test_thm5_sides_agree():
    for chi in (CHI4, CHI5):
        for z in ("0.5", "-0.5", "0.25+0.25i"):
            spec = spec_for("THM5", chi=chi, z=z, q="0.3", prec=Precision(50))
            assert agree(spec, 45), (chi.modulus, z)


def test_thm5_refinement_stability():
    spec = spec_for("THM5", chi=CHI4, z="0.5", q="0.7", prec=Precision(50))
    v1, info = eval_lhs_info(spec)
    ctx = context(spec.prec)
    v2, info2 = oracles.char_shift_lhs_mpf(CHI4, ctx.mpf("0.5"), ctx.mpf("0.7"), ctx,
                                           min_terms=2 * info.terms)
    assert info2.terms >= 2 * info.terms
    assert oracles.rel_diff(v1, v2) < 10.0 ** -(50 - 5)


def test_thm5_pole_at_z_one():
    spec = spec_for("THM5", chi=CHI4, z="1", q="0.5")
    with pytest.raises(SingularArgumentError):
        eval_rhs(spec)


NEAR_POLE = [
    # beta_0 + 2 = 10^-64 and 1 - q^(1-z) about 7e-63 at q = 0.5: both below the
    # spec's epsilon 10^-60, though not below that of the side's wider context
    ("THM1", dict(alphas=("0.5", "0.5"), betas=("-1." + "9" * 64, "2." + "9" * 64), q="0.5"),
     eval_lhs, "vanishing factor 1 - q^(n + beta_0)"),
    ("THM5", dict(chi=CHI4, z="0." + "9" * 62, q="0.5"), eval_rhs,
     "1 - q^(1-z) vanishes (z too close to 1)"),
    ("COR6", dict(chi=CHI4, z="0." + "9" * 62, q="0.5"), eval_rhs,
     "1 - q^(1-z) vanishes (z too close to 1)"),
    # 1 - q^(n - chi(n) z) at n = 5, chi(5) = 1, is about 7e-63
    ("THM5", dict(chi=CHI4, z="4." + "9" * 62, q="0.5"), eval_lhs,
     "vanishing factor 1 - q^(n - chi(n) z) at n = 5"),
]


@pytest.mark.parametrize("identity,kw,side,message", NEAR_POLE)
def test_near_pole_checks_keep_the_spec_epsilon(identity, kw, side, message):
    # the sides run in split_context, but their pole checks keep the working
    # epsilon of the spec's own context
    spec = spec_for(identity, **kw)
    with pytest.raises(SingularArgumentError) as info:
        side(spec)
    assert str(info.value) == message
    assert run_identity(spec).error == f"SingularArgumentError: {message}"


def test_q_family_classes_agree_to_their_working_digits():
    # every side that takes q runs in split_context and is rounded once: the
    # last default-suite entry of each (identity, q) class agrees to every
    # working digit (rounded at every step, five THM3 classes' lost one)
    last = {}
    for spec, _ in verify.default_suite(("THM1", "THM3_FULL", "THM3_COPRIME", "THM5", "COR6")):
        last[spec.id, spec.q] = spec
    assert len(last) == 17
    digits = {key: (run_identity(spec).digits_agreed, spec.prec.workdps) for key, spec in last.items()}
    assert {key: d for key, d in digits.items() if d[0] != d[1]} == {}


def test_cor6_matches_thm5_rhs():
    # two closed forms for the same left-hand side
    for chi in (CHI4, CHI5):
        spec5 = spec_for("THM5", chi=chi, z="0.5", q="0.3", prec=Precision(60))
        spec6 = spec_for("COR6", chi=chi, z="0.5", q="0.3", prec=Precision(60))
        assert oracles.rel_diff(eval_rhs(spec5), eval_rhs(spec6)) < 1e-55
        assert agree(spec6, 55)


def test_examples_and_jackson_agree():
    # each special value's left side is its family's own, on fixed parameters
    prec = Precision(60)
    instances = {
        "EX1A": ("THM5", dict(chi=CHI4, q="e^-pi", z="1")),
        "EX1B": ("THM5", dict(chi=CHI4, q="e^-pi", z="-1")),
        "EX2A": ("THM5", dict(chi=CHI4, q="e^-2pi", z="1")),
        "EX2B": ("THM5", dict(chi=CHI4, q="e^-2pi", z="-1")),
        "JACKSON1": ("THM3_COPRIME", dict(n=4, q="e^-4pi")),
        "JACKSON2": ("THM3_COPRIME", dict(n=2, q="e^-4pi")),
        "JACKSON3": ("THM3_COPRIME", dict(n=2, q="e^-8pi")),
        "JACKSON4": ("THM3_COPRIME", dict(n=4, q="e^-8pi")),
    }
    for identity, (family, fixed) in instances.items():
        spec = spec_for(identity, prec=prec)
        assert agree(spec, 55), identity
        _, rinfo = eval_rhs_info(spec)
        assert rinfo.terms == 0  # closed form, no truncation
        expect = IDENTITIES[family].lhs(spec_for(family, prec=prec, **fixed), context(prec))
        assert eval_lhs_info(spec) == expect, identity
    # Gamma_q(1/4) Gamma_q(3/4) and Gamma_q(1/2): the factors THM3_COPRIME counts
    assert [eval_lhs_info(spec_for(f"JACKSON{i}", prec=prec))[1].terms for i in range(1, 5)] == [2, 1, 1, 2]


def test_validation_errors():
    with pytest.raises(ValueError, match="unknown identity"):
        spec_for("THM9")
    with pytest.raises(ValueError):
        spec_for("THM1", alphas=(), betas=(), q="0.5")
    with pytest.raises(ValueError):
        spec_for("THM1", alphas=("0.5",), betas=("0.5", "0.7"), q="0.5")
    with pytest.raises(ValueError):
        spec_for("COR2", alphas=("-1",), betas=("1",))
    with pytest.raises(ValueError):
        spec_for("THM3_FULL", n=0, q="0.5")
    with pytest.raises(ValueError):
        spec_for("THM3_FULL", q="0.5")  # missing n
    with pytest.raises(ValueError):
        spec_for("THM5", chi=enumerate_characters(4)[0], z="0.5", q="0.5")  # principal
    with pytest.raises(ValueError):
        spec_for("THM5", chi=enumerate_characters(2)[0], z="0.5", q="0.5")  # modulus 2
    with pytest.raises(ValueError):
        spec_for("EX1A", q="0.5")  # fixed-q identity takes no q
    with pytest.raises(ValueError):
        spec_for("PROTOTYPE", terms=5)
    with pytest.raises(ValueError):
        spec_for("THM4", chi=CHI4, z="0.5", blocks=1)
    # blocks*k too small for |z| is caught when the series actually runs
    with pytest.raises(ValueError):
        eval_lhs(spec_for("THM4", chi=CHI4, z="40", blocks=10))


THM1_ARGS = {"alphas": ("0.5", "1.25"), "betas": ("0.75", "1.0"), "q": "0.5"}
THM5_ARGS = {"chi": CHI4, "z": "0.5", "q": "0.5"}


@pytest.mark.parametrize("identity,kw,message", [
    ("THM1", dict(THM1_ARGS, alphas=("0", "1.75")), "THM1 entries must be nonzero"),
    ("THM3_FULL", {"alphas": ("0.5",), "betas": ("0.5",), "n": 2, "q": "0.5"},
     "THM3_FULL takes no alphas/betas"),
    ("THM1", dict(THM1_ARGS, n=2), "THM1 takes no n"),
    ("THM1", dict(THM1_ARGS, chi=CHI4), "THM1 takes no character"),
    ("THM1", dict(THM1_ARGS, z="0.5"), "THM1 takes no z"),
    ("THM5", {"z": "0.5", "q": "0.5"}, "THM5 needs a Dirichlet character"),
    ("THM5", {"chi": CHI4, "z": "0.5"}, "THM5 needs q"),
    ("THM5", {"chi": CHI4, "q": "0.5"}, "THM5 needs z"),
    ("PROTOTYPE", {"q": "0.5"}, "PROTOTYPE takes no q"),
    ("EX1A", {"q": "0.5"}, "EX1A takes no q (it is fixed by the identity)"),
    ("THM5", dict(THM5_ARGS, terms=100), "THM5 takes no terms parameter"),
    ("THM5", dict(THM5_ARGS, blocks=100), "THM5 takes no blocks parameter"),
    # an entry x+0i meets the real x's rules
    ("THM1", dict(THM1_ARGS, alphas=("0+0i", "1.75")), "THM1 entries must be nonzero"),
])
def test_validation_messages(identity, kw, message):
    with pytest.raises(ValueError) as info:
        spec_for(identity, **kw)
    assert str(info.value) == message


@pytest.mark.parametrize("identity,kw,message", [
    ("THM3_FULL", {"n": True, "q": "0.5"}, "THM3_FULL needs integer n >= 1, got True"),
    ("PROTOTYPE", {"terms": True}, "terms must be an integer >= 10, got True"),
    ("THM4", {"chi": CHI4, "z": "0.5", "blocks": True}, "blocks must be an integer >= 2, got True"),
])
def test_bool_counts_are_rejected(identity, kw, message):
    # a bool is an int to Python; True would run as 1
    with pytest.raises(ValueError) as info:
        spec_for(identity, **kw)
    assert str(info.value) == message


@pytest.mark.parametrize("identity,kw", [
    ("THM3_FULL", {"n": 2, "q": True}),
    ("THM5", {"chi": CHI4, "q": "0.5", "z": True}),
    ("THM1", {"alphas": (True, "0.5"), "betas": ("0.75", "0.75"), "q": "0.5"}),
    ("COR2", {"alphas": ("0.5", "0.5"), "betas": ("0.25", False)}),
])
def test_bool_inputs_are_refused(identity, kw):
    # True == 1 to Python, and ran as 1 in a side
    with pytest.raises(ValueError, match="^cannot interpret (True|False) as a number$"):
        spec_for(identity, **kw)


def test_inputs_are_parsed_once_into_exact_values():
    # each input is parsed when the spec is built; the text stays what the spec prints
    spec = spec_for("THM5", chi=CHI5, z="0.25+0.25i", q="0.3")
    assert spec.exact == ((), (), Fraction(3, 10), (Fraction(1, 4), Fraction(1, 4)))
    assert "exact" not in repr(spec) and spec.to_json()["z"] == "0.25+0.25i"
    spec = spec_for("THM1", alphas=("1/3", "0.5-i"), betas=("e^-pi", "5/6-i"), q="e^-2pi")
    assert spec.exact == ((Fraction(1, 3), (Fraction(1, 2), -1)), ("e^-pi", (Fraction(5, 6), -1)), "e^-2pi", None)
    assert spec.to_json()["alphas"] == ["1/3", "0.5-i"]


def test_inputs_not_given_as_text_print_their_exact_values():
    # a float or an mpf is written as the exact value the spec evaluates, as
    # p/q or a+bi with p/q parts, which parse_number reads back; "0.1" would
    # read back as 1/10
    spec = spec_for("THM3_FULL", n=2, q=0.1)
    assert parse_number(spec.to_json()["q"]) == spec.exact.q == Fraction(0.1)
    spec = spec_for("THM5", chi=CHI5, z=mpmath.mpf("0.1"), q="0.3")
    assert parse_number(spec.to_json()["z"]) == spec.exact.z and spec.to_json()["q"] == "0.3"
    spec = spec_for("THM1", alphas=(0.3 + 0.2j, "0.7"), betas=(0.4, 1.8 - 0.2j), q="0.5")
    obj = spec.to_json()
    assert obj["alphas"][1] == "0.7"
    assert tuple(map(parse_number, obj["alphas"])) == spec.exact.alphas
    assert tuple(map(parse_number, obj["betas"])) == spec.exact.betas


def test_cor2_refuses_entries_too_large_for_its_terms():
    # the largest |entry|, 30, exceeds terms / 4 = 25
    spec = spec_for("COR2", alphas=("30", "1"), betas=("1", "30"), terms=100)
    with pytest.raises(ValueError, match="^terms too small for entries of this magnitude$"):
        eval_lhs(spec)


def test_thm4_tolerance_at_ten_thousand_blocks(monkeypatch):
    # the tolerance is closed-form: building a plan entry evaluates no product
    spec = spec_for("THM4", chi=CHI4, z="0.5", blocks=10**4)

    def refuse(*args, **kwargs):
        raise AssertionError("the tolerance evaluated a product")

    with monkeypatch.context() as patch:
        patch.setattr(products, "rational_product", refuse)
        assert IDENTITIES["THM4"].tolerance(spec) == 40
    # 10^4 blocks back 41 digits at 50: the report at tolerance 40 passes
    report = run_identity(spec, 40)
    assert report.passed and report.digits_agreed >= 40 and report.error is None
    # 2,000 blocks back 30: the report at tolerance 40 fails and says why
    short = spec_for("THM4", chi=CHI4, z="0.5", blocks=2000)
    report = run_identity(short, 40)
    assert not report.passed and report.digits_agreed >= 30
    assert report.error == ("the left side's error estimate "
                            f"{report.params['rel_error_estimate']} backs 30 digits, "
                            "fewer than the tolerance 40")
    # its own tolerance is one digit less than its estimate backs
    own = run_identity(short)
    assert own.passed and own.tolerance_digits == 29 and own.error is None


def test_exact_fraction_entries():
    # Fraction entries survive the round to mpf at any precision
    spec = spec_for(
        "THM1",
        alphas=(Fraction(1, 3), Fraction(2, 3)), betas=(Fraction(1, 2), Fraction(1, 2)),
        q=Fraction(1, 2), prec=Precision(60),
    )
    assert agree(spec, 58)


@pytest.mark.parametrize("entry", [True, 0.5, context(Precision(30)).mpf("0.5")])
def test_inexact_entries_are_not_taken_as_fractions(entry):
    # a bool is no number, and the spec refuses it; a float or an mpf is
    # taken at its binary value, never as the decimal it prints as: a fifth
    # of it, 0.1 rounded to binary, is not the Fraction 1/10
    if entry is True:
        with pytest.raises(ValueError, match="cannot interpret True as a number"):
            IdentitySpec("COR2", alphas=(entry, "0.5"), betas=("0.75", "0.75"))
        return
    spec = IdentitySpec("COR2", alphas=(entry, entry / 5), betas=("0.3", "0.3"))
    exact, fifth = spec.exact.alphas
    assert exact == Fraction(1, 2) and fifth != Fraction(1, 10)
    assert fifth == Fraction(*mpmath.libmp.to_rational(context(Precision(30)).convert(entry / 5)._mpf_))
