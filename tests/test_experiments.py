import json
from dataclasses import replace
from math import gamma, pi

import numpy as np
import pytest

from oscillab import experiments
from oscillab.experiments import (
    ExperimentConfig,
    HypothesisError,
    default_battery_fixtures,
    export_report,
    run_theorem2_battery,
    run_theorem3_lab,
    zero_locus_is_origin,
)
from oscillab.poly import parse

CHEAP_LAB = ExperimentConfig(tau_min=1e2, tau_max=1e3, tau_count=12, tol=1e-9)


@pytest.fixture(scope="module")
def lab_report():
    return run_theorem3_lab("x1^2 + x2^2", CHEAP_LAB)


def test_default_fixtures_are_well_formed():
    fixtures = default_battery_fixtures()
    assert len(fixtures) >= 5
    for text, nu in fixtures:
        f = parse(text, 2)
        assert f.n == len(nu) == 2


def test_zero_locus_is_origin():
    assert zero_locus_is_origin(parse("x1^2 + x2^2", 2))
    assert zero_locus_is_origin(parse("x1^4 + x1^2*x2^2 + x2^4", 2))
    assert not zero_locus_is_origin(parse("x1^2 - x2^2", 2))
    # a double real line that a sampled sphere scan reads as |f| >= 1.46e-6
    assert not zero_locus_is_origin(parse("(x1 - 3*x2)^2*(x1^2 + x2^2)", 2))
    # the line x2 = 0 shows only as f(1, 0) = 0
    assert not zero_locus_is_origin(parse("x2^2*(x1^2 + x2^2)", 2))
    with pytest.raises(ValueError):
        zero_locus_is_origin(parse("x1^2 + x2^2 + x3^2", 3))
    with pytest.raises(ValueError):
        zero_locus_is_origin(parse("x1^2 + x2^4", 2))


def test_battery_small_config():
    cfg = ExperimentConfig(tau_min=1e2, tau_max=1e4, tau_count=16, tol=1e-10)
    report = run_theorem2_battery(
        fixtures=[("x1^2 + x2^2", (0, 0)), ("x1^4 + x2^4", (2, 2))],
        config=cfg,
    )
    assert report.passed
    assert len(report.rows) == 2
    from fractions import Fraction

    for row in report.rows:
        assert row["status"] == "pass"
        assert row["pair_bound_consistent"]
        # fitted exponent sits at or below the exact bound, within tolerance
        assert row["alpha_hat"] <= float(Fraction(row["bound_pair_distance"])) + 0.05
    quad = report.rows[0]
    assert quad["bound_pair_distance"] == "-1"
    assert abs(quad["alpha_hat"] + 1.0) < 0.01
    mono = report.rows[1]
    # amplitude x1^2 x2^2 pushes the bound to -(shifted generator value)
    assert mono["d_pair"] == "2/3"
    assert abs(mono["alpha_hat"] + 1.5) < 0.02


def test_battery_report_json_shape():
    cfg = ExperimentConfig(tau_count=12)
    report = run_theorem2_battery(fixtures=[("x1^2 + x2^2", (0, 0))], config=cfg)
    d = report.to_json_dict()
    assert d["kind"] == "theorem2-battery"
    assert set(d) == {"kind", "version", "passed", "rows", "config", "tolerances"}
    # the battery reads the tau sweep only: each fixture's dimension is len(nu)
    assert set(d["config"]) == {"cutoff", "tau_min", "tau_max", "tau_count", "tol"}
    row = d["rows"][0]
    for key in ("label", "rlct_candidate", "alpha_hat", "bound_pair_distance",
                "bound_radii", "d_pair", "r", "r_prime", "pair_bound_consistent",
                "slack", "status"):
        assert key in row


def test_lab_hard_gates():
    with pytest.raises(HypothesisError) as exc:
        run_theorem3_lab("x1^2 + x2^4", CHEAP_LAB)
    assert exc.value.check == "homogeneous"
    with pytest.raises(HypothesisError) as exc:
        run_theorem3_lab("x1*x2", CHEAP_LAB)
    assert exc.value.check == "convenient"
    cfg3 = ExperimentConfig(dim=3)
    with pytest.raises(HypothesisError) as exc:
        run_theorem3_lab("x1^2 + x2^2 + x3^2", cfg3)
    assert exc.value.check == "even_dimension"
    cfg4 = ExperimentConfig(dim=4)
    with pytest.raises(HypothesisError) as exc:
        run_theorem3_lab("x1^2 + x2^2 + x3^2 + x4^2", cfg4)
    assert exc.value.check == "supported_dimension"


def test_lab_report_structure(lab_report):
    rep = lab_report
    assert rep.n == 2 and rep.d == 2
    assert str(rep.gamma) == "1"
    assert set(c["name"] for c in rep.claims) == {
        "exponent_upper_bound",
        "strict_exponent_gap",
        "support_shrinking_invariance",
    }
    for c in rep.claims:
        assert c["verdict"] in ("supports", "contradicts", "indeterminate")
    for key in ("homogeneous", "convenient", "even_dimension",
                "likely_R_nondegenerate", "zero_locus_origin_only",
                "degree_even", "degree_exceeds_dimension"):
        assert key in rep.hypothesis_checks
    assert rep.hypothesis_checks["likely_R_nondegenerate"]
    assert rep.hypothesis_checks["zero_locus_origin_only"]
    assert set(rep.config) == {"phase", "dim", "cutoff", "tau_min", "tau_max", "tau_count",
                               "tol", "seed"}
    assert rep.config["phase"] == "x1^2 + x2^2" and rep.config["dim"] == 2


@pytest.mark.parametrize("cutoff,series", [((1.0, 2.0), 3), ((0.6, 1.2), 4)])
def test_lab_evaluates_each_integral_once(monkeypatch, cutoff, series):
    calls = {"chart": [], "series": []}

    def chart(*args, **kwargs):
        calls["chart"].append((len(args[0]), args[2]))  # (charts, tau)
        return chart_parity_integral(*args, **kwargs)

    def evaluate(f, phi, taus, *args, **kwargs):
        calls["series"].append(len(taus))
        return eval_oscillatory_series(f, phi, taus, *args, **kwargs)

    chart_parity_integral = experiments.chart_parity_integral
    eval_oscillatory_series = experiments.eval_oscillatory_series
    monkeypatch.setattr(experiments, "chart_parity_integral", chart)
    monkeypatch.setattr(experiments, "eval_oscillatory_series", evaluate)
    run_theorem3_lab("x1^2 + x2^2", replace(CHEAP_LAB, cutoff=cutoff))
    # one chart-sum call over both charts per tau of the chart-sum series
    sym_taus = np.geomspace(CHEAP_LAB.tau_min, CHEAP_LAB.tau_max, experiments.LAB_SYM_TAU_COUNT)
    assert calls["chart"] == [(2, float(tau)) for tau in sym_taus]
    # one series call per cutoff, each over the whole tau window; the generic
    # series doubles as a support-sweep series on the same cutoff
    assert calls["series"] == [CHEAP_LAB.tau_count] * series


def test_lab_measurements(lab_report):
    rep = lab_report
    # both fits see the candidate exponent -n/d = -1
    assert abs(rep.symmetric_fit["alpha_hat"] + 1.0) < 0.02
    assert abs(rep.generic_fit["alpha_hat"] + 1.0) < 0.02
    # closed-form check: the leading coefficient is i*pi
    assert rep.oracle is not None
    assert rep.oracle["alpha"] == pytest.approx(-1.0)
    assert rep.oracle["coeff"][0] == pytest.approx(0.0, abs=1e-12)
    assert rep.oracle["coeff"][1] == pytest.approx(pi)
    # the probe at the candidate exponent finds that nonzero coefficient,
    # so the strict-gap claim is contradicted by measurement
    gap = [c for c in rep.claims if c["name"] == "strict_exponent_gap"][0]
    assert gap["verdict"] == "contradicts"
    probe = rep.coefficient_probes["symmetric"][0]
    assert probe["classification"] == "nonzero"
    assert probe["coeff"][1] == pytest.approx(pi, rel=0.05)


@pytest.mark.parametrize("phase,coeff", [("x1^2 - x2^2", pi),
                                         ("x1^4 - x2^4", gamma(0.25) ** 2 / 4)])
def test_diagonal_oracle_takes_negative_coefficients(phase, coeff):
    # the axis factors e^{+i pi/(2d)} and e^{-i pi/(2d)} cancel to a real oracle.
    # The lab's own tau window: below tau = 1e3 the generic series of
    # x1^2 - x2^2 still carries a 3.6e-10 remainder that its noise does not count
    rep = run_theorem3_lab(phase, ExperimentConfig())
    assert rep.oracle["coeff"] == [pytest.approx(coeff, rel=1e-15), 0.0]
    for probe in (rep.coefficient_probes["symmetric"][0], rep.coefficient_probes["generic"][0]):
        assert abs(complex(*probe["coeff"]) - coeff) <= probe["noise"]


def test_lab_json_export_round_trip(lab_report):
    text = export_report(lab_report, "json")
    payload = json.loads(text)
    assert payload["kind"] == "theorem3-lab"
    assert payload["gamma"] == "1"
    # the amplitudes are 1 near 0, so I(tau) has no -(n+1)/d term to name
    assert "next_exponent_reference" not in payload
    assert len(payload["series"]["generic"]) == CHEAP_LAB.tau_count
    # deterministic: exporting twice is byte-identical
    assert text == export_report(lab_report, "json")


def test_lab_markdown_and_csv_export(lab_report):
    md = export_report(lab_report, "md")
    assert md.startswith("# theorem3-lab")
    for c in lab_report.claims:
        assert f"- **{c['name']}** [{c['verdict']}]:" in md
    csv = export_report(lab_report, "csv")
    lines = csv.splitlines()
    assert lines[0] == "tau,re,im,abs,err"
    assert len(lines) == 1 + CHEAP_LAB.tau_count


def test_battery_csv_and_md_export():
    cfg = ExperimentConfig(tau_count=12)
    report = run_theorem2_battery(fixtures=[("x1^2 + x2^2", (0, 0))], config=cfg)
    csv = export_report(report, "csv")
    assert "alpha_hat" in csv.splitlines()[0]
    md = export_report(report, "md")
    assert "x1^2 + x2^2 | nu=[0, 0]: pass" in md


def test_export_rejects_unknown_format(lab_report):
    with pytest.raises(ValueError):
        export_report(lab_report, "xml")
