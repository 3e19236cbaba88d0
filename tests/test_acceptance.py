"""Acceptance suite: one test (and one pass/fail line under -v) per criterion.

Each test prints a single `criterion N: PASS ...` line with the measured
numbers; run with -s (or read the failure output) to see them.
"""

from fractions import Fraction
from functools import lru_cache
from math import gamma as gamma_fn
from math import pi

import numpy as np
import pytest

from oscillab.bump import SymmetricCutoff, TestFunction, make_cutoff
from oscillab.experiments import (
    ExperimentConfig,
    run_theorem2_battery,
    run_theorem3_lab,
)
from oscillab.fit import (
    cutoff_independence_check,
    fit_leading,
    geometric_grid,
)
from oscillab.nondegen import (
    SearchOptions,
    check_C_nondegenerate,
    check_R_nondegenerate,
)
from oscillab.poly import parse
from oscillab.quad import (
    OscillatorySample,
    chart_parity_integral,
    erdelyi_leading,
    eval_oscillatory,
    oscillatory_profile_reference,
)
from oscillab.rlct import (
    ResolutionDatum,
    blowup_charts,
    gamma_from_resolution,
    rlct_homogeneous,
    rlct_newton_candidate,
)

F = Fraction
ETA = make_cutoff(1.0, 2.0)
TRIPLE_QUARTIC = "(x1^2 + x2^2 + x3^2)^2 + x1^6 + x2^6 + x3^6"


def report_line(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def lab_quartic():
    return run_theorem3_lab("x1^4 + x2^4", ExperimentConfig())


@pytest.fixture(scope="module")
def lab_quadratic():
    return run_theorem3_lab("x1^2 + x2^2", ExperimentConfig())


def test_criterion_01_exact_rlct_fixtures():
    quartic = rlct_homogeneous(parse("x1^4 + x2^4", 2), None).value
    triple = rlct_newton_candidate(parse(TRIPLE_QUARTIC, 3), None).value
    fixtures = [
        ("x1^2 + x2^2", 2, 2),
        ("x1^4 + x2^4", 2, 4),
        ("x1^6 + x2^6", 2, 6),
        ("x1^2 + x2^2 + x3^2", 3, 2),
        ("x1^4 + x2^4 + x3^4", 3, 4),
    ]
    consistent = True
    for text, n, d in fixtures:
        f = parse(text, n)
        hom = rlct_homogeneous(f, None).value
        cand = rlct_newton_candidate(f, None).value
        res = gamma_from_resolution(ResolutionDatum(((d, n - 1),)))
        consistent = consistent and (hom == cand == res == F(n, d))
    ok = quartic == F(1, 2) and triple == F(3, 4) and consistent
    report_line(1, ok, f"quartic rlct={quartic}, 3-var candidate={triple}, "
                       f"3-route consistency on 5 fixtures={consistent}")


@lru_cache(maxsize=None)
def _polar_reference(f, chi, tau):
    """int exp(i tau f) chi dx by a dense polar rule, independent of the charts.

    r in [0, 3.6] (chi vanishes past r = sqrt(2^2 + 2.5^2)) by 120 Gauss panels of 16
    nodes, and the angle by a 4096-point periodic trapezoid, which is exact to
    roundoff for the smooth periodic integrand: 2048 points move it by 1.1e-13
    on x1^2 - x2^2 at tau = 1, 8192 points and 480 panels by 4e-16.
    """
    edges = np.linspace(0.0, 3.6, 121)
    x, w = np.polynomial.legendre.leggauss(16)
    half = 0.5 * np.diff(edges)
    r = ((edges[:-1] + half)[:, None] + half[:, None] * x).ravel()
    wr = (half[:, None] * w).ravel() * r
    angles = np.linspace(0.0, 2 * pi, 4096, endpoint=False)
    total = 0j
    for a in np.array_split(angles, 16):
        x1, x2 = r[:, None] * np.cos(a), r[:, None] * np.sin(a)
        total += np.dot(wr, np.sum(np.exp(1j * tau * f.evaluate([x1, x2])) * chi(x1, x2), axis=1))
    return total * 2 * pi / len(angles)


def test_criterion_02_chart_sum_is_the_cutoff_integral():
    # the |y| Jacobian and the partition weights make the two chart integrals
    # sum to int exp(i tau f) chi dx for the pushed-down cutoff chi
    f = parse("x1^4 + x2^4", 2)
    sc = SymmetricCutoff(n=2, eps=0.25, eta=ETA)
    ok = True
    details = []
    for tau in (1.0, 10.0):
        chart = chart_parity_integral(blowup_charts(f), sc, tau, tol=1e-10)
        gap = abs(chart.value - _polar_reference(f, sc, tau))
        ok = ok and chart.converged and gap <= chart.error_estimate
        details.append(f"tau={tau:g}: |chart - polar| = {gap:.2e} "
                       f"<= estimate {chart.error_estimate:.2e}")
    report_line(2, ok, "; ".join(details))


@pytest.mark.parametrize("phase", ["x1^2 - x2^2", "x1^4 - 6*x1^2*x2^2 + x2^4", "x1^3 + x2^3"])
@pytest.mark.parametrize("tau", [1.0, 10.0])
def test_chart_sum_at_real_zeros_of_h_is_the_cutoff_integral(phase, tau):
    # h vanishes inside the charts here; the chart rule is cut at those zeros
    f = parse(phase, 2)
    sc = SymmetricCutoff(n=2, eps=0.25, eta=ETA)
    chart = chart_parity_integral(blowup_charts(f), sc, tau, tol=1e-10)
    assert chart.converged
    assert abs(chart.value - _polar_reference(f, sc, tau)) <= chart.error_estimate


@pytest.mark.parametrize("phase", [
    "x1^4 + x2^4",                  # both charts share h, which is even: one folded rule
    "x1^4 - x2^4",                  # h2 = -h1: the second chart takes the conjugate profile
    "x1^3 + x2^3",                  # both charts share h, which is not even
    "x1^4 - 6*x1^2*x2^2 + x2^4",    # h even, with real zeros inside the chart
    "x1^4 + x1^3*x2 + 2*x2^4",      # no symmetry: two groups in one profile call
])
@pytest.mark.parametrize("tau", [1.0, 10.0])
def test_chart_sum_of_each_grouping_case_is_the_cutoff_integral(phase, tau):
    f = parse(phase, 2)
    sc = SymmetricCutoff(n=2, eps=0.25, eta=ETA)
    chart = chart_parity_integral(blowup_charts(f), sc, tau, tol=1e-10)
    assert chart.converged
    assert abs(chart.value - _polar_reference(f, sc, tau)) <= chart.error_estimate


def test_criterion_03_oracle_agreement():
    tau = 1e4
    worst = 0.0
    for b, d in [(1, 2), (1, 4), (2, 4), (3, 4)]:
        vals, _ = oscillatory_profile_reference([tau], d, b - 1, ETA, tol=1e-12)
        lead = erdelyi_leading(b, d, 1.0, tau)
        worst = max(worst, abs(vals[0] - lead) / abs(lead))
    ok = worst < 1e-3
    report_line(3, ok, f"max relative error vs closed-form leading term = {worst:.3e} (< 1e-3)")


def test_criterion_04_stationary_phase_fixture():
    f = parse("x1^2 + x2^2", 2)
    phi = TestFunction(nu=(0, 0), cutoff=ETA, shape="product")
    s = eval_oscillatory(f, phi, 1e3, tol=1e-12)
    rel = abs(1e3 * abs(s.value) - pi) / pi
    ok = s.converged and rel < 0.01
    report_line(4, ok, f"tau*|I| = {1e3 * abs(s.value):.10f} vs pi, relative error {rel:.3e} (< 1%)")


def test_criterion_05_leading_term_fixture():
    f = parse("x1^4 + x2^4", 2)
    phi = TestFunction(nu=(0, 0), cutoff=ETA, shape="product")
    taus = geometric_grid(1e3, 1e4, 16)
    samples = [eval_oscillatory(f, phi, float(t), tol=1e-12) for t in taus]
    est = fit_leading(samples, n_ambient=2)
    target = 0.25 * gamma_fn(0.25) ** 2 * np.exp(1j * pi / 4)
    alpha_ok = est.converged and abs(est.alpha_hat + 0.5) < 0.01
    coeff_rel = abs(est.coeff_hat - target) / abs(target)
    ok = alpha_ok and coeff_rel < 0.02
    report_line(5, ok, f"alpha_hat = {est.alpha_hat:.6f} (-0.5 +/- 0.01), "
                       f"coefficient relative error {coeff_rel:.3e} (< 2%)")


def test_criterion_06_exponent_bound_battery():
    report = run_theorem2_battery()
    statuses = [row["status"] for row in report.rows]
    pair_ok = all(row["pair_bound_consistent"] for row in report.rows)
    ok = report.passed and len(report.rows) >= 5 and all(s == "pass" for s in statuses) and pair_ok
    slacks = ", ".join(f"{row['slack']:.2e}" for row in report.rows)
    report_line(6, ok, f"{len(report.rows)} fixtures all pass with exact pair bounds; "
                       f"slacks [{slacks}]")


def test_criterion_07_cutoff_independence():
    f = parse("x1^4 + x2^4", 2)
    taus = geometric_grid(1e2, 1e4, 10)
    rep = cutoff_independence_check(
        f, (0, 0), make_cutoff(1.0, 2.0), make_cutoff(0.6, 1.2), taus, quad_tol=1e-13
    )
    ok = rep.passed and not rep.vacuous and rep.slope <= -2.0
    report_line(7, ok, f"difference decay slope = {rep.slope:.3f} "
                       f"over {rep.usable_points} usable points (<= -2.0)")


def test_criterion_08_synthetic_fit_recovery():
    rng = np.random.default_rng(2024)
    taus = geometric_grid(1e2, 1e5, 28)
    wins = 0
    for _ in range(50):
        alpha = float(rng.uniform(-1.6, -0.3))
        k = int(rng.integers(0, 2))
        mag = float(rng.uniform(0.5, 3.0))
        phase = float(rng.uniform(0, 2 * pi))
        C = mag * np.exp(1j * phase)
        noise = 10.0 ** rng.uniform(-8, -5)
        samples = []
        for t in taus:
            v = C * t**alpha * np.log(t) ** k
            v = v * (1.0 + noise * rng.standard_normal())
            samples.append(OscillatorySample(float(t), complex(v), noise * abs(v)))
        est = fit_leading(samples, n_ambient=2)
        if est.converged and abs(est.alpha_hat - alpha) < 1e-2 and est.k_hat == k:
            wins += 1
    ok = wins >= 48
    report_line(8, ok, f"{wins}/50 randomized series recovered (alpha within 1e-2, correct k)")


def test_criterion_09_nondegeneracy_verdicts():
    opts = SearchOptions(starts=60, seed=0)
    deg = check_R_nondegenerate(parse("(x1 - x2)^2", 2), opts)
    quartic = check_R_nondegenerate(parse("x1^4 + x2^4", 2), opts)
    triple = parse(TRIPLE_QUARTIC, 3)
    triple_r = check_R_nondegenerate(triple, opts)
    triple_c = check_C_nondegenerate(triple, SearchOptions(starts=120, seed=0))
    ok = (
        deg.degenerate and deg.residual < 1e-12
        and not quartic.degenerate
        and not triple_r.degenerate
        and triple_c.degenerate
    )
    report_line(9, ok, f"degenerate witness residual {deg.residual:.2e} (< 1e-12); "
                       f"quartic and 3-var fixture likely-nondegenerate over R; "
                       f"3-var fixture C-degenerate = {triple_c.degenerate}")


def test_criterion_10_blowup_lab_reports(lab_quartic, lab_quadratic):
    details = []
    ok = True
    for rep, want_alpha in ((lab_quartic, -0.5), (lab_quadratic, -1.0)):
        payload = rep.to_json_dict()
        complete = all(
            c["verdict"] in ("supports", "contradicts", "indeterminate")
            and "tolerance" in c and "measured" in c
            for c in payload["claims"]
        )
        oracle_ok = (
            payload["oracle"] is not None
            and payload["oracle"]["alpha"] == pytest.approx(want_alpha)
        )
        consistent = (
            abs(payload["generic_fit"]["alpha_hat"] - want_alpha) < 0.02
            and abs(payload["symmetric_fit"]["alpha_hat"] - want_alpha) < 0.02
        )
        gap = [c for c in payload["claims"] if c["name"] == "strict_exponent_gap"][0]
        recorded_with_evidence = gap["verdict"] in ("supports", "contradicts", "indeterminate") \
            and gap["measured"]["oracle"] is not None
        ok = ok and complete and oracle_ok and consistent and recorded_with_evidence
        details.append(
            f"{payload['phase']}: claims complete={complete}, "
            f"oracle attached={oracle_ok}, "
            f"fits consistent={consistent}, strict-gap verdict={gap['verdict']}"
        )
    report_line(10, ok, "; ".join(details))
