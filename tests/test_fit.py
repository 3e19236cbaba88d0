from fractions import Fraction

import numpy as np
import pytest

from oscillab.bump import TestFunction, make_cutoff
from oscillab.fit import (
    check_theorem2,
    coefficient_at,
    cutoff_independence_check,
    fit_leading,
    geometric_grid,
)
from oscillab.poly import parse
from oscillab.quad import OscillatorySample


def synth(taus, fn, err=1e-12, rng=None):
    """Synthetic samples I(tau) = fn(tau) with optional relative noise."""
    out = []
    for tau in taus:
        v = fn(tau)
        if rng is not None:
            v = v * (1.0 + err * rng.standard_normal())
        out.append(OscillatorySample(tau=float(tau), value=complex(v),
                                     error_estimate=err * abs(v)))
    return out


def test_geometric_grid_validation():
    with pytest.raises(ValueError):
        geometric_grid(0.5, 10.0, 16)
    with pytest.raises(ValueError):
        geometric_grid(10.0, 5.0, 16)
    with pytest.raises(ValueError):
        geometric_grid(1.0, 10.0, 4)
    g = geometric_grid(1.0, 100.0, 9)
    assert g[0] == 1.0 and g[-1] == pytest.approx(100.0)
    assert np.allclose(np.diff(np.log(g)), np.log(g[1]) - np.log(g[0]))


def test_fit_leading_pure_power():
    taus = geometric_grid(100.0, 1e4, 24)
    C = 2.0 + 1.5j
    est = fit_leading(synth(taus, lambda t: C * t**-0.5))
    assert est.converged
    assert est.alpha_hat == pytest.approx(-0.5, abs=1e-6)
    assert est.k_hat == 0
    assert est.coeff_hat == pytest.approx(C, rel=1e-6)
    assert est.window == (100.0, 1e4)


def test_fit_leading_with_log_factor():
    taus = geometric_grid(100.0, 1e6, 32)
    est = fit_leading(synth(taus, lambda t: 0.8 * t**-1.0 * np.log(t)), n_ambient=2)
    assert est.converged
    assert est.k_hat == 1
    assert est.alpha_hat == pytest.approx(-1.0, abs=1e-6)
    assert est.coeff_hat == pytest.approx(0.8, rel=1e-6)


def test_fit_leading_all_below_noise():
    taus = geometric_grid(10.0, 1e3, 16)
    samples = [OscillatorySample(float(t), 1e-16 + 0j, 1e-12) for t in taus]
    est = fit_leading(samples)
    assert not est.converged
    assert est.all_below_noise
    assert np.isnan(est.alpha_hat)


def test_fit_leading_is_not_converged_when_a_kept_sample_is_not():
    taus = geometric_grid(100.0, 1e4, 24)
    samples = synth(taus, lambda t: (2.0 + 1.5j) * t**-0.5)
    assert fit_leading(samples).converged
    # one kept sample that did not converge, with the same value and estimate
    samples[5] = OscillatorySample(samples[5].tau, samples[5].value,
                                   samples[5].error_estimate, converged=False)
    est = fit_leading(samples)
    assert not est.converged
    assert est.alpha_hat == pytest.approx(-0.5, abs=1e-6)
    # an unconverged sample below the noise is not kept, so it does not count
    below = OscillatorySample(2e4, 1e-18 + 0j, 1e-10, converged=False)
    assert fit_leading(synth(taus, lambda t: (2.0 + 1.5j) * t**-0.5) + [below]).converged


def test_fit_leading_tolerates_noise():
    rng = np.random.default_rng(3)
    taus = geometric_grid(100.0, 1e4, 30)
    est = fit_leading(synth(taus, lambda t: 1j * t**-0.25, err=1e-4, rng=rng))
    assert est.converged
    assert est.alpha_hat == pytest.approx(-0.25, abs=1e-3)


def test_coefficient_at_nonzero():
    taus = geometric_grid(100.0, 1e4, 24)
    C = 1.0 - 2.0j
    v = coefficient_at(synth(taus, lambda t: C * t**-0.5), alpha=-0.5)
    assert v.classification == "nonzero"
    assert not v.consistent_with_zero
    assert v.coeff == pytest.approx(C, rel=1e-6)
    assert v.spread < 1e-9


def test_coefficient_at_zero():
    # probing an exponent the series does not contain: the scaled series
    # still decays, and the verdict is zero-consistent
    taus = geometric_grid(100.0, 1e6, 24)
    v = coefficient_at(synth(taus, lambda t: 1.0 * t**-1.0), alpha=-0.5)
    assert v.classification == "zero"
    assert v.consistent_with_zero


def test_coefficient_at_drifting_series_is_indeterminate():
    # scaled series drifts by ~29% of its mean: too much for a clean nonzero
    # verdict, not enough to be consistent with zero
    taus = geometric_grid(1e3, 1e4, 16)
    v = coefficient_at(
        synth(taus, lambda t: (1.0 + 0.335 * (np.log10(t) - 3.0)) * t**-0.5),
        alpha=-0.5,
    )
    assert not v.consistent_with_zero
    assert v.trend > 0.25 * abs(v.coeff)
    assert v.classification == "indeterminate"


def test_coefficient_verdict_json():
    taus = geometric_grid(100.0, 1e4, 16)
    v = coefficient_at(synth(taus, lambda t: 1j * t**-0.5), alpha=-0.5)
    d = v.to_json_dict()
    assert set(d) == {"alpha", "k", "coeff", "spread", "trend", "noise",
                      "consistent_with_zero", "classification"}
    assert d["coeff"][1] == pytest.approx(1.0, rel=1e-6)


def test_many_seeded_recoveries():
    rng = np.random.default_rng(42)
    taus = geometric_grid(100.0, 1e4, 24)
    ok = 0
    for _ in range(10):
        alpha = float(rng.uniform(-1.5, -0.3))
        C = complex(rng.normal(), rng.normal())
        if abs(C) < 0.1:
            C = 1.0 + 0j
        est = fit_leading(synth(taus, lambda t: C * t**alpha, err=1e-6, rng=rng))
        if est.converged and abs(est.alpha_hat - alpha) < 0.01:
            ok += 1
    assert ok == 10


def test_check_theorem2_bound():
    f = parse("x1^4 + x2^4", 2)
    phi = TestFunction(nu=(0, 0), cutoff=make_cutoff(1.0, 2.0))
    taus = geometric_grid(100.0, 1e4, 24)
    samples = synth(taus, lambda t: (2.32 + 2.32j) * t**-0.5)
    rep = check_theorem2(f, phi, samples)
    assert rep.passed is True
    assert rep.bound_pair_distance == Fraction(-1, 2)
    assert rep.d_pair == 2 and rep.r == 4 and rep.r_prime == 0
    assert rep.bound_radii == Fraction(-1, 2)
    assert abs(rep.slack) < 0.01


def test_check_theorem2_indeterminate_when_unconverged():
    f = parse("x1^4 + x2^4", 2)
    phi = TestFunction(nu=(0, 0), cutoff=make_cutoff(1.0, 2.0))
    taus = geometric_grid(100.0, 1e4, 24)
    samples = [OscillatorySample(float(t), 1e-18 + 0j, 1e-10) for t in taus]
    rep = check_theorem2(f, phi, samples)
    assert rep.passed is None


def test_cutoff_independence_decay():
    f = parse("x1^2 + x2^2", 2)
    rep = cutoff_independence_check(
        f, (0, 0), make_cutoff(1.0, 2.0), make_cutoff(0.5, 1.0),
        taus=[2.0, 4.0, 8.0, 16.0, 32.0],
    )
    assert not rep.vacuous
    assert rep.passed
    assert rep.slope <= -2.0


def test_cutoff_independence_identical_cutoffs_is_vacuous():
    f = parse("x1^2 + x2^2", 2)
    eta = make_cutoff(1.0, 2.0)
    rep = cutoff_independence_check(f, (0, 0), eta, eta, taus=[5.0, 10.0, 20.0])
    assert rep.vacuous and rep.passed
    assert rep.usable_points == 0
