"""Leading-exponent extraction from sampled oscillatory integrals.

The model is |I(tau)| ~ |C| tau^alpha (log tau)^k.  Fitting is two-stage:
an ordinary least-squares line in log-log space for alpha, then a refit with
the log-log-log regressor for each candidate k with a parsimony penalty.
Estimates carry a noise floor from the quadrature error estimates and a
stability check across the two halves of the tau window; they are measured
quantities, never claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .bump import CutoffFunction, TestFunction
from .poly import Polynomial
from .polytope import (
    NewtonPolytope,
    build_polytope,
    is_convenient,
    newton_polytope,
    pair_distance_and_radii,
)
from .quad import OscillatorySample, eval_oscillatory_series

__all__ = [
    "ExponentEstimate",
    "geometric_grid",
    "fit_leading",
    "coefficient_at",
    "check_theorem2",
    "cutoff_independence_check",
    "BoundReport",
    "DecayReport",
    "CoefficientVerdict",
]

STABILITY_TOL = 0.1         # bound on |alpha(lower half) - alpha(upper half)| of a converged fit
RESIDUAL_THRESHOLD = 0.05   # bound on the log-log rms residual of a converged fit
DECAY_THRESHOLD = -2.0      # slope the cutoff-independence difference must decay at


@dataclass(frozen=True)
class ExponentEstimate:
    alpha_hat: float
    k_hat: int
    coeff_hat: complex
    residual: float
    noise_floor: float
    converged: bool
    window: Tuple[float, float]
    all_below_noise: bool = False

    def to_json_dict(self) -> dict:
        return {
            "alpha_hat": self.alpha_hat,
            "k_hat": self.k_hat,
            "coeff_hat": [self.coeff_hat.real, self.coeff_hat.imag],
            "residual": self.residual,
            "noise_floor": self.noise_floor,
            "converged": self.converged,
            "window": [self.window[0], self.window[1]],
            "all_below_noise": self.all_below_noise,
        }


def geometric_grid(tau_min: float, tau_max: float, count: int) -> np.ndarray:
    if not (1 <= tau_min < tau_max):
        raise ValueError("require 1 <= tau_min < tau_max")
    if count < 8:
        raise ValueError("need at least 8 grid points")
    return np.geomspace(tau_min, tau_max, count)


def _usable(samples: Sequence[OscillatorySample]):
    """taus, values, error estimates and converged flags, sorted by tau."""
    taus = np.array([s.tau for s in samples], dtype=float)
    vals = np.array([s.value for s in samples], dtype=complex)
    errs = np.array([s.error_estimate for s in samples], dtype=float)
    flags = np.array([s.converged for s in samples], dtype=bool)
    order = np.argsort(taus)
    return taus[order], vals[order], errs[order], flags[order]


def _lsq_alpha(logt: np.ndarray, logm: np.ndarray):
    A = np.column_stack([np.ones_like(logt), logt])
    coef, *_ = np.linalg.lstsq(A, logm, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - logm) ** 2)))
    return coef, resid


def fit_leading(
    samples: Sequence[OscillatorySample],
    n_ambient: int = 2,
) -> ExponentEstimate:
    """Fit alpha, k and the complex leading coefficient from sampled I(tau).

    The fit is converged only when it is stable across the two halves of the
    window, its residual is small, and every sample it keeps converged.
    """
    taus, vals, errs, flags = _usable(samples)
    mags = np.abs(vals)
    keep = mags > 3 * errs
    if np.count_nonzero(keep) < 8:
        return ExponentEstimate(
            alpha_hat=float("nan"), k_hat=0, coeff_hat=0j,
            residual=float("inf"),
            noise_floor=float(np.max(errs, initial=0.0)),
            converged=False,
            window=(float(taus[0]), float(taus[-1])) if len(taus) else (0.0, 0.0),
            all_below_noise=True,
        )
    taus, vals, errs, mags, flags = taus[keep], vals[keep], errs[keep], mags[keep], flags[keep]
    logt, logm = np.log(taus), np.log(mags)
    loglog = np.log(logt)
    rel_noise = float(np.median(errs / mags))

    fits = {}
    coef0, res0 = _lsq_alpha(logt, logm)
    fits[0] = (coef0[1], coef0[0], res0)
    best_k, best_res = 0, res0
    penalty = 2 * rel_noise
    for k in range(1, max(1, n_ambient)):
        coef = _lsq_alpha(logt, logm - k * loglog)[0]
        resid = float(np.sqrt(np.mean((coef[0] + coef[1] * logt + k * loglog - logm) ** 2)))
        fits[k] = (coef[1], coef[0], resid)
        if resid + penalty < best_res:
            best_k, best_res = k, resid
    alpha, logc, resid = fits[best_k]

    # stability across the two halves of the grid
    half = len(taus) // 2
    ah_lo = _lsq_alpha(logt[:half], logm[:half] - best_k * loglog[:half])[0][1]
    ah_hi = _lsq_alpha(logt[half:], logm[half:] - best_k * loglog[half:])[0][1]
    stable = abs(ah_lo - ah_hi) < STABILITY_TOL

    model = taus**alpha * np.log(taus) ** best_k
    coeff = complex(np.mean(vals / model))
    converged = bool(stable and resid < RESIDUAL_THRESHOLD and flags.all())
    return ExponentEstimate(
        alpha_hat=float(alpha), k_hat=int(best_k), coeff_hat=coeff,
        residual=resid, noise_floor=rel_noise, converged=converged,
        window=(float(taus[0]), float(taus[-1])),
    )


@dataclass(frozen=True)
class CoefficientVerdict:
    alpha: float
    k: int
    coeff: complex
    spread: float
    trend: float              # |last - first| of the scaled series (drift)
    noise: float
    consistent_with_zero: bool

    @property
    def classification(self) -> str:
        """'zero', 'nonzero', or 'indeterminate' (drifting scaled series)."""
        if self.consistent_with_zero:
            return "zero"
        if self.trend > 0.25 * abs(self.coeff):
            return "indeterminate"
        return "nonzero"

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "k": self.k,
            "coeff": [self.coeff.real, self.coeff.imag],
            "spread": self.spread,
            "trend": self.trend,
            "noise": self.noise,
            "consistent_with_zero": self.consistent_with_zero,
            "classification": self.classification,
        }


def coefficient_at(samples: Sequence[OscillatorySample], alpha: float, k: int = 0) -> CoefficientVerdict:
    """Estimate C_{alpha,k} over the top decade and test zero-consistency.

    The scaled series I(tau) tau^{-alpha} (log tau)^{-k} should be constant
    when the probed term is leading; its drift (trend) enters the
    zero-consistency threshold and flags mis-probed log powers.
    """
    taus, vals, errs, _ = _usable(samples)
    if len(taus) < 2:
        raise ValueError("need at least two samples")
    top = taus >= taus[-1] / 10.0
    taus, vals, errs = taus[top], vals[top], errs[top]
    model = taus**alpha * np.log(taus) ** k
    scaled = vals / model
    coeff = complex(np.mean(scaled))
    spread = float(np.std(scaled))
    trend = float(abs(scaled[-1] - scaled[0]))
    noise = float(np.mean(errs / np.abs(model)))
    consistent = abs(coeff) < 3 * (noise + trend)
    return CoefficientVerdict(
        alpha=float(alpha), k=int(k), coeff=coeff,
        spread=spread, trend=trend, noise=noise,
        consistent_with_zero=bool(consistent),
    )


@dataclass(frozen=True)
class BoundReport:
    alpha_hat: float
    bound_pair_distance: Fraction      # -1/d(f, phi)
    bound_radii: Fraction              # -(r' + n)/r
    d_pair: Fraction
    r: Fraction
    r_prime: Fraction
    slack: float
    passed: Optional[bool]             # None = indeterminate (unconverged fit)


def check_theorem2(
    f: Polynomial,
    phi: TestFunction,
    samples: Sequence[OscillatorySample],
    tolerance: float = 0.05,
    polytope: Optional[NewtonPolytope] = None,
) -> BoundReport:
    """Compare a fitted exponent against the exact pair-distance bound.

    ``polytope`` is f's Newton polytope when the caller has already built it.
    """
    pf = polytope if polytope is not None else newton_polytope(f)
    ok, _ = is_convenient(pf)
    if not ok:
        raise ValueError("the bound requires a convenient phase")
    # x^nu * bump has the Newton polytope nu + orthant: the bump is 1 near 0
    d_pair, r, rp = pair_distance_and_radii(pf, build_polytope([phi.nu]))
    bound1 = -1 / d_pair
    bound2 = -Fraction(rp + f.n, 1) / r
    est = fit_leading(samples, n_ambient=f.n)
    if not est.converged or not np.isfinite(est.alpha_hat):
        return BoundReport(
            alpha_hat=est.alpha_hat, bound_pair_distance=bound1, bound_radii=bound2,
            d_pair=d_pair, r=r, r_prime=rp, slack=float("nan"), passed=None,
        )
    slack = float(bound1) - est.alpha_hat
    return BoundReport(
        alpha_hat=est.alpha_hat, bound_pair_distance=bound1, bound_radii=bound2,
        d_pair=d_pair, r=r, r_prime=rp, slack=slack,
        passed=bool(est.alpha_hat <= float(bound1) + tolerance),
    )


@dataclass(frozen=True)
class DecayReport:
    slope: float
    threshold: float
    passed: bool
    vacuous: bool
    usable_points: int


def cutoff_independence_check(
    f: Polynomial,
    nu: Sequence[int],
    cutoff1: CutoffFunction,
    cutoff2: CutoffFunction,
    taus: Sequence[float],
    quad_tol: float = 1e-12,
) -> DecayReport:
    """Decay slope of |I(tau, x^nu chi1) - I(tau, x^nu chi2)|.

    The difference amplitude has empty Taylor expansion at 0, so its
    expansion decays super-polynomially; the measured log-log slope over the
    samples above the noise floor should be well below the leading exponent,
    and the check passes at or below DECAY_THRESHOLD.
    """
    phi1 = TestFunction(nu=tuple(nu), cutoff=cutoff1, shape="product")
    phi2 = TestFunction(nu=tuple(nu), cutoff=cutoff2, shape="product")
    taus = np.asarray(taus, dtype=float)
    series1 = eval_oscillatory_series(f, phi1, taus, tol=quad_tol)
    series2 = eval_oscillatory_series(f, phi2, taus, tol=quad_tol)
    mags = np.abs(np.array([s1.value - s2.value for s1, s2 in zip(series1, series2)]))
    errs = np.array([s1.error_estimate + s2.error_estimate for s1, s2 in zip(series1, series2)])
    keep = mags > 3 * errs
    if np.count_nonzero(keep) < 3:
        return DecayReport(slope=float("-inf"), threshold=DECAY_THRESHOLD,
                           passed=True, vacuous=True, usable_points=int(np.count_nonzero(keep)))
    logt = np.log(taus[keep])
    logm = np.log(mags[keep])
    slope = float(np.polyfit(logt, logm, 1)[0])
    return DecayReport(slope=slope, threshold=DECAY_THRESHOLD,
                       passed=bool(slope <= DECAY_THRESHOLD), vacuous=False,
                       usable_points=int(np.count_nonzero(keep)))
