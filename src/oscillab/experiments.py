"""Experiment orchestration: the exponent-bound battery and the blowup-cutoff lab.

The battery measures leading exponents for a table of convenient fixtures and
compares each against its exact pair-distance bound.  The lab runs the full
blowup pipeline for a homogeneous phase in two even variables: hypothesis
checks, exponent fits for the blowup-symmetric cutoff (a sum of chart
integrals against the measure |dx|) and for a generic bump, and coefficient
probes at the candidate exponent.  Every claim line carries a verdict in
{supports, contradicts, indeterminate}; the lab records evidence, it does not
arbitrate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ._version import __version__
from .bump import CutoffFunction, SymmetricCutoff, TestFunction
from .fit import check_theorem2, coefficient_at, fit_leading, geometric_grid
from .nondegen import SearchOptions, check_R_nondegenerate
from .poly import Polynomial, circle_zeros, parse
from .polytope import is_convenient, newton_polytope
from .quad import (
    chart_parity_integral,
    erdelyi_leading,
    eval_oscillatory_series,
)
from .reports import export_report, sample_row
from .rlct import blowup_charts, rlct_newton_candidate

__all__ = [
    "ExperimentConfig",
    "HypothesisError",
    "BatteryReport",
    "Theorem3Report",
    "default_battery_fixtures",
    "run_theorem2_battery",
    "run_theorem3_lab",
    "export_report",
    "zero_locus_is_origin",
]

BOUND_TOLERANCE = 0.05
LAB_OVERLAP = 0.25                          # chart-cover overlap parameter
LAB_SYM_TAU_MAX = 1e3                       # fit window cap for the chart-sum series
LAB_SYM_TAU_COUNT = 9


class HypothesisError(RuntimeError):
    """A fixture violates a stated precondition; ``check`` names which one."""

    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


@dataclass(frozen=True)
class ExperimentConfig:
    """The tau sweep of a run; the lab also reads ``dim`` and ``seed``."""

    dim: int = 2                                # parses a lab phase given as text
    cutoff: Tuple[float, float] = (1.0, 2.0)
    tau_min: float = 1e2
    tau_max: float = 1e4
    tau_count: int = 24
    tol: float = 1e-10
    seed: int = 0                               # the lab's nondegeneracy search


# ---------------------------------------------------------------------------
# Exponent-bound battery
# ---------------------------------------------------------------------------


def default_battery_fixtures() -> List[Tuple[str, Tuple[int, ...]]]:
    """(phase text, amplitude monomial) pairs, all convenient and nondegenerate."""
    return [
        ("x1^2 + x2^2", (0, 0)),
        ("x1^4 + x2^4", (0, 0)),
        ("x1^2 + x2^4", (0, 0)),
        ("x1^6 + x2^6", (0, 0)),
        ("x1^4 + x2^4", (2, 2)),
    ]


@dataclass(frozen=True)
class BatteryReport:
    rows: Tuple[dict, ...]
    passed: bool
    config: dict

    def to_json_dict(self) -> dict:
        return {
            "kind": "theorem2-battery",
            "version": __version__,
            "passed": self.passed,
            "rows": list(self.rows),
            "config": self.config,
            "tolerances": {"bound": BOUND_TOLERANCE},
        }


def run_theorem2_battery(
    fixtures: Optional[Sequence[Tuple[str, Tuple[int, ...]]]] = None,
    config: Optional[ExperimentConfig] = None,
) -> BatteryReport:
    """Fit each fixture's exponent and compare against -1/d(f, phi), exactly bounded."""
    fixtures = list(fixtures) if fixtures is not None else default_battery_fixtures()
    cfg = config or ExperimentConfig()
    taus = geometric_grid(cfg.tau_min, cfg.tau_max, cfg.tau_count)
    rows = []
    all_pass = True
    for phase_text, nu in fixtures:
        f = parse(phase_text, len(nu))
        phi = TestFunction(nu=tuple(nu), cutoff=CutoffFunction(*cfg.cutoff), shape="product")
        samples = eval_oscillatory_series(f, phi, taus, cfg.tol)
        poly = newton_polytope(f)
        report = check_theorem2(f, phi, samples, tolerance=BOUND_TOLERANCE, polytope=poly)
        rlct = rlct_newton_candidate(f, nondegen_opts=None, polytope=poly)
        # exact consistency of the two bound expressions: d <= r / (r' + n)
        pair_ok = report.d_pair <= report.r / (report.r_prime + f.n)
        if report.passed is None:
            status = "indeterminate"
            all_pass = False
        elif report.passed and pair_ok:
            status = "pass"
        else:
            status = "fail"
            all_pass = False
        rows.append(
            {
                "label": f"{phase_text} | nu={list(nu)}",
                "phase": phase_text,
                "nu": list(nu),
                "rlct_candidate": str(rlct.value),
                "alpha_hat": report.alpha_hat,
                "bound_pair_distance": str(report.bound_pair_distance),
                "bound_radii": str(report.bound_radii),
                "d_pair": str(report.d_pair),
                "r": str(report.r),
                "r_prime": str(report.r_prime),
                "pair_bound_consistent": bool(pair_ok),
                "slack": report.slack,
                "status": status,
            }
        )
    # each fixture's dimension is len(nu), and the battery searches nothing
    config = {key: value for key, value in asdict(cfg).items() if key not in ("dim", "seed")}
    return BatteryReport(rows=tuple(rows), passed=all_pass, config=config)


# ---------------------------------------------------------------------------
# Blowup-cutoff lab
# ---------------------------------------------------------------------------


def zero_locus_is_origin(f: Polynomial) -> bool:
    """True iff the real zero locus of a homogeneous f in two variables is the origin.

    Decided exactly: f has no zero on the unit circle (``poly.circle_zeros``).
    """
    return not circle_zeros(f)


def _diagonal_oracle(f: Polynomial, nu: Tuple[int, ...]):
    """Leading coefficient for phases sum_i c_i x_i^{d_i} with even d_i, c_i of either sign.

    Each axis factor of the product-bump integral has the closed leading term
    2 * (1/d) Gamma(b/d) e^{sign(c) i pi b/(2d)} |c|^{-b/d} with b = nu_i + 1,
    so the product is an independent check on fitted coefficients.
    """
    parts = f.axis_parts()
    if parts is None or parts[1] != 0 or any(len(p.terms) != 1 for p in parts[0]):
        return None
    coeff = 1.0 + 0.0j
    alpha = 0.0
    for p, k in zip(parts[0], nu):
        (((di,), ci),) = p.terms.items()
        if di % 2 or k % 2:
            return None  # odd k: odd axis integrand, its leading term cancels on the full line
        coeff = coeff * 2.0 * erdelyi_leading(k + 1, di, float(ci), 1.0)
        alpha -= (k + 1) / di
    return {"alpha": alpha, "coeff": [float(coeff.real), float(coeff.imag)]}


def _claim(name: str, statement: str, verdict: str, measured: dict, tolerance) -> dict:
    return {
        "name": name,
        "statement": statement,
        "verdict": verdict,
        "measured": measured,
        "tolerance": tolerance,
    }


@dataclass(frozen=True)
class Theorem3Report:
    phase: str
    n: int
    d: int
    gamma: Fraction
    hypothesis_checks: Dict[str, bool]
    symmetric_fit: dict
    generic_fit: dict
    coefficient_probes: Dict[str, list]
    oracle: Optional[dict]
    support_sweep: Tuple[dict, ...]
    claims: Tuple[dict, ...]
    config: dict
    series: Dict[str, list]

    def to_json_dict(self) -> dict:
        return {
            "kind": "theorem3-lab",
            "version": __version__,
            "phase": self.phase,
            "n": self.n,
            "d": self.d,
            "gamma": str(self.gamma),
            "gamma_float": float(self.gamma),
            "candidate_exponent": -float(self.gamma),
            "hypothesis_checks": dict(sorted(self.hypothesis_checks.items())),
            "symmetric_fit": self.symmetric_fit,
            "generic_fit": self.generic_fit,
            "coefficient_probes": self.coefficient_probes,
            "oracle": self.oracle,
            "support_sweep": list(self.support_sweep),
            "claims": list(self.claims),
            "config": self.config,
            "series": self.series,
            "tolerances": {
                "bound": BOUND_TOLERANCE,
                "quadrature": self.config.get("tol"),
            },
        }


def run_theorem3_lab(f, config: Optional[ExperimentConfig] = None) -> Theorem3Report:
    """Full blowup-cutoff pipeline for a homogeneous phase in two even variables.

    Precondition violations (non-homogeneous, non-convenient, odd dimension,
    unsupported dimension) raise HypothesisError with the failed check named;
    soft hypothesis checks (nondegeneracy, zero locus, degree parity) are
    recorded in the report and weaken verdicts instead of aborting.
    """
    cfg = config or ExperimentConfig()
    if isinstance(f, str):
        f = parse(f, cfg.dim)

    d = f.homogeneous_degree()
    if d is None:
        raise HypothesisError("homogeneous", "phase is not homogeneous")
    poly = newton_polytope(f)
    convenient, _ = is_convenient(poly)
    if not convenient:
        raise HypothesisError("convenient", "phase is not convenient")
    if f.n % 2:
        raise HypothesisError("even_dimension", f"dimension {f.n} is odd")
    if f.n != 2:
        raise HypothesisError("supported_dimension", f"lab supports n = 2, got {f.n}")

    n = f.n
    gamma = Fraction(n, d)
    verdict_nd = check_R_nondegenerate(f, SearchOptions(starts=60, seed=cfg.seed), polytope=poly)
    checks = {
        "homogeneous": True,
        "convenient": True,
        "even_dimension": True,
        "likely_R_nondegenerate": not verdict_nd.degenerate,
        "zero_locus_origin_only": zero_locus_is_origin(f),
        "degree_even": d % 2 == 0,
        "degree_exceeds_dimension": d > n,
    }

    eta = CutoffFunction(*cfg.cutoff)
    sc = SymmetricCutoff(n=2, eps=LAB_OVERLAP, eta=eta)
    charts = blowup_charts(f)

    # chart-sum series for the blowup-symmetric cutoff
    sym_taus = geometric_grid(cfg.tau_min, min(cfg.tau_max, LAB_SYM_TAU_MAX), LAB_SYM_TAU_COUNT)
    sym_series = [chart_parity_integral(charts, sc, tau, cfg.tol) for tau in map(float, sym_taus)]

    # generic product-bump series over the full tau window
    taus = geometric_grid(cfg.tau_min, cfg.tau_max, cfg.tau_count)
    phi = TestFunction(nu=(0,) * n, cutoff=eta, shape="product")
    gen_series = eval_oscillatory_series(f, phi, taus, cfg.tol)

    sym_fit = fit_leading(sym_series, n_ambient=n)
    gen_fit = fit_leading(gen_series, n_ambient=n)

    alpha = -float(gamma)
    probes = {"symmetric": [], "generic": []}
    for k in range(n):
        probes["symmetric"].append(coefficient_at(sym_series, alpha, k).to_json_dict())
        probes["generic"].append(coefficient_at(gen_series, alpha, k).to_json_dict())
    oracle = _diagonal_oracle(f, (0,) * n)

    # support-shrinking sweep: the candidate exponent should not move
    sweep = []
    for b in (2.0, 1.0, 0.5):
        eta_b = CutoffFunction(b / 2, b)
        if eta_b == eta:
            est = gen_fit  # the generic series already samples this cutoff
        else:
            phi_b = TestFunction(nu=(0,) * n, cutoff=eta_b, shape="product")
            est = fit_leading(eval_oscillatory_series(f, phi_b, taus, cfg.tol), n_ambient=n)
        sweep.append({"radius": b, "alpha_hat": est.alpha_hat, "converged": est.converged})

    claims = []
    if gen_fit.converged:
        ok = gen_fit.alpha_hat <= alpha + BOUND_TOLERANCE
        v = "supports" if ok else "contradicts"
    else:
        v = "indeterminate"
    claims.append(_claim(
        "exponent_upper_bound",
        f"the measured leading exponent for a generic bump is at most {alpha}",
        v,
        {"alpha_hat": gen_fit.alpha_hat, "candidate": alpha},
        BOUND_TOLERANCE,
    ))

    sym_probe0 = probes["symmetric"][0]
    claims.append(_claim(
        "strict_exponent_gap",
        f"the coefficient at tau^({alpha}) vanishes for the blowup-symmetric "
        "cutoff in the measure convention (claim under test, not asserted)",
        {"zero": "supports", "nonzero": "contradicts"}.get(sym_probe0["classification"],
                                                         "indeterminate"),
        {
            "coeff": sym_probe0["coeff"],
            "noise": sym_probe0["noise"],
            "oracle": oracle,
        },
        "3 * (noise + trend)",
    ))

    alphas = [s["alpha_hat"] for s in sweep if s["converged"]]
    if len(alphas) == len(sweep):
        stable = max(alphas) - min(alphas) < BOUND_TOLERANCE
        v = "supports" if stable else "contradicts"
    else:
        v = "indeterminate"
    claims.append(_claim(
        "support_shrinking_invariance",
        "the fitted exponent is invariant under shrinking the cutoff support",
        v,
        {"alpha_hats": alphas},
        BOUND_TOLERANCE,
    ))

    if not checks["likely_R_nondegenerate"] or not checks["zero_locus_origin_only"]:
        claims = [
            dict(c, verdict="indeterminate") if c["name"] == "strict_exponent_gap" else c
            for c in claims
        ]

    return Theorem3Report(
        phase=str(f),
        n=n,
        d=d,
        gamma=gamma,
        hypothesis_checks=checks,
        symmetric_fit=sym_fit.to_json_dict(),
        generic_fit=gen_fit.to_json_dict(),
        coefficient_probes=probes,
        oracle=oracle,
        support_sweep=tuple(sweep),
        claims=tuple(claims),
        config=dict(asdict(cfg), phase=str(f), dim=n),
        series={
            "symmetric": [sample_row(s) for s in sym_series],
            "generic": [sample_row(s) for s in gen_series],
        },
    )
