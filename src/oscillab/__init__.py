"""Numerical laboratory for oscillatory integrals with polynomial phases.

Exact Newton-polytope invariants and log-canonical-threshold candidates,
oscillation-resolved quadrature for I(tau) = int e^{i tau f(x)} phi(x) dx,
asymptotic exponent/coefficient fitting, and experiment batteries that compare
measured decay rates against the exact combinatorial bounds.
"""

from ._version import __version__
from .bump import CutoffFunction, SymmetricCutoff, TestFunction, make_cutoff
from .experiments import (
    ExperimentConfig,
    HypothesisError,
    export_report,
    run_theorem2_battery,
    run_theorem3_lab,
)
from .fit import (
    ExponentEstimate,
    check_theorem2,
    coefficient_at,
    cutoff_independence_check,
    fit_leading,
    geometric_grid,
)
from .nondegen import SearchOptions, check_C_nondegenerate, check_R_nondegenerate
from .poly import ParseError, Polynomial, parse
from .polytope import (
    FaceFunctional,
    NewtonPolytope,
    build_polytope,
    compact_faces,
    is_convenient,
    newton_distance,
    newton_polytope,
    pair_distance_and_radii,
)
from .quad import (
    OscillatorySample,
    QuadratureBudgetError,
    chart_parity_integral,
    erdelyi_leading,
    eval_oscillatory,
    eval_oscillatory_series,
    radial_reduce,
)
from .rlct import (
    ResolutionDatum,
    RlctReport,
    blowup_charts,
    gamma_from_resolution,
    load_resolution_data,
    rlct_homogeneous,
    rlct_newton_candidate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
