"""Real log canonical threshold computations.

Three routes, all exact rationals: from user-supplied resolution data
(min (k_j + 1) / m_j), from the single point-blowup of a homogeneous
polynomial (n / d; in n = 2 min(2 / d, 1 / m), m the largest multiplicity of
a real zero line; in n >= 3 min(n / d, 1) when f certifiably changes sign), and as
the Newton principal-face candidate 1 / t0 with the even/odd parity
bookkeeping that governs when the candidate is expected to be attained.  The
candidate route reports, it never asserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import prod
from typing import Dict, List, Optional, Tuple

from .nondegen import SearchOptions, check_R_nondegenerate
from .poly import Polynomial, real_root_multiplicity
from .polytope import NewtonPolytope, is_convenient, newton_distance, newton_polytope

__all__ = [
    "ResolutionDatum",
    "RlctReport",
    "BlowupChart",
    "gamma_from_resolution",
    "rlct_homogeneous",
    "rlct_newton_candidate",
    "blowup_charts",
    "load_resolution_data",
]


@dataclass(frozen=True)
class ResolutionDatum:
    """Per-divisor multiplicities (m_j of the pulled-back function, k_j of the form)."""

    components: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("resolution data must be non-empty")
        comps = tuple((int(m), int(k)) for m, k in self.components)
        for m, k in comps:
            if m < 1 or k < 0:
                raise ValueError(f"invalid multiplicities (m={m}, k={k})")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class FaceParity:
    dj: int
    rj: int
    dj_even: bool
    rj_odd: bool


@dataclass(frozen=True)
class RlctReport:
    value: Fraction
    method: str  # "resolution" | "homogeneous" | "newton-candidate"
    flags: Dict[str, bool] = field(default_factory=dict)
    parity: Tuple[FaceParity, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "value": str(self.value),
            "method": self.method,
            "flags": dict(sorted(self.flags.items())),
            "parity": [
                {"dj": p.dj, "rj": p.rj, "dj_even": p.dj_even, "rj_odd": p.rj_odd}
                for p in self.parity
            ],
        }


@dataclass(frozen=True)
class BlowupChart:
    index: int                 # which variable is the chart's radial coordinate
    h: Polynomial              # f with x_index = 1, in the remaining variables
    f_multiplicity: int        # d
    jacobian_multiplicity: int  # n - 1


def gamma_from_resolution(data: ResolutionDatum) -> Fraction:
    """min over divisors of (k_j + 1) / m_j."""
    return min(Fraction(k + 1, m) for m, k in data.components)


def load_resolution_data(text: str) -> ResolutionDatum:
    """Parse the JSON array [{"m": int, "k": int}, ...]."""
    raw = json.loads(text)
    if not isinstance(raw, list):
        raise ValueError(f"resolution data must be a JSON array, got {raw!r}")
    for j, item in enumerate(raw):
        if not isinstance(item, dict) or any(type(item.get(key)) is not int for key in ("m", "k")):
            raise ValueError(f"resolution data entry {j} needs integer m and k: {item!r}")
    return ResolutionDatum(tuple((item["m"], item["k"]) for item in raw))


def blowup_charts(f: Polynomial) -> List[BlowupChart]:
    """Charts of the origin blowup of a homogeneous f: pullback (y_i)^d h_i."""
    d = f.homogeneous_degree()
    if d is None:
        raise ValueError("blowup charts require a homogeneous polynomial")
    if f.n < 2:
        raise ValueError("blowup charts require n >= 2")
    return [
        BlowupChart(
            index=i,
            h=f.substitute_one(i),
            f_multiplicity=d,
            jacobian_multiplicity=f.n - 1,
        )
        for i in range(1, f.n + 1)
    ]


def _validity_flags(f: Polynomial, poly: NewtonPolytope,
                    nondegen_opts: Optional[SearchOptions]) -> Dict[str, bool]:
    convenient, _ = is_convenient(poly)
    flags = {"convenient": convenient}
    flags["homogeneous"] = f.homogeneous_degree() is not None
    if nondegen_opts is not None and convenient:
        verdict = check_R_nondegenerate(f, nondegen_opts, polytope=poly)
        flags["likely_R_nondegenerate"] = not verdict.degenerate
    return flags


def _changes_sign(f: Polynomial) -> bool:
    """True when f takes both signs at points of {-1, 0, 1}^n, evaluated exactly."""
    values = {sum(c * prod(x**k for x, k in zip(point, e)) for e, c in f.terms.items())
              for point in product((-1, 0, 1), repeat=f.n)}
    return min(values) < 0 < max(values)


def rlct_homogeneous(
    f: Polynomial,
    nondegen_opts: Optional[SearchOptions] = SearchOptions(starts=40),
) -> RlctReport:
    """rlct of a convenient homogeneous polynomial by the point blowup.

    The origin's chart gives n/d.  In n = 2 the real zeros of f away from
    the origin are the lines x1 = t x2 through the real roots t of f(t, 1)
    (f(1, 0) != 0, f being convenient); near a line of multiplicity m, |f|
    is |distance|^m times a unit, so the value is min(2/d, 1/m) exactly,
    with m the largest multiplicity of a real root (``poly.
    real_root_multiplicity``; 2/d when there is none).  In n >= 3, when f
    takes both signs at a point of {-1, 0, 1}^n (exact arithmetic), its real
    zeros form a hypersurface, which bounds the threshold by 1, and the
    value is min(n/d, 1); it is exact when those zeros away from the origin
    are smooth and reduced, and an upper bound otherwise.  Flag
    ``sign_change_certified`` says whether f takes both signs there.  The
    nondegeneracy verdict is attached as a validity flag, not a gate.
    """
    d = f.homogeneous_degree()
    if d is None:
        raise ValueError("rlct_homogeneous requires a homogeneous polynomial")
    poly = newton_polytope(f)
    convenient, _ = is_convenient(poly)
    if not convenient:
        raise ValueError("rlct_homogeneous requires a convenient polynomial")
    indefinite = _changes_sign(f)
    value = Fraction(f.n, d)
    if f.n == 2:
        m = real_root_multiplicity(f.substitute_one(2))
        value = min(value, Fraction(1, m)) if m else value
    elif indefinite:
        value = min(value, Fraction(1))
    flags = _validity_flags(f, poly, nondegen_opts)
    flags["sign_change_certified"] = indefinite
    flags["value_at_most_one"] = value <= 1
    return RlctReport(value=value, method="homogeneous", flags=flags)


def rlct_newton_candidate(
    f: Polynomial,
    nondegen_opts: Optional[SearchOptions] = SearchOptions(starts=40),
    polytope: Optional[NewtonPolytope] = None,
) -> RlctReport:
    """Candidate rlct = 1/t0 from the principal faces, with parity data.

    The value is a CANDIDATE: it is the reciprocal Newton distance, valid as
    the actual threshold only under nondegeneracy and further sign/parity
    hypotheses, which are reported in ``flags`` and ``parity`` for downstream
    interpretation rather than asserted here.  ``polytope`` is f's Newton
    polytope when the caller has already built it.
    """
    poly = polytope if polytope is not None else newton_polytope(f)
    convenient, _ = is_convenient(poly)
    if not convenient:
        raise ValueError("newton candidate requires a convenient polynomial")
    t0, principal = newton_distance(poly)
    if t0 == 0:
        raise ValueError("newton distance is zero (constant term present)")
    value = 1 / t0
    parity = tuple(
        FaceParity(
            dj=p.denominator,
            rj=p.r_value,
            dj_even=p.denominator % 2 == 0,
            rj_odd=p.r_value % 2 == 1,
        )
        for p in principal
    )
    flags = _validity_flags(f, poly, nondegen_opts)
    flags["value_at_most_one"] = value <= 1
    flags["candidate_below_one"] = value < 1
    flags["parity_condition_some_face"] = any(p.dj_even and p.rj_odd for p in parity)
    return RlctReport(value=value, method="newton-candidate", flags=flags, parity=parity)
