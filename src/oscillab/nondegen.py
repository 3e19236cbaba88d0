"""Heuristic Newton-(non)degeneracy verdicts by multi-start local descent.

For every compact face sigma of the Newton polytope, the squared gradient
norm of the face polynomial is minimized over the torus shell
eps <= |x_i| <= 1/eps.  A candidate minimizer is rescaled along the face's
quasi-homogeneous ray to max |x_i| = 1 before thresholding, so residuals are
scale-normalized.  Verdicts are "likely-nondegenerate" or "degenerate"; the
decision problem is real-algebraic and certified methods are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from .poly import Polynomial
from .polytope import FaceDescriptor, NewtonPolytope, compact_faces, is_convenient, newton_polytope

__all__ = ["SearchOptions", "NondegeneracyVerdict", "check_R_nondegenerate",
           "check_C_nondegenerate"]


@dataclass(frozen=True)
class SearchOptions:
    starts: int = 200
    torus_floor: float = 1e-3
    witness_threshold: float = 1e-12
    # min |x_i| a scale-normalized witness must keep: points drifting toward a
    # coordinate hyperplane shrink monomial residuals without being torus zeros
    witness_coordinate_floor: float = 0.05
    seed: int = 0


@dataclass(frozen=True)
class NondegeneracyVerdict:
    status: str                       # "likely-nondegenerate" | "degenerate"
    witness: Optional[Tuple] = None   # point in (R \ 0)^n or (C \ 0)^n
    residual: Optional[float] = None  # scale-normalized gradient norm^2 at witness
    face: Optional[FaceDescriptor] = None
    starts: int = 0
    best_residual: float = float("inf")

    @property
    def degenerate(self) -> bool:
        return self.status == "degenerate"


def _normalize_scale(x: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Rescale along the quasi-homogeneous ray so that max |x_i| = 1."""
    w = np.asarray(weights, dtype=float)
    mags = np.abs(x)
    lam = np.min(-np.log(mags) / w)
    return x * np.exp(w * lam)


def _face_residual(partials, x) -> float:
    return float(sum(abs(p.evaluate(list(x))) ** 2 for p in partials))


def _search_face(face: FaceDescriptor, fsig: Polynomial, opts: SearchOptions,
                 complex_field: bool, face_index: int):
    n = fsig.n
    partials = [fsig.partial(i) for i in range(1, n + 1)]
    coeff_norm = float(sum(abs(float(c)) for c in fsig.terms.values()))
    scale = max(1.0, coeff_norm) ** 2
    wts = [float(w) for w in face.weights]
    lo, hi = log(opts.torus_floor), -log(opts.torus_floor)
    bounds_u = [(lo, hi)] * n

    # best over all starts, and best over interior minimizers only: minima
    # pinned to the shell boundary approach the coordinate hyperplanes and
    # are never witnesses (the zero set is allowed to meet {x1...xn = 0})
    best_any = float("inf")
    best_interior = (float("inf"), None)
    margin = 1e-6 * (hi - lo)
    for s in range(opts.starts):
        rng = np.random.default_rng((opts.seed, face_index, s))
        u0 = rng.uniform(lo, hi, size=n)
        if complex_field:
            ph0 = rng.uniform(0.0, 2 * np.pi, size=n)

            def objective(params):
                z = np.exp(params[:n] + 1j * params[n:])
                return _face_residual(partials, z)

            res = minimize(
                objective, np.concatenate([u0, ph0]), method="L-BFGS-B",
                bounds=bounds_u + [(None, None)] * n,
            )
            u = res.x[:n]
            x = np.exp(u + 1j * res.x[n:])
        else:
            signs = rng.choice([-1.0, 1.0], size=n)

            def objective(params):
                x = signs * np.exp(params)
                return _face_residual(partials, x)

            res = minimize(objective, u0, method="L-BFGS-B", bounds=bounds_u)
            u = res.x
            x = signs * np.exp(u)
        interior = bool(np.all(u > lo + margin) and np.all(u < hi - margin))
        xn = _normalize_scale(x, wts)
        r = _face_residual(partials, xn) / scale
        best_any = min(best_any, r)
        eligible = interior and float(np.min(np.abs(xn))) >= opts.witness_coordinate_floor
        if eligible and r < best_interior[0]:
            best_interior = (r, xn)
        if eligible and r < opts.witness_threshold:
            break
    return best_any, best_interior


def _check(f: Polynomial, opts: SearchOptions, complex_field: bool,
           poly: Optional[NewtonPolytope] = None) -> NondegeneracyVerdict:
    if poly is None:
        poly = newton_polytope(f)
    ok, _ = is_convenient(poly)
    if not ok:
        raise ValueError("nondegeneracy search requires a convenient polynomial")
    faces = compact_faces(poly)
    overall_best = float("inf")
    total_starts = 0
    for idx, face in enumerate(faces):
        fsig = f.restrict_to_weights(face.weights, 1)
        best_any, (resid, point) = _search_face(face, fsig, opts, complex_field, idx)
        total_starts += opts.starts
        overall_best = min(overall_best, best_any)
        if point is None:
            continue
        if resid < opts.witness_threshold and np.min(np.abs(point)) >= opts.witness_coordinate_floor:
            return NondegeneracyVerdict(
                status="degenerate",
                witness=tuple(point.tolist()),
                residual=resid,
                face=face,
                starts=total_starts,
                best_residual=resid,
            )
    return NondegeneracyVerdict(
        status="likely-nondegenerate",
        starts=total_starts,
        best_residual=overall_best,
    )


def check_R_nondegenerate(f: Polynomial, opts: SearchOptions = SearchOptions(),
                          polytope: Optional[NewtonPolytope] = None) -> NondegeneracyVerdict:
    """Search for a torus zero of the face-gradient system over the reals.

    ``polytope`` is f's Newton polytope when the caller has already built it.
    """
    return _check(f, opts, complex_field=False, poly=polytope)


def check_C_nondegenerate(f: Polynomial, opts: SearchOptions = SearchOptions()) -> NondegeneracyVerdict:
    """Complex variant: points with all coordinate moduli inside the shell."""
    return _check(f, opts, complex_field=True)
