"""Newton-(non)degeneracy verdicts: exact on edges, a batched search above.

f is nondegenerate over R (or C) when no compact face polynomial f_sigma has
a critical point on the torus (R \\ 0)^n (or (C \\ 0)^n).

- A vertex polynomial c x^a is never singular on the torus.
- An edge polynomial is x^a g(x^d), with d the edge's primitive direction and
  g(0) != 0.  Its Euler vector (x_i df/dx_i)_i is x^a (a g(t) + t g'(t) d) at
  t = x^d, and a, d are independent, so it vanishes iff g(t) = g'(t) = 0.
  Some d_i is odd, so x^d takes every nonzero real value: over R the edge is
  singular iff g has a real multiple root.  That is decided over Fraction with
  gcd(g, g') and Sturm counts (``poly.multiple_real_roots``).  In n = 2 every
  compact face is a vertex or an edge, so every real verdict there is exact
  and reports ``starts = 0``.
- Faces of dimension >= 2 over R, and every face of dimension >= 1 over C,
  are searched.  In log coordinates x = s e^u (s a sign vector, or e^{i phi}
  over C) the scale-free residual

      r(u) = A^T (c * x^A) / sum_k |c_k x^{a_k}|

  for the face's exponent matrix A and coefficients c vanishes exactly at
  torus critical points, is constant along the face's weight ray, and tends
  to the residual of a subface towards the torus boundary, so it is
  thresholded as it stands.  Every start on every searched face runs in one
  batched Levenberg-Marquardt solve with the closed-form Jacobian.  A search
  that finds no zero gives "likely-nondegenerate".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign, gcd, log
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .poly import Polynomial, multiple_real_roots
from .polytope import FaceDescriptor, NewtonPolytope, compact_faces, is_convenient, newton_polytope

__all__ = ["SearchOptions", "NondegeneracyVerdict", "check_R_nondegenerate",
           "check_C_nondegenerate"]

_MAX_ITERATIONS = 100
_LAMBDA_MIN = 1e-12     # keeps J^T J + lam I regular along the weight ray
_LAMBDA_MAX = 1e10      # damping past which a start has stalled
_COST_FLOOR = 1e-30     # |r|^2 at roundoff: the start has converged
_TORUS_FLOOR = 1e-3     # starts and iterates keep eps <= |x_i| <= 1/eps
_WITNESS_THRESHOLD = 1e-12  # bound on |r|^2 at a witness


@dataclass(frozen=True)
class SearchOptions:
    starts: int = 200               # per searched face
    seed: int = 0


@dataclass(frozen=True)
class NondegeneracyVerdict:
    status: str                       # "likely-nondegenerate" | "degenerate"
    witness: Optional[Tuple] = None   # point in (R \ 0)^n or (C \ 0)^n, max |x_i| = 1
    residual: Optional[float] = None  # scale-free residual |r|^2 at the witness
    face: Optional[FaceDescriptor] = None
    starts: int = 0                   # 0 for a verdict decided exactly
    best_residual: float = float("inf")  # least |r|^2 the search met

    @property
    def degenerate(self) -> bool:
        return self.status == "degenerate"


def _normalize_scale(x: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Rescale along the quasi-homogeneous ray so that max |x_i| = 1."""
    w = np.asarray(weights, dtype=float)
    lam = np.min(-np.log(np.abs(x)) / w, axis=-1, keepdims=True)
    return x * np.exp(w * lam)


def _compile(fsigs: List[Polynomial]):
    """Tables [A | A (x) A] (F, K, n + n^2) of the exponent matrices A, so that one
    product v @ AQ gives r and M, and coefficients (F, K); zero-padded to one K."""
    k, n = max(len(p.terms) for p in fsigs), fsigs[0].n
    A = np.zeros((len(fsigs), k, n))
    c = np.zeros((len(fsigs), k))
    for i, p in enumerate(fsigs):
        for j, (e, v) in enumerate(p.terms.items()):
            A[i, j] = e
            c[i, j] = float(v)
    return np.concatenate([A, (A[..., :, None] * A[..., None, :]).reshape(*c.shape, n * n)],
                          axis=-1), c


def _exponents(AQ, u):
    """u . a_k for every monomial: (F, S, n) -> (F, S, K)."""
    return u @ AQ[..., :u.shape[-1]].swapaxes(-1, -2)


def _residual(AQ, c, u, sign):
    """r(u), dr/du and the phase block M at x = e^u times monomial signs.

    ``u`` is (F, S, n); ``sign`` is (F, S, K), the unit factors s^{a_k} of the
    monomials (real signs, or complex phases).  Over C, dr/dphi = i M.
    """
    n = u.shape[-1]
    z = np.where(c[:, None, :] != 0, _exponents(AQ, u), -np.inf)
    e = np.exp(z - z.max(axis=-1, keepdims=True))   # a common factor cancels in r
    w = np.abs(c)[:, None, :] * e
    v = sign * c[:, None, :] * e
    total = w.sum(axis=-1)[..., None]
    rM = (v @ AQ) / total
    r, M = rM[..., :n], rM[..., n:].reshape(*rM.shape[:-1], n, n)
    grad_total = (w @ AQ[..., :n]) / total
    return r, M - r[..., :, None] * grad_total[..., None, :], M


def _real_sign(AQ, x):
    return np.where(_exponents(AQ, (x < 0).astype(float)) % 2, -1.0, 1.0)


def _cost_at(AQ, c, x) -> float:
    """|r|^2 at one point x (real or complex) of a single compiled face."""
    x = np.asarray(x)[None, None, :]
    if np.iscomplexobj(x):
        sign = np.exp(1j * _exponents(AQ, np.angle(x)))
    else:
        sign = _real_sign(AQ, x)
    r = _residual(AQ, c, np.log(np.abs(x)), sign)[0]
    return float(np.sum(np.abs(r) ** 2))


def _levenberg_marquardt(AQ, c, u, extra, complex_field, box):
    """Batched LM on |r|^2 over (F, S) starts; returns final parameters and costs.

    Over R ``extra`` is the fixed (F, S, K) monomial signs and the parameters
    are u; over C it is the phase vector phi, and the parameters are (u, phi).
    """
    n = u.shape[-1]

    def evaluate(p):
        if not complex_field:
            r, J, _ = _residual(AQ, c, p, extra)
            return r, J
        sign = np.exp(1j * _exponents(AQ, p[..., n:]))
        r, Ju, M = _residual(AQ, c, p[..., :n], sign)
        J = np.block([[Ju.real, -M.imag], [Ju.imag, M.real]])
        return np.concatenate([r.real, r.imag], axis=-1), J

    p = np.concatenate([u, extra], axis=-1) if complex_field else u
    r, J = evaluate(p)
    cost = np.sum(r * r, axis=-1)
    lam = np.full(cost.shape, 1e-3)
    eye = np.eye(p.shape[-1])
    for _ in range(_MAX_ITERATIONS):
        active = (cost > _COST_FLOOR) & (lam < _LAMBDA_MAX)
        if not active.any():
            break
        Jt = np.ascontiguousarray(J.swapaxes(-1, -2))   # @ on the transposed view is ~3x slower
        JtJ = Jt @ J
        damping = lam * np.trace(JtJ, axis1=-2, axis2=-1) / p.shape[-1] + 1e-30
        step = np.linalg.solve(JtJ + damping[..., None, None] * eye, -(Jt @ r[..., None]))[..., 0]
        trial = p + np.where(active[..., None], step, 0.0)
        trial[..., :n] = np.clip(trial[..., :n], *box)
        r_t, J_t = evaluate(trial)
        cost_t = np.sum(r_t * r_t, axis=-1)
        ok = active & (cost_t < cost)
        p = np.where(ok[..., None], trial, p)
        r = np.where(ok[..., None], r_t, r)
        J = np.where(ok[..., None, None], J_t, J)
        cost = np.where(ok, cost_t, cost)
        lam = np.where(ok, np.maximum(lam * 0.3, _LAMBDA_MIN), lam * 4.0)
    return p, cost


def _edge_witness(fsig: Polynomial, weights) -> Optional[np.ndarray]:
    """A real torus critical point of an edge polynomial, or None; exact."""
    exps = sorted(fsig.terms)     # collinear points: lex order runs along the edge
    a = exps[0]
    diff = [bi - ai for ai, bi in zip(a, exps[-1])]
    length = gcd(*diff)
    d = [x // length for x in diff]
    i = next(k for k, dk in enumerate(d) if dk)
    g = Polynomial(1, {((e[i] - a[i]) // d[i],): v for e, v in fsig.terms.items()})
    roots = multiple_real_roots(g)
    if not roots:
        return None
    # x^d = t with every coordinate 1 but one whose exponent d_i is odd
    t = roots[0]
    i = next(k for k, dk in enumerate(d) if dk % 2)
    x = np.ones(fsig.n)
    x[i] = copysign(abs(t) ** (1.0 / d[i]), t)
    return _normalize_scale(x, [float(w) for w in weights])


def _check(f: Polynomial, opts: SearchOptions, complex_field: bool,
           poly: Optional[NewtonPolytope] = None) -> NondegeneracyVerdict:
    if poly is None:
        poly = newton_polytope(f)
    ok, _ = is_convenient(poly)
    if not ok:
        raise ValueError("nondegeneracy search requires a convenient polynomial")
    # vertex polynomials are never singular on the torus
    pairs = [(face, f.restrict_to_weights(face.weights, 1))
             for face in compact_faces(poly) if face.dim > 0]
    if not complex_field:
        for face, fsig in pairs:
            if face.dim == 1 and (x := _edge_witness(fsig, face.weights)) is not None:
                resid = _cost_at(*_compile([fsig]), x)
                return NondegeneracyVerdict(status="degenerate", witness=tuple(x.tolist()),
                                            residual=resid, face=face, best_residual=resid)
        pairs = [(face, fsig) for face, fsig in pairs if face.dim > 1]
    if not pairs:
        return NondegeneracyVerdict(status="likely-nondegenerate")
    faces = [face for face, _ in pairs]

    AQ, c = _compile([fsig for _, fsig in pairs])
    shape = (len(faces), opts.starts, f.n)
    box = (log(_TORUS_FLOOR), -log(_TORUS_FLOOR))
    rng = np.random.default_rng(opts.seed)
    u0 = rng.uniform(*box, size=shape)
    if complex_field:
        extra = rng.uniform(0.0, 2 * np.pi, size=shape)
    else:
        signs = rng.choice([-1.0, 1.0], size=shape)
        extra = _real_sign(AQ, signs)
    p, cost = _levenberg_marquardt(AQ, c, u0, extra, complex_field, box)
    total_starts = len(faces) * opts.starts
    hits = np.argwhere(cost < _WITNESS_THRESHOLD)
    if not len(hits):
        return NondegeneracyVerdict(status="likely-nondegenerate", starts=total_starts,
                                    best_residual=float(cost.min(initial=np.inf)))

    # of all zeros found, report the one farthest from the coordinate hyperplanes
    points = []
    for k, s in hits:
        if complex_field:
            x = np.exp(p[k, s, :f.n] + 1j * p[k, s, f.n:])
        else:
            x = signs[k, s] * np.exp(p[k, s])
        points.append(_normalize_scale(x, [float(w) for w in faces[k].weights]))
    best = max(range(len(points)), key=lambda j: np.min(np.abs(points[j])))
    k, x = hits[best][0], points[best]
    resid = _cost_at(AQ[k:k + 1], c[k:k + 1], x)
    return NondegeneracyVerdict(status="degenerate", witness=tuple(x.tolist()), residual=resid,
                                face=faces[k], starts=total_starts, best_residual=resid)


def check_R_nondegenerate(f: Polynomial, opts: SearchOptions = SearchOptions(),
                          polytope: Optional[NewtonPolytope] = None) -> NondegeneracyVerdict:
    """Look for a real torus critical point of some compact face polynomial.

    ``polytope`` is f's Newton polytope when the caller has already built it.
    """
    return _check(f, opts, complex_field=False, poly=polytope)


def check_C_nondegenerate(f: Polynomial, opts: SearchOptions = SearchOptions()) -> NondegeneracyVerdict:
    """Complex variant: points with all coordinate moduli inside the shell."""
    return _check(f, opts, complex_field=True)
