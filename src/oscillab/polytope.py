"""Newton polytopes with exact rational facet/vertex arithmetic (n <= 4).

The polytope of a support set S is the convex hull of the union of the
shifted orthants nu + R_{>=0}^n over nu in S.  Its H-description is
{nu >= 0 : l_j(nu) >= 1 for all facets j} where each l_j has nonnegative
rational weights.  The facets are the vertices of the dual polyhedron
{w >= 0 : w.p >= 1 for every minimal support point p}; each candidate vertex
is decided in integers by Cramer's rule (determinant and numerators of a
k x k system of support points), and only an accepted one becomes a Fraction.
Faces are read off the facet-generator incidences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .linalg import det, rank_exact
from .poly import Polynomial

__all__ = [
    "FaceFunctional",
    "FaceDescriptor",
    "NewtonPolytope",
    "build_polytope",
    "newton_polytope",
    "is_convenient",
    "compact_faces",
    "newton_distance",
    "pair_distance_and_radii",
]

MAX_DIM = 4


@dataclass(frozen=True)
class FaceFunctional:
    """Facet inequality l(nu) = sum w_i nu_i >= 1 of a Newton polytope."""

    weights: Tuple[Fraction, ...]
    denominator: int          # LCM of the weight denominators
    diag_value: Fraction      # l(1,...,1)
    r_value: int              # denominator * diag_value
    compact: bool             # all weights strictly positive

    def __call__(self, point: Sequence) -> Fraction:
        return sum(w * Fraction(p) for w, p in zip(self.weights, point))

    @staticmethod
    def from_weights(weights: Sequence[Fraction]) -> "FaceFunctional":
        w = tuple(Fraction(x) for x in weights)
        dj = lcm(*(x.denominator for x in w)) if w else 1
        diag = sum(w)
        return FaceFunctional(
            weights=w,
            denominator=dj,
            diag_value=diag,
            r_value=int(dj * diag),
            compact=all(x > 0 for x in w),
        )


@dataclass(frozen=True)
class FaceDescriptor:
    """A compact face: strictly positive supporting weights at level 1."""

    weights: Tuple[Fraction, ...]
    generators: Tuple[Tuple[int, ...], ...]
    dim: int

    def value(self, point: Sequence) -> Fraction:
        return sum(w * Fraction(p) for w, p in zip(self.weights, point))


@dataclass(frozen=True)
class NewtonPolytope:
    n: int
    generators: Tuple[Tuple[int, ...], ...]
    facets: Tuple[FaceFunctional, ...]

    def contains(self, point: Sequence) -> bool:
        pt = [Fraction(x) for x in point]
        if any(x < 0 for x in pt):
            return False
        return all(f(pt) >= 1 for f in self.facets)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "generators": [list(g) for g in self.generators],
            "facets": [
                {
                    "weights": [str(w) for w in f.weights],
                    "dj": f.denominator,
                    "rj": f.r_value,
                    "compact": f.compact,
                }
                for f in self.facets
            ],
        }


def _minimal_points(support) -> List[Tuple[int, ...]]:
    pts = sorted({tuple(int(x) for x in p) for p in support})
    out = []
    for p in pts:
        dominated = any(
            q != p and all(qi <= pi for qi, pi in zip(q, p)) for q in pts
        )
        if not dominated:
            out.append(p)
    return out


def _enumerate_facets(minpts: List[Tuple[int, ...]], n: int) -> List[FaceFunctional]:
    """The vertices w of Q = {w >= 0 : w.p >= 1 for every minimal point p}.

    A vertex solves w.p = 1 on k points with w_i = 0 off a k-subset ``free``
    of the coordinates.  With M the points restricted to ``free``, D = det M
    and N_j the determinant of M with column j replaced by ones, Cramer's rule
    gives w_j = N_j / D, so integer signs and sums decide w >= 0 and
    feasibility.  Its n tight constraints are independent, so the tight
    points and the axes with w_i = 0 span R^n: each vertex is a facet.
    """
    found = set()
    for k in range(1, n + 1):
        for free in combinations(range(n), k):
            rows = [tuple(p[i] for i in free) for p in minpts]
            for m in combinations(rows, k):
                d = det(m)
                if d == 0:
                    continue
                nums = [det([[*r[:j], 1, *r[j + 1:]] for r in m]) for j in range(k)]
                if d < 0:
                    d, nums = -d, [-x for x in nums]
                if any(x < 0 for x in nums):
                    continue
                if any(sum(a * x for a, x in zip(r, nums)) < d for r in rows):
                    continue
                w = [Fraction(0)] * n
                for i, x in zip(free, nums):
                    w[i] = Fraction(x, d)
                found.add(tuple(w))
    return [FaceFunctional.from_weights(w) for w in found]


def build_polytope(support) -> NewtonPolytope:
    """Exact Newton polytope of a set of exponent vectors.

    Generators are the coordinatewise-minimal support points that lie on the
    boundary (attain equality on some facet); minimal points strictly inside
    the polytope are redundant and dropped.
    """
    pts = list(support)
    if not pts:
        raise ValueError("empty support")
    n = len(next(iter(pts)))
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension {n} outside supported range 1..{MAX_DIM}")
    minpts = _minimal_points(pts)
    facets = _enumerate_facets(minpts, n)
    if facets:
        gens = [p for p in minpts if any(f(p) == 1 for f in facets)]
    else:
        # only possible when 0 is in the support: the polytope is the orthant
        gens = [tuple([0] * n)]
    facets = sorted(facets, key=lambda f: f.weights)
    return NewtonPolytope(n=n, generators=tuple(gens), facets=tuple(facets))


def newton_polytope(p: Polynomial) -> NewtonPolytope:
    if p.is_zero():
        raise ValueError("zero polynomial has an empty Newton polytope")
    return build_polytope(p.support)


def is_convenient(p: NewtonPolytope) -> Tuple[bool, Optional[List[int]]]:
    """True iff some generator is a pure power on every axis; returns intercepts."""
    intercepts: List[Optional[int]] = [None] * p.n
    for g in p.generators:
        nz = [i for i, x in enumerate(g) if x != 0]
        if len(nz) == 0:
            # origin generator: polytope is the whole orthant, intercept 0 everywhere
            return True, [0] * p.n
        if len(nz) == 1:
            i = nz[0]
            if intercepts[i] is None or g[i] < intercepts[i]:
                intercepts[i] = g[i]
    if all(c is not None for c in intercepts):
        return True, [int(c) for c in intercepts]
    return False, None


def compact_faces(p: NewtonPolytope) -> List[FaceDescriptor]:
    """All compact faces (dimensions 0..n-1), each with positive weights at level 1."""
    ok, _ = is_convenient(p)
    if not ok:
        raise ValueError("compact face enumeration requires a convenient polytope")
    n = p.n
    if not p.facets:
        return [FaceDescriptor(weights=tuple([Fraction(1)] * n),
                               generators=(tuple([0] * n),), dim=0)]
    # every face's generator set is an intersection of facet incidence sets,
    # possibly cut by coordinate hyperplanes (Kaibel & Pfetsch 2002)
    gens = p.generators
    on_facet = [frozenset(k for k, g in enumerate(gens) if f(g) == 1) for f in p.facets]
    on_axis = [frozenset(k for k, g in enumerate(gens) if g[i] == 0) for i in range(n)]
    seen = set(on_facet)
    work = list(seen)
    while work:
        s = work.pop()
        for t in on_facet + on_axis:
            if (u := s & t) and u not in seen:
                seen.add(u)
                work.append(u)
    faces = []
    for s in seen:
        jstar = [f for f, t in zip(p.facets, on_facet) if s <= t]
        istar = [i for i, t in enumerate(on_axis) if s <= t]
        # a coordinate ray lying in every active facet makes the face unbounded
        if any(i not in istar and all(f.weights[i] == 0 for f in jstar) for i in range(n)):
            continue
        w = tuple((sum(f.weights[i] for f in jstar) + int(i in istar)) / len(jstar)
                  for i in range(n))
        vset = tuple(gens[k] for k in sorted(s))
        span = [[Fraction(vi - bi) for vi, bi in zip(v, vset[0])] for v in vset[1:]]
        faces.append(FaceDescriptor(weights=w, generators=vset,
                                    dim=rank_exact(span) if span else 0))
    return sorted(faces, key=lambda f: (f.dim, f.generators))


def newton_distance(p: NewtonPolytope):
    """Newton distance t0 = min{t : t*(1,..,1) in polytope} and principal facets."""
    ok, _ = is_convenient(p)
    if not ok:
        raise ValueError("newton distance requires a convenient polytope")
    if not p.facets:
        return Fraction(0), []
    t0 = max(1 / f.diag_value for f in p.facets)
    principal = sorted(
        (f for f in p.facets if 1 / f.diag_value == t0), key=lambda f: f.weights
    )
    return t0, principal


def pair_distance_and_radii(pf: NewtonPolytope, pphi: NewtonPolytope):
    """(d(f,phi), r, r') for a convenient phase polytope and an amplitude polytope.

    d(f,phi) is the smallest d with d*(polytope(phi) + 1) inside polytope(f);
    since both sets are up-closed it is attained at a shifted generator against
    a facet.  r is the largest axis intercept of polytope(f): the slice of
    {|nu| >= r} by the simplex faces has its extreme points on the axes, so
    max intercept is the least r with {nu >= 0, |nu| >= r} contained in the
    polytope.  r' is the smallest coordinate sum of a generator of phi.
    """
    ok, intercepts = is_convenient(pf)
    if not ok:
        raise ValueError("pair distance requires a convenient phase polytope")
    if pf.n != pphi.n:
        raise ValueError("dimension mismatch")
    one = [1] * pf.n
    dvals = []
    for g in pphi.generators:
        shifted = [gi + 1 for gi in g]
        for f in pf.facets:
            dvals.append(1 / f(shifted))
    d = max(dvals) if dvals else Fraction(0)
    r = Fraction(max(intercepts))
    rprime = min(Fraction(sum(g)) for g in pphi.generators)
    return d, r, rprime
