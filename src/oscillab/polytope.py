"""Newton polytopes with exact rational facet/vertex arithmetic (n <= 4).

The polytope of a support set S is the convex hull of the union of the
shifted orthants nu + R_{>=0}^n over nu in S.  Its H-description is
{nu >= 0 : l_j(nu) >= 1 for all facets j} where each l_j has nonnegative
rational weights.  The facets are the vertices of the dual polyhedron
{w >= 0 : w.p >= 1 for every minimal support point p}, found by double
description in integer rays, so the cost follows the facets rather than the
subsets of the support; only a vertex becomes a Fraction.  Faces are read off
the facet-generator incidences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .linalg import rank_exact
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
    """The support points no other point dominates, lex-sorted.  Only a point of
    lower degree dominates p, and then so does a kept one: p is tested against those."""
    kept, lower, degree = [], 0, -1
    for p in sorted({tuple(int(x) for x in p) for p in support}, key=lambda p: (sum(p), p)):
        if sum(p) > degree:
            degree, lower = sum(p), len(kept)
        if not any(all(qi <= pi for qi, pi in zip(q, p)) for q in kept[:lower]):
            kept.append(p)
    return sorted(kept)


def _dual_vertices(minpts: List[Tuple[int, ...]], n: int) -> List[FaceFunctional]:
    """The vertices w of Q = {w >= 0 : w.p >= 1 for every minimal point p}.

    Double description (Motzkin; Fukuda & Prodon 1996) on the homogenized cone
    {(w, t) : w >= 0, t >= 0, p.w - t >= 0}, one minimal point at a time.  A
    ray is an integer vector with the bitmask of the constraints it makes
    tight; the orthant constraints are bits 0..n and point k is bit n + 1 + k.
    Each adjacent (+, -) pair gives a new ray on the added hyperplane: two
    rays are adjacent when their common tight set has at least n - 1 members
    and no other ray is tight on all of it.  The rays with t > 0 are the
    vertices w / t.  A vertex makes n independent constraints tight, so its
    tight points and the axes with w_i = 0 span R^n: each vertex is a facet.
    """
    rays = [(tuple(int(i == j) for i in range(n + 1)), ((1 << n + 1) - 1) ^ (1 << j))
            for j in range(n + 1)]
    for k, p in enumerate(minpts, start=n + 1):
        vals = [sum(a * b for a, b in zip(p, r)) - r[n] for r, _ in rays]
        tights = [z for _, z in rays]
        out = [(r, z | (v == 0) << k) for (r, z), v in zip(rays, vals) if v >= 0]
        neg = [j for j, v in enumerate(vals) if v < 0]
        for i in (i for i, v in enumerate(vals) if v > 0):
            for j in neg:
                common = tights[i] & tights[j]
                if common.bit_count() < n - 1 or any(
                        z & common == common for m, z in enumerate(tights) if m != i and m != j):
                    continue
                r = [vals[i] * b - vals[j] * a for a, b in zip(rays[i][0], rays[j][0])]
                g = gcd(*r)
                out.append((tuple(x // g for x in r), common | 1 << k))
        rays = out
    return [FaceFunctional.from_weights([Fraction(x, r[n]) for x in r[:n]])
            for r, _ in rays if r[n] > 0]


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
    facets = _dual_vertices(minpts, n)
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
