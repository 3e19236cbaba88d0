import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from oscillab.poly import parse
from oscillab.linalg import rank_exact
from oscillab.polytope import (
    FaceDescriptor,
    FaceFunctional,
    NewtonPolytope,
    _minimal_points,
    build_polytope,
    compact_faces,
    is_convenient,
    newton_distance,
    newton_polytope,
    pair_distance_and_radii,
)

F = Fraction


def test_diagonal_quartic_facets():
    p = newton_polytope(parse("x1^4 + x2^4", 2))
    assert set(p.generators) == {(4, 0), (0, 4)}
    assert len(p.facets) == 1
    (facet,) = p.facets
    assert facet.weights == (F(1, 4), F(1, 4))
    assert facet.denominator == 4
    assert facet.r_value == 2
    assert facet.compact


def test_mixed_degree_facet():
    p = newton_polytope(parse("x1^2 + x2^4", 2))
    (facet,) = p.facets
    assert facet.weights == (F(1, 2), F(1, 4))
    assert facet.denominator == 4
    assert facet.r_value == 3


def test_interior_minimal_point_is_not_a_generator():
    # (1, 1) sits on the boundary segment between (2, 0) and (0, 2)
    p = build_polytope([(2, 0), (0, 2), (1, 1)])
    assert set(p.generators) == {(2, 0), (0, 2), (1, 1)}
    # ...but a strictly interior minimal point is dropped
    q = build_polytope([(2, 0), (0, 2), (2, 2)])
    assert set(q.generators) == {(2, 0), (0, 2)}


def test_dominated_support_points_are_dropped():
    p = build_polytope([(4, 0), (0, 4), (6, 0), (5, 5)])
    assert set(p.generators) == {(4, 0), (0, 4)}


def test_three_dimensional_sixfold_generator_set():
    f = parse("(x1^2 + x2^2 + x3^2)^2 + x1^6 + x2^6 + x3^6", 3)
    p = newton_polytope(f)
    assert set(p.generators) == {
        (4, 0, 0), (0, 4, 0), (0, 0, 4),
        (2, 2, 0), (2, 0, 2), (0, 2, 2),
    }
    t0, principal = newton_distance(p)
    assert t0 == F(4, 3)
    # every principal facet has positive weights
    assert all(f.compact for f in principal)


def test_convenient_and_intercepts():
    p = newton_polytope(parse("x1^2 + x2^4", 2))
    ok, intercepts = is_convenient(p)
    assert ok and intercepts == [2, 4]
    q = newton_polytope(parse("x1*x2", 2))
    ok, intercepts = is_convenient(q)
    assert not ok and intercepts is None
    assert {f.weights for f in q.facets} == {(F(1), F(0)), (F(0), F(1))}
    assert not any(f.compact for f in q.facets)


def test_origin_in_support_gives_full_orthant():
    p = build_polytope([(0, 0), (3, 1)])
    assert p.generators == ((0, 0),)
    assert p.facets == ()
    ok, intercepts = is_convenient(p)
    assert ok and intercepts == [0, 0]
    t0, principal = newton_distance(p)
    assert t0 == 0 and principal == []


def test_newton_distance_diagonal():
    p = newton_polytope(parse("x1^4 + x2^4", 2))
    t0, principal = newton_distance(p)
    assert t0 == 2
    assert len(principal) == 1
    q = newton_polytope(parse("x1^2 + x2^4", 2))
    t0q, _ = newton_distance(q)
    assert t0q == F(4, 3)


def test_newton_distance_requires_convenient():
    p = newton_polytope(parse("x1*x2", 2))
    with pytest.raises(ValueError):
        newton_distance(p)


def test_compact_faces_diagonal_quartic():
    p = newton_polytope(parse("x1^4 + x2^4", 2))
    faces = compact_faces(p)
    dims = sorted(f.dim for f in faces)
    assert dims == [0, 0, 1]
    for f in faces:
        assert all(w > 0 for w in f.weights)
        assert all(f.value(g) == 1 for g in f.generators)
    edge = [f for f in faces if f.dim == 1][0]
    assert set(edge.generators) == {(4, 0), (0, 4)}


def test_compact_faces_exclude_unbounded_faces():
    # x1^2 + x1*x2^2: not convenient, so compact-face enumeration must refuse
    p = newton_polytope(parse("x1^2 + x1*x2^2", 2))
    with pytest.raises(ValueError):
        compact_faces(p)


def test_pair_distance_trivial_amplitude():
    pf = newton_polytope(parse("x1^4 + x2^4", 2))
    pphi = build_polytope([(0, 0)])
    d, r, rprime = pair_distance_and_radii(pf, pphi)
    assert d == 2 and r == 4 and rprime == 0
    # the distance bound d <= r / (r' + n) holds with equality here
    assert d == r / (rprime + pf.n)


def test_pair_distance_monomial_amplitude():
    pf = newton_polytope(parse("x1^4 + x2^4", 2))
    pphi = build_polytope([(2, 2)])
    d, r, rprime = pair_distance_and_radii(pf, pphi)
    # shifted generator (3, 3) has facet value 6/4, so d = 4/6
    assert d == F(2, 3)
    assert rprime == 4
    assert d <= r / (rprime + pf.n)


def test_pair_distance_extremality():
    """d*(g+1) lands inside the phase polytope, and no smaller scale does."""
    pf = newton_polytope(parse("x1^2 + x2^4", 2))
    pphi = build_polytope([(1, 1), (0, 3)])
    d, _, _ = pair_distance_and_radii(pf, pphi)
    shifted = [[gi + 1 for gi in g] for g in pphi.generators]
    assert all(pf.contains([d * x for x in pt]) for pt in shifted)
    eps = F(1, 1000)
    assert any(not pf.contains([(d - eps) * x for x in pt]) for pt in shifted)


@st.composite
def supports(draw, n=2):
    k = draw(st.integers(1, 5))
    return [
        tuple(draw(st.integers(0, 6)) for _ in range(n))
        for _ in range(k)
    ]


@given(supports())
@settings(max_examples=40, deadline=None)
def test_polytope_is_up_closed_and_contains_support(support):
    p = build_polytope(support)
    for pt in support:
        assert p.contains(pt)
        assert p.contains([pt[0] + 3, pt[1] + 1])
    # facet weights are nonnegative and each generator saturates some facet
    for f in p.facets:
        assert all(w >= 0 for w in f.weights)
    for g in p.generators:
        assert not p.facets or any(f(g) == 1 for f in p.facets)


@given(supports())
@settings(max_examples=30, deadline=None)
def test_build_is_idempotent_on_generators(support):
    p = build_polytope(support)
    q = build_polytope(p.generators)
    assert q.generators == p.generators
    assert q.facets == p.facets


def _mask_faces(p):
    """Compact faces by trying every subset of facets and coordinate hyperplanes.

    The enumeration ``compact_faces`` used before it read faces off the
    incidence sets; it costs 2^(facets + n) and is kept only as an oracle.
    """
    faces = {}
    gens = list(p.generators)
    n, nf = p.n, len(p.facets)
    for jmask in range(1, 1 << nf):
        jj = [p.facets[j] for j in range(nf) if jmask >> j & 1]
        for imask in range(1 << n):
            ii = [i for i in range(n) if imask >> i & 1]
            vset = tuple(
                g for g in gens
                if all(f(g) == 1 for f in jj) and all(g[i] == 0 for i in ii)
            )
            if not vset or vset in faces:
                continue
            jstar = [f for f in p.facets if all(f(v) == 1 for v in vset)]
            istar = [i for i in range(n) if all(v[i] == 0 for v in vset)]
            if any(k not in istar and all(f.weights[k] == 0 for f in jstar)
                   for k in range(n)):
                continue
            w = [F(0)] * n
            for f in jstar:
                for k in range(n):
                    w[k] += f.weights[k]
            for i in istar:
                w[i] += 1
            w = tuple(x / F(len(jstar)) for x in w)
            span = [[F(vi - bi) for vi, bi in zip(v, vset[0])] for v in vset[1:]]
            faces[vset] = FaceDescriptor(weights=w, generators=vset,
                                         dim=rank_exact(span) if span else 0)
    return sorted(faces.values(), key=lambda f: (f.dim, f.generators))


@st.composite
def convenient_supports(draw):
    n = draw(st.integers(2, 4))
    pure = [
        tuple(draw(st.integers(4, 8)) if j == i else 0 for j in range(n))
        for i in range(n)
    ]
    # small mixed points cut the simplex of the pure powers into several facets
    extra = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), max_size=5))
    return pure + [e for e in extra if any(e)]


@given(convenient_supports())
@settings(max_examples=60, deadline=None)
def test_compact_faces_match_mask_enumeration(support):
    p = build_polytope(support)
    assert compact_faces(p) == _mask_faces(p)


def test_compact_faces_of_a_24_facet_chain():
    # 24 primitive edges (1, -k) with distinct slopes: a convex polygon whose
    # mask enumeration would try 2^24 x 4 subsets
    pts, y = [(0, 300)], 300
    for x, k in enumerate(range(24, 0, -1), start=1):
        y -= k
        pts.append((x, y))
    p = build_polytope(pts)
    assert len(p.facets) == 24
    faces = compact_faces(p)
    assert len(faces) == 49
    assert sum(f.dim == 1 for f in faces) == 24
    assert sum(f.dim == 0 for f in faces) == 25
    assert {f.generators for f in faces if f.dim == 0} == {(g,) for g in pts}


def det(matrix):
    """Determinant of a nonempty square matrix by cofactor expansion on its first row."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    if size == 2:
        (a, b), (c, d) = matrix
        return a * d - b * c
    if size == 3:
        (a, b, c), (d, e, f), (g, h, i) = matrix
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    rest = matrix[1:]
    return sum(
        (-1) ** j * a * det([[*row[:j], *row[j + 1:]] for row in rest])
        for j, a in enumerate(matrix[0]) if a
    )


def test_det_of_small_integer_matrices():
    assert det([[7]]) == 7
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2, 0, 1], [1, 3, 2], [1, 1, 2]]) == 6
    assert det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    m = [[2, 1, 0, 3], [0, 4, 1, 1], [5, 0, 2, 0], [1, 1, 1, 6]]
    assert det(m) == 140
    # a row swap flips the sign, and a zero first row gives 0
    assert det([m[1], m[0], m[2], m[3]]) == -140
    assert det([[0, 0, 0, 0]] + m[1:]) == 0
    assert det([tuple(r) for r in m]) == 140


@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(st.integers(-6, 6), min_size=k, max_size=k),
                       min_size=k, max_size=k)))
@settings(max_examples=100, deadline=None)
def test_det_matches_the_permutation_expansion(m):
    k = len(m)
    total = 0
    for perm in permutations(range(k)):
        inversions = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(k))
    assert det(m) == total


def _enumerate_facets(minpts, n):
    """The vertices w of Q = {w >= 0 : w.p >= 1 for every minimal point p}.

    The enumeration ``build_polytope`` used before double description: a
    vertex solves w.p = 1 on k points with w_i = 0 off a k-subset ``free`` of
    the coordinates, and Cramer's rule (D = det M of the points restricted to
    ``free``, N_j with column j replaced by ones) decides it in integers.  It
    tries every k-subset of points for every k-subset of coordinates, so it is
    kept only as an oracle on small supports.
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
                w = [F(0)] * n
                for i, x in zip(free, nums):
                    w[i] = F(x, d)
                found.add(tuple(w))
    return [FaceFunctional.from_weights(w) for w in found]


def _oracle_polytope(support):
    n = len(support[0])
    minpts = _minimal_points(support)
    facets = sorted(_enumerate_facets(minpts, n), key=lambda f: f.weights)
    gens = [p for p in minpts if any(f(p) == 1 for f in facets)] if facets else [(0,) * n]
    return NewtonPolytope(n=n, generators=tuple(gens), facets=tuple(facets))


def _random_support(rng):
    n = rng.randint(1, 4)
    return [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(rng.randint(1, 9))]


@pytest.mark.parametrize("seed", range(400))
def test_build_matches_subset_enumeration(seed):
    support = _random_support(random.Random(seed))
    assert repr(build_polytope(support)) == repr(_oracle_polytope(support))


# the five phase shapes of perfbench's geometry workload, with unit coefficients
GEOMETRY_PHASES = [
    ("x2^27 + x1*x2^22 + x1^2*x2^18 + x1^3*x2^15 + x1^5*x2^10 + x1^6*x2^8"
     " + x1^8*x2^5 + x1^9*x2^4 + x1^12*x2^2 + x1^14*x2 + x1^17", 2),
    ("x1^6 + x2^6 + x3^6 + x1^2*x2^2 + x2^2*x3^2 + x1^2*x3^2", 3),
    ("(x1^2 - 2*x2^2)^2 + x3^6 + x1^2*x3^2 + x2^2*x3^2", 3),
    ("x1^6 + x2^6 + x3^6 + x4^6 + x1^4*x2^2 + x1^2*x2^4 + x2^4*x3^2 + x2^2*x3^4"
     " + x3^4*x4^2 + x3^2*x4^4 + x1^4*x4^2 + x1^2*x4^4 + x1^2*x2^2*x3^2"
     " + x2^2*x3^2*x4^2 + x1^2*x3^2*x4^2", 4),
    ("(x1^2 - 2*x2^3)^2 + x1^6 + x2^8", 2),
]


@pytest.mark.parametrize("phase, n", GEOMETRY_PHASES)
def test_build_matches_subset_enumeration_on_geometry_phases(phase, n):
    support = sorted(parse(phase, n).support)
    assert repr(build_polytope(support)) == repr(_oracle_polytope(support))


def _minimal_points_by_scan(support):
    """Every support point no other point dominates, by the full quadratic scan."""
    pts = sorted(set(support))
    return [p for p in pts if not any(q != p and all(a <= b for a, b in zip(q, p))
                                      for q in pts)]


def test_minimal_points_match_the_full_scan():
    rng = random.Random(0)
    for _ in range(1000):
        n = rng.randint(1, 4)
        support = [tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(1, 30))]
        assert _minimal_points(support) == _minimal_points_by_scan(support)
    for support in (_dense(4, 6), _dense(3, 6) + _dense(3, 7) + _dense(3, 4)):
        assert _minimal_points(support) == _minimal_points_by_scan(support)


def _dense(n, d):
    return [tuple(c.count(i) for i in range(n))
            for c in combinations_with_replacement(range(n), d)]


@pytest.mark.parametrize("support", [
    _dense(3, 6), _dense(4, 4), _dense(4, 5), _dense(4, 6),
    sorted(parse("(2*x1^2 + 2*x2^2 + 2*x3^2 - 3*x1*x2 - 3*x1*x3 - 3*x2*x3)^3", 3).support),
], ids=["3-D sextic", "4-D quartic", "4-D quintic", "4-D sextic", "3-D cubed quadric"])
def test_dense_homogeneous_support_has_one_facet(support):
    n, d = len(support[0]), sum(support[0])
    p = build_polytope(support)
    assert [f.weights for f in p.facets] == [(F(1, d),) * n]
    assert sorted(p.generators) == sorted(support)
    assert [f.weights for f in p.facets] == _qhull_facets(support)


def _qhull_facets(support):
    """Facet weights of the Newton polytope from Qhull, verified in Fraction.

    The hull of the minimal points and the far points p + R e_i has every
    facet of the polytope among its facets; those whose inward normal is
    >= 0 at a positive level are the polytope's facets, and the rest are
    coordinate hyperplanes or caps at the far points.
    """
    from scipy.spatial import ConvexHull

    minpts = _minimal_points_by_scan(support)
    n = len(minpts[0])
    far = [tuple(x + 8 * (i == j) for j, x in enumerate(p)) for p in minpts for i in range(n)]
    hull = ConvexHull(minpts + far)
    weights = set()
    for eq in hull.equations:
        normal, level = -eq[:-1], eq[-1]
        if level <= 1e-9 or normal.min() < -1e-9:
            continue
        w = tuple(F(float(x / level)).limit_denominator(10**6) for x in normal)
        values = [sum(a * b for a, b in zip(w, p)) for p in minpts]
        assert min(values) == 1, (w, values)
        tight = [p for p, v in zip(minpts, values) if v == 1]
        axes = [tuple(int(j == i) for j in range(n)) for i in range(n) if w[i] == 0]
        assert rank_exact(tight + axes) == n, w
        weights.add(w)
    return sorted(weights)


@st.composite
def oracle_supports(draw):
    n = draw(st.integers(2, 4))
    point = st.tuples(*[st.integers(0, 6)] * n)
    pts = draw(st.lists(point, min_size=1, max_size=8))
    if draw(st.booleans()):
        # pure powers make the support convenient
        pts += [tuple(draw(st.integers(1, 8)) if j == i else 0 for j in range(n))
                for i in range(n)]
    if draw(st.booleans()):
        # a dominated point, and the rounded-up centroid, which lies in the polytope
        pts.append(tuple(x + 1 for x in pts[0]))
        pts.append(tuple(-(-sum(c) // len(pts)) for c in zip(*pts)))
    return pts


@given(oracle_supports())
@settings(max_examples=150, deadline=None)
def test_facets_match_qhull_oracle(support):
    p = build_polytope(support)
    assert [f.weights for f in p.facets] == _qhull_facets(support)


def test_json_shape():
    p = newton_polytope(parse("x1^2 + x2^4", 2))
    d = p.to_json_dict()
    assert set(d) == {"n", "generators", "facets"}
    assert d["n"] == 2
    (facet,) = d["facets"]
    assert set(facet) == {"weights", "dj", "rj", "compact"}
    assert facet["weights"] == ["1/2", "1/4"]
    assert facet["dj"] == 4 and facet["rj"] == 3 and facet["compact"] is True


def test_dimension_limit():
    with pytest.raises(ValueError):
        build_polytope([(1, 0, 0, 0, 0)])
