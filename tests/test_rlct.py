from fractions import Fraction

import pytest

from oscillab import polytope
from oscillab.poly import parse
from oscillab.rlct import (
    ResolutionDatum,
    blowup_charts,
    gamma_from_resolution,
    load_resolution_data,
    rlct_homogeneous,
    rlct_newton_candidate,
)
from oscillab.nondegen import SearchOptions

F = Fraction
FAST = SearchOptions(starts=12)


def test_gamma_from_resolution():
    assert gamma_from_resolution(ResolutionDatum(((4, 1),))) == F(1, 2)
    assert gamma_from_resolution(ResolutionDatum(((2, 0), (4, 1), (3, 2)))) == F(1, 2)


def test_resolution_datum_validation():
    with pytest.raises(ValueError):
        ResolutionDatum(())
    with pytest.raises(ValueError):
        ResolutionDatum(((0, 1),))
    with pytest.raises(ValueError):
        ResolutionDatum(((2, -1),))


def test_load_resolution_data_round_trip():
    data = load_resolution_data('[{"m": 4, "k": 1}, {"m": 6, "k": 2}]')
    assert data.components == ((4, 1), (6, 2))
    assert gamma_from_resolution(data) == F(1, 2)


def test_blowup_charts():
    f = parse("x1^4 + x2^4", 2)
    charts = blowup_charts(f)
    assert [c.index for c in charts] == [1, 2]
    for c in charts:
        assert c.f_multiplicity == 4
        assert c.jacobian_multiplicity == 1
        assert c.h == parse("1 + x1^4", 1)
    with pytest.raises(ValueError):
        blowup_charts(parse("x1^2 + x2^4", 2))


def test_rlct_homogeneous_values():
    rep = rlct_homogeneous(parse("x1^4 + x2^4", 2), FAST)
    assert rep.value == F(1, 2)
    assert rep.method == "homogeneous"
    assert rep.flags["homogeneous"] and rep.flags["convenient"]
    assert rlct_homogeneous(parse("x1^2 + x2^2", 2), None).value == 1
    assert rlct_homogeneous(parse("x1^6 + x2^6", 2), None).value == F(1, 3)
    # a double zero line without a sign change: 1/m = 1/2, not n/d = 1
    assert rlct_homogeneous(parse("(x1 - x2)^2", 2), None).value == F(1, 2)


@pytest.mark.parametrize("phase,n,value", [
    ("x1^2 + x2^2 - x3^2", 3, F(1)),         # n/d = 3/2
    ("x1^2 + x2^2 + x3^2 - x4^2", 4, F(1)),  # n/d = 2
    ("x1^3 + x2^3 + x3^3 + x4^3", 4, F(1)),  # n/d = 4/3, odd degree
    ("x1^6 - x2^6", 2, F(1, 3)),             # n/d < 1 stands
    # in n = 2 the value is min(2/d, 1/m), m the largest multiplicity of a zero line
    ("(x1 - x2)^2*(x1 + 2*x2)", 2, F(1, 2)),  # not min(2/d, 1) = 2/3
    ("(x1 - x2)^3*(x1 + x2)", 2, F(1, 3)),
    ("x1^2 - x2^2", 2, F(1)),
])
def test_rlct_homogeneous_of_a_sign_changing_phase_is_at_most_one(phase, n, value):
    rep = rlct_homogeneous(parse(phase, n), None)
    assert rep.value == value
    assert rep.flags["sign_change_certified"] and rep.flags["value_at_most_one"]


def test_rlct_homogeneous_of_a_definite_phase_is_n_over_d():
    for phase, n in (("x1^2 + x2^2 + x3^2", 3), ("x1^4 + x2^4", 2), ("x1^2 + x2^2", 2)):
        rep = rlct_homogeneous(parse(phase, n), None)
        assert rep.value == F(n, parse(phase, n).homogeneous_degree())
        assert not rep.flags["sign_change_certified"]


def test_rlct_homogeneous_rejects():
    with pytest.raises(ValueError):
        rlct_homogeneous(parse("x1^2 + x2^4", 2), None)  # not homogeneous
    with pytest.raises(ValueError):
        rlct_homogeneous(parse("x1*x2", 2), None)        # not convenient


def test_newton_candidate_matches_reciprocal_distance():
    rep = rlct_newton_candidate(parse("x1^2 + x2^4", 2), FAST)
    assert rep.value == F(3, 4)
    (p,) = rep.parity
    assert (p.dj, p.rj) == (4, 3)
    assert p.dj_even and p.rj_odd
    assert rep.flags["parity_condition_some_face"]


def test_three_routes_agree_on_diagonal_homogeneous():
    fixtures = [
        ("x1^2 + x2^2", 2, 2, F(1)),
        ("x1^4 + x2^4", 2, 4, F(1, 2)),
        ("x1^6 + x2^6", 2, 6, F(1, 3)),
        ("x1^4 + x2^4 + x3^4", 3, 4, F(3, 4)),
        ("x1^2 + x2^2 + x3^2", 3, 2, F(3, 2)),
    ]
    for text, n, d, expected in fixtures:
        f = parse(text, n)
        hom = rlct_homogeneous(f, None).value
        cand = rlct_newton_candidate(f, None).value
        # diagonal forms resolve in one blowup: multiplicities (d, n - 1)
        res = gamma_from_resolution(ResolutionDatum(((d, n - 1),)))
        assert hom == cand == res == expected


def test_candidate_flags_quartic_in_three_variables():
    f = parse("(x1^2 + x2^2 + x3^2)^2 + x1^6 + x2^6 + x3^6", 3)
    rep = rlct_newton_candidate(f, FAST)
    assert rep.value == F(3, 4)
    assert rep.flags["candidate_below_one"]
    # principal face of the degree-4 part: d_j = 4 even, r_j = 3 odd
    assert any(p.dj_even and p.rj_odd for p in rep.parity)


def test_candidate_requires_convenient():
    with pytest.raises(ValueError):
        rlct_newton_candidate(parse("x1*x2", 2), None)


def test_report_json_shape():
    rep = rlct_newton_candidate(parse("x1^4 + x2^4", 2), None)
    d = rep.to_json_dict()
    assert set(d) == {"value", "method", "flags", "parity"}
    assert d["value"] == "1/2"
    assert d["parity"][0] == {"dj": 4, "rj": 2, "dj_even": True, "rj_odd": False}


@pytest.mark.parametrize("route", [rlct_newton_candidate, rlct_homogeneous])
def test_polytope_built_once_per_call(route, monkeypatch):
    # the nondegeneracy search and the validity flags reuse the caller's polytope
    calls = []
    real = polytope.build_polytope

    def counting(support):
        calls.append(support)
        return real(support)

    monkeypatch.setattr(polytope, "build_polytope", counting)
    rep = route(parse("x1^4 + x2^4", 2), FAST)
    assert "likely_R_nondegenerate" in rep.flags
    assert len(calls) == 1


# The five phases of the benchmark's geometry workload, with fixed
# coefficients.  Even exponents with positive coefficients admit no real torus
# critical point on any face, and neither do the chain's binomial edges; a face
# polynomial that is the square of a binomial is singular on a real torus curve.
CHAIN_EDGES = ((1, -5), (1, -4), (1, -3), (2, -5), (1, -2), (2, -3), (1, -1),
               (3, -2), (2, -1), (3, -1))
SEXTIC_4D = ((6, 0, 0, 0), (0, 6, 0, 0), (0, 0, 6, 0), (0, 0, 0, 6),
             (4, 2, 0, 0), (2, 4, 0, 0), (0, 4, 2, 0), (0, 2, 4, 0), (0, 0, 4, 2),
             (0, 0, 2, 4), (4, 0, 0, 2), (2, 0, 0, 4), (2, 2, 2, 0), (0, 2, 2, 2),
             (2, 0, 2, 2))


def _phase(support):
    """sum of the monomials with coefficients cycling through 1..5."""
    return " + ".join(
        f"{k % 5 + 1}*" + "*".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
        for k, exps in enumerate(support))


def _chain_support():
    y = -sum(dy for _, dy in CHAIN_EDGES)
    x, pts = 0, [(0, y)]
    for dx, dy in CHAIN_EDGES:
        x, y = x + dx, y + dy
        pts.append((x, y))
    return pts


@pytest.mark.parametrize("phase,n,degenerate", [
    (_phase(_chain_support()), 2, False),
    ("x1^6 + 2*x2^6 + 3*x3^6 + 4*x1^2*x2^2 + 5*x2^2*x3^2 + x1^2*x3^2", 3, False),
    ("(x1^2 - 2*x2^2)^2 + 3*x3^6 + x1^2*x3^2 + 2*x2^2*x3^2", 3, True),
    (_phase(SEXTIC_4D), 4, False),
    ("(x1^2 - 3*x2^3)^2 + 2*x1^6 + x2^8", 2, True),
], ids=["2-D chain", "3-D even sextic", "3-D squared binomial", "4-D sextic",
        "2-D squared binomial"])
def test_geometry_verdicts_match_their_construction(phase, n, degenerate):
    f = parse(phase, n)
    rep = rlct_newton_candidate(f)
    assert rep.flags["likely_R_nondegenerate"] is not degenerate
