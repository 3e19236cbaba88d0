from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oscillab.nondegen import (
    SearchOptions,
    _compile,
    _residual,
    check_C_nondegenerate,
    check_R_nondegenerate,
)
from oscillab.poly import Polynomial, parse

OPTS = SearchOptions(starts=40, seed=0)


def test_diagonal_quartic_is_likely_nondegenerate():
    verdict = check_R_nondegenerate(parse("x1^4 + x2^4", 2), OPTS)
    assert not verdict.degenerate
    assert verdict.witness is None
    assert verdict.status == "likely-nondegenerate"


def test_squared_difference_is_degenerate_with_witness():
    f = parse("(x1 - x2)^2 + x1^4 + x2^4", 2)
    verdict = check_R_nondegenerate(f, OPTS)
    assert verdict.degenerate
    assert verdict.residual < 1e-12
    x1, x2 = verdict.witness
    # the witness sits on the line x1 = x2, away from the axes
    assert x1 == pytest.approx(x2, rel=1e-5)
    assert min(abs(x1), abs(x2)) > 0.05
    # it really kills the face gradient
    fsig = f.restrict_to_weights(verdict.face.weights, 1)
    grads = [fsig.partial(i).evaluate([x1, x2]) for i in (1, 2)]
    assert sum(g * g for g in grads) < 1e-10


def test_real_versus_complex_verdicts_can_differ():
    # Sum of a square and high-order diagonal terms: no real torus critical
    # point on the principal face, but x2 = +/- i*x1 gives a complex one.
    f = parse("(x1^2 + x2^2)^2 + x1^6 + x2^6", 2)
    assert not check_R_nondegenerate(f, OPTS).degenerate
    cverdict = check_C_nondegenerate(f, SearchOptions(starts=80, seed=0))
    assert cverdict.degenerate
    z1, z2 = cverdict.witness
    assert abs(z1**2 + z2**2) < 1e-5


def test_three_variable_quartic_real_nondegenerate_complex_degenerate():
    f = parse("(x1^2 + x2^2 + x3^2)^2 + x1^6 + x2^6 + x3^6", 3)
    assert not check_R_nondegenerate(f, OPTS).degenerate
    cverdict = check_C_nondegenerate(f, SearchOptions(starts=120, seed=0))
    assert cverdict.degenerate
    # the witness kills the gradient of the face polynomial of its own face
    z = list(cverdict.witness)
    fsig = f.restrict_to_weights(cverdict.face.weights, 1)
    grads = [fsig.partial(i).evaluate(z) for i in (1, 2, 3)]
    assert sum(abs(g) ** 2 for g in grads) < 1e-10
    assert min(abs(zi) for zi in z) > 0.05


def test_requires_convenient():
    with pytest.raises(ValueError):
        check_R_nondegenerate(parse("x1*x2", 2), OPTS)


def test_seed_determinism():
    f = parse("(x1 - x2)^2 + x1^4 + x2^4", 2)
    a = check_R_nondegenerate(f, SearchOptions(starts=20, seed=7))
    b = check_R_nondegenerate(f, SearchOptions(starts=20, seed=7))
    assert a.witness == b.witness
    assert a.residual == b.residual


def test_seed_determinism_of_the_search():
    # q is indefinite but definite on every coordinate plane, so the face
    # polynomial q^2 is singular on the real torus while its edges are not:
    # only the search over the 2-face can find the witness
    q = "2*x1^2 + 2*x2^2 + 2*x3^2 - 3*x1*x2 - 3*x1*x3 - 3*x2*x3"
    f = parse(f"({q})^2", 3)
    a = check_R_nondegenerate(f, SearchOptions(starts=20, seed=7))
    b = check_R_nondegenerate(f, SearchOptions(starts=20, seed=7))
    assert a.degenerate and a.face.dim == 2 and a.starts == 20
    assert a.residual < 1e-12
    assert a.witness == b.witness
    assert a.residual == b.residual


# Exact edge decisions in n = 2.  A homogeneous binary form sum_j g_j x1^(D-j) x2^j
# with g(0) != 0 and deg g = D is convenient, and its one compact edge carries g.

NONZERO_RATIONAL = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))
EXACT = SearchOptions(starts=1)


def _times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _binary_form(g, shift=0):
    """x2^shift * sum_j g_j x1^(D-j) x2^j with D = deg g."""
    d = len(g) - 1
    return Polynomial(2, {(d - j, j + shift): c for j, c in enumerate(g)})


def _squarefree(roots, b, lead):
    """lead * prod (t - r) * (t^2 + b if b): distinct simple real roots."""
    g = [Fraction(lead)]
    for r in roots:
        g = _times(g, [-r, Fraction(1)])
    return _times(g, [Fraction(b), Fraction(0), Fraction(1)]) if b else g


@settings(max_examples=60, deadline=None)
@given(r=NONZERO_RATIONAL,
       h=st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(lambda h: h[0] and h[-1]))
def test_edge_with_a_nonzero_real_double_root_is_degenerate(r, h):
    f = _binary_form(_times([r * r, -2 * r, Fraction(1)], [Fraction(c) for c in h]))
    verdict = check_R_nondegenerate(f, EXACT)
    assert verdict.degenerate
    assert verdict.starts == 0
    assert verdict.residual < 1e-12
    x = list(verdict.witness)
    assert min(abs(xi) for xi in x) > 0
    fsig = f.restrict_to_weights(verdict.face.weights, 1)
    scale = sum(abs(float(c) * x[0] ** e[0] * x[1] ** e[1]) for e, c in fsig.terms.items())
    assert abs(fsig.evaluate(x)) <= 1e-9 * scale
    for i in (1, 2):
        # x_i df/dx_i sums the same monomials times exponents <= deg f
        assert abs(x[i - 1] * fsig.partial(i).evaluate(x)) <= 1e-9 * f.homogeneous_degree() * scale


@settings(max_examples=60, deadline=None)
@given(roots=st.lists(NONZERO_RATIONAL, max_size=3, unique=True),
       b=st.integers(0, 4), lead=st.integers(-3, 3).filter(bool))
def test_edge_with_a_squarefree_polynomial_is_nondegenerate(roots, b, lead):
    assume(roots or b)
    verdict = check_R_nondegenerate(_binary_form(_squarefree(roots, b, lead)), EXACT)
    assert not verdict.degenerate
    assert verdict.witness is None
    assert verdict.starts == 0


@settings(max_examples=60, deadline=None)
@given(roots=st.lists(NONZERO_RATIONAL, max_size=3, unique=True),
       b=st.integers(0, 4), m=st.integers(2, 3), extra=st.integers(1, 3))
def test_edge_whose_only_multiple_root_is_zero_is_nondegenerate(roots, b, m, extra):
    # x2^m H(x1, x2) + x1^E: along the edge from (D, 0), g = t^m h with h
    # squarefree; the pure power x1^E, E > D, makes f convenient and adds a
    # binomial edge
    assume(roots or b)
    body = _binary_form(_squarefree(roots, b, 1), shift=m)
    degree = body.homogeneous_degree()
    f = body + Polynomial.monomial(2, (degree + extra, 0))
    verdict = check_R_nondegenerate(f, EXACT)
    assert not verdict.degenerate
    assert verdict.starts == 0


def test_residual_and_jacobian_match_direct_evaluation():
    # r = (x_i df/dx_i)_i / sum_k |c_k x^a_k| from Polynomial.partial, and the
    # closed-form Jacobians against central differences in u and in phi
    f = parse("3*x1^2*x2 - x1*x2^2*x3 + 2*x2^3*x3^2 - 5*x1^4", 3)
    A, c = _compile([f])
    rng = np.random.default_rng(1)
    u = rng.uniform(-1, 1, size=(1, 4, 3))
    phi = rng.uniform(0, 2 * np.pi, size=(1, 4, 3))

    def at(u, phi):
        return _residual(A, c, u, np.exp(1j * np.einsum("fkn,fsn->fsk", A, phi)))

    r, Ju, M = at(u, phi)
    for s in range(4):
        x = list(np.exp(u[0, s] + 1j * phi[0, s]))
        total = sum(abs(float(v)) * abs(np.prod([xi ** e for xi, e in zip(x, exps)]))
                    for exps, v in f.terms.items())
        euler = [x[i] * f.partial(i + 1).evaluate(x) / total for i in range(3)]
        assert np.allclose(r[0, s], euler, rtol=1e-12, atol=1e-12)
    h = 1e-6
    for j in range(3):
        du = np.zeros(3)
        du[j] = h
        fd_u = (at(u + du, phi)[0] - at(u - du, phi)[0]) / (2 * h)
        fd_phi = (at(u, phi + du)[0] - at(u, phi - du)[0]) / (2 * h)
        assert np.allclose(Ju[..., j], fd_u, atol=1e-7)
        assert np.allclose(1j * M[..., j], fd_phi, atol=1e-7)
