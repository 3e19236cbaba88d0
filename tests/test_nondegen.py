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
    AQ, c = _compile([f])
    A = AQ[..., :3]
    rng = np.random.default_rng(1)
    u = rng.uniform(-1, 1, size=(1, 4, 3))
    phi = rng.uniform(0, 2 * np.pi, size=(1, 4, 3))

    def at(u, phi):
        return _residual(AQ, c, u, np.exp(1j * np.einsum("fkn,fsn->fsk", A, phi)))

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


def _residual_by_einsum(A, c, u, sign):
    """The search's residual kernel as plain einsums over (F, S, K, n, n): an oracle."""
    z = np.where(c[:, None, :] != 0, np.einsum("fkn,fsn->fsk", A, u), -np.inf)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    w = np.abs(c)[:, None, :] * e
    v = sign * c[:, None, :] * e
    total = w.sum(axis=-1)[..., None]
    r = np.einsum("fkn,fsk->fsn", A, v) / total
    M = np.einsum("fki,fkj,fsk->fsij", A, A, v) / total[..., None]
    grad_total = np.einsum("fkn,fsk->fsn", A, w) / total
    return r, M - r[..., :, None] * grad_total[..., None, :], M


@pytest.mark.parametrize("n", [2, 3, 4])
def test_residual_matches_the_einsum_oracle(n):
    # faces with 2..9 terms compile to one K, so most rows are zero-padded
    rng = np.random.default_rng(n)
    faces = []
    for k in rng.integers(2, 10, size=6):
        terms = {}
        while len(terms) < k:
            terms[tuple(int(a) for a in rng.integers(0, 7, size=n))] = Fraction(
                int(rng.choice([-1, 1]) * rng.integers(1, 9)), int(rng.integers(1, 4)))
        faces.append(Polynomial(n, terms))
    AQ, c = _compile(faces)
    A = AQ[..., :n]
    assert np.any(c == 0)
    u = rng.uniform(-3, 3, size=(len(faces), 30, n))
    phi = rng.uniform(0, 2 * np.pi, size=u.shape)
    real_sign = np.where(np.einsum("fkn,fsn->fsk", A, (phi < np.pi).astype(float)) % 2, -1.0, 1.0)
    for sign in (real_sign, np.exp(1j * np.einsum("fkn,fsn->fsk", A, phi))):
        for got, want in zip(_residual(AQ, c, u, sign), _residual_by_einsum(A, c, u, sign)):
            assert got.dtype == want.dtype
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# (phase, n, real status, real starts, complex status, complex starts): the five
# perfbench geometry phases at seed 1, a face polynomial that is singular on the
# real torus only through its 2-face, and a real-nondegenerate, complex-degenerate
# sum of a square and sixth powers
PINNED = [
    ("5*x1^27 + x2*x1^22 + 3*x2^2*x1^18 + x2^3*x1^15 + 4*x2^5*x1^10 + 4*x2^6*x1^8"
     " + 4*x2^8*x1^5 + 4*x2^9*x1^4 + 2*x2^12*x1^2 + x2^14*x1 + 4*x2^17", 2,
     "likely-nondegenerate", 0, "likely-nondegenerate", 800),
    ("4*x3^6 + 5*x2^6 + x1^6 + 4*x3^2*x2^2 + 3*x2^2*x1^2 + 2*x3^2*x1^2", 3,
     "likely-nondegenerate", 160, "likely-nondegenerate", 1040),
    ("(x2^2 - 2*x1^2)^2 + x3^6 + x2^2*x3^2 + x1^2*x3^2", 3,
     "degenerate", 0, "degenerate", 640),
    ("4*x3^6 + x4^6 + 5*x2^6 + 2*x1^6 + 4*x3^4*x4^2 + 4*x3^2*x4^4 + 5*x4^4*x2^2"
     " + 2*x4^2*x2^4 + 3*x2^4*x1^2 + 2*x2^2*x1^4 + 2*x3^4*x1^2 + 4*x3^2*x1^4"
     " + 3*x3^2*x4^2*x2^2 + x4^2*x2^2*x1^2 + 4*x3^2*x2^2*x1^2", 4,
     "likely-nondegenerate", 200, "likely-nondegenerate", 880),
    ("(x2^2 - x1^3)^2 + 3*x2^6 + x1^8", 2, "degenerate", 0, "degenerate", 80),
    ("(2*x1^2 + 2*x2^2 + 2*x3^2 - 3*x1*x2 - 3*x1*x3 - 3*x2*x3)^2", 3,
     "degenerate", 40, "degenerate", 320),
    ("(x1^2 + x2^2 + x3^2)^2 + x1^6 + x2^6 + x3^6", 3,
     "likely-nondegenerate", 40, "degenerate", 320),
]


@pytest.mark.parametrize("phase, n, r_status, r_starts, c_status, c_starts", PINNED)
def test_pinned_verdicts(phase, n, r_status, r_starts, c_status, c_starts):
    f = parse(phase, n)
    real = check_R_nondegenerate(f, SearchOptions(starts=40))
    cplx = check_C_nondegenerate(f, SearchOptions(starts=80))
    assert (real.status, real.starts) == (r_status, r_starts)
    assert (cplx.status, cplx.starts) == (c_status, c_starts)
    for verdict in (real, cplx):
        if verdict.degenerate:
            # a witness may be any zero on its face's orbit, but it must be one
            x = list(verdict.witness)
            fsig = f.restrict_to_weights(verdict.face.weights, 1)
            scale = sum(abs(float(v)) * abs(np.prod([xi ** e for xi, e in zip(x, exps)]))
                        for exps, v in fsig.terms.items())
            euler = [x[i] * fsig.partial(i + 1).evaluate(x) for i in range(n)]
            assert max(abs(g) for g in euler) <= 1e-6 * scale
            assert verdict.residual < 1e-12
