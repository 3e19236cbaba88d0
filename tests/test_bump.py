import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillab.bump import (
    CutoffFunction,
    SymmetricCutoff,
    TestFunction,
    make_cutoff,
    smoothstep,
)


def test_smoothstep_endpoints_and_monotone():
    s = np.linspace(-1.0, 2.0, 301)
    v = smoothstep(s)
    assert np.all(v[s <= 0] == 0.0)
    assert np.all(v[s >= 1] == 1.0)
    inside = v[(s > 0) & (s < 1)]
    # non-decreasing throughout (it saturates to 1.0 in double precision
    # slightly before s = 1), strictly increasing through the middle
    assert np.all(np.diff(inside) >= 0)
    mid = v[(s > 0.2) & (s < 0.8)]
    assert np.all(np.diff(mid) > 0)
    assert np.all((v >= 0) & (v <= 1))


def test_cutoff_plateau_support_evenness():
    eta = make_cutoff(1.0, 2.0)
    xs = np.linspace(-3.0, 3.0, 601)
    v = eta(xs)
    assert np.all(v[np.abs(xs) <= 1.0] == 1.0)
    assert np.all(v[np.abs(xs) >= 2.0] == 0.0)
    assert np.allclose(v, eta(-xs))
    assert np.all((v >= 0) & (v <= 1))
    assert eta.support_radius() == 2.0


def test_cutoff_validation():
    with pytest.raises(ValueError):
        make_cutoff(2.0, 1.0)
    with pytest.raises(ValueError):
        make_cutoff(0.0, 1.0)


def test_test_function_product_shape():
    phi = TestFunction(nu=(2, 1), cutoff=make_cutoff(1.0, 2.0), shape="product")
    assert phi.n == 2
    x, y = 0.5, -0.3
    assert phi(x, y) == pytest.approx(x**2 * y)  # plateau region
    assert phi(2.5, 0.0) == 0.0


def test_test_function_radial_shape():
    eta = make_cutoff(1.0, 2.0)
    phi = TestFunction(nu=(0, 0), cutoff=eta, shape="radial")
    assert phi(0.6, 0.6) == pytest.approx(1.0)     # radius < 1
    assert phi(1.5, 1.5) == 0.0                    # radius > 2
    # radial symmetry
    assert phi(0.9, 0.8) == pytest.approx(phi(0.8, 0.9))


def test_test_function_validation():
    with pytest.raises(ValueError):
        TestFunction(nu=(0, 0), cutoff=make_cutoff(1, 2), shape="spherical")
    with pytest.raises(ValueError):
        TestFunction(nu=(-1, 0), cutoff=make_cutoff(1, 2))
    phi = TestFunction(nu=(0, 0), cutoff=make_cutoff(1, 2))
    with pytest.raises(ValueError):
        phi(0.1)


def _chi():
    return SymmetricCutoff(n=2, eps=0.25, eta=make_cutoff(1.0, 2.0))


def test_symmetric_cutoff_is_one_near_origin():
    chi = _chi()
    xs = np.linspace(-0.7, 0.7, 41)
    X, Y = np.meshgrid(xs, xs)
    assert np.all(chi(X, Y) == 1.0)
    assert chi(0.0, 0.0) == 1.0


def test_symmetric_cutoff_compact_support():
    chi = _chi()
    xs = np.linspace(-4.0, 4.0, 81)
    X, Y = np.meshgrid(xs, xs)
    vals = chi(X, Y)
    outside = (np.abs(X) >= 2.0) & (np.abs(Y) >= 2.0)
    assert np.all(vals[outside] == 0.0)
    assert np.all((vals >= 0) & (vals <= 1 + 1e-12))


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=60, deadline=None)
def test_symmetric_cutoff_invariant_under_sign_flip(x, y):
    chi = _chi()
    assert chi(x, y) == pytest.approx(chi(-x, -y), abs=1e-14)
    # also invariant under flipping a single sign (it depends on |x1|, |x2|)
    assert chi(x, y) == pytest.approx(chi(-x, y), abs=1e-14)


def test_chart_weights_partition_unity():
    chi = _chi()
    th1 = chi.chart_weight(1)
    th2 = chi.chart_weight(2)
    # a direction with ratio t = |x2/x1| is seen in chart 1 at v = t and in
    # chart 2 at u = 1/t; the two weights must sum to 1
    for t in np.linspace(0.1, 3.0, 25):
        assert th1(t) + th2(1.0 / t) == pytest.approx(1.0, abs=1e-12)
    assert th1(0.0) == 1.0
    with pytest.raises(ValueError):
        chi.chart_weight(3)


def test_symmetric_cutoff_validation():
    with pytest.raises(ValueError):
        SymmetricCutoff(n=3, eps=0.25, eta=make_cutoff(1, 2))
    with pytest.raises(ValueError):
        SymmetricCutoff(n=2, eps=0.9, eta=make_cutoff(1, 2))
