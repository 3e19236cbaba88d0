import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from math import ceil, gamma, pi, prod, sqrt
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import spherical_jn

from oscillab.bump import TestFunction, make_cutoff
from oscillab.fit import fit_leading, geometric_grid
from oscillab.poly import Polynomial, circle_zeros, parse
from oscillab import quad
from oscillab.quad import (
    DEFAULT_MAX_PANELS,
    OscillatorySample,
    QuadratureBudgetError,
    chart_parity_integral,
    erdelyi_leading,
    eval_oscillatory,
    eval_oscillatory_series,
    oscillatory_profile,
    oscillatory_profile_reference,
    _FILON_ORDER,
    _filon_moment_sum,
    _legendre_moments,
    radial_reduce,
)

ETA = make_cutoff(1.0, 2.0)


def _tensor(f, phi, tau, tol):
    """The tensor route alone: ``eval_oscillatory`` sends homogeneous n = 2
    phases with radial amplitudes to ``radial_reduce``."""
    return quad._tensor_oscillatory(f, phi, [tau], tol, DEFAULT_MAX_PANELS)[0]


# -- closed-form leading coefficient -------------------------------------------


def test_erdelyi_leading_values():
    # d=2, b=1, c=1: sqrt(pi / tau) / 2 * e^{i pi/4}
    v = erdelyi_leading(1.0, 2, 1.0, 100.0)
    assert v == pytest.approx(0.5 * sqrt(pi / 100.0) * np.exp(1j * pi / 4))
    # negative phase coefficient conjugates
    vm = erdelyi_leading(1.0, 2, -1.0, 100.0)
    assert vm == pytest.approx(np.conj(v))
    with pytest.raises(ValueError):
        erdelyi_leading(1.0, 2, 0.0, 100.0)
    with pytest.raises(ValueError):
        erdelyi_leading(0.0, 2, 1.0, 100.0)


# -- one-parameter oscillatory profiles ----------------------------------------


@pytest.mark.parametrize(
    "d,npow", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (4, 0), (4, 2), (6, 1)]
)
def test_profile_matches_brute_force(d, npow):
    # (2, 2) and (2, 3) have c = (npow+1)/d > 1 and so graded panels next to
    # uniform ones; |t| = 3000 puts the moments on the recurrence branch
    ts = np.array([-3000.0, -150.0, -3.0, 0.0, 0.7, 12.0, 150.0, 3000.0])
    fast, ferr = oscillatory_profile(ts, d, npow, ETA, tol=1e-12)
    ref, rerr = oscillatory_profile_reference(ts, d, npow, ETA, tol=1e-12)
    assert np.max(np.abs(fast - ref)) < 1e-9
    assert np.all(ferr < 1e-10)


def test_legendre_moments_match_spherical_bessel():
    theta = np.unique(np.concatenate([
        np.linspace(0.0, 40.0, 4001),
        np.linspace(15.99, 16.01, 201),  # both sides of the rule/recurrence switch
        np.geomspace(1e-6, 1e4, 4001),
    ]))
    moments = _legendre_moments(theta, _FILON_ORDER)
    assert moments.shape == (len(theta), _FILON_ORDER)
    for k in range(_FILON_ORDER):
        exact = 2.0 * 1j**k * spherical_jn(k, theta)
        assert np.max(np.abs(moments[:, k] - exact)) <= 1e-13, k


def _per_panel_moment_sum(ts, edges, coeffs):
    """The moment sum with every panel's moments evaluated on their own."""
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    theta = np.outer(ts, half)
    S = np.zeros(theta.shape, dtype=complex)
    for k in range(coeffs.shape[1]):
        S += (2.0 * 1j**k) * spherical_jn(k, theta) * coeffs[None, :, k]
    return (np.exp(1j * np.outer(ts, mid)) * S) @ half


@pytest.mark.parametrize("grid", ["uniform", "graded", "mixed"])
def test_grouped_moment_sum_matches_per_panel_formula(grid):
    graded = 0.5 * np.linspace(0.0, 1.0, 65) ** 3
    edges = {
        "uniform": np.linspace(1.0, 16.0, 769),
        "graded": graded,
        "mixed": np.concatenate(
            [graded[:-1], np.linspace(0.5, 1.0, 33)[:-1], np.linspace(1.0, 16.0, 97)]
        ),
    }[grid]
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal((len(edges) - 1, _FILON_ORDER))
    coeffs *= 0.5 ** np.arange(_FILON_ORDER)
    ts = np.array([0.0, 0.7, 12.0, 150.0, 3000.0])
    fast = _filon_moment_sum(ts, edges, coeffs)
    slow = _per_panel_moment_sum(ts, edges, coeffs)
    assert np.max(np.abs(fast - slow)) <= 1e-13


@pytest.mark.parametrize("absolute", [False, True])
def test_profile_full_line_matches_brute_force(absolute):
    ts = np.array([0.5, 40.0, 900.0])
    fast, _ = oscillatory_profile(ts, 4, 1, ETA, tol=1e-12,
                                  full_line=True, absolute=absolute)
    ref, _ = oscillatory_profile_reference(ts, 4, 1, ETA, tol=1e-12,
                                           full_line=True, absolute=absolute)
    assert np.max(np.abs(fast - ref)) < 1e-9


def test_profile_parity_exactness():
    ts = np.array([1.0, 10.0, 1234.5])
    # even phase power, odd weight power, signed weight: odd integrand
    vals, _ = oscillatory_profile(ts, 4, 1, ETA, full_line=True, absolute=False)
    assert np.all(vals == 0.0)
    # odd phase power, signed even weight: the integrand pairs to 2 Re P,
    # so the imaginary part cancels exactly
    vals3, _ = oscillatory_profile(ts, 3, 2, ETA, full_line=True, absolute=False)
    assert np.all(vals3.imag == 0.0)


def test_profile_agrees_with_leading_term_at_large_t():
    # P(t) ~ Gamma(c)/d * e^{i pi c / 2} t^{-c}, corrections beyond all orders
    for b_cut, d in [(1.0, 2), (1.0, 4), (2.0, 4), (3.0, 4)]:
        eta = make_cutoff(b_cut, 2.0 * b_cut)
        t = 2.0e4
        vals, _ = oscillatory_profile([t], d, 0, eta, tol=1e-13)
        c = 1.0 / d
        lead = gamma(c) / d * np.exp(1j * pi * c / 2.0) * t ** (-c)
        assert abs(vals[0] - lead) / abs(lead) < 1e-6


def test_profile_at_zero_is_plain_integral():
    vals, _ = oscillatory_profile([0.0], 2, 2, ETA, tol=1e-12)
    # int_0^2 y^2 eta(y) dy with eta = 1 on [0,1]: between 1/3 and 8/3
    v = vals[0]
    assert v.imag == 0.0
    assert 1.0 / 3.0 < v.real < 8.0 / 3.0


# -- full oscillatory integrals -------------------------------------------------


def test_fresnel_pair():
    # f = x1^2 + x2^2: tau * I(tau) -> i pi
    f = parse("x1^2 + x2^2", 2)
    phi = TestFunction(nu=(0, 0), cutoff=ETA, shape="product")
    s = eval_oscillatory(f, phi, 1000.0, tol=1e-10)
    assert s.converged
    assert abs(1000.0 * s.value - 1j * pi) < 1e-6


def test_quartic_matches_factored_closed_form():
    f = parse("x1^4 + x2^4", 2)
    phi = TestFunction(nu=(0, 0), cutoff=ETA, shape="product")
    tau = 1.0e4
    s = eval_oscillatory(f, phi, tau, tol=1e-12)
    lead = (2.0 * erdelyi_leading(1.0, 4, 1.0, tau)) ** 2
    assert s.converged
    assert abs(s.value - lead) / abs(lead) < 1e-8


def test_separable_with_monomial_amplitude():
    # odd exponent in the amplitude kills the integral by parity
    f = parse("x1^4 + x2^4", 2)
    phi = TestFunction(nu=(1, 0), cutoff=ETA, shape="product")
    s = eval_oscillatory(f, phi, 500.0, tol=1e-12)
    assert s.value == 0.0


def test_separable_pure_powers_converge_at_the_full_line_error():
    # each axis is a full-line profile whose error is twice the half-line's;
    # the half-line must be refined to half the axis tolerance
    f = parse("x1^6 + x2^6", 2)
    phi = TestFunction(nu=(0, 0), cutoff=ETA, shape="product")
    for tau in geometric_grid(1e2, 1e4, 24):
        s = eval_oscillatory(f, phi, float(tau), tol=1e-10)
        assert s.converged, tau


# -- general axis polynomials ---------------------------------------------------


@lru_cache(maxsize=None)
def _dense_axis_reference(phase, tau):
    """int e^{i tau p(x)} x^k eta(x) dx over [-2, 2] for k = 0, 1, 2.

    Composite 16-point Gauss on uniform panels at most half a wavelength
    wide, the wavelength taken from a bound on |p'| over the support.
    """
    p = parse(phase, 1)
    c = np.zeros(max((e for (e,) in p.terms), default=0) + 1)
    for (e,), a in p.terms.items():
        c[e] = float(a)
    slope = sum(abs(k * c[k]) * 2.0 ** (k - 1) for k in range(1, len(c)))
    panels = max(64, ceil(4.0 * tau * slope / pi))  # half a wavelength is pi / (tau slope)
    x16, w16 = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(-2.0, 2.0, panels + 1)
    out = np.zeros(3, dtype=complex)
    for i in range(0, panels, 20000):
        lo, hi = edges[:-1][i : i + 20000], edges[1:][i : i + 20000]
        half = 0.5 * (hi - lo)[:, None]
        x = (0.5 * (hi + lo)[:, None] + half * x16).ravel()
        g = np.exp(1j * tau * np.polynomial.polynomial.polyval(x, c)) * ETA(x)
        g = g * (half * w16).ravel()
        out += [np.sum(g), np.sum(g * x), np.sum(g * x * x)]
    return tuple(out)


AXIS_PHASES = ["x1^2 + x1^4", "x1^4 + x1^6", "x1^2 - x1^4", "x1^2 + x1^3", "x1 + x1^3",
               "x1^2 - 1/8*x1^4"]  # critical points at +-1/sqrt(2) and at +-b = +-2


@pytest.mark.parametrize("phase", AXIS_PHASES)
@pytest.mark.parametrize("nu", [0, 2])
@pytest.mark.parametrize("tau", [1.0, 1e2, 1e3, 1e4])
def test_multi_term_axis_matches_dense_reference(phase, nu, tau):
    phi = TestFunction(nu=(nu,), cutoff=ETA)
    s = eval_oscillatory(parse(phase, 1), phi, tau, tol=1e-10)
    assert s.converged
    assert abs(s.value - _dense_axis_reference(phase, tau)[nu]) <= 1e-10


@pytest.mark.parametrize("tau", [1.0, 1e2, 1e4])
def test_zero_axis_and_constant_term_match_dense_reference(tau):
    # x2 does not occur in x1^4, so its axis integral is int x2^2 eta(x2) dx2
    s = eval_oscillatory(parse("x1^4", 2), TestFunction(nu=(0, 2), cutoff=ETA), tau, tol=1e-10)
    ref = _dense_axis_reference("x1^4", tau)[0] * _dense_axis_reference("0", tau)[2]
    assert s.converged
    assert abs(s.value - ref) <= 1e-10
    # n = 1 radial: the separable route, with the constant factored out
    phi = TestFunction(nu=(0,), cutoff=ETA, shape="radial")
    s = eval_oscillatory(parse("x1^2 + x1^4 + 3", 1), phi, tau, tol=1e-10)
    assert s.converged
    assert abs(s.value - _dense_axis_reference("x1^2 + x1^4 + 3", tau)[0]) <= 1e-10


@pytest.mark.parametrize("tau", [1.0, 100.0])
def test_constant_axis_error_is_floored_at_roundoff(tau):
    # both head levels agree to the last bit here; the value does not
    s = eval_oscillatory(parse("0*x1 + 1", 1), TestFunction(nu=(0,), cutoff=ETA), tau, tol=1e-10)
    err = abs(s.value - _dense_axis_reference("0*x1 + 1", tau)[0])
    assert s.converged
    assert s.error_estimate >= err
    assert 0.0 < s.error_estimate <= 1e-14


def test_odd_amplitude_on_even_axis_vanishes():
    s = eval_oscillatory(parse("x1^2 + x1^4", 1), TestFunction(nu=(1,), cutoff=ETA), 300.0)
    assert s.value == 0.0 and s.converged


@pytest.mark.parametrize("tau", [1e5, 1e6, 1e7])
def test_multi_term_axis_matches_its_large_tau_expansion(tau):
    # x = y - y^3/2 + ... maps x^2 + x^4 to y^2 with dx/dy = 1 - 3y^2/2 + ...,
    # so I = sqrt(pi/tau) e^{i pi/4} (1 - 3i/(4 tau)) + O(tau^{-5/2})
    s = eval_oscillatory(parse("x1^2 + x1^4", 1), TestFunction(nu=(0,), cutoff=ETA), tau,
                         tol=1e-12)
    approx = sqrt(pi / tau) * np.exp(1j * pi / 4) * (1 - 3j / (4 * tau))
    assert s.converged
    assert abs(s.value - approx) <= 10 * tau**-2.5 + 1e-13


def test_radial_reduction_agrees_with_tensor_quadrature():
    f = parse("x1^4 + x2^4", 2)
    phi = TestFunction(nu=(0, 0), cutoff=ETA, shape="radial")
    tau = 30.0
    a = radial_reduce(f, phi, tau, tol=1e-10)
    b = _tensor(f, phi, tau, tol=1e-9)
    assert a.converged and b.converged
    assert abs(a.value - b.value) < 5e-9


# -- radial reduction on circles where h changes sign or vanishes ---------------

SIGN_CHANGING = ["x1*x2", "x1^4 - 6*x1^2*x2^2 + x2^4", "x1^6 - x2^6 + x1^3*x2^3",
                 "(x1 - 3*x2)^2*(x1^2 + x2^2)"]  # the last one has a double zero only


@lru_cache(maxsize=None)
def _dense_circle_reference(phase, tau):
    """int over the circle of R(tau h(theta)), nu = 0, by dense composite Gauss.

    The circle is cut at the exact zeros of h, and each half arc is cut
    dyadically toward its zero down to 1e-3 / (1 + tau), with four uniform
    16-point panels per dyadic piece: a fixed grid, unlike the levels of the
    arc rule in ``radial_reduce``.
    """
    f = parse(phase, 2)
    zeros = circle_zeros(f)
    x16, w16 = np.polynomial.legendre.leggauss(16)
    nodes, weights = [], []
    for a, b in zip(zeros, zeros[1:] + [zeros[0] + 2 * pi]):
        half = 0.5 * (b - a)
        dyadic = half * 2.0 ** -np.arange(ceil(np.log2(half * (1 + tau) / 1e-3)) + 1)
        s = np.unique(np.concatenate([[0.0]] + [np.linspace(lo, hi, 5)
                                                for lo, hi in zip(dyadic[1:], dyadic[:-1])]))
        for edges in (a + s, b - s[::-1]):
            mid, hw = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
            nodes.append((mid[:, None] + hw[:, None] * x16).ravel())
            weights.append((hw[:, None] * w16).ravel())
    theta, w = np.concatenate(nodes), np.concatenate(weights)
    h = f.evaluate([np.cos(theta), np.sin(theta)])
    vals, _ = oscillatory_profile(tau * h, f.homogeneous_degree(), 1, ETA, tol=1e-13)
    return complex(np.dot(vals, w))


@pytest.mark.parametrize("phase", SIGN_CHANGING)
@pytest.mark.parametrize("tau", [1e2, 1e3])
def test_radial_reduce_at_circle_zeros_matches_dense_reference(phase, tau):
    # the double-zero phase did not converge when the zeros came from a sign scan
    phi = TestFunction(nu=(0, 0), cutoff=ETA, shape="radial")
    s = radial_reduce(parse(phase, 2), phi, tau, tol=1e-10)
    err = abs(s.value - _dense_circle_reference(phase, tau))
    assert s.converged
    assert s.error_estimate >= err
    assert err <= 1e-10


@pytest.mark.parametrize("phase,tau", [(SIGN_CHANGING[0], 30.0), (SIGN_CHANGING[1], 3.0),
                                       (SIGN_CHANGING[2], 3.0), (SIGN_CHANGING[3], 1.0)])
def test_radial_reduce_at_circle_zeros_agrees_with_tensor_quadrature(phase, tau):
    f = parse(phase, 2)
    phi = TestFunction(nu=(2, 0), cutoff=ETA, shape="radial")
    a = radial_reduce(f, phi, tau, tol=1e-10)
    b = _tensor(f, phi, tau, tol=1e-9)
    assert a.converged and b.converged
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


def test_radial_reduce_respects_rotation_invariance_at_circle_zeros():
    # x1*x2 and (x1^2 - x2^2)/2 differ by a rotation by pi/4, so their zeros do too
    phi = TestFunction(nu=(0, 0), cutoff=ETA, shape="radial")
    tau = 1e3
    a = radial_reduce(parse("x1*x2", 2), phi, tau, tol=1e-10)
    b = radial_reduce(parse("1/2*x1^2 - 1/2*x2^2", 2), phi, tau, tol=1e-10)
    assert a.converged and b.converged
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


def test_tensor_quadrature_respects_rotation_invariance():
    # x1*x2 and (x1^2 - x2^2)/2 differ by a rotation; radial amplitudes are
    # rotation invariant, so the integrals agree
    phi = TestFunction(nu=(0, 0), cutoff=ETA, shape="radial")
    tau = 20.0
    a = _tensor(parse("x1*x2", 2), phi, tau, tol=1e-9)
    b = _tensor(parse("1/2*x1^2 - 1/2*x2^2", 2), phi, tau, tol=1e-9)
    assert abs(a.value - b.value) < 5e-8


def test_eval_oscillatory_validation():
    phi = TestFunction(nu=(0, 0), cutoff=ETA)
    with pytest.raises(ValueError):
        eval_oscillatory(parse("x1^2", 1), phi, 10.0)
    with pytest.raises(ValueError):
        eval_oscillatory(parse("x1^2 + x2^2", 2), phi, -1.0)


# -- tau series ------------------------------------------------------------------

SEPARABLE_ROUTES = [
    ("x1^4 + 2*x2^6", (0, 2), "product"),      # pure powers
    ("x1^2 + x1^4 + x2^4", (2, 0), "product"),  # a multi-term axis
    ("x1^4", (0, 2), "product"),                # a zero axis
    ("x1^4 + 3*x2^2 + 5", (0, 0), "product"),   # a constant term
    ("x1^2 + x1^4 + 3", (0,), "radial"),        # n = 1 radial
    ("x1^2 + x1^4", (1,), "product"),           # odd amplitude on an even axis
    ("x1^4 + x2^6", (1, 0), "product"),         # and on an even pure power
]


@pytest.mark.parametrize("phase,nu,shape", SEPARABLE_ROUTES)
def test_series_matches_per_tau_samples_on_separable_routes(phase, nu, shape):
    f = parse(phase, len(nu))
    phi = TestFunction(nu=nu, cutoff=ETA, shape=shape)
    taus = np.concatenate([[0.0, 1.0], geometric_grid(1e2, 1e4, 8)])
    tol = 1e-10
    series = eval_oscillatory_series(f, phi, taus, tol=tol)
    assert [s.tau for s in series] == list(taus)
    for s in series:
        alone = eval_oscillatory(f, phi, s.tau, tol=tol)
        assert abs(s.value - alone.value) <= tol
        assert s.converged == alone.converged


def test_series_on_the_tensor_route_is_the_per_tau_loop():
    f = parse("x1^2 + x1*x2 + x2^4", 2)
    phi = TestFunction(nu=(0, 0), cutoff=ETA)
    taus = [1.0, 5.0, 20.0]
    assert eval_oscillatory_series(f, phi, taus, tol=1e-8) == [
        eval_oscillatory(f, phi, tau, tol=1e-8) for tau in taus]


@pytest.mark.parametrize("phase,shape", [("x1^4 + x2^2 + x2^4", "product"),
                                         ("x1^2 + x1*x2 + x2^4", "product"),
                                         ("x1^4 + x2^4", "radial")])
def test_series_rejects_a_negative_tau_before_any_work(monkeypatch, phase, shape):
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the arguments were checked")

    phi = TestFunction(nu=(0, 0), cutoff=ETA, shape=shape)
    assert eval_oscillatory_series(parse(phase, 2), phi, []) == []
    for name in ("oscillatory_profile", "_axis_filon", "_tensor_oscillatory"):
        monkeypatch.setattr(quad, name, no_work)
    with pytest.raises(ValueError):
        eval_oscillatory_series(parse(phase, 2), phi, [10.0, 100.0, -1.0])


def test_series_raises_the_axis_budget_error():
    phi = TestFunction(nu=(0,), cutoff=ETA)
    with pytest.raises(QuadratureBudgetError, match="axis grid needs"):
        eval_oscillatory_series(parse("x1^2 + x1", 1), phi, [1.0, 1.0e9], tol=1e-10,
                                max_panels=64)


def test_budget_error():
    f = parse("x1^2 + x1", 1)
    phi = TestFunction(nu=(0,), cutoff=ETA)
    with pytest.raises(QuadratureBudgetError):
        eval_oscillatory(f, phi, 1.0e9, tol=1e-10, max_panels=64)


def test_tensor_budget_is_checked_before_any_evaluation(monkeypatch):
    # x1 is folded onto [0, 2]; at tau = 600 the wpp = 2 grid fits the budget
    # (962 x 770 panels) and the wpp = 1 grid does not; both levels always
    # run, so the error must come before either
    f = parse("x2^2 - x1*x2 + x1^4", 2)
    phi = TestFunction(nu=(0, 0), cutoff=ETA)

    def no_evaluation(self, point):
        raise AssertionError("phase evaluated before the budget check")

    monkeypatch.setattr(Polynomial, "evaluate", no_evaluation)
    with pytest.raises(QuadratureBudgetError, match="tensor grid needs 2940678 panels"):
        eval_oscillatory(f, phi, 600.0, tol=1e-10)
    # in a series, a later tau past the budget stops the series before its first tau
    with pytest.raises(QuadratureBudgetError, match="tensor grid needs 2940678 panels"):
        eval_oscillatory_series(f, phi, [10.0, 600.0], tol=1e-10)


@pytest.mark.parametrize(
    "phase,n,tau,tol",
    [("x1^2 - x1*x2 + x2^2", 2, tau, 1e-8) for tau in (0.5, 1.0, 2.0, 5.0)]
    + [("x1^2 + x2^2 + x3^2", 3, 5.0, 1e-6)],
)
def test_tensor_error_estimate_covers_gap_at_small_tau(phase, n, tau, tol):
    # at small tau the phase-resolved grid is floored at min_panels, so two
    # levels can get the same edges; the estimate must still measure something
    f = parse(phase, n)
    phi = TestFunction(nu=(0,) * n, cutoff=ETA, shape="radial")
    s = _tensor(f, phi, tau, tol=tol)
    ref = radial_reduce(f, phi, tau, tol=1e-11)
    assert s.converged
    assert s.error_estimate >= abs(s.value - ref.value) > 0.0


def test_tensor_n3_matches_radial_reduction():
    f = parse("x1^2 + x2^2 + x3^2", 3)
    phi = TestFunction(nu=(0, 0, 0), cutoff=ETA, shape="radial")
    tol = 1e-6
    s = eval_oscillatory(f, phi, 10.0, tol=tol)
    ref = radial_reduce(f, phi, 10.0, tol=1e-10)
    assert s.converged and ref.converged
    assert abs(s.value - ref.value) <= tol


def test_tensor_n3_mixed_phase_matches_separated_dense_reference():
    # x3 separates: the integral is a dense 2-D sum in (x1, x2) times a dense
    # 1-D sum in x3, sharing no grid with the folded tensor route
    f = parse("x1^2 + x1*x2 + x2^2 + x3^2", 3)
    phi = TestFunction(nu=(0, 0, 0), cutoff=ETA)
    tau = 8.0
    s = eval_oscillatory(f, phi, tau, tol=1e-6)
    x, w = _dense_axis_rule()
    ref = (_dense_tensor_reference("x1^2 + x1*x2 + x2^2", (0, 0), tau, "product")
           * complex(np.sum(w * np.exp(1j * tau * x**2) * ETA(x))))
    assert s.converged
    assert abs(s.value - ref) <= s.error_estimate


# -- sign folds of the tensor grid -------------------------------------------------


@pytest.mark.parametrize("phase,nu,axes", [
    ("x1^4 + x2^4", (0, 0), [0, 1]),
    ("x2^2 + x1*x2 + x1^4", (0, 0), [0]),
    ("x1^3 + x2^3", (0, 0), []),
    ("x1^2 + x2^2", (1, 0), [1]),
    ("x1^2 + x1*x2 + x2^2 + x3^2", (0, 0, 0), [0, 2]),
])
def test_sign_fold_pivot_axes(phase, nu, axes):
    assert quad._sign_fold(parse(phase, len(nu)), nu) == axes


@pytest.mark.parametrize("phase,nu,shape,tau", [
    ("x2^2 + x1*x2 + x1^4", (0, 0), "product", 20.0),    # x1 folded
    ("x1^2 - x1*x2 + x2^4", (1, 1), "product", 10.0),    # x1 folded, odd amplitude axes
    ("x1^4 + x1*x2^2 + x2^4", (0, 2), "product", 10.0),  # x2 folded
    ("x1^2 + x1*x2 + x2^4", (0, 0), "radial", 10.0),     # x1 folded, radial amplitude
    ("x1^4 + x2^2", (2, 0), "radial", 10.0),             # both folded, no mixed term
    ("x2^2 + x1*x2 + x1^4", (2, 0), "product", 0.0),     # tau = 0: nothing on the grid
])
def test_folded_tensor_samples_match_dense_unfolded_reference(phase, nu, shape, tau):
    phi = TestFunction(nu=nu, cutoff=ETA, shape=shape)
    s = _tensor(parse(phase, 2), phi, tau, tol=1e-10)
    assert s.converged
    assert abs(s.value - _dense_tensor_reference(phase, nu, tau, shape)) <= s.error_estimate


# -- row blocks of the tensor grid -------------------------------------------------


@pytest.mark.parametrize("eta", [ETA, make_cutoff(0.5, 1.5)])
def test_radial_cutoff_is_bitwise_the_full_evaluation(eta):
    # radii inside, on and next to both ends of the annulus, and outside it
    edges = [np.nextafter(r, d) for r in (eta.a, eta.b) for d in (0.0, 3.0)]
    x = np.concatenate([np.linspace(0.0, 2.5, 401), [eta.a, eta.b], edges])
    X = [x.reshape(-1, 1, 1), x[::3].reshape(-1, 1), x[::5]]
    full = eta(np.sqrt(sum(v * v for v in X)))
    got = quad._radial_cutoff(eta, X)
    assert got.shape == full.shape and got.dtype == full.dtype
    assert got.tobytes() == full.tobytes()
    assert 0 < np.count_nonzero(full == 1.0) and 0 < np.count_nonzero(full == 0.0)


@pytest.mark.parametrize("phase,n,shape,tau,tol", [
    ("x1^2 + x1*x2 + x2^4", 2, "product", 40.0, 1e-10),
    ("x1^2 + x1*x2 + x2^2 + x3^2", 3, "radial", 3.0, 1e-6),
])
def test_tensor_samples_do_not_depend_on_the_worker_count(monkeypatch, phase, n, shape, tau, tol):
    f = parse(phase, n)
    phi = TestFunction(nu=(0,) * n, cutoff=ETA, shape=shape)
    reference = _tensor(f, phi, tau, tol)
    assert reference.converged
    counts = []

    def serial_map(fn, blocks):
        blocks = list(blocks)
        counts.append(len(blocks))
        return map(fn, blocks)

    with ThreadPoolExecutor(1) as one, ThreadPoolExecutor(3) as three:
        for pool in (SimpleNamespace(map=serial_map), one, three):
            monkeypatch.setattr(quad, "_pool", lambda: pool)
            s = _tensor(f, phi, tau, tol)
            assert (s.value, s.error_estimate, s.converged) == (
                reference.value, reference.error_estimate, reference.converged)
    assert max(counts) > 1  # some level of this grid spans more than one block


@pytest.mark.parametrize("shape", [(40, 30), (7, 50, 60), (5, 3, 2500), (2, 999)])
def test_grid_blocks_tile_the_grid_within_the_node_bound(monkeypatch, shape):
    # a row of (7, 50, 60) and one axis of (5, 3, 2500) each exceed the bound
    monkeypatch.setattr(quad, "_BLOCK_NODES", 1000)
    covered = np.zeros(shape, dtype=int)
    for cut in quad._grid_blocks(shape):
        assert covered[cut].size <= 1000
        covered[cut] += 1
    assert np.all(covered == 1)


def test_grid_blocks_bound_an_n3_grid_with_large_rows():
    shape = (100, 1000, 1000)  # one row of the first axis holds 10^6 nodes
    blocks = quad._grid_blocks(shape)
    sizes = [prod(len(range(*s.indices(k))) for s, k in zip(cut, shape)) for cut in blocks]
    assert max(sizes) <= quad._BLOCK_NODES
    assert sum(sizes) == prod(shape)


def test_pool_memory_does_not_grow_with_the_cpu_count(monkeypatch):
    monkeypatch.setattr(quad, "_POOL", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    pool = quad._pool()
    try:
        assert pool._max_workers == quad._POOL_WORKERS
        assert quad._POOL_WORKERS * quad._BLOCK_NODES <= 2_000_000
    finally:
        pool.shutdown()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # forking a threaded process is the case
def test_tensor_route_runs_in_a_forked_child():
    # the child inherits the parent's pool object but none of its threads
    f = parse("x1^2 + x1*x2 + x2^4", 2)
    phi = TestFunction(nu=(0, 0), cutoff=ETA)
    expected = _tensor(f, phi, 40.0, 1e-10)
    pid = os.fork()
    if pid == 0:
        os._exit(0 if _tensor(f, phi, 40.0, 1e-10) == expected else 1)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail("the tensor route hung in a forked child")


# -- n = 4 --------------------------------------------------------------------------


def test_separable_n4_phase_evaluates_and_fits_its_exponent():
    f = parse("x1^6 + x2^6 - x3^6 + x4^6", 4)
    phi = TestFunction(nu=(0, 0, 0, 0), cutoff=ETA)
    samples = eval_oscillatory_series(f, phi, geometric_grid(100.0, 1000.0, 8), tol=1e-10)
    assert all(s.converged for s in samples)
    est = fit_leading(samples, n_ambient=4)
    assert est.converged and est.k_hat == 0
    assert est.alpha_hat == pytest.approx(-2.0 / 3.0, abs=1e-6)


@pytest.mark.parametrize("shape", ["product", "radial"])
def test_n4_phase_off_the_separable_route_is_rejected_before_any_grid(monkeypatch, shape):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid work before the dimension check")

    monkeypatch.setattr(quad, "_tensor_grids", no_grid)
    monkeypatch.setattr(quad, "_composite", no_grid)
    phi = TestFunction(nu=(0, 0, 0, 0), cutoff=ETA, shape=shape)
    phase = "x1^2 + x1*x2 + x3^2 + x4^2" if shape == "product" else "x1^2 + x2^2 + x3^2 + x4^2"
    with pytest.raises(ValueError, match="n <= 3"):
        eval_oscillatory_series(parse(phase, 4), phi, [1.0, 10.0])


# -- the radial route of eval_oscillatory ----------------------------------------

RADIAL_ROUTE = [("x1^2 + x1*x2 + x2^2", 20.0),           # definite
                ("x1^2 - x2^2", 20.0),
                ("x1^3 + x2^3", 20.0),                   # the tensor estimate under-covers here
                ("(x1 - 3*x2)^2*(x1^2 + x2^2)", 2.0)]    # a double zero on the circle


def _dense_axis_rule():
    """100 uniform 16-point Gauss-Legendre panels on the support [-2, 2]."""
    x16, w16 = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(-2.0, 2.0, 101)
    mid, hw = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    return (mid[:, None] + hw[:, None] * x16).ravel(), (hw[:, None] * w16).ravel()


def _dense_tensor_reference(phase, nu, tau, shape="radial"):
    """int exp(i tau f(x)) x^nu eta dx, n = 2, by fixed dense tensor Gauss-Legendre.

    ``_dense_axis_rule`` on both axes of the whole support square: no
    refinement, no fold, no circle and no profile, so it shares nothing with
    ``radial_reduce`` or the tensor route.  On every case it is used for it
    moves by less than 1e-15 at 160 panels per axis.
    """
    f = parse(phase, 2)
    phi = TestFunction(nu=nu, cutoff=ETA, shape=shape)
    x, w = _dense_axis_rule()
    total = 0j
    for i in range(0, len(x), 200):
        x1, x2 = x[i : i + 200, None], x[None, :]
        vals = np.exp(1j * tau * f.evaluate([x1, x2])) * phi(x1, x2)
        total += np.dot(w[i : i + 200], vals @ w)
    return complex(total)


@pytest.mark.parametrize("phase,tau", RADIAL_ROUTE)
@pytest.mark.parametrize("nu", [(2, 0), (1, 1)])
def test_radial_route_matches_dense_tensor_reference(phase, tau, nu):
    phi = TestFunction(nu=nu, cutoff=ETA, shape="radial")
    tol = 1e-10
    s = eval_oscillatory(parse(phase, 2), phi, tau, tol=tol)
    err = abs(s.value - _dense_tensor_reference(phase, nu, tau))
    assert s.converged
    assert err <= tol
    assert s.error_estimate >= err


def test_homogeneous_radial_phases_in_n2_never_reach_the_tensor_grid(monkeypatch):
    def no_tensor(*args, **kwargs):
        raise AssertionError("tensor grid used")

    monkeypatch.setattr(quad, "_tensor_oscillatory", no_tensor)
    f = parse("x1^4 + x1^2*x2^2 + x2^4", 2)
    phi = TestFunction(nu=(0, 0), cutoff=ETA, shape="radial")
    # far past the tensor budget; max_panels does not apply on this route
    assert eval_oscillatory(f, phi, 1e4, tol=1e-10, max_panels=1).converged
    assert all(s.converged for s in eval_oscillatory_series(f, phi, [0.0, 1e2, 1e4]))
    # a sample the radial route does not converge is returned as it is
    stuck = OscillatorySample(10.0, 1j, 1.0, False)
    monkeypatch.setattr(quad, "radial_reduce", lambda *args: stuck)
    assert eval_oscillatory(f, phi, 10.0, tol=1e-10) is stuck


@pytest.mark.parametrize("phase,n,tau", [("x1^2 + x1*x2 + x2^4", 2, 1.0),  # not homogeneous
                                         ("3", 2, 1.0),                    # degree 0
                                         ("0", 2, 1.0),                    # no degree at all
                                         ("x1^2 + x1*x2 + x3^2", 3, 0.0)])  # n = 3
def test_other_radial_phases_stay_on_the_tensor_grid(monkeypatch, phase, n, tau):
    def no_radial(*args, **kwargs):
        raise AssertionError("radial route used")

    monkeypatch.setattr(quad, "radial_reduce", no_radial)
    phi = TestFunction(nu=(0,) * n, cutoff=ETA, shape="radial")
    assert eval_oscillatory(parse(phase, n), phi, tau, tol=1e-4).converged


def test_radial_reduce_validation():
    phi_rad = TestFunction(nu=(0, 0), cutoff=ETA, shape="radial")
    phi_prod = TestFunction(nu=(0, 0), cutoff=ETA, shape="product")
    with pytest.raises(ValueError):
        radial_reduce(parse("x1^2 + x2^4", 2), phi_rad, 10.0)
    with pytest.raises(ValueError):
        radial_reduce(parse("x1^2 + x2^2", 2), phi_prod, 10.0)


# -- blowup-chart integrals -----------------------------------------------------


def test_chart_parity_validation():
    h = parse("1 + x1^4 + x2^4", 2)
    with pytest.raises(ValueError):
        chart_parity_integral(4, h, lambda v: 1.0, 10.0)
