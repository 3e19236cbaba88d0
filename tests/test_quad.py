import cmath
import os
import re
import signal
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from math import ceil, gamma, pi, prod, sqrt
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import spherical_jn

from oscillab.bump import SymmetricCutoff, TestFunction, make_cutoff
from oscillab.fit import fit_leading, geometric_grid
from oscillab.poly import Polynomial, circle_zeros, parse
from oscillab import quad
from oscillab.rlct import BlowupChart, blowup_charts
from oscillab.quad import (
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
SC = SymmetricCutoff(n=2, eps=0.25, eta=ETA)


def _tensor(f, phi, tau, tol):
    """The tensor route alone: ``eval_oscillatory`` sends homogeneous n = 2
    phases with radial amplitudes to ``radial_reduce``."""
    return quad._tensor_oscillatory(f, phi, [tau], tol)[0]


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
    fast, ferr = oscillatory_profile(ts, d, npow, ETA)
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


@pytest.mark.parametrize("order", [10, 12, 16, 24, 40])
def test_gauss_legendre_rule_is_accurate_to_an_ulp(order):
    # numpy's leggauss weights are off by up to 3e-15 at 40 points
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(30):
        nodes, weights = mp.gauss_quadrature(order, "legendre")
    exact = sorted((float(x), float(w)) for x, w in zip(nodes, weights))
    x, w = quad._gl(order)
    assert np.max(np.abs(x - [e[0] for e in exact])) <= 2.5e-16
    assert np.max(np.abs(w - [e[1] for e in exact])) <= 2.5e-16
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_filon_phase_factors_keep_the_rounding_error_of_t_times_u():
    # t u rounded once is off by up to an ulp of 5000 (9e-13) in phase
    mp = pytest.importorskip("mpmath").mp
    ts = np.array([4999.9, 5000.0 / 3.0, 12345.678])
    us = np.array([0.1, 1.0 / 7.0, 0.937])
    E = quad._phase(ts, us, np.zeros(len(us)))
    with mp.workdps(40):
        exact = np.array([[complex(mp.expj(mp.mpf(t) * mp.mpf(u))) for u in us] for t in ts])
    assert np.max(np.abs(E - exact)) <= 4e-16


def _per_panel_moment_sum(ts, runs, coeffs):
    """The moment sum with every panel's moments evaluated on their own, by scipy."""
    mid = np.concatenate([s + h * (2 * np.arange(c) + 1) for s, h, c in runs])
    half = np.concatenate([np.full(c, h) for _, h, c in runs])
    theta = np.outer(ts, half)
    S = np.zeros(theta.shape, dtype=complex)
    for k in range(coeffs.shape[1]):
        S += (2.0 * 1j**k) * spherical_jn(k, theta) * coeffs[None, :, k]
    return (np.exp(1j * np.outer(ts, mid)) * S) @ half


@pytest.mark.parametrize("grid", ["uniform", "graded", "mixed"])
def test_grouped_moment_sum_matches_per_panel_formula(grid):
    # uniform: one run; graded: cubic, so runs of one panel each; mixed: both
    edges = 0.5 * np.linspace(0.0, 1.0, 65) ** 3
    graded = tuple((lo, 0.5 * (hi - lo), 1) for lo, hi in zip(edges, edges[1:]))
    runs = {
        "uniform": ((1.0, 7.5 / 768, 768),),
        "graded": graded,
        "mixed": graded + ((0.5, 0.25 / 32, 32), (1.0, 7.5 / 96, 96)),
    }[grid]
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal((sum(c for *_, c in runs), _FILON_ORDER))
    coeffs *= 0.5 ** np.arange(_FILON_ORDER)
    ts = np.array([0.0, 0.7, 12.0, 150.0, 3000.0])
    fast = _filon_moment_sum(ts, runs, coeffs)
    slow = _per_panel_moment_sum(ts, runs, coeffs)
    assert np.max(np.abs(fast - slow)) <= 1e-13


# (u0, u1) of profile grids (a^d, b^d) and of axis tails (40 / tau, q(length))
@pytest.mark.parametrize("u0,u1", [(1.0, 16.0), (1.0, 64.0), (0.5**6, 1.0), (0.1**6, 1.0),
                                   (0.9**4, 1.0), (4e-3, 4.0), (40.0 / 7.3e4, 80.0)])
@pytest.mark.parametrize("m", quad._LEVELS)
def test_filon_runs_tile_the_interval(u0, u1, m):
    runs = quad._filon_runs(u0, u1, m)
    assert runs[0][0] == u0
    assert all(h > 0.0 and c >= 1 for _, h, c in runs)
    ends = [s + 2.0 * h * c for s, h, c in runs]
    for end, (start, _, _) in zip(ends, runs[1:]):
        assert abs(end - start) <= np.spacing(start), (end, start)
    assert abs(ends[-1] - u1) <= np.spacing(u1)
    # graded layers [u, 2u] of m / 12 panels, then at least m / 2 uniform ones
    assert all(c == m // 12 and s + 2.0 * h * c == 2.0 * s for s, h, c in runs[:-1])
    assert runs[-1][2] >= m // 2


@pytest.mark.parametrize("absolute", [False, True])
def test_profile_full_line_matches_brute_force(absolute):
    ts = np.array([0.5, 40.0, 900.0])
    fast, _ = oscillatory_profile(ts, 4, 1, ETA, full_line=True, absolute=absolute)
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
        vals, _ = oscillatory_profile([t], d, 0, eta)
        c = 1.0 / d
        lead = gamma(c) / d * np.exp(1j * pi * c / 2.0) * t ** (-c)
        assert abs(vals[0] - lead) / abs(lead) < 1e-6


def test_profile_error_is_floored_at_roundoff():
    # the Filon levels agree to 5e-19 here, below what float arithmetic can
    # resolve; the estimate counts roundoff in the head's int_0^a y dy at least
    _, errs = oscillatory_profile([1e4], 2, 1, ETA)
    assert quad._ROUNDOFF * ETA.a**2 / 2 <= errs[0] <= 1e-14


def test_profile_at_zero_is_plain_integral():
    vals, _ = oscillatory_profile([0.0], 2, 2, ETA)
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
    vals, _ = oscillatory_profile(tau * h, f.homogeneous_degree(), 1, ETA)
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


def test_radial_reduce_makes_one_half_circle_profile_call_per_level(monkeypatch):
    f = parse("x1^4 - 6*x1^2*x2^2 + x2^4", 2)
    z0 = circle_zeros(f)[0]
    levels, rules, sizes, cut_rule = [], [], [], quad._cut_rule

    def recording_rule(cuts, zero, tau, m):
        levels.append(m)
        rules.append(cut_rule(cuts, zero, tau, m))
        return rules[-1]

    def counting(ts, *args, **kwargs):
        sizes.append(len(ts))
        return oscillatory_profile(ts, *args, **kwargs)

    monkeypatch.setattr(quad, "_cut_rule", recording_rule)
    monkeypatch.setattr(quad, "oscillatory_profile", counting)
    phi = TestFunction(nu=(0, 0), cutoff=ETA, shape="radial")
    s = radial_reduce(f, phi, 1e2, tol=1e-10)
    assert s.converged and len(sizes) >= 2
    assert levels == list(quad._ANGLE_LEVELS[:len(levels)])
    assert sizes == [len(nodes) for nodes, _ in rules]
    for nodes, _ in rules:
        assert z0 <= nodes.min() and nodes.max() < z0 + pi


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


def test_series_raises_the_axis_budget_error(monkeypatch):
    monkeypatch.setattr(quad, "DEFAULT_MAX_PANELS", 64)
    phi = TestFunction(nu=(0,), cutoff=ETA)
    with pytest.raises(QuadratureBudgetError, match="axis grid needs"):
        eval_oscillatory_series(parse("x1^2 + x1", 1), phi, [1.0, 1.0e9], tol=1e-10)


def test_budget_error(monkeypatch):
    monkeypatch.setattr(quad, "DEFAULT_MAX_PANELS", 64)
    f = parse("x1^2 + x1", 1)
    phi = TestFunction(nu=(0,), cutoff=ETA)
    with pytest.raises(QuadratureBudgetError):
        eval_oscillatory(f, phi, 1.0e9, tol=1e-10)


@pytest.mark.parametrize("phase,tau", [("x1^2 + x1", 1e9), ("x1 + x1^3", 5355.67),
                                       ("x1^2 - 1/8*x1^4", 100.0)])
def test_axis_budget_counts_the_panels_of_its_runs(monkeypatch, phase, tau):
    built = []
    filon_runs = quad._filon_runs

    def spy(u0, u1, m):
        built.append((m, filon_runs(u0, u1, m)))
        return built[-1][1]

    monkeypatch.setattr(quad, "_filon_runs", spy)
    monkeypatch.setattr(quad, "DEFAULT_MAX_PANELS", 1)
    p = parse(phase, 1)
    with pytest.raises(QuadratureBudgetError, match="axis grid needs") as info:
        quad._axis_filon(p, 0, ETA, tau, 1e-10)
    needed = int(re.search(r"needs (\d+) panels", str(info.value)).group(1))
    # the second level: one head run of m / 3 panels per segment, and the tails' runs
    m = quad._LEVELS[1]
    heads = len(quad._axis_segments(p, ETA.support_radius())[1]) * (m // 3)
    assert built and needed == heads + sum(c for level, runs in built if level == m
                                           for *_, c in runs)
    monkeypatch.setattr(quad, "DEFAULT_MAX_PANELS", needed)
    quad._axis_filon(p, 0, ETA, tau, 1e-10)  # fits exactly


def test_tensor_budget_is_checked_before_any_evaluation(monkeypatch):
    # x1 is folded onto [0, 2]; at tau = 600 the levels run on a grid of
    # 485 x 388 panels at 4 wavelengths per panel, but the budget counts the
    # panels at 1 wavelength per panel (1917 x 1534), so the error must come
    # before any level is evaluated
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
    # at small tau the phase-resolved grid is floored at min_panels; the
    # levels differ in their Gauss order on it, so the estimate still
    # measures something
    f = parse(phase, n)
    phi = TestFunction(nu=(0,) * n, cutoff=ETA, shape="radial")
    s = _tensor(f, phi, tau, tol=tol)
    ref = radial_reduce(f, phi, tau, tol=1e-11).value if n == 2 else _ball_reference(tau)
    assert s.converged
    assert s.error_estimate >= abs(s.value - ref) > 0.0


def _ball_reference(tau):
    """I(tau) of |x|^2 in n = 3 under a radial amplitude: 4 pi times the profile
    P(tau) = int_0^inf e^{i tau r^2} r^2 eta(r) dr, with no sphere rule."""
    return 4 * pi * complex(oscillatory_profile(tau, 2, 2, ETA)[0][0])


def test_tensor_n3_matches_radial_reduction():
    f = parse("x1^2 + x2^2 + x3^2", 3)
    phi = TestFunction(nu=(0, 0, 0), cutoff=ETA, shape="radial")
    tol = 1e-6
    s = eval_oscillatory(f, phi, 10.0, tol=tol)
    assert s.converged
    assert abs(s.value - _ball_reference(10.0)) <= tol


def _separated_n3_reference(tau):
    """I(tau) of x1^2 + x1*x2 + x2^2 + x3^2 under the product amplitude.

    x3 separates: the integral is a dense 2-D sum in (x1, x2) times a dense
    1-D sum in x3, sharing no grid with the folded tensor route.
    """
    x, w = _dense_axis_rule()
    return (_dense_tensor_reference("x1^2 + x1*x2 + x2^2", (0, 0), tau, "product")
            * complex(np.sum(w * np.exp(1j * tau * x**2) * ETA(x))))


def test_tensor_n3_mixed_phase_matches_separated_dense_reference():
    f = parse("x1^2 + x1*x2 + x2^2 + x3^2", 3)
    phi = TestFunction(nu=(0, 0, 0), cutoff=ETA)
    tau = 8.0
    s = eval_oscillatory(f, phi, tau, tol=1e-6)
    assert s.converged
    assert abs(s.value - _separated_n3_reference(tau)) <= s.error_estimate


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


# -- the separated sum of the tensor grid -----------------------------------------

# x2^2 + x1^2*x2 + x1^4 at nu = (1, 1) and x1^2 + x1^2*x2 + x2^4 + x1*x2^3 run on
# unfolded grids, every other case on a folded one
SEPARATED_PHASES = [("x2^2 + x1*x2 + x1^4", 2), ("x2^2 + x1^2*x2 + x1^4", 2),
                    ("x1^2 + x1^2*x2 + x2^4 + x1*x2^3", 2), ("x1^3*x2^3 + x1^2 + x2^2", 2),
                    ("x1^2 + x1*x3 + x2^4 + x3^2", 3),      # the mixed term spans two axes
                    ("x1^2 + x2^2 + x3^2 + x1*x2*x3", 3)]   # and all three here
SEPARATED_NODES = 1 << 21  # most nodes of one node-wise check


def _node_wise_sum(phase, edges, order, weights):
    """sum_x e^{i phase(x)} prod_i weights[i](x_i) on the composite Gauss grid of
    ``edges``: one exp per node, one node of the first axis at a time."""
    xs = [quad._composite(e, order)[0] for e in edges]
    rest = [x.reshape((-1,) + (1,) * (len(xs) - 2 - k)) for k, x in enumerate(xs[1:])]
    outer = weights[-1]
    for w in reversed(weights[1:-1]):
        outer = w[:, None] * outer
    rows = np.array([np.sum(np.exp(1j * phase.evaluate([x] + rest)) * outer) for x in xs[0]])
    return np.sum(rows * weights[0])


# tau 40 is past the panel budget of the n = 3 grids
@pytest.mark.parametrize("phase,n,nu,tau", [
    (phase, n, nu + (0,) * (n - 2), tau) for phase, n in SEPARATED_PHASES
    for nu in [(0, 0), (2, 0), (1, 1)] for tau in ([0.5, 10.0, 40.0] if n == 2 else [0.5, 10.0])])
def test_separated_sum_matches_a_node_wise_sum(monkeypatch, phase, n, nu, tau):
    # every level of the route, on its own grid and weights; a grid past
    # SEPARATED_NODES is checked on its outermost panels, where |x| and the
    # cross remainder of the split are largest
    f = parse(phase, n)
    phi = TestFunction(nu=nu, cutoff=ETA)
    calls = []

    def record(phase, edges, order, weights):
        calls.append((phase, edges, order, weights))
        return 0j, 0.0

    monkeypatch.setattr(quad, "_separated_sum", record)
    quad._tensor_oscillatory(f, phi, [tau], 1e-300)  # never converges, so every level runs
    monkeypatch.undo()
    assert [order for *_, order, _ in calls] == list(quad._TENSOR_ORDERS)
    for phase_tau, edges, order, weights in calls:
        k = int(SEPARATED_NODES ** (1 / len(edges)) / order)
        edges = [e[-k - 1:] for e in edges]
        weights = [w[-(len(e) - 1) * order:] for e, w in zip(edges, weights)]
        got, tail = quad._separated_sum(phase_tau, edges, order, weights)
        floor = (quad._ROUNDOFF + tail) * prod(np.sum(np.abs(w)) for w in weights)
        assert tail <= 1e-17
        assert abs(got - _node_wise_sum(phase_tau, edges, order, weights)) <= floor, order


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
    ("x1^2 + x2^2 + x3^2 + x1*x2*x3", 3, "product", 2.0, 1e-8),  # a three-axis mixed term
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
    # a row of (7, 50, 60) and one axis of (5, 3, 2500) each exceed the bound;
    # a block that holds 5 or 9 arrays of its size gets a fifth or a ninth of it
    monkeypatch.setattr(quad, "_BLOCK_NODES", 1000)
    for arrays in (1, 5, 9):
        covered = np.zeros(shape, dtype=int)
        for cut in quad._grid_blocks(shape, arrays):
            assert covered[cut].size * arrays <= 1000
            covered[cut] += 1
        assert np.all(covered == 1)


def test_grid_blocks_bound_an_n3_grid_with_large_rows():
    shape = (100, 1000, 1000)  # one row of the first axis holds 10^6 nodes
    blocks = quad._grid_blocks(shape)
    sizes = [prod(len(range(*s.indices(k))) for s, k in zip(cut, shape)) for cut in blocks]
    assert max(sizes) <= quad._BLOCK_NODES
    assert sum(sizes) == prod(shape)


def _traced_peak(fn):
    """Peak bytes that ``tracemalloc`` sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pool_memory_does_not_grow_with_the_cpu_count(monkeypatch):
    monkeypatch.setattr(quad, "_POOL", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    pool = quad._pool()
    try:
        assert pool._max_workers == quad._POOL_WORKERS
        assert quad._POOL_WORKERS * quad._BLOCK_NODES <= 2_000_000
    finally:
        pool.shutdown()
    # so a block of the separated sum may hold no more than a node-wise block
    # of _BLOCK_NODES nodes did: one exp per node, contracted with the weights.
    # Its row array, the B predecessors and the B coefficient arrays of the
    # series grow with the degree B of the phase in the last axis (1 to 3 here).
    for phase, n, panels in [("x1*x2", 2, 80), ("x1^2*x2 + x1*x2^3", 2, 80),
                             ("x1^3*x2^3", 2, 80), ("x1*x2*x3", 3, 12)]:
        f = parse(phase, n).scale(20)
        x = np.linspace(-2.0, 2.0, 64)
        X = [np.linspace(-2.0, 2.0, quad._BLOCK_NODES // 64 ** (n - 1)).reshape((-1,) + (1,) * (n - 1))]
        X += [x.reshape((-1,) + (1,) * (n - 2 - k)) for k in range(n - 1)]
        assert prod(v.size for v in X) == quad._BLOCK_NODES

        def node_wise_block():
            wave = f.evaluate(X) * 1j
            np.exp(wave, out=wave)
            for w in reversed(X[1:]):
                wave = np.einsum("...j,j->...", wave, w.ravel())

        edges = [np.linspace(-2.0, 2.0, panels + 1)] * n
        weights = [quad._composite(e, 20)[1] + 0j for e in edges]
        blocks = []

        def serial_map(fn, cuts):  # one block at a time
            blocks.extend(cuts)
            return map(fn, blocks)

        monkeypatch.setattr(quad, "_pool", lambda: SimpleNamespace(map=serial_map))
        separated = _traced_peak(lambda: quad._separated_sum(f, edges, 20, weights))
        assert len(blocks) > 1, phase
        assert separated <= _traced_peak(node_wise_block), phase


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
                ("x1^3 + x2^3", 20.0),
                ("(x1 - 3*x2)^2*(x1^2 + x2^2)", 2.0)]    # a double zero on the circle


def _dense_axis_rule(panels=100):
    """Uniform 16-point Gauss-Legendre panels on the support [-2, 2]."""
    x16, w16 = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(-2.0, 2.0, panels + 1)
    mid, hw = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    return (mid[:, None] + hw[:, None] * x16).ravel(), (hw[:, None] * w16).ravel()


def _dense_tensor_reference(phase, nu, tau, shape="radial", panels=100):
    """int exp(i tau f(x)) x^nu eta dx, n = 2, by fixed dense tensor Gauss-Legendre.

    ``_dense_axis_rule`` on both axes of the whole support square: no
    refinement, no fold, no circle and no profile, so it shares nothing with
    ``radial_reduce`` or the tensor route.  On every case it is used for it
    moves by less than 1e-15 at 160 panels per axis.
    """
    f = parse(phase, 2)
    phi = TestFunction(nu=nu, cutoff=ETA, shape=shape)
    x, w = _dense_axis_rule(panels)
    total = 0j
    for i in range(0, len(x), 200):
        x1, x2 = x[i : i + 200, None], x[None, :]
        vals = np.exp(1j * tau * f.evaluate([x1, x2])) * phi(x1, x2)
        total += np.dot(w[i : i + 200], vals @ w)
    return complex(total)


@pytest.mark.parametrize("phase,tau", RADIAL_ROUTE)
@pytest.mark.parametrize("nu", [(2, 0), (1, 1), (1, 0), (0, 0)])
def test_radial_route_matches_dense_tensor_reference(phase, tau, nu):
    # the half circle is counted twice, the second time signed by (-1)^|nu| and
    # conjugated for odd d: (1, 0) on x1^3 + x2^3 takes both
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
    # far past the tensor budget; no panel budget applies on this route
    monkeypatch.setattr(quad, "DEFAULT_MAX_PANELS", 1)
    assert eval_oscillatory(f, phi, 1e4, tol=1e-10).converged
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
    with pytest.raises(ValueError, match="n = 2 only"):  # no sphere rule
        radial_reduce(parse("x1^2 + x2^2 + x3^2", 3),
                      TestFunction(nu=(0, 0, 0), cutoff=ETA, shape="radial"), 10.0)


# -- calibration of the angular routes on a dense tau grid --------------------------

RADIAL_PHI = TestFunction(nu=(0, 0), cutoff=ETA, shape="radial")
DENSE_TAUS = tuple(map(float, geometric_grid(1e2, 1e4, 60)))
DENSE_PHASES = ["x1^4 - x2^4", "x1^4 - 6*x1^2*x2^2 + x2^4", "x1^3 + x2^3",
                "x1^2 - x2^2", "x1^6 - x2^6 + x1^3*x2^3", "x1^4 + x2^4"]
# exact I(tau) and the least tau where the cutoff's O(tau^-inf) remainder is
# below 1e-13 on both routes: the radial cutoff and SC are 1 near 0, the only
# critical point of these phases.  pi / tau for the quadratic form, C tau^(-n/d)
# with the sphere constant C of the homogeneous phases (computed by mpmath at 30
# digits).  x1^4 + x2^4 = (3 + cos 4 theta) / 4 has no zero on the circle, so its
# tol 1e-8 and 1e-13 runs stop on the same level and only this oracle checks it;
# its C = e^{i pi / 4} sqrt(pi) K(1/2) has the modulus of the cos 4 theta one.
DENSE_EXACT = {"x1^2 - x2^2": (lambda tau: pi / tau, 300.0),
               "x1^4 - 6*x1^2*x2^2 + x2^4": (lambda tau: 3.2862618016492 * tau**-0.5, 100.0),
               "x1^4 + x2^4": (lambda tau: 3.2862618016492 * cmath.exp(0.25j * pi) * tau**-0.5,
                               200.0),
               "x1^6 - x2^6 + x1^3*x2^3": (lambda tau: 3.3995403417487 * tau ** (-1 / 3), 100.0)}
# (route, phase, tol, index of tau) -> |value - reference| / estimate: levels
# m = 8 and 16 of the cut rule carry about the same error near the zeros of
# cos 2 theta, so their difference reads below it
DENSE_UNDERCOVER = {("radial", "x1^2 - x2^2", 1e-8, 34): 1.45,   # tau 1420.8
                    ("radial", "x1^2 - x2^2", 1e-8, 50): 1.07,   # tau 4953.5
                    ("radial", "x1^2 - x2^2", 1e-10, 50): 1.07}


@lru_cache(maxsize=None)
def _dense_route(route, phase):
    """(tau, tol) -> sample of ``radial_reduce`` or of the chart sum over SC."""
    f = parse(phase, 2)
    if route == "radial":
        return lambda tau, tol: radial_reduce(f, RADIAL_PHI, tau, tol=tol)
    charts = blowup_charts(f)
    return lambda tau, tol: chart_parity_integral(charts, SC, tau, tol=tol)


@lru_cache(maxsize=None)
def _dense_reference(route, phase):
    return tuple(_dense_route(route, phase)(tau, 1e-13) for tau in DENSE_TAUS)


def _assert_covers(route, phase, tol, k):
    s = _dense_route(route, phase)(DENSE_TAUS[k], tol)
    assert s.converged
    assert abs(s.value - _dense_reference(route, phase)[k].value) <= s.error_estimate, DENSE_TAUS[k]


@pytest.mark.parametrize("phase", sorted(DENSE_EXACT))
@pytest.mark.parametrize("route", ["radial", "chart"])
def test_dense_tau_reference_matches_exact_values(route, phase):
    exact, tau_min = DENSE_EXACT[phase]
    refs = _dense_reference(route, phase)
    assert all(r.converged for r in refs)
    for tau, r in zip(DENSE_TAUS, refs):
        if tau >= tau_min:
            assert abs(r.value - exact(tau)) <= 1e-13, tau


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("phase", DENSE_PHASES)
@pytest.mark.parametrize("route", ["radial", "chart"])
def test_estimate_covers_the_reference_on_a_dense_tau_grid(route, phase, tol):
    # a radial ladder with a level m = 4 stops the quartics on levels 4 and 8
    # that agree by accident: true / estimate 13.6 at tau 5355.7
    for k in range(len(DENSE_TAUS)):
        if (route, phase, tol, k) not in DENSE_UNDERCOVER:
            _assert_covers(route, phase, tol, k)


@pytest.mark.parametrize("route,phase,tol,k", [
    pytest.param(*case, marks=pytest.mark.xfail(strict=True, reason=f"true / estimate {ratio}"))
    for case, ratio in DENSE_UNDERCOVER.items()])
def test_radial_estimate_undercovers_on_x1sq_minus_x2sq(route, phase, tol, k):
    _assert_covers(route, phase, tol, k)


# -- calibration of the separable axis route on the same dense tau grid -------------


@lru_cache(maxsize=None)
def _axis_series(phase, nu, tol):
    phi = TestFunction(nu=(nu,), cutoff=ETA)
    return tuple(eval_oscillatory_series(parse(phase, 1), phi, DENSE_TAUS, tol=tol))


@pytest.mark.parametrize("nu", [0, 2])
@pytest.mark.parametrize("phase", AXIS_PHASES)
def test_axis_reference_matches_the_dense_reference(phase, nu):
    refs = _axis_series(phase, nu, 1e-13)
    assert all(r.converged for r in refs)
    for k in (0, -1):  # tau = 1e2 and 1e4
        dense = _dense_axis_reference(phase, DENSE_TAUS[k])[nu]
        assert abs(refs[k].value - dense) <= 1e-13, DENSE_TAUS[k]


# x1^4 + x1^6, x1^2 - x1^4 and x1^2 + x1^3 stop tol 1e-8, 1e-10 and 1e-13 on the
# same level at every tau (x1^2 + x1^4 at 50 or 51 of the 60), so |value - reference|
# reads 0 there and this check proves nothing on them: only the dense checks,
# ``test_multi_term_axis_matches_dense_reference`` and the one below, cover them.
@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("nu", [0, 2])
@pytest.mark.parametrize("phase", AXIS_PHASES)
def test_axis_estimate_covers_the_reference_on_a_dense_tau_grid(phase, nu, tol):
    refs = _axis_series(phase, nu, 1e-13)
    for tau, s, r in zip(DENSE_TAUS, _axis_series(phase, nu, tol), refs):
        assert s.converged, tau
        assert abs(s.value - r.value) <= s.error_estimate, tau


# 6 more tau of the 60, spread over 1e2..1e4, on the phases that stop on one level.
# The dense reference moves by up to 1.5e-14 when its panels are doubled, above
# these samples' estimates (about 2e-15), so it checks their values to 1e-13, the
# bound of ``test_axis_reference_matches_the_dense_reference``, not their estimates.
@pytest.mark.parametrize("k", range(5, 60, 10))
@pytest.mark.parametrize("nu", [0, 2])
@pytest.mark.parametrize("phase", ["x1^4 + x1^6", "x1^2 - x1^4", "x1^2 + x1^3"])
def test_axis_samples_that_stop_on_one_level_match_the_dense_reference(phase, nu, k):
    s = _axis_series(phase, nu, 1e-10)[k]
    assert s.converged
    assert abs(s.value - _dense_axis_reference(phase, DENSE_TAUS[k])[nu]) <= 1e-13, DENSE_TAUS[k]


# -- calibration of the tensor route against references that share no grid with it --

# x2^2 - x1*x2 + x1^4 at tau 10 and tol 1e-12 under-covers in both shapes
# without the roundoff floor
TENSOR_CALIBRATION = [("x2^2 + x1*x2 + x1^4", "product"),
                      ("x2^2 - x1*x2 + x1^4", "product"),
                      ("x2^2 + x1^2*x2 + x1^4", "product"),
                      ("x1^4 + x1*x2^2 + x2^4", "product"),
                      ("x1^3 + x1*x2 + x2^2", "product"),
                      ("x1^2 + x1*x2 + x2^4", "radial"),
                      ("x2^2 - x1*x2 + x1^4", "radial")]
CALIBRATION_TOLS = (1e-8, 1e-10, 1e-12)


@lru_cache(maxsize=None)
def _calibration_reference(phase, shape, tau):
    return _dense_tensor_reference(phase, (0, 0), tau, shape)


def _assert_tensor_covers(f, phi, tau, ref):
    for tol in CALIBRATION_TOLS:
        s = _tensor(f, phi, tau, tol)
        assert s.converged
        assert abs(s.value - ref) <= s.error_estimate


@pytest.mark.parametrize("phase,shape", TENSOR_CALIBRATION)
def test_dense_reference_agrees_with_itself_at_twice_the_panels(phase, shape):
    # tau 20 is the most oscillatory calibration tau
    fine = _dense_tensor_reference(phase, (0, 0), 20.0, shape, panels=200)
    assert abs(fine - _calibration_reference(phase, shape, 20.0)) <= 1e-15


@pytest.mark.parametrize("tau", [0.5, 10.0, 20.0])
@pytest.mark.parametrize("phase,shape", TENSOR_CALIBRATION)
def test_tensor_estimate_covers_the_dense_reference(phase, shape, tau):
    phi = TestFunction(nu=(0, 0), cutoff=ETA, shape=shape)
    _assert_tensor_covers(parse(phase, 2), phi, tau, _calibration_reference(phase, shape, tau))


@pytest.mark.parametrize("phase,nu,tau", [
    ("x1^3 + x2^3", (0, 0), 20.0),  # estimated 5.4e-12 against 9.5e-11 when panels were halved
    ("x1^3 + x2^3", (2, 0), 20.0),
    ("x1^2 - x2^2", (0, 0), 20.0),
    ("x1^2 + x1*x2 + x2^2", (1, 1), 5.0),
])
def test_tensor_estimate_covers_the_circle_route(phase, nu, tau):
    f = parse(phase, 2)
    phi = TestFunction(nu=nu, cutoff=ETA, shape="radial")
    ref = radial_reduce(f, phi, tau, tol=1e-13)
    assert ref.converged
    _assert_tensor_covers(f, phi, tau, ref.value)


@pytest.mark.parametrize("tau", [0.5, 5.0])
def test_tensor_estimate_covers_the_ball_profile_in_n3(tau):
    phi = TestFunction(nu=(0, 0, 0), cutoff=ETA, shape="radial")
    _assert_tensor_covers(parse("x1^2 + x2^2 + x3^2", 3), phi, tau, _ball_reference(tau))


@pytest.mark.parametrize("tau", [2.0, 8.0])
def test_tensor_estimate_covers_a_separated_dense_reference_in_n3(tau):
    phi = TestFunction(nu=(0, 0, 0), cutoff=ETA)
    _assert_tensor_covers(parse("x1^2 + x1*x2 + x2^2 + x3^2", 3), phi, tau,
                          _separated_n3_reference(tau))


def test_tensor_levels_raise_the_order_on_one_grid_per_tau(monkeypatch):
    # the benchmark's mixed sweep: 8 taus over 10..80 at tol 1e-10 took
    # 16.67M grid nodes when each level halved the panels
    calls = []
    composite = quad._composite

    def counting(edges, order):
        calls.append((edges, order))
        return composite(edges, order)

    monkeypatch.setattr(quad, "_composite", counting)
    f = parse("x2^2 + x1*x2 + x1^4", 2)
    samples = eval_oscillatory_series(f, TestFunction(nu=(0, 0), cutoff=ETA),
                                      geometric_grid(10.0, 80.0, 8), tol=1e-10)
    assert all(s.converged for s in samples)
    levels = [calls[i : i + 2] for i in range(0, len(calls), 2)]  # one call per axis
    per_tau = []
    for level in levels:
        assert level[0][1] == level[1][1]
        if level[0][1] == quad._TENSOR_ORDERS[0]:
            per_tau.append([])
        per_tau[-1].append(level)
    assert len(per_tau) == len(samples)
    for tau_levels in per_tau:
        orders = [level[0][1] for level in tau_levels]
        assert orders == list(quad._TENSOR_ORDERS[: len(orders)])
        for level in tau_levels:
            assert all(edges is first for (edges, _), (first, _) in zip(level, tau_levels[0]))
    nodes = sum(prod((len(edges) - 1) * order for edges, order in level) for level in levels)
    assert nodes <= 16.67e6 / 2


# -- blowup-chart integrals -----------------------------------------------------




def test_chart_parity_validation():
    chart = BlowupChart(index=1, h=parse("1 + x1^4 + x2^4", 2), f_multiplicity=4,
                        jacobian_multiplicity=1)
    with pytest.raises(ValueError):
        chart_parity_integral([chart], SC, 10.0)
    with pytest.raises(ValueError):
        chart_parity_integral([], SC, 10.0)
    mixed = [blowup_charts(parse(phase, 2))[0] for phase in ("x1^4 + x2^4", "x1^3 + x2^3")]
    with pytest.raises(ValueError):
        chart_parity_integral(mixed, SC, 10.0)  # two multiplicities d


@pytest.mark.parametrize("tau", [1e2, 1e3])
def test_chart_sum_of_an_indefinite_quadratic_form_is_pi_over_tau(tau):
    # h = 1 - v^2 vanishes at v = +-1, inside both charts.  chi = 1 near 0, so
    # stationary phase gives pi / tau for x1^2 - x2^2 up to O(tau^-inf)
    chart = chart_parity_integral(blowup_charts(parse("x1^2 - x2^2", 2)), SC, tau, tol=1e-10)
    assert chart.converged
    assert abs(chart.value - pi / tau) <= 1e-10


def test_chart_cuts_at_the_zeros_of_h_only():
    # no real zero: one piece of uniform panels, the grid the charts always had
    nodes, _ = quad._cut_rule(*quad._chart_cuts(parse("1 + x1^4", 1), 1.25), 1e3, 8)
    assert np.array_equal(nodes, quad._composite(np.linspace(-1.25, 1.25, 9), 16)[0])
    cuts, zero = quad._chart_cuts(parse("1 - x1^2", 1), 1.25)
    assert cuts == (-1.25, -1.0, 1.0, 1.25) and zero == (False, True, True, False)


def test_chart_cuts_of_an_even_h_are_symmetric():
    # the fold keeps the v > 0 half of a rule that is symmetric to the last bit
    for h in ("1 + x1^4", "1 - x1^2", "1 - 6*x1^2 + x1^4"):
        cuts, zero = quad._chart_cuts(parse(h, 1), 1.25)
        assert cuts == tuple(-c for c in reversed(cuts)) and zero == zero[::-1]
        nodes, weights = quad._cut_rule(cuts, zero, 1e2, 8)
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        assert not np.any(nodes == 0.0)


def test_chart_sum_of_a_shared_even_h_makes_one_half_rule_profile_call_per_level(monkeypatch):
    # both charts of x1^4 + x2^4 have h = 1 + v^4: one profile array of the
    # v > 0 half of the m-panel, 16-point rule serves both, 8 m t-values
    sizes = []

    def counting(ts, *args, **kwargs):
        sizes.append(len(ts))
        return oscillatory_profile(ts, *args, **kwargs)

    monkeypatch.setattr(quad, "oscillatory_profile", counting)
    chart = chart_parity_integral(blowup_charts(parse("x1^4 + x2^4", 2)), SC, 1e2, tol=1e-10)
    assert chart.converged
    assert sizes == [8 * m for m in quad._ANGLE_LEVELS[:len(sizes)]] and len(sizes) >= 2
