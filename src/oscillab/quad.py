"""Oscillatory quadrature for e^{i tau f(x)} amplitudes.

``eval_oscillatory`` tries three routes, in this order:

1. Separable: an additively separable phase with a product amplitude, or any
   phase in n = 1, reduces to one-dimensional axis integrals, which
   Filon-type rules evaluate at a cost that does not grow with tau: pure
   powers through the batched profile ``oscillatory_profile``, every other
   axis polynomial through the substitution w = |p(x) - p(x0)| on its
   monotone pieces.  A tau series (``eval_oscillatory_series``) shares one
   profile call per pure-power axis across all of its taus.
2. Radial: a homogeneous phase of degree >= 1 in n = 2 with a radial
   amplitude reduces to a circle integral of the profile
   (``radial_reduce``), cut at the exact zeros of the phase on the circle.
3. Tensor: everything else in n <= 3 goes to tensor-product Gauss grids
   whose panels each hold a bounded number of oscillation wavelengths.  The
   grid is folded by the sign flips x_i -> -x_i that fix f and the
   amplitude monomial: the pivot axes of those flips run over [0, r] only.
   The terms of f in one variable, and a product amplitude, factor into
   complex weights per axis, so only the mixed terms (one exp per node)
   and a radial amplitude (on the annulus where it is neither 0 nor 1) are
   evaluated on the grid.  The grid is cut into blocks of at most a fixed
   node count, which run on a thread pool with one worker per usable CPU
   (at most 15, so memory does not grow with the host) and are contracted
   without BLAS.  A tau series checks the panel budget of every tau before
   it evaluates any.

The separable route takes any n; the other routes reject n >= 4 before
any grid work.  ``radial_reduce`` also takes n = 3 on the sphere, but only
when called directly.  Every error estimate compares successive
refinement levels through one rule, ``_refine``.  Estimates are heuristic
diagnostics, not certified bounds.  All accumulation orders are
deterministic and independent of the number of threads, so results are
reproducible bitwise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import ceil, comb, gamma, pi, prod
from typing import Callable, List, Optional

import numpy as np
from numpy.polynomial.polynomial import polyval

from .bump import CutoffFunction, TestFunction
from .poly import Polynomial, circle_zeros, real_roots

__all__ = [
    "OscillatorySample",
    "QuadratureBudgetError",
    "erdelyi_leading",
    "eval_oscillatory",
    "eval_oscillatory_series",
    "radial_reduce",
    "chart_parity_integral",
]

DEFAULT_MAX_PANELS = 10**6
_WPP = 2.0  # target wavelengths per panel at order 16
_BLOCK_NODES = 1 << 17  # most nodes in one block of the tensor grid
# most blocks in flight: 15 * 2^17 nodes stays under the 2,000,000-node chunks
# that the tensor grid was evaluated in before blocks, on any number of CPUs
_POOL_WORKERS = 15
_POOL = None  # (pid, thread pool) of the tensor evaluator, made by ``_pool`` on first use


class QuadratureBudgetError(RuntimeError):
    """The oscillation-resolved grid would exceed the panel budget."""


@dataclass(frozen=True)
class OscillatorySample:
    tau: float
    value: complex
    error_estimate: float
    converged: bool = True


@lru_cache(maxsize=None)
def _gl(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _composite(edges: np.ndarray, order: int):
    """Composite Gauss-Legendre nodes and weights on the panels of ``edges``, flattened."""
    x, w = _gl(order)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    nodes = ((0.5 * (hi + lo))[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _refine(levels, tol: float):
    """Successive-level error estimate over an iterable of (value, inner_err).

    Each level after the first has err = |value - previous value| + inner_err,
    elementwise for arrays of values; iteration stops at the first level with
    max(err) <= tol.  Returns (value, err, converged) of the last level run,
    with err = inf when only one level ran.
    """
    prev, err = None, np.inf
    for value, inner_err in levels:
        if prev is not None:
            # builtin abs: on a Python complex it is not bitwise np.abs
            err = abs(value - prev) + inner_err
            if float(np.max(err, initial=0.0)) <= tol:
                return value, err, True
        prev = value
    return prev, err, False


def phase_resolved_edges(
    a: float,
    b: float,
    cycle_density: Callable,
    wpp: float = _WPP,
    min_panels: int = 8,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> np.ndarray:
    """Panel edges on [a,b] with roughly ``wpp`` oscillation cycles per panel.

    ``cycle_density(u)`` is an upper bound on |d(phase)/du| / (2 pi).
    Raises QuadratureBudgetError when the required panel count exceeds budget.
    """
    grid = np.linspace(a, b, 2049)
    dens = np.abs(np.asarray(cycle_density(grid), dtype=float))
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    total = cum[-1]
    m = int(ceil(total / wpp)) if total > 0 else 0
    if m > max_panels:
        raise QuadratureBudgetError(
            f"oscillation-resolved grid needs {m} panels, budget is {max_panels}"
        )
    m = max(m, min_panels)
    if total > 0:
        targets = np.linspace(0.0, total, m + 1)
        edges = np.interp(targets, cum, grid)
    else:
        edges = np.linspace(a, b, m + 1)
    # never let a panel exceed the uniform min_panels width
    edges = np.union1d(edges, np.linspace(a, b, min_panels + 1))
    return np.unique(edges)


def erdelyi_leading(b: float, d: int, c: float, tau: float) -> complex:
    """Leading term of int_0^inf exp(i tau c u^d) u^(b-1) eta(u) du.

    Equals (1/d) Gamma(b/d) exp(sign(c) i pi b / (2d)) |c|^(-b/d) tau^(-b/d);
    the cutoff eta only contributes beyond all orders.
    """
    if c == 0:
        raise ValueError("phase coefficient c must be nonzero")
    if b <= 0 or tau <= 0:
        raise ValueError("require b > 0 and tau > 0")
    s = 1.0 if c > 0 else -1.0
    amp = gamma(b / d) / d * abs(c) ** (-b / d) * tau ** (-b / d)
    return amp * np.exp(1j * s * pi * b / (2 * d))


# ---------------------------------------------------------------------------
# Batched one-parameter profiles:  P(t) = int exp(i t y^d) w(y) eta(y) dy
# over [0, b] (half line) or [-b, b], with w = y^npow or |y|^npow.
# Shared panel structure across the whole t batch keeps this vectorizable.
# ---------------------------------------------------------------------------


def _profile_edges(bsup: float, tmax: float, d: int, wpp: float, max_panels: int):
    cycles = tmax * bsup**d / (2 * pi)
    m = int(ceil(cycles / wpp)) if cycles > 0 else 0
    if m > max_panels:
        raise QuadratureBudgetError(
            f"profile grid needs {m} panels, budget is {max_panels}"
        )
    m = max(m, 16)
    # equal phase increments of t*y^d
    ks = np.arange(m + 1) / m
    edges = bsup * ks ** (1.0 / d)
    edges = np.union1d(edges, np.linspace(0.0, bsup, 17))
    return np.unique(edges)


def _profile_values(
    ts: np.ndarray,
    d: int,
    npow: int,
    eta: CutoffFunction,
    edges: np.ndarray,
    order: int,
    full_line: bool,
    absolute: bool,
):
    y, wgt = _composite(edges, order)
    out = np.zeros(len(ts), dtype=complex)
    for sign in (1.0, -1.0) if full_line else (1.0,):
        yy = sign * y
        weight = (np.abs(yy) ** npow if absolute else yy**npow) * eta(yy) * wgt
        z = yy**d
        chunk = max(1, int(4_000_000 // max(len(y), 1)))
        for i in range(0, len(ts), chunk):
            tc = ts[i : i + chunk]
            out[i : i + chunk] += np.exp(1j * np.outer(tc, z)) @ weight
    return out


def oscillatory_profile_reference(
    ts,
    d: int,
    npow: int,
    eta: CutoffFunction,
    tol: float = 1e-10,
    full_line: bool = False,
    absolute: bool = False,
    max_panels: int = DEFAULT_MAX_PANELS,
):
    """Brute-force profile by oscillation-resolved Gauss panels.

    Cost grows linearly with max |t|; kept as an independent cross-check for
    the Filon-type evaluator below.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    bsup = eta.support_radius()
    tmax = float(np.max(np.abs(ts))) if len(ts) else 0.0
    # error by panel-count doubling at fixed order: at 2 cycles/panel the
    # 16-point rule is already near machine accuracy, so this converges in
    # one or two rounds where an embedded low-order estimate would thrash
    def levels():
        for k in range(6):
            edges = _profile_edges(bsup, tmax, d, _WPP / 2**k, max_panels)
            yield _profile_values(ts, d, npow, eta, edges, 16, full_line, absolute), 0.0
            if k and len(edges) - 1 >= max_panels:
                return

    vals, errs, _ = _refine(levels(), tol)
    return vals, errs


# ---------------------------------------------------------------------------
# Filon-type profile: after u = y^d the profile is a Fourier integral
#   P(t) = (1/d) int_0^{b^d} e^{itu} u^{c-1} eta(u^{1/d}) du,   c = (npow+1)/d,
# so its cost can be made independent of |t|: the singular head [0, a^d]
# (where eta = 1) reduces to an incomplete-gamma-type function, and the
# smooth remainder is integrated with Legendre interpolation per panel and
# exact oscillatory moments M_k(theta) = int_{-1}^1 e^{i theta s} P_k(s) ds
# = 2 i^k j_k(theta) (spherical Bessel).  The moments depend on a panel only
# through its half-width, so they are evaluated once per t for each distinct
# width (one width for the uniform grids of c <= 1) and contracted with the
# panels' phase factors by one matmul.  They are computed without scipy: a
# 40-point Gauss rule for theta <= 16, upward recurrence from j_0 and j_1
# above it, where k < theta keeps the recurrence stable (DLMF 10.51.1).
# ---------------------------------------------------------------------------

_FILON_ORDER = 12
_MOMENT_SWITCH = 16.0  # upward recurrence above it needs _FILON_ORDER <= 16
_MOMENT_NODES = 40
_MOMENT_BLOCK = 1 << 16  # thetas per block of per-panel moments
_HEAD_PHASE = 40.0  # phase run below which a head is integrated in y or x space
_LEVELS = (48, 96, 192, 384, 768)  # Filon panels per grid, doubled level by level
_ROUNDOFF = 4 * np.finfo(float).eps  # error floor per unit of absolute integrand sum


@lru_cache(maxsize=None)
def _filon_projection(order: int):
    """Row k maps samples at the ``order`` Gauss nodes to the degree-k Legendre coefficient."""
    from numpy.polynomial.legendre import legval

    s, w = _gl(order)
    L = np.zeros((order, order))
    for k in range(order):
        coef = np.zeros(k + 1)
        coef[k] = 1.0
        L[k] = legval(s, coef)
    return (np.arange(order)[:, None] + 0.5) * (L * w[None, :])


@lru_cache(maxsize=None)
def _moment_rule(order: int):
    """Positive Gauss nodes and the tables 2 w_j P_k(x_j) for even and odd k."""
    x, w = _gl(_MOMENT_NODES)
    pos = x > 0
    table = 2.0 * np.polynomial.legendre.legvander(x[pos], order - 1) * w[pos, None]
    return x[pos], table[:, 0::2], table[:, 1::2]


def _legendre_moments(theta: np.ndarray, order: int) -> np.ndarray:
    """M_k(theta) = int_{-1}^1 e^{i theta s} P_k(s) ds for k < order.

    Returns shape theta.shape + (order,).  By parity, M_k is real for even k
    (a cosine integral) and imaginary for odd k (a sine integral).
    """
    theta = np.asarray(theta, dtype=float)
    flat = theta.ravel()
    out = np.empty((flat.size, order), dtype=complex)
    small = np.abs(flat) <= _MOMENT_SWITCH
    if np.any(small):
        x, even, odd = _moment_rule(order)
        arg = np.outer(flat[small], x)
        out[small, 0::2] = np.cos(arg) @ even
        out[small, 1::2] = 1j * (np.sin(arg) @ odd)
    if not np.all(small):
        th = flat[~small]
        j = [np.sin(th) / th]
        j.append((j[0] - np.cos(th)) / th)
        for k in range(1, order - 1):
            j.append((2 * k + 1) / th * j[k] - j[k - 1])
        out[~small] = 2.0 * np.stack(j[:order], axis=1) * 1j ** np.arange(order)
    return out.reshape(theta.shape + (order,))


def _width_groups(half: np.ndarray, scale: float):
    """Group panel half-widths that agree to a few ulps of the edge scale.

    Widths of one ``np.linspace`` differ only in their last bits; graded
    widths differ by far more than the tolerance and stay apart.  Returns the
    group widths (member means), the group label of every panel and the group
    sizes.
    """
    order = np.argsort(half, kind="stable")
    hs = half[order]
    starts = np.ones(len(hs), dtype=bool)
    starts[1:] = np.diff(hs) > 8.0 * np.finfo(float).eps * scale
    first = np.flatnonzero(starts)
    counts = np.diff(np.append(first, len(hs)))
    widths = np.add.reduceat(hs, first) / counts
    labels = np.empty(len(hs), dtype=int)
    labels[order] = np.cumsum(starts) - 1
    return widths, labels, counts


def _filon_moment_sum(ts: np.ndarray, edges: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum over panels of h e^{itm} * sum_k coeffs[p,k] M_k(t h)."""
    order = coeffs.shape[1]
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    widths, labels, counts = _width_groups(half, float(np.max(np.abs(edges))))
    # coefficients zeroed outside each shared group, so that every group
    # contracts the whole phase matrix without copying its columns
    shared = [
        (widths[g], np.where((labels == g)[:, None], coeffs, 0.0))
        for g in np.flatnonzero(counts > 1)
    ]
    lone = np.flatnonzero(counts[labels] == 1)
    out = np.zeros(len(ts), dtype=complex)
    chunk = max(1, int(2_000_000 // max(len(half), 1)))
    for i in range(0, len(ts), chunk):
        tc = ts[i : i + chunk]
        E = np.outer(tc, mid) * 1j
        np.exp(E, out=E)
        E *= half
        acc = np.zeros(len(tc), dtype=complex)
        for width, group_coeffs in shared:
            M = _legendre_moments(tc * width, order)
            acc += np.sum(M * (E @ group_coeffs), axis=1)
        cols = max(1, _MOMENT_BLOCK // len(tc))
        for j in range(0, len(lone), cols):
            p = lone[j : j + cols]
            M = _legendre_moments(np.outer(tc, half[p]), order)
            acc += np.sum(E[:, p] * np.einsum("tpk,pk->tp", M, coeffs[p]), axis=1)
        out[i : i + chunk] = acc
    return out


def _filon_integral(ts: np.ndarray, edges: np.ndarray, gfun):
    """int e^{itu} g(u) du over the union of panels, batched over ts, and int |g| du."""
    nodes, weights = _composite(edges, _FILON_ORDER)
    g = gfun(nodes)
    coeffs = g.reshape(-1, _FILON_ORDER) @ _filon_projection(_FILON_ORDER).T
    return _filon_moment_sum(ts, edges, coeffs), float(np.dot(np.abs(g), weights))


def _oscillatory_head(ts: np.ndarray, d: int, npow: int, a: float) -> np.ndarray:
    """int_0^a e^{ity^d} y^npow dy for t >= 0 and c = (npow+1)/d < 1, batched."""
    c = (npow + 1) / d
    u0 = a**d
    X = ts * u0
    out = np.empty(len(ts), dtype=complex)
    small = X < _HEAD_PHASE
    if np.any(small):
        # direct y-space quadrature: the integrand is smooth there and the
        # phase runs at most ~6 cycles; composite 16x24 Gauss resolves it
        x01, w01 = _composite(np.linspace(0.0, 1.0, 17), 24)
        nodes = a * x01
        phases = np.outer(ts[small], nodes**d)
        out[small] = a * (np.exp(1j * phases) * nodes[None, :] ** npow) @ w01
    if np.any(~small):
        # F(c, X) = Gamma(c) e^{i pi c/2} - e^{iX} * (asymptotic tail series)
        Xl = X[~small]
        full = gamma(c) * np.exp(1j * pi * c / 2.0)
        term = 1j * Xl ** (c - 1.0)
        acc = term.copy()
        g = c - 1.0
        for k in range(30):
            term = term * (1j * (g - k) / Xl)
            acc += term
        tail = np.exp(1j * Xl) * acc
        out[~small] = ts[~small] ** (-c) * (full - tail) / d
    return out


def _halfline_profile(ts: np.ndarray, d: int, npow: int, eta: CutoffFunction, tol: float):
    """P(t) = int_0^b e^{ity^d} y^npow eta(y) dy for t >= 0, batched, with errors."""
    c = (npow + 1) / d
    u0 = eta.a**d
    B = eta.b**d

    def gfun(u):
        u = np.asarray(u, dtype=float)
        return u ** (c - 1.0) / d * eta(u ** (1.0 / d))

    if c < 1.0:
        head = _oscillatory_head(ts, d, npow, eta.a)
    elif c == 1.0:
        head = np.empty(len(ts), dtype=complex)
        pos = ts > 0
        head[pos] = (np.exp(1j * ts[pos] * u0) - 1.0) / (1j * ts[pos]) / d
        head[~pos] = u0 / d
    else:
        head = np.zeros(len(ts), dtype=complex)

    def panel_edges(m):
        uniform = np.linspace(u0, B, m + 1)
        if c <= 1.0:
            return uniform
        # graded toward 0: u^{c-1} has unbounded low-order derivatives there
        graded = u0 * np.linspace(0.0, 1.0, m + 1) ** 3
        return np.concatenate([graded[:-1], uniform])

    levels = ((head + _filon_integral(ts, panel_edges(m), gfun)[0], 0.0) for m in _LEVELS)
    vals, errs, _ = _refine(levels, tol)
    return vals, errs


def oscillatory_profile(
    ts,
    d: int,
    npow: int,
    eta: CutoffFunction,
    tol: float = 1e-10,
    full_line: bool = False,
    absolute: bool = False,
):
    """Batched P(t) = int exp(i t y^d) w(y) eta(y) dy with error estimates.

    ``w`` is y^npow over [0, b]; with ``full_line`` the domain is [-b, b] and
    ``absolute`` selects |y|^npow over y^npow.  Negative t are handled by
    conjugation, the negative half-line by parity, so only t >= 0 half-line
    profiles are ever computed; the full line doubles the half-line error,
    so the half-line is refined to tol / 2 there.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    neg = ts < 0
    base, errs = _halfline_profile(np.abs(ts), d, npow, eta, tol / 2 if full_line else tol)
    base = np.where(neg, np.conj(base), base)
    if not full_line:
        return base, errs
    sign = 1.0 if absolute else (-1.0) ** npow
    if d % 2 == 0:
        return (1.0 + sign) * base, 2.0 * errs
    return base + sign * np.conj(base), 2.0 * errs


# ---------------------------------------------------------------------------
# I(tau, phi) = int exp(i tau f) phi dx
#
# Axis polynomials other than a pure power go through one more Filon route.
# Each monotone piece of p, started at its critical end x0, is parametrized
# by s = |x - x0| and w = q(s) = |p(x) - p(x0)|, so that its integral is
#   e^{i tau p(x0)} int e^{+-i tau w} G(w) dw,   G = g(x(w)) / |p'(x(w))|,
# with g = x^power eta.  G blows up like w^{1/k - 1} at a critical point of
# order k, so the head tau w <= _HEAD_PHASE is integrated in x space; the
# rest goes to the Filon evaluator on geometric panels away from the head,
# united with uniform panels.  A decreasing piece is the conjugate of an
# increasing one, and an even p needs only [0, b].
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Segment:
    x0: float         # start of the segment: its critical end, if it has one
    direction: float  # +1 or -1: x = x0 + direction * s
    length: float     # s runs over [0, length]
    p0: float         # p(x0)
    sign: float       # sign of p(x) - p(x0) on the segment
    q: np.ndarray     # power-series coefficients of q(s) = |p(x) - p(x0)|
    rise: float       # q(length)


def _segment(p: Polynomial, x0: float, x1: float) -> _Segment:
    """The segment from x0 to x1, with q shifted to x0 exactly over Fraction."""
    X, D = Fraction(x0), 1 if x1 > x0 else -1
    c = [Fraction(0)] * (max((e for (e,) in p.terms), default=0) + 1)
    for (j,), a in p.terms.items():
        for k in range(j + 1):
            c[k] += a * comb(j, k) * X ** (j - k) * D**k
    S = abs(x1 - x0)
    sign = -1.0 if sum(ck * Fraction(S) ** k for k, ck in enumerate(c) if k) < 0 else 1.0
    q = np.array([0.0] + [sign * float(ck) for ck in c[1:]])
    return _Segment(x0, float(D), S, float(c[0]), sign, q, float(polyval(S, q)))


@lru_cache(maxsize=None)
def _axis_segments(p: Polynomial, b: float):
    """(even, segments) of p on [0, b] when p is even, else on [-b, b].

    Interior critical points are the exact real roots of p'; a piece with
    critical points at both ends is split at its midpoint.
    """
    even = all(e % 2 == 0 for (e,) in p.terms)
    dp = p.partial(1)
    crit = set() if dp.is_zero() else {r for r in real_roots(dp, -b, b) if -b < r < b}
    points = sorted({0.0 if even else -b, b} | {r for r in crit if not even or r >= 0})
    segments = []
    for u, v in zip(points, points[1:]):
        if u in crit and v in crit:
            segments += [_segment(p, u, 0.5 * (u + v)), _segment(p, v, 0.5 * (u + v))]
        elif v in crit:
            segments.append(_segment(p, v, u))
        else:
            segments.append(_segment(p, u, v))
    return even, tuple(segments)


def _invert(q: np.ndarray, w: np.ndarray, length: float) -> np.ndarray:
    """s in [0, length] with q(s) = w for increasing q: Newton safeguarded by bisection."""
    dq = q[1:] * np.arange(1, len(q))
    table = length * np.linspace(0.0, 1.0, 257) ** 2
    s = np.interp(w, np.maximum.accumulate(polyval(table, q)), table)
    lo, hi = np.zeros_like(w), np.full_like(w, length)
    for _ in range(100):
        r = polyval(s, q) - w
        lo = np.where(r < 0, s, lo)
        hi = np.where(r > 0, s, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = s - r / polyval(s, dq)
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        new = np.where(r == 0, s, new)
        step = np.max(np.abs(new - s), initial=0.0)
        s = new
        if step <= 1e-14 * length:
            break
    return s


def _axis_filon(p: Polynomial, power: int, eta: CutoffFunction, tau: float, tol: float,
                max_panels: int):
    """int_{-b}^{b} e^{i tau p(x)} x^power eta(x) dx for any p, at a cost independent of tau.

    Levels double the head and Filon panels together and stop by ``_refine``;
    the levels that fit ``max_panels`` run, and at least two must fit.  Each
    level's error is floored at ``_ROUNDOFF`` times its absolute integrand
    sum, so that levels which agree to the last bit do not read as exact.
    """
    even, segments = _axis_segments(p, eta.support_radius())
    if even and power % 2:
        return 0j, 0.0, True

    def amp(x):
        return (x**power if power else 1.0) * eta(x)

    delta = _HEAD_PHASE / tau if tau > 0 else np.inf
    heads = [seg.length if delta >= seg.rise else _invert(seg.q, np.array([delta]), seg.length)[0]
             for seg in segments]

    def grids(m):
        out = []
        for seg, head in zip(segments, heads):
            tail = None
            if delta < seg.rise:
                tail = np.union1d(delta * (seg.rise / delta) ** np.linspace(0.0, 1.0, m + 1),
                                  np.linspace(delta, seg.rise, m + 1))
            out.append((np.linspace(0.0, head, m // 3 + 1), tail))
        return out

    plans = [grids(m) for m in _LEVELS]
    counts = [sum(len(h) - 1 + (0 if t is None else len(t) - 1) for h, t in plan) for plan in plans]
    if counts[1] > max_panels:
        raise QuadratureBudgetError(f"axis grid needs {counts[1]} panels, budget is {max_panels}")

    def value(plan):
        total, size = 0j, 0.0
        for seg, (head, tail) in zip(segments, plan):
            s, wt = _composite(head, 24)
            g = amp(seg.x0 + seg.direction * s)
            part = np.dot(np.exp(1j * tau * seg.sign * polyval(s, seg.q)) * g, wt)
            size += float(np.dot(np.abs(g), wt))
            if tail is not None:

                def G(w, seg=seg):
                    s = _invert(seg.q, w, seg.length)
                    g = amp(seg.x0 + seg.direction * s)
                    slope = polyval(s, seg.q[1:] * np.arange(1, len(seg.q)))
                    # 0 where eta has underflowed, also at a critical end +-b
                    return np.divide(g, slope, out=np.zeros_like(g), where=g != 0)

                F, tail_size = _filon_integral(np.array([float(tau)]), tail, G)
                part += F[0] if seg.sign > 0 else np.conj(F[0])
                size += tail_size
            total += np.exp(1j * tau * seg.p0) * part
        return (2.0 * total, 2.0 * _ROUNDOFF * size) if even else (total, _ROUNDOFF * size)

    fits = (plan for plan, count in zip(plans, counts) if count <= max_panels)
    return _refine(map(value, fits), tol)


def _axis_integral(
    poly1d: Polynomial,
    power: int,
    eta: CutoffFunction,
    taus: np.ndarray,
    tol: float,
    max_panels: int,
):
    """[(value, err, converged)] of int e^{i tau p(x)} x^power eta(x) dx over the full line, per tau.

    A pure power is one batched profile call over all of ``taus``; any other
    axis polynomial goes through ``_axis_filon`` once per tau, because its
    head and grids depend on tau.
    """
    if len(poly1d.terms) == 1 and (0,) not in poly1d.terms:
        ((dexp,), coeff), = poly1d.terms.items()
        vals, errs = oscillatory_profile(taus * float(coeff), dexp, power, eta, tol=tol,
                                         full_line=True, absolute=False)
        return [(complex(v), float(e), bool(e <= tol)) for v, e in zip(vals, errs)]
    return [_axis_filon(poly1d, power, eta, float(tau), tol, max_panels) for tau in taus]


def _separable_series(f: Polynomial, phi: TestFunction, taus: np.ndarray, tol: float,
                      max_panels: int) -> List[OscillatorySample]:
    """Samples of a separable phase: every axis over all of ``taus``, then one product per tau."""
    polys, const = f.axis_parts()
    axes = [_axis_integral(polys[i], phi.nu[i], phi.cutoff, taus, tol / (4 * f.n), max_panels)
            for i in range(f.n)]
    samples = []
    for tau, per_axis in zip(map(float, taus), zip(*axes)):
        values, errors, flags = zip(*per_axis)
        value = np.exp(1j * tau * float(const))
        for v in values:
            value = value * v
        err = 0.0
        for i in range(f.n):
            others = 1.0
            for j in range(f.n):
                if j != i:
                    others *= abs(values[j])
            err += errors[i] * others
        samples.append(OscillatorySample(tau=tau, value=complex(value),
                                         error_estimate=float(err), converged=all(flags)))
    return samples


def _gradient_bound_1d(f: Polynomial, i: int, radius: float):
    """sup bound of |d f / d x_i| on the box [-r, r]^n as a function of |x_i|."""
    coeffs = {}
    for exp, c in f.terms.items():
        k = exp[i]
        if k == 0:
            continue
        rest = sum(exp) - k
        coeffs[k - 1] = coeffs.get(k - 1, 0.0) + abs(float(c)) * k * radius**rest

    def bound(u):
        u = np.abs(np.asarray(u, dtype=float))
        out = np.zeros_like(u)
        for p, a in coeffs.items():
            out += a * u**p
        return out

    return bound


def _sign_fold(f: Polynomial, nu) -> List[int]:
    """Axes whose grid folds onto [0, r]: the pivots of the sign flips that fix f and x^nu.

    Flipping x_i -> -x_i for every i of a set s fixes the monomial x^e when
    sum_{i in s} e_i is even, so the flips that fix every term of f and x^nu
    form a subspace of GF(2)^n; every ``CutoffFunction`` is even, so they fix
    both amplitude shapes too.  The pivots of an echelon basis of that
    subspace are the leading axes of its nonzero vectors.  Almost every point
    has exactly one image under those flips with every pivot coordinate
    positive, so the integral is 2^k times the one over that region, where k
    is the number of pivots.
    """
    exponents = list(f.terms) + [tuple(nu)]
    flips = (s for s in product((0, 1), repeat=f.n)
             if all(sum(a * e for a, e in zip(s, exp)) % 2 == 0 for exp in exponents))
    return sorted({s.index(1) for s in flips if any(s)})


def _tensor_grids(f: Polynomial, lows, radius: float, tau: float, max_panels: int):
    """Axis edges at 2, 1, 1/2 and 1/4 wavelengths per panel, budget-checked.

    Axis i runs over [lows[i], radius].  The first two levels always run, so
    both are built and checked against the panel budget by this call, before
    any level is evaluated; the finer levels are built as they are iterated.
    Where an axis gets the same phase-resolved edges as at the level before
    (at small tau the grid is floored at ``min_panels``), or fewer edges than
    its previous grid, every panel of that grid is bisected instead, so that
    no level is compared with itself or falls back to a coarser grid.
    """

    def level(wpp, prev):
        resolved, axes = [], []
        for i in range(f.n):
            dens_b = _gradient_bound_1d(f, i, radius)
            edges = phase_resolved_edges(
                lows[i], radius, lambda u: tau * dens_b(u) / (2 * pi),
                wpp=wpp, max_panels=max_panels,
            )
            resolved.append(edges)
            if prev is not None:
                prev_resolved, prev_axis = prev[0][i], prev[1][i]
                if np.array_equal(edges, prev_resolved) or len(edges) < len(prev_axis):
                    edges = np.union1d(prev_axis, 0.5 * (prev_axis[1:] + prev_axis[:-1]))
            axes.append(edges)
        total_panels = prod(len(edges) - 1 for edges in axes)
        if total_panels > max_panels:
            raise QuadratureBudgetError(
                f"tensor grid needs {total_panels} panels, budget is {max_panels}"
            )
        return resolved, axes

    def finer(grid):
        for wpp in (0.5, 0.25):
            grid = level(wpp, grid)
            yield grid[1]

    first = level(2.0, None)
    second = level(1.0, first)
    return chain((first[1], second[1]), finer(second))


def _grid_blocks(shape) -> List[tuple]:
    """Slices that cut a grid of this shape into blocks of at most ``_BLOCK_NODES`` nodes.

    The cut runs along axis d, the first axis whose trailing axes hold at
    most ``_BLOCK_NODES`` nodes: a block takes one index of every axis before
    d, a run of axis d, and all of every axis after d.  The runs are as near
    equal as the fewest blocks allow.  The blocks depend on the shape only.
    """
    d = next(k for k in range(len(shape)) if prod(shape[k + 1:]) <= _BLOCK_NODES)
    most = _BLOCK_NODES // prod(shape[d + 1:])
    run = -(-shape[d] // -(-shape[d] // most))
    tail = (slice(None),) * (len(shape) - d - 1)
    return [tuple(slice(i, i + 1) for i in head) + (slice(j, j + run),) + tail
            for head in product(*map(range, shape[:d])) for j in range(0, shape[d], run)]


def _radial_cutoff(eta: CutoffFunction, X) -> np.ndarray:
    """eta(|x|) on the open grid ``X``, bitwise equal to ``eta`` on every node.

    eta is exactly 1 for |x| <= a and exactly 0 for |x| >= b, so it is
    evaluated on the annulus a < |x| < b only.
    """
    r = np.sqrt(sum(x * x for x in X))
    out = (r <= eta.a).astype(float)
    band = (r > eta.a) & (r < eta.b)
    out[band] = eta(r[band])
    return out


def _pool():
    """The module's thread pool, one worker per usable CPU up to ``_POOL_WORKERS``,
    created on first use.

    A forked child has none of its parent's threads, so it makes its own.
    """
    global _POOL
    if _POOL is None or _POOL[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # no CPU affinity on this platform
            workers = os.cpu_count() or 1
        _POOL = (os.getpid(), ThreadPoolExecutor(max_workers=min(workers, _POOL_WORKERS)))
    return _POOL[1]


def _tensor_oscillatory(
    f: Polynomial,
    phi: TestFunction,
    taus: np.ndarray,
    tol: float,
    max_panels: int,
) -> List[OscillatorySample]:
    """Tensor-product Gauss quadrature on open grids, with a doubling error estimate, per tau.

    Fold: the axes of ``_sign_fold`` run over [0, r] in place of [-r, r],
    and the value is multiplied by 2^k, k the number of folded axes.

    Factor: f = c + sum_i p_i(x_i) + m(x), where m holds the terms that mix
    variables.  Each axis carries complex weights, its Gauss weights times
    e^{i tau p_i(x_i)} x_i^{nu_i}, times eta(x_i) for a product amplitude.
    Only e^{i tau m(x)} (one exp per node) and a radial eta(|x|) are
    evaluated on the grid, which spans the axes of m (every axis for a
    radial amplitude); every other axis contributes the sum of its weights.

    Blocks: ``_grid_blocks`` cuts the grid into blocks of at most
    ``_BLOCK_NODES`` nodes, in rows of the first axis where a row fits.  Each
    block is contracted with its slices of the axis weights, the last axis
    first, into one complex partial; the blocks run on the module's thread
    pool (numpy releases the GIL inside its loops), so at most
    ``_POOL_WORKERS`` blocks are in memory at once, and their partials are
    added in block order.  The cut depends on the grid shape only, and no
    block calls BLAS, so the result is the same bitwise on any number of
    cores.  At tau = 0 under a product amplitude nothing is on the grid, and
    the value is the product of the axis sums.

    The first two levels of every tau are built and budget-checked before any
    tau is evaluated.
    """
    radius = phi.cutoff.support_radius()
    folded = _sign_fold(f, phi.nu)
    lows = [0.0 if i in folded else -radius for i in range(f.n)]
    plans = [_tensor_grids(f, lows, radius, tau, max_panels) for tau in map(float, taus)]
    mixed = Polynomial(f.n, {e: c for e, c in f.terms.items() if sum(k > 0 for k in e) > 1})
    parts, const = (f - mixed).axis_parts()
    radial = phi.shape == "radial"
    on_grid = [i for i in range(f.n) if radial or any(e[i] for e in mixed.terms)]
    grid_phase = Polynomial(len(on_grid), {tuple(e[i] for i in on_grid): c
                                           for e, c in mixed.terms.items()})

    def evaluate(tau, axes):
        rules = [_composite(edges, 10) for edges in axes]
        weights = []
        for p, k, (x, w) in zip(parts, phi.nu, rules):
            w = w * np.exp(1j * tau * p.evaluate([x])) * (x**k if k else 1.0)
            weights.append(w if radial else w * phi.cutoff(x))
        value = 2.0 ** len(folded) * np.exp(1j * tau * float(const))
        phase = grid_phase.scale(Fraction(tau))
        if not (radial or phase.terms):
            return value * prod(np.sum(w) for w in weights)
        for i in range(f.n):
            if i not in on_grid:
                value = value * np.sum(weights[i])
        nodes = [rules[i][0] for i in on_grid]
        grid_weights = [weights[i] for i in on_grid]

        def block(cut):
            coords = [x[s] for x, s in zip(nodes, cut)]
            X = [x.reshape((-1,) + (1,) * (len(coords) - 1 - k)) for k, x in enumerate(coords)]
            grid = _radial_cutoff(phi.cutoff, X) if radial else None
            if phase.terms:
                wave = phase.evaluate(X) * 1j
                np.exp(wave, out=wave)
                grid = wave if grid is None else wave * grid
            for w, s in zip(reversed(grid_weights), reversed(cut)):
                grid = np.einsum("...j,j->...", grid, w[s])
            return grid

        total = 0j
        for partial in _pool().map(block, _grid_blocks([len(x) for x in nodes])):
            total += partial
        return value * total

    samples = []
    for tau, plan in zip(map(float, taus), plans):
        v, e, conv = _refine(((evaluate(tau, axes), 0.0) for axes in plan), tol)
        samples.append(OscillatorySample(tau, complex(v), float(e), conv))
    return samples


def _route(f: Polynomial, phi: TestFunction, taus: np.ndarray, tol: float) -> str:
    """Check the arguments; return the route: "separable", "radial" or "tensor"."""
    if f.n != phi.n:
        raise ValueError("phase and amplitude dimensions differ")
    if np.any(taus < 0) or tol <= 0:
        raise ValueError("require tau >= 0 and tol > 0")
    # CutoffFunction is even, so in n = 1 a radial amplitude is the product one
    if f.axis_parts() is not None and (phi.shape == "product" or f.n == 1):
        return "separable"
    if f.n == 2 and phi.shape == "radial" and f.terms and (f.homogeneous_degree() or 0) >= 1:
        return "radial"
    if f.n > 3:
        raise ValueError("the tensor route supports n <= 3; only separable phases "
                         "with a product amplitude are evaluated in n >= 4")
    return "tensor"


def eval_oscillatory(
    f: Polynomial,
    phi: TestFunction,
    tau: float,
    tol: float = 1e-8,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> OscillatorySample:
    """I(tau, phi) = int exp(i tau f(x)) phi(x) dx over the support of phi.

    The routes are tried in this order:

    1. separable: an additively separable phase with a product-shape
       amplitude, or any phase in n = 1, factors into one-dimensional axis
       integrals on Filon routes whose cost does not grow with tau (pure
       powers through the profile evaluator, any other axis polynomial
       through its monotone pieces);
    2. radial: a homogeneous phase of degree >= 1 in n = 2 with a radial
       amplitude goes to ``radial_reduce``.  ``max_panels`` does not apply
       on this route, and a sample it does not converge is returned as
       such, never retried on the tensor grid;
    3. tensor: everything else in n <= 3 goes through tensor-product
       quadrature with a panel-doubling error estimate, on grids folded by
       the sign symmetries of f and the amplitude monomial.

    Only the separable route takes n >= 4; any other phase there raises
    ``ValueError`` before any grid work.
    """
    return eval_oscillatory_series(f, phi, [tau], tol, max_panels)[0]


def eval_oscillatory_series(
    f: Polynomial,
    phi: TestFunction,
    taus,
    tol: float = 1e-8,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> List[OscillatorySample]:
    """``eval_oscillatory`` at every tau of ``taus``, in order.

    The arguments are checked before any work.  The routes are those of
    ``eval_oscillatory``, tried in the same order.  On the separable route
    each pure-power axis is one batched profile call over all taus, refined
    until the largest error of the batch meets the axis tolerance; so a tau
    may run one level finer than it would alone.  Each sample is converged
    when its own axis errors meet that tolerance.  On the tensor route the
    panel budget of the first two levels is checked for every tau before any
    tau is evaluated; the radial and tensor routes then run tau by tau.
    """
    taus = np.asarray(taus, dtype=float).reshape(-1)
    route = _route(f, phi, taus, tol)
    if route == "separable":
        return _separable_series(f, phi, taus, tol, max_panels)
    if route == "radial":
        return [radial_reduce(f, phi, tau, tol) for tau in map(float, taus)]
    return _tensor_oscillatory(f, phi, taus, tol, max_panels)


# ---------------------------------------------------------------------------
# Radial reduction for homogeneous phases and radial amplitudes
# ---------------------------------------------------------------------------


def radial_reduce(
    f: Polynomial,
    phi: TestFunction,
    tau: float,
    tol: float = 1e-8,
) -> OscillatorySample:
    """I(tau, phi) for homogeneous f and radial phi via the sphere x profile split.

    Writes the integral as int_{S^{n-1}} omega^nu R(tau h(omega)) dsigma with
    R(t) = int_0^inf exp(i t r^d) r^{n-1+|nu|} eta(r) dr and h = f restricted
    to the unit sphere.  In n = 2 a circle on which h has no zero takes
    periodic trapezoid levels.  Otherwise the circle is cut at the exact zeros
    of h (``poly.circle_zeros``), next to which R(tau h) changes on a scale
    that shrinks with tau.  Each arc is split at its midpoint, and each half,
    of length L, is graded geometrically toward its zero and united with
    uniform panels; the innermost panel, L / ((1 + tau) m), shrinks with the
    level m.  In n = 3 the sphere takes product Gauss x trapezoid levels.
    Every level is one batched profile call, with inner error sum |w| perr,
    and the levels stop by ``_refine``.
    """
    d = f.homogeneous_degree()
    if d is None:
        raise ValueError("radial reduction requires a homogeneous phase")
    if phi.shape != "radial":
        raise ValueError("radial reduction requires a radial amplitude")
    n = f.n
    if n not in (2, 3):
        raise ValueError("radial reduction supports n in {2, 3}")
    eta = phi.cutoff
    npow = n - 1 + sum(phi.nu)
    prof_tol = tol / (8 * pi)

    if n == 2:
        def integrand(theta):
            """Profiles at tau h(theta) times the amplitude monomial, and their errors."""
            c, s = np.cos(theta), np.sin(theta)
            vals, perr = oscillatory_profile(tau * f.evaluate([c, s]), d, npow, eta, tol=prof_tol)
            return vals * (c ** phi.nu[0] * s ** phi.nu[1]), perr

        zeros = circle_zeros(f)
        if not zeros:
            def circle_level(m):
                vals, perr = integrand(np.linspace(0.0, 2 * pi, m, endpoint=False))
                step = 2 * pi / m
                return step * np.sum(vals), step * float(np.sum(perr))

            levels = map(circle_level, (64, 128, 256, 512, 1024, 2048))
        else:
            arcs = list(zip(zeros, zeros[1:] + [zeros[0] + 2 * pi]))

            def arc_level(m):
                rules = []
                for a, b in arcs:
                    half = 0.5 * (b - a)
                    inner = half / ((1.0 + tau) * m)
                    s = np.union1d(np.geomspace(inner, half, m + 1), np.linspace(0.0, half, m + 1))
                    rules.append(_composite(np.concatenate([a + s[:-1], b - s[::-1]]), 16))
                nodes, wts = (np.concatenate(part) for part in zip(*rules))
                vals, perr = integrand(nodes)
                return np.dot(vals, wts), float(np.dot(np.abs(wts), perr))

            levels = map(arc_level, (4, 8, 16, 32, 64, 128, 256))
        v, e, conv = _refine(levels, tol)
        return OscillatorySample(float(tau), complex(v), float(e), conv)

    # n == 3: product Gauss (in cos theta) x trapezoid (in phi_angle) on S^2
    def sphere_level(L):
        mu, wmu = _gl(L)
        phis = np.linspace(0.0, 2 * pi, 2 * L, endpoint=False)
        st = np.sqrt(1.0 - mu**2)
        X = st[:, None] * np.cos(phis)[None, :]
        Y = st[:, None] * np.sin(phis)[None, :]
        Z = mu[:, None] + 0.0 * X
        H = f.evaluate([X, Y, Z])
        vals, perr = oscillatory_profile(tau * H.ravel(), d, npow, eta, tol=prof_tol)
        vals = vals.reshape(H.shape)
        monoval = np.ones_like(H)
        for arr, k in zip((X, Y, Z), phi.nu):
            if k:
                monoval = monoval * arr**k
        total = (2 * pi / (2 * L)) * np.dot(wmu, np.sum(vals * monoval, axis=1))
        inner_err = (2 * pi / (2 * L)) * float(np.dot(wmu, np.sum(perr.reshape(H.shape), axis=1)))
        return total, inner_err

    v, e, conv = _refine(map(sphere_level, (16, 32, 64, 128)), tol)
    return OscillatorySample(float(tau), complex(v), float(e), conv)


# ---------------------------------------------------------------------------
# Blowup-chart integrals
# ---------------------------------------------------------------------------


def chart_parity_integral(
    d: int,
    h: Polynomial,
    theta: Callable,
    tau: float,
    tol: float = 1e-10,
    eta: Optional[CutoffFunction] = None,
    eps: float = 0.25,
) -> OscillatorySample:
    """Chart integral int int exp(i tau y^d h(v)) |y| eta(y) theta(v) dy dv, n = 2.

    The chart x = (y, y v) (or its coordinate swap) has Jacobian |y|, so the
    sum over the two charts of ``SymmetricCutoff.chart_weight`` is
    int exp(i tau f) chi dx for the pushed-down cutoff chi.  v ranges over
    |v| < 1 + eps, the support of theta.
    """
    if h.n != 1:
        raise ValueError("chart polynomial must be univariate (n = 2)")
    eta = eta or CutoffFunction(1.0, 2.0)
    lim = 1.0 + eps
    prof_tol = tol / (8 * lim)

    # the outer integrand v -> P(tau h(v)) theta(v) is smooth and barely
    # oscillatory (the profile's leading phase is constant), so fixed-order
    # Gauss with panel doubling converges fast; each level is one batched
    # profile evaluation over all outer nodes
    def level(m):
        nodes, wgts = _composite(np.linspace(-lim, lim, m + 1), 16)
        cvals = np.asarray(h.evaluate([nodes])) + np.zeros_like(nodes)
        vals, perr = oscillatory_profile(tau * cvals, d, 1, eta, tol=prof_tol, full_line=True,
                                         absolute=True)
        return complex(np.dot(vals * theta(nodes), wgts)), float(np.dot(np.abs(wgts), perr))

    v, e, conv = _refine(map(level, (8, 16, 32, 64)), tol)
    return OscillatorySample(float(tau), complex(v), float(e), conv)
