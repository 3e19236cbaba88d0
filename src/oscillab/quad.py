"""Oscillatory quadrature for e^{i tau f(x)} amplitudes.

``eval_oscillatory`` tries three routes, in this order:

1. Separable: an additively separable phase with a product amplitude, or any
   phase in n = 1, reduces to one-dimensional axis integrals at a cost that
   does not grow with tau: pure powers through the batched profile
   ``oscillatory_profile``, every other axis polynomial through a Filon-type
   rule in the substitution w = |p(x) - p(x0)| on its monotone pieces.  A
   tau series (``eval_oscillatory_series``) shares one profile call per
   pure-power axis across all of its taus.
2. Radial: a homogeneous phase of degree >= 1 in n = 2 with a radial
   amplitude reduces to a half-circle integral of the profile
   (``radial_reduce``), cut at the exact zeros of the phase by ``_cut_rule``.
3. Tensor: everything else in n <= 3 goes to tensor-product Gauss grids
   whose panels each hold a bounded number of oscillation wavelengths; the
   levels raise the Gauss order on those fixed panels.  The grid is folded
   by the sign flips x_i -> -x_i that fix f and the amplitude monomial: the
   pivot axes of those flips run over [0, r] only.
   The terms of f in one variable, and a product amplitude, factor into
   complex weights per axis, so only the mixed terms (one exp per node)
   and a radial amplitude (on the annulus where it is neither 0 nor 1) are
   evaluated on the grid.  The grid is cut into blocks of at most a fixed
   node count, which run on a thread pool with one worker per usable CPU
   (at most 15, so memory does not grow with the host) and are contracted
   without BLAS.  A tau series checks the panel budget of every tau before
   it evaluates any.

``chart_parity_integral`` sums the n = 2 blowup-chart integrals of one
phase.  It and ``radial_reduce`` are thin callers of one angular level loop,
``_angle_sum``, on ``_cut_rule`` and one ladder of levels, ``_ANGLE_LEVELS``:
each level is one profile call.  The
radial route folds the circle onto a half circle by theta -> theta + pi;
the chart sum lets charts whose h agree up to sign share one profile array,
and integrates an even h over v > 0 and doubles it.

The profile P(t) = int e^{ity^d} y^npow eta(y) dy, the inner integral of
the separable, radial and chart routes, is one entire function of t for
each (d, npow) and cutoff shape a/b (P for eta(y / s) is s^{npow+1} P(t s^d)).
``oscillatory_profile`` reads it from a table per (d, npow, a/b): Chebyshev
pieces of degree 24 below a T* that the table finds from its own builder,
and the closed form Gamma(c) e^{i pi c/2} t^{-c} / d above it.  Pieces are
built lazily, only where a call asks for them, by the Filon-type
``_halfline_profile``.  Each value carries the error of its piece.

The separable route takes any n; the other routes reject n >= 4 before
any grid work.  Every error estimate above the profile compares successive
refinement levels through one rule, ``_refine``, plus roundoff on Filon
and tensor levels.  The profile's builder ``_halfline_profile`` stops each
t by its own rule: at the first level whose |value - previous value| plus
its roundoff floor is at most 2 x that floor, or at its last level.  The
grids of ``_refine``'s levels are built only when it asks for them, and
every panel budget is ``DEFAULT_MAX_PANELS``, read at call time.
Estimates are heuristic diagnostics, not certified bounds.  All
accumulation orders are deterministic and independent of the number of
threads, so results are reproducible bitwise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product, takewhile
from math import ceil, comb, gamma, pi, prod
from typing import List

import numpy as np
from numpy.polynomial.polynomial import polyval

from .bump import CutoffFunction, SymmetricCutoff, TestFunction
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
_TENSOR_WPP = 4.0  # wavelengths per panel of the one tensor grid per tau
_TENSOR_ORDERS = (14, 20, 28, 40)  # Gauss order per panel, level by level, on that grid
_SERIES_TAIL = 1e-17  # the tensor grid's e^{i tau R} series stops below this majorant tail
_ANGLE_LEVELS = (8, 16, 32, 64, 128, 256)  # _cut_rule panels m, level by level, of _angle_sum
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


def _legendre(order: int, x: np.ndarray):
    """P_order(x) and P_order'(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, order):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, order * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _gl(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], weights to about 1e-16 absolute.

    numpy's ``leggauss`` weights are off by up to 3e-15 at 40 points, which
    put a 7e-15 error into every Filon moment below ``_MOMENT_SWITCH``.  Two
    Newton steps on P_order from its nodes, and w = 2 / ((1 - x^2) P'(x)^2),
    remove it.  Every step is odd in x, so the rule stays symmetric bitwise.
    """
    x = np.polynomial.legendre.leggauss(order)[0]
    for _ in range(2):
        p, dp = _legendre(order, x)
        x = x - p / dp
    dp = _legendre(order, x)[1]
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _rowwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b one row of a at a time, so that no row depends on the others.

    A matrix product sums a block of rows in another order than a single
    row, so its last bits would depend on the batch.
    """
    return np.matmul(a[:, None, :], b)[:, 0]


def _panel_nodes(mid: np.ndarray, half: np.ndarray, order: int):
    """Gauss-Legendre nodes and weights on the panels mid +- half, flattened."""
    x, w = _gl(order)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _composite(edges: np.ndarray, order: int):
    """Composite Gauss-Legendre nodes and weights on the panels of ``edges``, flattened."""
    lo, hi = edges[:-1], edges[1:]
    return _panel_nodes(0.5 * (hi + lo), 0.5 * (hi - lo), order)


def _cut_rule(cuts: tuple, zero: tuple, tau: float, m: int):
    """Composite 16-point Gauss rule on [cuts[0], cuts[-1]] at level m, cut at ``cuts``.

    A piece with no end that is a zero of h (``zero``) gets m uniform panels.
    Any other piece is split at its midpoint into halves of m uniform panels;
    a half at a zero, of length L, where a profile at tau h varies fastest, is
    also graded geometrically toward it down to L / ((1 + tau) m).
    """
    edges = [np.array(cuts[:1], dtype=float)]
    for a, b, za, zb in zip(cuts, cuts[1:], zero, zero[1:]):
        half = 0.5 * (b - a)
        uniform = np.linspace(0.0, half, m + 1)
        sa, sb = (np.union1d(np.geomspace(half / ((1.0 + tau) * m), half, m + 1), uniform)
                  if z else uniform for z in (za, zb))
        edges += [a + sa[1:-1], b - sb[::-1]] if za or zb else [np.linspace(a, b, m + 1)[1:]]
    return _composite(np.concatenate(edges), 16)


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


def _profile_edges(bsup: float, tmax: float, d: int, wpp: float):
    cycles = tmax * bsup**d / (2 * pi)
    m = int(ceil(cycles / wpp)) if cycles > 0 else 0
    if m > DEFAULT_MAX_PANELS:
        raise QuadratureBudgetError(
            f"profile grid needs {m} panels, budget is {DEFAULT_MAX_PANELS}"
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
            edges = _profile_edges(bsup, tmax, d, _WPP / 2**k)
            yield _profile_values(ts, d, npow, eta, edges, 16, full_line, absolute), 0.0
            if k and len(edges) - 1 >= DEFAULT_MAX_PANELS:
                return

    vals, errs, _ = _refine(levels(), tol)
    return vals, errs


# ---------------------------------------------------------------------------
# Filon-type profile (the builder of the profile table below): after u = y^d
#   P(t) = (1/d) int_0^{b^d} e^{itu} u^{c-1} eta(u^{1/d}) du,   c = (npow+1)/d,
# so its cost can be made independent of |t|: the head [0, a^d] (where
# eta = 1, and u^{c-1} is not smooth at 0 unless c is an integer) reduces to
# an incomplete-gamma-type function for every c, and the smooth remainder on
# [a^d, b^d] is integrated with Legendre interpolation per panel and exact
# oscillatory moments M_k(theta) = int_{-1}^1 e^{i theta s} P_k(s) ds
# = 2 i^k j_k(theta) (spherical Bessel).  The moments depend on a panel only
# through its half-width.  Every Filon grid is built by ``_filon_runs`` as
# runs of panels of one exact width each (a graded layer, or the uniform
# rest), so the moments are evaluated once per t for each run and contracted
# with the run's phase factors t by t (``_rowwise``), so that no value
# depends on the other t of its batch.  They are computed
# without scipy: a 40-point Gauss rule for theta <= 16, upward recurrence
# from j_0 and j_1 above it, where k < theta keeps the recurrence stable
# (DLMF 10.51.1).
# The t-independent part of each level (its runs, the Legendre coefficients
# of the integrand and its absolute integral) is cached per (d, npow, eta, m).
# ---------------------------------------------------------------------------

_FILON_ORDER = 12
_MOMENT_SWITCH = 16.0  # upward recurrence above it needs _FILON_ORDER <= 16
_MOMENT_NODES = 40
_MOMENT_BLOCK = 1 << 14  # (t, panel) pairs per block of phase factors
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
        out[small, 0::2] = _rowwise(np.cos(arg), even)
        out[small, 1::2] = 1j * _rowwise(np.sin(arg), odd)
    if not np.all(small):
        th = flat[~small]
        j = [np.sin(th) / th]
        j.append((j[0] - np.cos(th)) / th)
        for k in range(1, order - 1):
            j.append((2 * k + 1) / th * j[k] - j[k - 1])
        out[~small] = 2.0 * np.stack(j[:order], axis=1) * 1j ** np.arange(order)
    return out.reshape(theta.shape + (order,))


def _split(a: np.ndarray):
    """Veltkamp's split a = hi + lo, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _phase(ts: np.ndarray, xs: np.ndarray, xs_lo: np.ndarray) -> np.ndarray:
    """e^{i t (x + x_lo)} for every t of ``ts`` (rows) and x of ``xs`` (columns).

    The product t x is rounded once, which moves the phase by up to an ulp
    of t x: 5e-13 at t x = 5000, far above the profile's roundoff floor.
    Dekker's two-product gives that rounding error exactly, and it is put
    back into the phase, with t x_lo.
    """
    p = np.outer(ts, xs)
    (th, tl), (xh, xl) = _split(ts), _split(xs)
    err = ((np.outer(th, xh) - p) + np.outer(th, xl) + np.outer(tl, xh)) + np.outer(tl, xl)
    err += np.outer(ts, xs_lo)
    out = np.exp(1j * p)
    out *= 1.0 + 1j * err
    return out


def _filon_runs(u0: float, u1: float, m: int):
    """The panels of the Filon level m on [u0, u1], as runs (start, half width, count).

    The grid is graded geometrically from u0, where the integrand may be
    singular to the left of the grid: layers [u, 2u] of m / 12 panels each,
    up to where those panels would be as wide as the m uniform panels of
    [u0, u1]; uniform panels cover the rest.  Every panel of a run has the
    run's exact width, so the run shares one set of moments (Iserles and
    Norsett, Proc. R. Soc. A 461, 2005).
    """
    k, width = m // 12, (u1 - u0) / m
    runs = []
    while u0 < k * width and 2.0 * u0 < u1:
        runs.append((u0, 0.5 * u0 / k, k))
        u0 *= 2.0
    count = ceil((u1 - u0) / width)
    return tuple(runs) + ((u0, 0.5 * (u1 - u0) / count, count),)


def _run_panels(runs):
    """Midpoints s + (2j + 1) h of the panels of ``runs`` as mid + lo, and their half widths.

    lo is the rounding error of mid (Dekker's two-product and Knuth's
    two-sum, exact while a run has fewer than 2^25 panels).  The rounded
    midpoints leave gaps and overlaps of an ulp between panels; their sum
    over hundreds of panels put 2e-15 into profile values at t = 4e4, and
    the phase factors of mid + lo remove it.
    """
    starts, halves, counts = map(np.array, zip(*runs))
    s, h = np.repeat(starts, counts), np.repeat(halves, counts)
    k = 2.0 * (np.arange(len(s)) - np.repeat(np.cumsum(counts) - counts, counts)) + 1.0
    p = h * k
    (hh, hl), mid = _split(h), s + p
    b = mid - s
    return mid, ((hh * k - p) + hl * k) + ((s - (mid - b)) + (p - b)), h


def _filon_moment_sum(ts: np.ndarray, runs, coeffs: np.ndarray) -> np.ndarray:
    """sum over panels of h e^{itm} * sum_k coeffs[p,k] M_k(t h), over the panels of ``runs``."""
    order = coeffs.shape[1]
    mid, lo, _ = _run_panels(runs)
    widths = np.array([h for _, h, _ in runs])
    ends = np.cumsum([c for *_, c in runs])
    cols = [slice(hi - c, hi) for (*_, c), hi in zip(runs, ends)]
    out = np.empty(len(ts), dtype=complex)
    chunk = max(1, _MOMENT_BLOCK // len(mid))
    for i in range(0, len(ts), chunk):
        tc = ts[i : i + chunk]
        E = _phase(tc, mid, lo)
        # one call for every run width; h M_k(t h) is the panel's moment times its Jacobian
        M = _legendre_moments(np.outer(tc, widths), order) * widths[:, None]
        acc = np.zeros(len(tc), dtype=complex)
        for r, run in enumerate(cols):
            acc += np.sum(M[:, r] * _rowwise(E[:, run], coeffs[run]), axis=1)
        out[i : i + chunk] = acc
    return out


def _filon_coefficients(runs, gfun):
    """Legendre coefficients of g on every panel of ``runs``, and int |g| du."""
    mid, _, half = _run_panels(runs)
    nodes, weights = _panel_nodes(mid, half, _FILON_ORDER)
    g = gfun(nodes)
    coeffs = g.reshape(-1, _FILON_ORDER) @ _filon_projection(_FILON_ORDER).T
    return coeffs, float(np.dot(np.abs(g), weights))


def _oscillatory_head(ts: np.ndarray, d: int, npow: int, a: float) -> np.ndarray:
    """int_0^a e^{ity^d} y^npow dy for t >= 0, batched, for any c = (npow+1)/d > 0."""
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
        E = np.outer(ts[small], nodes**d) * 1j
        np.exp(E, out=E)
        out[small] = a * _rowwise(E, nodes**npow * w01)
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


@lru_cache(maxsize=None)
def _profile_level(d: int, npow: int, eta: CutoffFunction, m: int):
    """The t-independent part of a Filon level of the half-line profile, read-only.

    Returns the ``_filon_runs`` of level m on [a^d, b^d] in u = y^d, the
    Legendre coefficients of g(u) = u^{c-1} eta(u^{1/d}) / d on every panel
    (c = (npow+1)/d), and int |g| du.  Unless c is an integer, g is singular
    at u = 0, a^d to the left of the grid, which the runs are graded toward.
    """
    c = (npow + 1) / d
    runs = _filon_runs(eta.a**d, eta.b**d, m)
    coeffs, size = _filon_coefficients(runs, lambda u: u ** (c - 1.0) / d * eta(u ** (1.0 / d)))
    coeffs.flags.writeable = False
    return runs, coeffs, size


def _halfline_profile(ts: np.ndarray, d: int, npow: int, eta: CutoffFunction):
    """P(t) = int_0^b e^{ity^d} y^npow eta(y) dy for t >= 0, batched, with errors.

    Each t runs the Filon levels of ``_LEVELS`` until its error
    |value - previous value| + floor is at most 2 x floor, where floor is
    ``_ROUNDOFF`` times the absolute integrand sum of a level, head included,
    or until the last level has run.  This stop is not ``_refine``'s: it
    looks at each t on its own and does not take a tolerance.  No sum runs
    across t, so a value does not depend on the other t of the batch, to the
    bit.  This is the one builder of the profile table.
    """
    head = _oscillatory_head(ts, d, npow, eta.a)
    head_size = eta.a ** (npow + 1) / (npow + 1)  # int_0^a y^npow dy
    vals, errs = np.empty(len(ts), dtype=complex), np.full(len(ts), np.inf)
    todo, prev = np.arange(len(ts)), None
    for m in _LEVELS:
        if not len(todo):
            break
        runs, coeffs, size = _profile_level(d, npow, eta, m)
        value = head[todo] + _filon_moment_sum(ts[todo], runs, coeffs)
        if prev is not None:
            floor = _ROUNDOFF * (size + head_size)
            vals[todo], errs[todo] = value, np.abs(value - prev) + floor
            more = errs[todo] > 2.0 * floor
            todo, value = todo[more], value[more]
        prev = value
    return vals, errs


# ---------------------------------------------------------------------------
# The profile table.  eta(y) = eta_1(y / b) with eta_1 = CutoffFunction(a/b, 1),
# so P_eta(t) = b^{npow+1} P_1(t b^d): one table per (d, npow, a/b) serves
# every cutoff of that shape.  P_1 is an entire function of t.  On [0, T*)
# it is tabulated by Chebyshev interpolants of degree _CHEB_DEGREE on pieces
# of width _PIECE_PHASE in t (the phase t b^d that one piece spans), built
# lazily from ``_halfline_profile`` at the Chebyshev points of the pieces a
# call needs, at most _BUILD_PIECES per builder call.  For t >= T* it is
# its closed form Gamma(c) e^{i pi c/2} t^{-c} / d: the remainder comes from
# the C-infinity cutoff and decays faster than any power.  T* is found from
# the builder's own values, as far as the calls so far need it
# (``_ProfileTable._search``).  See Battles and
# Trefethen, SIAM J. Sci. Comput. 25 (2004), and Trefethen, Approximation
# Theory and Approximation Practice (2013).
# ---------------------------------------------------------------------------

_CHEB_DEGREE = 24
_PIECE_PHASE = 8.0
_BUILD_PIECES = 4
_RUNGS = 33  # T* candidates: piece edges round(2^(j/2)), j < _RUNGS
_RUNG_POINTS = 8  # t per candidate, over one beat period of the cutoff's two ends


@lru_cache(maxsize=None)
def _chebyshev_rule():
    """Chebyshev points of the first kind on [-1, 1], and the map from values there to coefficients."""
    x = np.cos(pi * (np.arange(_CHEB_DEGREE + 1) + 0.5) / (_CHEB_DEGREE + 1))
    fit = np.linalg.inv(np.polynomial.chebyshev.chebvander(x, _CHEB_DEGREE))
    x.flags.writeable = fit.flags.writeable = False
    return x, fit


def _clenshaw(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[i, k] T_k(x[i]) for every row i."""
    b1 = b2 = np.zeros(len(x), dtype=coeffs.dtype)
    for c in coeffs[:, :0:-1].T:
        b1, b2 = c + 2.0 * x * b1 - b2, b1
    return coeffs[:, 0] + x * b1 - b2


class _ProfileTable:
    """P(t) = int_0^1 e^{ity^d} y^npow eta(y) dy, eta = CutoffFunction(ratio, 1), for t >= 0.

    Each built piece carries one error: its trailing-coefficient estimate
    |c_{N-1}| + |c_N|, plus the largest builder error at its points, plus 4
    ulps of its absolute coefficient sum for the Clenshaw sum.  Past T* the
    error is the largest closed-form gap that the T* search measured, plus
    the builder's error there.
    """

    def __init__(self, d: int, npow: int, ratio: float):
        self.d, self.npow, self.c = d, npow, (npow + 1) / d
        self.eta = CutoffFunction(ratio, 1.0)
        self.pieces = np.empty(0, dtype=np.int64)  # built piece numbers, sorted
        self.coeffs = np.empty((0, _CHEB_DEGREE + 1), dtype=complex)
        self.errs = np.empty(0)
        # T* candidates: piece edges spaced by factors of about sqrt 2
        self.rungs = _PIECE_PHASE * np.array(sorted({round(2.0 ** (j / 2.0)) for j in range(_RUNGS)}))
        self.gap, self.gap_err = np.empty(0), np.empty(0)  # measured at the first rungs
        self.tstar, self.tail_err = np.inf, np.inf

    def _closed_form(self, ts):
        return gamma(self.c) * np.exp(1j * pi * self.c / 2.0) * ts ** (-self.c) / self.d

    def _search(self, tmax: float):
        """Find T*, if it is at most ``tmax``; until it is found, T* is taken as inf.

        The gap to the closed form is measured at _RUNG_POINTS t over one
        period of the beat between the two ends of the cutoff's transition,
        where |P - closed form| may dip.  T* is the first candidate at which
        that gap is within the builder's own error for three candidates in a
        row.  Candidates are measured in increasing order, only as far as
        ``tmax`` needs, in one builder call.
        """
        need = min(len(self.rungs), np.searchsorted(self.rungs, tmax, side="right") + 2)
        have = len(self.gap)
        if np.isfinite(self.tstar) or need <= have:
            return
        beat = 2.0 * pi / (1.0 - self.eta.a**self.d)
        ts = self.rungs[have:need, None] + beat * np.linspace(0.0, 1.0, _RUNG_POINTS)
        vals, errs = _halfline_profile(ts.ravel(), self.d, self.npow, self.eta)
        gap = np.abs(vals - self._closed_form(ts.ravel())).reshape(ts.shape).max(axis=1)
        self.gap = np.concatenate([self.gap, gap])
        self.gap_err = np.concatenate([self.gap_err, errs.reshape(ts.shape).max(axis=1)])
        ok = self.gap <= self.gap_err
        runs = np.flatnonzero(ok[:-2] & ok[1:-1] & ok[2:])
        if len(runs):
            last = slice(runs[0], runs[0] + 3)
            self.tstar = float(self.rungs[runs[0]])
            self.tail_err = float(np.max(self.gap[last]) + np.max(self.gap_err[last]))

    def _build(self, pieces: np.ndarray):
        """Build every piece of ``pieces`` that is not built yet."""
        missing = np.sort(pieces[~np.isin(pieces, self.pieces)])
        missing = missing[np.diff(missing, prepend=-1) > 0]  # piece numbers are >= 0
        if not len(missing):
            return
        x, fit = _chebyshev_rule()
        coeffs, errs = [self.coeffs], [self.errs]
        for i in range(0, len(missing), _BUILD_PIECES):
            ts = _PIECE_PHASE * (missing[i:i + _BUILD_PIECES, None] + 0.5 * (x + 1.0))
            vals, builder_errs = _halfline_profile(ts.ravel(), self.d, self.npow, self.eta)
            c = _rowwise(vals.reshape(ts.shape), fit.T)
            coeffs.append(c)
            errs.append(np.abs(c[:, -2:]).sum(axis=1) + builder_errs.reshape(ts.shape).max(axis=1)
                        + _ROUNDOFF * np.abs(c).sum(axis=1))
        order = np.argsort(np.concatenate([self.pieces, missing]), kind="stable")
        self.pieces = np.concatenate([self.pieces, missing])[order]
        self.coeffs, self.errs = np.concatenate(coeffs)[order], np.concatenate(errs)[order]

    def __call__(self, ts: np.ndarray):
        """Values and errors at every t >= 0 of ``ts``."""
        self._search(np.max(ts, initial=0.0))
        vals = np.empty(len(ts), dtype=complex)
        errs = np.full(len(ts), self.tail_err)
        tail = ts >= self.tstar
        vals[tail] = self._closed_form(ts[tail])
        inner = ~tail
        t = ts[inner] / _PIECE_PHASE
        k = np.floor(t).astype(np.int64)
        self._build(k)
        at = np.searchsorted(self.pieces, k)
        vals[inner] = _clenshaw(self.coeffs[at], 2.0 * (t - k) - 1.0)
        errs[inner] = self.errs[at]
        zero = ts == 0
        vals[zero] = vals[zero].real  # P(0) = int y^npow eta dy is real
        return vals, errs


@lru_cache(maxsize=None)
def _profile_table(d: int, npow: int, ratio: float) -> _ProfileTable:
    return _ProfileTable(d, npow, ratio)


def oscillatory_profile(
    ts,
    d: int,
    npow: int,
    eta: CutoffFunction,
    full_line: bool = False,
    absolute: bool = False,
):
    """Batched P(t) = int exp(i t y^d) w(y) eta(y) dy with error estimates.

    ``w`` is y^npow over [0, b]; with ``full_line`` the domain is [-b, b] and
    ``absolute`` selects |y|^npow over y^npow.  Values come from the profile
    table of (d, npow, a/b), scaled to b; negative t are handled by
    conjugation, the negative half-line by parity, so only t >= 0 half-line
    profiles are ever computed, and the full line doubles the half-line
    error.  The values do not depend on the other t of the batch.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    scale = eta.b ** (npow + 1)
    base, errs = _profile_table(d, npow, eta.a / eta.b)(np.abs(ts) * eta.b**d)
    base, errs = scale * base, scale * errs
    base = np.where(ts < 0, np.conj(base), base)
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
# rest goes to the Filon evaluator on the ``_filon_runs`` of [delta, q(length)],
# graded toward the head like the profile's grid toward a^d.  A decreasing
# piece is the conjugate of an increasing one, and an even p needs only [0, b].
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


def _is_even(p: Polynomial) -> bool:
    """True when the univariate p has only even exponents."""
    return all(e % 2 == 0 for (e,) in p.terms)


@lru_cache(maxsize=None)
def _axis_segments(p: Polynomial, b: float):
    """(even, segments) of p on [0, b] when p is even, else on [-b, b].

    Interior critical points are the exact real roots of p'; a piece with
    critical points at both ends is split at its midpoint.
    """
    even = _is_even(p)
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


def _axis_filon(p: Polynomial, power: int, eta: CutoffFunction, tau: float, tol: float):
    """int_{-b}^{b} e^{i tau p(x)} x^power eta(x) dx for any p, at a cost independent of tau.

    Levels double the head and Filon panels together and stop by ``_refine``.
    A level's grid is built when ``_refine`` asks for it, and the levels run
    while their panels fit ``DEFAULT_MAX_PANELS``; the first two must fit,
    which is checked before any level is evaluated.  Each level's error is
    floored at ``_ROUNDOFF`` times its absolute integrand sum, so that levels
    which agree to the last bit do not read as exact.
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
        # per segment: the head's m / 3 uniform panels and the tail's runs, if any
        return [(((0.0, 0.5 * head / (m // 3), m // 3),),
                 _filon_runs(delta, seg.rise, m) if delta < seg.rise else ())
                for seg, head in zip(segments, heads)]

    def panels(plan):
        return sum(count for runs in chain.from_iterable(plan) for *_, count in runs)

    plans = map(grids, _LEVELS)  # each built when ``_refine`` asks for its level
    first, second = next(plans), next(plans)
    if panels(second) > DEFAULT_MAX_PANELS:
        raise QuadratureBudgetError(
            f"axis grid needs {panels(second)} panels, budget is {DEFAULT_MAX_PANELS}")

    def value(plan):
        total, size = 0j, 0.0
        for seg, (head, tail) in zip(segments, plan):
            mid, _, half = _run_panels(head)
            s, wt = _panel_nodes(mid, half, 24)
            g = amp(seg.x0 + seg.direction * s)
            part = np.dot(np.exp(1j * tau * seg.sign * polyval(s, seg.q)) * g, wt)
            size += float(np.dot(np.abs(g), wt))
            if tail:

                def G(w, seg=seg):
                    s = _invert(seg.q, w, seg.length)
                    g = amp(seg.x0 + seg.direction * s)
                    slope = polyval(s, seg.q[1:] * np.arange(1, len(seg.q)))
                    # 0 where eta has underflowed, also at a critical end +-b
                    return np.divide(g, slope, out=np.zeros_like(g), where=g != 0)

                coeffs, tail_size = _filon_coefficients(tail, G)
                F = _filon_moment_sum(np.array([float(tau)]), tail, coeffs)[0]
                part += F if seg.sign > 0 else np.conj(F)
                size += tail_size
            total += np.exp(1j * tau * seg.p0) * part
        return (2.0 * total, 2.0 * _ROUNDOFF * size) if even else (total, _ROUNDOFF * size)

    fits = takewhile(lambda plan: panels(plan) <= DEFAULT_MAX_PANELS, chain((first, second), plans))
    return _refine(map(value, fits), tol)


def _axis_integral(poly1d: Polynomial, power: int, eta: CutoffFunction, taus: np.ndarray,
                   tol: float):
    """[(value, err, converged)] of int e^{i tau p(x)} x^power eta(x) dx over the full line, per tau.

    A pure power is one batched profile call over all of ``taus``; any other
    axis polynomial goes through ``_axis_filon`` once per tau, because its
    head and grids depend on tau.
    """
    if len(poly1d.terms) == 1 and (0,) not in poly1d.terms:
        ((dexp,), coeff), = poly1d.terms.items()
        vals, errs = oscillatory_profile(taus * float(coeff), dexp, power, eta,
                                         full_line=True, absolute=False)
        return [(complex(v), float(e), bool(e <= tol)) for v, e in zip(vals, errs)]
    return [_axis_filon(poly1d, power, eta, float(tau), tol) for tau in taus]


def _separable_series(f: Polynomial, phi: TestFunction, taus: np.ndarray,
                      tol: float) -> List[OscillatorySample]:
    """Samples of a separable phase: every axis over all of ``taus``, then one product per tau."""
    polys, const = f.axis_parts()
    axes = [_axis_integral(polys[i], phi.nu[i], phi.cutoff, taus, tol / (4 * f.n))
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


def _tensor_grids(f: Polynomial, lows, radius: float, tau: float):
    """Axis edges at ``_TENSOR_WPP`` wavelengths per panel, one array per axis.

    Axis i runs over [lows[i], radius].  Its cycle count is the trapezoid
    integral, on 2049 points, of tau / (2 pi) times ``_gradient_bound_1d``,
    an upper bound on the phase's slope along the axis.  The edges split
    that count evenly, into at least 8 panels, none wider than 1/8 of the
    axis.  Every order of ``_TENSOR_ORDERS`` runs on these edges.

    The budget ``DEFAULT_MAX_PANELS`` counts the panels the grid would have
    at 1 wavelength per panel, from the same cycle count.  An axis past it
    alone raises ``QuadratureBudgetError`` before any edges are made, and
    the grid past it raises before the grid's own edges are made.
    """
    budget, axes = DEFAULT_MAX_PANELS, []
    for i, low in enumerate(lows):
        x = np.linspace(low, radius, 2049)
        dens = tau * _gradient_bound_1d(f, i, radius)(x) / (2 * pi)
        cycles = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(x))])
        if ceil(cycles[-1]) > budget:
            raise QuadratureBudgetError(
                f"oscillation-resolved grid needs {ceil(cycles[-1])} panels, budget is {budget}")
        axes.append((low, x, cycles))

    def edges(low, x, cycles, wpp):
        uniform = np.linspace(low, radius, 9)
        if cycles[-1] == 0:
            return uniform
        m = max(ceil(cycles[-1] / wpp), 8)
        return np.union1d(np.interp(np.linspace(0.0, cycles[-1], m + 1), cycles, x), uniform)

    total_panels = prod(len(edges(*axis, 1.0)) - 1 for axis in axes)
    if total_panels > budget:
        raise QuadratureBudgetError(f"tensor grid needs {total_panels} panels, budget is {budget}")
    return [edges(*axis, _TENSOR_WPP) for axis in axes]


def _grid_blocks(shape, arrays: int = 1) -> List[tuple]:
    """Slices that cut a grid of this shape into blocks whose ``arrays`` arrays of
    the block's size together hold at most ``_BLOCK_NODES`` entries.

    The cut runs along axis d, the first axis whose trailing axes fit in a
    block: a block takes one index of every axis before d, a run of axis d,
    and all of every axis after d.  The runs are as near equal as the fewest
    blocks allow.  The blocks depend on the shape and ``arrays`` only.
    """
    bound = _BLOCK_NODES // arrays
    d = next(k for k in range(len(shape)) if prod(shape[k + 1:]) <= bound)
    most = bound // prod(shape[d + 1:])
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


def _series_order(bounds):
    """(D, tail): where to cut e^{i g(u)}, g(u) = sum_b g_b u^b with |g_b| <= bounds[b - 1].

    The coefficients of e^{i g} = sum_t E_t u^t obey t E_t = i sum_b b g_b
    E_{t-b}, E_0 = 1; the same recurrence on the bounds, without the i, gives
    M_t >= |E_t|.  Once q = sigma / (D + 1) < 1, sigma = sum_b b bounds[b - 1],
    each run of B = len(bounds) coefficients past D is at most q times the
    largest of the run before, so on |u| <= 1 the tail past u^D is at most
    B q / (1 - q) max(M_{D-B+1}, ..., M_D).  D is the first t where that
    bound is below ``_SERIES_TAIL``; the bound is returned with it.
    """
    sigma = sum(b * g for b, g in enumerate(bounds, 1))
    m = [1.0]
    while True:
        t = len(m) - 1
        q = sigma / (t + 1)
        if q < 1.0:
            tail = len(bounds) * max(m[-len(bounds):]) * q / (1.0 - q)
            if tail < _SERIES_TAIL:
                return t, tail
        m.append(sum(b * g * m[t + 1 - b] for b, g in enumerate(bounds, 1) if b <= t + 1) / (t + 1))


def _separated_sum(phase: Polynomial, edges, order: int, weights):
    """sum_x e^{i phase(x)} prod_i weights[i](x_i) on the composite Gauss grid of ``edges``
    at ``order``, with e^{i phase} exponentiated per panel row and column, not per node.

    Split: u is the last axis, with panels c_p +- h_p and x_u = c_p + h_p u;
    the other axes x' are cut into panel boxes with centres c'.  On one box
    and one u panel,
        phase(x', x_u) = phase(x', c_p) + [phase(c', x_u) - phase(c', c_p)] + R,
        R = sum_{b=1..B} g_b u^b,  g_b = h_p^b [D_b(x', c_p) - D_b(c', c_p)],
    with D_b = d_u^b phase / b! and B the degree of phase in u.  e^{iR} =
    sum_t E_t u^t by the recurrence of ``_series_order``, cut at its D, so
        sum = sum_{box, p} sum_{t <= D} A_t B_t,
        A_t = sum_{x' in box} W'(x') e^{i phase(x', c_p)} E_t(x', p),
        B_t = sum_k w_u(x_k) e^{i [phase(c', x_k) - phase(c', c_p)]} u_k^t,
    W' the product of the x' weights and x_k the nodes of panel p.  That is
    one exp per (x' node, u panel) and one per (box, u node), a factor of
    the order fewer than one per node.  The row array W' e^{i phase(x', c_p)}
    E_t follows the recurrence of E_t itself; each t is summed over the
    nodes of its boxes and multiplied by B_t.  All B_t of a block come from
    one matrix product of the columns with u_k^t.

    Blocks: ``_grid_blocks`` cuts the row arrays, of shape (x' panels, u
    panels, x' nodes), so that the 2B + 3 arrays of a block's size that it
    holds at once (the new row, its B predecessors,
    the B coefficient arrays b g_b, one product and the box sums) stay
    within ``_BLOCK_NODES`` entries.  The blocks depend on the grid shape
    and B only, each block's matrix product has a shape the block fixes,
    and the partials are added in block order, so the sum is the same
    bitwise on any number of workers.  Returns (sum, tail): tail is the
    largest series tail of a block, so |sum - exact grid sum| <= tail
    prod_i sum |weights[i]|.
    """
    degree = max(e[-1] for e in phase.terms)
    derivatives, d = [], phase
    for b in range(1, degree + 1):
        d = d.partial(len(edges)).scale(Fraction(1, b))
        derivatives.append(d)
    u, _ = _gl(order)
    mids = [0.5 * (e[1:] + e[:-1]) for e in edges]
    halves = [0.5 * (e[1:] - e[:-1]) for e in edges]
    nodes = [m[:, None] + h[:, None] * u for m, h in zip(mids, halves)]  # as ``_composite``
    weights = [w.reshape(-1, order) for w in weights]
    rows = len(edges) - 1
    dims = 2 * rows + 1  # the panel axes, u's last, then the node axes of x'
    node_axes = tuple(range(rows + 1, dims))

    def on(a, axes, ndim=dims):
        """``a`` on the given axes, in order, of an ndim-axis block array."""
        shape = [1] * ndim
        for axis, k in zip(axes, a.shape):
            shape[axis] = k
        return a.reshape(shape)

    def block(cut):
        X = [on(nodes[j][cut[j], cut[rows + 1 + j]], (j, rows + 1 + j)) for j in range(rows)]
        C = [on(mids[j][cut[j]], (j,)) for j in range(rows)]
        c, h = on(mids[-1][cut[rows]], (rows,)), on(halves[-1][cut[rows]], (rows,))
        # coefficients b g_b of the recurrence, real, and their bounds
        s = [b * h**b * (d.evaluate(X + [c]) - d.evaluate(C + [c]))
             for b, d in enumerate(derivatives, 1)]
        D, tail = _series_order([float(np.max(np.abs(x), initial=0.0)) / b
                                 for b, x in enumerate(s, 1)])
        # columns: one exp per (box, u node), times u_k^t in one matrix product
        C = [x[..., None] for x in C]
        col = (phase.evaluate(C + [on(nodes[-1][cut[rows]], (rows, dims), dims + 1)])
               - phase.evaluate(C + [c[..., None]])) * 1j
        np.exp(col, out=col)
        col *= on(weights[-1][cut[rows]], (rows, dims), dims + 1)
        cols = (col.reshape(-1, order) @ (u[:, None] ** np.arange(D + 1))).reshape(
            col.shape[:-1] + (D + 1,))
        # rows: one exp per (x' node, u panel), then the series, each term
        # summed over the box nodes, which are the block's last axes
        row = phase.evaluate(X + [c]) * 1j
        np.exp(row, out=row)
        for j in range(rows):
            row *= on(weights[j][cut[j], cut[rows + 1 + j]], (j, rows + 1 + j))
        acc = np.sum(row, axis=node_axes, keepdims=True) * cols[..., 0]
        runs = [row]
        for t in range(1, D + 1):
            row = s[0] * runs[-1]
            for b in range(2, min(t, degree) + 1):
                row += s[b - 1] * runs[-b]
            row *= 1j / t
            runs = (runs + [row])[-degree:]
            acc += np.sum(row, axis=node_axes, keepdims=True) * cols[..., t]
        return complex(np.sum(acc)), tail

    shape = [len(m) for m in mids] + [order] * rows
    total, tail = 0j, 0.0
    for partial, t in _pool().map(block, _grid_blocks(shape, 2 * degree + 3)):
        total += partial
        tail = max(tail, t)
    return total, tail


def _tensor_oscillatory(
    f: Polynomial,
    phi: TestFunction,
    taus: np.ndarray,
    tol: float,
) -> List[OscillatorySample]:
    """Tensor-product Gauss quadrature on open grids, refined in order on fixed panels, per tau.

    Levels: each tau gets one grid of panels (``_tensor_grids``), and level k
    puts ``_TENSOR_ORDERS[k]`` Gauss nodes on every panel of it.  On an
    analytic integrand Gauss converges faster in the order than in the panel
    width, and two orders on the same panels always differ, so the estimate
    |v_k - v_{k-1}| always measures something.  Each level adds the roundoff
    floor ``_ROUNDOFF`` 2^k prod_i sum |w_i| (w_i the axis weights below):
    |e^{i theta}| = 1 and |eta| <= 1 on every node.

    Fold: the axes of ``_sign_fold`` run over [0, r] in place of [-r, r],
    and the value is multiplied by 2^k, k the number of folded axes.

    Factor: f = c + sum_i p_i(x_i) + m(x), where m holds the terms that mix
    variables.  Each axis carries complex weights, its Gauss weights times
    e^{i tau p_i(x_i)} x_i^{nu_i}, times eta(x_i) for a product amplitude.
    Only e^{i tau m(x)} and a radial eta(|x|) are evaluated on the grid,
    which spans the axes of m (every axis for a radial amplitude); every
    other axis contributes the sum of its weights.  Under a product
    amplitude ``_separated_sum`` splits tau m at the panel centres of the
    last grid axis and of the boxes of the others, which takes one exp per
    (row node, panel) and per (box, column node) in place of one per node;
    its series tail times 2^k prod_i sum |w_i| joins the level's floor.  A
    radial eta(|x|) does not split, so that grid takes one exp per node.

    Blocks: ``_grid_blocks`` cuts the grid into blocks of at most
    ``_BLOCK_NODES`` nodes, in rows of the first axis where a row fits (the
    separated sum cuts its row arrays the same way, into blocks of a
    fraction of that size).  Each node-wise block is contracted with its
    slices of the axis weights, the last axis first, into one complex
    partial; the blocks run on the module's thread pool (numpy releases the
    GIL inside its loops), so at most ``_POOL_WORKERS`` blocks are in memory
    at once, and their partials are added in block order.  The cut depends
    on the grid shape only, so the result is the same bitwise on any number
    of workers.  At tau = 0 under a product amplitude nothing is on the
    grid, and the value is the product of the axis sums.

    The grid of every tau is built, and its budget checked at 1 wavelength
    per panel, before any tau is evaluated.
    """
    radius = phi.cutoff.support_radius()
    folded = _sign_fold(f, phi.nu)
    lows = [0.0 if i in folded else -radius for i in range(f.n)]
    plans = [_tensor_grids(f, lows, radius, tau) for tau in map(float, taus)]
    mixed = Polynomial(f.n, {e: c for e, c in f.terms.items() if sum(k > 0 for k in e) > 1})
    parts, const = (f - mixed).axis_parts()
    radial = phi.shape == "radial"
    on_grid = [i for i in range(f.n) if radial or any(e[i] for e in mixed.terms)]
    grid_phase = Polynomial(len(on_grid), {tuple(e[i] for i in on_grid): c
                                           for e, c in mixed.terms.items()})

    def evaluate(tau, axes, order):
        rules = [_composite(edges, order) for edges in axes]
        weights = []
        for p, k, (x, w) in zip(parts, phi.nu, rules):
            w = w * np.exp(1j * tau * p.evaluate([x])) * (x**k if k else 1.0)
            weights.append(w if radial else w * phi.cutoff(x))
        fold = 2.0 ** len(folded)
        mass = fold * prod(np.sum(np.abs(w)) for w in weights)
        value = fold * np.exp(1j * tau * float(const))
        phase = grid_phase.scale(Fraction(tau))
        if not (radial or phase.terms):
            return value * prod(np.sum(w) for w in weights), _ROUNDOFF * mass
        for i in range(f.n):
            if i not in on_grid:
                value = value * np.sum(weights[i])
        grid_weights = [weights[i] for i in on_grid]
        if not radial:
            total, tail = _separated_sum(phase, [axes[i] for i in on_grid], order, grid_weights)
            return value * total, (_ROUNDOFF + tail) * mass
        nodes = [rules[i][0] for i in on_grid]

        def block(cut):
            coords = [x[s] for x, s in zip(nodes, cut)]
            X = [x.reshape((-1,) + (1,) * (len(coords) - 1 - k)) for k, x in enumerate(coords)]
            grid = _radial_cutoff(phi.cutoff, X)
            if phase.terms:
                wave = phase.evaluate(X) * 1j
                np.exp(wave, out=wave)
                grid = wave * grid
            for w, s in zip(reversed(grid_weights), reversed(cut)):
                grid = np.einsum("...j,j->...", grid, w[s])
            return grid

        total = 0j
        for partial in _pool().map(block, _grid_blocks([len(x) for x in nodes])):
            total += partial
        return value * total, _ROUNDOFF * mass

    samples = []
    for tau, axes in zip(map(float, taus), plans):
        v, e, conv = _refine((evaluate(tau, axes, order) for order in _TENSOR_ORDERS), tol)
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
) -> OscillatorySample:
    """I(tau, phi) = int exp(i tau f(x)) phi(x) dx over the support of phi.

    The routes are tried in this order:

    1. separable: an additively separable phase with a product-shape
       amplitude, or any phase in n = 1, factors into one-dimensional axis
       integrals on Filon routes whose cost does not grow with tau (pure
       powers through the profile evaluator, any other axis polynomial
       through its monotone pieces);
    2. radial: a homogeneous phase of degree >= 1 in n = 2 with a radial
       amplitude goes to ``radial_reduce``.  No panel budget applies on
       this route, and a sample it does not converge is returned as such,
       never retried on the tensor grid;
    3. tensor: everything else in n <= 3 goes through tensor-product
       quadrature on one phase-resolved grid per tau, folded by the sign
       symmetries of f and the amplitude monomial.  Under a product
       amplitude the mixed part of f is split at panel centres, so its
       exponentials are taken per panel row and column, not per node; a
       radial amplitude takes one per node.  The error estimate compares
       Gauss orders on those fixed panels, plus a roundoff floor and the
       split's series tail.
       ``DEFAULT_MAX_PANELS`` bounds the panels the grid would have at 1
       wavelength per panel.  The separable route bounds the panels of each
       non-power axis by the same constant.

    Only the separable route takes n >= 4; any other phase there raises
    ``ValueError`` before any grid work.
    """
    return eval_oscillatory_series(f, phi, [tau], tol)[0]


def eval_oscillatory_series(
    f: Polynomial,
    phi: TestFunction,
    taus,
    tol: float = 1e-8,
) -> List[OscillatorySample]:
    """``eval_oscillatory`` at every tau of ``taus``, in order.

    The arguments are checked before any work.  The routes are those of
    ``eval_oscillatory``, tried in the same order.  On the separable route
    each pure-power axis is one batched profile call over all taus; each
    profile value and its error come from the profile table alone, so a
    sample is the same as it would be alone.  Each sample is converged when
    its own axis errors meet the axis tolerance.  On the tensor route the
    panel budget is checked for every tau before any tau is evaluated; the
    radial and tensor routes then run tau by tau.
    """
    taus = np.asarray(taus, dtype=float).reshape(-1)
    route = _route(f, phi, taus, tol)
    if route == "separable":
        return _separable_series(f, phi, taus, tol)
    if route == "radial":
        return [radial_reduce(f, phi, tau, tol) for tau in map(float, taus)]
    return _tensor_oscillatory(f, phi, taus, tol)


# ---------------------------------------------------------------------------
# n = 2 angular integrals: the circle of the radial reduction and the
# coordinate v of the blowup charts, both on ``_cut_rule``
# ---------------------------------------------------------------------------


def _angle_sum(groups, profile, tau: float, tol: float) -> OscillatorySample:
    """Sum over ``groups`` of int P(tau h(x)) w(x) dx, one ``profile`` call per level.

    The levels are m of ``_ANGLE_LEVELS``, for every caller.  A group is
    (h, rule, terms): h maps nodes to phase values, rule(m) gives the nodes
    and weights of level m, and each term (weight, conjugate,
    factor) adds factor * sum_i w_i weight(x_i) P_i, with conj P_i when
    ``conjugate``.  The profile of all groups' nodes at tau h is one
    ``profile(ts)`` call, which returns values and errors.  A group's error is
    sum |factor| x sum_i |w_i| perr_i, and the levels stop by ``_refine``.
    """

    def level(m):
        rules = [rule(m) for _, rule, _ in groups]
        ts = np.concatenate([tau * h(nodes) for (h, _, _), (nodes, _) in zip(groups, rules)])
        vals, perr = profile(ts)
        value, err, start = 0j, 0.0, 0
        for (_, _, terms), (nodes, wgts) in zip(groups, rules):
            v, e = vals[start:start + len(nodes)], perr[start:start + len(nodes)]
            start += len(nodes)
            spread = float(np.dot(np.abs(wgts), e))
            for weight, conj, factor in terms:
                value += factor * complex(np.dot((np.conj(v) if conj else v) * weight(nodes), wgts))
                err += abs(factor) * spread
        return value, err

    v, e, conv = _refine(map(level, _ANGLE_LEVELS), tol)
    return OscillatorySample(float(tau), complex(v), float(e), conv)


def radial_reduce(
    f: Polynomial,
    phi: TestFunction,
    tau: float,
    tol: float = 1e-8,
) -> OscillatorySample:
    """I(tau, phi) for a homogeneous f and a radial phi in n = 2, as a half-circle integral.

    Writes the integral as int_0^{2 pi} omega^nu R(tau h(theta)) dtheta with
    omega = (cos theta, sin theta), R(t) = int_0^inf exp(i t r^d) r^{1+|nu|}
    eta(r) dr and h = f(omega).  theta -> theta + pi maps h to (-1)^d h and
    omega^nu to (-1)^|nu| omega^nu, and R(-t) = conj R(t), so the circle is
    one half circle [z0, z0 + pi) counted twice: once as it is, once times
    (-1)^|nu| and conjugated when d is odd.  The half circle is cut at the
    exact zeros of h in [0, pi) (``poly.circle_zeros``), or is (0, pi) when h
    has none, and runs on ``_cut_rule`` through ``_angle_sum``, on the
    levels of ``_ANGLE_LEVELS``.
    """
    d = f.homogeneous_degree()
    if d is None:
        raise ValueError("radial reduction requires a homogeneous phase")
    if phi.shape != "radial":
        raise ValueError("radial reduction requires a radial amplitude")
    if f.n != 2:
        raise ValueError("radial reduction supports n = 2 only")
    npow = 1 + sum(phi.nu)
    zeros = tuple(z for z in circle_zeros(f) if z < pi)
    cuts, zero = ((zeros + (zeros[0] + pi,), (True,) * (len(zeros) + 1)) if zeros
                  else ((0.0, pi), (False, False)))

    def weight(theta):
        return np.cos(theta) ** phi.nu[0] * np.sin(theta) ** phi.nu[1]

    group = (lambda theta: f.evaluate([np.cos(theta), np.sin(theta)]),
             lambda m: _cut_rule(cuts, zero, tau, m),
             ((weight, False, 1), (weight, d % 2 == 1, (-1) ** sum(phi.nu))))
    return _angle_sum([group], lambda ts: oscillatory_profile(ts, d, npow, phi.cutoff),
                      tau, tol)


# ---------------------------------------------------------------------------
# Blowup-chart integrals
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _chart_cuts(h: Polynomial, lim: float):
    """Cuts of [-lim, lim] at the real zeros of h inside it, and which cuts are zeros.

    An even h gets the mirror image of its positive zeros, so that its rule
    is symmetric about 0.
    """
    roots = tuple(r for r in real_roots(h, -lim, lim) if -lim < r < lim)
    if _is_even(h):
        pos = tuple(r for r in roots if r > 0)
        roots = tuple(-r for r in reversed(pos)) + tuple(r for r in roots if r == 0) + pos
    return (-lim,) + roots + (lim,), (False,) + (True,) * len(roots) + (False,)


def chart_parity_integral(charts, sc: SymmetricCutoff, tau: float,
                          tol: float = 1e-10) -> OscillatorySample:
    """Sum over ``charts`` of int int exp(i tau y^d h(v)) |y| eta(y) theta(v) dy dv, n = 2.

    h, d and theta are a chart's ``h``, its multiplicity and
    ``sc.chart_weight`` of its index; eta is ``sc.eta``.  The chart
    x = (y, y v) (or its swap) has Jacobian |y|, so the two
    ``rlct.blowup_charts`` of f sum to int exp(i tau f) chi dx, chi = ``sc``.
    v ranges over |v| < 1 + eps, the support of theta, on ``_cut_rule``.

    The inner y integral is the profile P(tau h(v)).  Charts whose h agree up
    to sign form one group of ``_angle_sum`` and share one profile array: the
    real weight |y| eta gives P(-t) = conj P(t).  An even h, with the even
    theta, takes the v > 0 half of its symmetric rule, doubled.  The levels
    are those of ``_ANGLE_LEVELS``, each one profile call for all groups.
    """
    charts = list(charts)
    if not charts or any(ch.h.n != 1 for ch in charts):
        raise ValueError("charts must be univariate (n = 2), at least one")
    d = charts[0].f_multiplicity
    if any(ch.f_multiplicity != d for ch in charts):
        raise ValueError("charts must share the multiplicity d of their phase")
    lim = 1.0 + sc.eps
    members = {}  # h -> [(theta, conjugate)] of the charts with h or -h
    for ch in charts:
        h, conj = (-ch.h, True) if ch.h not in members and -ch.h in members else (ch.h, False)
        members.setdefault(h, []).append((sc.chart_weight(ch.index), conj))

    def group(h, terms):
        even = _is_even(h)

        def rule(m):
            nodes, wgts = _cut_rule(*_chart_cuts(h, lim), tau, m)
            return (nodes[nodes > 0], wgts[nodes > 0]) if even else (nodes, wgts)

        return (lambda v: np.asarray(h.evaluate([v])) + np.zeros_like(v), rule,
                [(theta, conj, 2.0 if even else 1.0) for theta, conj in terms])

    return _angle_sum([group(h, terms) for h, terms in members.items()],
                      lambda ts: oscillatory_profile(ts, d, 1, sc.eta, full_line=True,
                                                     absolute=True),
                      tau, tol)
