"""The profile table behind ``oscillatory_profile``: calibration and laziness.

The oracle shares no code with the table or its Filon builder: it is a
20-digit mpmath Gauss-Legendre sum in u = y^d on [a^d, b^d], graded toward
a^d, plus the head int_0^{a^d} as an mpmath incomplete gamma function, all in
the cutoff's own scale.
"""

from functools import lru_cache

import numpy as np
import pytest

from oscillab import quad
from oscillab.bump import CutoffFunction, make_cutoff
from oscillab.quad import oscillatory_profile

mp = pytest.importorskip("mpmath").mp

GRID = [(2, 0), (2, 1), (2, 2), (3, 1), (4, 0), (4, 1), (6, 1)]
CUTOFFS = [(1.0, 2.0), (0.9, 1.0)]
ETA_WIDE = make_cutoff(0.7, 1.3)
NODES = 24


@lru_cache(maxsize=None)
def _gauss():
    with mp.workdps(20):
        return mp.gauss_quadrature(NODES, "legendre")


@lru_cache(maxsize=None)
def _oracle_rule(d, npow, a, b, tmax):
    """Panels in u = y^d on [a^d, b^d] that hold at most two wavelengths at tmax,
    with layers [u, 2u] of four panels from a^d (u^{c-1} is singular at 0),
    and w g(u) at the Gauss nodes of every panel, g = u^{c-1} eta(u^{1/d}) / d."""
    X, W = _gauss()
    with mp.workdps(20):
        a, b = mp.mpf(a), mp.mpf(b)
        u, u1 = a**d, b**d
        width = min(4 * mp.pi / max(tmax, 1.0), (u1 - u) / 8)
        edges = []
        while u / 4 < width and 2 * u < u1:
            edges += [u + u * k / 4 for k in range(4)]
            u *= 2
        count = int(mp.ceil((u1 - u) / width))
        edges += [u + (u1 - u) * k / count for k in range(count)] + [u1]
        c = mp.mpf(npow + 1) / d
        panels = []
        for lo, hi in zip(edges, edges[1:]):
            h = hi - lo
            row = []
            for x, w in zip(X, W):
                s = (b - mp.root(lo + h * (x + 1) / 2, d)) / (b - a)
                p, q = mp.exp(-1 / s), mp.exp(-1 / (1 - s))
                row.append(w * h / 2 * (lo + h * (x + 1) / 2) ** (c - 1) * p / (p + q) / d)
            panels.append((lo, h, row))
        return panels


def _oracle(t, d, npow, a, b, tmax):
    """int_0^b e^{ity^d} y^npow eta(y) dy for the (a, b) cutoff, t <= tmax, to about 1e-18."""
    panels, X = _oracle_rule(d, npow, a, b, tmax), _gauss()[0]
    with mp.workdps(20):
        t, c, u0 = mp.mpf(float(t)), mp.mpf(npow + 1) / d, mp.mpf(a) ** d
        if t == 0:
            total = u0**c / c / d
        else:
            total = mp.expjpi(c / 2) * mp.gammainc(c, 0, -1j * t * u0) * t ** (-c) / d
        factors = {}
        for lo, h, row in panels:
            if h not in factors:
                factors[h] = [mp.expj(t * h * (x + 1) / 2) for x in X]
            total += mp.expj(t * lo) * mp.fdot(row, factors[h])
        return complex(total)


def _calibration_ts(d, npow, a, b):
    """t = 0, a piece edge and a midpoint early and halfway to T*, and T* -+ 1,
    in the cutoff's scale (the table's t is t b^d)."""
    table = quad._profile_table(d, npow, a / b)
    table._search(np.inf)
    tstar = table.tstar
    assert np.isfinite(tstar)
    w = quad._PIECE_PHASE
    mid = w * round(tstar / (2 * w))
    canonical = [0.0, 2 * w, 2.5 * w, mid, mid + 0.5 * w, tstar - 1.0, tstar + 1.0]
    return np.array(canonical) / b**d


def test_table_estimate_covers_the_oracle_error():
    worst = 0.0
    cases = [(d, npow, a, b) for a, b in CUTOFFS for d, npow in GRID]
    for d, npow, a, b in cases:
        ts = _calibration_ts(d, npow, a, b)
        vals, errs = oscillatory_profile(ts, d, npow, CutoffFunction(a, b))
        for t, v, e in zip(ts, vals, errs):
            true = abs(v - _oracle(t, d, npow, a, b, ts.max()))
            assert true <= e, (d, npow, a, b, t, true, e)
            worst = max(worst, true / e)
    print(f"profile table: largest true/estimate {worst:.2f} over {len(cases) * 7} cases")


def test_table_estimate_covers_the_oracle_error_across_the_beat():
    # the cutoff (0.9, 1): |P - closed form| beats with period 2 pi / (1 - 0.9^4)
    # in the table's t; t runs densely over the pieces, across T* and past it
    a, b, d, npow = 0.9, 1.0, 4, 0
    table = quad._profile_table(d, npow, a / b)
    table._search(np.inf)
    beat = 2.0 * np.pi / (1.0 - a**d)
    ts = np.concatenate([np.linspace(0.0, 1.5 * table.tstar, 150),
                         table.tstar + beat * np.linspace(-1.0, 2.0, 25)])
    vals, errs = oscillatory_profile(ts, d, npow, CutoffFunction(a, b))
    for t, v, e in zip(ts, vals, errs):
        assert abs(v - _oracle(t, d, npow, a, b, ts.max())) <= e, t


# On a real cutoff the builder's error dominates every piece's error and the
# gap to the closed form only decays past T*, so the two tests below hand the
# table a builder with a known answer and zero or fixed error instead.

def test_piece_error_carries_the_trailing_coefficients(monkeypatch):
    # e^{3it} turns 24 radians over a piece: near the limit of degree 24, so
    # the interpolation error is all there is, and only |c_23| + |c_24| sees it
    def exact(ts, *args):
        return np.exp(3j * ts), np.zeros(len(ts))

    monkeypatch.setattr(quad, "_halfline_profile", exact)
    table = quad._ProfileTable(4, 0, 0.9)
    ts = np.linspace(0.0, 400.0, 2001)
    vals, errs = table(ts)
    assert table.tstar == np.inf
    assert np.all(np.abs(vals - np.exp(3j * ts)) <= errs)


def test_tstar_needs_three_candidates_in_a_row(monkeypatch):
    # a remainder over the closed form that falls within the builder's error
    # at the candidates 88 and 128 and comes back near t = 210: T* taken at
    # the first candidate would serve the closed form there
    closed = quad._ProfileTable(4, 0, 0.9)._closed_form

    def truth(ts):
        remainder = np.exp(-(ts / 30.0) ** 2) + np.exp(-((ts - 210.0) / 20.0) ** 2)
        return closed(np.maximum(ts, 1.0)) + 1e-12 * remainder

    monkeypatch.setattr(quad, "_halfline_profile",
                        lambda ts, *args: (truth(ts), np.full(len(ts), 1e-14)))
    table = quad._ProfileTable(4, 0, 0.9)
    ts = np.linspace(64.0, 800.0, 1500)
    vals, errs = table(ts)
    assert np.all(np.abs(vals - truth(ts)) <= errs)
    assert table.tstar == 256.0


def test_table_estimate_covers_the_oracle_error_on_a_wide_cutoff():
    # eta = 1 only on [0, 0.2]: the builder grades its grid from a^d = 1.6e-3,
    # where u^{-3/4} is singular; whatever it converges to, the table must
    # carry its error
    eta = make_cutoff(0.2, 2.0)
    ts = np.array([1.0, 10.0, 100.0, 100.3])
    vals, errs = oscillatory_profile(ts, 4, 0, eta)
    _, filon_errs = quad._halfline_profile(ts, 4, 0, eta)
    assert np.all(errs >= filon_errs)
    for t, v, e in zip(ts, vals, errs):
        assert abs(v - _oracle(t, 4, 0, 0.2, 2.0, 101.0)) <= e, t


def test_oracle_matches_the_brute_force_reference():
    ts = np.array([0.0, 3.0, 40.0])
    ref, _ = quad.oscillatory_profile_reference(ts, 4, 1, make_cutoff(1.0, 2.0), tol=1e-13)
    orc = [_oracle(t, 4, 1, 1.0, 2.0, 40.0) for t in ts]
    assert np.max(np.abs(ref - orc)) < 1e-14


def test_tail_is_the_closed_form_past_tstar():
    table = quad._profile_table(2, 1, 0.5)
    table._search(np.inf)
    ts = table.tstar * np.array([1.0, 3.0, 1e3])
    vals, errs = table(ts)
    assert np.array_equal(vals, table._closed_form(ts))
    assert np.all(errs == table.tail_err)
    assert quad._ROUNDOFF * 0.25 <= table.tail_err < 1e-14


def _spy(monkeypatch):
    calls = []
    builder = quad._halfline_profile

    def spy(ts, *args):
        calls.append(np.array(ts))
        return builder(ts, *args)

    monkeypatch.setattr(quad, "_halfline_profile", spy)
    quad._profile_table.cache_clear()
    return calls


def test_warmup_call_builds_only_its_pieces_and_the_tstar_search(monkeypatch):
    calls = _spy(monkeypatch)
    eta = CutoffFunction(1.0, 2.0)
    first = oscillatory_profile([1.0, 10.0], 4, 1, eta, full_line=True)
    table = quad._profile_table(4, 1, 0.5)
    # t = 1 and 10 are the table's t 16 and 160 (b^d = 16): the T* search
    # measures the candidates up to 160 and two more, in one builder call,
    # and T* (2048) lies beyond them
    search, build = calls
    starts = search.reshape(-1, quad._RUNG_POINTS)[:, 0]
    assert list(starts) == list(quad._PIECE_PHASE * np.array([1, 2, 3, 4, 6, 8, 11, 16, 23, 32]))
    assert table.tstar == np.inf
    # then pieces 2 and 20 only
    assert list(table.pieces) == [2, 20]
    assert len(build) == 2 * (quad._CHEB_DEGREE + 1)
    assert set(np.floor(build / quad._PIECE_PHASE)) == {2, 20}
    calls.clear()
    second = oscillatory_profile([1.0, 10.0], 4, 1, eta, full_line=True)
    assert calls == []
    assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])


def test_tstar_search_runs_only_as_far_as_the_calls_need(monkeypatch):
    calls = _spy(monkeypatch)
    eta = CutoffFunction(1.0, 2.0)
    oscillatory_profile([10.0], 4, 1, eta)
    oscillatory_profile([10.2], 4, 1, eta)  # table t 163.2, the same piece as 160
    assert len(calls) == 2  # one search, one piece; the second call reads both
    oscillatory_profile([1e4], 4, 1, eta)
    table = quad._profile_table(4, 1, 0.5)
    assert len(calls) == 3 and table.tstar == 2048.0  # the rest of the search; 1e4 is past T*
    measured = len(table.gap)
    oscillatory_profile([1e6], 4, 1, eta)
    assert len(calls) == 3 and len(table.gap) == measured


def test_cutoffs_of_one_shape_share_one_table(monkeypatch):
    calls = _spy(monkeypatch)
    builds = []
    # 3 b^2 is 12, 3 and 0.75: pieces 1, 0 and 0 again
    for a, b in [(1.0, 2.0), (0.5, 1.0), (0.25, 0.5)]:
        oscillatory_profile([3.0], 2, 1, CutoffFunction(a, b))
        builds.append(len(calls))
    assert quad._profile_table.cache_info().currsize == 1
    assert list(quad._profile_table(2, 1, 0.5).pieces) == [0, 1]
    assert builds[1] == builds[0] + 1 and len(calls[-1]) == quad._CHEB_DEGREE + 1
    assert builds[2] == builds[1]


def test_values_do_not_depend_on_the_batch_or_the_call_order(monkeypatch):
    _spy(monkeypatch)
    ts = np.array([0.3, 7.0, 55.0, 400.0])
    one_by_one = [oscillatory_profile([t], 3, 1, ETA_WIDE)[0][0] for t in ts[::-1]][::-1]
    quad._profile_table.cache_clear()
    batch = oscillatory_profile(ts, 3, 1, ETA_WIDE)[0]
    assert np.array_equal(batch, one_by_one)

