"""Smooth compactly supported cutoffs, amplitudes, and the blowup-symmetric cutoff.

Everything here is built from the standard exp(-1/t) bump, so all functions
are C-infinity, even, valued in [0,1], identically 1 on a plateau and 0
outside a support radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "CutoffFunction",
    "TestFunction",
    "SymmetricCutoff",
    "make_cutoff",
    "smoothstep",
]


def _bump_piece(t):
    """exp(-1/t) for t > 0, else 0; vectorized and overflow-safe."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smoothstep(s):
    """C-infinity step: 0 for s <= 0, 1 for s >= 1, strictly increasing between."""
    a = _bump_piece(s)
    b = _bump_piece(1.0 - np.asarray(s, dtype=float))
    with np.errstate(invalid="ignore"):
        out = np.where(a + b > 0, a / (a + b), 0.0)
    return out


@dataclass(frozen=True)
class CutoffFunction:
    """Even smooth bump: 1 on [-a, a], 0 outside (-b, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not (0 < self.a < self.b):
            raise ValueError("require 0 < a < b for a cutoff function")

    def __call__(self, y):
        y = np.abs(np.asarray(y, dtype=float))
        return smoothstep((self.b - y) / (self.b - self.a))

    def support_radius(self) -> float:
        return self.b


def make_cutoff(a: float, b: float) -> CutoffFunction:
    return CutoffFunction(a=float(a), b=float(b))


@dataclass(frozen=True)
class TestFunction:
    """Amplitude x^nu * bump, in product (prod eta(x_i)) or radial (eta(|x|)) shape."""

    __test__ = False  # keep pytest from collecting this as a test class

    nu: Tuple[int, ...]
    cutoff: CutoffFunction
    shape: str = "product"

    def __post_init__(self):
        if self.shape not in ("product", "radial"):
            raise ValueError(f"unknown shape {self.shape!r}")
        if any(k < 0 for k in self.nu):
            raise ValueError("monomial exponents must be nonnegative")
        object.__setattr__(self, "nu", tuple(int(k) for k in self.nu))

    @property
    def n(self) -> int:
        return len(self.nu)

    def __call__(self, *coords):
        """Evaluate at coordinate arrays (broadcastable)."""
        if len(coords) != self.n:
            raise ValueError("coordinate count mismatch")
        xs = [np.asarray(c, dtype=float) for c in coords]
        mono = np.ones_like(xs[0])
        for x, k in zip(xs, self.nu):
            if k:
                mono = mono * x**k
        if self.shape == "product":
            w = np.ones_like(xs[0])
            for x in xs:
                w = w * self.cutoff(x)
        else:
            r = np.sqrt(sum(x * x for x in xs))
            w = self.cutoff(r)
        return mono * w


# ---------------------------------------------------------------------------
# Symmetric cutoff from the point-blowup chart covering (n = 2)
#
# Directions through the origin are covered by two charts: chart 1 where
# |x2/x1| < 1+eps and chart 2 where |x1/x2| < 1+eps.  A smooth partition
# theta_1 + theta_2 = 1 on directions is built from a smoothstep in the
# ratio t = |x2|/|x1|; the pushed-down cutoff is
#   chi(x) = eta(x1) theta_1 + eta(x2) theta_2,
# which is 1 near 0, compactly supported, and invariant under x -> -x.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetricCutoff:
    n: int
    eps: float
    eta: CutoffFunction

    def __post_init__(self):
        if self.n != 2:
            raise ValueError("symmetric cutoff implemented for n = 2 only")
        if not 0 < self.eps < 0.5:
            raise ValueError("overlap parameter must lie in (0, 1/2)")

    def _psi(self, t):
        """theta_1 as a function of the direction ratio t = |x2|/|x1|."""
        lo = 1.0 / (1.0 + self.eps)
        hi = 1.0 + self.eps
        with np.errstate(over="ignore"):
            return 1.0 - smoothstep((np.asarray(t, dtype=float) - lo) / (hi - lo))

    def chart_weight(self, i: int) -> Callable:
        """Partition weight on chart i as a function of the chart coordinate."""
        if i == 1:
            # chart-1 coordinate v = x2/x1
            return lambda v: self._psi(np.abs(np.asarray(v, dtype=float)))
        if i == 2:
            # chart-2 coordinate u = x1/x2; the direction ratio is 1/|u|
            def theta2(u):
                u = np.abs(np.asarray(u, dtype=float))
                t = np.where(u > 0, 1.0 / np.where(u > 0, u, 1.0), np.inf)
                return 1.0 - self._psi(t)

            return theta2
        raise ValueError("chart index must be 1 or 2")

    def __call__(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        a1, a2 = np.abs(x1), np.abs(x2)
        both_zero = (a1 == 0) & (a2 == 0)
        # ratio |x2|/|x1|, with the x1 = 0 rays sent to t = +inf
        safe = np.where(a1 > 0, a1, 1.0)
        with np.errstate(over="ignore"):
            t = np.where(a1 > 0, a2 / safe, np.inf)
        th1 = self._psi(t)
        val = self.eta(x1) * th1 + self.eta(x2) * (1.0 - th1)
        return np.where(both_zero, 1.0, val)
