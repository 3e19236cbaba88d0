"""Sparse multivariate real polynomials with exact rational coefficients.

Variables are named x1..xn.  Coefficients are stored as ``fractions.Fraction``
so polytope arithmetic downstream stays exact; numeric evaluation converts to
binary floats (or complex).  Polynomials are immutable value objects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import atan2, pi
from typing import List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Polynomial",
    "ParseError",
    "parse",
    "circle_zeros",
    "multiple_real_roots",
    "real_root_multiplicity",
    "real_roots",
]

Exponent = tuple  # tuple[int, ...]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<var>x\d+)|(?P<num>\d+(?:\.\d+)?(?:/\d+)?)"
    r"|(?P<op>[-+*^()]))"
)


class ParseError(ValueError):
    """Syntax error in a polynomial expression; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    return Fraction(value)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in n variables as a map exponent tuple -> nonzero Fraction."""

    n: int
    terms: Mapping[Exponent, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        clean = {}
        for exp, coeff in self.terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.n:
                raise ValueError(f"exponent {exp} has wrong dimension (expected {self.n})")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = _as_fraction(coeff)
            if c != 0:
                clean[exp] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n, {})

    @staticmethod
    def constant(n: int, c) -> "Polynomial":
        return Polynomial(n, {tuple([0] * n): _as_fraction(c)})

    @staticmethod
    def monomial(n: int, exponent: Sequence[int], coeff=1) -> "Polynomial":
        return Polynomial(n, {tuple(exponent): _as_fraction(coeff)})

    @staticmethod
    def variable(n: int, i: int) -> "Polynomial":
        """The variable x_i (1-based) in ambient dimension n."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        exp = [0] * n
        exp[i - 1] = 1
        return Polynomial(n, {tuple(exp): Fraction(1)})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + c
        return Polynomial(self.n, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Polynomial(self.n, out)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        c = _as_fraction(c)
        return Polynomial(self.n, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and dict(self.terms) == dict(other.terms)
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def support(self) -> frozenset:
        return frozenset(self.terms)

    def homogeneous_degree(self) -> Optional[int]:
        """The common total degree of all terms, or None if degrees are mixed."""
        if not self.terms:
            raise ValueError("zero polynomial")
        degs = {sum(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def axis_parts(self) -> Optional[Tuple[List["Polynomial"], Fraction]]:
        """Univariate parts p_i and constant c with f = c + sum_i p_i(x_i).

        Returns None when some term mixes two variables.
        """
        parts = [{} for _ in range(self.n)]
        const = Fraction(0)
        for exp, c in self.terms.items():
            nz = [i for i, e in enumerate(exp) if e]
            if len(nz) > 1:
                return None
            if nz:
                parts[nz[0]][(exp[nz[0]],)] = c
            else:
                const = c
        return [Polynomial(1, p) for p in parts], const

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range")
        out = {}
        for exp, c in self.terms.items():
            k = exp[i - 1]
            if k == 0:
                continue
            e = list(exp)
            e[i - 1] = k - 1
            key = tuple(e)
            out[key] = out.get(key, Fraction(0)) + c * k
        return Polynomial(self.n, out)

    def evaluate(self, point: Sequence) -> Union[float, complex]:
        if len(point) != self.n:
            raise ValueError(f"point has dimension {len(point)}, expected {self.n}")
        total = 0.0
        for exp, c in self.terms.items():
            v = float(c)
            for x, k in zip(point, exp):
                if k:
                    v = v * x**k
            total = total + v
        return total

    # -- structural maps -----------------------------------------------------

    def restrict_to_weights(self, weights: Sequence[Fraction], level: Fraction) -> "Polynomial":
        """Partial sum over terms lying on the hyperplane sum(w_i * e_i) == level.

        Raises ValueError when the weights do not support the polynomial at
        ``level`` (i.e. some term lies strictly below it).
        """
        if len(weights) != self.n:
            raise ValueError("weight vector has wrong dimension")
        w = [_as_fraction(x) for x in weights]
        lv = _as_fraction(level)
        vals = {e: sum(wi * ei for wi, ei in zip(w, e)) for e in self.terms}
        if vals and min(vals.values()) < lv:
            raise ValueError("face is not incident to the polynomial's polytope")
        picked = {e: c for e, c in self.terms.items() if vals[e] == lv}
        if not picked:
            raise ValueError("no terms on the given face")
        return Polynomial(self.n, picked)

    def substitute_one(self, i: int) -> "Polynomial":
        """Set x_i = 1 and drop the variable; result lives in n-1 variables."""
        if self.n < 2:
            raise ValueError("cannot drop a variable from a univariate polynomial")
        if not 1 <= i <= self.n:
            raise ValueError("variable index out of range")
        out: dict = {}
        for exp, c in self.terms.items():
            e = tuple(exp[:i - 1] + exp[i:])
            out[e] = out.get(e, Fraction(0)) + c
        return Polynomial(self.n - 1, out)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (sum(e), tuple(-x for x in e)))
        pieces = []
        for exp in keys:
            c = self.terms[exp]
            factors = []
            if abs(c) != 1 or all(k == 0 for k in exp):
                factors.append(str(abs(c)))
            for i, k in enumerate(exp):
                if k == 1:
                    factors.append(f"x{i + 1}")
                elif k > 1:
                    factors.append(f"x{i + 1}^{k}")
            mono = "*".join(factors)
            if not pieces:
                pieces.append(mono if c > 0 else f"-{mono}")
            else:
                pieces.append(f"+ {mono}" if c > 0 else f"- {mono}")
        return " ".join(pieces)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Exact real roots of univariate polynomials
#
# Dense coefficient lists run lowest degree first, over Fraction, with no
# trailing zeros.  The squarefree part q = p / gcd(p, p') has the distinct
# roots of p as simple roots, and with V(x) the number of sign changes of the
# Sturm sequence q, q', -rem(q, q'), ... at x, q has V(a) - V(b) roots in
# (a, b].
# ---------------------------------------------------------------------------


def _divmod(a: list, b: list):
    """Quotient and remainder of dense a by nonzero dense b."""
    a = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        k = a[-1] / b[-1]
        shift = len(a) - len(b)
        quot[shift] = k
        for i, c in enumerate(b):
            a[shift + i] -= k * c
        while a and a[-1] == 0:
            a.pop()
    return quot, a


def _derivative(a: list) -> list:
    return [k * c for k, c in enumerate(a)][1:]


def _horner(a: list, x: Fraction) -> Fraction:
    v = Fraction(0)
    for c in reversed(a):
        v = v * x + c
    return v


def _sign_changes(seq: list, x: Fraction) -> int:
    signs = [v > 0 for v in (_horner(s, x) for s in seq) if v != 0]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _dense(p: Polynomial) -> list:
    """Dense coefficients of a nonzero univariate ``p``."""
    if p.n != 1:
        raise ValueError("expected a univariate polynomial")
    if p.is_zero():
        raise ValueError("the zero polynomial has no isolated roots")
    coeffs = [Fraction(0)] * (max(e for (e,) in p.terms) + 1)
    for (e,), c in p.terms.items():
        coeffs[e] = c
    return coeffs


def _gcd_with_derivative(a: list) -> list:
    gcd, rem = a, _derivative(a)
    while rem:
        gcd, rem = rem, _divmod(gcd, rem)[1]
    return gcd


def multiple_real_roots(p: Polynomial) -> List[float]:
    """Distinct real roots of multiplicity >= 2 of a univariate ``p``, ascending.

    These are the real roots of gcd(p, p'), decided over Fraction.
    """
    gcd = _gcd_with_derivative(_dense(p))
    if len(gcd) == 1:
        return []
    return real_roots(Polynomial(1, {(k,): c for k, c in enumerate(gcd)}))


def real_root_multiplicity(p: Polynomial) -> int:
    """Largest multiplicity of a real root of a univariate ``p``, 0 when it has none.

    The roots of p of multiplicity > k are the roots of the k-th term of the
    chain p, gcd(p, p'), ..., each the gcd of the one before with its
    derivative, decided over Fraction.
    """
    m, a = 0, _dense(p)
    while len(a) > 1 and real_roots(Polynomial(1, {(k,): c for k, c in enumerate(a)})):
        m, a = m + 1, _gcd_with_derivative(a)
    return m


def real_roots(p: Polynomial, lo=None, hi=None) -> List[float]:
    """Distinct real roots of a univariate ``p`` in [lo, hi], ascending, as floats.

    Without bounds the whole line is searched.  The roots of the squarefree
    part are isolated by Sturm counts over Fraction and each is bisected
    exactly until its bracket is below float resolution.
    """
    coeffs = _dense(p)
    q = _divmod(coeffs, _gcd_with_derivative(coeffs))[0]
    # Cauchy: every root has |x| < 1 + max |q_i / q_top|
    bound = 1 + max(abs(c / q[-1]) for c in q)
    lo = -bound if lo is None else _as_fraction(lo)
    hi = bound if hi is None else _as_fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    roots = []
    if q[0] == 0:
        # a simple root at 0; deflate it so every bracket below shrinks
        # towards a nonzero root in relative terms
        q = q[1:]
        if lo <= 0 <= hi:
            roots.append(Fraction(0))
    if len(q) == 1:
        return [float(r) for r in roots]
    seq = [q, _derivative(q)]
    while len(seq[-1]) > 1:
        seq.append([-c for c in _divmod(seq[-2], seq[-1])[1]])
    if _horner(q, lo) == 0:
        roots.append(lo)
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        count = _sign_changes(seq, a) - _sign_changes(seq, b)
        if count > 1:
            mid = (a + b) / 2
            stack += [(a, mid), (mid, b)]
        elif count == 1:
            # one simple root in (a, b]: q has the sign of q(b) right of it
            qb = _horner(q, b)
            if qb == 0:
                roots.append(b)
                continue
            right = qb > 0
            while b - a > max(abs(a), abs(b)) / 2**54:
                mid = (a + b) / 2
                v = _horner(q, mid)
                if v == 0:
                    a = b = mid
                elif (v > 0) == right:
                    b = mid
                else:
                    a = mid
            roots.append((a + b) / 2)
    return sorted(float(r) for r in roots)


def circle_zeros(f: Polynomial) -> List[float]:
    """Angles in [0, 2 pi) at which a binary form ``f`` vanishes on the unit circle, ascending.

    A zero off the origin spans a line through it, so it shows as a real root
    t of f(t, 1), at the angles atan2(1, t) and atan2(1, t) + pi, or as
    f(1, 0) = 0, at 0 and pi.  The roots are decided exactly by ``real_roots``.
    """
    if f.n != 2:
        raise ValueError(f"circle zeros need n = 2, got {f.n}")
    d = f.homogeneous_degree()
    if d is None:
        raise ValueError("circle zeros need a homogeneous polynomial")
    upper = [atan2(1.0, t) for t in real_roots(f.substitute_one(2))]
    if (d, 0) not in f.terms:
        upper.append(0.0)
    return sorted(upper + [a + pi for a in upper])


# ---------------------------------------------------------------------------
# Parsing
#
# expr   := ['+'|'-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' uint)?
# base   := var | rational | '(' expr ')'
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                if text[pos:].strip() == "":
                    break
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            self.tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()
        self.i = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, val, pos = self._peek()
        if kind is not None:
            raise ParseError(f"unexpected token {val!r}", pos)
        return p

    def expr(self) -> Polynomial:
        sign = 1
        kind, val, _ = self._peek()
        if kind == "op" and val in "+-":
            self._next()
            sign = -1 if val == "-" else 1
        p = self.term()
        if sign < 0:
            p = -p
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val in "+-":
                self._next()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val == "*":
                self._next()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Polynomial:
        p = self.base()
        kind, val, pos = self._peek()
        if kind == "op" and val == "^":
            self._next()
            kind, val, pos = self._next()
            if kind != "num" or "/" in val or "." in val:
                raise ParseError("exponent must be a nonnegative integer", pos)
            p = p ** int(val)
        return p

    def base(self) -> Polynomial:
        kind, val, pos = self._next()
        if kind == "var":
            idx = int(val[1:])
            if not 1 <= idx <= self.n:
                raise ParseError(f"variable {val} exceeds dimension {self.n}", pos)
            return Polynomial.variable(self.n, idx)
        if kind == "num":
            return Polynomial.constant(self.n, Fraction(val))
        if kind == "op" and val == "(":
            p = self.expr()
            kind, val, pos = self._next()
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", pos)
            return p
        raise ParseError(f"unexpected token {val!r}", pos)


def parse(text: str, n: int) -> Polynomial:
    """Parse an expression in variables x1..xn into expanded normal form."""
    return _Parser(text, n).parse()
