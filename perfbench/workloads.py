"""Seeded workload generators and the calls that run one item.

Every workload turns ``--seed`` into a fixed list of items (one *cycle*); a
run repeats that cycle.  The seed only picks coefficients, signs, variable
orders and template choices of equal size, so the work in a cycle stays the
same from seed to seed while the inputs differ.  Each workload states, next
to its generator, why it exists.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from oscillab import cli, experiments
from oscillab.bump import CutoffFunction, TestFunction
from oscillab.poly import parse
from oscillab.quad import eval_oscillatory, oscillatory_profile


@dataclass
class Item:
    label: str
    kind: str                      # "cli" or "battery"
    argv: List[str] = field(default_factory=list)
    fixtures: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    rc: Optional[int]              # None when the call raised
    text: str
    stderr: str
    seconds: float


def run_item(item: Item) -> Outcome:
    """Run one item the way a user would and time it.

    Package functions are looked up on their modules at call time, so a
    traced cycle reaches the wrappers tracing.py puts there.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if item.kind == "cli":
                rc = cli.main(list(item.argv))
            else:
                report = experiments.run_theorem2_battery(
                    item.fixtures, config=experiments.ExperimentConfig())
                out.write(experiments.export_report(report, "json"))
                rc = 2 if any(r["status"] == "indeterminate" for r in report.rows) else 0
    except Exception:  # an item that raises is a failed item, not a crash
        rc = None
        err.write(traceback.format_exc())
    return Outcome(rc, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def _term(coeff, mono: str) -> str:
    return mono if coeff == 1 else f"{coeff}*{mono}"


def _mono(exps, names) -> str:
    return "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(names, exps) if e)


def _poly(terms, names) -> str:
    return " + ".join(_term(c, _mono(e, names)) for e, c in terms)


# ---------------------------------------------------------------------------
# lab
# ---------------------------------------------------------------------------

LAB_WHY = ("The paper's headline run: theorem3-lab on a diagonal quartic, about "
           "95% batched Filon profile calls through chart_parity_integral, so "
           "Filon kernel work shows here while polytope and fit stay under 1%.")
# The phase is fixed: its coefficients move the lab's cost (the profile's
# panel doubling stops at different rounds; 8.6 s for x1^4 + 3*x2^4 against
# 10.7 s here), so the seed only drives the lab's own randomized search.
LAB_PHASE = "x1^4 + x2^4"


def lab_items(seed: int) -> List[Item]:
    # the lab's search seed must be a non-negative integer
    return [Item(label=f"theorem3-lab {LAB_PHASE}", kind="cli",
                 argv=["theorem3-lab", "--phase", LAB_PHASE, "--seed", str(seed % 2**32)],
                 meta={"phase": LAB_PHASE, "coeffs": [1, 1], "d": 4})]


def lab_warmup():
    oscillatory_profile([1.0, 10.0], 4, 1, CutoffFunction(1.0, 2.0), full_line=True)


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

BATTERY_WHY = ("The exponent battery uses the same Filon layer with one t per "
               "call, plus the adaptive Gauss route on multi-term axis "
               "polynomials, so a change that speeds up batched calls but adds "
               "per-call cost shows up here.")
BATTERY_PURE = 8          # seeded pure-power separable fixtures per cycle


def _axis(rng, var: str, multi: bool):
    """(text, lowest degree) of one axis polynomial; even degrees, positive coefficients."""
    if multi:
        return f"{var}^2 + {var}^4", 2
    d = rng.choice((2, 4, 6))
    return _term(rng.choice((1, 2, 3)), f"{var}^{d}"), d


def battery_fixtures(seed: int) -> list:
    """Default fixtures, one fixture with a multi-term axis, BATTERY_PURE pure-power ones."""
    rng = random.Random(seed)
    out = [(p, tuple(nu), None) for p, nu in experiments.default_battery_fixtures()]
    multi_axis = rng.randrange(2)
    for k in range(1 + BATTERY_PURE):
        axes = [_axis(rng, f"x{i + 1}", k == 0 and i == multi_axis) for i in range(2)]
        nu = tuple(0 if (k == 0 and i == multi_axis) else rng.choice((0, 2)) for i in range(2))
        out.append((" + ".join(t for t, _ in axes), nu, [d for _, d in axes]))
    return out


def battery_items(seed: int) -> List[Item]:
    fixtures = battery_fixtures(seed)
    return [Item(label=f"theorem2-battery ({len(fixtures)} fixtures)", kind="battery",
                 fixtures=[(p, nu) for p, nu, _ in fixtures],
                 meta={"fixtures": fixtures})]


def battery_warmup():
    experiments.run_theorem2_battery([("x1^2 + x2^2", (0, 0))],
                                     config=experiments.ExperimentConfig(tau_count=8))


# ---------------------------------------------------------------------------
# mixed
# ---------------------------------------------------------------------------

MIXED_WHY = ("The only workload on the tensor evaluator, whose panel count grows "
             "as tau^2; it keeps one tau past the panel budget, so the known "
             "budget failure stays visible in fail_ratio and the wall time.")
MIXED_SWEEP = ("10", "80", "8")             # tau-min, tau-max, tau-count
MIXED_OVER_BUDGET = ("300", "3000", "8")    # first tau is past the panel budget


def mixed_items(seed: int) -> List[Item]:
    rng = random.Random(seed)
    s, t = rng.choice("+-"), rng.choice("+-")
    x, y = rng.sample(("x1", "x2"), 2)
    # the sign of the mixed term and the roles of the variables leave the
    # tensor grid, and so the cost, unchanged
    phase = f"{x}^2 {s} x1*x2 + {y}^4"
    quad = f"x1^2 {t} x1*x2 + x2^2"

    def osc(label, p, taus, extra=(), **meta):
        argv = ["oscillate", "--phase", p, "--tau-min", taus[0], "--tau-max", taus[1],
                "--tau-count", taus[2], *extra]
        return Item(label=f"{label} {p}", kind="cli", argv=argv, meta=dict(phase=p, **meta))

    return [
        osc("oscillate sweep", phase, MIXED_SWEEP, check="dense"),
        osc("oscillate radial sweep", quad, MIXED_SWEEP, ("--shape", "radial"), check="radial"),
        osc("oscillate over budget", phase, MIXED_OVER_BUDGET, check="budget"),
    ]


def mixed_warmup():
    eval_oscillatory(parse("x1^2 + x1*x2 + x2^4", 2),
                     TestFunction((0, 0), CutoffFunction(1.0, 2.0)), 1.0)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

GEOMETRY_WHY = ("Exact polytope and face enumeration plus the nondegeneracy search "
                "with no quadrature: the no-change workload for every quad change, "
                "sized so that polytope and nondegen each take a large share.")

# A convex chain of 10 primitive edges with distinct slopes: a 2-D Newton
# polygon with 10 facets, where compact_faces does 2^10 x 4 mask checks.
CHAIN_EDGES = ((1, -5), (1, -4), (1, -3), (2, -5), (1, -2), (2, -3), (1, -1),
               (3, -2), (2, -1), (3, -1))
# Even-exponent degree-6 monomials in 4 variables below the pure powers: all
# minimal, so build_polytope enumerates facets over 15 generators.
SEXTIC_4D = ((4, 2, 0, 0), (2, 4, 0, 0), (0, 4, 2, 0), (0, 2, 4, 0), (0, 0, 4, 2),
             (0, 0, 2, 4), (4, 0, 0, 2), (2, 0, 0, 4), (2, 2, 2, 0), (0, 2, 2, 2),
             (2, 0, 2, 2))


def _chain_support():
    y = -sum(dy for _, dy in CHAIN_EDGES)
    x, pts = 0, [(0, y)]
    for dx, dy in CHAIN_EDGES:
        x, y = x + dx, y + dy
        pts.append((x, y))
    return pts


def _permuted(rng, n):
    names = [f"x{i + 1}" for i in range(n)]
    rng.shuffle(names)
    return names


def geometry_items(seed: int) -> List[Item]:
    """Five rlct calls: n = 2, 3, 3, 4, 2; both nondegeneracy verdicts by construction.

    Even exponents with positive coefficients cannot have a real torus
    critical point on any face, so those phases are nondegenerate; so are the
    chain's binomial edges.  A face polynomial that is a square of a binomial
    vanishes with its gradient on a real torus curve, so those are degenerate.
    """
    rng = random.Random(seed)

    def coeff():
        return rng.randint(1, 5)

    items = []

    def add(label, n, names, terms, degenerate):
        phase = _poly(terms, names) if isinstance(terms, list) else terms
        items.append(Item(label=f"rlct {label}", kind="cli",
                          argv=["rlct", "--phase", phase, "--dim", str(n),
                                "--method", "candidate"],
                          meta={"phase": phase, "n": n, "degenerate": degenerate}))

    names = _permuted(rng, 2)
    add("2-D chain, 10 facets", 2, names, [(p, coeff()) for p in _chain_support()], False)

    names = _permuted(rng, 3)
    sextic3 = [(e, coeff()) for e in ((6, 0, 0), (0, 6, 0), (0, 0, 6),
                                      (2, 2, 0), (0, 2, 2), (2, 0, 2))]
    add("3-D even sextic", 3, names, sextic3, False)

    names = _permuted(rng, 3)
    k = rng.randint(1, 3)
    square = f"({names[0]}^2 - {_term(k, names[1] + '^2')})^2"
    rest = _poly([((0, 0, 6), coeff()), ((2, 0, 2), coeff()), ((0, 2, 2), coeff())], names)
    add("3-D squared binomial", 3, names, f"{square} + {rest}", True)

    names = _permuted(rng, 4)
    pure = [tuple(6 if j == i else 0 for j in range(4)) for i in range(4)]
    add("4-D sextic, 15 generators", 4, names,
        [(e, coeff()) for e in pure + list(SEXTIC_4D)], False)

    names = _permuted(rng, 2)
    k = rng.randint(1, 3)
    square = f"({names[0]}^2 - {_term(k, names[1] + '^3')})^2"
    rest = _poly([((6, 0), coeff()), ((0, 8), coeff())], names)
    add("2-D squared binomial", 2, names, f"{square} + {rest}", True)
    return items


def geometry_warmup():
    cli.main(["rlct", "--phase", "x1^2 + x2^2", "--method", "candidate"])


@dataclass(frozen=True)
class Workload:
    why: str
    items: Callable[[int], List[Item]]
    warmup: Callable[[], None]


WORKLOADS: Dict[str, Workload] = {
    "lab": Workload(LAB_WHY, lab_items, lab_warmup),
    "battery": Workload(BATTERY_WHY, battery_items, battery_warmup),
    "mixed": Workload(MIXED_WHY, mixed_items, mixed_warmup),
    "geometry": Workload(GEOMETRY_WHY, geometry_items, geometry_warmup),
}

