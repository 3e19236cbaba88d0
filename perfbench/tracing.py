"""Per-layer tracing from outside the package.

Each traced public function is replaced, wherever a caller looks it up (its
own module, every ``oscillab`` module that imported it by name, and the
package namespace), by a wrapper that records a span: name, start, end and
parent span.  The originals are put back when the traced block ends, so an
untraced run executes the package exactly as shipped.  Spans stay in memory;
the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _converged(result):
    return {"converged": bool(getattr(result, "converged", True))}


# (module, attribute path, attribute extractor or None).  The extractor maps
# (args, kwargs, result) to the span attributes the per-layer metrics need.
SPANNED = [
    ("oscillab.cli", "main", None),
    ("oscillab.poly", "parse", None),
    ("oscillab.polytope", "build_polytope",
     lambda a, k, r: {"facets": len(r.facets)}),
    ("oscillab.polytope", "compact_faces", lambda a, k, r: {"faces": len(r)}),
    ("oscillab.nondegen", "check_R_nondegenerate",
     lambda a, k, r: {"starts": int(r.starts), "degenerate": bool(r.degenerate)}),
    ("oscillab.rlct", "rlct_newton_candidate", None),
    ("oscillab.quad", "oscillatory_profile",
     lambda a, k, r: {"t_values": int(np.size(_arg(a, k, 0, "ts")))}),
    ("oscillab.quad", "chart_parity_integral", lambda a, k, r: _converged(r)),
    ("oscillab.quad", "eval_oscillatory",
     lambda a, k, r: dict(_converged(r), tau=float(_arg(a, k, 2, "tau")))),
    ("oscillab.quad", "adaptive_complex_quad",
     lambda a, k, r: {"panels": int(r[2]), "converged": bool(r[3])}),
    ("oscillab.fit", "fit_leading", lambda a, k, r: {"converged": bool(r.converged)}),
    ("oscillab.fit", "coefficient_at", None),
    ("oscillab.experiments", "run_theorem3_lab", None),
    ("oscillab.experiments", "run_theorem2_battery", None),
    ("oscillab.reports", "canonical_json",
     lambda a, k, r: {"bytes": len(r.encode("utf-8"))}),
]

# Called too often for a span each: counted only.
COUNTED = [("oscillab.poly", "Polynomial.evaluate")]

BUDGET_ERROR = "QuadratureBudgetError"


def _short(module: str, attr: str) -> str:
    return module.split(".", 1)[1] + "." + attr


class Tracer:
    """Spans and counters for calls into the package's public functions."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def _span_wrapper(self, name, fn, extract):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(tracer.spans), "name": name,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "start": time.perf_counter(), "end": None}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if extract is not None:
                span.update(extract(args, kwargs, result))
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Swap wrappers in for every traced name, and restore them on exit."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "oscillab" or key.startswith("oscillab."))]
        swaps = []
        try:
            for module_name, attr, extract in SPANNED:
                module = sys.modules.get(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._span_wrapper(_short(module_name, attr), original, extract)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            swaps.append((m, key, original))
                            setattr(m, key, wrapper)
            for module_name, path in COUNTED:
                owner_name, attr = path.split(".")
                owner = getattr(sys.modules.get(module_name), owner_name, None)
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is None:
                    continue
                swaps.append((owner, attr, original))
                setattr(owner, attr, self._count_wrapper(_short(module_name, path), original))
            yield self
        finally:
            for owner, key, original in reversed(swaps):
                setattr(owner, key, original)


def self_times(spans):
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for a, b in sorted(children[s["id"]]):
            lo, hi = max(a, reach), min(b, s["end"])
            if hi > lo:
                covered += hi - lo
            reach = max(reach, b)
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _outermost(spans, name):
    """Spans of ``name`` not nested inside another span of the same name."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] != name:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def _loglog_slope(xs, ys):
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    lx = np.array([x for x, _ in pts])
    ly = np.array([y for _, y in pts])
    return float(np.polyfit(lx, ly, 1)[0])


def layer_metrics(spans, counts, cycles: int, overhead_ratio: float) -> dict:
    """Per-layer metrics per traced cycle, named ``<module>.<function>.<stat>``."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def calls(name):
        return len(by_name[name])

    def incl(name):
        return sum(s["end"] - s["start"] for s in _outermost(spans, name))

    def self_s(name):
        return sum(selfs[s["id"]] for s in by_name[name])

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    by_id = {s["id"]: s for s in spans}
    budget = [s for s in spans if s.get("error") == BUDGET_ERROR
              and (s["parent"] is None or by_id[s["parent"]].get("error") != BUDGET_ERROR)]
    nonconv = sum(1 for n in ("quad.eval_oscillatory", "quad.chart_parity_integral")
                  for s in by_name[n] if s.get("converged") is False)
    ev = [s for s in by_name["quad.eval_oscillatory"] if "error" not in s]
    fits = by_name["fit.fit_leading"]
    starts = total("nondegen.check_R_nondegenerate", "starts")
    raw = {
        "quad.oscillatory_profile.calls": (calls("quad.oscillatory_profile"), "count"),
        "quad.oscillatory_profile.t_values": (total("quad.oscillatory_profile", "t_values"), "count"),
        "quad.oscillatory_profile.s": (incl("quad.oscillatory_profile"), "s"),
        "quad.chart_parity_integral.calls": (calls("quad.chart_parity_integral"), "count"),
        "quad.chart_parity_integral.self_s": (self_s("quad.chart_parity_integral"), "s"),
        "quad.eval_oscillatory.calls": (calls("quad.eval_oscillatory"), "count"),
        "quad.eval_oscillatory.self_s": (self_s("quad.eval_oscillatory"), "s"),
        "quad.adaptive_complex_quad.calls": (calls("quad.adaptive_complex_quad"), "count"),
        "quad.adaptive_complex_quad.panels": (total("quad.adaptive_complex_quad", "panels"), "count"),
        "quad.adaptive_complex_quad.s": (incl("quad.adaptive_complex_quad"), "s"),
        "quad.budget_errors": (len(budget), "count"),
        "quad.budget_error_s": (sum(s["end"] - s["start"] for s in budget), "s"),
        "quad.nonconverged": (nonconv, "count"),
        "polytope.build_polytope.calls": (calls("polytope.build_polytope"), "count"),
        "polytope.build_polytope.s": (incl("polytope.build_polytope"), "s"),
        "polytope.compact_faces.calls": (calls("polytope.compact_faces"), "count"),
        "polytope.compact_faces.s": (incl("polytope.compact_faces"), "s"),
        "polytope.facets": (total("polytope.build_polytope", "facets"), "count"),
        "polytope.faces": (total("polytope.compact_faces", "faces"), "count"),
        "nondegen.check_R_nondegenerate.calls": (calls("nondegen.check_R_nondegenerate"), "count"),
        "nondegen.check_R_nondegenerate.s": (incl("nondegen.check_R_nondegenerate"), "s"),
        "nondegen.starts": (starts, "count"),
        "nondegen.degenerate": (total("nondegen.check_R_nondegenerate", "degenerate"), "count"),
        "rlct.rlct_newton_candidate.calls": (calls("rlct.rlct_newton_candidate"), "count"),
        "rlct.rlct_newton_candidate.self_s": (self_s("rlct.rlct_newton_candidate"), "s"),
        "fit.fit_leading.calls": (calls("fit.fit_leading"), "count"),
        "fit.fit_leading.s": (incl("fit.fit_leading"), "s"),
        "fit.coefficient_at.calls": (calls("fit.coefficient_at"), "count"),
        "fit.coefficient_at.s": (incl("fit.coefficient_at"), "s"),
        "experiments.run_theorem3_lab.self_s": (self_s("experiments.run_theorem3_lab"), "s"),
        "experiments.run_theorem2_battery.self_s": (self_s("experiments.run_theorem2_battery"), "s"),
        "reports.canonical_json.s": (incl("reports.canonical_json"), "s"),
        "reports.bytes": (total("reports.canonical_json", "bytes"), "B"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "poly.parse.s": (incl("poly.parse"), "s"),
        "poly.Polynomial.evaluate.calls": (counts.get("poly.Polynomial.evaluate", 0), "count"),
        "trace.spans": (len(spans), "count"),
    }
    out = {k: {"value": v / cycles, "unit": u} for k, (v, u) in raw.items()}
    # ratios and slopes are not per-cycle totals
    nd_s = raw["nondegen.check_R_nondegenerate.s"][0]
    out["nondegen.s_per_start"] = {"value": nd_s / starts if starts else 0.0, "unit": "s"}
    out["fit.converged_ratio"] = {
        "value": sum(1 for s in fits if s.get("converged")) / len(fits) if fits else 0.0,
        "unit": "ratio"}
    out["quad.eval_oscillatory.tau_slope"] = {
        "value": _loglog_slope([s["tau"] for s in ev], [s["end"] - s["start"] for s in ev]),
        "unit": "1"}
    out["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
    return out


def module_split(spans) -> dict:
    """Self time summed per package module, e.g. {"quad": 9.8, "cli": 0.1}."""
    selfs = self_times(spans)
    split = defaultdict(float)
    for s in spans:
        split[s["name"].split(".", 1)[0]] += selfs[s["id"]]
    return dict(sorted(split.items()))
