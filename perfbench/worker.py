"""One run of one workload, in a process of its own.

Started by run.py.  The process imports the package from the checkout's
``src``, builds the seeded items, warms up, and reports its set-up time as
the span from ``--t0`` (a CLOCK_MONOTONIC reading taken by the parent just
before it started this process) to the first timed call.  It then repeats
the workload's cycle of items until ``--seconds`` have passed, closed loop:
each item starts when the previous one has returned.  Speed probes run
between cycles so that each cycle's wall time can be scaled to the reference
host speed.  With ``--trace 1`` untraced and traced cycles alternate; only
untraced cycles give ``wall_s`` and ``wall_ref_s``.  Outputs are checked
after the timed part, and the result is printed as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_item(name, item, outcome, reference):
    """Problems with one completed item's output, against its reference."""
    import checks
    from oscillab.bump import CutoffFunction, TestFunction
    from oscillab.poly import parse
    from oscillab.quad import eval_oscillatory, radial_reduce

    eta = CutoffFunction(1.0, 2.0)
    report = json.loads(outcome.text)
    if name == "lab":
        recorded = reference["lab"].get(item.meta["phase"])
        return checks.lab_problems(report, item.meta, recorded)
    if name == "battery":
        spot = []
        for phase, nu, _ in item.meta["fixtures"]:
            phi = TestFunction(nu=nu, cutoff=eta)
            got = eval_oscillatory(parse(phase, 2), phi, 100.0, tol=1e-10).value
            spot.append((got, checks.battery_spot_reference(phase, nu, 100.0, eta)))
        return checks.battery_problems(report, item.meta["fixtures"], spot)
    if name == "mixed":
        phase = item.meta["phase"]
        taus = [s["tau"] for s in report["samples"]]
        if item.meta["check"] == "dense":
            refs = [(taus[0], checks.tensor_reference(phase, taus[0], eta))]
        elif item.meta["check"] == "radial":
            phi = TestFunction(nu=(0, 0), cutoff=eta, shape="radial")
            f = parse(phase, 2)
            refs = [(t, radial_reduce(f, phi, t, tol=1e-11).value) for t in taus]
        else:
            # past the budget today; if it ever completes, its samples must
            # at least converge and stay below the amplitude's L1 norm
            return checks.mixed_problems(report, [], bound=checks.product_l1(eta, 2))
        return checks.mixed_problems(report, refs)
    f = parse(item.meta["phase"], item.meta["n"])
    recorded = reference["geometry"].get(checks.support_key(f.support))
    return checks.geometry_problems(report, f.support, recorded)


# Time of one speed probe on the reference box in a quiet stretch (see README).
PROBE_REF_S = 0.05


def speed_probe() -> float:
    """Seconds for a fixed piece of interpreter, Fraction, special-function and
    vector work that uses no oscillab code: the host's current speed."""
    import numpy as np
    from fractions import Fraction
    from scipy.special import spherical_jn

    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 2500):
        acc += Fraction(i % 7 + 1, i)
    total = 0
    for i in range(150_000):
        total += i * i % 7
    # arrays stay well under a megabyte, so peak_rss_mb remains the workload's
    x = np.linspace(0.1, 200.0, 20_000)
    for k in range(8):
        spherical_jn(k, x)
    for _ in range(50):
        np.exp(1j * x).sum()
    return time.perf_counter() - start


def _run_cycles(items, seconds, trace):
    """Closed loop over the cycle for about ``seconds``; returns cycles and tracer.

    Each cycle is a (wall time, outcomes, probe time) triple; the probe time
    is the median of the two speed probes run before and the two run after
    it.  A further cycle starts only if it is expected to end less than half
    a cycle past ``seconds``, so runs stay near their nominal length.
    """
    from tracing import Tracer
    from workloads import run_item

    tracer = Tracer() if trace else None
    plain, traced = [], []
    probes = [speed_probe(), speed_probe()]
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        if use_trace:
            with tracer.installed():
                outs = [run_item(it) for it in items]
        else:
            outs = [run_item(it) for it in items]
        probes += [speed_probe(), speed_probe()]
        wall = sum(o.seconds for o in outs)
        (traced if use_trace else plain).append((wall, outs, statistics.median(probes[-4:])))
        elapsed = time.perf_counter() - start
        typical = statistics.median(w for w, _, _ in plain + traced)
        if plain and (traced or not trace) and elapsed + 0.5 * typical >= seconds:
            return plain, traced, tracer


def _item_times(cycles, stat) -> list:
    """``stat`` of each item's times over the cycles."""
    return [stat(times) for times in zip(*[[o.seconds for o in outs] for _, outs, _ in cycles])]


def _wall_ref(cycles) -> float:
    """Median over the cycles of the cycle's wall time at the reference speed.

    Other tenants of the host slow every workload by 25-80% for tens of
    seconds at a time; scaling each cycle by the speed probes around it
    removes that drift, which no statistic of raw times within a run can.
    """
    return statistics.median(w * PROBE_REF_S / p for w, _, p in cycles)


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    items = wl.items(args.seed)
    with contextlib.redirect_stdout(io.StringIO()):
        wl.warmup()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    plain, traced, tracer = _run_cycles(items, args.seconds, args.trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = checks.load_reference()
    first = plain[0][1]
    digests = {it.label: _digest(o.text) for it, o in zip(items, first) if o.rc == 0}
    problems = {}
    attempted = failed = known = completed = mismatched = 0
    for _, outs, _ in plain + traced:
        for it, o in zip(items, outs):
            attempted += 1
            if o.rc == 0:
                completed += 1
                if it.label not in problems:
                    problems[it.label] = _check_item(args.workload, it, o, reference)
                if _digest(o.text) != digests.get(it.label):
                    problems[it.label].append("output differs between cycles")
                mismatched += bool(problems[it.label])
            elif it.meta.get("check") == "budget" and checks.is_budget_failure(o.rc, o.stderr):
                known += 1
            else:
                failed += 1
                problems.setdefault(it.label, []).append(
                    f"exit code {o.rc}: {o.stderr.strip().splitlines()[-1:] or ''}")

    import numpy
    import scipy

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": {
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "why": wl.why,
        "items": [it.label for it in items],
        "item_min_s": _item_times(plain, min),
        "item_median_s": _item_times(plain, statistics.median),
        "setup_s": setup_s,
        "wall_s": statistics.median(w for w, _, _ in plain),
        "wall_ref_s": _wall_ref(plain),
        "cycle_s": [w for w, _, _ in plain],
        "probe_s": [p for _, _, p in plain],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "known_failures": known,
        "completed": completed,
        "mismatched": mismatched,
        "problems": {k: v for k, v in problems.items() if v},
        "digests": digests,
    }
    if args.workload == "geometry":
        labels = [it.meta["degenerate"] for it in items]
        verdicts = [not json.loads(o.text)["flags"].get("likely_R_nondegenerate", True)
                    for o in first if o.rc == 0]
        result["degenerate_share"] = {
            "generated": sum(labels) / len(labels),
            "verdict": sum(verdicts) / len(verdicts) if verdicts else 0.0,
        }
    if args.trace:
        import tracing

        traced_s = statistics.median(w for w, _, _ in traced)
        result["layer"] = tracing.layer_metrics(
            tracer.spans, tracer.counts, len(traced),
            _wall_ref(traced) / result["wall_ref_s"] - 1.0)
        result["split"] = {k: v / len(traced) for k, v in tracing.module_split(tracer.spans).items()}
        result["traced_s"] = traced_s
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
