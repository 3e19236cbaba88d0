"""Benchmark for oscillab: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lab --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22

``--trace 0`` prints the end-to-end metrics (wall_ref_s, setup_s, peak_rss_mb);
``--trace 1`` prints the per-layer metrics from a traced run.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give every metric with its unit,
the unscaled wall_s, fail_ratio, mismatch_ratio and the SHA-256 of every
report the workload wrote.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"     # full results, digests and spans of each run
WORKLOADS = ("lab", "battery", "mixed", "geometry")
SETUP_PROBES = 4          # extra set-up-only processes per run; setup_s is the median
DEADLINE_S = 170.0        # a run ends well inside 180 s
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _worker(args, deadline, setup_only=False) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    timeout = deadline - time.monotonic()
    argv += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(argv, cwd=ROOT, env=_worker_env(), capture_output=True,
                          text=True, timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args) -> dict:
    """One run of one workload; returns the worker's result plus setup samples."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        setups = [_worker(args, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    res = _worker(args, deadline)
    res["setup_samples"] = setups + [res["setup_s"]]
    res["setup_s"] = statistics.median(res["setup_samples"])
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
    return res


def _ratio(num, den):
    return num / den if den else 0.0


def report(res, trace: int) -> dict:
    """Print the human-readable lines and return the final result object."""
    w = res["workload"]
    fail_ratio = _ratio(res["failed"] + res["known_failures"], res["attempted"])
    mismatch_ratio = _ratio(res["mismatched"], res["completed"])
    print(f"workload {w} (seed {res['seed']}): {res['why']}")
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in res["environment"].items()))
    for label, best, med in zip(res["items"], res["item_min_s"], res["item_median_s"]):
        print(f"  item: {label} (fastest {best:.4f} s, median {med:.4f} s)")
    print(f"  cycles: {len(res['cycle_s'])} untraced, "
          f"cycle times {[round(c, 4) for c in res['cycle_s']]} s, "
          f"speed probes {[round(p, 4) for p in res['probe_s']]} s")
    print(f"  {w}.wall_s = {res['wall_s']:.6g} s (median untraced cycle, not scaled)")
    if trace:
        metrics = res["layer"]
        for name, m in sorted(metrics.items()):
            print(f"  {w}.{name} = {m['value']:.6g} {m['unit']}")
        wall = res["traced_s"]
        print(f"  {w}.split (module self time / traced cycle): "
              + ", ".join(f"{k} {v / wall:.3f}" for k, v in res["split"].items()))
        prof = metrics["quad.oscillatory_profile.s"]["value"]
        print(f"  {w}.oscillatory_profile share of traced cycle: {prof / wall:.3f}")
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
        for name, m in metrics.items():
            print(f"  {w}.{name} = {m['value']:.6g} {m['unit']}")
        print(f"  {w}.setup_samples = {[round(s, 4) for s in res['setup_samples']]} s")
    print(f"  {w}.fail_ratio = {fail_ratio:.6g} ratio "
          f"({res['failed']} failed + {res['known_failures']} known budget failures "
          f"of {res['attempted']} items)")
    print(f"  {w}.mismatch_ratio = {mismatch_ratio:.6g} ratio "
          f"({res['mismatched']} of {res['completed']} completed items)")
    if "degenerate_share" in res:
        print(f"  {w}.degenerate_share = {res['degenerate_share']}")
    for label, sha in res["digests"].items():
        print(f"  sha256 {sha} {label}")
    for label, probs in res["problems"].items():
        for p in probs:
            print(f"  PROBLEM {label}: {p}")
    return {
        "correct": res["mismatched"] == 0 and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "oscillab" / "__init__.py").is_file():
        print(f"error: no oscillab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = report(run_workload(argparse.Namespace(**dict(
                vars(args), workload=name))), args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = results[names[0]] if len(names) == 1 else results
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
