"""Record the reference values the checks compare against.

    python3 perfbench/record.py

Writes perfbench/reference.json: the lab's claim verdicts for every phase
the lab generator can emit, and the exact value, parity data and flags of
``rlct --method candidate`` for every support the geometry generator can
emit.  Run it only on the commit whose outputs define the reference; a
change that alters these outputs must not re-record them.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from oscillab import cli  # noqa: E402
from oscillab.poly import parse  # noqa: E402
from oscillab.rlct import rlct_newton_candidate  # noqa: E402


def lab_reference() -> dict:
    phase = workloads.LAB_PHASE
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["theorem3-lab", "--phase", phase, "--seed", "0"])
    if rc != 0:
        raise SystemExit(f"theorem3-lab {phase!r} exited with {rc}")
    verdicts = checks.lab_verdicts(json.loads(buf.getvalue()))
    print(phase, verdicts, flush=True)
    return {phase: verdicts}


def geometry_supports() -> dict:
    """Every support the geometry generator emits, with one phase for each.

    The seed only permutes variables and draws coefficients, so a few
    thousand seeds reach every permutation of every template.
    """
    seen = {}
    for seed in range(4000):
        for item in workloads.geometry_items(seed):
            f = parse(item.meta["phase"], item.meta["n"])
            seen.setdefault(checks.support_key(f.support), item.meta)
    return seen


def geometry_reference() -> dict:
    out = {}
    for key, meta in sorted(geometry_supports().items()):
        rep = rlct_newton_candidate(parse(meta["phase"], meta["n"]), nondegen_opts=None)
        d = rep.to_json_dict()
        out[key] = {"value": d["value"], "parity": d["parity"], "flags": d["flags"]}
    print(f"{len(out)} geometry supports", flush=True)
    return out


def main() -> int:
    ref = {"lab": lab_reference(), "geometry": geometry_reference()}
    with open(checks.REFERENCE_FILE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
