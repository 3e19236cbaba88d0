"""Command-line front end.

Subcommands: polytope, rlct, oscillate, fit, theorem2-battery, theorem3-lab,
report.  Each takes exactly the flags it reads (see ``oscillab COMMAND -h``);
any other flag is a usage error, and so is a flag that the chosen route does
not read: ``fit --input`` takes no phase, amplitude or sampling flag, the
resolution route of ``rlct`` no --phase or --dim, and its polytope routes no
--resolution-data.  The same flags may also be given as keys of
a key=value config file (--config); explicit flags override file values.
Exit codes: 0 complete, 1 usage error, 2 numerical non-convergence,
3 hypothesis failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from ._version import __version__
from .bump import CutoffFunction, TestFunction
from .experiments import (
    ExperimentConfig,
    HypothesisError,
    run_theorem2_battery,
    run_theorem3_lab,
)
from .fit import fit_leading, geometric_grid
from .poly import ParseError, parse
from .quad import QuadratureBudgetError, eval_oscillatory_series
from .reports import canonical_json, export_report, sample_row, samples_from_csv
from .rlct import (
    gamma_from_resolution,
    load_resolution_data,
    rlct_homogeneous,
    rlct_newton_candidate,
    RlctReport,
)
from .polytope import newton_polytope

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONCONVERGED = 2
EXIT_HYPOTHESIS = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# the argparse options of every flag; _COMMANDS says which command takes which
_FLAG_OPTIONS = {
    "phase": dict(help="phase polynomial, e.g. 'x1^4 + x2^4'"),
    "dim": dict(type=int, help="ambient dimension n"),
    "nu": dict(help="amplitude monomial exponents, comma separated"),
    "shape": dict(choices=["product", "radial"], help="amplitude shape"),
    "cutoff": dict(help="cutoff radii a,b (1 on [-a,a], 0 outside (-b,b))"),
    "tau-min": dict(type=float),
    "tau-max": dict(type=float),
    "tau-count": dict(type=int),
    "tol": dict(type=float, help="quadrature tolerance per sample"),
    "seed": dict(type=int, help="seed for randomized searches"),
    "method": dict(choices=["homogeneous", "candidate", "resolution"]),
    "resolution-data": dict(help="JSON file: [{\"m\": int, \"k\": int}, ...]"),
    "input": dict(help="input file (samples CSV or report JSON)"),
    "out": dict(help="output directory"),
    "format": dict(choices=["json", "csv", "md"]),
}


def _build_parser():
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(prog="oscillab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value file mirroring the flags")
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAG_OPTIONS[flag])
    return parser, sub.choices


_DEFAULTS = {
    "dim": 2,
    "nu": "0,0",
    "cutoff": "1,2",
    "shape": "product",
    "tau_min": 1e2,
    "tau_max": 1e4,
    "tau_count": 24,
    "tol": 1e-10,
    "seed": 0,
    "format": "json",
}


def _load_config_file(path: str):
    """Yield (line number, key, value) for each key = value line of a config file."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            yield lineno, key.replace("-", "_"), value


def _config_value(action: argparse.Action, text: str):
    """A config-file value through its flag's own argparse type and choices."""
    value = action.type(text) if action.type else text
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"choose from {', '.join(map(str, action.choices))}")
    return value


def _resolve(args: argparse.Namespace, command_parser: argparse.ArgumentParser):
    """The merged options (explicit flags over config-file values over built-in
    defaults) and the options given as a flag or a config-file key."""
    given = {}
    if getattr(args, "config", None):
        actions = {a.dest: a for a in command_parser._actions}
        for lineno, key, text in _load_config_file(args.config):
            where = f"{args.config}:{lineno}"
            if key in ("command", "config") or key not in vars(args):
                raise UsageError(f"{where}: unknown key {key!r} for {args.command}")
            try:
                given[key] = _config_value(actions[key], text)
            except (TypeError, ValueError) as exc:
                flag = actions[key].option_strings[0]
                raise UsageError(f"{where}: invalid value {text!r} for {flag}: {exc}") from None
    given.update((key, value) for key, value in vars(args).items()
                 if key not in ("command", "config") and value is not None)
    return {**_DEFAULTS, **given}, given


def _check_route(command: str, given: dict):
    """Reject a flag that the route the command takes would not read."""
    method = given.get("method")
    if command == "fit" and "input" in given:
        route, ignored = "--input", "phase nu shape cutoff tau_min tau_max tau_count tol"
    elif command == "rlct" and method in ("homogeneous", "candidate"):
        route, ignored = f"--method {method}", "resolution_data"
    elif command == "rlct" and (method == "resolution" or "resolution_data" in given):
        route, ignored = "the resolution route", "phase dim"
    else:
        return
    bad = [f"--{key.replace('_', '-')}" for key in ignored.split() if key in given]
    if bad:
        raise UsageError(f"{' '.join(bad)} cannot be used with {route}")


def _ints(text: str) -> tuple:
    return tuple(int(p) for p in str(text).replace(",", " ").split())


def _floats(text: str) -> tuple:
    return tuple(float(p) for p in str(text).replace(",", " ").split())


def _require(opts: dict, key: str):
    if not opts.get(key):
        raise UsageError(f"--{key.replace('_', '-')} is required for this command")


class UsageError(ValueError):
    pass


def _emit(text: str, opts: dict, filename: str):
    if opts.get("out"):
        os.makedirs(opts["out"], exist_ok=True)
        path = os.path.join(opts["out"], filename)
        with open(path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _make_amplitude(opts: dict) -> TestFunction:
    a, b = _floats(opts["cutoff"])
    return TestFunction(nu=_ints(opts["nu"]), cutoff=CutoffFunction(a, b),
                        shape=opts["shape"])


def _experiment_config(opts: dict) -> ExperimentConfig:
    a, b = _floats(opts["cutoff"])
    keys = ("dim", "tau_min", "tau_max", "tau_count", "tol", "seed")
    return ExperimentConfig(cutoff=(a, b), **{key: opts[key] for key in keys})


def _cmd_polytope(opts: dict) -> int:
    _require(opts, "phase")
    f = parse(opts["phase"], opts["dim"])
    poly = newton_polytope(f)
    _emit(canonical_json(poly.to_json_dict()), opts, "polytope.json")
    return EXIT_OK


def _cmd_rlct(opts: dict) -> int:
    method = opts.get("method")
    if opts.get("resolution_data") and not method:
        method = "resolution"
    if method == "resolution":
        _require(opts, "resolution_data")
        with open(opts["resolution_data"]) as fh:
            data = load_resolution_data(fh.read())
        report = RlctReport(value=gamma_from_resolution(data), method="resolution")
    else:
        _require(opts, "phase")
        f = parse(opts["phase"], opts["dim"])
        try:
            if method == "homogeneous" or (method is None and f.homogeneous_degree() is not None):
                report = rlct_homogeneous(f)
            else:
                report = rlct_newton_candidate(f)
        except ValueError as exc:
            print(f"hypothesis failure: {exc}", file=sys.stderr)
            return EXIT_HYPOTHESIS
    _emit(canonical_json(report.to_json_dict()), opts, "rlct.json")
    return EXIT_OK


def _cmd_oscillate(opts: dict) -> int:
    _require(opts, "phase")
    f = parse(opts["phase"], opts["dim"])
    phi = _make_amplitude(opts)
    taus = geometric_grid(opts["tau_min"], opts["tau_max"], opts["tau_count"])
    samples = eval_oscillatory_series(f, phi, taus, tol=opts["tol"])
    payload = {
        "kind": "oscillate",
        "version": __version__,
        "config": dict(
            {key: opts[key] for key in ("phase", "dim", "tau_min", "tau_max", "tau_count", "tol")},
            nu=phi.nu, shape=phi.shape, cutoff=(phi.cutoff.a, phi.cutoff.b),
        ),
        "samples": [sample_row(s) for s in samples],
    }
    _emit(export_report(payload, opts["format"]), opts, f"samples.{opts['format']}")
    return EXIT_OK if all(s.converged for s in samples) else EXIT_NONCONVERGED


def _cmd_fit(opts: dict) -> int:
    nonconverged = False  # samples read from a CSV keep the exit code of the fit alone
    if opts.get("input"):
        with open(opts["input"]) as fh:
            samples = samples_from_csv(fh.read())
        n_ambient = opts["dim"]
    else:
        _require(opts, "phase")
        f = parse(opts["phase"], opts["dim"])
        phi = _make_amplitude(opts)
        taus = geometric_grid(opts["tau_min"], opts["tau_max"], opts["tau_count"])
        samples = eval_oscillatory_series(f, phi, taus, tol=opts["tol"])
        n_ambient = f.n
        nonconverged = not all(s.converged for s in samples)
    est = fit_leading(samples, n_ambient=n_ambient)
    _emit(canonical_json(est.to_json_dict()), opts, "fit.json")
    return EXIT_OK if est.converged and not nonconverged else EXIT_NONCONVERGED


def _cmd_battery(opts: dict) -> int:
    report = run_theorem2_battery(config=_experiment_config(opts))
    _emit(export_report(report, opts["format"]), opts, f"battery.{opts['format']}")
    if any(row["status"] == "indeterminate" for row in report.rows):
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_lab(opts: dict) -> int:
    _require(opts, "phase")
    report = run_theorem3_lab(opts["phase"], _experiment_config(opts))
    _emit(export_report(report, opts["format"]), opts, f"theorem3.{opts['format']}")
    fits = (report.symmetric_fit, report.generic_fit)
    rows = report.series["symmetric"] + report.series["generic"]
    if not all(fit["converged"] for fit in fits) or not all(r["converged"] for r in rows):
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_report(opts: dict) -> int:
    _require(opts, "input")
    with open(opts["input"]) as fh:
        payload = json.load(fh)
    _emit(export_report(payload, opts["format"]), opts, f"report.{opts['format']}")
    return EXIT_OK


# Each command's handler and exactly the flags it reads (_FLAG_OPTIONS).  Every
# command also takes --config, a key = value file whose keys are the same flags.
_COMMANDS = {
    "polytope": (_cmd_polytope, "phase dim out"),
    "rlct": (_cmd_rlct, "phase dim method resolution-data out"),
    "oscillate": (_cmd_oscillate,
                  "phase dim nu shape cutoff tau-min tau-max tau-count tol out format"),
    "fit": (_cmd_fit, "input phase dim nu shape cutoff tau-min tau-max tau-count tol out"),
    "theorem2-battery": (_cmd_battery, "cutoff tau-min tau-max tau-count tol out format"),
    "theorem3-lab": (_cmd_lab,
                     "phase dim cutoff tau-min tau-max tau-count tol seed out format"),
    "report": (_cmd_report, "input out format"),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts, given = _resolve(args, commands[args.command])
        _check_route(args.command, given)
        return _COMMANDS[args.command][0](opts)
    except (UsageError, ParseError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisError as exc:
        print(f"hypothesis failure [{exc.check}]: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except QuadratureBudgetError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
