import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from itertools import takewhile
from pathlib import Path

import pytest

from oscillab import cli, experiments
from oscillab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_polytope_command(capsys):
    code, out, _ = run(capsys, "polytope", "--phase", "x1^2 + x2^4", "--dim", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["facets"][0]["weights"] == ["1/2", "1/4"]
    assert payload["facets"][0]["dj"] == 4
    assert payload["facets"][0]["rj"] == 3


def test_polytope_requires_phase(capsys):
    code, _, err = run(capsys, "polytope")
    assert code == 1
    assert "phase" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_bad_phase_is_usage_error(capsys):
    code, _, err = run(capsys, "polytope", "--phase", "x1 + $", "--dim", "2")
    assert code == 1


def test_rlct_homogeneous(capsys):
    code, out, _ = run(capsys, "rlct", "--phase", "x1^4 + x2^4", "--dim", "2",
                       "--method", "homogeneous")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1/2"
    assert payload["method"] == "homogeneous"


def test_rlct_homogeneous_on_an_indefinite_phase(capsys):
    # x1^2 + x2^2 - x3^2 vanishes on a cone: the threshold is 1, not n/d = 3/2
    code, out, _ = run(capsys, "rlct", "--phase", "x1^2 + x2^2 - x3^2", "--dim", "3",
                       "--method", "homogeneous")
    payload = json.loads(out)
    assert code == 0 and payload["value"] == "1"
    assert payload["flags"]["sign_change_certified"]


def test_rlct_candidate_on_the_dense_4d_sextic(capsys):
    # 84 support points, one facet: the facets come from double description
    code, out, _ = run(capsys, "rlct", "--phase", "(x1 + x2 + x3 + x4)^6", "--dim", "4",
                       "--method", "candidate")
    assert code == 0
    assert json.loads(out)["value"] == "2/3"


def test_rlct_non_convenient_is_hypothesis_failure(capsys):
    code, _, err = run(capsys, "rlct", "--phase", "x1*x2", "--dim", "2")
    assert code == 3
    assert "hypothesis" in err


def test_rlct_resolution_data(capsys, tmp_path):
    data = tmp_path / "res.json"
    data.write_text('[{"m": 4, "k": 1}, {"m": 2, "k": 3}]')
    code, out, _ = run(capsys, "rlct", "--resolution-data", str(data))
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1/2"
    assert payload["method"] == "resolution"


@pytest.mark.parametrize("payload", ['[{"m": 4}]', '{"m": 4, "k": 1}'])
def test_rlct_malformed_resolution_data_is_usage_error(capsys, tmp_path, payload):
    data = tmp_path / "res.json"
    data.write_text(payload)
    code, _, err = run(capsys, "rlct", "--resolution-data", str(data))
    assert code == 1
    assert "usage error" in err and "resolution data" in err
    assert "Traceback" not in err


def test_oscillate_csv_header_and_precision(capsys):
    code, out, _ = run(
        capsys, "oscillate", "--phase", "x1^2 + x2^2", "--dim", "2",
        "--tau-min", "100", "--tau-max", "1000", "--tau-count", "8",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tau,re,im,abs,err"
    assert len(lines) == 9
    # 17-significant-digit floats round-trip
    cells = lines[1].split(",")
    assert float(cells[0]) == 100.0
    assert len(cells) == 5


def test_fit_from_oscillate_csv_round_trip(capsys, tmp_path):
    code, out, _ = run(
        capsys, "oscillate", "--phase", "x1^2 + x2^2", "--dim", "2",
        "--tau-min", "100", "--tau-max", "10000", "--tau-count", "12",
        "--format", "csv",
    )
    assert code == 0
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text(out)
    code, out, _ = run(capsys, "fit", "--input", str(csv_path), "--dim", "2")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"alpha_hat", "k_hat", "coeff_hat", "residual",
                            "noise_floor", "converged", "window", "all_below_noise"}
    assert payload["converged"] is True
    assert abs(payload["alpha_hat"] + 1.0) < 0.01
    assert abs(payload["coeff_hat"][1] - 3.14159) < 0.01


def test_fit_below_noise_is_nonconvergence(capsys, tmp_path):
    lines = ["tau,re,im,abs,err"]
    for i in range(10):
        tau = 10.0 * 2**i
        lines.append(f"{tau},1e-18,0,1e-18,1e-10")
    csv_path = tmp_path / "noise.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "fit", "--input", str(csv_path))
    assert code == 2
    assert json.loads(out)["all_below_noise"] is True


def test_fit_with_nonconverged_samples_exits_2(capsys):
    # no sample meets tol = 1e-17; the fit alone would read as converged
    argv = ["--phase", "x1^4 + x2^4", "--tau-min", "100", "--tau-max", "1000",
            "--tau-count", "8", "--tol", "1e-17"]
    code, out, _ = run(capsys, "oscillate", *argv, "--format", "json")
    assert code == 2
    assert not any(s["converged"] for s in json.loads(out)["samples"])
    code, out, _ = run(capsys, "fit", *argv)
    assert code == 2
    assert "alpha_hat" in json.loads(out)


def test_missing_input_file_is_usage_error(capsys):
    code, _, _ = run(capsys, "fit", "--input", "/nonexistent/samples.csv")
    assert code == 1


def test_lab_hypothesis_failure_exit_code(capsys):
    code, _, err = run(capsys, "theorem3-lab", "--phase", "x1^2 + x2^4", "--dim", "2")
    assert code == 3
    assert "homogeneous" in err


def test_lab_with_nonconverged_samples_exits_2(capsys, monkeypatch):
    # one chart-sum sample that misses tol makes its row, and the fit that
    # keeps it, non-converged; the generic series and its fit converge
    chart = experiments.chart_parity_integral
    calls = []

    def first_call_misses(*args, **kwargs):
        calls.append(None)
        sample = chart(*args, **kwargs)
        return replace(sample, converged=False) if len(calls) == 1 else sample

    monkeypatch.setattr(experiments, "chart_parity_integral", first_call_misses)
    code, out, _ = run(capsys, "theorem3-lab", "--phase", "x1^4 + x2^4", "--tau-min", "100",
                       "--tau-max", "1000", "--tau-count", "8")
    report = json.loads(out)
    assert [row["converged"] for row in report["series"]["symmetric"]].count(False) == 1
    assert not report["symmetric_fit"]["converged"]
    assert all(row["converged"] for row in report["series"]["generic"])
    assert report["generic_fit"]["converged"]
    assert code == 2


def test_lab_on_an_indefinite_phase_exits_0(capsys):
    # x1^4 - x2^4 vanishes on the lines x2 = +-x1, inside both blowup charts
    code, out, _ = run(capsys, "theorem3-lab", "--phase", "x1^4 - x2^4")
    report = json.loads(out)
    assert not report["hypothesis_checks"]["zero_locus_origin_only"]
    assert all(row["converged"] for rows in report["series"].values() for row in rows)
    assert code == 0


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "phase = x1^2 + x2^4   # mixed-degree fixture\n"
        "dim = 2\n"
    )
    code, out, _ = run(capsys, "polytope", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["facets"][0]["weights"] == ["1/2", "1/4"]
    # the explicit flag wins over the file value
    code, out, _ = run(capsys, "polytope", "--config", str(cfg),
                       "--phase", "x1^4 + x2^4")
    assert code == 0
    assert json.loads(out)["facets"][0]["weights"] == ["1/4", "1/4"]


def test_config_file_unknown_key_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("phase = x1^2 + x2^2\ntau_mn = 500\n")
    code, out, err = run(capsys, "oscillate", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert "tau_mn" in err and ":2:" in err


def test_out_directory_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["oscillate", "--phase", "x1^4 + x2^4", "--dim", "2",
            "--tau-min", "100", "--tau-max", "1000", "--tau-count", "8",
            "--format", "csv"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    b1 = (out1 / "samples.csv").read_bytes()
    b2 = (out2 / "samples.csv").read_bytes()
    assert b1 == b2 and len(b1) > 0


def test_report_command_renders_markdown(capsys, tmp_path):
    payload = {
        "kind": "demo",
        "config": {"dim": 2},
        "claims": [{"name": "c1", "verdict": "supports", "statement": "ok"}],
    }
    src = tmp_path / "in.json"
    src.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "report", "--input", str(src), "--format", "md")
    assert code == 0
    assert out.startswith("# demo")
    assert "- **c1** [supports]: ok" in out


def test_battery_command(capsys, tmp_path):
    outdir = tmp_path / "battery"
    code, out, _ = run(capsys, "theorem2-battery", "--tau-count", "12",
                       "--format", "md", "--out", str(outdir))
    assert code == 0
    assert (outdir / "battery.md").exists()
    assert ": pass" in out


def test_report_csv_matches_oscillate_csv(capsys, tmp_path):
    args = ["oscillate", "--phase", "x1^2 + x2^4", "--dim", "2",
            "--tau-min", "100", "--tau-max", "1000", "--tau-count", "8"]
    code, direct_csv, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    code, payload, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    src = tmp_path / "samples.json"
    src.write_text(payload)
    code, rendered, _ = run(capsys, "report", "--input", str(src), "--format", "csv")
    assert code == 0
    assert rendered == direct_csv


def test_battery_csv_rows_match_header(capsys):
    code, out, _ = run(capsys, "theorem2-battery", "--tau-count", "12", "--format", "csv")
    assert code == 0
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert rows
    label = header.index("label")
    for row in rows:
        assert len(row) == len(header)
        assert row[label] == f"{row[header.index('phase')]} | nu={row[header.index('nu')]}"


def test_config_value_outside_choices_is_usage_error(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("phase = x1^4 + x2^4\nformat = xml\n")
    code, out, err = run(capsys, "oscillate", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert ":2:" in err and "xml" in err and "--format" in err

    def no_lab(*args, **kwargs):
        raise AssertionError("the lab ran before the config was validated")

    monkeypatch.setattr(cli, "run_theorem3_lab", no_lab)
    code, out, err = run(capsys, "theorem3-lab", "--config", str(cfg))
    assert code == 1
    assert out == "" and ":2:" in err


def test_config_value_of_wrong_type_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("phase = x1^2 + x2^2\ntau_count = many\n")
    code, out, err = run(capsys, "oscillate", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert ":2:" in err and "--tau-count" in err


def test_markdown_lists_the_samples(capsys, tmp_path):
    args = ["oscillate", "--phase", "x1^2 + x2^2", "--dim", "2", "--shape", "radial",
            "--tau-min", "10", "--tau-max", "20", "--tau-count", "8"]
    code, md, _ = run(capsys, *args, "--format", "md")
    assert code == 0
    lines = md.splitlines()
    header = lines.index("| tau | re | im | abs | err | converged |")
    rows = list(takewhile(lambda line: line.startswith("|"), lines[header + 2 :]))
    assert len(rows) == 8
    assert rows[0].startswith("| 10 | ") and rows[-1].startswith("| 20 | ")
    assert all(r.endswith(" | yes |") and r.count("|") == 7 for r in rows)
    # the same table from the JSON report
    code, text, _ = run(capsys, *args, "--format", "json")
    # its config records exactly what oscillate read
    assert set(json.loads(text)["config"]) == {"phase", "dim", "nu", "shape", "cutoff",
                                               "tau_min", "tau_max", "tau_count", "tol"}
    src = tmp_path / "samples.json"
    src.write_text(text)
    code, out, _ = run(capsys, "report", "--input", str(src), "--format", "md")
    assert code == 0
    assert out == md


def test_oscillate_markdown_output(capsys, tmp_path):
    outdir = tmp_path / "md"
    code, out, _ = run(capsys, "oscillate", "--phase", "x1^2 + x2^2", "--dim", "2",
                       "--tau-min", "100", "--tau-max", "1000", "--tau-count", "8",
                       "--format", "md", "--out", str(outdir))
    assert code == 0
    assert out.startswith("# oscillate")
    assert "- phase: x1^2 + x2^2" in out
    assert (outdir / "samples.md").read_text() == out
    assert not (outdir / "samples.csv").exists()


COMMAND_FLAGS = {
    "polytope": "phase dim out",
    "rlct": "phase dim method resolution-data out",
    "oscillate": "phase dim nu shape cutoff tau-min tau-max tau-count tol out format",
    "fit": "input phase dim nu shape cutoff tau-min tau-max tau-count tol out",
    "theorem2-battery": "cutoff tau-min tau-max tau-count tol out format",
    "theorem3-lab": "phase dim cutoff tau-min tau-max tau-count tol seed out format",
    "report": "input out format",
}


def test_each_command_takes_exactly_the_flags_it_reads():
    _, commands = cli._build_parser()
    assert set(commands) == set(COMMAND_FLAGS)
    for name, parser in commands.items():
        flags = {s for action in parser._actions for s in action.option_strings}
        expected = {f"--{flag}" for flag in COMMAND_FLAGS[name].split()}
        assert flags == expected | {"-h", "--help", "--config"}, name


@pytest.mark.parametrize("key,value,command", [
    # the battery's fixtures and the lab's series fix their own amplitudes
    ("shape", "radial", "theorem3-lab"),
    ("shape", "radial", "theorem2-battery"),
    ("nu", "2,2", "theorem3-lab"),
    ("nu", "2,2", "theorem2-battery"),
    # every other command rejects the flags it does not read as well
    ("tol", "5", "polytope"),
    ("format", "csv", "rlct"),
    ("format", "csv", "fit"),
    ("phase", "x1^2 + x2^2", "report"),
    ("phase", "x1^9", "theorem2-battery"),
    ("seed", "7", "theorem2-battery"),
    ("dim", "3", "theorem2-battery"),
])
def test_amplitude_options_are_usage_errors_for_lab_and_battery(
        capsys, tmp_path, monkeypatch, command, key, value):

    def no_run(*args, **kwargs):
        raise AssertionError("the command ran before its options were rejected")

    monkeypatch.setitem(cli._COMMANDS, command, (no_run, cli._COMMANDS[command][1]))
    code, out, err = run(capsys, command, f"--{key}", value)
    assert code == 1
    assert out == "" and f"--{key}" in err
    cfg = tmp_path / "run.cfg"
    # line 1 is a key every command reads; line 2 is the rejected one
    cfg.write_text(f"out = {tmp_path / 'never'}\n{key} = {value}\n")
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 1
    assert out == "" and ":2:" in err and key in err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("command,route,key,value", [
    # fit --input reads the CSV and --dim only
    ("fit", ["--input", "s.csv"], "phase", "x1^9 + x2^2"),
    ("fit", ["--input", "s.csv"], "nu", "7,7"),
    ("fit", ["--input", "s.csv"], "shape", "radial"),
    ("fit", ["--input", "s.csv"], "cutoff", "1,3"),
    ("fit", ["--input", "s.csv"], "tau-min", "10"),
    ("fit", ["--input", "s.csv"], "tau-max", "1e5"),
    ("fit", ["--input", "s.csv"], "tau-count", "9"),
    ("fit", ["--input", "s.csv"], "tol", "5"),
    # the resolution route reads the resolution data only
    ("rlct", ["--resolution-data", "res.json"], "phase", "x1*x2"),
    ("rlct", ["--resolution-data", "res.json"], "dim", "3"),
    ("rlct", ["--method", "resolution", "--resolution-data", "res.json"], "phase", "x1*x2"),
    # the polytope routes never read the resolution data
    ("rlct", ["--method", "candidate", "--phase", "x1^4 + x2^4"], "resolution-data", "res.json"),
    ("rlct", ["--method", "homogeneous", "--phase", "x1^4 + x2^4"], "resolution-data", "res.json"),
])
def test_flags_the_chosen_route_ignores_are_usage_errors(
        capsys, tmp_path, monkeypatch, command, route, key, value):
    monkeypatch.chdir(tmp_path)
    Path("s.csv").write_text("tau,re,im,abs,err\n")
    Path("res.json").write_text('[{"m": 2, "k": 1}]')

    def no_run(*args, **kwargs):
        raise AssertionError("the command ran before its options were rejected")

    monkeypatch.setitem(cli._COMMANDS, command, (no_run, cli._COMMANDS[command][1]))
    code, out, err = run(capsys, command, *route, f"--{key}", value)
    assert code == 1
    assert out == "" and f"--{key}" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, out, err = run(capsys, command, *route, "--config", str(cfg))
    assert code == 1
    assert out == "" and f"--{key}" in err


def test_oscillate_radial_mixed_term_phase_takes_the_circle_route(capsys):
    # over the default tau window the folded tensor grid would need 1304164 panels
    code, out, err = run(capsys, "oscillate", "--phase", "x1^4 + x1^2*x2^2 + x2^4",
                         "--shape", "radial", "--format", "json")
    assert code == 0, err
    samples = json.loads(out)["samples"]
    assert len(samples) == 24
    assert samples[0]["tau"] == 100.0 and samples[-1]["tau"] == 10000.0
    assert all(s["converged"] for s in samples)


@pytest.mark.parametrize("phase,dim", [("x1^2 + x2^2 + x3^2", "3"),
                                       ("x1^6 + x2^6 - x3^6 + x4^6", "4")])
def test_oscillate_nu_defaults_to_dim_zeros(capsys, phase, dim):
    code, out, err = run(capsys, "oscillate", "--phase", phase, "--dim", dim,
                         "--tau-min", "10", "--tau-max", "100", "--tau-count", "8",
                         "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["config"]["nu"] == [0] * int(dim)
    assert len(payload["samples"]) == 8


def test_fit_input_reads_dim_and_resolution_route_reads_method(capsys, tmp_path):
    code, out, _ = run(
        capsys, "oscillate", "--phase", "x1^2 + x2^2", "--tau-min", "100",
        "--tau-max", "10000", "--tau-count", "12", "--format", "csv",
    )
    assert code == 0
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text(out)
    code, _, _ = run(capsys, "fit", "--input", str(csv_path), "--dim", "2")
    assert code == 0
    data = tmp_path / "res.json"
    data.write_text('[{"m": 4, "k": 1}]')
    code, out, _ = run(capsys, "rlct", "--method", "resolution", "--resolution-data", str(data))
    assert code == 0 and json.loads(out)["value"] == "1/2"


def test_oscillate_and_rlct_do_not_import_scipy():
    # scipy is a test dependency only; a fresh interpreter shows what the CLI loads
    code = (
        "import sys\n"
        "from oscillab.cli import main\n"
        "assert main(['oscillate', '--phase', 'x1^4 + x1^2*x2^2 + x2^4', '--shape', 'radial',\n"
        "             '--tau-min', '1', '--tau-max', '4', '--tau-count', '8', '--tol', '1e-6']) == 0\n"
        "assert main(['rlct', '--phase', 'x1^4 + x1*x2^2 + x2^6', '--method', 'candidate']) == 0\n"
        "print('scipy' in sys.modules, file=sys.stderr)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == "False"
