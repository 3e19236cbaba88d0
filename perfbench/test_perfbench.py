"""Self-tests for the benchmark's reference checks and trace arithmetic.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oscillab.bump import CutoffFunction  # noqa: E402
from oscillab.quad import erdelyi_leading  # noqa: E402

ETA = CutoffFunction(1.0, 2.0)


# ---------------------------------------------------------------------------
# reference checks flag perturbed results
# ---------------------------------------------------------------------------


def _lab_report(coeffs):
    coeff = checks.erdelyi_product(coeffs, 4)
    claims = [{"name": "exponent_upper_bound", "verdict": "supports"},
              {"name": "signed_convention_vanishing", "verdict": "supports"},
              {"name": "strict_exponent_gap", "verdict": "contradicts"}]
    return {"generic_fit": {"converged": True, "alpha_hat": -0.5,
                            "coeff_hat": [coeff.real, coeff.imag]},
            "claims": claims}


LAB_META = {"phase": "2*x1^4 + x2^4", "coeffs": [2, 1], "d": 4}
LAB_VERDICTS = {"exponent_upper_bound": "supports", "strict_exponent_gap": "contradicts"}


def test_erdelyi_product_matches_the_package_leading_term():
    ref = 2.0 * erdelyi_leading(1, 4, 2.0, 1.0) * 2.0 * erdelyi_leading(1, 4, 1.0, 1.0)
    assert checks.erdelyi_product([2, 1], 4) == pytest.approx(ref, rel=1e-14)


def test_lab_check_accepts_the_closed_form():
    assert checks.lab_problems(_lab_report([2, 1]), LAB_META, LAB_VERDICTS) == []


@pytest.mark.parametrize("perturb", [
    lambda r: r["generic_fit"]["coeff_hat"].__setitem__(0, r["generic_fit"]["coeff_hat"][0] * (1 + 1e-4)),
    lambda r: r["generic_fit"].__setitem__("alpha_hat", -0.56),
    lambda r: r["claims"][2].__setitem__("verdict", "supports"),
    lambda r: r["generic_fit"].__setitem__("converged", False),
])
def test_lab_check_flags_a_perturbed_result(perturb):
    report = _lab_report([2, 1])
    perturb(report)
    assert checks.lab_problems(report, LAB_META, LAB_VERDICTS)


def test_lab_check_ignores_the_built_in_signed_vanishing_claim():
    report = _lab_report([2, 1])
    report["claims"][1]["verdict"] = "contradicts"
    assert checks.lab_problems(report, LAB_META, LAB_VERDICTS) == []


def _battery_case():
    fixtures = [("x1^2 + x1^4 + 2*x2^6", (0, 2), [2, 6]), ("x1^4 + x2^4", (2, 2), None)]
    rows = [{"label": "a", "status": "pass", "bound_pair_distance": "-1", "alpha_hat": -1.01},
            {"label": "b", "status": "pass", "bound_pair_distance": "-3/2", "alpha_hat": -1.5}]
    spot = [(0.25 + 0.5j, 0.25 + 0.5j), (0.1j, 0.1j)]
    return {"rows": rows}, fixtures, spot


def test_battery_check_accepts_exact_bounds():
    assert checks.battery_problems(*_battery_case()) == []


@pytest.mark.parametrize("field,value", [
    ("status", "fail"), ("bound_pair_distance", "-5/4"), ("alpha_hat", -1.2)])
def test_battery_check_flags_a_perturbed_row(field, value):
    report, fixtures, spot = _battery_case()
    report["rows"][0][field] = value
    assert checks.battery_problems(report, fixtures, spot)


def test_battery_check_flags_a_perturbed_spot_sample():
    report, fixtures, spot = _battery_case()
    spot[1] = (0.1j * (1 + 1e-5), 0.1j)
    assert checks.battery_problems(report, fixtures, spot)


def test_dense_axis_reference_matches_the_brute_force_profile():
    from oscillab.quad import oscillatory_profile_reference

    vals, _ = oscillatory_profile_reference([30.0], 4, 2, ETA, tol=1e-13, full_line=True)
    assert checks.axis_reference("x1^4", "x1", 2, 30.0, ETA) == pytest.approx(
        complex(vals[0]), rel=1e-9)


def test_mixed_check_flags_a_perturbed_sample():
    payload = {"samples": [{"tau": 10.0, "re": 0.3, "im": -0.2, "converged": True}]}
    assert checks.mixed_problems(payload, [(10.0, 0.3 - 0.2j)]) == []
    assert checks.mixed_problems(payload, [(10.0, 0.3 - 0.2001j)])
    assert checks.mixed_problems(payload, [], bound=0.1)
    payload["samples"][0]["converged"] = False
    assert checks.mixed_problems(payload, [(10.0, 0.3 - 0.2j)])


def test_tensor_reference_matches_a_separable_product():
    # x1^2 + x2^4 factors into two axis integrals
    full = checks.tensor_reference("x1^2 + x2^4", 10.0, ETA)
    prod = (checks.axis_reference("x1^2", "x1", 0, 10.0, ETA)
            * checks.axis_reference("x2^4", "x2", 0, 10.0, ETA))
    assert full == pytest.approx(prod, rel=1e-10)


def test_budget_failure_is_recognised_only_with_its_message():
    msg = "non-convergence: tensor grid needs 1476090 panels, budget is 1000000"
    assert checks.is_budget_failure(2, msg)
    assert not checks.is_budget_failure(1, msg)
    assert not checks.is_budget_failure(2, "non-convergence: fit")


def test_lp_newton_distance_and_geometry_check():
    support = {(2, 0), (0, 4)}
    assert 1.0 / checks.lp_newton_distance(support) == pytest.approx(0.75, rel=1e-12)
    report = {"value": "3/4", "parity": [], "flags": {"convenient": True}}
    recorded = {"value": "3/4", "parity": [], "flags": {"convenient": True}}
    assert checks.geometry_problems(report, support, recorded) == []
    assert checks.geometry_problems(dict(report, value="2/3"), support, recorded)
    assert checks.geometry_problems(dict(report, parity=[{"dj": 4}]), support, recorded)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_in_the_seed(name):
    def inputs(seed):
        return [(i.argv, i.fixtures) for i in workloads.WORKLOADS[name].items(seed)]

    assert inputs(7) == inputs(7)
    assert any(inputs(s) != inputs(7) for s in range(8))


def test_geometry_emits_both_verdict_labels():
    labels = [it.meta["degenerate"] for it in workloads.geometry_items(3)]
    assert True in labels and False in labels


def test_battery_has_a_multi_term_axis_fixture():
    fixtures = workloads.battery_fixtures(5)
    assert any(p.count("x1") > 1 or p.count("x2") > 1 for p, _, _ in fixtures)


# ---------------------------------------------------------------------------
# trace arithmetic
# ---------------------------------------------------------------------------


def test_self_time_on_a_synthetic_nested_call():
    spans = [
        {"id": 0, "name": "cli.main", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "quad.eval_oscillatory", "parent": 0, "start": 1.0, "end": 4.0,
         "tau": 10.0},
        {"id": 2, "name": "quad.oscillatory_profile", "parent": 1, "start": 1.5, "end": 2.5},
        {"id": 3, "name": "quad.eval_oscillatory", "parent": 0, "start": 5.0, "end": 7.0,
         "tau": 20.0},
    ]
    assert tracing.self_times(spans) == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}
    assert tracing.module_split(spans) == {"cli": 5.0, "quad": 5.0}
    m = tracing.layer_metrics(spans, {}, cycles=2, overhead_ratio=0.01)
    assert m["quad.eval_oscillatory.calls"]["value"] == 1.0
    assert m["quad.eval_oscillatory.self_s"]["value"] == 2.0
    assert m["quad.oscillatory_profile.s"]["value"] == 0.5
    assert m["cli.main.self_s"]["value"] == 2.5


def test_traced_call_nests_spans_and_restores_the_originals():
    import oscillab
    from oscillab import cli, poly, polytope

    before = (cli.main, cli.parse, poly.parse, polytope.build_polytope,
              oscillab.build_polytope, poly.Polynomial.evaluate)
    tracer = tracing.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["polytope", "--phase", "x1^2 + x2^4"]) == 0
    after = (cli.main, cli.parse, poly.parse, polytope.build_polytope,
             oscillab.build_polytope, poly.Polynomial.evaluate)
    assert all(a is b for a, b in zip(before, after))
    names = {s["name"]: s for s in tracer.spans}
    root = names["cli.main"]
    assert names["poly.parse"]["parent"] == root["id"]
    assert names["polytope.build_polytope"]["parent"] == root["id"]
    assert names["polytope.build_polytope"]["facets"] == 1
    selfs = tracing.self_times(tracer.spans)
    children = sum(s["end"] - s["start"] for s in tracer.spans if s["parent"] == root["id"])
    assert selfs[root["id"]] == pytest.approx(root["end"] - root["start"] - children, abs=1e-12)
