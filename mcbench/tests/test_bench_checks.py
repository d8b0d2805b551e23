"""Every correctness check of the benchmark must be able to fail.

Each test builds outputs that pass a check, corrupts them the way a broken
program would (a flipped sign, a shifted moment, a wrong probability), and
expects the check to report a failure. Nothing here runs a workload.
"""

import math
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from mcbench import checks, inputs, judge, trace  # noqa: E402
from mechcat import herald  # noqa: E402


# --- sweep -----------------------------------------------------------------


def closed_rows():
    return [{"mu": mu, "phi": phi, "value": checks.s3_ground_reference(mu, phi)}
            for mu in (1e-3, 0.5, 2.0) for phi in (0.0, 3 * math.pi / 4)]


def test_closed_s3_passes_and_flipped_sign_fails():
    rows = closed_rows()
    assert checks.check_closed_s3(rows)[0] == []
    rows[2]["value"] = -rows[2]["value"]
    assert len(checks.check_closed_s3(rows)[0]) == 1


def test_closed_s3_wrong_magnitude_fails():
    rows = closed_rows()
    rows[0]["value"] *= 1.2
    failures, errors = checks.check_closed_s3(rows)
    assert failures and max(errors) == pytest.approx(0.2)


def test_closed_s3_reference_is_the_ground_state_formula():
    mu, phi = 0.7, 1.1
    den = 1 + math.exp(-mu * mu / 2) * math.cos(phi)
    expected = -(mu**6) * math.exp(-mu * mu) / (64 * den**3)
    assert checks.s3_ground_reference(mu, phi) == pytest.approx(expected, rel=1e-14)


def fake_s3(root):
    # S3 negative below the root, positive above; positive at nbar = 0 when root is None
    return lambda mu, nbar, nbar_bath: (nbar - root) if root is not None else 1.0 + nbar


def test_cooling_root_must_bracket_a_sign_change():
    rows = [{"mu": 1.0, "nbar_bath": 0.0, "nbar_max": 0.3, "verifiable": 1}]
    assert checks.check_cooling_roots(rows, fake_s3(0.3))[0] == []
    rows[0]["nbar_max"] = 0.31
    assert checks.check_cooling_roots(rows, fake_s3(0.3))[0]


def test_non_verifiable_row_needs_non_negative_s3():
    rows = [{"mu": 4.0, "nbar_bath": 0.0, "nbar_max": 0.0, "verifiable": 0}]
    assert checks.check_cooling_roots(rows, fake_s3(None))[0] == []
    assert checks.check_cooling_roots(rows, fake_s3(0.3))[0]


def test_map_point_disagreeing_with_fock_path_fails():
    assert checks.check_pairs("map", [(-0.1, -0.1 * (1 + 1e-9))], checks.FOCK_MAP_TOL)[0] == []
    assert checks.check_pairs("map", [(-0.1, -0.1 * (1 + 1e-4))], checks.FOCK_MAP_TOL)[0]


def test_outputs_that_differ_between_rounds_fail(tmp_path):
    dirs = []
    for k, text in enumerate(["a,1\n", "a,1\n", "a,2\n"]):
        d = tmp_path / f"r{k}"
        d.mkdir()
        (d / "out.csv").write_text(text)
        dirs.append(str(d))
    assert judge._same_bytes(dirs[:2], ["out.csv"]) == []
    assert judge._same_bytes(dirs, ["out.csv"])


# --- campaign --------------------------------------------------------------


def campaign_case(n_seeds=60, se=0.01):
    rng = np.random.default_rng(5)
    n = 20
    exact = rng.normal(size=n) + 1j * rng.normal(size=n) * 0.1
    noise = (rng.normal(size=(n_seeds, n)) + 1j * rng.normal(size=(n_seeds, n))) * se / math.sqrt(2)
    return exact, exact + noise, [se] * n


def records_for(exact, noiseless, noisy, std_errors):
    pairs = lambda v: [[z.real, z.imag] for z in v]  # noqa: E731
    study = {"exact": pairs(exact), "noiseless": pairs(noiseless),
             "noisy": [pairs(t) for t in noisy], "std_errors": list(std_errors)}
    return [{"failures": [], "outputs": {"studies": [study]}}]


CAMPAIGN_INPUTS = {"studies": [{}]}


def test_campaign_judge_passes_on_consistent_outputs():
    exact, noisy, se = campaign_case()
    failures, errors = judge.judge_campaign(CAMPAIGN_INPUTS, records_for(exact, exact, noisy, se), [])
    assert failures == []
    assert max(errors) == 0.0


def test_noiseless_run_must_reproduce_the_exact_table():
    exact, noisy, se = campaign_case()
    off = exact.copy()
    off[3] += 1e-6
    failures, _ = judge.judge_campaign(CAMPAIGN_INPUTS, records_for(exact, off, noisy, se), [])
    assert any("noiseless" in f for f in failures)


def test_shifted_recovered_moment_fails_the_bias_check():
    exact, noisy, se = campaign_case()
    noisy[:, 4] += 0.01  # one standard error on every seed
    failures, _ = judge.judge_campaign(CAMPAIGN_INPUTS, records_for(exact, exact, noisy, se), [])
    assert any("biased" in f for f in failures)


@pytest.mark.parametrize("scale", [0.1, 5.0])
def test_spread_unlike_the_propagated_errors_fails(scale):
    exact, noisy, se = campaign_case()
    noisy[:, 7] = exact[7] + scale * (noisy[:, 7] - exact[7])
    failures, _ = judge.judge_campaign(CAMPAIGN_INPUTS, records_for(exact, exact, noisy, se), [])
    assert any("spread" in f for f in failures)


def test_failed_recovery_run_fails_the_campaign():
    exact, noisy, se = campaign_case()
    recs = records_for(exact, exact, noisy, se)
    recs[0]["failures"].append(["study0:None", "IllConditioned: order 4"])
    assert judge.judge_campaign(CAMPAIGN_INPUTS, recs, [])[0]


# --- fock ------------------------------------------------------------------


FOCK_INPUTS = {
    "points": [{"mu": 0.5, "nbar": 0.0, "phi": 0.4}, {"mu": 1.0, "nbar": 0.2, "phi": 1.0},
               {**inputs.FOCK_FAILING_POINT, "phi": 0.2}],
    "oracles": [{"mu": 0.3, "nbar": 0.1, "phi": math.pi, "cutoff": 12, "eta": 0.8, "dark_prob": 1e-8}],
}


def fock_record():
    """Outputs equal to the references (closed form for the Fock path)."""
    from mechcat import detector

    points = []
    for j, spec in enumerate(FOCK_INPUTS["points"][:2]):
        params = herald.ProtocolParams(mu=spec["mu"], phi=spec["phi"], nbar_1=spec["nbar"], nbar_2=spec["nbar"])
        table = herald.heralded_moment_table(params, 4)
        keys = sorted(table.entries)
        delta = 0.05
        if spec["nbar"] == 0.0:
            unit = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
            second = [[table.entries[tuple(a + b for a, b in zip(unit[i], unit[k]))] for k in range(4)]
                      for i in range(4)]
            delta = checks.gaussian_entropy([table.entries[u] for u in unit], second)
        points.append({"index": j, "dim": 400, "p": herald.heralding_probability(params), "delta": delta,
                       "keys": [list(k) for k in keys],
                       "moments": [[table.entries[k].real, table.entries[k].imag] for k in keys]})
    spec = FOCK_INPUTS["oracles"][0]
    protocol = herald.ProtocolParams(mu=spec["mu"], phi=spec["phi"], nbar_1=spec["nbar"], nbar_2=spec["nbar"])
    res = detector.true_positive_fraction_resolving(detector.DetectorParams(0.8, 1e-8, True), protocol)
    non = detector.true_positive_fraction_nonresolving(detector.DetectorParams(0.8, 1e-8, False), protocol)
    return {"failures": [["point2", "CutoffTooSmall: thermal tail"]],
            "outputs": {"points": points, "oracles": [{"index": 0, "resolving": res, "nonresolving": non}]}}


def fock_failures(rec):
    return judge.judge_fock(FOCK_INPUTS, [rec], [])[0]


def test_fock_judge_passes_on_reference_outputs():
    assert fock_failures(fock_record()) == []


def test_wrong_heralding_probability_fails():
    rec = fock_record()
    rec["outputs"]["points"][1]["p"] *= 1 + 1e-6
    assert any("heralding probability" in f for f in fock_failures(rec))


def test_shifted_fock_moment_fails():
    rec = fock_record()
    rec["outputs"]["points"][1]["moments"][10][0] += 1e-3
    assert any("moments" in f for f in fock_failures(rec))


def test_negative_or_wrong_delta_fails():
    rec = fock_record()
    rec["outputs"]["points"][1]["delta"] = -1e-3
    assert any("< 0" in f for f in fock_failures(rec))
    rec = fock_record()
    rec["outputs"]["points"][0]["delta"] *= 1.01
    assert any("Gaussian entropy" in f for f in fock_failures(rec))


def test_wrong_oracle_fraction_fails():
    rec = fock_record()
    rec["outputs"]["oracles"][0]["nonresolving"] *= 1.001
    assert any("oracle" in f for f in fock_failures(rec))


def test_only_the_known_cutoff_fault_may_fail():
    rec = fock_record()
    rec["failures"] = [["point2", "HeraldImpossible: no click"]]
    assert fock_failures(rec)
    rec["failures"] = [["point1", "CutoffTooSmall: thermal tail"]]
    assert fock_failures(rec)


def test_gaussian_entropy_of_thermal_product_state():
    nbar = 0.7
    v = nbar + 0.5
    second = np.zeros((4, 4))
    for i in range(4):
        second[i, i] = v
    g = (nbar + 1) * math.log(nbar + 1) - nbar * math.log(nbar)
    assert checks.gaussian_entropy([0, 0, 0, 0], second) == pytest.approx(2 * g, rel=1e-12)
    vacuum = np.eye(4) * 0.5
    assert checks.gaussian_entropy([0, 0, 0, 0], vacuum) == 0.0


# --- inputs and metrics ----------------------------------------------------


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    assert inputs.make_inputs(workload, 3) == inputs.make_inputs(workload, 3)
    assert inputs.make_inputs(workload, 3) != inputs.make_inputs(workload, 4)


def test_accuracy_digits():
    assert checks.accuracy_digits([1e-3, 1e-6]) == pytest.approx(3.0)
    assert checks.accuracy_digits([0.0]) == pytest.approx(17.0)


def test_self_time_subtracts_timed_children():
    tracer = trace.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["b", 5.0, 6.0, 0], ["c", 2.0, 3.0, 1]]
    m = tracer.layer_metrics()
    assert m["a.s"] == pytest.approx(6.0)
    assert m["b.s"] == pytest.approx(3.0) and m["b.calls"] == 2
    assert m["c.s"] == pytest.approx(1.0)
