import json
import math
import subprocess
import sys

import numpy as np
import pytest

from mechcat import cli


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "mechcat.cli", *args], capture_output=True, text=True
    )


def test_parse_grid():
    assert cli.parse_grid("0:1:3") == [0.0, 0.5, 1.0]
    assert cli.parse_grid("0.1, 0.5, 2") == [0.1, 0.5, 2.0]
    assert cli.parse_grid("0.3:0.7:1") == [0.3]
    assert cli.parse_grid("0:0.9:1e1") == cli.parse_grid("0:0.9:10")


def test_check_against_golden():
    golden = {
        ("a", "D5"): (0.5, "abs", 0.01),
        ("a", "S3"): (-0.08, "abs", 0.008),
        ("a", "F"): (99.0, "geq", 0.5),
        ("b", "D5"): (100.0, "rel", 0.05),
    }
    ok = {("a", "D5"): 0.505, ("a", "S3"): -0.081, ("a", "F"): 99.7, ("b", "D5"): 103.0}
    assert cli.check_against_golden(ok, golden) == []
    bad = dict(ok)
    bad[("a", "S3")] = 0.081  # sign flip: hard failure even within |tol|... not within
    fails = cli.check_against_golden(bad, golden)
    assert len(fails) == 1
    missing = dict(ok)
    del missing[("b", "D5")]
    assert any("missing" in f for f in cli.check_against_golden(missing, golden))


def test_sign_gate_trips_even_inside_tolerance():
    golden = {("r", "S3"): (-0.004, "abs", 0.01)}
    # numerically inside +-0.01 but with the wrong sign classification
    fails = cli.check_against_golden({("r", "S3"): 0.004}, golden)
    assert fails


def test_table2_check_and_determinism(tmp_path):
    out1 = tmp_path / "t2a.csv"
    out2 = tmp_path / "t2b.csv"
    r1 = run_cli(["table2", "--out", str(out1), "--check"])
    assert r1.returncode == 0, r1.stderr
    r2 = run_cli(["table2", "--out", str(out2)])
    assert r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()
    assert header[0].startswith("#")
    assert "percent_reduction" in header[2]


def test_table1_json(tmp_path):
    out = tmp_path / "t1.json"
    r = run_cli(["table1", "--out", str(out), "--format", "json"])
    assert r.returncode == 0, r.stderr
    payload = json.loads(out.read_text())
    rows = {row["row"]: row for row in payload["rows"]}
    assert rows["i"]["D5"] == pytest.approx(0.56, abs=0.01)
    assert rows["iv"]["S3"] == pytest.approx(-0.029, abs=0.008)
    assert rows["nanobeam"]["F_nonresolving"] == pytest.approx(60, abs=5)


def test_map_s3_structure(tmp_path):
    cfg = tmp_path / "map.ini"
    cfg.write_text(
        "[env]\nq_factor = 1e5\nnbar_bath = 500\n"
        "[protocol]\nnbar = 0.1\n"
        "[grid]\nphi = 0:6.283185307179586:17\nmu = 0.6, 1.0\n"
    )
    out = tmp_path / "map.csv"
    r = run_cli(["map", "--criterion", "S3", "--config", str(cfg), "--out", str(out)])
    assert r.returncode == 0, r.stderr
    rows = [
        line.split(",") for line in out.read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("mu,")
    ]
    by_mu = {}
    for mu, phi, val, neg in rows:
        by_mu.setdefault(float(mu), []).append((float(phi), float(val), int(neg)))
    for mu, pts in by_mu.items():
        phis = np.array([p for p, _, _ in pts])
        vals = np.array([v for _, v, _ in pts])
        assert abs(phis[np.argmin(vals)] - math.pi) < 0.5
        assert (vals < 0).any()
    contour = (tmp_path / "map.csv.contour.csv").read_text()
    assert "phi_zero" in contour


def test_map_delta_default_cutoff_at_half_occupation(tmp_path):
    # the default cutoff must pass the thermal-tail check at nbar = 0.5
    cfg = tmp_path / "delta.ini"
    cfg.write_text("[protocol]\nnbar = 0.5\n[grid]\nphi = 3.141592653589793\nmu = 0.5\n")
    out = tmp_path / "delta.csv"
    r = run_cli(["map", "--criterion", "delta", "--config", str(cfg), "--out", str(out)])
    assert r.returncode == 0, r.stderr
    rows = [line for line in out.read_text().splitlines() if line[:1].isdigit()]
    assert len(rows) == 1
    assert float(rows[0].split(",")[2]) > 0


def test_verify_report(tmp_path):
    cfg = tmp_path / "v.ini"
    cfg.write_text("[verify]\nn_samples = 1e5\nn_seeds = 2\n")
    out = tmp_path / "report.json"
    r = run_cli(["verify", "--config", str(cfg), "--out", str(out), "--seed", "3"])
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    assert report["noiseless_max_abs_deviation"] < 1e-8
    assert report["s3_sign_agreement"][1] == 2
    assert len(report["runs"]) == 2
    assert report["exact"]["S3"] < 0


def test_verify_rank_deficient_exit_code(tmp_path):
    cfg = tmp_path / "v.ini"
    cfg.write_text("[verify]\nn_samples = 1e5\nn_seeds = 1\nmax_phase_sets = 1\n")
    r = run_cli(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert r.returncode == 3
    assert "RankDeficient" in r.stderr


@pytest.mark.parametrize(
    "argv, named",
    [
        (["sideband", "--g0", "1", "--kappa", "1", "--omega-m", "1", "--format", "csv"], "'csv'"),
        (["verify", "--format", "csv"], "'csv'"),
        (["map", "--criterion", "S3", "--seed", "1"], "--seed 1"),
        (["table1", "--seed", "1"], "--seed 1"),
        (["table1", "--config", "t1.ini"], "--config t1.ini"),
        (["table2", "--config", "t2.ini"], "--config t2.ini"),
        (["sideband", "--g0", "1", "--kappa", "1", "--omega-m", "1", "--config", "s.ini"], "--config s.ini"),
    ],
    ids=["sideband-csv", "verify-csv", "map-seed", "table1-seed", "table1-config", "table2-config",
         "sideband-config"],
)
def test_options_a_command_ignores_are_rejected(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


def test_check_failure_exit_code(monkeypatch, tmp_path, capsys):
    def fake_golden(name):
        return {("i", "D5"): (123.0, "abs", 1e-6)}

    monkeypatch.setattr(cli, "load_golden", fake_golden)
    args = cli.build_parser().parse_args(["table1", "--out", str(tmp_path / "x.csv"), "--check"])
    assert cli.cmd_table1(args) == cli.EXIT_CHECK_FAILED


def test_sideband_command(tmp_path):
    r = run_cli([
        "sideband", "--g0", "219911.49", "--kappa", "2764601535.2",
        "--omega-m", "27017696.8", "--out", "-",
    ])
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["mu_nominal"] == pytest.approx(2 * math.sqrt(2) * 219911.49 / 2764601535.2)
    assert payload["percent_reduction"] == pytest.approx(
        100 * (27017696.8 / 2764601535.2) ** 2 / 6
    )


def test_detector_command(tmp_path):
    cfg = tmp_path / "d.ini"
    cfg.write_text("[protocol]\nmu = 1e-2\nnbar = 0.1\n[grid]\nalpha = 0.5, 1.0\n")
    out = tmp_path / "d.csv"
    r = run_cli(["detector", "--config", str(cfg), "--out", str(out)])
    assert r.returncode == 0, r.stderr
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert lines[0] == "alpha,F_resolving,F_nonresolving"
    assert len(lines) == 3


def test_detector_command_equals_the_scalar_fractions(tmp_path):
    from mechcat.detector import (DetectorParams, true_positive_fraction_nonresolving,
                                  true_positive_fraction_resolving)
    from mechcat.herald import CoherentInput, ProtocolParams

    cfg = tmp_path / "d.ini"
    cfg.write_text("[protocol]\nmu = 2.26e-5\nphi = 2.5\nnbar = 0.29\n[detector]\neta = 0.9\n"
                   "[grid]\nalpha = 0.05:3.0:25\n")
    out = tmp_path / "d.json"
    assert cli.main(["detector", "--config", str(cfg), "--format", "json", "--out", str(out)]) == cli.EXIT_OK
    rows = json.loads(out.read_text())["rows"]
    assert [r["alpha"] for r in rows] == cli.parse_grid("0.05:3.0:25")
    for r in rows:
        p = ProtocolParams(mu=2.26e-5, phi=2.5, input=CoherentInput(r["alpha"]), nbar_1=0.29, nbar_2=0.29)
        assert r["F_resolving"] == 100 * true_positive_fraction_resolving(DetectorParams(0.9, 1e-8), p)
        assert r["F_nonresolving"] == 100 * true_positive_fraction_nonresolving(
            DetectorParams(0.9, 1e-8, resolving=False), p)


@pytest.mark.parametrize(
    "config, line",
    [
        ("[grid]\nalpha = 1.0, 30.0\n", "error: DegenerateHerald: P10 vanishes; F undefined"),
        ("[protocol]\nphi = 0\n[grid]\nalpha = 1.0, 10.0\n", "error: TruncationTooSmall: click sum"),
    ],
    ids=["p10-underflow", "click-sum-beyond-cap"],
)
def test_detector_alpha_out_of_range_exits_3(tmp_path, capsys, config, line):
    cfg = tmp_path / "d.ini"
    cfg.write_text(config)
    out = tmp_path / "d.csv"
    assert cli.main(["detector", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(line)
    assert not out.exists()


def test_verify_at_a_tiny_chi_exits_3_ill_conditioned(tmp_path, capsys):
    # the phase sets do not depend on chi; the seeded recovery's conditioning does
    cfg = tmp_path / "v.ini"
    cfg.write_text("[verify]\nchi = 1e-4\n")
    out = tmp_path / "v.json"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: IllConditioned: order ")
    assert not out.exists()


def test_verify_noiseless_only_at_a_tiny_chi_exits_3_ill_conditioned(tmp_path, capsys):
    # with no seeded runs the noiseless run meets their rule: the condition number of the
    # sampling-weighted system (3e9 at order 2), where its own unit weights would pass and
    # report a wrong recovery with exit 0
    cfg = tmp_path / "v.ini"
    cfg.write_text("[verify]\nchi = 1e-4\nn_seeds = 0\n")
    out = tmp_path / "v.json"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: IllConditioned: order 2: condition number")
    assert not out.exists()


def test_cooling_map_command(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[env]\nq_factor = 1e5\n[grid]\nmu = 0.5, 5.0\nnbar_bath = 0\n")
    out = tmp_path / "c.csv"
    r = run_cli(["cooling-map", "--config", str(cfg), "--out", str(out), "--threads", "2"])
    assert r.returncode == 0, r.stderr
    rows = [l.split(",") for l in out.read_text().splitlines() if l and not l.startswith(("#", "mu,"))]
    table = {float(r_[0]): (float(r_[2]), int(r_[3])) for r_ in rows}
    assert table[0.5][1] == 1 and table[0.5][0] > 0
    assert table[5.0][1] == 0  # beyond the S3 cutoff coupling


@pytest.mark.parametrize(
    "argv, config, patch, line",
    [
        (["map", "--criterion", "delta"], "[grid]\nmu = 0.5\nphi = 1.0\n",
         ("gaussian_reference_entropy", lambda table: -1.0),
         "error: NegativeNonGaussianity: non-Gaussianity came out negative"),
        (["cooling-map"], "[grid]\nmu = 0.5\nnbar_bath = 0\n",
         ("_criterion_values", lambda name, maps, mu, phi, nbar: np.full(np.shape(mu), -1.0)),
         "error: NoSignChange: S3 stayed negative up to nbar = 1e9"),
    ],
    ids=["map-delta", "cooling-map"],
)
def test_numerical_failures_exit_3_with_one_error_line(monkeypatch, tmp_path, capsys, argv, config, patch, line):
    # neither failure is reachable with ordinary inputs: the patched criterion forces it
    monkeypatch.setattr(cli.criteria, *patch)
    cfg = tmp_path / "c.ini"
    cfg.write_text(config)
    out = tmp_path / "c.csv"
    assert cli.main([*argv, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(line)
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["map", "--criterion", "S3"], "[protocol]\nnbar = 1e80\n[grid]\nmu = 0.5\nphi = 3\n",
         "S3 = nan at mu = 0.5, phi = 3, nbar = 1e+80, nbar_bath = 500"),
        (["map", "--criterion", "D5"], "[protocol]\nnbar = 1e80\n[grid]\nmu = 0.5\nphi = 3\n",
         "D5 = inf at mu = 0.5, phi = 3, nbar = 1e+80, nbar_bath = 500"),
        (["cooling-map"], "[grid]\nmu = 0.5\nnbar_bath = 1e300\n",
         "the order-4 evolution map overflows at omega_m = 6.28319e+06, q_factor = 100000, nbar_bath = 1e+300"),
    ],
    ids=["map-S3", "map-D5", "cooling-map"],
)
def test_overflowing_closed_form_exits_3_naming_the_point(tmp_path, argv, config, message, fmt):
    # the CSV forms wrote nan and inf with exit 0 (the JSON forms failed in the writer, naming no
    # point), and cooling-map a false "not verifiable" (nbar_max 0, verifiable 0) in both
    cfg = tmp_path / "c.ini"
    cfg.write_text(config)
    out = tmp_path / f"c.{fmt}"
    r = run_cli([*argv, "--config", str(cfg), "--format", fmt, "--out", str(out)])
    assert r.returncode == cli.EXIT_ERROR
    assert r.stderr == f"error: NonFiniteValue: {message}\n"  # no numpy warning before it
    assert not out.exists()


# run in a fresh interpreter where `import scipy` fails: numpy is the only runtime dependency
NO_SCIPY = """
import os, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule raises ImportError
"""
SCIPY_LOADED = "print(sorted(m for m, mod in sys.modules.items() if mod and m.split('.')[0] == 'scipy'))"


def _run_without_scipy(code, tmp_path):
    """Run `code` with tmp_path as sys.argv[1]; its printed lines, less the scipy check's."""
    r = subprocess.run([sys.executable, "-c", NO_SCIPY + code + SCIPY_LOADED, str(tmp_path)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip().splitlines()[-1] == "[]"
    return r.stdout.strip().splitlines()[:-1]


def test_import_loads_no_scipy(tmp_path):
    # the import, then every command but verify on a small config
    (tmp_path / "map.ini").write_text("[grid]\nmu = 0.3, 1.1\nphi = 0, 3.1\n")
    (tmp_path / "cooling-map.ini").write_text("[grid]\nmu = 0.3, 1.1\nnbar_bath = 0, 100\n")
    (tmp_path / "detector.ini").write_text("[grid]\nalpha = 0.5, 1.5\n")
    code = """
import mechcat.cli
from mechcat import cli
tmp = sys.argv[1]
for argv in (["table1", "--check"], ["table2", "--check"], ["map", "--criterion", "S3"],
             ["map", "--criterion", "D5"], ["map", "--criterion", "delta"], ["cooling-map"],
             ["detector"], ["sideband", "--g0", "800", "--kappa", "1e8", "--omega-m", "7e6"]):
    config = [] if argv[0] in ("table1", "table2", "sideband") else ["--config", f"{tmp}/{argv[0]}.ini"]
    out = tmp + "/out-" + "-".join(argv[:2])
    print(argv[0], cli.main([*argv, *config, "--out", out]), os.path.getsize(out) > 0)
"""
    lines = _run_without_scipy(code, tmp_path)
    assert [line.split()[0] for line in lines] == ["table1", "table2", "map", "map", "map", "cooling-map",
                                                   "detector", "sideband"]
    assert all(line.split()[1:] == ["0", "True"] for line in lines), lines


def test_verify_path_loads_no_scipy(tmp_path):
    # the `mechcat verify` default table, its study and one seeded run, then the command
    (tmp_path / "v.ini").write_text("[verify]\nn_samples = 1e5\nn_seeds = 2\n")
    code = """
from mechcat import cli, verify
from mechcat.herald import ProtocolParams, heralded_moment_table
from mechcat.opensystem import EnvParams, evolve_moments
from mechcat.presets import PHI_DEFAULT

env = EnvParams(**cli.CONFIG_KEYS["verify"]["env"])
params = ProtocolParams(mu=1e-3, phi=PHI_DEFAULT, nbar_1=0.1, nbar_2=0.1)
table = evolve_moments(heralded_moment_table(params, 8), env)
verify.VerificationStudy(table, phi=PHI_DEFAULT).run(10**6, (7, 0))
tmp = sys.argv[1]
print(cli.main(["verify", "--config", tmp + "/v.ini", "--seed", "7", "--out", tmp + "/v.json"]))
"""
    assert _run_without_scipy(code, tmp_path) == ["0"]
    assert len(json.loads((tmp_path / "v.json").read_text())["runs"]) == 2


def test_cli_import_leaves_verify_out():
    code = "import sys, mechcat.cli; print('mechcat.verify' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


@pytest.mark.parametrize(
    "command, config, named",
    [
        ("map --criterion S3", "[grid]\nmu = -0.1, 0.5\nphi = 0, 1\n", "mu"),
        ("cooling-map", "[grid]\nmu = 0.5\nnbar_bath = -5\n", "nbar_bath"),
        ("map --criterion S3", "[grid]\nmu = 0:1\n", "0:1"),
        ("map --criterion S3", "[protocol]\nnbar = nan\n", "nbar"),
        ("map --criterion D5", "[env]\nq_factor = nan\n", "q_factor"),
        ("detector", "[protocol]\nmu = nan\n", "mu"),
        ("map --criterion S3", "[grid]\nmu = inf\n", "mu"),
        ("cooling-map", "[grid]\nmu = nan\n", "mu"),
        ("map --criterion S3", "[grid]\nmu = 0.5\nmu = 1\n", "bad.ini"),
        ("map --criterion S3", "mu = 0.5\n", "bad.ini"),
        ("map --criterion S3", "[grid]\nmu = 50%\n", "50%"),
        ("verify", "[verify]\nchi = 0\n", "chi"),
        ("verify", "[verify]\nmax_phase_sets = 0\n", "max_phase_sets = 0"),
        ("verify", "[verify]\nmax_phase_sets = -3\n", "max_phase_sets = -3"),
        ("verify", "[verify]\nn_seeds = -1\n", "n_seeds = -1"),
        ("verify", "[verify]\nn_seeds = 1.7\n", "n_seeds = 1.7"),
        ("verify", "[verify]\nn_seeds = two\n", "n_seeds = two"),
        ("verify", "[verify]\nn_samples = 1000.9\n", "n_samples = 1000.9"),
        ("verify", "[verify]\nn_samples = 0\n", "n_samples = 0"),
        ("verify", "[verify]\nn_samples = inf\n", "n_samples = inf"),
        ("map --criterion S3", "[grid]\nmu = 0.1:1:0\n", "'0.1:1:0'"),
        ("cooling-map", "[grid]\nmu = 0.1:1:-2\n", "'0.1:1:-2'"),
        ("map --criterion D5", "[grid]\nmu =\n", "grid '' has no point"),
        ("detector", "[grid]\nalpha = ,\n", "grid ',' has no point"),
        ("verify", "[verify]\ntarget_order = 0\n", "target_order = 0"),
        ("verify", "[verify]\ntarget_order = -1\n", "target_order = -1"),
        ("verify", "[verify]\ntarget_order = 2.5\n", "target_order = 2.5"),
        ("verify", "[verify]\nn_samples = -5\n", "n_samples"),
        ("map --criterion S3", "[grid]\nmu = 0:1:2.5\n", "'0:1:2.5'"),
        ("map --criterion S3", "[grid]\nmu = a:1:3\n", "'a:1:3'"),
        ("map --criterion S3", "[env]\nq_factor = abc\n", "[env] q_factor = abc"),
        ("detector", "[detector]\ndark_prob = x\n", "[detector] dark_prob = x"),
    ],
    ids=[
        "negative-mu", "negative-nbar-bath", "malformed-grid", "nan-nbar", "nan-q-factor",
        "nan-detector-mu", "inf-grid-mu", "nan-cooling-mu", "duplicate-key", "no-section-header",
        "percent-value", "zero-chi", "zero-phase-sets", "negative-phase-sets", "negative-n-seeds",
        "fractional-n-seeds", "word-n-seeds", "fractional-n-samples", "zero-n-samples", "inf-n-samples",
        "zero-point-grid", "negative-point-grid", "empty-grid", "commas-only-grid", "zero-target-order",
        "negative-target-order",
        "fractional-target-order",
        "negative-n-samples", "fractional-grid-count", "word-grid-start", "word-q-factor", "word-dark-prob",
    ],
)
def test_bad_config_value_exits_3(tmp_path, capsys, command, config, named):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(config)
    argv = [*command.split(), "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == cli.EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError:")
    assert named in err[0]


@pytest.mark.parametrize(
    "rates",
    [
        ["--g0", "1", "--kappa", "1", "--omega-m", "0"],
        ["--g0", "-5", "--kappa", "1", "--omega-m", "-10"],
        ["--g0", "1", "--kappa", "nan", "--omega-m", "1"],
    ],
    ids=["zero-omega-m", "negative-g0-and-omega-m", "nan-kappa"],
)
def test_impossible_sideband_rates_exit_3(capsys, rates):
    assert cli.main(["sideband", *rates]) == cli.EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError:")


def _strict_json(text):
    """json.loads that refuses Infinity and NaN, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_write_json_refuses_non_finite_numbers(tmp_path):
    out = tmp_path / "x.json"
    with pytest.raises(ValueError):
        cli.write_json(str(out), {"x": math.inf})
    assert not out.exists()


@pytest.mark.parametrize(
    "rates, infinite",
    [
        (["--g0", "1e300", "--kappa", "1e-10", "--omega-m", "1e-10"], "mu_nominal"),
        (["--g0", "1", "--kappa", "1e-300", "--omega-m", "1"], "percent_reduction"),
        (["--g0", "1", "--kappa", "1e-300", "--omega-m", "1e10"], "mu_effective, rotation_angle"),
    ],
    ids=["infinite-mu", "overflowing-reduction", "overflowing-rotation"],
)
def test_sideband_rates_with_a_non_finite_result_exit_3(tmp_path, capsys, rates, infinite):
    out = tmp_path / "s.json"
    assert cli.main(["sideband", *rates, "--out", str(out)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError: g0 = ")
    assert "kappa = " in err[0] and "omega_m = " in err[0] and infinite in err[0]
    assert not out.exists()


def test_verify_report_of_the_closed_system_is_strict_json(tmp_path):
    # q_factor = inf is the documented closed system; the report writes it as "inf"
    cfg = tmp_path / "v.ini"
    cfg.write_text("[env]\nq_factor = inf\n[verify]\nn_samples = 1e5\nn_seeds = 1\n")
    out = tmp_path / "v.json"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    report = _strict_json(out.read_text())
    assert report["env"]["q_factor"] == "inf"
    assert report["exact"]["S3"] < 0


@pytest.mark.parametrize("order", [1, 2, 3])
def test_verify_reports_the_criteria_its_target_order_supports(tmp_path, order):
    # D5 reads moments of order 2 and S3 of order 4: below 4 the report has no S3
    cfg = tmp_path / "v.ini"
    cfg.write_text(f"[verify]\nn_samples = 1e5\nn_seeds = 2\ntarget_order = {order}\n")
    out = tmp_path / "v.json"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    report = _strict_json(out.read_text())
    names = ["D5"] if order >= 2 else []
    assert sorted(report["exact"]) == names
    assert [sorted(run) for run in report["runs"]] == [sorted([*names, "max_abs_moment_error", "seed"])] * 2
    assert "s3_sign_agreement" not in report
    assert report["protocol"]["target_order"] == order
    assert len(report["recovered_moments_last_run"]) == math.comb(order + 4, 4)
    assert report["noiseless_max_abs_deviation"] < 1e-8


def test_verify_above_target_order_4_exits_3_order_overflow(tmp_path, capsys):
    # the exact table of order 2 x 5 = 10 is beyond the evolution's order 8
    cfg = tmp_path / "v.ini"
    cfg.write_text("[verify]\ntarget_order = 5\n")
    out = tmp_path / "v.json"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: OrderOverflow: target_order = 5")
    assert not out.exists()


def _csv_rows(path):
    return [l.split(",") for l in path.read_text().splitlines() if l[:1].isdigit()]


def test_default_cooling_roots_bracket_s3_sign_change(tmp_path):
    from mechcat.criteria import s3_evolved
    from mechcat.opensystem import EnvParams
    from mechcat.presets import OMEGA_M_DEFAULT

    outputs = {}
    for command, extra in (("map", ["--criterion", "S3"]), ("cooling-map", [])):
        for threads in ("1", "2"):
            out = tmp_path / f"{command}-{threads}.csv"
            assert cli.main([command, *extra, "--out", str(out), "--threads", threads]) == cli.EXIT_OK
            outputs[command, threads] = out
        assert outputs[command, "1"].read_bytes() == outputs[command, "2"].read_bytes()
    rows = _csv_rows(outputs["cooling-map", "1"])
    assert len(rows) == 21 * 9
    for mu, nbar_bath, root, verifiable in rows:
        mu, root = float(mu), float(root)
        env = EnvParams(omega_m=OMEGA_M_DEFAULT, q_factor=1e5, nbar_bath=float(nbar_bath))
        if verifiable == "1":
            assert s3_evolved(mu, root * (1 - 1e-6), env) < 0 < s3_evolved(mu, root * (1 + 1e-6), env)
        else:
            assert s3_evolved(mu, 0.0, env) >= 0


def test_table1_batched_criteria_match_one_point_evaluations(tmp_path):
    from mechcat.criteria import d5_evolved, s3_evolved
    from mechcat.opensystem import EnvParams
    from mechcat.presets import BENCHMARK_ROWS, OMEGA_M_DEFAULT, PHI_DEFAULT

    out = tmp_path / "t1.json"
    assert cli.main(["table1", "--format", "json", "--out", str(out)]) == cli.EXIT_OK
    rows = json.loads(out.read_text())["rows"]
    assert [r["row"] for r in rows] == [row.name for row in BENCHMARK_ROWS]
    for got, row in zip(rows, BENCHMARK_ROWS):
        env = EnvParams(omega_m=OMEGA_M_DEFAULT, q_factor=row.q_factor, nbar_bath=row.nbar_bath)
        for name, one_point in (("D5", d5_evolved), ("S3", s3_evolved)):
            ref = one_point(row.mu, row.nbar, env, PHI_DEFAULT)
            assert abs(got[name] - ref) <= 1e-12 * abs(ref), (row.name, name)


def test_table1_opt_columns_equal_one_point_searches(tmp_path):
    from mechcat.detector import optimize_alpha
    from mechcat.presets import BENCHMARK_ROWS, PHI_DEFAULT, default_detector

    out = tmp_path / "t1.json"
    assert cli.main(["table1", "--format", "json", "--out", str(out)]) == cli.EXIT_OK
    for got, row in zip(json.loads(out.read_text())["rows"], BENCHMARK_ROWS):
        for name, resolving in (("F_resolving_opt", True), ("F_nonresolving_opt", False)):
            one = optimize_alpha(default_detector(resolving), row.mu, PHI_DEFAULT, row.nbar, row.nbar)
            assert got[name] == 100 * one.fraction, (row.name, name)


def test_consecutive_main_calls_write_what_fresh_processes_write(tmp_path, capsys):
    # one parser serves every call of a process; no option may carry over to the next call
    assert cli.build_parser() is cli.build_parser()
    (tmp_path / "map.ini").write_text("[grid]\nmu = 0.5, 1.0\nphi = 0:6.283185307179586:7\n")
    (tmp_path / "verify.ini").write_text("[verify]\nn_samples = 1e4\nn_seeds = 2\n")
    (tmp_path / "bad.ini").write_text("[protocol]\nmu = nan\n")
    map_argv = ["map", "--criterion", "S3", "--config", str(tmp_path / "map.ini")]
    verify_argv = ["verify", "--config", str(tmp_path / "verify.ini")]

    def calls(d):
        return [
            (map_argv + ["--out", f"{d}/map1.csv", "--contour-out", f"{d}/contour.csv"], 0),
            (map_argv + ["--out", f"{d}/map2.csv"], 0),
            (verify_argv + ["--seed", "1", "--out", f"{d}/v1.json"], 0),
            (verify_argv + ["--out", f"{d}/v2.json"], 0),
            (["detector", "--config", str(tmp_path / "bad.ini"), "--out", f"{d}/d1.csv"], 3),
            (["detector", "--out", f"{d}/d2.csv"], 0),
        ]

    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    for d in (fresh, reused):
        d.mkdir()
    for (fresh_argv, code), (argv, _) in zip(calls(fresh), calls(reused)):
        r = run_cli(fresh_argv)
        assert r.returncode == code, r.stderr
        assert cli.main(argv) == code
        assert capsys.readouterr().err == r.stderr
    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted(p.name for p in reused.iterdir())
    assert "map2.csv.contour.csv" in names and "d1.csv" not in names
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name


@pytest.mark.parametrize(
    "command, grid, points, limit",
    [
        ("map --criterion S3", "mu = 0.5\nphi = 0:1:4e5\n", 400000, cli.max_grid_points("S3")),
        ("map --criterion S3", "mu = 0:1:1000\nphi = 0:1:1000\n", 1000000, cli.max_grid_points("S3")),
        ("map --criterion D5", "mu = 0:1:1000\nphi = 0:1:1000\n", 1000000, cli.max_grid_points("D5")),
        ("cooling-map", "mu = 0.2:3:400\nnbar_bath = 0:2000:400\n", 160000, cli.max_grid_points("cooling-map")),
        ("detector", "alpha = 0:3:1e12\n", 1000000000000, cli.max_grid_points("detector")),
    ],
    ids=["map-one-axis", "map-product", "map-d5", "cooling-map", "detector"],
)
def test_grid_above_the_memory_limit_exits_3(tmp_path, capsys, command, grid, points, limit):
    cfg = tmp_path / "big.ini"
    cfg.write_text("[grid]\n" + grid)
    argv = [*command.split(), "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == cli.EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: GridTooLarge:")
    assert f"{points} points" in err[0] and f"{limit} points" in err[0]
    assert not (tmp_path / "out.csv").exists()


def test_delta_map_above_the_memory_limit_exits_3(tmp_path, capsys):
    # mu = 1000 asks for cutoffs of 8000009 per mode; refused before any Fock array is built
    cfg = tmp_path / "big.ini"
    cfg.write_text("[grid]\nmu = 0.5, 1000\nphi = 0\n")
    argv = ["map", "--criterion", "delta", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == cli.EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: GridTooLarge:")
    assert "mu = 1000" in err[0] and "8000009 x 8000009" in err[0] and f"{cli.GRID_MEMORY_LIMIT / 1e9:g} GB" in err[0]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "command, key, grid",
    [("detector", "alpha", "0.5, nan"), ("map --criterion S3", "mu", "0.5, inf"),
     ("map --criterion delta", "phi", "-inf, 0")],
    ids=["detector-nan", "map-inf", "delta-minus-inf"],
)
def test_a_listed_grid_point_that_is_not_finite_exits_3(tmp_path, capsys, command, key, grid):
    # the range form's message, naming the key
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[grid]\n{key} = {grid}\n")
    out = tmp_path / "out.csv"
    assert cli.main([*command.split(), "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: ValueError: grid {grid!r} has a point that is not finite ([grid] {key})"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, named",
    [
        ("map --criterion S3", "[protocol]\nnbr = 5\n", "[protocol] nbr"),
        ("map --criterion S3", "[protocol]\nmu = 1e-3\n", "[protocol] mu"),
        ("map --criterion D5", "[detector]\neta = 0.9\n", "[detector] eta"),
        ("map --criterion S3", "[DEFAULT]\nnbar = 5\n", "[DEFAULT] nbar"),
        ("map --criterion S3", "[verify]\n", "[verify]"),
        ("cooling-map", "[env]\nnbar_bath = 7777\n", "[env] nbar_bath"),
        ("map --criterion delta", "[env]\nq_factor = 1e5\n", "[env] q_factor"),
        ("detector", "[env]\nq_factor = 1e5\n", "[env] q_factor"),
        ("verify", "[grid]\nmu = 0.5\n", "[grid] mu"),
    ],
    ids=["typo-map", "unused-map-mu", "section-of-another-command", "default-section", "empty-section",
         "cooling-map-bath", "delta-env", "detector-env", "verify-grid"],
)
def test_a_key_the_command_does_not_take_exits_3(tmp_path, capsys, command, config, named):
    # each of these ran on the defaults with exit 0
    cfg = tmp_path / "c.ini"
    cfg.write_text(config)
    out = tmp_path / "out.csv"
    assert cli.main([*command.split(), "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: ValueError: {named} ")
    assert err[0].endswith(" of " + ("map --criterion delta" if "delta" in command else command.split()[0]))
    assert not out.exists()


@pytest.mark.parametrize("rate", ["dark_rate_hz = 1e9\n", "window_s = 1\n", "dark_rate_hz = 1\nwindow_s = 1e-8\n"],
                         ids=["rate", "window", "both"])
def test_dark_prob_with_a_dark_rate_exits_3(tmp_path, capsys, rate):
    cfg = tmp_path / "d.ini"
    cfg.write_text("[detector]\ndark_prob = 1e-8\n" + rate)
    out = tmp_path / "d.csv"
    assert cli.main(["detector", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError: [detector] dark_prob and ")
    assert all(line.split(" =")[0] in err[0] for line in rate.splitlines())
    assert not out.exists()


def test_dark_count_from_rate_and_window(tmp_path):
    # either key alone keeps the other's default; both defaults give the 1e-8 of dark_prob's
    metas = []
    for detector in ("", "dark_rate_hz = 2\n", "window_s = 3e-8\n", "dark_prob = 1e-8\n"):
        cfg = tmp_path / "d.ini"
        cfg.write_text(f"[detector]\n{detector}[grid]\nalpha = 1\n")
        out = tmp_path / "d.csv"
        assert cli.main(["detector", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        metas.append(out.read_text().splitlines()[1])
    assert [m.split("dark_prob=")[1].split(";")[0] for m in metas] == ["1e-08", "2e-08", "3e-08", "1e-08"]


@pytest.mark.parametrize("command", ["map", "cooling-map", "detector", "verify"])
def test_help_lists_every_key_and_default(capsys, command):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    out = capsys.readouterr().out
    names = ["map", "map --criterion delta"] if command == "map" else [command]
    for name in names:
        assert f"INI keys of {name}:" in out
        for section, keys in cli.CONFIG_KEYS[name].items():
            for key, default in keys.items():
                default = default.default if isinstance(default, cli.Count) else default
                text = "(no default)" if default is None else f"= {cli._fmt(default)}"
                assert f"[{section}] {key} {text}" in out
