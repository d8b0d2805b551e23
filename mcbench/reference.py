"""Reference figures for the README: CLI subcommands on their defaults and
the stage table of the ROADMAP baseline, with the calibration readings.

    python3 mcbench/reference.py [--out mcbench/out/reference.json]

Run from the repository root. Each CLI command runs in a fresh interpreter
(wall time and peak RSS of that process); stages run in this process after
one warm-up call. Takes about two minutes on a 2-core host.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from mcbench import run, speed  # noqa: E402

OUT_DIR = os.path.join(ROOT, "mcbench", "out")

CLI_COMMANDS = [
    ("table1 --check", ["table1", "--check"]),
    ("table2 --check", ["table2", "--check"]),
    ("detector", ["detector"]),
    ("sideband (membrane)", ["sideband", "--g0", "797.96", "--kappa", "9.99e7", "--omega-m", "7.157e6"]),
    ("map --criterion S3", ["map", "--criterion", "S3"]),
    ("map --criterion S3 --threads 2", ["map", "--criterion", "S3", "--threads", "2"]),
    ("map --criterion D5", ["map", "--criterion", "D5"]),
    ("cooling-map", ["cooling-map"]),
    ("verify", ["verify"]),
]


def time_cli(argv: list[str]) -> dict:
    out = os.path.join(OUT_DIR, "reference-cli.out")
    cmd = [sys.executable, "-m", "mechcat.cli", *argv, "--out", out]
    t = time.perf_counter()
    proc = subprocess.Popen(cmd, env={**run.child_env(), "PYTHONPATH": os.path.join(ROOT, "src")},
                            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode}


def best_of(fn, repeat: int = 3) -> float:
    fn()
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return min(times)


def stage_table() -> dict:
    from mechcat import criteria, verify
    from mechcat.herald import ProtocolParams, heralded_moment_table, heralded_state
    from mechcat.opensystem import EnvParams, evolve_moments

    params = ProtocolParams(mu=1e-3, phi=math.pi, nbar_1=0.1, nbar_2=0.1)
    env = EnvParams(omega_m=2 * math.pi * 1e6, q_factor=1e5, nbar_bath=1000.0)
    t4 = heralded_moment_table(params, 4)
    t8 = heralded_moment_table(params, 8)
    e8 = evolve_moments(t8, env)
    study = verify.VerificationStudy(e8, phi=math.pi)
    stages = {
        "heralded_moment_table, order 4": best_of(lambda: heralded_moment_table(params, 4)),
        "heralded_moment_table, order 8": best_of(lambda: heralded_moment_table(params, 8)),
        "evolve_moments, order 4": best_of(lambda: evolve_moments(t4, env)),
        "evolve_moments, order 8": best_of(lambda: evolve_moments(t8, env), repeat=1),
        "s3_evolved (one grid point)": best_of(lambda: criteria.s3_evolved(0.5, 0.1, env, 1.0)),
        "default_phase_sets(4)": best_of(lambda: verify.default_phase_sets(4), repeat=1),
        f"VerificationStudy.__init__ ({len(study.channels)} channels)":
            best_of(lambda: verify.VerificationStudy(e8, phi=math.pi), repeat=1),
        "study.run(1e6)": best_of(lambda: study.run(10**6, 0)),
    }
    for mu, nbar in ((0.5, 0.0), (1.5, 0.1), (2.0, 0.4)):
        p = ProtocolParams(mu=mu, phi=math.pi / 2, nbar_1=nbar, nbar_2=nbar)
        state, _ = heralded_state(p)
        dim = state.config.dim
        del state
        stages[f"Fock heralded_state, dim {dim}"] = best_of(lambda: heralded_state(p), repeat=1)
    stages["peak RSS of the stage process (MB)"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return stages


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default=os.path.join(OUT_DIR, "reference.json"))
    args = ap.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    report = {"machine": run.machine_facts(), "speed_before": speed.calibrate()}
    report["cli"] = {label: time_cli(argv) for label, argv in CLI_COMMANDS}
    report["stages"] = stage_table()
    report["speed_after"] = speed.calibrate()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for label, r in report["cli"].items():
        print(f"{label:34s} {r['wall_s']:7.2f} s  {r['peak_rss_mb']:6.1f} MB  exit {r['exit']}")
    for label, seconds in report["stages"].items():
        print(f"{label:44s} {seconds:10.4g}")
    print("calibration", report["speed_before"], report["speed_after"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
