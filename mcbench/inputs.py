"""Workload inputs, generated from the benchmark seed.

Pure Python with no numpy or mechcat import, so that the round process can
load it before its set-up clock starts. The same seed gives the same inputs.
Parts that set ``accuracy_digits`` (the closed-system coupling grid) and the
Fock dimensions are fixed; the seed moves grid offsets, occupations, phases
and Monte-Carlo streams.
"""

from __future__ import annotations

import configparser
import math
import os
import random

WORKLOADS = ("sweep", "campaign", "fock")

OMEGA_M = 2.0 * math.pi * 1.0e6

# Closed-system map: couplings from 1e-5 to 2, plus the membrane (2.26e-5)
# and photonic-crystal (1.29e-4) rows, at four fixed phases.
CLOSED_MUS = sorted(
    [10.0 ** (-5.0 + k * (5.0 + math.log10(2.0)) / 13.0) for k in range(13)] + [2.0, 2.26e-5, 1.29e-4]
)
CLOSED_PHIS = [0.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi]

CAMPAIGN_SEEDS_PER_STUDY = 30
CAMPAIGN_N_SAMPLES = 10**6

ORACLE_CUTOFF = 12
# The failing Fock point: the default cutoff rule gives 20 levels at
# nbar = 0.5, mu = 0.5, and the thermal tail check rejects it.
FOCK_FAILING_POINT = {"mu": 0.5, "nbar": 0.5}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"mcbench:{workload}:{seed}")


def _grid(start: float, stop: float, num: int) -> str:
    return f"{start!r}:{stop!r}:{num}"


def sweep_inputs(seed: int) -> dict:
    """CLI configs and argument lists for the sweep workload."""
    rng = _rng("sweep", seed)
    u = rng.random
    s3_map = {
        "env": {"q_factor": 1e5, "nbar_bath": 500.0 * (1.0 + 0.2 * u())},
        "protocol": {"nbar": 0.05 + 0.1 * u()},
        "grid": {"mu": _grid(0.05 + 0.05 * u(), 2.0, 8), "phi": _grid(0.1 * u(), 2.0 * math.pi, 10)},
    }
    d5_map = {
        "env": {"q_factor": 1e5, "nbar_bath": 500.0 * (1.0 + 0.2 * u())},
        "protocol": {"nbar": 0.05 + 0.1 * u()},
        "grid": {"mu": _grid(0.05 + 0.05 * u(), 2.0, 12), "phi": _grid(0.1 * u(), 2.0 * math.pi, 12)},
    }
    closed_map = {
        "env": {"q_factor": "inf", "nbar_bath": 0.0},
        "protocol": {"nbar": 0.0},
        "grid": {
            "mu": ", ".join(repr(m) for m in CLOSED_MUS),
            "phi": ", ".join(repr(p) for p in CLOSED_PHIS),
        },
    }
    cooling = {
        "env": {"q_factor": 1e5 * (1.0 + 0.5 * u())},
        "grid": {"mu": _grid(0.2 + 0.1 * u(), 3.0, 5), "nbar_bath": _grid(0.0, 2000.0 * (1.0 + 0.2 * u()), 3)},
    }
    det = {
        "protocol": {"mu": 10.0 ** (-2.5 + u()), "nbar": 0.05 + 0.1 * u()},
        "detector": {"eta": 0.7 + 0.2 * u()},
    }
    sideband = [
        "--g0", repr(2 * math.pi * 127.0 * (0.9 + 0.2 * u())),
        "--kappa", repr(2 * math.pi * 15.9e6 * (0.9 + 0.2 * u())),
        "--omega-m", repr(2 * math.pi * 1.139e6 * (0.9 + 0.2 * u())),
    ]
    # (label, argv without --out/--config, config or None, output file name)
    commands = [
        ("table1", ["table1", "--check"], None, "table1.csv"),
        ("table2", ["table2", "--check"], None, "table2.csv"),
        ("map_S3", ["map", "--criterion", "S3", "--format", "json"], s3_map, "map_S3.json"),
        ("map_D5", ["map", "--criterion", "D5", "--format", "json"], d5_map, "map_D5.json"),
        ("map_closed", ["map", "--criterion", "S3", "--format", "json"], closed_map, "map_closed.json"),
        ("cooling_map", ["cooling-map", "--format", "json"], cooling, "cooling_map.json"),
        ("detector", ["detector", "--format", "json"], det, "detector.json"),
        ("sideband", ["sideband", *sideband], None, "sideband.json"),
    ]
    return {"commands": commands, "configs": {c[0]: c[2] for c in commands}}


def campaign_inputs(seed: int) -> dict:
    """Verification studies: two share one environment, one has its own."""
    rng = _rng("campaign", seed)
    u = rng.random
    env_shared = {"omega_m": OMEGA_M, "q_factor": 1e5 * (1.0 + 0.2 * u()), "nbar_bath": 1000.0 * (1.0 + 0.2 * u())}
    env_own = {"omega_m": OMEGA_M, "q_factor": 1e6 * (1.0 + 0.2 * u()), "nbar_bath": 100.0 * (1.0 + 0.2 * u())}
    studies = [
        {"mu": 1e-3 * (1.0 + 0.1 * u()), "nbar": 0.1, "configuration": "parallel", "env": env_shared},
        {"mu": 0.1 * (1.0 + 0.1 * u()), "nbar": 0.05, "configuration": "series", "env": env_shared},
        {"mu": 1.0 * (1.0 + 0.1 * u()), "nbar": 0.0, "configuration": "parallel", "env": env_own},
    ]
    for s in studies:
        s["phi"] = math.pi
    return {
        "studies": studies,
        "n_seeds": CAMPAIGN_SEEDS_PER_STUDY,
        "n_samples": CAMPAIGN_N_SAMPLES,
        "target_order": 4,
    }


def fock_inputs(seed: int) -> dict:
    """Fock points with default cutoffs from dim 400 to 1936, and two oracle couplings."""
    rng = _rng("fock", seed)
    u = rng.random
    # (mu, nbar) fixed so that the dimensions are fixed; phi from the seed
    fixed = [(0.5, 0.0), (1.0, 0.2), (1.5, 0.0), (1.5, 0.4), (2.0, 0.4)]
    points = [{"mu": mu, "nbar": nbar, "phi": 0.7 * math.pi * u()} for mu, nbar in fixed]
    points.append({**FOCK_FAILING_POINT, "phi": 0.7 * math.pi * u()})
    oracles = [
        {"mu": mu * (1.0 + 0.1 * u()), "nbar": 0.1, "phi": math.pi, "cutoff": ORACLE_CUTOFF,
         "eta": 0.8, "dark_prob": 1e-8}
        for mu in (0.3, 0.8)
    ]
    return {"points": points, "oracles": oracles}


def make_inputs(workload: str, seed: int) -> dict:
    return {"sweep": sweep_inputs, "campaign": campaign_inputs, "fock": fock_inputs}[workload](seed)


def write_configs(inputs: dict, directory: str) -> None:
    """Write the INI file of every sweep command that takes one."""
    for label, sections in inputs["configs"].items():
        if sections is None:
            continue
        cfg = configparser.ConfigParser()
        for section, values in sections.items():
            cfg[section] = {k: str(v) for k, v in values.items()}
        path = os.path.join(directory, f"{label}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            cfg.write(fh)
