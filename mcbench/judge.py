"""Apply the checks of ``checks.py`` to the outputs of a workload's rounds.

Runs in the parent process after the rounds, outside every timed part.
Returns ``(failures, errors)`` as the checks do. The closed-form and Fock
references used here come from mechcat's other computation path; the
high-precision and Gaussian-entropy references come from ``checks``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from mcbench import checks, inputs as inputs_mod

FOCK_MAP_POINTS = 2  # per map, taken from the rows with mu <= 1


def _load_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["rows"]


def _same_bytes(round_dirs: list[str], names: list[str]) -> list[str]:
    """Identical inputs must give byte-identical CLI output in every round."""
    failures = []
    for name in names:
        blobs = set()
        for d in round_dirs:
            with open(os.path.join(d, name), "rb") as fh:
                blobs.add(fh.read())
        if len(blobs) != 1:
            failures.append(f"{name}: output differs between rounds of the same inputs")
    return failures


def _fock_s3_d5(mu, phi, nbar, env, criterion):
    """Map value by the Fock path: heralded_state -> moments -> evolution -> determinant."""
    from mechcat import algebra, criteria, herald, opensystem

    state, _ = herald.heralded_state(herald.ProtocolParams(mu=mu, phi=phi, nbar_1=nbar, nbar_2=nbar))
    order = 4 if criterion == "S3" else 2
    table = opensystem.evolve_moments(algebra.moments_from_state(state, order), env)
    build = criteria.build_s3 if criterion == "S3" else criteria.build_d5
    return build(table).value


def judge_sweep(inputs: dict, records: list[dict], round_dirs: list[str]):
    from mechcat import criteria, opensystem

    failures, errors = [], []
    for rec in records:
        failures += [f"{op}: {why}" for op, why in rec["failures"]]
    names = [c[3] for c in inputs["commands"]]
    missing = [n for n in names if not os.path.exists(os.path.join(round_dirs[0], n))]
    if missing:
        return failures + [f"missing outputs: {missing}"], errors
    failures += _same_bytes(round_dirs, names)
    first = round_dirs[0]

    f, e = checks.check_closed_s3(_load_rows(os.path.join(first, "map_closed.json")))
    failures += f
    errors += e

    cfg = inputs["configs"]["cooling_map"]

    def s3(mu, nbar, nbar_bath):
        env = opensystem.EnvParams(inputs_mod.OMEGA_M, cfg["env"]["q_factor"], nbar_bath)
        return criteria.s3_evolved(mu, nbar, env, math.pi)

    f, _ = checks.check_cooling_roots(_load_rows(os.path.join(first, "cooling_map.json")), s3)
    failures += f

    for label, criterion in (("map_S3", "S3"), ("map_D5", "D5")):
        c = inputs["configs"][label]
        env = opensystem.EnvParams(inputs_mod.OMEGA_M, c["env"]["q_factor"], c["env"]["nbar_bath"])
        rows = [r for r in _load_rows(os.path.join(first, f"{label}.json")) if r["mu"] <= 1.0]
        picked = rows[:: max(1, len(rows) // FOCK_MAP_POINTS)][:FOCK_MAP_POINTS]
        pairs = [(r["value"], _fock_s3_d5(r["mu"], r["phi"], c["protocol"]["nbar"], env, criterion))
                 for r in picked]
        f, _ = checks.check_pairs(f"{label} vs Fock path", pairs, checks.FOCK_MAP_TOL)
        failures += f
    return failures, errors


def _complex(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def judge_campaign(inputs: dict, records: list[dict], round_dirs: list[str]):
    failures, errors = [], []
    for rec in records:
        failures += [f"{op}: {why}" for op, why in rec["failures"]]
    if failures:
        return failures, errors
    for i in range(len(inputs["studies"])):
        label = f"study{i}"
        studies = [rec["outputs"]["studies"][i] for rec in records]
        exact = _complex(studies[0]["exact"])
        for st in studies:
            f, e = checks.check_table(f"{label} noiseless", _complex(st["noiseless"]), exact,
                                      checks.NOISELESS_TOL)
            failures += f
            errors += e
        noisy = np.array([_complex(t) for st in studies for t in st["noisy"]])
        failures += checks.check_unbiased(label, exact, noisy)[0]
        failures += checks.check_spread(label, noisy, studies[0]["std_errors"])[0]
    return failures, errors


def judge_fock(inputs: dict, records: list[dict], round_dirs: list[str]):
    from mechcat import detector, herald
    from mechcat.errors import CutoffTooSmall

    failures, errors = [], []
    expected = {f"point{j}" for j, pt in enumerate(inputs["points"])
                if pt["mu"] == inputs_mod.FOCK_FAILING_POINT["mu"]
                and pt["nbar"] == inputs_mod.FOCK_FAILING_POINT["nbar"]}
    for rec in records:
        for op, why in rec["failures"]:
            if not (op in expected and why.startswith(CutoffTooSmall.__name__ + ":")):
                failures.append(f"{op}: {why}")
    for rec in records:
        for pt in rec["outputs"]["points"]:
            spec = inputs["points"][pt["index"]]
            params = herald.ProtocolParams(mu=spec["mu"], phi=spec["phi"],
                                           nbar_1=spec["nbar"], nbar_2=spec["nbar"])
            label = f"point{pt['index']} (dim {pt['dim']})"
            f, e = checks.check_pairs(label + " heralding probability",
                                      [(pt["p"], herald.heralding_probability(params))],
                                      checks.PROBABILITY_TOL)
            failures += f
            errors += e
            closed = herald.heralded_moment_table(params, 4)
            keys = [tuple(k) for k in pt["keys"]]
            f, e = checks.check_table(label + " moments", _complex(pt["moments"]),
                                      np.array([closed.entries[k] for k in keys]), checks.MOMENT_TOL)
            failures += f
            errors += e
            gaussian = None
            if spec["nbar"] == 0.0:
                unit = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
                means = [closed.entries[k] for k in unit]
                second = [[closed.entries[tuple(a + b for a, b in zip(unit[i], unit[j]))]
                           for j in range(4)] for i in range(4)]
                gaussian = checks.gaussian_entropy(means, second)
            f, e = checks.check_delta(label, pt["delta"], gaussian)
            failures += f
            errors += e
        for orc in rec["outputs"]["oracles"]:
            spec = inputs["oracles"][orc["index"]]
            protocol = herald.ProtocolParams(mu=spec["mu"], phi=spec["phi"],
                                             nbar_1=spec["nbar"], nbar_2=spec["nbar"])
            res = detector.DetectorParams(spec["eta"], spec["dark_prob"], resolving=True)
            non = detector.DetectorParams(spec["eta"], spec["dark_prob"], resolving=False)
            f, e = checks.check_pairs(f"oracle{orc['index']} fractions", [
                (orc["resolving"], detector.true_positive_fraction_resolving(res, protocol)),
                (orc["nonresolving"], detector.true_positive_fraction_nonresolving(non, protocol)),
            ], checks.ORACLE_TOL)
            failures += f
            errors += e
    return failures, errors


JUDGES = {"sweep": judge_sweep, "campaign": judge_campaign, "fock": judge_fock}
