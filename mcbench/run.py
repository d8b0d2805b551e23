"""Benchmark entry point for mechcat.

    python3 mcbench/run.py --workload sweep|campaign|fock --seed N --seconds S --trace 0|1

Run from the repository root. Each round is a fresh interpreter
(``mcbench/round.py``) that imports ``mechcat.cli``, sets the workload up and
does its fixed work once; rounds repeat until ``--seconds`` have passed, so
every run attempts whole rounds of the same operations. The parent then
checks every round's outputs and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The line before it holds the run record (machine facts,
machine-speed readings, per-round samples); ``mcbench/out/`` keeps the
round files and traces.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "mcbench", "out")

BLAS_THREADS = "2"
MAX_MEASURE_S = 120.0  # never start a round that would end past this
MIN_SETUP_SAMPLES = 5
IMPORT_ONLY_SETUP = ("sweep", "fock")
ROUND_TIMEOUT_S = 150.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "mechcat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": int(BLAS_THREADS),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def run_round(workload: str, run_dir: str, k: int, traced: bool, probe: bool = False) -> dict:
    round_dir = os.path.join(run_dir, f"{'p' if probe else 'r'}{k}")
    os.makedirs(round_dir)
    cmd = [sys.executable, os.path.join(ROOT, "mcbench", "round.py"), "--workload", workload,
           "--inputs", os.path.join(run_dir, "inputs.json"), "--dir", round_dir,
           "--round", str(k), "--trace", str(int(traced))] + (["--probe"] if probe else [])
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    result = os.path.join(round_dir, "result.json")
    if proc.returncode != 0 or not os.path.exists(result):
        raise RuntimeError(f"round {k} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result, encoding="utf-8") as fh:
        record = json.load(fh)
    record["dir"] = round_dir
    record["traced"] = traced
    return record


def solve_estimate(records: list[dict], column: int = 2) -> float:
    """Time of one round's fixed work, robust to bursts of host speed.

    Every operation kind contributes (its count per round) x (the median
    scaled duration of that kind over all the given rounds). Operations of
    one kind do the same work, so the median drops the ones a burst hit.
    ``column`` 1 gives wall seconds, 2 seconds scaled by the calibration.
    """
    durations: dict[str, list[float]] = {}
    for rec in records:
        for timing in rec["timings"]:
            durations.setdefault(timing[0], []).append(timing[column])
    return sum(len(d) / len(records) * statistics.median(d) for d in durations.values())


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mechcat", "cli.py")):
        print(f"error: mechcat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    sys.path.insert(0, SRC)
    from mcbench import inputs as inputs_mod

    if args.workload not in inputs_mod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    from mcbench import judge, speed

    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    inputs = inputs_mod.make_inputs(args.workload, args.seed)
    inputs["seed"] = args.seed
    with open(os.path.join(run_dir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)
    if args.workload == "sweep":
        inputs_mod.write_configs(inputs, run_dir)

    facts = machine_facts()
    speed_before = speed.calibrate()
    records: list[dict] = []
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        records.append(run_round(args.workload, run_dir, len(records), traced))
        elapsed = time.perf_counter() - t_start
        whole = not args.trace or len(records) % 2 == 0
        per_round = elapsed / len(records)
        if whole and (elapsed >= args.seconds or elapsed + per_round * (1 + args.trace) > MAX_MEASURE_S):
            break
    # Where set-up is the import alone, fresh interpreters that only import
    # top the set-up samples up to MIN_SETUP_SAMPLES.
    plain = [r for r in records if not r["traced"]]
    probes = []
    if args.workload in IMPORT_ONLY_SETUP:
        while len(plain) + len(probes) < MIN_SETUP_SAMPLES:
            probes.append(run_round(args.workload, run_dir, len(probes), False, probe=True))
    measured_s = time.perf_counter() - t_start

    failures, errors = judge.JUDGES[args.workload](inputs, records, [r["dir"] for r in records])
    attempted = sum(r["ops"] for r in records)
    failed = sum(len(r["failures"]) for r in records)

    traced = [r for r in records if r["traced"]]
    samples = {
        "setup_s": [r["setup_s"] for r in plain + probes],
        "setup_wall_s": [r["setup_wall_s"] for r in plain + probes],
        "solve_wall_s": [r["solve_wall_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    if args.trace:
        values = {}
        for name in traced[0]["layers"]:
            values[name] = statistics.median(r["layers"][name] for r in traced)
        values["import.mechcat_cli.s"] = statistics.median(r["import_s"] for r in traced)
        values["import.modules.count"] = statistics.median(r["modules"] for r in traced)
        untraced_solve = solve_estimate(plain)
        traced_solve = solve_estimate(traced)
        values["trace.untraced_solve_s"] = untraced_solve
        values["trace.traced_solve_s"] = traced_solve
        values["trace.overhead_pct"] = 100.0 * (traced_solve / untraced_solve - 1.0)
        metric_spec = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(samples["setup_s"]),
            "solve_s": solve_estimate(plain),
            "peak_rss_mb": max(samples["peak_rss_mb"]),
            "accuracy_digits": judge.checks.accuracy_digits(errors),
        }
        metric_spec = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in metric_spec}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(records),
        "measured_s": measured_s,
        "machine": facts,
        "speed": {
            "parent_before": speed_before,
            "parent_after": speed.calibrate(),
            "rounds": [r["calibration"] for r in records],
        },
        "solve_wall_estimate_s": solve_estimate(plain, column=1),
        "samples": samples,
        "quartiles": {k: quartiles(v) for k, v in samples.items()},
        "worst_error": max(errors, default=0.0),
        "check_failures": failures[:50],
        "op_failures": [f for r in records for f in r["failures"]][:20],
    }
    with open(os.path.join(run_dir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
