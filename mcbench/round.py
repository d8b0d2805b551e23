"""One round of a workload in a fresh interpreter.

    python3 mcbench/round.py --workload W --inputs IN.json --dir ROUND_DIR --round K --trace 0|1

Times set-up (``import mechcat.cli``, plus the workload's own set-up) and
each operation of the fixed work, reads a machine-speed calibration beside
them (``speed.Marks``), and writes
``result.json`` (and ``trace.json`` when traced) into ROUND_DIR. Correctness
is judged by the parent process from these files.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from mcbench import speed, trace  # noqa: E402  (stdlib only; before the clock)

# Calibration loop that scales each workload's solve times. On the 2-core VM
# the README's figures come from, the Fock path's dense algebra followed
# neither loop (its times moved while the loops did not), so its solve times
# stay wall seconds and its blas readings are only recorded.
SOLVE_SCALE = {"sweep": "python", "campaign": "python", "fock": None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", action="store_true", help="time the import only, then stop")
    args = ap.parse_args(argv)
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    # set-up is timed in segments (the import, then each study of the
    # campaign), with a calibration reading between segments
    marks_setup = speed.Marks("python")
    marks_setup()
    t0 = time.perf_counter()
    n_modules = len(sys.modules)
    import mechcat.cli  # noqa: F401  (the import is part of set-up)

    t_import = time.perf_counter()
    modules = len(sys.modules) - n_modules
    segments = [(t0, t_import)]
    marks_setup()
    record = {
        "import_s": t_import - t0,
        "modules": modules,
        "setup_wall_s": t_import - t0,
        "setup_s": (t_import - t0) * marks_setup.scale(t0, t_import),
    }
    if args.probe:
        return _write(os.path.join(args.dir, "result.json"), record)
    from mcbench import work

    tracer = trace.Tracer() if args.trace else None
    if tracer:
        trace.install(tracer)
    if args.workload == "sweep":  # builds argument lists only: nothing to time
        state = work.sweep_setup(inputs, os.path.dirname(args.inputs), args.dir)
    elif args.workload == "campaign":
        state = work.campaign_setup(inputs, marks_setup, segments)
    else:
        state = None

    marks = speed.Marks(SOLVE_SCALE[args.workload] or "blas")
    scale = marks.scale if SOLVE_SCALE[args.workload] else (lambda start, end: 1.0)
    ops = work.Ops(marks, tracer.span if tracer else work.no_span)
    if args.workload == "sweep":
        result = work.sweep_solve(state, ops)
    elif args.workload == "campaign":
        result = work.campaign_solve(state, inputs, (inputs["seed"], args.round), ops)
    else:
        result = work.fock_solve(inputs, ops)

    outputs = {
        "sweep": lambda r: {},
        "campaign": work.campaign_outputs,
        "fock": work.fock_outputs,
    }[args.workload](result)
    record.update({
        "setup_wall_s": sum(end - start for start, end in segments),
        "setup_s": sum((end - start) * marks_setup.scale(start, end) for start, end in segments),
        "solve_wall_s": sum(end - start for _, start, end in result["timings"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calibration": {"setup": marks_setup.readings, "solve": marks.readings},
        "ops": result["ops"],
        "failures": result["failures"],
        # [kind, wall seconds, scaled seconds] per operation
        "timings": [[kind, end - start, (end - start) * scale(start, end)]
                    for kind, start, end in result["timings"]],
        "outputs": outputs,
    })
    if tracer:
        record["layers"] = tracer.layer_metrics()
        _write(os.path.join(args.dir, "trace.json"), tracer.dump())
    return _write(os.path.join(args.dir, "result.json"), record)


def _write(path: str, payload) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
