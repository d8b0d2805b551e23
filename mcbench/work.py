"""Set-up and fixed work of each workload, run inside one round process.

Every function here reaches mechcat through its CLI (``cli.main``) or its
public library API, looked up on the module at call time so that the
traced run sees the wrapped functions. Outputs are kept as objects during
the timed part and turned into plain data afterwards.
"""

from __future__ import annotations

import contextlib
import os
import time

import mechcat.cli as cli
from mechcat import algebra, criteria, detector, fock, herald, opensystem, verify


def no_span(name):
    return contextlib.nullcontext()


class Ops:
    """Times operations one by one; operations of one kind do the same work.

    ``mark`` reads the machine-speed calibration and is called between
    groups of operations. An exception inside ``op`` is recorded as that
    operation's failure and the next operation runs.
    """

    def __init__(self, mark, span=no_span):
        self.mark = mark
        self.span = span
        self.timings: list[list] = []  # [kind, start, end]
        self.failures: list[list[str]] = []  # [operation, reason]

    @contextlib.contextmanager
    def op(self, kind: str, name: str | None = None):
        start = time.perf_counter()
        try:
            yield
        except Exception as exc:  # judged by the checks, not here
            self.failures.append([name or kind, f"{type(exc).__name__}: {exc}"])
        finally:
            self.timings.append([kind, start, time.perf_counter()])

    def result(self, **outputs) -> dict:
        return {"ops": len(self.timings), "failures": self.failures, "timings": self.timings, **outputs}


# ---------------------------------------------------------------------------
# sweep: CLI subcommands


def sweep_setup(inputs: dict, config_dir: str, out_dir: str) -> list[tuple[str, list[str]]]:
    argvs = []
    for label, argv, config, out_name in inputs["commands"]:
        argv = [*argv, "--out", os.path.join(out_dir, out_name), "--threads", "1"]
        if config is not None:
            argv += ["--config", os.path.join(config_dir, f"{label}.ini")]
        argvs.append((label, argv))
    return argvs


def sweep_solve(argvs, ops: Ops) -> dict:
    ops.mark()
    for label, argv in argvs:
        with ops.op(label), ops.span(f"cli.{label}"):
            code = cli.main(argv)
            if code != cli.EXIT_OK:
                raise RuntimeError(f"exit {code}")
        ops.mark()
    return ops.result()


# ---------------------------------------------------------------------------
# campaign: VerificationStudy through the library API


def campaign_setup(inputs: dict, mark, segments: list) -> list:
    """Build every study; ``mark`` is read and a (start, end) segment recorded per study."""
    order = inputs["target_order"]
    envs = {}
    studies = []
    for spec in inputs["studies"]:
        start = time.perf_counter()
        env = envs.get(repr(spec["env"]))
        if env is None:
            env = envs[repr(spec["env"])] = opensystem.EnvParams(**spec["env"])
        params = herald.ProtocolParams(
            mu=spec["mu"], phi=spec["phi"], configuration=spec["configuration"],
            nbar_1=spec["nbar"], nbar_2=spec["nbar"],
        )
        table = opensystem.evolve_moments(herald.heralded_moment_table(params, 2 * order), env)
        studies.append(verify.VerificationStudy(table, phi=spec["phi"], chi=1.0, target_order=order))
        segments.append((start, time.perf_counter()))
        mark()
    return studies


def campaign_solve(studies, inputs: dict, stream: tuple, ops: Ops) -> dict:
    """One noiseless run and n_seeds Monte-Carlo runs per study, with S3 and D5."""
    runs = []
    ops.mark()
    for i, study in enumerate(studies):
        seeds = [None] + [(*stream, i, k) for k in range(inputs["n_seeds"])]
        for seed in seeds:
            kind = f"study{i}:" + ("noiseless" if seed is None else "seeded")
            with ops.op(kind, f"study{i}:{seed}"):
                run = study.run(None if seed is None else inputs["n_samples"], seed)
                tab = run.recovered_table
                criteria.build_s3(tab)
                criteria.build_d5(tab)
                runs.append((i, seed, tab))
        ops.mark()
    return ops.result(runs=runs, studies=studies)


def _entries(table, keys):
    return [[table.entries[k].real, table.entries[k].imag] for k in keys]


def campaign_outputs(result) -> dict:
    studies = []
    for study in result["studies"]:
        keys = sorted(k for k in study.table.entries if sum(k) <= study.target_order)
        studies.append({
            "keys": [list(k) for k in keys],
            "exact": _entries(study.table, keys),
            "noiseless": None, "noisy": [], "std_errors": None,
        })
    for i, seed, tab in result["runs"]:
        out = studies[i]
        keys = [tuple(k) for k in out["keys"]]
        if seed is None:
            out["noiseless"] = _entries(tab, keys)
            continue
        out["noisy"].append(_entries(tab, keys))
        out["std_errors"] = [tab.std_errors[k] for k in keys]
    return {"studies": studies}


# ---------------------------------------------------------------------------
# fock: the truncated Fock path through the library API


def fock_solve(inputs: dict, ops: Ops) -> dict:
    points, oracles = [], []
    ops.mark()
    for j, pt in enumerate(inputs["points"]):
        params = herald.ProtocolParams(mu=pt["mu"], phi=pt["phi"], nbar_1=pt["nbar"], nbar_2=pt["nbar"])
        with ops.op(f"point{j}"):
            state, p = herald.heralded_state(params)
            delta = criteria.non_gaussianity(state)
            table = algebra.moments_from_state(state, 4)
            points.append({"index": j, "dim": state.config.dim, "p": p, "delta": delta, "table": table})
            del state
        ops.mark()
    for j, spec in enumerate(inputs["oracles"]):
        protocol = herald.ProtocolParams(mu=spec["mu"], phi=spec["phi"], nbar_1=spec["nbar"], nbar_2=spec["nbar"])
        det = detector.DetectorParams(eta=spec["eta"], dark_prob=spec["dark_prob"])
        with ops.op(f"oracle{j}"):
            fr = detector.fractions_from_oracle(det, protocol, fock.FockConfig(spec["cutoff"], spec["cutoff"]))
            oracles.append({"index": j, "resolving": fr.resolving, "nonresolving": fr.nonresolving})
        ops.mark()
    return ops.result(points=points, oracles=oracles)


def fock_outputs(result) -> dict:
    points = []
    for pt in result["points"]:
        keys = sorted(pt["table"].entries)
        points.append({
            "index": pt["index"], "dim": pt["dim"], "p": pt["p"], "delta": pt["delta"],
            "keys": [list(k) for k in keys], "moments": _entries(pt["table"], keys),
        })
    return {"points": points, "oracles": result["oracles"]}
