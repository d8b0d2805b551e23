"""Command-line front end: benchmark tables, criterion maps, cooling maps,
detector studies, and verification Monte-Carlo runs.

Output is CSV (UTF-8, '.' decimal, stable column order) or JSON; numbers are
dimensionless with hbar = 1 and vacuum quadrature variance 1/2 unless a
column says otherwise. Exit codes: 0 success, 2 golden-tolerance failure in
--check mode, 3 library error or invalid input value.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import importlib.resources as resources
import json
import math
import sys

import numpy as np

from . import criteria, detector, presets, sideband, verify
from .errors import GridTooLarge, MechcatError
from .herald import ProtocolParams, heralded_moment_table, heralded_state
from .opensystem import EnvParams, evolve_moments
from .presets import ALPHA_DEFAULT, OMEGA_M_DEFAULT, PHI_DEFAULT

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_ERROR = 3

GRID_MEMORY_LIMIT = 2e9  # bytes
# peak memory per point of the array evaluations, measured on 2e4-point grids
# (12.3, 3.4 and 16.0 kB) and rounded up
GRID_BYTES_PER_POINT = {"S3": 13e3, "D5": 4e3, "cooling-map": 17e3}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_csv(path, header_meta: list[str], columns: list[str], rows: list[tuple]):
    lines = [f"# {m}" for m in header_meta]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def write_json(path, payload):
    _write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _write_text(path, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def write_table(args, meta: list[str], columns: list[str], rows: list[tuple]):
    if args.format == "json":
        write_json(args.out, {"meta": meta, "rows": [dict(zip(columns, r)) for r in rows]})
    else:
        write_csv(args.out, meta, columns, rows)


def max_grid_points(evaluation: str) -> int:
    """Most grid points the named evaluation may hold within GRID_MEMORY_LIMIT."""
    return int(GRID_MEMORY_LIMIT // GRID_BYTES_PER_POINT[evaluation])


def check_grid_size(points: int, limit: int | None) -> None:
    if limit is not None and points > limit:
        raise GridTooLarge(f"grid of {points} points is above the limit of {limit} points "
                           f"({GRID_MEMORY_LIMIT / 1e9:g} GB)")


def parse_grid(spec: str, max_points: int | None = None) -> list[float]:
    """Grid syntax: 'start:stop:num' (inclusive linspace, num >= 1) or 'a, b, c'.
    A range of more than max_points points is rejected before it is built."""
    spec = spec.strip()
    parts = spec.split(":") if ":" in spec else [v for v in spec.split(",") if v.strip()]
    try:
        values = [float(v) for v in parts]
    except ValueError:
        raise ValueError(f"grid {spec!r} has a value that is not a number") from None
    if ":" not in spec:
        if not values:
            raise ValueError(f"grid {spec!r} has no point")
        return values
    if len(values) != 3:
        raise ValueError(f"grid {spec!r} is not start:stop:num")
    start, stop, num = values
    if not (num.is_integer() and num >= 1):
        raise ValueError(f"grid {spec!r} needs an integral num >= 1")
    check_grid_size(int(num), max_points)
    return [float(v) for v in np.linspace(start, stop, int(num))]


def load_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(interpolation=None)
    if path:
        with open(path, encoding="utf-8") as fh:
            try:
                cfg.read_file(fh)
            except configparser.Error as exc:
                reason = " ".join(str(exc).split())
                raise ValueError(f"config file {path} is malformed: {reason}") from None
    return cfg


def _cfg_float(cfg, section, key, default):
    try:
        return cfg.getfloat(section, key, fallback=default)
    except ValueError:
        raise ValueError(f"[{section}] {key} = {cfg.get(section, key)} is not a number") from None


def _cfg_int(cfg, section, key, default: int, minimum: int) -> int:
    """An integral value of at least `minimum`; float syntax such as 1e5 is accepted."""
    try:
        value = float(_cfg_float(cfg, section, key, default))
    except ValueError:
        value = math.nan
    if not (value.is_integer() and value >= minimum):
        raise ValueError(f"[{section}] {key} = {cfg.get(section, key)} must be an integer >= {minimum}")
    return int(value)


def env_from_config(cfg) -> EnvParams:
    return EnvParams(
        omega_m=_cfg_float(cfg, "env", "omega_m", OMEGA_M_DEFAULT),
        q_factor=_cfg_float(cfg, "env", "q_factor", 1e5),
        nbar_bath=_cfg_float(cfg, "env", "nbar_bath", 500.0),
    )


def detector_from_config(cfg, resolving=True) -> detector.DetectorParams:
    dark = None
    if cfg.has_option("detector", "dark_prob"):
        dark = _cfg_float(cfg, "detector", "dark_prob", None)
    elif cfg.has_option("detector", "dark_rate_hz") or cfg.has_option("detector", "window_s"):
        dark = detector.dark_prob_from_rate(
            _cfg_float(cfg, "detector", "dark_rate_hz", 1.0),
            _cfg_float(cfg, "detector", "window_s", 10e-9),
        )
    return detector.DetectorParams(
        eta=_cfg_float(cfg, "detector", "eta", presets.ETA_DEFAULT),
        dark_prob=presets.DARK_PROB_DEFAULT if dark is None else dark,
        resolving=resolving,
    )


# ---------------------------------------------------------------------------
# golden comparison


def load_golden(name: str) -> dict[tuple[str, str], tuple[float, str, float]]:
    text = resources.files("mechcat.data").joinpath(name).read_text(encoding="utf-8")
    golden = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("row,"):
            continue
        row, quantity, value, kind, tol = line.split(",")
        golden[(row, quantity)] = (float(value), kind, float(tol))
    return golden


def check_against_golden(computed: dict[tuple[str, str], float], golden) -> list[str]:
    failures = []
    for key, (ref, kind, tol) in golden.items():
        if key not in computed:
            failures.append(f"{key}: missing from computed output")
            continue
        val = computed[key]
        if kind == "abs":
            ok = abs(val - ref) <= tol
        elif kind == "rel":
            ok = abs(val - ref) <= tol * abs(ref)
        elif kind == "geq":
            ok = val >= ref - tol
        else:
            raise ValueError(f"unknown tolerance kind {kind!r}")
        if math.copysign(1.0, ref) != math.copysign(1.0, val) and kind != "geq":
            # sign agreement is the hard gate for the determinants
            if key[1] in ("D5", "S3") and abs(ref) > 1e-12:
                ok = False
        if not ok:
            failures.append(f"{key}: computed {val:.6g} vs reference {ref:.6g} ({kind} {tol:g})")
    return failures


# ---------------------------------------------------------------------------
# subcommands


QUANTITIES_T1 = (
    "D5", "S3", "F_resolving", "F_nonresolving", "F_resolving_opt", "F_nonresolving_opt",
)


def _check(args, computed: dict[tuple[str, str], float], name: str) -> int:
    """Exit code of the --check comparison against the golden file of `name`."""
    if not args.check:
        return EXIT_OK
    failures = check_against_golden(computed, load_golden(f"golden_{name}.csv"))
    for f in failures:
        print(f"CHECK FAIL {f}", file=sys.stderr)
    if failures:
        return EXIT_CHECK_FAILED
    print(f"{name} check: all {len(computed)} values within tolerance", file=sys.stderr)
    return EXIT_OK


def cmd_table1(args) -> int:
    rows = presets.BENCHMARK_ROWS
    envs = [EnvParams(omega_m=OMEGA_M_DEFAULT, q_factor=r.q_factor, nbar_bath=r.nbar_bath) for r in rows]
    # one evaluation per criterion: row k's point meets row k's environment
    mus, nbars = np.array([r.mu for r in rows]), np.array([r.nbar for r in rows])
    values = {name: criteria.evolved_criterion(name, envs)(mus, PHI_DEFAULT, nbars)
              for name in ("D5", "S3")}
    for kind, resolving in (("resolving", True), ("nonresolving", False)):
        det = presets.default_detector(resolving)
        fraction = detector.fraction_of_amplitude(det, mus, PHI_DEFAULT, nbars, nbars)
        values[f"F_{kind}"] = 100 * fraction(ALPHA_DEFAULT)
        values[f"F_{kind}_opt"] = 100 * detector.optimize_alpha(det, mus, PHI_DEFAULT, nbars, nbars).fraction
    rows_out = []
    computed = {}
    for row, vals in zip(rows, np.column_stack([values[q] for q in QUANTITIES_T1]).tolist()):
        computed |= {(row.name, q): v for q, v in zip(QUANTITIES_T1, vals)}
        rows_out.append((row.name, row.mu, row.q_factor, row.nbar, row.nbar_bath, *vals))
    meta = [
        "benchmark criteria and true-positive fractions; hbar=1, Var_vac=1/2",
        f"phi=pi, alpha={ALPHA_DEFAULT}, eta={presets.ETA_DEFAULT}, "
        f"dark_prob={presets.DARK_PROB_DEFAULT}; F columns in percent",
        "columns: row, mu, q_factor, nbar, nbar_bath, " + ", ".join(QUANTITIES_T1),
    ]
    columns = ["row", "mu", "q_factor", "nbar", "nbar_bath", *QUANTITIES_T1]
    write_table(args, meta, columns, rows_out)
    return _check(args, computed, "table1")


def cmd_table2(args) -> int:
    rows_out = []
    computed = {}
    for row in presets.CAVITY_ROWS:
        mu = sideband.mu_nominal(row.cavity)
        ratio = row.cavity.sideband_ratio
        red = sideband.percent_reduction(row.cavity)
        computed[(row.name, "mu")] = mu
        computed[(row.name, "sideband_ratio")] = ratio
        computed[(row.name, "percent_reduction")] = red
        rows_out.append((row.name, row.cavity.g0, row.cavity.kappa, row.cavity.omega_m,
                         mu, ratio, red))
    meta = [
        "sideband-ratio corrections; g0, kappa, omega_m in rad/s",
        "mu and sideband_ratio dimensionless; percent_reduction in percent",
    ]
    columns = ["row", "g0", "kappa", "omega_m", "mu", "sideband_ratio", "percent_reduction"]
    write_table(args, meta, columns, rows_out)
    return _check(args, computed, "table2")


def cmd_map(args) -> int:
    cfg = load_config(args.config)
    env = env_from_config(cfg)
    nbar = _cfg_float(cfg, "protocol", "nbar", 0.1)
    # the delta map holds one Fock state at a time
    limit = None if args.criterion == "delta" else max_grid_points(args.criterion)
    phis = parse_grid(cfg.get("grid", "phi", fallback="0:6.283185307179586:41"), limit)
    mus = parse_grid(cfg.get("grid", "mu", fallback="0.05:2.0:40"), limit)
    check_grid_size(len(mus) * len(phis), limit)
    grid_mu, grid_phi = (a.ravel().tolist() for a in np.meshgrid(mus, phis, indexing="ij"))
    if args.criterion == "delta":  # non-Gaussianity of the closed-system heralded state
        states = (heralded_state(ProtocolParams(mu=m, phi=p, nbar_1=nbar, nbar_2=nbar))[0]
                  for m, p in zip(grid_mu, grid_phi))
        values = [criteria.non_gaussianity(state) for state in states]
    else:
        values = criteria.evolved_criterion(args.criterion, [env])(grid_mu, grid_phi, nbar).tolist()
    rows = [(mu, phi, val, int(val < 0)) for mu, phi, val in zip(grid_mu, grid_phi, values)]
    meta = [
        f"criterion map: {args.criterion}; hbar=1, Var_vac=1/2; phi in radians",
        f"nbar={nbar}, q_factor={env.q_factor}, nbar_bath={env.nbar_bath}"
        + (" (delta uses the closed-system state)" if args.criterion == "delta" else ""),
    ]
    write_table(args, meta, ["mu", "phi", "value", "negative"], rows)
    # zero crossings along phi for each mu
    contours = []
    for mu, vals in zip(mus, np.reshape(values, (len(mus), len(phis))).tolist()):
        for (p1, v1), (p2, v2) in zip(zip(phis, vals), zip(phis[1:], vals[1:])):
            if v1 == 0.0 or (v1 < 0) != (v2 < 0):
                frac = abs(v1) / (abs(v1) + abs(v2)) if (abs(v1) + abs(v2)) > 0 else 0.0
                contours.append((mu, p1 + frac * (p2 - p1)))
    contour_path = args.contour_out or (
        None if args.out == "-" else args.out + ".contour.csv"
    )
    if contour_path:
        write_csv(
            contour_path,
            [f"sign-change contour of {args.criterion} along phi (linear interpolation)"],
            ["mu", "phi_zero"],
            contours,
        )
    return EXIT_OK


def cmd_cooling_map(args) -> int:
    cfg = load_config(args.config)
    env = env_from_config(cfg)
    limit = max_grid_points("cooling-map")
    mus = parse_grid(cfg.get("grid", "mu", fallback="0.2:4.2:21"), limit)
    baths = parse_grid(cfg.get("grid", "nbar_bath", fallback="0:2000:9"), limit)
    check_grid_size(len(mus) * len(baths), limit)
    envs = [EnvParams(omega_m=env.omega_m, q_factor=env.q_factor, nbar_bath=nb) for nb in baths]
    nbar_max, ok = criteria.cooled_occupations(np.array(mus)[:, None], envs, PHI_DEFAULT)
    grid_mu, grid_nb = (a.ravel().tolist() for a in np.meshgrid(mus, baths, indexing="ij"))
    rows = list(zip(grid_mu, grid_nb, nbar_max.ravel().tolist(), ok.ravel().astype(int).tolist()))
    meta = [
        "maximum initial occupation with S3 < 0; phi = pi",
        f"q_factor={env.q_factor}; verifiable=0 marks the NoVerification region",
    ]
    write_table(args, meta, ["mu", "nbar_bath", "nbar_max", "verifiable"], rows)
    return EXIT_OK


def cmd_detector(args) -> int:
    cfg = load_config(args.config)
    mu = _cfg_float(cfg, "protocol", "mu", 1e-2)
    phi = _cfg_float(cfg, "protocol", "phi", PHI_DEFAULT)
    nbar = _cfg_float(cfg, "protocol", "nbar", 0.1)
    alphas = parse_grid(cfg.get("grid", "alpha", fallback="0.05:3.0:60"))
    dets = [detector_from_config(cfg, resolving) for resolving in (True, False)]
    ProtocolParams(mu=mu, phi=phi, nbar_1=nbar, nbar_2=nbar)  # rejects an invalid point
    columns = [100 * detector.fraction_of_amplitude(det, mu, phi, nbar, nbar)(alphas) for det in dets]
    rows = list(zip(alphas, *(c.tolist() for c in columns)))
    meta = [
        f"true-positive fractions vs entangling amplitude; mu={mu}, phi={phi}, nbar={nbar}",
        f"eta={dets[0].eta}, dark_prob={dets[0].dark_prob}; F columns in percent",
    ]
    write_table(args, meta, ["alpha", "F_resolving", "F_nonresolving"], rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    mu = _cfg_float(cfg, "protocol", "mu", 1e-3)
    phi = _cfg_float(cfg, "protocol", "phi", PHI_DEFAULT)
    nbar = _cfg_float(cfg, "protocol", "nbar", 0.1)
    chi = _cfg_float(cfg, "verify", "chi", 1.0)
    n_samples = _cfg_int(cfg, "verify", "n_samples", 10**6, minimum=1)
    target_order = _cfg_float(cfg, "verify", "target_order", 4)
    n_seeds = _cfg_int(cfg, "verify", "n_seeds", 20, minimum=0)
    if target_order != 4:
        raise ValueError(
            f"[verify] target_order = {target_order:g} must be 4: the report's S3 needs order-4 "
            "recovered moments and an exact table of order 2 x 4 = 8, the evolution's limit"
        )
    target_order = 4
    env = env_from_config(cfg)

    params = ProtocolParams(mu=mu, phi=phi, nbar_1=nbar, nbar_2=nbar)
    table = evolve_moments(heralded_moment_table(params, 2 * target_order), env)
    phase_sets = verify.default_phase_sets(target_order)
    if cfg.has_option("verify", "max_phase_sets"):
        phase_sets = phase_sets[: _cfg_int(cfg, "verify", "max_phase_sets", 1, minimum=1)]
    study = verify.VerificationStudy(
        table, phi=phi, chi=chi, target_order=target_order, phase_sets=phase_sets
    )
    noiseless = study.run(None)
    d5_exact = criteria.build_d5(table).value
    s3_exact = criteria.build_s3(table).value

    runs = []
    s3_signs = 0
    last_recovered = None
    for k in range(n_seeds):
        run = study.run(n_samples, (args.seed, k))
        rec = run.recovered_table
        last_recovered = rec
        s3_rec = criteria.build_s3(rec).value
        d5_rec = criteria.build_d5(rec).value
        s3_signs += (s3_rec < 0) == (s3_exact < 0)
        runs.append({"seed": [args.seed, k], "S3": s3_rec, "D5": d5_rec,
                     "max_abs_moment_error": run.max_abs_deviation()})
    recovered = last_recovered.to_dict() if last_recovered else None
    report = {
        "meta": "verification Monte-Carlo; hbar=1, Var_vac=1/2",
        "protocol": {"mu": mu, "phi": phi, "nbar": nbar, "chi": chi,
                     "n_samples": n_samples, "target_order": target_order},
        "env": {"omega_m": env.omega_m, "q_factor": env.q_factor,
                "nbar_bath": env.nbar_bath},
        "noiseless_max_abs_deviation": noiseless.max_abs_deviation(),
        "exact": {"D5": d5_exact, "S3": s3_exact},
        "exact_moments": table.to_dict()["entries"],
        "recovered_moments_last_run": recovered["entries"] if recovered else None,
        "recovered_errors_last_run": recovered["std_errors"] if recovered else None,
        "s3_sign_agreement": [s3_signs, n_seeds],
        "runs": runs,
    }
    write_json(args.out, report)
    return EXIT_OK


def cmd_sideband(args) -> int:
    cav = sideband.CavityParams(g0=args.g0, kappa=args.kappa, omega_m=args.omega_m)
    mu_p, angle = sideband.mu_effective(cav, args.t if args.t is not None else 2.0 / args.kappa)
    payload = {
        "meta": "pulsed-coupling corrections; rates in rad/s, angle in radians",
        "mu_nominal": sideband.mu_nominal(cav),
        "mu_effective": mu_p,
        "rotation_angle": angle,
        "sideband_ratio": cav.sideband_ratio,
        "percent_reduction": sideband.percent_reduction(cav),
    }
    write_json(args.out, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mechcat",
        description="Two-mode mechanical cat states: criteria, detector studies, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, check=False, config=True, formats=("csv", "json")):
        if config:
            p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--threads", type=int, default=1, help="accepted and ignored")
        if check:
            p.add_argument("--check", action="store_true",
                           help="compare against bundled golden values")

    p = sub.add_parser("table1", help="benchmark criteria and detector fractions")
    common(p, check=True, config=False)
    p = sub.add_parser("table2", help="sideband-ratio correction table")
    common(p, check=True, config=False)
    p = sub.add_parser("map", help="criterion over a (phi, mu) grid")
    common(p)
    p.add_argument("--criterion", choices=("D5", "S3", "delta"), required=True)
    p.add_argument("--contour-out", default=None)
    p = sub.add_parser("cooling-map", help="nbar_max over a (mu, nbar_bath) grid")
    common(p)
    p = sub.add_parser("detector", help="true-positive fractions vs alpha")
    common(p)
    p = sub.add_parser("verify", help="verification Monte-Carlo report")
    common(p, formats=("json",))
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("sideband", help="finite sideband-ratio corrections")
    common(p, config=False, formats=("json",))
    p.add_argument("--g0", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--omega-m", dest="omega_m", type=float, required=True)
    p.add_argument("--t", type=float, default=None, help="interaction time (default 2/kappa)")
    return parser


COMMANDS = {
    "table1": cmd_table1,
    "table2": cmd_table2,
    "map": cmd_map,
    "cooling-map": cmd_cooling_map,
    "detector": cmd_detector,
    "verify": cmd_verify,
    "sideband": cmd_sideband,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (MechcatError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
