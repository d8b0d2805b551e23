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
from dataclasses import dataclass

import numpy as np

from . import criteria, detector, fock, presets, sideband
from .errors import GridTooLarge, MechcatError, NonFiniteValue
from .herald import ProtocolParams, heralded_moment_table, heralded_state
from .opensystem import EnvParams, evolve_moments
from .presets import ALPHA_DEFAULT, OMEGA_M_DEFAULT, PHI_DEFAULT

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_ERROR = 3

GRID_MEMORY_LIMIT = 2e9  # bytes
# peak memory per point of the array evaluations, measured on 2e4-point grids
# (12.3, 3.4, 16.0 and 1.7 kB) and rounded up
GRID_BYTES_PER_POINT = {"S3": 13e3, "D5": 4e3, "cooling-map": 17e3, "detector": 2e3}
# the delta map holds one Fock state at a time; its peak memory per point, measured at equal
# cutoffs 41-521 and 153-15646 kept columns, is about 410 bytes (some 26 complex arrays) per
# entry of cutoff_1 x cutoff_2 (the mode blocks) and 10 bytes per entry of the kept columns' Gram matrix
DELTA_BYTES_PER_BLOCK_ENTRY, DELTA_BYTES_PER_GRAM_ENTRY = 410, 10


def _fmt(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def write_csv(path, header_meta: list[str], columns: list[str], rows: list[tuple]):
    lines = [*(f"# {m}" for m in header_meta), ",".join(columns), *(",".join(map(_fmt, row)) for row in rows)]
    _write_text(path, "\n".join(lines) + "\n")


def write_json(path, payload):
    """Strict JSON: a non-finite number raises ValueError (exit 3) instead of writing
    Infinity or NaN, which no JSON parser need accept."""
    _write_text(path, json.dumps(payload, indent=1, sort_keys=True, allow_nan=False) + "\n")


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


def check_fock_size(params: ProtocolParams) -> None:
    """GridTooLarge where the delta map's Fock state at this point would pass GRID_MEMORY_LIMIT,
    decided from its default cutoffs and thermal populations before any Fock array is built."""
    config = fock.default_config(params.nbar_1, params.nbar_2, params.mu)
    size = DELTA_BYTES_PER_BLOCK_ENTRY * config.dim
    if size <= GRID_MEMORY_LIMIT:  # the populations are cutoff-long arrays: skipped past the limit
        size += DELTA_BYTES_PER_GRAM_ENTRY * fock.kept_columns_bound(params.nbar_1, params.nbar_2, config) ** 2
    if size > GRID_MEMORY_LIMIT:
        raise GridTooLarge(f"the Fock state at mu = {params.mu:g}, nbar = {params.nbar_1:g} (cutoffs "
                           f"{config.cutoff_1} x {config.cutoff_2}) needs about {size / 1e9:.3g} GB, above "
                           f"the limit of {GRID_MEMORY_LIMIT / 1e9:g} GB")


def parse_grid(spec: str, max_points: int | None = None, key: str | None = None) -> list[float]:
    """Grid syntax: 'start:stop:num' (inclusive linspace, num >= 1) or 'a, b, c'.
    A range of more than max_points points is rejected before it is built. A malformed
    grid raises ValueError naming the spec and, when given, its [grid] key."""
    spec = spec.strip()

    def invalid(why: str) -> ValueError:
        return ValueError(f"grid {spec!r} {why}" + (f" ([grid] {key})" if key else ""))

    parts = spec.split(":") if ":" in spec else [v for v in spec.split(",") if v.strip()]
    try:
        values = [float(v) for v in parts]
    except ValueError:
        raise invalid("has a value that is not a number") from None
    if ":" not in spec:
        if not values:
            raise invalid("has no point")
        if not all(map(math.isfinite, values)):
            raise invalid("has a point that is not finite")
        return values
    if len(values) != 3:
        raise invalid("is not start:stop:num")
    start, stop, num = values
    if not (num.is_integer() and num >= 1):
        raise invalid("needs an integral num >= 1")
    check_grid_size(int(num), max_points)
    if not math.isfinite(stop - start):  # an infinite or nan end, or a span that overflows
        raise invalid("has a point that is not finite")
    return [float(v) for v in np.linspace(start, stop, int(num))]


@dataclass(frozen=True)
class Count:
    """An integral INI value of at least `minimum`; float syntax such as 1e5 is accepted."""

    default: int | None
    minimum: int


ENV_KEYS = {"omega_m": OMEGA_M_DEFAULT, "q_factor": 1e5, "nbar_bath": 500.0}
MAP_GRID = {"phi": "0:6.283185307179586:41", "mu": "0.05:2.0:40"}
# The INI keys of each command, {command: {section: {key: default}}}. A key's type is its
# default's: a string is a grid spec (parse_grid), a Count an integral count, and a number or
# None (no default) a float. The ranges are checked where the values are used.
CONFIG_KEYS = {
    "map": {"env": ENV_KEYS, "protocol": {"nbar": 0.1}, "grid": MAP_GRID},
    "map --criterion delta": {"protocol": {"nbar": 0.1}, "grid": MAP_GRID},
    "cooling-map": {"env": {"omega_m": OMEGA_M_DEFAULT, "q_factor": 1e5},
                    "grid": {"mu": "0.2:4.2:21", "nbar_bath": "0:2000:9"}},
    # the dark count is dark_prob, or dark_rate_hz x window_s (1e-8 by default)
    "detector": {"protocol": {"mu": 1e-2, "phi": PHI_DEFAULT, "nbar": 0.1},
                 "detector": {"eta": presets.ETA_DEFAULT, "dark_prob": None, "dark_rate_hz": 1.0, "window_s": 10e-9},
                 "grid": {"alpha": "0.05:3.0:60"}},
    "verify": {"protocol": {"mu": 1e-3, "phi": PHI_DEFAULT, "nbar": 0.1},
               "verify": {"chi": 1.0, "n_samples": Count(10**6, 1), "target_order": Count(4, 1),
                          "n_seeds": Count(20, 0), "max_phase_sets": Count(None, 1)},
               "env": ENV_KEYS},
}


def read_config(args) -> dict[str, dict]:
    """The INI file args.config as {section: {key: value}} over every key its command declares in
    CONFIG_KEYS, typed and with the defaults filled in. A section or key the command does not
    declare raises ValueError."""
    command = "map --criterion delta" if getattr(args, "criterion", None) == "delta" else args.command
    declared = CONFIG_KEYS[command]
    # no section name is the default section, so a [DEFAULT] section is checked like any other
    cfg = configparser.ConfigParser(interpolation=None, default_section="")
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                cfg.read_file(fh)
            except configparser.Error as exc:
                raise ValueError(f"config file {args.config} is malformed: {' '.join(str(exc).split())}") from None
    for section in cfg.sections():
        for key in cfg[section]:
            if key not in declared.get(section, {}):
                raise ValueError(f"[{section}] {key} is not a config key of {command}")
        if section not in declared:
            raise ValueError(f"[{section}] is not a config section of {command}")
    if cfg.has_option("detector", "dark_prob") and (
            rate := [key for key in ("dark_rate_hz", "window_s") if cfg.has_option("detector", key)]):
        raise ValueError(f"[detector] dark_prob and {' and '.join(rate)} both set the dark count")
    return {section: {key: _typed(cfg, section, key, default) for key, default in keys.items()}
            for section, keys in declared.items()}


def _typed(cfg, section: str, key: str, default):
    """One declared key's value, of its default's type (see CONFIG_KEYS)."""
    count = default if isinstance(default, Count) else None
    if not cfg.has_option(section, key):
        return count.default if count else default
    text = cfg.get(section, key)
    if isinstance(default, str):
        return text
    try:
        value = float(text)
    except ValueError:
        if not count:
            raise ValueError(f"[{section}] {key} = {text} is not a number") from None
        value = math.nan
    if count and not (value.is_integer() and value >= count.minimum):
        raise ValueError(f"[{section}] {key} = {text} must be an integer >= {count.minimum}")
    return int(value) if count else value


def _keys_help(*commands: str) -> str:
    """The INI keys of the CONFIG_KEYS entries and their defaults, for --help."""
    def line(section, key, value):
        count = f" (an integer >= {value.minimum})" if isinstance(value, Count) else ""
        value = value.default if isinstance(value, Count) else value
        return f"  [{section}] {key}" + (" (no default)" if value is None else f" = {_fmt(value)}") + count

    lines = []
    for command in commands:
        lines += [f"INI keys of {command}:"] + [line(section, key, value) for section, keys
                                                 in CONFIG_KEYS[command].items() for key, value in keys.items()]
    return "\n".join([*lines, "Any other key exits 3."])


# ---------------------------------------------------------------------------
# golden comparison


def load_golden(name: str) -> dict[tuple[str, str], tuple[float, str, float]]:
    text = resources.files("mechcat.data").joinpath(name).read_text(encoding="utf-8")
    lines = (line.split(",") for line in text.splitlines() if line and not line.startswith(("#", "row,")))
    return {(row, quantity): (float(value), kind, float(tol)) for row, quantity, value, kind, tol in lines}


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
        # sign agreement is the hard gate for the determinants
        if kind != "geq" and key[1] in ("D5", "S3") and abs(ref) > 1e-12:
            ok = ok and math.copysign(1.0, ref) == math.copysign(1.0, val)
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
        # the alpha-independent parts of F once, for the F column and its optimum alike
        parts = detector._fraction_parts(det, mus, PHI_DEFAULT, nbars, nbars)
        values[f"F_{kind}"] = 100 * detector._fraction_function(det, *parts)(ALPHA_DEFAULT)
        values[f"F_{kind}_opt"] = 100 * detector._optimum(det, *parts)[1]
    rows_out, computed = [], {}
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
    rows_out, computed = [], {}
    for row in presets.CAVITY_ROWS:
        values = (sideband.mu_nominal(row.cavity), row.cavity.sideband_ratio, sideband.percent_reduction(row.cavity))
        computed |= {(row.name, q): v for q, v in zip(("mu", "sideband_ratio", "percent_reduction"), values)}
        rows_out.append((row.name, row.cavity.g0, row.cavity.kappa, row.cavity.omega_m, *values))
    meta = ["sideband-ratio corrections; g0, kappa, omega_m in rad/s",
            "mu and sideband_ratio dimensionless; percent_reduction in percent"]
    columns = ["row", "g0", "kappa", "omega_m", "mu", "sideband_ratio", "percent_reduction"]
    write_table(args, meta, columns, rows_out)
    return _check(args, computed, "table2")


def cmd_map(args) -> int:
    cfg = read_config(args)
    # the delta map takes no environment; its meta line names the default one
    env = EnvParams(**cfg.get("env", ENV_KEYS))
    nbar = cfg["protocol"]["nbar"]
    # the delta map holds one Fock state at a time
    limit = None if args.criterion == "delta" else max_grid_points(args.criterion)
    phis = parse_grid(cfg["grid"]["phi"], limit, "phi")
    mus = parse_grid(cfg["grid"]["mu"], limit, "mu")
    check_grid_size(len(mus) * len(phis), limit)
    grid_mu, grid_phi = (a.ravel().tolist() for a in np.meshgrid(mus, phis, indexing="ij"))
    if args.criterion == "delta":  # non-Gaussianity of the closed-system heralded state
        # the largest coupling has the largest Fock state
        check_fock_size(ProtocolParams(mu=max(mus, key=abs), phi=phis[0], nbar_1=nbar, nbar_2=nbar))
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
    if contour_path := args.contour_out or (None if args.out == "-" else args.out + ".contour.csv"):
        write_csv(contour_path, [f"sign-change contour of {args.criterion} along phi (linear interpolation)"],
                  ["mu", "phi_zero"], contours)
    return EXIT_OK


def cmd_cooling_map(args) -> int:
    cfg = read_config(args)
    limit = max_grid_points("cooling-map")
    mus = parse_grid(cfg["grid"]["mu"], limit, "mu")
    baths = parse_grid(cfg["grid"]["nbar_bath"], limit, "nbar_bath")
    check_grid_size(len(mus) * len(baths), limit)
    envs = [EnvParams(**cfg["env"], nbar_bath=nb) for nb in baths]
    nbar_max, ok = criteria.cooled_occupations(np.array(mus)[:, None], envs, PHI_DEFAULT)
    grid_mu, grid_nb = (a.ravel().tolist() for a in np.meshgrid(mus, baths, indexing="ij"))
    rows = list(zip(grid_mu, grid_nb, nbar_max.ravel().tolist(), ok.ravel().astype(int).tolist()))
    meta = ["maximum initial occupation with S3 < 0; phi = pi",
            f"q_factor={cfg['env']['q_factor']}; verifiable=0 marks the NoVerification region"]
    write_table(args, meta, ["mu", "nbar_bath", "nbar_max", "verifiable"], rows)
    return EXIT_OK


def cmd_detector(args) -> int:
    cfg = read_config(args)
    mu, phi, nbar = (cfg["protocol"][key] for key in ("mu", "phi", "nbar"))
    alphas = parse_grid(cfg["grid"]["alpha"], max_grid_points("detector"), "alpha")
    det = cfg["detector"]
    dark = det["dark_prob"]
    if dark is None:
        dark = detector.dark_prob_from_rate(det["dark_rate_hz"], det["window_s"])
    dets = [detector.DetectorParams(det["eta"], dark, resolving) for resolving in (True, False)]
    ProtocolParams(mu=mu, phi=phi, nbar_1=nbar, nbar_2=nbar)  # rejects an invalid point
    columns = [100 * detector.fraction_of_amplitude(det, mu, phi, nbar, nbar)(alphas) for det in dets]
    rows = list(zip(alphas, *(c.tolist() for c in columns)))
    meta = [f"true-positive fractions vs entangling amplitude; mu={mu}, phi={phi}, nbar={nbar}",
            f"eta={dets[0].eta}, dark_prob={dets[0].dark_prob}; F columns in percent"]
    write_table(args, meta, ["alpha", "F_resolving", "F_nonresolving"], rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify  # deferred: no other command reads it

    cfg = read_config(args)
    protocol, settings, env = cfg["protocol"], cfg["verify"], EnvParams(**cfg["env"])
    mu, phi, nbar, order = protocol["mu"], protocol["phi"], protocol["nbar"], settings["target_order"]
    # OrderOverflow above order 4, before any table: the exact table has order 2 x target_order,
    # and the evolution's limit is 8
    phase_sets = verify.default_phase_sets(order)[: settings["max_phase_sets"]]
    params = ProtocolParams(mu=mu, phi=phi, nbar_1=nbar, nbar_2=nbar)
    with np.errstate(over="ignore", invalid="ignore"):  # a table that overflows is named below
        table = evolve_moments(heralded_moment_table(params, 2 * order), env)
    if not np.all(np.isfinite(table.values)):
        raise NonFiniteValue(f"the exact moment table is not finite at mu = {mu:g}, phi = {phi:g}, nbar = {nbar:g}")
    study = verify.VerificationStudy(table, phi=phi, chi=settings["chi"], target_order=order, phase_sets=phase_sets)
    noiseless = study.run(None)
    # the criteria whose moments the recovered table holds: D5 from order 2, S3 at order 4
    builders = {name: build for name, build in (("D5", criteria.build_d5), ("S3", criteria.build_s3))
                if criteria.CRITERIA[name][1] <= order}
    exact = {name: build(table).value for name, build in builders.items()}

    runs, recovered = [], None
    for k in range(settings["n_seeds"]):
        run = study.run(settings["n_samples"], (args.seed, k))
        recovered = run.recovered_table
        runs.append({"seed": [args.seed, k], **{name: build(recovered).value for name, build in builders.items()},
                     "max_abs_moment_error": run.max_abs_deviation()})
    recovered = recovered and recovered.to_dict()
    report = {
        "meta": "verification Monte-Carlo; hbar=1, Var_vac=1/2",
        "protocol": {**protocol, **{key: settings[key] for key in ("chi", "n_samples", "target_order")}},
        # q_factor = inf (the closed system) as the string "inf", as the CSV meta lines write it
        "env": {**cfg["env"], "q_factor": env.q_factor if math.isfinite(env.q_factor) else str(env.q_factor)},
        "noiseless_max_abs_deviation": noiseless.max_abs_deviation(),
        "exact": exact,
        "exact_moments": table.to_dict()["entries"],
        "recovered_moments_last_run": recovered and recovered["entries"],
        "recovered_errors_last_run": recovered and recovered["std_errors"],
        "runs": runs,
    }
    if "S3" in exact:
        report["s3_sign_agreement"] = [sum((run["S3"] < 0) == (exact["S3"] < 0) for run in runs), len(runs)]
    write_json(args.out, report)
    return EXIT_OK


def cmd_sideband(args) -> int:
    cav = sideband.CavityParams(g0=args.g0, kappa=args.kappa, omega_m=args.omega_m)
    mu_p, angle = sideband.mu_effective(cav, args.t if args.t is not None else 2.0 / args.kappa)
    results = {
        "mu_nominal": sideband.mu_nominal(cav),
        "mu_effective": mu_p,
        "rotation_angle": angle,
        "sideband_ratio": cav.sideband_ratio,
        "percent_reduction": sideband.percent_reduction(cav),
    }
    if infinite := [name for name, value in results.items() if not math.isfinite(value)]:
        raise ValueError(f"g0 = {cav.g0:g}, kappa = {cav.kappa:g}, omega_m = {cav.omega_m:g} rad/s "
                         f"give a non-finite {', '.join(infinite)}")
    write_json(args.out, {"meta": "pulsed-coupling corrections; rates in rad/s, angle in radians", **results})
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mechcat", description="Two-mode mechanical cat states: criteria, detector studies, verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *keys, check=False, formats=("csv", "json")):
        """The options every command takes; a command with CONFIG_KEYS entries `keys` takes an INI
        file, whose keys its --help lists."""
        if keys:
            p.add_argument("--config", default=None, help="INI config file")
            p.epilog, p.formatter_class = _keys_help(*keys), argparse.RawDescriptionHelpFormatter
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--threads", type=int, default=1, help="accepted and ignored")
        if check:
            p.add_argument("--check", action="store_true",
                           help="compare against bundled golden values")

    p = sub.add_parser("table1", help="benchmark criteria and detector fractions")
    common(p, check=True)
    p = sub.add_parser("table2", help="sideband-ratio correction table")
    common(p, check=True)
    p = sub.add_parser("map", help="criterion over a (phi, mu) grid")
    common(p, "map", "map --criterion delta")
    p.add_argument("--criterion", choices=("D5", "S3", "delta"), required=True)
    p.add_argument("--contour-out", default=None)
    p = sub.add_parser("cooling-map", help="nbar_max over a (mu, nbar_bath) grid")
    common(p, "cooling-map")
    p = sub.add_parser("detector", help="true-positive fractions vs alpha")
    common(p, "detector")
    p = sub.add_parser("verify", help="verification Monte-Carlo report")
    common(p, "verify", formats=("json",))
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("sideband", help="finite sideband-ratio corrections")
    common(p, formats=("json",))
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
