"""The CLI's INI contract, read off `cli.CONFIG_KEYS`: any subset of a command's declared keys,
with in-range values or edge values, exits 0 with finite outputs or exits 3 with one `error:`
line; a key the command does not declare exits 3 naming it. The benchmark's sweep configs are
read through the same tables, so a key the benchmark writes and its command no longer takes
fails here."""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mechcat import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from mcbench import inputs  # noqa: E402

EDGES = ["0", "-1", "-2.5", "1e-300", "1e300", "inf", "-inf", "nan", "abc", ""]
# the delta map's Fock size grows with nbar and mu; its memory guard still admits points that take
# seconds each (about 5 s at mu = 2, nbar = 3), so it draws nbar <= 1 and mu <= 2
DELTA_EDGES = [e for e in EDGES if e not in ("1e300", "inf")]
UNDECLARED = [("protocol", "nbr"), ("env", "nbar_bath"), ("env", "q_factor"), ("grid", "alpha"),
              ("detector", "eta"), ("verify", "chi"), ("DEFAULT", "nbar"), ("misc", "mu")]
# the ceilings of in-range counts: n_seeds <= 1 keeps a verify run short
COUNT_CEILING = {"n_samples": 10**6, "target_order": 4, "n_seeds": 1, "max_phase_sets": 20}
ARGV = {"map": ["map", "--criterion", "S3"], "map D5": ["map", "--criterion", "D5"],
        "map --criterion delta": ["map", "--criterion", "delta"], "cooling-map": ["cooling-map"],
        "detector": ["detector"], "verify": ["verify"]}
EXAMPLES = {"map --criterion delta": 12, "verify": 30}


def _number(x):
    return repr(float(x))


def value_text(command, key, default, with_edges):
    """A strategy for the INI text of one declared key: an in-range value or, with_edges, also
    an edge value."""
    delta = command == "map --criterion delta"
    edges = DELTA_EDGES if delta and key in ("nbar", "mu") else EDGES

    def either(in_range, edges):
        return st.one_of(in_range, st.sampled_from(edges)) if with_edges else in_range

    if isinstance(default, cli.Count):
        edges = [e for e in edges if e != "1e300"] if key == "n_seeds" else edges
        return either(st.integers(default.minimum, COUNT_CEILING[key]).map(str), [*edges, "2.5"])
    if isinstance(default, str):  # a grid of at most 3 points, in the default's range or at the edges
        start, stop, _ = (float(v) for v in default.split(":"))
        point = either(st.floats(start, stop).map(_number), edges)
        count = either(st.integers(1, 3).map(str), ["0", "-1", "2.5", "nan", "inf", "abc", ""])
        return st.one_of(st.lists(point, min_size=1, max_size=3).map(", ".join),
                         st.tuples(point, point, count).map(":".join))
    if delta and key == "nbar":
        return either(st.floats(0.0, 1.0).map(_number), edges)
    if default is None:
        return either(st.floats(0.0, 0.1).map(_number), edges)
    return either(st.floats(0.25, 1.25).map(lambda f: _number(f * default)), edges)


def _run(argv):
    """(exit code, stderr lines, warnings) of one in-process cli.main call."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, err.getvalue().splitlines(), caught


def _finite_outputs(directory):
    """Every number in every file the command wrote is finite (JSON is read strictly)."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    for name in os.listdir(directory):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            text = fh.read()
        if name.endswith(".json"):
            json.loads(text, parse_constant=refuse)
        elif not name.endswith(".ini"):
            rows = [line.split(",") for line in text.splitlines() if not line.startswith(("#", "mu,", "alpha,"))]
            assert all(math.isfinite(float(v)) for row in rows for v in row), (name, text)


def _is_q_warning(w):
    return issubclass(w.category, UserWarning) and "below the high-Q validity regime" in str(w.message)


@pytest.mark.parametrize("command", list(ARGV))
def test_config_contract(command):
    table = "map" if command == "map D5" else command
    declared = [(section, key, default) for section, keys in cli.CONFIG_KEYS[table].items()
                for key, default in keys.items()]

    @settings(derandomize=True, database=None, deadline=None, max_examples=EXAMPLES.get(table, 40),
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def check(data):
        # every grid is drawn, so none takes its default size; half the examples have edge values
        with_edges = data.draw(st.booleans())
        chosen = [d for d in declared if isinstance(d[2], str)] + data.draw(st.lists(
            st.sampled_from([d for d in declared if not isinstance(d[2], str)]), unique=True))
        sections = {}
        for section, key, default in chosen:
            sections.setdefault(section, {})[key] = data.draw(value_text(table, key, default, with_edges), label=key)
        undeclared = with_edges and data.draw(st.one_of(st.none(), st.sampled_from(
            [(s, k) for s, k in UNDECLARED if k not in cli.CONFIG_KEYS[table].get(s, {})])))
        if undeclared:
            sections.setdefault(undeclared[0], {})[undeclared[1]] = "1"
        fmt = "json" if table == "verify" else data.draw(st.sampled_from(["csv", "json"]))
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "c.ini")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write("".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                                 for s, keys in sections.items()))
            code, err, caught = _run([*ARGV[command], "--config", cfg, "--format", fmt,
                                      "--out", os.path.join(tmp, f"out.{fmt}")])
            assert [w for w in caught if not _is_q_warning(w)] == [], [str(w.message) for w in caught]
            if code == cli.EXIT_OK:
                assert err == [], err
                _finite_outputs(tmp)
            else:
                assert code == cli.EXIT_ERROR
                assert len(err) == 1 and err[0].startswith("error: "), err
                assert sorted(os.listdir(tmp)) == ["c.ini"]
            if undeclared:
                assert code == cli.EXIT_ERROR
                assert err[0].startswith(f"error: ValueError: [{undeclared[0]}] {undeclared[1]} "), err

    check()


def test_benchmark_sweep_configs_are_read_through_their_commands_keys(tmp_path):
    # every value the sweep workload writes reads back as itself, through its command's table
    for seed in (0, 3, 101):
        directory = tmp_path / str(seed)
        directory.mkdir()
        sweep = inputs.sweep_inputs(seed)
        inputs.write_configs(sweep, str(directory))
        for label, argv, config, _ in sweep["commands"]:
            if config is None:
                continue
            args = cli.build_parser().parse_args([*argv, "--config", str(directory / f"{label}.ini")])
            read = cli.read_config(args)
            assert {s: {k: str(read[s][k]) for k in keys} for s, keys in config.items()} == \
                {s: {k: str(v) for k, v in keys.items()} for s, keys in config.items()}, label


@pytest.mark.parametrize("protocol", ["mu = 1e300", "nbar = 1e300"])
def test_verify_at_an_overflowing_point_prints_one_error_line(tmp_path, protocol):
    cfg = tmp_path / "v.ini"
    cfg.write_text(f"[protocol]\n{protocol}\n[verify]\nn_seeds = 1\n")
    code, err, caught = _run(["verify", "--config", str(cfg), "--out", str(tmp_path / "v.json")])
    assert code == cli.EXIT_ERROR and len(err) == 1
    assert err[0].startswith("error: NonFiniteValue:")
    assert all(f"{name} = " in err[0] for name in ("mu", "phi", "nbar"))
    assert [str(w.message) for w in caught] == []
