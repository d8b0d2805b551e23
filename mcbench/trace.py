"""Span recorder for the traced run.

Spans are recorded from the benchmark's own code: each public function named
in ``SPANS`` is wrapped at every place a mechcat module looks it up (any
module attribute that is the same object), so calls between modules are
seen as well as calls from the benchmark. Spans stay in memory and are
written out when the round ends. A layer's self time is its span's duration
minus the durations of the timed child spans it directly contains.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute path): functions and methods that get a span
SPANS = [
    ("herald.heralded_moment_table", "mechcat.herald", "heralded_moment_table"),
    ("herald.heralded_state", "mechcat.herald", "heralded_state"),
    ("herald.measurement_operator", "mechcat.herald", "measurement_operator"),
    ("fock.thermal_state", "mechcat.fock", "thermal_state"),
    ("fock.apply_operator", "mechcat.fock", "apply_operator"),
    ("fock.TwoModeState.validate", "mechcat.fock", "TwoModeState.validate"),
    ("fock.von_neumann_entropy", "mechcat.fock", "von_neumann_entropy"),
    ("opensystem.evolve_moments", "mechcat.opensystem", "evolve_moments"),
    ("criteria.build_s3", "mechcat.criteria", "build_s3"),
    ("criteria.build_d5", "mechcat.criteria", "build_d5"),
    ("criteria.max_cooled_occupation", "mechcat.criteria", "max_cooled_occupation"),
    ("criteria.non_gaussianity", "mechcat.criteria", "non_gaussianity"),
    ("algebra.moments_from_state", "mechcat.algebra", "moments_from_state"),
    ("verify.default_phase_sets", "mechcat.verify", "default_phase_sets"),
    ("verify.VerificationStudy.init", "mechcat.verify", "VerificationStudy.__init__"),
    ("verify.VerificationStudy.run", "mechcat.verify", "VerificationStudy.run"),
    ("verify.recover_moments", "mechcat.verify", "recover_moments"),
    ("detector.fractions_from_oracle", "mechcat.detector", "fractions_from_oracle"),
    ("detector.optimize_alpha", "mechcat.detector", "optimize_alpha"),
]

# functions that are only counted: they are called too often for a span each
COUNTS = [
    ("opensystem.noise_covariances", "mechcat.opensystem", "noise_covariances"),
    ("detector.LossOracle.probability", "mechcat.detector", "LossOracle.probability"),
    ("criteria.s3_evolved", "mechcat.criteria", "s3_evolved"),
]


class Tracer:
    """In-memory spans (name, start, end, parent index) and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.values: dict[str, list[float]] = defaultdict(list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            evals_before = self.counts["criteria.s3_evolved"]
            with self.span(name):
                result = fn(*args, **kwargs)
            self._observe(name, args, result, evals_before)
            return result

        return wrapper

    def wrap_count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, args, result, evals_before):
        if name == "fock.thermal_state":
            self.values["fock.dense_bytes"].append(16 * result.config.dim**2)
        elif name == "verify.default_phase_sets":
            self.values["verify.default_phase_sets.selected"].append(len(result))
        elif name == "verify.VerificationStudy.init":
            self.values["verify.VerificationStudy.channels"].append(len(args[0].channels))
        elif name == "criteria.max_cooled_occupation" and result.verification_possible:
            evals = self.counts["criteria.s3_evolved"] - evals_before
            self.values["criteria.max_cooled_occupation.s3_evals"].append(evals)

    def self_times(self) -> dict[str, list[tuple[float, float]]]:
        """Per span name, the list of (duration, self time) of each call."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(list)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name].append((end - start, end - start - child[i]))
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric derived from spans and counters."""
        calls = self.self_times()
        m: dict[str, float] = {}
        for name in dict.fromkeys([n for n, _, _ in SPANS] + list(calls)):
            m[f"{name}.s"] = sum(s for _, s in calls.get(name, []))
            m[f"{name}.calls"] = float(len(calls.get(name, [])))
        for name in ("verify.VerificationStudy.run", "verify.recover_moments"):
            durations = [d for d, _ in calls.get(name, [])]
            m[f"{name}.p50_s"] = statistics.median(durations) if durations else 0.0
        for name, _, _ in COUNTS:
            m[f"{name}.calls"] = float(self.counts[name])
        m["fock.dense_bytes.max"] = float(max(self.values["fock.dense_bytes"], default=0))
        sel = self.values["verify.default_phase_sets.selected"]
        m["verify.default_phase_sets.selected"] = float(statistics.mean(sel)) if sel else 0.0
        m["verify.VerificationStudy.channels"] = float(sum(self.values["verify.VerificationStudy.channels"]))
        evals = self.values["criteria.max_cooled_occupation.s3_evals"]
        m["criteria.max_cooled_occupation.s3_evals_per_root"] = (
            float(statistics.mean(evals)) if evals else 0.0
        )
        return m

    def dump(self) -> list:
        """Every span as [name, start, end, parent index]."""
        return self.spans


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap every listed function where mechcat's modules look it up."""
    for wrap, table in ((tracer.wrap, SPANS), (tracer.wrap_count, COUNTS)):
        for name, module, path in table:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            wrapped = wrap(name, original)
            if "." in path:  # a method: its class is the only lookup site
                setattr(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "mechcat" and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
