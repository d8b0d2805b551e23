"""Optical loss, detector inefficiency, and dark counts in the heralding stage.

Closed-form true-positive fractions F for number-resolving and non-resolving
detectors, an amplitude optimizer, and an independent Fock-space oracle that
brute-forces the loss-channel outcome probabilities P_mnkl.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fock
from .errors import DegenerateHerald, TruncationTooSmall
from .fock import FockConfig
from .herald import CoherentInput, ProtocolParams, click_step, heralding_probability, interferometer_arms

LOSS_TRUNCATION = 8
L_SUM_TERM_TOL = 1e-12
L_SUM_M_CAP = 60


@dataclass(frozen=True)
class DetectorParams:
    """Intensity transmission, dark-count probability per window, detector type."""

    eta: float
    dark_prob: float
    resolving: bool = True

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if not 0.0 <= self.dark_prob < 1.0:
            raise ValueError("dark_prob must be in [0, 1)")


def dark_prob_from_rate(rate_hz: float, window_s: float) -> float:
    """Probability of a single dark count in one detection window."""
    return rate_hz * window_s


def _require_coherent(protocol: ProtocolParams) -> None:
    if not isinstance(protocol.input, CoherentInput):
        raise ValueError("detector formulas require a coherent input")


def true_positive_fraction_resolving(det: DetectorParams, protocol: ProtocolParams) -> float:
    """F = [e^{(1-eta)|a|^2} + e^{-eta|a|^2} D / (eta P10 (1-D))]^-1."""
    _require_coherent(protocol)
    a2 = abs(protocol.input.alpha) ** 2
    p10 = heralding_probability(protocol)
    if p10 < 1e-300:
        raise DegenerateHerald("P10 vanishes; F undefined")
    inv = math.exp((1.0 - det.eta) * a2) + math.exp(-det.eta * a2) * det.dark_prob / (
        det.eta * p10 * (1.0 - det.dark_prob)
    )
    return 1.0 / inv


@lru_cache(maxsize=1)
def _binomials() -> np.ndarray:
    """C(2m, m - j) for m = 1..L_SUM_M_CAP (rows) and j = 1..L_SUM_M_CAP (columns), 0 for j > m."""
    cap = L_SUM_M_CAP
    return np.array([[math.comb(2 * m, m - j) if j <= m else 0 for j in range(1, cap + 1)]
                     for m in range(1, cap + 1)], dtype=float)


def click_sum(eta: float, a2: float, mu: float, phi: float, nbar_1: float, nbar_2: float) -> float:
    """L = sum_m sum_k C(2m,k) (eta|a|^2/4)^m / m! e^{-i(m-k)phi} lam^{(m-k)^2}, lam = e^{-x}
    with x = mu^2 (1 + nbar_1 + nbar_2) / 2.

    By the binomial theorem the m-term's inner sum is
    T_m = (2 cos(phi/2))^{2m} + 2 sum_{j=1..m} C(2m, m-j) cos(j phi) expm1(-j^2 x),
    which keeps full precision where the alternating sum cancels (phi near pi, small
    mu). The sum runs up to the first m-term below the tolerance; m is capped
    because the entangling pulse is weak.
    """
    x = mu * mu * (1.0 + nbar_1 + nbar_2) / 2.0
    m = np.arange(1, L_SUM_M_CAP + 1)
    t = (2.0 * math.cos(phi / 2.0)) ** (2 * m) + 2.0 * (
        _binomials() @ (np.cos(m * phi) * np.expm1(-(m * m) * x))
    )
    contrib = np.cumprod(eta * a2 / 4.0 / m) * t
    below = np.flatnonzero(np.abs(contrib) < L_SUM_TERM_TOL)
    return float(contrib[: below[0] + 1 if below.size else None].sum())


def true_positive_fraction_nonresolving(det: DetectorParams, protocol: ProtocolParams) -> float:
    """F = [e^{-eta|a|^2} (L + D) / (eta P10)]^-1 for non-resolving detectors."""
    _require_coherent(protocol)
    a2 = abs(protocol.input.alpha) ** 2
    p10 = heralding_probability(protocol)
    if p10 < 1e-300:
        raise DegenerateHerald("P10 vanishes; F undefined")
    lsum = click_sum(det.eta, a2, protocol.mu, protocol.phi, protocol.nbar_1, protocol.nbar_2)
    inv = math.exp(-det.eta * a2) * (lsum + det.dark_prob) / (det.eta * p10)
    return 1.0 / inv


def true_positive_fraction(det: DetectorParams, protocol: ProtocolParams) -> float:
    if det.resolving:
        return true_positive_fraction_resolving(det, protocol)
    return true_positive_fraction_nonresolving(det, protocol)


@dataclass(frozen=True)
class AlphaOptimum:
    alpha: float
    fraction: float
    flat_objective: bool


def optimize_alpha(
    det: DetectorParams,
    protocol: ProtocolParams,
    lo: float = 1e-4,
    hi: float = 4.0,
    tol: float = 1e-6,
) -> AlphaOptimum:
    """Golden-section maximum of F over real alpha in (0, hi]."""
    _require_coherent(protocol)

    def f(alpha: float) -> float:
        return true_positive_fraction(det, dataclasses.replace(protocol, input=CoherentInput(alpha)))

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    probes = [f(lo), fc, fd, f(hi)]
    if max(probes) - min(probes) < 1e-12:
        return AlphaOptimum(alpha=hi, fraction=f(hi), flat_objective=True)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    alpha = 0.5 * (a + b)
    return AlphaOptimum(alpha=alpha, fraction=f(alpha), flat_objective=False)


# ---------------------------------------------------------------------------
# Fock-space loss oracle


@dataclass(frozen=True)
class LossOutcome:
    """m, n photons detected; k, l photons lost from the two arms."""

    m: int
    n: int
    k: int
    l: int  # noqa: E741 - conventional loss-index name

    @property
    def total(self) -> int:
        return self.m + self.n + self.k + self.l


def _check_truncation(outcome: LossOutcome, truncation: int) -> None:
    if outcome.total > truncation:
        raise TruncationTooSmall(f"outcome {outcome} beyond truncation {truncation}")


def _powers(step, a: np.ndarray, count: int):
    """a, step(a), ..., step^count(a)."""
    yield a
    for _ in range(count):
        a = step(a)
        yield a


def _poisson_weights(mean: float, count: int) -> np.ndarray:
    return np.array([mean**j / math.factorial(j) for j in range(count + 1)])


def _loss_table(
    det: DetectorParams,
    protocol: ProtocolParams,
    config: FockConfig,
    truncation: int,
    n_max: int,
) -> np.ndarray:
    """P[m, n, k, l] for every outcome with m + n + k + l <= truncation and
    n <= n_max, from one walk over the thermal state factor; zero elsewhere.

    Each lost photon applies its interferometer arm, each click applies
    arm_1 +- e^{i phi} arm_2. The walk order does not depend on n_max, so
    every entry it fills is the same float for any n_max.
    """
    _require_coherent(protocol)
    t = truncation
    arm_1, arm_2 = interferometer_arms(protocol, config)
    phase = np.exp(1j * protocol.phi)

    plus, minus = click_step(arm_1, arm_2, phase), click_step(arm_1, arm_2, -phase)
    norms = np.zeros((t + 1,) * 4)
    factor = fock.thermal_state(protocol.nbar_1, protocol.nbar_2, config).factor
    for k, a_k in enumerate(_powers(arm_1, factor, t)):
        for l, a_kl in enumerate(_powers(arm_2, a_k, t - k)):  # noqa: E741
            for n, a_nkl in enumerate(_powers(minus, a_kl, min(n_max, t - k - l))):
                for m, a in enumerate(_powers(plus, a_nkl, t - k - l - n)):
                    norms[m, n, k, l] = np.vdot(a, a).real
    a2 = abs(protocol.input.alpha) ** 2
    click = _poisson_weights(det.eta * a2 / 4.0, t)
    lost = _poisson_weights((1.0 - det.eta) * a2 / 2.0, t)
    return math.exp(-a2) * np.einsum("m,n,k,l->mnkl", click, click, lost, lost) * norms


class LossOracle:
    """Brute-force P_mnkl = tr(Y_mnkl rho Y_mnkl^dag) for every outcome with
    m + n + k + l <= truncation; `table[m, n, k, l]` holds P_mnkl (zero beyond
    the truncation).
    """

    def __init__(
        self,
        det: DetectorParams,
        protocol: ProtocolParams,
        config: FockConfig,
        truncation: int = LOSS_TRUNCATION,
    ):
        self.truncation = truncation
        self.table = _loss_table(det, protocol, config, truncation, n_max=truncation)

    def probability(self, outcome: LossOutcome) -> float:
        """P_mnkl of one outcome."""
        _check_truncation(outcome, self.truncation)
        return float(self.table[outcome.m, outcome.n, outcome.k, outcome.l])


def loss_outcome_probability(
    det: DetectorParams,
    protocol: ProtocolParams,
    outcome: LossOutcome,
    config: FockConfig,
    truncation: int = LOSS_TRUNCATION,
) -> float:
    _check_truncation(outcome, truncation)
    return LossOracle(det, protocol, config, outcome.total).probability(outcome)


@dataclass(frozen=True)
class OracleFractions:
    resolving: float
    nonresolving: float


def fractions_from_oracle(
    det: DetectorParams,
    protocol: ProtocolParams,
    config: FockConfig,
    truncation: int = LOSS_TRUNCATION,
) -> OracleFractions:
    """Assemble both F values from brute-force P_mnkl sums (n = 0 clicks);
    the walk visits only the n = 0 outcomes."""
    _check_truncation(LossOutcome(1, 0, 0, 0), truncation)
    p = _loss_table(det, protocol, config, truncation, n_max=0)[:, 0]  # P_m0kl
    dark = det.dark_prob
    p1000 = p[1, 0, 0]
    sum_10kl, sum_00kl, sum_m0kl = p[1].sum(), p[0].sum(), p[1:].sum()
    res = (1.0 - dark) * p1000 / ((1.0 - dark) * sum_10kl + dark * sum_00kl)
    nonres = p1000 / (sum_m0kl + dark * sum_00kl)
    return OracleFractions(float(res), float(nonres))


def total_probability_covered(
    det: DetectorParams,
    protocol: ProtocolParams,
    config: FockConfig,
    truncation: int = LOSS_TRUNCATION,
) -> float:
    """sum over all {m,n,k,l} with total <= truncation; approaches 1."""
    return float(LossOracle(det, protocol, config, truncation).table.sum())
