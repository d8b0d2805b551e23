"""Optical loss, detector inefficiency, and dark counts in the heralding stage.

Closed-form true-positive fractions F for number-resolving and non-resolving
detectors, an amplitude optimizer, and an independent Fock-space oracle for
the loss-channel outcome probabilities P_mnkl.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fock, herald
from .errors import DegenerateHerald, TruncationTooSmall
from .fock import FockConfig
from .herald import ARM_POLYNOMIALS, CoherentInput, ProtocolParams, mode_displacements, polynomial_step

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


# numpy's exp and x * x round unlike math.exp and x ** 2 for ~5 % and ~0.1 % of arguments;
# math.exp elementwise and np.float_power (libm pow) keep F's scalar closed-form values
_exp = np.vectorize(math.exp, otypes=[float])
# the fringe of herald.heralding_probability, elementwise
_fringe = np.vectorize(herald.fringe, otypes=[float])


@lru_cache(maxsize=1)
def _binomials() -> np.ndarray:
    """C(2m, m - j) for m = 1..L_SUM_M_CAP (rows) and j = 1..L_SUM_M_CAP (columns), 0 for j > m."""
    cap = L_SUM_M_CAP
    return np.array([[math.comb(2 * m, m - j) if j <= m else 0 for j in range(1, cap + 1)]
                     for m in range(1, cap + 1)], dtype=float)


def click_terms(mu, phi, nbar_1, nbar_2) -> np.ndarray:
    """T_m = sum_k C(2m,k) e^{-i(m-k)phi} lam^{(m-k)^2}, lam = e^{-x}, x = mu^2 (1 + nbar_1 + nbar_2) / 2,
    for m = 1..L_SUM_M_CAP on a last axis over the broadcast points. By the binomial theorem
    T_m = (2 cos(phi/2))^{2m} + 2 sum_{j=1..m} C(2m, m-j) cos(j phi) expm1(-j^2 x), which keeps
    full precision where the alternating sum cancels (phi near pi, small mu).
    """
    m = np.arange(1, L_SUM_M_CAP + 1)
    x = np.asarray(mu * mu * (1.0 + nbar_1 + nbar_2) / 2.0)[..., None]
    phi = np.asarray(phi)[..., None]
    wave = np.cos(m * phi) * np.expm1(-(m * m) * x)
    return (2.0 * np.cos(phi / 2.0)) ** (2 * m) + 2.0 * (_binomials() @ wave[..., None])[..., 0]


def click_sum(eta: float, a2, terms: np.ndarray) -> np.ndarray:
    """L = sum_m (eta|a|^2/4)^m / m! T_m over `click_terms`, up to the first m-term below
    L_SUM_TERM_TOL; each point's terms are summed as their own slice, so L does not depend on the
    batch. m is capped at L_SUM_M_CAP because the entangling pulse is weak; no term below the
    tolerance within the cap raises TruncationTooSmall instead of returning the truncated sum.
    """
    m = np.arange(1, L_SUM_M_CAP + 1)
    contrib = np.cumprod(eta * np.asarray(a2)[..., None] / 4.0 / m, axis=-1) * terms
    below = np.abs(contrib) < L_SUM_TERM_TOL
    if not below.any(axis=-1).all():
        raise TruncationTooSmall(f"click sum has no term below {L_SUM_TERM_TOL:g} up to m = "
                                 f"{L_SUM_M_CAP}; |alpha|^2 up to {np.max(a2):g} is too large")
    stop = below.argmax(axis=-1) + 1
    rows = contrib.reshape(-1, L_SUM_M_CAP)
    return np.array([np.add.reduce(row[:k]) for row, k in zip(rows, stop.ravel())]).reshape(stop.shape)


def fraction_of_amplitude(det: DetectorParams, mu, phi, nbar_1, nbar_2):
    """F of `det` as a function of the entangling amplitude alpha, over points
    (mu, phi, nbar_1, nbar_2) that broadcast together and with alpha:

        resolving      F = [e^{(1-eta)|a|^2} + e^{-eta|a|^2} D / (eta P10 (1-D))]^-1
        non-resolving  F = [e^{-eta|a|^2} (L + D) / (eta P10)]^-1

    with P10 = e^{-|a|^2} |a|^2/2 (1 + lam cos phi) of `herald.heralding_probability`, its
    fringe in expm1 form; the alpha-independent fringe and click terms are computed once.
    """
    eta, dark = det.eta, det.dark_prob
    fringe = _fringe(np.float_power(mu, 2) * (1.0 + nbar_1 + nbar_2) / 2.0, phi)
    terms = None if det.resolving else click_terms(mu, phi, nbar_1, nbar_2)

    def fraction(alpha) -> np.ndarray:
        a2 = np.float_power(np.abs(alpha), 2)
        p10 = _exp(-a2) * a2 / 2.0 * fringe
        if np.any(p10 < 1e-300):
            raise DegenerateHerald("P10 vanishes; F undefined")
        if det.resolving:
            inv = _exp((1.0 - eta) * a2) + _exp(-eta * a2) * dark / (eta * p10 * (1.0 - dark))
        else:
            inv = _exp(-eta * a2) * (click_sum(eta, a2, terms) + dark) / (eta * p10)
        return 1.0 / inv

    return fraction


def _fraction_at(det: DetectorParams, protocol: ProtocolParams, resolving: bool) -> float:
    _require_coherent(protocol)
    fraction = fraction_of_amplitude(dataclasses.replace(det, resolving=resolving), protocol.mu,
                                     protocol.phi, protocol.nbar_1, protocol.nbar_2)
    return float(fraction(abs(protocol.input.alpha)))


def true_positive_fraction_resolving(det: DetectorParams, protocol: ProtocolParams) -> float:
    """F of a number-resolving detector at the protocol's alpha."""
    return _fraction_at(det, protocol, resolving=True)


def true_positive_fraction_nonresolving(det: DetectorParams, protocol: ProtocolParams) -> float:
    """F of a non-resolving detector at the protocol's alpha."""
    return _fraction_at(det, protocol, resolving=False)


@dataclass(frozen=True)
class AlphaOptimum:
    alpha: np.ndarray
    fraction: np.ndarray
    flat_objective: np.ndarray


def optimize_alpha(det: DetectorParams, mu, phi, nbar_1, nbar_2,
                   lo: float = 1e-4, hi: float = 4.0, tol: float = 1e-6) -> AlphaOptimum:
    """Golden-section maximum of F over real alpha in [lo, hi] at every broadcast point
    (mu, phi, nbar_1, nbar_2) at once: each point narrows its own bracket to at most tol and
    ends at its midpoint, or at hi if F spreads less than 1e-12 over lo, hi and the first probes.
    """
    points = np.broadcast_arrays(mu, phi, nbar_1, nbar_2)
    f = fraction_of_amplitude(det, *(np.ravel(v) for v in points))
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.full(points[0].size, lo), np.full(points[0].size, hi)
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    probes = np.stack([f(a), fc, fd, f(b)])
    flat = probes.max(axis=0) - probes.min(axis=0) < 1e-12
    while (live := b - a > tol).any():
        left, right = live & (fc > fd), live & ~(fc > fd)
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        c[left] = b[left] - inv_phi * (b[left] - a[left])
        d[right] = a[right] + inv_phi * (b[right] - a[right])
        f_new = f(np.where(left, c, d))
        fc[left], fd[right] = f_new[left], f_new[right]
    alpha = np.where(flat, hi, 0.5 * (a + b))
    return AlphaOptimum(*(v.reshape(points[0].shape) for v in (alpha, f(alpha), flat)))


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


def _poisson_weights(mean: float, count: int) -> np.ndarray:
    return np.array([mean**j / math.factorial(j) for j in range(count + 1)])


def _walk(step: np.ndarray, f: np.ndarray, count: int):
    """f, step f, ..., step^count f as E-polynomials (herald.polynomial_step)."""
    yield f
    for _ in range(count):
        f = polynomial_step(f, step)
        yield f


def _loss_table(
    det: DetectorParams,
    protocol: ProtocolParams,
    config: FockConfig,
    truncation: int,
    n_max: int,
) -> np.ndarray:
    """P[m, n, k, l] for every outcome with m + n + k + l <= truncation and
    n <= n_max, from one walk over the outcomes' click operators; zero elsewhere.

    Each lost photon applies its interferometer arm, each click applies
    arm_1 +- e^{i phi} arm_2, all as coefficient arrays f of
    Y = sum_ab f[a, b] E1^a x E2^b with E = D - I per mode (herald.ARM_POLYNOMIALS).
    On the thermal columns w_x |k1_x, k2_x> (fock.thermal_columns), tr(Y rho Y^dag) = f^dag T f with
    T[(a, b), (a', b')] = sum_x w_x (E1^a^dag E1^a')[k1_x, k1_x] (E2^b^dag E2^b')[k2_x, k2_x],
    one product over the columns. The walk order does not depend on n_max, and each entry
    is its own f^dag T f, so every entry it fills is the same float for any n_max.
    """
    _require_coherent(protocol)
    t = truncation
    e1, e2 = mode_displacements(protocol, config)
    kept, w, _ = fock.thermal_columns(protocol.nbar_1, protocol.nbar_2, config)
    k1, k2 = np.divmod(kept, config.cutoff_2)
    size = (t + 1) ** 2
    mode_1 = fock.pair_diagonals(fock.powers(e1, t + 1), np.eye(config.cutoff_1)[None])[..., 0, k1]
    mode_2 = fock.pair_diagonals(fock.powers(e2, t + 1), np.eye(config.cutoff_2)[None])[..., 0, k2]
    quad = ((mode_1.reshape(size, -1) * w) @ mode_2.reshape(size, -1).T).reshape((t + 1,) * 4)
    quad = quad.transpose(0, 2, 1, 3).reshape(size, size)

    arm_1, arm_2 = ARM_POLYNOMIALS[protocol.configuration]
    phase = np.exp(1j * protocol.phi)
    plus, minus = arm_1 + phase * arm_2, arm_1 - phase * arm_2
    unit = np.zeros((t + 1, t + 1), dtype=complex)
    unit[0, 0] = 1.0
    norms = np.zeros((t + 1,) * 4)
    for k, f_k in enumerate(_walk(arm_1, unit, t)):
        for l, f_kl in enumerate(_walk(arm_2, f_k, t - k)):  # noqa: E741
            for n, f_nkl in enumerate(_walk(minus, f_kl, min(n_max, t - k - l))):
                for m, f in enumerate(_walk(plus, f_nkl, t - k - l - n)):
                    f = f.ravel()
                    norms[m, n, k, l] = np.vdot(f, quad @ f).real
    a2 = abs(protocol.input.alpha) ** 2
    click = _poisson_weights(det.eta * a2 / 4.0, t)
    lost = _poisson_weights((1.0 - det.eta) * a2 / 2.0, t)
    return math.exp(-a2) * np.einsum("m,n,k,l->mnkl", click, click, lost, lost) * norms


class LossOracle:
    """Fock-space P_mnkl = tr(Y_mnkl rho Y_mnkl^dag) for every outcome with
    m + n + k + l <= truncation; `table[m, n, k, l]` holds P_mnkl (zero beyond
    the truncation). Each Y_mnkl is walked as its coefficients over E1^a x E2^b
    (E = D - I per mode) and read against one matrix over the thermal columns
    (_loss_table); no factor is built.
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
    """Assemble both F values from the oracle's P_mnkl sums (n = 0 clicks);
    the coefficient walk visits only the n = 0 outcomes, and each entry is the
    float the full LossOracle table holds."""
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
