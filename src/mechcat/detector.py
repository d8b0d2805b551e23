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
from .herald import ARM_POLYNOMIALS, CoherentInput, ProtocolParams, polynomial_step

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
_log = np.vectorize(math.log, otypes=[float])
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


# m^p for the click series' moments p = 0, 1, 2 (rows) over m = 1..L_SUM_M_CAP
_M_POWERS = np.arange(1, L_SUM_M_CAP + 1) ** np.arange(3)[:, None]


def _click_moments(eta: float, a2, terms: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_m m^p c_m for p = 0..order on a leading axis, with c_m = (eta|a|^2/4)^m / m! T_m the
    terms of the click sum, each point's summed as its own slice up to its first term below
    L_SUM_TERM_TOL; and where such a term lies within the cap m <= L_SUM_M_CAP (elsewhere the
    sums stop at the cap and are too small)."""
    m = np.arange(1, L_SUM_M_CAP + 1)
    contrib = np.cumprod(eta * np.asarray(a2)[..., None] / 4.0 / m, axis=-1) * terms
    below = np.abs(contrib) < L_SUM_TERM_TOL
    inside = below.any(axis=-1)
    stop = np.where(inside, below.argmax(axis=-1) + 1, L_SUM_M_CAP)
    rows = (contrib[..., None, :] * _M_POWERS[: order + 1]).reshape(-1, order + 1, L_SUM_M_CAP)
    sums = np.array([np.add.reduce(row[:, :k], axis=-1) for row, k in zip(rows, stop.ravel())])
    return sums.T.reshape((order + 1,) + stop.shape), inside


def click_sum(eta: float, a2, terms: np.ndarray) -> np.ndarray:
    """L = sum_m (eta|a|^2/4)^m / m! T_m over `click_terms`, up to the first m-term below
    L_SUM_TERM_TOL; each point's terms are summed as their own slice, so L does not depend on the
    batch. m is capped at L_SUM_M_CAP because the entangling pulse is weak; no term below the
    tolerance within the cap raises TruncationTooSmall instead of returning the truncated sum.
    """
    (lsum,), inside = _click_moments(eta, a2, terms, 0)
    if not inside.all():
        raise TruncationTooSmall(f"click sum has no term below {L_SUM_TERM_TOL:g} up to m = "
                                 f"{L_SUM_M_CAP}; |alpha|^2 up to {np.max(a2):g} is too large")
    return lsum


def _fraction_parts(det: DetectorParams, mu, phi, nbar_1, nbar_2):
    """The alpha-independent parts of F: P10's fringe and, for a non-resolving detector, the click terms."""
    with np.errstate(over="ignore"):  # an x that overflows is the e^{-x} = 0 limit of the fringe
        fringe = _fringe(np.float_power(mu, 2) * (1.0 + nbar_1 + nbar_2) / 2.0, phi)
    return fringe, None if det.resolving else click_terms(mu, phi, nbar_1, nbar_2)


def _inverse_fraction(det: DetectorParams, fringe, a2, lsum=None) -> np.ndarray:
    """1/F at |alpha|^2 = a2 from the parts of `_fraction_parts` (and the click sum L if non-resolving)."""
    eta, dark = det.eta, det.dark_prob
    p10 = _exp(-a2) * a2 / 2.0 * fringe
    if not np.all(p10 >= 1e-300):  # nan where |alpha|^2 overflows
        raise DegenerateHerald("P10 vanishes; F undefined")
    if det.resolving:
        return _exp((1.0 - eta) * a2) + _exp(-eta * a2) * dark / (eta * p10 * (1.0 - dark))
    return _exp(-eta * a2) * (lsum + dark) / (eta * p10)


def fraction_of_amplitude(det: DetectorParams, mu, phi, nbar_1, nbar_2):
    """F of `det` as a function of the entangling amplitude alpha, over points
    (mu, phi, nbar_1, nbar_2) that broadcast together and with alpha:

        resolving      F = [e^{(1-eta)|a|^2} + e^{-eta|a|^2} D / (eta P10 (1-D))]^-1
        non-resolving  F = [e^{-eta|a|^2} (L + D) / (eta P10)]^-1

    with P10 = e^{-|a|^2} |a|^2/2 (1 + lam cos phi) of `herald.heralding_probability`, its
    fringe in expm1 form; the alpha-independent fringe and click terms are computed once.
    """
    return _fraction_function(det, *_fraction_parts(det, mu, phi, nbar_1, nbar_2))


def _fraction_function(det: DetectorParams, fringe, terms):
    """F as a function of alpha from the parts of `_fraction_parts`."""

    def fraction(alpha) -> np.ndarray:
        # an |alpha|^2 that overflows fails P10's floor or the click sum's cap, which raise
        with np.errstate(over="ignore", invalid="ignore"):
            a2 = np.float_power(np.abs(alpha), 2)
            lsum = None if det.resolving else click_sum(det.eta, a2, terms)
            inverse = _inverse_fraction(det, fringe, a2, lsum)
        return 1.0 / inverse

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


# Newton steps in u = ln|alpha|^2 stop below this size, and a bracket narrower than it is closed;
# the step after one of this size is off by ~U_TOL^2
U_TOL = 1e-4


def _click_slope(det: DetectorParams, x, terms: np.ndarray):
    """h = x d ln(1/F)/dx = (1-eta) x + S1/(L+D) - 1 of a non-resolving detector and dh/du, u = ln x,
    from one click-series evaluation: L, S1 = x L' and S2 = x (x L')' are its sums of c_m, m c_m and
    m^2 c_m, so dh/du = (1-eta) x + S2/(L+D) - (S1/(L+D))^2 >= 0. Also L, and where the series
    lies inside its cap."""
    (lsum, s1, s2), inside = _click_moments(det.eta, x, terms, 2)
    with np.errstate(divide="ignore", invalid="ignore"):  # L + D = 0 only where P10 vanishes
        ratio, curve = s1 / (lsum + det.dark_prob), s2 / (lsum + det.dark_prob)
    return (1.0 - det.eta) * x + ratio - 1.0, (1.0 - det.eta) * x + curve - ratio * ratio, lsum, inside


def _newton_click_optimum(det: DetectorParams, terms: np.ndarray, u, a, b, capped) -> np.ndarray:
    """The root of h (`_click_slope`) in u at every point, by safeguarded Newton steps from u inside
    the bracket [a, b] with h(a) < 0 <= h(b); capped marks a b whose series reaches the cap. A step
    that leaves the bracket bisects it instead; a trial whose series reaches the cap closes the
    bracket from above, and a bracket that closes there raises TruncationTooSmall. Points that have
    converged keep their u while the others step.
    """
    live = np.ones(u.shape, dtype=bool)
    while live.any():
        h, dh, _, inside = _click_slope(det, _exp(u), terms)
        lower = live & inside & (h < 0.0)
        upper = live & ~lower
        a, b, capped = np.where(lower, u, a), np.where(upper, u, b), np.where(upper, ~inside, capped)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = u - h / dh
        converged = inside & (a <= newton) & (newton <= b) & (np.abs(newton - u) <= U_TOL)
        step = converged | (inside & (a < newton) & (newton < b))
        closed = ~converged & (b - a <= U_TOL)
        if np.any(stuck := live & closed & capped):
            raise TruncationTooSmall(f"click sum has no term below {L_SUM_TERM_TOL:g} up to m = "
                                     f"{L_SUM_M_CAP}; the search for the optimum closes at |alpha|^2 = "
                                     f"{np.min(_exp(b[stuck])):g}, which is too large")
        u = np.where(live, np.where(step, newton, 0.5 * (a + b)), u)
        live &= ~(converged | closed)
    return u


def optimize_alpha(det: DetectorParams, mu, phi, nbar_1, nbar_2,
                   lo: float = 1e-4, hi: float = 4.0) -> AlphaOptimum:
    """Maximum of F over real alpha in [lo, hi] at every broadcast point (mu, phi, nbar_1, nbar_2),
    as the minimum of ln(1/F) over x = |alpha|^2; each point's arithmetic is its own, so a batch
    gives the values of its points one at a time.

    Resolving: ln(1/F) = (1-eta) x + ln(1 + C/x), C = 2D / (eta (1-D) fringe), is convex, and its
    minimum is the positive root of x^2 + C x - C/(1-eta), x* = 2 / (s + sqrt(s^2 + 4 s/C)) with
    s = 1 - eta (hi^2 at eta = 1), clipped to [lo^2, hi^2]: one F evaluation. Non-resolving:
    safeguarded Newton steps on x d ln(1/F)/dx in u = ln x (`_newton_click_optimum`), bracketed by
    the probes below and started at the root of the click sum cut to its first two terms; each
    step is one click-series evaluation.

    F is flat where it spreads less than 1e-12 over lo, hi and the two golden-section points
    between them (the probes); alpha is then hi.
    """
    points = np.broadcast_arrays(mu, phi, nbar_1, nbar_2)
    optimum = _optimum(det, *_fraction_parts(det, *(np.ravel(v) for v in points)), lo, hi)
    return AlphaOptimum(*(v.reshape(points[0].shape) for v in optimum))


def _optimum(det: DetectorParams, fringe, terms, lo: float = 1e-4, hi: float = 4.0):
    """(alpha, F, flat) of `optimize_alpha` over 1-D points, from the parts of `_fraction_parts`."""
    eta, dark, s = det.eta, det.dark_prob, 1.0 - det.eta
    with np.errstate(divide="ignore", invalid="ignore"):
        c = 2.0 * dark / (eta * (1.0 - dark) * fringe)
        x = 2.0 / (s + np.sqrt(s * s + 4.0 * s / c))
    x = np.fmin(np.fmax(x, lo * lo), hi * hi)  # fmax takes nan (D = 0 at eta = 1) to lo^2
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    probes = np.array([lo, hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo), hi])[:, None]
    if det.resolving:
        a2 = np.float_power(np.concatenate([np.broadcast_to(probes, (4, x.size)), np.sqrt(x)[None]]), 2)
        f = 1.0 / _inverse_fraction(det, fringe, a2)
        flat = np.ptp(f[:4], axis=0) < 1e-12
        return np.where(flat, hi, np.sqrt(x)), np.where(flat, f[3], f[4]), flat
    a2 = np.float_power(probes, 2)
    h, _, lsum, inside = _click_slope(det, a2, terms)
    flat = inside.all(axis=0) & (np.ptp(1.0 / _inverse_fraction(det, fringe, a2, lsum), axis=0) < 1e-12)
    # h rises with u: the probes below the root bracket it, an end probe where none or all are
    below = (inside & (h < 0.0)).sum(axis=0)
    u_probes = _log(a2[:, 0])
    a, b = u_probes[np.maximum(below - 1, 0)], u_probes[np.minimum(below, 3)]
    capped = ~inside[np.minimum(below, 3), np.arange(x.size)]
    # start at the root of the two-term click model L = c_1 + c_2, a cubic
    # p(x) = s k x^3 + (s + k) x^2 + s C x - C with C = 2D / (eta fringe), k = eta T_2 / (16 fringe),
    # by Newton steps from above its root (below x* and sqrt(C/k)), where they fall monotonically
    with np.errstate(divide="ignore", invalid="ignore"):
        c, k = 2.0 * dark / (eta * fringe), eta * terms[:, 1] / (16.0 * fringe)
        x = np.fmin(x, np.sqrt(c / k))
        for _ in range(4):
            x = x - (((s * k * x + s + k) * x + s * c) * x - c) / ((3.0 * s * k * x + 2.0 * (s + k)) * x + s * c)
    u = np.fmin(np.fmax(_log(np.fmax(x, lo * lo)), a), b)
    todo = np.flatnonzero(~flat)
    u = _newton_click_optimum(det, terms[todo], u[todo], a[todo], b[todo], capped[todo])
    alpha = np.full(x.size, hi)
    alpha[todo] = np.clip(np.sqrt(_exp(u)), lo, hi)
    a2 = np.float_power(alpha, 2)
    return alpha, 1.0 / _inverse_fraction(det, fringe, a2, click_sum(eta, a2, terms)), flat


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


def _level_walk(step: np.ndarray, fs: np.ndarray, outcomes: np.ndarray, axis: int, count: int, t: int):
    """The stack fs with step^j f appended for j = 1..count while the outcome total stays
    <= t; outcomes[i] is (m, n, k, l) of fs[i], and each step adds one to its `axis`. One
    polynomial_step per level steps the whole live stack."""
    out_f, out_outcomes = [fs], [outcomes]
    for _ in range(count):
        live = outcomes.sum(axis=1) < t
        if not live.any():
            break
        fs = polynomial_step(fs[live], step)
        outcomes = outcomes[live] + np.eye(4, dtype=int)[axis]
        out_f.append(fs)
        out_outcomes.append(outcomes)
    return np.concatenate(out_f), np.concatenate(out_outcomes)


def _loss_table(
    det: DetectorParams,
    protocol: ProtocolParams,
    config: FockConfig,
    truncation: int,
    n_max: int,
) -> np.ndarray:
    """P[m, n, k, l] for every outcome with m + n + k + l <= truncation and
    n <= n_max, from one walk over the outcomes' click operators; zero elsewhere.

    Each lost photon applies its interferometer arm, each click the plus or minus step,
    all as coefficient arrays f of Y = sum_ab f[a, b] E1^a x E2^b with E = D - I per mode
    (herald.ARM_POLYNOMIALS, herald.click_inputs). On the thermal columns with these E,
    tr(Y rho Y^dag) = f^dag T f with T[(a, b), (a', b')] the word sum of
    (E1^a)^dag E1^a' x (E2^b)^dag E2^b' (fock.TwoModeState.word_sums). The walk takes
    the arms, then the minus and the plus clicks, one stack level at a time (_level_walk);
    the steps of each f do not depend on n_max, and each entry is its own f^dag T f, so
    every entry it fills is the same float for any n_max.
    """
    _require_coherent(protocol)
    t = truncation
    thermal, (plus, minus) = herald.click_inputs(protocol, config)
    words = []
    for e in (thermal.e1, thermal.e2):
        powers = fock.powers(e, t + 1)
        words.append((powers.conj().swapaxes(1, 2)[:, None] @ powers).reshape(-1, len(e), len(e)))
    size = (t + 1) ** 2
    quad = thermal.word_sums(*words).reshape((t + 1,) * 4).transpose(0, 2, 1, 3).reshape(size, size)

    arm_1, arm_2 = ARM_POLYNOMIALS[protocol.configuration]
    fs = np.zeros((1, t + 1, t + 1), dtype=complex)
    fs[0, 0, 0] = 1.0
    outcomes = np.zeros((1, 4), dtype=int)
    for step, axis, count in ((arm_1, 2, t), (arm_2, 3, t), (minus, 1, n_max), (plus, 0, t)):
        fs, outcomes = _level_walk(step, fs, outcomes, axis, count, t)
    norms = np.zeros((t + 1,) * 4)
    for f, outcome in zip(fs.reshape(len(fs), -1), outcomes):
        norms[tuple(outcome)] = np.vdot(f, quad @ f).real
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

