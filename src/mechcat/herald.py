"""Heralded generation of two-mode mechanical cat states.

A click event {m, n} after the interferometer applies a measurement operator
built from pulsed-interaction phase factors e^{i mu X}; the {1, 0} event
heralds the two-mode cat state. Two independent computation paths are
provided: a truncated-Fock path, where the click operator's coefficients over
per-mode E = D - I powers act on the thermal click columns (fock.TwoModeState,
fock.apply_operator), and a closed-form moment path (the heralded state is a
superposition of displaced Gaussians, so every canonical moment follows from
a quadratic generating function).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import fock
from .algebra import MomentTable, _grid_index, mode_keys
from .errors import HeraldImpossible, ZeroOperator
from .fock import FockConfig, TwoModeState


@dataclass(frozen=True)
class CoherentInput:
    """Weak coherent entangling pulse |alpha> in the bright port."""

    alpha: complex = 1.0


@dataclass(frozen=True)
class SinglePhotonInput:
    """Single-photon entangling pulse."""


PARALLEL = "parallel"
SERIES = "series"


@dataclass(frozen=True)
class ProtocolParams:
    """Entanglement-stage parameters: coupling, interferometer phase, input."""

    mu: float
    phi: float
    input: CoherentInput | SinglePhotonInput = CoherentInput(1.0)
    configuration: str = PARALLEL
    nbar_1: float = 0.0
    nbar_2: float = 0.0

    def __post_init__(self):
        if not 0 <= self.mu < math.inf:
            raise ValueError("mu must be finite and >= 0")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        if not (0 <= self.nbar_1 < math.inf and 0 <= self.nbar_2 < math.inf):
            raise ValueError("nbar must be finite and >= 0")
        if self.configuration not in (PARALLEL, SERIES):
            raise ValueError(f"unknown configuration {self.configuration!r}")


@dataclass(frozen=True)
class ClickOutcome:
    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("photon counts must be >= 0")


# 2 cos^2(phi/2) at the double nearest pi: the resolution of the dark fringe
DARK_FRINGE_FLOOR = 2.0 * math.cos(math.pi / 2.0) ** 2


def fringe(x: float, phi: float, sign: float = 1.0) -> float:
    """1 + sign e^{-x} cos(phi), written 2 cos^2(phi/2) + cos(phi) expm1(-x) for sign = 1 and
    2 sin^2(phi/2) - cos(phi) expm1(-x) for sign = -1, so that no O(1) terms cancel at the
    dark fringe; 0 at or below DARK_FRINGE_FLOOR."""
    half = math.cos(phi / 2.0) if sign > 0 else math.sin(phi / 2.0)
    value = 2.0 * half**2 + sign * math.cos(phi) * math.expm1(-x)
    return value if value > DARK_FRINGE_FLOOR else 0.0


def prefactor_probability(params: ProtocolParams, outcome: ClickOutcome) -> float:
    """Probability-level prefactor of the click distribution, 2 |N_mn|^2 with the
    amplitude prefactor N_mn (`amplitude_prefactor`); the factor 2 makes the closed
    form match tr(Y rho Y^dag) exactly (checked against the Fock path and against
    the detector working point where the interferometer is transparent and the
    count statistics are Poissonian).
    """
    if outcome.m + outcome.n != 1:
        raise ValueError("closed-form prefactor implemented for {1,0}/{0,1} only")
    return 2.0 * abs(amplitude_prefactor(params, outcome)) ** 2


def heralding_probability(params: ProtocolParams, outcome: ClickOutcome = ClickOutcome(1, 0)) -> float:
    """Closed-form P_10 = pref (1 + lam cos phi), or P_01 with -lam, from the interference
    contrast lam = exp(-x), x = mu^2 (1 + nbar_1 + nbar_2) / 2 (`fringe`)."""
    pref = prefactor_probability(params, outcome)
    x = params.mu**2 * (1.0 + params.nbar_1 + params.nbar_2) / 2.0
    return pref * fringe(x, params.phi, 1.0 if outcome.m == 1 else -1.0)


def amplitude_prefactor(params: ProtocolParams, outcome: ClickOutcome) -> complex:
    """N_mn of the measurement operator."""
    m, n = outcome.m, outcome.n
    if isinstance(params.input, SinglePhotonInput):
        if m + n != 1:
            raise ZeroOperator("single-photon input only produces {1,0} or {0,1}")
        return 0.5
    alpha = params.input.alpha
    return (
        math.exp(-abs(alpha) ** 2 / 2.0)
        * (alpha / 2.0) ** (m + n)
        / math.sqrt(math.factorial(m) * math.factorial(n))
    )


# E-polynomials of the arms, sum_ab p[a, b] E1^a x E2^b with E = D - I per mode: I + E1 and I + E2
# in parallel, (I + E1)(I + E2) and I in series
ARM_POLYNOMIALS = {PARALLEL: (np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[1.0, 1.0], [0.0, 0.0]])),
                   SERIES: (np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([[1.0, 0.0], [0.0, 0.0]]))}


def polynomial_step(f: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The coefficients of (sum_ab step[a, b] E1^a x E2^b)(sum_ab f[a, b] E1^a x E2^b) on the
    shape of f; powers beyond it are dropped. Leading axes of f are a stack: each f[i] gets
    the same adds in the same order as alone."""
    g = np.zeros(f.shape, dtype=complex)
    for (a, b), coef in np.ndenumerate(step):
        if coef:
            g[..., a:, b:] += coef * f[..., : f.shape[-2] - a, : f.shape[-1] - b]
    return g


def click_inputs(params: ProtocolParams, config: FockConfig) -> tuple[TwoModeState, tuple[np.ndarray, np.ndarray]]:
    """What every click operator of the protocol acts with: the thermal input (fock.thermal_state)
    whose click columns carry E = D - I with D = e^{i mu X} on each mode (one eigendecomposition
    per cutoff; with f = [[1]] the columns are still the thermal state), and the E-polynomials of
    the click steps arm_1 + c arm_2 and arm_1 - c arm_2, c = e^{i phi}. A step is
    (1 + c) I + E1 x 1 + c 1 x E2 in parallel, (1 + c) I + E1 x 1 + 1 x E2 + E1 x E2 in series.
    heralded_state and the loss oracle (detector._loss_table) both start here."""
    thermal = fock.thermal_state(params.nbar_1, params.nbar_2, config)
    beta = 1j * params.mu / math.sqrt(2.0)
    e = {c: fock.displacement_minus_identity(beta, c) for c in {config.cutoff_1, config.cutoff_2}}
    arm_1, arm_2 = ARM_POLYNOMIALS[params.configuration]
    phase = np.exp(1j * params.phi)
    return (replace(thermal, e1=e[config.cutoff_1], e2=e[config.cutoff_2]),
            (arm_1 + phase * arm_2, arm_1 - phase * arm_2))


def _click_polynomial(steps: tuple[np.ndarray, np.ndarray], outcome: ClickOutcome) -> np.ndarray:
    """f with Y_mn = pref sum_ab f[a, b] E1^a x E2^b: the product of m plus steps and n minus
    steps (click_inputs)."""
    plus, minus = steps
    f = np.zeros((outcome.m + outcome.n + 1,) * 2, dtype=complex)
    f[0, 0] = 1.0
    for step in (minus,) * outcome.n + (plus,) * outcome.m:
        f = polynomial_step(f, step)
    return f


def measurement_operator(
    params: ProtocolParams, outcome: ClickOutcome, config: FockConfig
) -> np.ndarray:
    """Dense dim x dim matrix of the click operator Y_mn = pref sum_ab f[a, b] E1^a x E2^b,
    summed over a with F_a = sum_b f[a, b] E2^b. Y does not depend on the occupations, so its
    E and steps are read at nbar = 0."""
    pref = amplitude_prefactor(params, outcome)  # raises ZeroOperator if needed
    ground, steps = click_inputs(replace(params, nbar_1=0.0, nbar_2=0.0), config)
    f = _click_polynomial(steps, outcome)
    blocks_2 = np.tensordot(f, fock.powers(ground.e2, len(f)), 1)
    y = np.einsum("aik,ajl->ijkl", fock.powers(ground.e1, len(f)), blocks_2)
    return pref * y.reshape(config.dim, config.dim)


def heralded_state(params: ProtocolParams, config: FockConfig | None = None,
                   outcome: ClickOutcome = ClickOutcome(1, 0)) -> tuple[TwoModeState, float]:
    """State Y rho Y^dag / p and probability p of a click on the thermal input (default
    cutoffs when config is None): the thermal click columns with this protocol's E = D - I per
    mode (click_inputs) and the f of Y = pref sum_ab f[a, b] E1^a x E2^b in place of their
    f = [[1]] (fock.apply_operator, which folds the normalisation into s).

    p = |pref|^2 times the trace of the unnormalised columns. Written in E, no O(1) terms
    cancel at the dark fringe."""
    if config is None:
        config = fock.default_config(params.nbar_1, params.nbar_2, params.mu)
    pref = amplitude_prefactor(params, outcome)  # raises ZeroOperator if needed
    thermal, steps = click_inputs(params, config)
    state, trace = fock.apply_operator(_click_polynomial(steps, outcome), thermal)
    p = abs(pref) ** 2 * trace
    if p < 1e-15:
        raise HeraldImpossible(f"click probability {p:.3g} for outcome {outcome}")
    return state.validate(), p


# ---------------------------------------------------------------------------
# closed-form moment path
#
# The heralded (unnormalized) state is sum_t g_t e^{i x_t . X} rho_th h.c.
# with real coefficients x_t over X = (X1, X2). Sandwich expectations
# <e^{-i x_j . X} X1^p P1^q X2^r P2^s e^{i x_k . X}> on a thermal state come
# from a generating function exp(const + beta.y + y^T H y / 2). Both the
# thermal covariance and the [X, P] coupling act within one mode, so H has
# no cross-mode entry and every moment is a mode-1 factor times a mode-2
# factor, each from the one-mode Gaussian moment recursion. Mode m has
# sigma_m = nbar_m + 1/2, dx_m = x_km - x_jm, mean beta = (-sigma_m dx_m,
# (i/2)(x_jm + x_km)) and const = -sum_m sigma_m dx_m^2 / 2.


def _mode_table(beta_x: np.ndarray, beta_p: np.ndarray, sigma: np.ndarray, order_max: int) -> np.ndarray:
    """(-i)^(a+b) R(a, b) over mode_keys(order_max), stacked on a new leading axis.

    R is the one-mode moment recursion with mean (beta_x, beta_p), diagonal
    covariance -sigma and [X, P] coupling -i/2, from X^0 P^0 = 1:
    R(a, b) = beta_x R(a-1, b) - sigma (a-1) R(a-2, b) - (i/2) b R(a-1, b-1) for a > 0,
    R(0, b) = beta_p R(0, b-1) - sigma (b-1) R(0, b-2).
    """
    r = {(0, 0): np.ones_like(beta_x)}
    for a, b in mode_keys(order_max)[1:]:
        if a:
            v = beta_x * r[a - 1, b]
            if a > 1:
                v = v - sigma * (a - 1) * r[a - 2, b]
            if b:
                v = v - 0.5j * b * r[a - 1, b - 1]
        else:
            v = beta_p * r[0, b - 1]
            if b > 1:
                v = v - sigma * (b - 1) * r[0, b - 2]
        r[a, b] = v
    # the phase is exact: multiplying by +-1 or +-i only swaps and negates parts
    return np.stack([(-1j) ** (a + b) * r[a, b] for a, b in mode_keys(order_max)])


def heralded_moments(mu, phi, nbar_1, nbar_2, order_max: int, outcome: ClickOutcome = ClickOutcome(1, 0),
                     configuration: str = PARALLEL) -> np.ndarray:
    """Exact moments over keys_up_to_order(order_max) of the heralded state at every
    point of the broadcast (mu, phi, nbar_1, nbar_2) arrays, shape (*batch, keys)."""
    if outcome.m + outcome.n != 1:
        raise ValueError("closed-form moments implemented for {1,0}/{0,1} only")
    mu, phi, n1, n2 = np.broadcast_arrays(*(np.asarray(a, float) for a in (mu, phi, nbar_1, nbar_2)))
    finite = np.isfinite((mu, phi, n1, n2)).all()
    if not (finite and (mu >= 0).all() and (np.minimum(n1, n2) >= 0).all()):
        raise ValueError("mu, phi and nbar must be finite, mu and nbar >= 0")
    sigma = np.stack([n1, n2]) + 0.5
    # (gamma_t, x_t) terms of the measurement operator, x_t of shape (2, *batch)
    phase = (1.0 if outcome.m == 1 else -1.0) * np.exp(1j * phi)
    z = np.zeros_like(mu)
    if configuration == PARALLEL:
        terms = [(1.0 + 0.0j, np.stack([mu, z])), (phase, np.stack([z, mu]))]
    else:
        terms = [(1.0 + 0.0j, np.stack([mu, mu])), (phase, np.stack([z, z]))]
    # the four (j, k) sandwich terms on a leading axis
    w = np.stack(np.broadcast_arrays(*(np.conj(g_j) * g_k for g_j, _ in terms for g_k, _ in terms)))
    x_j = np.stack([x for _, x in terms for _ in terms])
    x_k = np.stack([x for _ in terms for _, x in terms])
    dx = x_k - x_j
    # the complex exp, w * (scale * product) and the sequential sum over sandwich
    # terms keep order 2 bit-identical to the whole-word recursion in the tests
    scale = np.exp(-0.5 * np.sum(dx * sigma * dx, axis=1) + 0j)
    beta_x, beta_p = -sigma * dx, 0.5j * (x_j + x_k)
    norm = sum(w * scale)
    if np.any(np.abs(norm) < 1e-15):
        raise HeraldImpossible("heralded-state normalization vanishes")
    i1, i2 = _grid_index(order_max)
    tables = _mode_table(beta_x, beta_p, sigma, order_max)  # (mode keys, sandwich, mode, *batch)
    parts = w * (scale * (tables[i1, :, 0] * tables[i2, :, 1]))  # (keys, sandwich, *batch)
    return np.moveaxis(sum(np.moveaxis(parts, 1, 0)) / norm, 0, -1)


def heralded_moment_table(params: ProtocolParams, order_max: int,
                          outcome: ClickOutcome = ClickOutcome(1, 0)) -> MomentTable:
    """Exact canonical moments of the heralded state, valid for any nbar.

    Independent of the input-light choice: the measurement operator shape
    cancels in the normalized state.
    """
    p = params
    values = heralded_moments(p.mu, p.phi, p.nbar_1, p.nbar_2, order_max, outcome, p.configuration)
    return MomentTable(values, order_max)

