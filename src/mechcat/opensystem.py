"""Damped, rethermalizing evolution of mechanical moment tables.

Quadratures follow the high-Q Langevin solution
    X(t) = e^{-gt/2} [ (cos wt + eps sin wt) X0 + sin(wt) P0 + DX(t) ],
with eps = g / (2w) and DX(t) the accumulated Brownian noise, whose force
correlator is <xi(t) xi(t')> = (2 nbar_B + 1) delta(t - t').

The verification pulses always read out the position quadrature, so a
"P measurement" is the X solution evaluated at the damped quarter period
tau' where the X0 coefficient vanishes. Moment words evolve by substituting
this solution letter by letter: X letters at t_x (default 0), P letters at
t_p (default tau'); noise letters are Gaussian, independent of the initial
operators, and independent between the two modes. The substitution is
therefore one single-mode matrix applied to both modes of the moment vector.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import MomentTable, apply_mode_map, mode_keys, mode_product
from .errors import NonFiniteValue, OrderOverflow

Q_WARN = 10.0


@dataclass(frozen=True)
class EnvParams:
    """Mechanical frequency, quality factor, and bath occupation."""

    omega_m: float
    q_factor: float
    nbar_bath: float = 0.0

    def __post_init__(self):
        # q_factor = inf is the closed system
        if not (0 < self.omega_m < math.inf and self.q_factor > 0):
            raise ValueError("omega_m must be finite and positive, q_factor positive")
        if not 0 <= self.nbar_bath < math.inf:
            raise ValueError("nbar_bath must be finite and >= 0")
        if self.q_factor < Q_WARN:
            warnings.warn(
                f"Q = {self.q_factor:.3g} is below the high-Q validity regime",
                stacklevel=2,
            )

    @property
    def gamma(self) -> float:
        return 0.0 if math.isinf(self.q_factor) else self.omega_m / self.q_factor

    @property
    def epsilon(self) -> float:
        return 0.0 if math.isinf(self.q_factor) else 1.0 / (2.0 * self.q_factor)

    @property
    def force_strength(self) -> float:
        """Coefficient of the delta correlator, 2 nbar_B + 1."""
        return 2.0 * self.nbar_bath + 1.0


def quarter_period(env: EnvParams) -> float:
    """Delay tau' mapping X onto P under damping; pi/(2w) as gamma -> 0."""
    eps = env.epsilon
    if eps >= 1.0:
        raise ValueError("quarter period undefined for epsilon >= 1")
    if eps == 0.0:
        return math.pi / (2.0 * env.omega_m)
    return (math.atan(-1.0 / eps) + math.pi) / env.omega_m


def _noise_cov(env: EnvParams, t1: float, t2: float) -> float:
    """<DX(t1) DX(t2)> with both decay prefactors, from decaying exponentials only.

    With u = t_m - t', t_m = min(t1, t2), d = |t1 - t2| and z = -g + 2iw the
    integral 2 g s e^{-g(t1+t2)/2} int_0^t_m e^{g t'} sin w(t1-t') sin w(t2-t') dt'
    is e^{-gd/2} g s [cos(wd) (1 - e^{-g t_m})/g - Re(e^{iwd} (e^{z t_m} - 1)/z)];
    expm1 keeps full precision on high-Q platforms.
    """
    g, w = env.gamma, env.omega_m
    tm, d = min(t1, t2), abs(t1 - t2)
    if g == 0.0 or tm == 0.0:
        return 0.0
    z = complex(-g, 2.0 * w)
    osc = (complex(math.cos(w * d), math.sin(w * d)) * complex(np.expm1(z * tm)) / z).real
    flat = -math.expm1(-g * tm) / g  # int_0^t_m e^{-g u} du
    return math.exp(-g * d / 2.0) * g * env.force_strength * (math.cos(w * d) * flat - osc)


def noise_covariances(env: EnvParams, t_x: float, t_p: float) -> tuple[float, float, float]:
    """(<DX(t_x)^2>, <DX(t_p)^2>, <DX(t_x) DX(t_p)>) of the measured X noise.

    Each entry carries its e^{-g t/2} decay prefactors; all vanish at g = 0 or t = 0.
    """
    if min(t_x, t_p) < 0:
        raise ValueError("read-out times must be >= 0")
    return _noise_cov(env, t_x, t_x), _noise_cov(env, t_p, t_p), _noise_cov(env, t_x, t_p)


@dataclass(frozen=True)
class MeasurementSchedule:
    """Read-out times: X letters at t_x, P letters at t_p."""

    t_x: float = 0.0
    t_p: float = 0.0

    @classmethod
    def standard(cls, env: EnvParams) -> "MeasurementSchedule":
        return cls(t_x=0.0, t_p=quarter_period(env))


def _letter_substitution(env: EnvParams, t: float):
    """Coefficients (c_x on X0, c_p on P0) of the measured X(t)."""
    g, w, eps = env.gamma, env.omega_m, env.epsilon
    decay = math.exp(-g * t / 2.0)
    c_x = decay * (math.cos(w * t) + eps * math.sin(w * t))
    c_p = decay * math.sin(w * t)
    return c_x, c_p


def evolution_map(envs: list[EnvParams], order_max: int,
                  schedules: list[MeasurementSchedule] | None = None) -> np.ndarray:
    """Single-mode maps of the measured moments over mode_keys(order_max), one per
    environment (standard schedules by default), stacked as (len(envs), n, n).

    Row (p, q) holds E[(A + N_x)^p (B + N_p)^q] over the canonical words
    X^a P^b, with A = a_x X + b_x P and B = a_p X + b_p P. The noise letters
    commute with everything, so the row is the binomial sum of the Gaussian
    moments E[N_x^i N_p^j] times the expansions of A^(p-i) B^(q-j). Only the
    seven substitution and noise scalars are taken environment by environment;
    everything after them runs on a leading environment axis.
    """
    if schedules is None:
        schedules = [MeasurementSchedule.standard(e) for e in envs]
    ax, bx, ap, bp, vx, vp, cxp = np.array([
        (*_letter_substitution(e, s.t_x), *_letter_substitution(e, s.t_p),
         *noise_covariances(e, s.t_x, s.t_p))
        for e, s in zip(envs, schedules, strict=True)
    ]).T
    n = order_max + 1
    gauss = np.zeros((n, n, len(envs)))  # Isserlis recursion on the first noise letter
    gauss[0, 0] = 1.0
    for i in range(n):
        for j in range(n - i):
            if i >= 2:
                gauss[i, j] += (i - 1) * vx * gauss[i - 2, j]
            if i and j:
                gauss[i, j] += j * cxp * gauss[i - 1, j - 1]
            if not i and j >= 2:
                gauss[i, j] = (j - 1) * vp * gauss[i, j - 2]
    mkeys = mode_keys(order_max)
    a_idx, b_idx = np.array(mkeys).T
    ax, bx, ap, bp = (c[:, None, None] for c in (ax, bx, ap, bp))
    words = []  # A^p B^q over the canonical words, in mode_keys order by (p, q)
    a_power = np.zeros((len(envs), n, n), dtype=complex)
    a_power[:, 0, 0] = 1.0
    for p in range(n):
        if p:
            a_power = mode_product(a_power, ax, bx)
        poly = a_power
        for q in range(n - p):
            if q:
                poly = mode_product(poly, ap, bp)
            words.append(poly[:, a_idx, b_idx])
    words = np.stack(words, axis=1)
    # the binomial sums, one term position of every row at a time; padding adds zeros
    coef, g_at, w_at = _row_terms(order_max)
    gauss = gauss.reshape(n * n, len(envs)).T
    rows = 0
    for c, g, w in zip(coef.T, g_at.T, w_at.T):
        rows = rows + (c * gauss[:, g])[..., None] * words[:, w]
    finite = np.isfinite(rows).reshape(len(envs), -1).all(axis=1)
    if not finite.all():
        env = envs[int(np.argmin(finite))]
        raise NonFiniteValue(f"the order-{order_max} evolution map overflows at omega_m = {env.omega_m:g}, "
                             f"q_factor = {env.q_factor:g}, nbar_bath = {env.nbar_bath:g}")
    return rows


@lru_cache(maxsize=None)
def _row_terms(order_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terms C(p, i) C(q, j) E[N_x^i N_p^j] A^(p-i) B^(q-j) of every row (p, q) of the
    evolution map, in (i, j) order: coefficients, flat Isserlis-table indices and
    indices of the (p-i, q-j) words, zero-padded to the longest row."""
    n = order_max + 1
    word_at = {(p, q): k for k, (p, q) in enumerate((p, q) for p in range(n) for q in range(n - p))}
    rows = [[(math.comb(p, i) * math.comb(q, j), i * n + j, word_at[p - i, q - j])
             for i in range(p + 1) for j in range(q + 1)]
            for p, q in mode_keys(order_max)]
    width = max(map(len, rows))
    table = np.array([row + [(0, 0, 0)] * (width - len(row)) for row in rows])
    return table[..., 0].astype(float), table[..., 1], table[..., 2]


def evolve_moments(
    table: MomentTable, env: EnvParams, schedule: MeasurementSchedule | None = None
) -> MomentTable:
    """Moment table as measured after the open-system delays."""
    if schedule is None:
        schedule = MeasurementSchedule.standard(env)
    if table.order_max > 8:
        raise OrderOverflow("evolution supported up to order 8")
    order = table.order_max
    return MomentTable(
        apply_mode_map(evolution_map([env], order, [schedule])[0], table.values, order),
        order,
        provenance=table.provenance,
        n_samples=table.n_samples,
        evolved=True,
    )
