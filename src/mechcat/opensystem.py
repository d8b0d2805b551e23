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

import numpy as np

from .algebra import MomentTable, apply_mode_map, mode_keys, mode_product
from .errors import OrderOverflow

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


@dataclass(frozen=True)
class NoiseMoments:
    var_dx: float
    var_dp: float
    cov_dxdp: float


def _exp_trig_integrals(gamma: float, omega: float, t: float):
    """(I1, Ic2, Is2) = int_0^t e^{-g s} {1, cos 2ws, sin 2ws} ds."""
    if gamma == 0.0:
        return t, math.sin(2 * omega * t) / (2 * omega), (1 - math.cos(2 * omega * t)) / (2 * omega)
    den = gamma * gamma + 4.0 * omega * omega
    e = math.exp(-gamma * t)
    i1 = (1.0 - e) / gamma
    ic2 = (gamma - e * (gamma * math.cos(2 * omega * t) - 2 * omega * math.sin(2 * omega * t))) / den
    is2 = (2 * omega - e * (gamma * math.sin(2 * omega * t) + 2 * omega * math.cos(2 * omega * t))) / den
    return i1, ic2, is2


def noise_covariances(env: EnvParams, t: float, damped: bool = True) -> NoiseMoments:
    """Second moments of the Brownian terms DX(t), DP(t) in closed form.

    With damped=True the e^{-gamma t} prefactor of the quadrature solution is
    included (this is what enters measured moments); damped=False returns the
    bare integrals.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    g, w, eps = env.gamma, env.omega_m, env.epsilon
    if g == 0.0 or t == 0.0:
        return NoiseMoments(0.0, 0.0, 0.0)
    s = env.force_strength
    i1, ic2, is2 = _exp_trig_integrals(g, w, t)
    var_dx = 2.0 * g * s * 0.5 * (i1 - ic2)
    var_dp = 2.0 * g * s * (0.5 * (i1 + ic2) - eps * is2 + eps * eps * 0.5 * (i1 - ic2))
    cov = 2.0 * g * s * (0.5 * is2 - eps * 0.5 * (i1 - ic2))
    if not damped:
        scale = math.exp(g * t)
        return NoiseMoments(var_dx * scale, var_dp * scale, cov * scale)
    return NoiseMoments(var_dx, var_dp, cov)


def noise_covariances_quad(env: EnvParams, t: float, damped: bool = True) -> NoiseMoments:
    """Adaptive-quadrature oracle for the same integrals."""
    from scipy.integrate import quad

    g, w, eps = env.gamma, env.omega_m, env.epsilon
    if g == 0.0 or t == 0.0:
        return NoiseMoments(0.0, 0.0, 0.0)
    s = env.force_strength
    pref = math.exp(-g * t) if damped else 1.0

    def fx(tp):
        return math.exp(g * tp) * math.sin(w * (t - tp)) ** 2

    def fp(tp):
        c = math.cos(w * (t - tp)) - eps * math.sin(w * (t - tp))
        return math.exp(g * tp) * c * c

    def fxp(tp):
        return (
            math.exp(g * tp)
            * math.sin(w * (t - tp))
            * (math.cos(w * (t - tp)) - eps * math.sin(w * (t - tp)))
        )

    period = 2 * math.pi / w
    pts = min(int(t / period) * 4 + 50, 1000)
    kw = dict(limit=max(200, pts), epsabs=1e-13, epsrel=1e-11)
    vx = quad(fx, 0.0, t, **kw)[0]
    vp = quad(fp, 0.0, t, **kw)[0]
    cxp = quad(fxp, 0.0, t, **kw)[0]
    return NoiseMoments(2 * g * s * vx * pref, 2 * g * s * vp * pref, 2 * g * s * cxp * pref)


def noise_cross_cov(env: EnvParams, t1: float, t2: float) -> float:
    """<DX(t1) DX(t2)> including both decay prefactors (t1, t2 >= 0)."""
    g, w = env.gamma, env.omega_m
    if g == 0.0 or min(t1, t2) == 0.0:
        return 0.0
    s = env.force_strength
    tm = min(t1, t2)
    tt = t1 + t2
    # sin(w(t1-t'))sin(w(t2-t')) = [cos(w(t1-t2)) - cos(w tt - 2w t')]/2
    first = math.cos(w * (t1 - t2)) * (math.exp(g * tm) - 1.0) / g

    def anti(tp):
        arg = w * tt - 2.0 * w * tp
        return math.exp(g * tp) * (g * math.cos(arg) - 2.0 * w * math.sin(arg)) / (
            g * g + 4.0 * w * w
        )

    second = anti(tm) - anti(0.0)
    return math.exp(-g * tt / 2.0) * g * s * (first - second)


@dataclass(frozen=True)
class MeasurementSchedule:
    """Read-out times: X letters at t_x, P letters at t_p."""

    t_x: float = 0.0
    t_p: float = 0.0

    @classmethod
    def standard(cls, env: EnvParams) -> "MeasurementSchedule":
        return cls(t_x=0.0, t_p=quarter_period(env))


def _letter_substitution(env: EnvParams, t: float):
    """Coefficients (c_x on X0, c_p on P0, has_noise) of the measured X(t)."""
    g, w, eps = env.gamma, env.omega_m, env.epsilon
    decay = math.exp(-g * t / 2.0)
    c_x = decay * (math.cos(w * t) + eps * math.sin(w * t))
    c_p = decay * math.sin(w * t)
    return c_x, c_p, (g > 0.0 and t > 0.0)


def evolution_map(env: EnvParams, schedule: MeasurementSchedule, order_max: int) -> np.ndarray:
    """Single-mode map of the measured moments over mode_keys(order_max).

    Row (p, q) holds E[(A + N_x)^p (B + N_p)^q] over the canonical words
    X^a P^b, with A = a_x X + b_x P and B = a_p X + b_p P. The noise letters
    commute with everything, so the row is the binomial sum of the Gaussian
    moments E[N_x^i N_p^j] times the expansions of A^(p-i) B^(q-j).
    """
    t_x, t_p = schedule.t_x, schedule.t_p
    ax, bx, noisy_x = _letter_substitution(env, t_x)
    ap, bp, noisy_p = _letter_substitution(env, t_p)
    # the decay prefactor is folded into the damped noise covariances
    vx = noise_covariances(env, t_x).var_dx if noisy_x else 0.0
    vp = noise_covariances(env, t_p).var_dx if noisy_p else 0.0
    cxp = (vx if t_x == t_p else noise_cross_cov(env, t_x, t_p)) if noisy_x and noisy_p else 0.0
    n = order_max + 1
    gauss = np.zeros((n, n))  # Isserlis recursion on the first noise letter
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
    words = {}
    a_power = np.zeros((n, n), dtype=complex)
    a_power[0, 0] = 1.0
    for p in range(n):
        if p:
            a_power = mode_product(a_power, ax, bx)
        poly = a_power
        for q in range(n - p):
            if q:
                poly = mode_product(poly, ap, bp)
            words[(p, q)] = poly[a_idx, b_idx]
    return np.array([
        sum(
            math.comb(p, i) * math.comb(q, j) * gauss[i, j] * words[(p - i, q - j)]
            for i in range(p + 1)
            for j in range(q + 1)
        )
        for p, q in mkeys
    ])


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
        apply_mode_map(evolution_map(env, schedule, order), table.values, order),
        order,
        provenance=table.provenance,
        n_samples=table.n_samples,
        evolved=True,
    )
