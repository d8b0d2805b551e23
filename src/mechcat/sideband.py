"""Finite sideband-ratio corrections to the pulsed coupling strength."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CavityParams:
    """Optomechanical rates g0, kappa and omega_m in rad/s."""

    g0: float
    kappa: float
    omega_m: float

    def __post_init__(self):
        if not 0 < self.kappa < math.inf:
            raise ValueError("kappa must be finite and positive")
        if not 0 < self.omega_m < math.inf:
            raise ValueError("omega_m must be finite and positive")
        if not 0 <= self.g0 < math.inf:
            raise ValueError("g0 must be finite and >= 0")

    @property
    def sideband_ratio(self) -> float:
        return self.omega_m / self.kappa


def mu_nominal(cav: CavityParams) -> float:
    """mu = 2 sqrt(2) g0 / kappa in the adiabatic pulse limit."""
    return 2.0 * math.sqrt(2.0) * cav.g0 / cav.kappa


def mu_effective(cav: CavityParams, t: float) -> tuple[float, float]:
    """(mu', rotation angle) of the displacement after interaction time t.

    mu' = 2 g0 / omega_m * sqrt(1 - cos(omega_m t)); the displacement
    direction rotates by omega_m t in phase space. The rotation is reported
    for verification-timing adjustments but is not fed into the heralding
    stage by default.
    """
    if not 0 <= t < math.inf:
        raise ValueError("t must be finite and >= 0")
    theta = cav.omega_m * t
    if math.isinf(theta):  # omega_m t overflows: the rotation, and so mu', is undefined
        return math.nan, theta
    mu_p = 2.0 * cav.g0 / cav.omega_m * math.sqrt(max(1.0 - math.cos(theta), 0.0))
    return mu_p, theta


def percent_reduction(cav: CavityParams) -> float:
    """Second-order percentage reduction of mu, (omega_m / kappa)^2 / 6 * 100.

    Valid for the long adiabatic pulse (interaction time 2/kappa); inf where the square
    overflows.
    """
    try:
        return 100.0 * cav.sideband_ratio**2 / 6.0
    except OverflowError:
        return math.inf
