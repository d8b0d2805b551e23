"""Dense dim x dim matrices on the truncated two-mode Fock space, for test oracles.

Index i * cutoff_2 + j holds |i, j>, the layout of TwoModeState.columns, so a
single-mode matrix M acts on mode 1 as M (x) 1 and on mode 2 as 1 (x) M.
"""

import numpy as np

from mechcat import fock, herald


def lift(single, mode, cfg):
    """The single-mode matrix `single` on mode 1 or 2 of cfg's two-mode space."""
    if mode == 1:
        return np.kron(single, np.eye(cfg.cutoff_2))
    return np.kron(np.eye(cfg.cutoff_1), single)


def letter_matrices(cfg):
    """X1, P1, b1, b1d, X2, P2, b2, b2d as dense matrices."""
    singles = {"X{}": fock.x_single, "P{}": fock.p_single, "b{}": fock.destroy,
               "b{}d": lambda c: fock.destroy(c).conj().T}
    return {name.format(mode): lift(make(cfg.cutoff(mode)), mode, cfg)
            for mode in (1, 2) for name, make in singles.items()}


def plain_arms(params, cfg):
    """The interferometer arms as maps on state factors (c1, c2, r), in D form:
    D1 x 1 and 1 x D2 in parallel, D1 x D2 and 1 in series, D = e^{i mu X}."""
    beta = 1j * params.mu / np.sqrt(2.0)
    d1 = fock.checked_displacement(beta, cfg.cutoff_1)
    d2 = fock.checked_displacement(beta, cfg.cutoff_2)
    if params.configuration == "parallel":
        return (lambda a: fock.on_mode(d1, 1, a)), (lambda a: fock.on_mode(d2, 2, a))
    return (lambda a: fock.on_mode(d1, 1, fock.on_mode(d2, 2, a))), (lambda a: a)


def plain_click_map(params, outcome, cfg):
    """pref (arm_1 + e^{i phi} arm_2)^m (arm_1 - e^{i phi} arm_2)^n as plain expressions."""
    arm_1, arm_2 = plain_arms(params, cfg)
    phase = np.exp(1j * params.phi)

    def apply(a):
        for sign in (-1.0,) * outcome.n + (1.0,) * outcome.m:
            a = arm_1(a) + sign * phase * arm_2(a)
        return herald.amplitude_prefactor(params, outcome) * a

    return apply


def plain_heralded_factor(params, outcome, cfg):
    """(A, p): the D-form click map on the dense thermal factor, normalised by np.vdot."""
    a = plain_click_map(params, outcome, cfg)(fock.thermal_state(params.nbar_1, params.nbar_2, cfg).factor)
    p = float(np.vdot(a, a).real)
    return a / np.sqrt(p), p
