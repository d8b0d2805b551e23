"""Dense dim x dim matrices on the truncated two-mode Fock space, for test oracles.

Index i * cutoff_2 + j holds |i, j>, the layout of TwoModeState.columns, so a
single-mode matrix M acts on mode 1 as M (x) 1 and on mode 2 as 1 (x) M.
"""

import numpy as np

from mechcat import fock


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
