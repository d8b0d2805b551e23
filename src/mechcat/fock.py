"""Truncated two-mode Fock space: states, elementary operators, expectations.

Conventions: hbar = 1, X = (b + b^dag)/sqrt(2), P = -i(b - b^dag)/sqrt(2),
so the vacuum quadrature variance is 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmall, DimensionMismatch

TRACE_TOL = 1e-10
HERM_TOL = 1e-10
PSD_TOL = 1e-8
ENTROPY_EIG_FLOOR = 1e-14
THERMAL_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class FockConfig:
    """Truncation of the two-mode Fock space: levels |0>..|cutoff-1> per mode."""

    cutoff_1: int
    cutoff_2: int

    def __post_init__(self):
        if self.cutoff_1 < 2 or self.cutoff_2 < 2:
            raise ValueError("cutoffs must be >= 2")

    @property
    def dim(self) -> int:
        return self.cutoff_1 * self.cutoff_2

    def cutoff(self, mode: int) -> int:
        return self.cutoff_1 if mode == 1 else self.cutoff_2

    def doubled(self) -> "FockConfig":
        return FockConfig(2 * self.cutoff_1, 2 * self.cutoff_2)


def default_cutoff(nbar: float, mu: float) -> int:
    """Per-mode cutoff: 8x margin over the excitation scale, and two levels
    above the cutoff whose thermal tail mass meets THERMAL_TAIL_TOL."""
    cutoff = max(20, math.ceil(8.0 * (nbar + mu * mu + 1.0)))
    if nbar > 0:
        ratio = nbar / (nbar + 1.0)
        cutoff = max(cutoff, math.ceil(math.log(THERMAL_TAIL_TOL) / math.log(ratio)) + 2)
    return cutoff


def default_config(nbar_1: float, nbar_2: float, mu: float) -> FockConfig:
    return FockConfig(default_cutoff(nbar_1, mu), default_cutoff(nbar_2, mu))


# ---------------------------------------------------------------------------
# single-mode building blocks


def destroy(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1).astype(complex)


def create(cutoff: int) -> np.ndarray:
    return destroy(cutoff).conj().T


def number(cutoff: int) -> np.ndarray:
    return np.diag(np.arange(cutoff, dtype=float)).astype(complex)


def x_single(cutoff: int) -> np.ndarray:
    a = destroy(cutoff)
    return (a + a.conj().T) / math.sqrt(2.0)


def p_single(cutoff: int) -> np.ndarray:
    a = destroy(cutoff)
    return -1j * (a - a.conj().T) / math.sqrt(2.0)


def displacement_single(beta: complex, cutoff: int) -> np.ndarray:
    """exp(beta a^dag - beta* a) via eigendecomposition of the Hermitian generator."""
    a = destroy(cutoff)
    h = 1j * (beta * a.conj().T - np.conj(beta) * a)  # Hermitian
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def coherent_vector(beta: complex, cutoff: int) -> np.ndarray:
    """Coherent-state amplitudes e^{-|b|^2/2} b^n / sqrt(n!), truncated."""
    amps = np.zeros(cutoff, dtype=complex)
    amps[0] = 1.0
    for k in range(1, cutoff):
        amps[k] = amps[k - 1] * beta / math.sqrt(k)
    return amps * math.exp(-abs(beta) ** 2 / 2.0)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeOperator:
    """Dense operator on the truncated two-mode space."""

    config: FockConfig
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.matrix.shape != (self.config.dim, self.config.dim):
            raise DimensionMismatch(
                f"operator {self.label!r}: shape {self.matrix.shape} vs dim {self.config.dim}"
            )

    def dag(self) -> "ModeOperator":
        return ModeOperator(self.config, self.matrix.conj().T, self.label + "^dag")

    def __matmul__(self, other: "ModeOperator") -> "ModeOperator":
        if self.config != other.config:
            raise DimensionMismatch("operator configs differ")
        return ModeOperator(self.config, self.matrix @ other.matrix, f"{self.label}*{other.label}")


def embed(single: np.ndarray, mode: int, config: FockConfig, label: str = "") -> ModeOperator:
    """Lift a single-mode matrix to the two-mode space (identity on the other mode)."""
    if mode == 1:
        if single.shape[0] != config.cutoff_1:
            raise DimensionMismatch("single-mode matrix does not match cutoff_1")
        full = np.kron(single, np.eye(config.cutoff_2))
    elif mode == 2:
        if single.shape[0] != config.cutoff_2:
            raise DimensionMismatch("single-mode matrix does not match cutoff_2")
        full = np.kron(np.eye(config.cutoff_1), single)
    else:
        raise ValueError("mode must be 1 or 2")
    return ModeOperator(config, full.astype(complex), label)


def x_operator(mode: int, config: FockConfig) -> ModeOperator:
    return embed(x_single(config.cutoff(mode)), mode, config, f"X{mode}")


def p_operator(mode: int, config: FockConfig) -> ModeOperator:
    return embed(p_single(config.cutoff(mode)), mode, config, f"P{mode}")


def ladder_operator(mode: int, config: FockConfig, dagger: bool = False) -> ModeOperator:
    m = create(config.cutoff(mode)) if dagger else destroy(config.cutoff(mode))
    return embed(m, mode, config, f"b{mode}" + ("^dag" if dagger else ""))


def displacement(mode: int, beta: complex, config: FockConfig) -> ModeOperator:
    """Displacement D(beta) on one mode; e^{i mu X} is D(i mu / sqrt 2)."""
    cutoff = config.cutoff(mode)
    if abs(beta) ** 2 > cutoff / 2.0:
        raise CutoffTooSmall(
            f"|beta|^2 = {abs(beta) ** 2:.3g} too large for cutoff {cutoff}"
        )
    d = displacement_single(beta, cutoff)
    defect = np.max(np.abs(d.conj().T @ d - np.eye(cutoff)))
    if defect > 1e-6:
        raise CutoffTooSmall(f"displacement unitarity defect {defect:.3g}")
    return embed(d, mode, config, f"D{mode}({beta:.4g})")


def rotation(mode: int, theta: float, config: FockConfig) -> ModeOperator:
    """Phase-space rotation exp(-i theta b^dag b) on one mode."""
    cutoff = config.cutoff(mode)
    d = np.diag(np.exp(-1j * theta * np.arange(cutoff)))
    return embed(d, mode, config, f"R{mode}({theta:.4g})")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoModeState:
    """Dense density operator on the truncated two-mode space.

    Known-pure states may carry their state vector in `vector`; `rho` is
    always present and is the source of truth.
    """

    config: FockConfig
    rho: np.ndarray
    vector: np.ndarray | None = None

    def validate(self, psd_tol: float = PSD_TOL) -> "TwoModeState":
        tr = np.trace(self.rho)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace(rho) = {tr:.12g}, not 1")
        if np.max(np.abs(self.rho - self.rho.conj().T)) > HERM_TOL:
            raise ValueError("rho is not Hermitian")
        min_eig = float(np.linalg.eigvalsh(self.rho)[0])
        if min_eig < -psd_tol:
            raise ValueError(f"rho has negative eigenvalue {min_eig:.3g}")
        return self

    def rho4(self) -> np.ndarray:
        """rho reshaped to (c1, c2, c1, c2) for per-mode contractions."""
        c1, c2 = self.config.cutoff_1, self.config.cutoff_2
        return self.rho.reshape(c1, c2, c1, c2)


def state_from_vector(psi: np.ndarray, config: FockConfig, check: bool = True) -> TwoModeState:
    psi = psi.astype(complex)
    norm = np.linalg.norm(psi)
    if check and abs(norm - 1.0) > 1e-8:
        raise ValueError(f"state vector norm {norm:.12g}")
    psi = psi / norm
    return TwoModeState(config, np.outer(psi, psi.conj()), vector=psi)


def ground_state(config: FockConfig) -> TwoModeState:
    psi = np.zeros(config.dim, dtype=complex)
    psi[0] = 1.0
    return state_from_vector(psi, config)


def thermal_populations(nbar: float, cutoff: int) -> np.ndarray:
    """Geometric populations p_n = nbar^n / (nbar+1)^(n+1), tail-checked."""
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    if nbar == 0:
        p = np.zeros(cutoff)
        p[0] = 1.0
        return p
    ratio = nbar / (nbar + 1.0)
    tail = ratio**cutoff  # mass above the truncation
    if tail > THERMAL_TAIL_TOL:
        raise CutoffTooSmall(
            f"thermal tail mass {tail:.3g} at nbar={nbar}, cutoff={cutoff}"
        )
    p = (1.0 / (nbar + 1.0)) * ratio ** np.arange(cutoff)
    return p / p.sum()


def thermal_state(nbar_1: float, nbar_2: float, config: FockConfig) -> TwoModeState:
    """Product of single-mode thermal states, renormalized after truncation."""
    p1 = thermal_populations(nbar_1, config.cutoff_1)
    p2 = thermal_populations(nbar_2, config.cutoff_2)
    rho = np.diag(np.kron(p1, p2)).astype(complex)
    return TwoModeState(config, rho).validate()


def apply_operator(op: ModeOperator, state: TwoModeState) -> tuple[TwoModeState, float]:
    """Return (op rho op^dag / p, p) with p = tr(op rho op^dag)."""
    if op.config != state.config:
        raise DimensionMismatch("operator and state configs differ")
    if state.vector is not None:
        phi = op.matrix @ state.vector
        p = float(np.real(np.vdot(phi, phi)))
        if p <= 0.0:
            return state, 0.0
        return state_from_vector(phi / math.sqrt(p), state.config, check=False), p
    m = op.matrix @ state.rho @ op.matrix.conj().T
    p = float(np.real(np.trace(m)))
    if p <= 0.0:
        return state, 0.0
    return TwoModeState(state.config, m / p), p


def expectation(state: TwoModeState, op: ModeOperator) -> complex:
    """tr(rho * matrix)."""
    if op.config != state.config:
        raise DimensionMismatch("operator and state configs differ")
    if state.vector is not None:
        return complex(np.vdot(state.vector, op.matrix @ state.vector))
    return complex(np.trace(state.rho @ op.matrix))


def partial_trace(state: TwoModeState, keep_mode: int) -> np.ndarray:
    """Reduced density matrix of one mode."""
    r4 = state.rho4()
    if keep_mode == 1:
        return np.einsum("ikjk->ij", r4)
    if keep_mode == 2:
        return np.einsum("kikj->ij", r4)
    raise ValueError("keep_mode must be 1 or 2")


def entropy_of_matrix(rho: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > ENTROPY_EIG_FLOOR]
    return float(-np.sum(lam * np.log(lam)))


def von_neumann_entropy(state: TwoModeState) -> float:
    """-sum lambda ln lambda over eigenvalues above the truncation-noise floor."""
    if state.vector is not None:
        return 0.0
    return entropy_of_matrix(state.rho)


def entanglement_entropy(state: TwoModeState) -> float:
    """Entropy of the mode-1 reduced state (equals mode 2 for pure states)."""
    return entropy_of_matrix(partial_trace(state, 1))


def fidelity_to_pure(state: TwoModeState, psi: np.ndarray) -> float:
    """<psi| rho |psi> for a normalized reference vector."""
    psi = psi / np.linalg.norm(psi)
    return float(np.real(np.vdot(psi, state.rho @ psi)))
