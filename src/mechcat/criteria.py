"""Moment-determinant inseparability criteria and the non-Gaussianity measure.

D5 and S3 are determinants of partial-transpose moment matrices; a negative
value certifies entanglement. The matrices are generated from row labels by
the partial-transpose composition rule (mode-1 letters of the daggered row
label multiply from the left, mode-2 letters from the right).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import fock
from .algebra import MomentTable, moments_from_state
from .errors import DegenerateHerald, NonPhysicalCovariance
from .fock import TwoModeState
from .herald import ProtocolParams, heralded_moment_table
from .opensystem import EnvParams, MeasurementSchedule, evolve_moments

LadderWord = tuple[str, ...]
Label = tuple[LadderWord, LadderWord]  # (mode-1 letters, mode-2 letters)

_DAG = {"b1": "b1d", "b1d": "b1", "b2": "b2d", "b2d": "b2"}

# Row/column labels of the partial-transpose moment matrix; the sixth label
# extends the basis far enough to carve out S3 as a principal submatrix.
PT_BASIS: list[Label] = [
    ((), ()),
    (("b1",), ()),
    (("b1d",), ()),
    ((), ("b2d",)),
    ((), ("b2",)),
    (("b1",), ("b2d",)),
]

D5_INDICES = (0, 1, 2, 3, 4)
S3_INDICES = (0, 3, 5)


def _dagger(word: LadderWord) -> LadderWord:
    return tuple(_DAG[c] for c in reversed(word))


def matrix_word(row: Label, col: Label) -> LadderWord:
    """Ladder word of one matrix entry: g_i^(1) f_j^(1) | f_j^(2) g_i^(2)."""
    g1, g2 = _dagger(row[0]), _dagger(row[1])
    return g1 + col[0] + col[1] + g2


def criterion_words(indices: tuple[int, ...]) -> list[list[LadderWord]]:
    labels = [PT_BASIS[i] for i in indices]
    return [[matrix_word(r, c) for c in labels] for r in labels]


@dataclass
class CriterionResult:
    name: str
    value: float
    matrix: np.ndarray
    tolerance: float = 1e-10

    @property
    def entangled(self) -> bool:
        return self.value < -self.tolerance

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "value": self.value,
                "entangled": self.entangled,
                "tolerance": self.tolerance,
                "matrix_re": np.real(self.matrix).tolist(),
                "matrix_im": np.imag(self.matrix).tolist(),
                "convention": {"hbar": 1, "var_vacuum": 0.5},
            },
            indent=1,
        )


def _build_criterion(table: MomentTable, name: str, indices: tuple[int, ...]) -> CriterionResult:
    """Noisy recovered tables are Hermitized before the determinant (the
    matrix is Hermitian for any physical moment set, so averaging the
    conjugate pairs is the natural estimator and keeps the determinant
    exactly real)."""
    words = criterion_words(indices)
    n = len(words)
    mat = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            mat[i, j] = table.ladder_value(words[i][j])
    if table.provenance == "exact" and not table.evolved:
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > 1e-9 * (1.0 + np.max(np.abs(mat))):
            raise ValueError(f"{name} matrix not Hermitian: defect {herm:.3g}")
    if table.provenance == "recovered":
        mat = 0.5 * (mat + mat.conj().T)
    det = complex(np.linalg.det(mat))
    if abs(det.imag) > 1e-9 * (1.0 + abs(det)):
        raise ValueError(f"{name} determinant has imaginary part {det.imag:.3g}")
    return CriterionResult(name, float(det.real), mat)


def build_d5(table: MomentTable) -> CriterionResult:
    """5x5 partial-transpose determinant (Simon's criterion reformulated)."""
    return _build_criterion(table, "D5", D5_INDICES)


def build_s3(table: MomentTable) -> CriterionResult:
    """3x3 subdeterminant sensitive to non-Gaussian entanglement."""
    return _build_criterion(table, "S3", S3_INDICES)


# 2 cos^2(phi/2) at the double nearest pi: the resolution of the dark fringe
_DARK_FRINGE_FLOOR = 2.0 * math.cos(math.pi / 2.0) ** 2


def s3_ground_closed_form(mu: float, phi: float) -> float:
    """Closed-system S3 of the ground-state cat: -mu^6 e^{-mu^2} / [64 (1 + e^{-mu^2/2} cos phi)^3],
    with the denominator free of cancellation at the dark fringe."""
    den = 2.0 * math.cos(phi / 2.0) ** 2 + math.cos(phi) * math.expm1(-mu * mu / 2.0)
    if den <= _DARK_FRINGE_FLOOR:
        raise DegenerateHerald("heralding probability vanishes at this (mu, phi)")
    return -(mu**6) * math.exp(-mu * mu) / (64.0 * den**3)


# ---------------------------------------------------------------------------
# non-Gaussianity


def _bosonic_entropy(nu: float) -> float:
    """g(nu) for symplectic eigenvalue nu with vacuum at 1/2."""
    if nu <= 0.5:
        return 0.0
    return (nu + 0.5) * math.log(nu + 0.5) - (nu - 0.5) * math.log(nu - 0.5)


def covariance_matrix(table: MomentTable) -> tuple[np.ndarray, np.ndarray]:
    """First moments and symmetrized covariance over (X1, P1, X2, P2)."""
    letters = ["X1", "P1", "X2", "P2"]
    mean = np.array([table.word_value((c,)) for c in letters])
    cov = np.empty((4, 4), dtype=float)
    for i in range(4):
        for j in range(4):
            sym = 0.5 * (
                table.word_value((letters[i], letters[j]))
                + table.word_value((letters[j], letters[i]))
            )
            cov[i, j] = float(np.real(sym - mean[i] * mean[j]))
    return np.real(mean), cov


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    omega = np.zeros((4, 4))
    omega[0, 1] = omega[2, 3] = 1.0
    omega[1, 0] = omega[3, 2] = -1.0
    eig = np.linalg.eigvals(1j * omega @ cov)
    nus = np.sort(np.abs(eig))[::2]  # pairs (+nu, -nu)
    if np.any(nus < 0.5 - 1e-9):
        raise NonPhysicalCovariance(f"symplectic eigenvalue below 1/2: {nus}")
    return nus


def gaussian_reference_entropy(table: MomentTable) -> float:
    _, cov = covariance_matrix(table)
    return float(sum(_bosonic_entropy(nu) for nu in symplectic_eigenvalues(cov)))


def non_gaussianity(state: TwoModeState) -> float:
    """delta = S(rho_G) - S(rho), the relative-entropy non-Gaussianity."""
    table = moments_from_state(state, 2)
    delta = gaussian_reference_entropy(table) - fock.von_neumann_entropy(state)
    if delta < -1e-6:
        raise RuntimeError(f"non-Gaussianity came out negative: {delta:.3g}")
    return max(delta, 0.0)


# ---------------------------------------------------------------------------
# cooling requirements


def s3_evolved(
    mu: float,
    nbar: float,
    env: EnvParams,
    phi: float = math.pi,
    schedule: MeasurementSchedule | None = None,
) -> float:
    """S3 of the heralded state after the open-system verification delays."""
    params = ProtocolParams(mu=mu, phi=phi, nbar_1=nbar, nbar_2=nbar)
    table = heralded_moment_table(params, order_max=4)
    return build_s3(evolve_moments(table, env, schedule)).value


def d5_evolved(
    mu: float,
    nbar: float,
    env: EnvParams,
    phi: float = math.pi,
    schedule: MeasurementSchedule | None = None,
) -> float:
    params = ProtocolParams(mu=mu, phi=phi, nbar_1=nbar, nbar_2=nbar)
    table = heralded_moment_table(params, order_max=2)
    return build_d5(evolve_moments(table, env, schedule)).value


@dataclass(frozen=True)
class CoolingResult:
    nbar_max: float
    verification_possible: bool


def max_cooled_occupation(mu: float, env: EnvParams, phi: float = math.pi) -> CoolingResult:
    """Largest initial occupation with S3 < 0, or the NoVerification flag."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    f0 = s3_evolved(mu, 0.0, env, phi)
    if f0 >= 0.0:
        return CoolingResult(0.0, False)
    lo, hi = 0.0, 0.5
    while s3_evolved(mu, hi, env, phi) < 0.0:
        lo, hi = hi, hi * 2.0
        if hi > 1e9:
            raise RuntimeError("S3 stayed negative up to nbar = 1e9")
    root = brentq(lambda n: s3_evolved(mu, n, env, phi), lo, hi, xtol=1e-10, rtol=1e-10)
    return CoolingResult(float(root), True)


def mu_cutoff(env: EnvParams, phi: float = math.pi, mu_lo: float = 0.5, mu_hi: float = 8.0) -> float:
    """Coupling above which S3 cannot verify entanglement even at nbar = 0."""
    if s3_evolved(mu_lo, 0.0, env, phi) >= 0.0:
        raise RuntimeError("S3 already non-negative at mu_lo")
    lo = mu_lo
    step = 0.25
    mu = mu_lo + step
    while mu <= mu_hi:
        if s3_evolved(mu, 0.0, env, phi) >= 0.0:
            return float(brentq(lambda m: s3_evolved(m, 0.0, env, phi), lo, mu,
                                xtol=1e-8, rtol=1e-10))
        lo = mu
        mu += step
    raise RuntimeError(f"no S3 sign change found below mu = {mu_hi}")
