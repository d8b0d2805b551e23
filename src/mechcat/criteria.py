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
from functools import lru_cache

import numpy as np

from . import fock
from .algebra import (MomentTable, apply_mode_map, keys_up_to_order, ladder_to_quadrature,
                      moments_from_state)
from .errors import DegenerateHerald, NegativeNonGaussianity, NoSignChange, NonPhysicalCovariance
from .fock import TwoModeState
from .herald import fringe, heralded_moments
from .opensystem import EnvParams, evolution_map

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
# label indices of each criterion and the highest moment order of its entries
CRITERIA = {"D5": (D5_INDICES, 2), "S3": (S3_INDICES, 4)}


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


@lru_cache(maxsize=None)
def criterion_functional(name: str) -> np.ndarray:
    """Read-only (n^2, keys) map from a moment vector over keys_up_to_order(order)
    to the row-major entries of the named partial-transpose matrix."""
    indices, order = CRITERIA[name]
    words = [word for row in criterion_words(indices) for word in row]
    pos = {key: i for i, key in enumerate(keys_up_to_order(order))}
    f = np.zeros((len(words), len(pos)), dtype=complex)
    for row, word in zip(f, words):
        for key, c in ladder_to_quadrature(word).items():
            row[pos[key]] += c
    f.setflags(write=False)
    return f


def criterion_matrices(name: str, vectors: np.ndarray) -> np.ndarray:
    """The named matrix at every point of stacked moment vectors (*batch, keys)."""
    n = len(CRITERIA[name][0])
    return (vectors @ criterion_functional(name).T).reshape(vectors.shape[:-1] + (n, n))


def _determinants(name: str, mats: np.ndarray) -> np.ndarray:
    det = np.linalg.det(mats)
    if np.any(bad := np.abs(det.imag) > 1e-9 * (1.0 + np.abs(det))):
        raise ValueError(f"{name} determinant has imaginary part {det.imag[bad].flat[0]:.3g}")
    return det.real


def _build_criterion(table: MomentTable, name: str) -> CriterionResult:
    """Noisy recovered tables are Hermitized before the determinant (the
    matrix is Hermitian for any physical moment set, so averaging the
    conjugate pairs is the natural estimator and keeps the determinant
    exactly real)."""
    mat = criterion_matrices(name, table.moments(CRITERIA[name][1]))
    if table.provenance == "exact" and not table.evolved:
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > 1e-9 * (1.0 + np.max(np.abs(mat))):
            raise ValueError(f"{name} matrix not Hermitian: defect {herm:.3g}")
    if table.provenance == "recovered":
        mat = 0.5 * (mat + mat.conj().T)
    return CriterionResult(name, float(_determinants(name, mat)), mat)


def build_d5(table: MomentTable) -> CriterionResult:
    """5x5 partial-transpose determinant (Simon's criterion reformulated)."""
    return _build_criterion(table, "D5")


def build_s3(table: MomentTable) -> CriterionResult:
    """3x3 subdeterminant sensitive to non-Gaussian entanglement."""
    return _build_criterion(table, "S3")


def s3_ground_closed_form(mu: float, phi: float) -> float:
    """Closed-system S3 of the ground-state cat: -mu^6 e^{-mu^2} / [64 (1 + e^{-mu^2/2} cos phi)^3],
    with the denominator free of cancellation at the dark fringe."""
    den = fringe(mu * mu / 2.0, phi)
    if den == 0.0:
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
        raise NegativeNonGaussianity(f"non-Gaussianity came out negative: {delta:.3g}")
    return max(delta, 0.0)


# ---------------------------------------------------------------------------
# cooling requirements


def _evolution_maps(name: str, envs: list[EnvParams]) -> np.ndarray:
    """Single-mode evolution maps of the named criterion's order, one per environment."""
    return evolution_map(envs, CRITERIA[name][1])


def _criterion_values(name: str, maps: np.ndarray, mu, phi, nbar) -> np.ndarray:
    """D5 or S3 after the evolution maps, at every point of the broadcast arrays."""
    order = CRITERIA[name][1]
    vectors = apply_mode_map(maps, heralded_moments(mu, phi, nbar, nbar, order), order)
    return _determinants(name, criterion_matrices(name, vectors))


def evolved_criterion(name: str, envs: list[EnvParams]):
    """The function (mu, phi, nbar) -> D5 or S3 after the open-system verification
    delays, at every point of broadcast arrays. The evolution maps are built
    once; the environments run along the last batch axis (one broadcasts)."""
    maps = _evolution_maps(name, envs)
    return lambda mu, phi, nbar: _criterion_values(name, maps, mu, phi, nbar)


def s3_evolved(mu: float, nbar: float, env: EnvParams, phi: float = math.pi) -> float:
    """S3 of the heralded state after the open-system verification delays."""
    return float(evolved_criterion("S3", [env])(mu, phi, nbar)[0])


def d5_evolved(mu: float, nbar: float, env: EnvParams, phi: float = math.pi) -> float:
    return float(evolved_criterion("D5", [env])(mu, phi, nbar)[0])


@dataclass(frozen=True)
class CoolingResult:
    nbar_max: float
    verification_possible: bool


def _false_position(f, lo, hi, f_lo, f_hi) -> np.ndarray:
    """Midpoints of brackets with f(lo) = f_lo < 0 <= f(hi) = f_hi, all narrowed at once
    until hi - lo <= tol = max(1e-10 hi, 1e-300), so every root is resolved to 10 digits
    (1e-300 only stops a bracket that closes on zero). f(x, at) evaluates at the flat
    indices `at` of the brackets still open.

    Each step is the Anderson-Bjorck false position (BIT 13, 253 (1973)): the end kept on
    two steps running has its value scaled by 1 - f_new/f_old of the end that moved, or halved
    where that factor is not positive (the Illinois rule). The point is held tol/2
    inside the bracket, so a side that has converged closes it on the next step. A
    bracket that has not halved over the last three steps, or whose false position is
    not inside it, takes the midpoint instead, so every bracket halves at least once
    in four steps.
    """
    lo, hi, f_lo, f_hi = (np.array(v, float).ravel() for v in np.broadcast_arrays(lo, hi, f_lo, f_hi))
    moved = np.zeros(lo.size)  # +1 where lo moved last, -1 where hi did
    widths = np.full((3, lo.size), np.inf)  # bracket widths one, two and three steps back
    while (at := np.flatnonzero(hi - lo > (tol := np.maximum(1e-10 * np.abs(hi), 1e-300)))).size:
        a, b, fa, w = lo[at], hi[at], f_lo[at], hi[at] - lo[at]
        x = a - fa * w / (f_hi[at] - fa)
        mid = ~((a < x) & (x < b)) | (w > 0.5 * widths[2, at])
        x = np.where(mid, 0.5 * (a + b), np.clip(x, a + 0.5 * tol[at], b - 0.5 * tol[at]))
        fx = f(x, at)
        widths[:, at] = w, widths[0, at], widths[1, at]
        neg = fx < 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = 1.0 - fx / np.where(neg, f_lo[at], f_hi[at])  # f_old of the end that moves
        twice = np.where(neg, moved[at] > 0, moved[at] < 0)
        scale = np.where(twice, np.where(scale > 0.0, scale, 0.5), 1.0)
        up, down = at[neg], at[~neg]
        f_hi[up] *= scale[neg]
        f_lo[down] *= scale[~neg]
        lo[up], f_lo[up], moved[up] = x[neg], fx[neg], 1.0
        hi[down], f_hi[down], moved[down] = x[~neg], fx[~neg], -1.0
    return 0.5 * (lo + hi)


def cooled_occupations(mu, envs: list[EnvParams], phi: float = math.pi) -> tuple[np.ndarray, np.ndarray]:
    """Largest initial occupation with S3 < 0 (0 where there is none) and the
    verification flag at every coupling of mu; the environments run along the
    last axis of mu (one broadcasts). S3 is evaluated only where a bracket is
    still growing or open."""
    if not np.all((np.asarray(mu) > 0) & np.isfinite(mu)):
        raise ValueError("mu must be finite and positive")
    maps = _evolution_maps("S3", envs)
    shape = np.broadcast_shapes(np.shape(mu), (len(envs),))
    mus = np.broadcast_to(mu, shape).ravel()
    env_index = np.broadcast_to(np.arange(len(envs)), shape).ravel()

    def s3(nbar, at):
        return _criterion_values("S3", maps[env_index[at]], mus[at], phi, nbar)

    f_lo = s3(0.0, np.arange(mus.size))
    ok = f_lo < 0.0
    lo, hi, f_hi = np.zeros(mus.size), np.where(ok, 0.5, 0.0), np.zeros(mus.size)
    up = np.flatnonzero(ok)
    while up.size:
        f_up = s3(hi[up], up)
        grow = f_up < 0.0
        f_hi[up[~grow]] = f_up[~grow]
        up = up[grow]
        lo[up], f_lo[up], hi[up] = hi[up], f_up[grow], 2.0 * hi[up]
        if np.any(hi > 1e9):
            raise NoSignChange("S3 stayed negative up to nbar = 1e9")
    return np.where(ok, _false_position(s3, lo, hi, f_lo, f_hi), 0.0).reshape(shape), ok.reshape(shape)


def max_cooled_occupation(mu: float, env: EnvParams, phi: float = math.pi) -> CoolingResult:
    """Largest initial occupation with S3 < 0, or the NoVerification flag."""
    nbar_max, ok = cooled_occupations(mu, [env], phi)
    return CoolingResult(float(nbar_max[0]), bool(ok[0]))


def mu_cutoff(env: EnvParams, phi: float = math.pi, mu_lo: float = 0.5, mu_hi: float = 8.0) -> float:
    """Coupling above which S3 cannot verify entanglement even at nbar = 0."""
    s3 = evolved_criterion("S3", [env])
    scan = np.arange(mu_lo, mu_hi + 0.25, 0.25)
    scan = scan[scan <= mu_hi]
    values = s3(scan, phi, 0.0)
    nonneg = np.flatnonzero(values >= 0.0)
    if not nonneg.size:
        raise NoSignChange(f"no S3 sign change found below mu = {mu_hi}")
    if (k := nonneg[0]) == 0:
        raise NoSignChange("S3 already non-negative at mu_lo")
    return float(_false_position(lambda m, at: s3(m, phi, 0.0), scan[k - 1], scan[k], values[k - 1], values[k])[0])
