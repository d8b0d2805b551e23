"""Truncated two-mode Fock space: states held as factors or as heralded click columns,
single-mode maps on them.

Conventions: hbar = 1, X = (b + b^dag)/sqrt(2), P = -i(b - b^dag)/sqrt(2),
so the vacuum quadrature variance is 1/2.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CutoffTooSmall, DimensionMismatch

TRACE_TOL = 1e-10
HERM_TOL = 1e-10
PSD_TOL = 1e-8
ENTROPY_EIG_FLOOR = 1e-14
GRAM_IMAG_TOL = 1e-14  # ||Im G||_F / tr G below which G = A^dag A is taken as real
THERMAL_TAIL_TOL = 1e-10
THERMAL_DROP_TOL = 1e-16  # thermal-factor columns left out: below the rounding of a unit trace


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


def x_single(cutoff: int) -> np.ndarray:
    a = destroy(cutoff)
    return (a + a.conj().T) / math.sqrt(2.0)


def p_single(cutoff: int) -> np.ndarray:
    a = destroy(cutoff)
    return -1j * (a - a.conj().T) / math.sqrt(2.0)


def _generator_eigh(beta: complex, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the Hermitian generator h, D(beta) = exp(-i h)."""
    a = destroy(cutoff)
    h = 1j * (beta * a.conj().T - np.conj(beta) * a)  # Hermitian
    return np.linalg.eigh(h)


def displacement_single(beta: complex, cutoff: int) -> np.ndarray:
    """exp(beta a^dag - beta* a) via eigendecomposition of the Hermitian generator."""
    w, v = _generator_eigh(beta, cutoff)
    return (v * np.exp(-1j * w)) @ v.conj().T


def coherent_vector(beta: complex, cutoff: int) -> np.ndarray:
    """Coherent-state amplitudes e^{-|b|^2/2} b^n / sqrt(n!), truncated."""
    amps = np.zeros(cutoff, dtype=complex)
    amps[0] = 1.0
    for k in range(1, cutoff):
        amps[k] = amps[k - 1] * beta / math.sqrt(k)
    return amps * math.exp(-abs(beta) ** 2 / 2.0)


def displacement_pair(beta: complex, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-mode D(beta) and E = D(beta) - I from one eigendecomposition of the
    generator, E with expm1 in place of exp: where D is near I its entries are
    O(|beta|) with no O(1) terms cancelled. CutoffTooSmall where the truncation spoils D."""
    if abs(beta) ** 2 > cutoff / 2.0:
        raise CutoffTooSmall(
            f"|beta|^2 = {abs(beta) ** 2:.3g} too large for cutoff {cutoff}"
        )
    w, v = _generator_eigh(beta, cutoff)
    d = (v * np.exp(-1j * w)) @ v.conj().T
    defect = np.max(np.abs(d.conj().T @ d - np.eye(cutoff)))
    if defect > 1e-6:
        raise CutoffTooSmall(f"displacement unitarity defect {defect:.3g}")
    return d, (v * np.expm1(-1j * w)) @ v.conj().T


def checked_displacement(beta: complex, cutoff: int) -> np.ndarray:
    """Single-mode D(beta); CutoffTooSmall where the truncation spoils it."""
    return displacement_pair(beta, cutoff)[0]


def powers(e: np.ndarray, count: int) -> np.ndarray:
    """I, E, ..., E^(count - 1), stacked."""
    out = [np.eye(len(e), dtype=complex)]
    for _ in range(1, count):
        out.append(e @ out[-1])
    return np.array(out)


def pair_diagonals(blocks: np.ndarray, words: np.ndarray) -> np.ndarray:
    """diag(B_a^dag W B_a') for every pair (a, a') of the stack `blocks` (n, c, c) and every
    word W of the stack `words` (w, c, c): shape (n, n, w, c)."""
    return np.einsum("aik,bwik->abwk", blocks.conj(), words[None] @ blocks[:, None])


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ClickColumns:
    """A heralded thermal state in per-mode blocks: column x of its factor is
    sum_ab f[a, b] E1^a x E2^b s_x |k1_x, k2_x>, with E = D - I on each mode
    (herald.heralded_state). Its heralding normalisation is folded into s, so
    its trace is 1 up to rounding; `trace`, `gram` and `word_sums` are read off
    c x c blocks per mode at the kept levels k1, k2, and `factor` builds the
    (c1, c2, r) factor for the readers that need it.
    """

    f: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    s: np.ndarray

    @cached_property
    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """E1^a and F_a = sum_b f[a, b] E2^b for a < n, each stacked (f is n x n)."""
        n = self.f.shape[0]
        return powers(self.e1, n), np.tensordot(self.f, powers(self.e2, n), 1)

    def word_sums(self, words_1: np.ndarray, words_2: np.ndarray) -> np.ndarray:
        """sum_x <A_x| W1 x W2 |A_x> over the grid of the word stacks (n1, c1, c1) and
        (n2, c2, c2): sum_{a, a'} diag(E1^a^dag W1 E1^a') S diag(F_a^dag W2 F_a')^T with the
        column weights s^2 on the level grid, S[k1_x, k2_x] = s_x^2.

        The sums run over one mode's levels at a time and then over the pairs (a, a'): at
        (mu, nbar) = (2, 0.4) and three series clicks, one product over all pairs and columns
        at once lost 2.2e-13 (relative to 1 + |moment|) against a long-double evaluation, and
        this order 7.4e-14."""
        mode_1, mode_2 = self._blocks
        weights = np.zeros((len(self.e1), len(self.e2)))
        weights[self.k1, self.k2] = self.s * self.s
        left = pair_diagonals(mode_1, words_1).reshape(-1, len(words_1), len(self.e1))
        right = pair_diagonals(mode_2, words_2).reshape(-1, len(words_2), len(self.e2))
        return (left @ weights @ right.swapaxes(1, 2)).sum(axis=0)

    @cached_property
    def trace(self) -> float:
        """sum_x <A_x|A_x>, the identity word's sum."""
        return float(self.word_sums(np.eye(len(self.e1))[None], np.eye(len(self.e2))[None])[0, 0].real)

    def factor(self) -> np.ndarray:
        """The factor A (c1, c2, r): column x is sum_a E1^a[:, k1_x] x F_a[:, k2_x] s_x."""
        mode_1, mode_2 = self._blocks
        return np.einsum("aix,ajx->ijx", mode_1[:, :, self.k1], mode_2[:, :, self.k2] * self.s)

    def gram(self) -> np.ndarray:
        """G = A^dag A normalised by its own trace: G[x, x'] = s_x s_x' sum_{a, a'}
        M_aa'[k1_x, k1_x'] B_aa'[k2_x, k2_x'] / tr with the c x c blocks M_aa' = (E1^a)^dag E1^a'
        and B_aa' = F_a^dag F_a'.

        The kept columns ascend in k1, so G is filled one row block of equal k1 at a time, from
        the columns M_aa'[:, k1] and B_aa'[:, k2]. M_00 = I adds only the block's diagonal part,
        and the column factor s_x' / tr is folded into those columns."""
        mode_1, mode_2 = self._blocks
        k1, k2, s = self.k1, self.k2, self.s
        pairs = [(a, a2) for a in range(len(mode_1)) for a2 in range(len(mode_1))][1:]
        # G before the gathered columns: freed, they leave one block that the entropy's
        # real copy of G reuses (the other order raised the fock round's peak by 1 MB)
        gram = np.zeros((k1.size, k1.size), dtype=complex)
        cols = s / self.trace
        m_cols = [(mode_1[a].conj().T @ mode_1[a2])[:, k1] * cols for a, a2 in pairs]
        b_cols = [(mode_2[a].conj().T @ mode_2[a2])[:, k2] for a, a2 in pairs]
        b_00 = mode_2[0].conj().T @ mode_2[0]
        starts = np.flatnonzero(np.diff(k1, prepend=-1))
        for lo, hi in zip(starts, [*starts[1:], k1.size]):
            rows, block = k2[lo:hi], gram[lo:hi]
            block[:, lo:hi] = b_00[rows][:, rows] * cols[lo:hi]
            for m, b in zip(m_cols, b_cols):
                block += b[rows] * m[k1[lo]]
            block *= s[lo:hi, None]
        return gram


@dataclass(frozen=True)
class TwoModeState:
    """Density operator rho = sum_x A_x A_x^dag on the truncated two-mode space,
    held as one payload: its factor A of shape (cutoff_1, cutoff_2, rank), or
    the ClickColumns of a heralded state (herald.heralded_state). A pure state
    has rank 1. rho is Hermitian and positive semidefinite by construction.

    von_neumann_entropy reads a heralded state's Gram matrix and
    algebra.moments_from_state its word sums, with no factor. Its `factor` is
    built from the click columns on first read, by the readers that need it
    (partial_trace, fidelity_to_pure, the port spectra of verify and the
    moments' cutoff-doubling check), and kept.

    `truncation_loss` is the probability mass of the thermal input left out of
    the state: its tail beyond the cutoffs plus the dropped columns.
    """

    config: FockConfig
    payload: np.ndarray | ClickColumns
    truncation_loss: float = 0.0

    def __post_init__(self):
        shape = (self.config.cutoff_1, self.config.cutoff_2)
        if self.clicks is not None:
            if (len(self.clicks.e1), len(self.clicks.e2)) != shape:
                raise DimensionMismatch(f"click columns on {len(self.clicks.e1)} x {len(self.clicks.e2)} "
                                        f"levels vs cutoffs {shape}")
        elif self.payload.ndim != 3 or self.payload.shape[:2] != shape:
            raise DimensionMismatch(f"factor shape {self.payload.shape} vs cutoffs {shape}")

    @property
    def clicks(self) -> ClickColumns | None:
        return self.payload if isinstance(self.payload, ClickColumns) else None

    @cached_property
    def factor(self) -> np.ndarray:
        """A of shape (cutoff_1, cutoff_2, rank): rho = sum_x A[:, :, x] A[:, :, x]^dag."""
        return self.payload if self.clicks is None else self.clicks.factor()

    @property
    def columns(self) -> np.ndarray:
        """The factor as a (dim, rank) matrix: rho = columns columns^dag."""
        return self.factor.reshape(self.config.dim, -1)

    @property
    def rho(self) -> np.ndarray:
        a = self.columns
        return a @ a.conj().T

    @property
    def vector(self) -> np.ndarray | None:
        """State vector of a rank-1 state, else None."""
        return self.columns[:, 0] if self.factor.shape[2] == 1 else None

    def validate(self) -> "TwoModeState":
        """Unit trace of the payload; Hermiticity and positivity need no check
        (see state_from_rho)."""
        tr = self.clicks.trace if self.clicks is not None else float(np.vdot(self.payload, self.payload).real)
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace(rho) = {tr:.12g}, not 1")
        return self


def state_from_vector(psi: np.ndarray, config: FockConfig) -> TwoModeState:
    psi = psi.astype(complex)
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= 1e-8:
        raise ValueError(f"state vector norm {norm:.12g}")
    return TwoModeState(config, (psi / norm).reshape(config.cutoff_1, config.cutoff_2, 1))


def state_from_rho(rho: np.ndarray, config: FockConfig) -> TwoModeState:
    """State from a dense density matrix: trace, Hermiticity and positivity are
    checked in full, and the factor is taken from its spectrum."""
    if rho.shape != (config.dim, config.dim):
        raise DimensionMismatch(f"rho shape {rho.shape} vs dim {config.dim}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace(rho) = {tr:.12g}, not 1")
    if np.max(np.abs(rho - rho.conj().T)) > HERM_TOL:
        raise ValueError("rho is not Hermitian")
    lam, v = np.linalg.eigh(rho)
    if lam[0] < -PSD_TOL:
        raise ValueError(f"rho has negative eigenvalue {lam[0]:.3g}")
    keep = lam > 0.0
    a = v[:, keep] * np.sqrt(lam[keep])
    return TwoModeState(config, a.reshape(config.cutoff_1, config.cutoff_2, -1))


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


def thermal_columns(nbar_1: float, nbar_2: float, config: FockConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """The truncated product thermal state as basis columns sqrt(p1_i p2_j) |i, j>:
    kept flat indices i * cutoff_2 + j (ascending), weights p1_i p2_j, and the
    truncation loss, each mode's tail beyond its cutoff plus the smallest
    products, left out while their total mass stays at or below THERMAL_DROP_TOL."""
    c1, c2 = config.cutoff_1, config.cutoff_2
    w = np.outer(thermal_populations(nbar_1, c1), thermal_populations(nbar_2, c2)).ravel()
    by_size = np.argsort(w, kind="stable")
    n_drop = int(np.searchsorted(np.cumsum(w[by_size]), THERMAL_DROP_TOL, side="right"))
    kept = np.sort(by_size[n_drop:])
    tails = sum((nbar / (nbar + 1.0)) ** c for nbar, c in ((nbar_1, c1), (nbar_2, c2)))
    return kept, w[kept], tails + float(w[by_size[:n_drop]].sum())


def thermal_state(nbar_1: float, nbar_2: float, config: FockConfig) -> TwoModeState:
    """Product of single-mode thermal states, one factor column per thermal_columns entry."""
    kept, w, loss = thermal_columns(nbar_1, nbar_2, config)
    a = np.zeros((config.dim, kept.size), dtype=complex)
    a[kept, np.arange(kept.size)] = np.sqrt(w)
    return TwoModeState(config, a.reshape(config.cutoff_1, config.cutoff_2, -1), loss).validate()


def on_mode(single: np.ndarray, mode: int, factor: np.ndarray) -> np.ndarray:
    """Apply a single-mode matrix to one mode of a factor (c1, c2, r)."""
    if mode == 1:
        c1, c2, r = factor.shape
        return (single @ factor.reshape(c1, c2 * r)).reshape(c1, c2, r)
    if mode == 2:
        return np.matmul(single, factor)
    raise ValueError("mode must be 1 or 2")


def apply_operator(
    op: Callable[[np.ndarray], np.ndarray], state: TwoModeState
) -> tuple[TwoModeState, float]:
    """Return (K rho K^dag / p, p) with p = tr(K rho K^dag), for K given as a map
    on factors (such as one made of on_mode steps)."""
    a = op(state.factor)
    p = float(np.vdot(a, a).real)
    if p <= 0.0:
        return state, 0.0
    return TwoModeState(state.config, a / math.sqrt(p), state.truncation_loss), p


def partial_trace(state: TwoModeState, keep_mode: int) -> np.ndarray:
    """Reduced density matrix of one mode."""
    if keep_mode not in (1, 2):
        raise ValueError("keep_mode must be 1 or 2")
    a = state.factor if keep_mode == 1 else state.factor.transpose(1, 0, 2)
    a = a.reshape(a.shape[0], -1)
    return a @ a.conj().T


def entropy_of_matrix(rho: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > ENTROPY_EIG_FLOOR]
    return float(-np.sum(lam * np.log(lam)))


def von_neumann_entropy(state: TwoModeState) -> float:
    """-sum lambda ln lambda over eigenvalues above the truncation-noise floor,
    from the rank x rank Gram matrix G = A^dag A (same nonzero spectrum as rho).

    A heralded state's G comes from its click columns (c x c blocks of
    E = D - I per mode, written in E so that no O(1) terms cancel at the dark
    fringe). Any other state's G is summed from the blocks of W = V^T V, V the
    factor's float view (dim x 2 rank).

    G is real for heralded thermal states (the thermal factor is real, the
    arms are complex-symmetric and commute) and diagonal for state_from_rho
    factors. By Weyl's inequality dropping Im G moves each eigenvalue by at
    most ||Im G||_2 <= ||Im G||_F, so the real solve is taken when that bound
    is at rounding level: at most GRAM_IMAG_TOL of tr G, the size of the
    entropy's eigenvalue floor. Any other factor, such as A U for a unitary U
    (the same rho), keeps the Hermitian solve.
    """
    if state.clicks is None:
        v = np.ascontiguousarray(state.columns, dtype=complex).view(np.float64)
        w = v.T @ v  # Re and Im of each column interleaved on both axes
        gram, imag = w[::2, ::2] + w[1::2, 1::2], w[::2, 1::2] - w[1::2, ::2]
    else:
        g = state.clicks.gram()
        gram, imag = g.real, g.imag
    real = np.linalg.norm(imag) <= GRAM_IMAG_TOL * np.trace(gram)
    return entropy_of_matrix(gram if real else gram + 1j * imag)


def entanglement_entropy(state: TwoModeState) -> float:
    """Entropy of the mode-1 reduced state (equals mode 2 for pure states)."""
    return entropy_of_matrix(partial_trace(state, 1))


def fidelity_to_pure(state: TwoModeState, psi: np.ndarray) -> float:
    """<psi| rho |psi> for a normalized reference vector."""
    psi = psi / np.linalg.norm(psi)
    return float(np.sum(np.abs(psi.conj() @ state.columns) ** 2))
