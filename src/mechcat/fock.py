"""Truncated two-mode Fock space: states held as click columns (thermal, and heralded by
one click operator), read through per-mode blocks.

Conventions: hbar = 1, X = (b + b^dag)/sqrt(2), P = -i(b - b^dag)/sqrt(2),
so the vacuum quadrature variance is 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import CutoffTooSmall

TRACE_TOL = 1e-10
ENTROPY_EIG_FLOOR = 1e-14
GRAM_IMAG_TOL = 1e-14  # ||Im G||_F / tr G below which G = A^dag A is taken as real
THERMAL_TAIL_TOL = 1e-10
THERMAL_DROP_TOL = 1e-16  # thermal columns left out: below the rounding of a unit trace


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


def displacement_minus_identity(beta: complex, cutoff: int) -> np.ndarray:
    """Single-mode E = D(beta) - I from one eigendecomposition of the generator, with expm1
    in place of exp: where D is near I its entries are O(|beta|) with no O(1) terms
    cancelled. CutoffTooSmall where the truncation spoils D, whose unitarity defect
    D^dag D - I is E + E^dag + E^dag E."""
    if abs(beta) ** 2 > cutoff / 2.0:
        raise CutoffTooSmall(
            f"|beta|^2 = {abs(beta) ** 2:.3g} too large for cutoff {cutoff}"
        )
    a = destroy(cutoff)
    w, v = np.linalg.eigh(1j * (beta * a.conj().T - np.conj(beta) * a))  # D = exp(-i h), h Hermitian
    e = (v * np.expm1(-1j * w)) @ v.conj().T
    defect = np.max(np.abs(e + e.conj().T + e.conj().T @ e))
    if defect > 1e-6:
        raise CutoffTooSmall(f"displacement unitarity defect {defect:.3g}")
    return e


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
class TwoModeState:
    """Density operator rho = sum_x A_x A_x^dag on the truncated two-mode space, held as its
    click columns: A_x = sum_ab f[a, b] E1^a x E2^b s_x |k1_x, k2_x>, with E = D - I on each
    mode. thermal_state has f = [[1]], E = 0 and s = sqrt(w) on its kept levels k1, k2;
    herald.click_inputs sets a protocol's E, and apply_operator (the heralding step) its f,
    folding the normalisation into s, so the trace is 1 up to rounding. rho is Hermitian and
    positive semidefinite by construction. The cutoffs (`config`) are the sizes of E1 and E2.

    `trace`, `gram` and `word_sums` are read off c x c blocks per mode at the kept levels:
    von_neumann_entropy reads the Gram matrix, algebra.moments_from_state and the loss oracle
    (detector._loss_table) the word sums. `truncation_loss` is the probability mass of the
    thermal input left out of the state: its tail beyond the cutoffs plus the dropped columns.
    """

    f: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    s: np.ndarray
    truncation_loss: float = 0.0

    @property
    def config(self) -> FockConfig:
        return FockConfig(len(self.e1), len(self.e2))

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
        """sum_x <A_x|A_x>, the identity word's sum. Not f^dag T f (the loss oracle's form,
        detector._loss_table): that form cancels between f's coefficients after squaring, not
        within the blocks F_a, and at (mu, nbar) = (2, 0.4) with three series clicks it was up
        to 2.2e-13 off an exactly summed D-form trace, where this sum stays within 7.9e-15."""
        return float(self.word_sums(np.eye(len(self.e1))[None], np.eye(len(self.e2))[None])[0, 0].real)

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

    def validate(self) -> "TwoModeState":
        """Unit trace; Hermiticity and positivity hold by construction."""
        if not abs(self.trace - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace(rho) = {self.trace:.12g}, not 1")
        return self


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
    """Product of single-mode thermal states as click columns with f = [[1]] and E = 0:
    one column sqrt(p1_i p2_j) |i, j> per Fock product, less the smallest products while
    their total mass stays at or below THERMAL_DROP_TOL, kept in ascending flat index
    i * cutoff_2 + j. The truncation loss is each mode's tail beyond its cutoff plus the
    dropped mass; the populations are normalised, so the trace is 1 less the dropped mass."""
    c1, c2 = config.cutoff_1, config.cutoff_2
    w = np.outer(thermal_populations(nbar_1, c1), thermal_populations(nbar_2, c2)).ravel()
    by_size = np.argsort(w, kind="stable")
    n_drop = int(np.searchsorted(np.cumsum(w[by_size]), THERMAL_DROP_TOL, side="right"))
    kept = np.sort(by_size[n_drop:])
    tails = sum((nbar / (nbar + 1.0)) ** c for nbar, c in ((nbar_1, c1), (nbar_2, c2)))
    return TwoModeState(np.ones((1, 1), dtype=complex), np.zeros((c1, c1), dtype=complex),
                        np.zeros((c2, c2), dtype=complex), *np.divmod(kept, c2), np.sqrt(w[kept]),
                        tails + float(w[by_size[:n_drop]].sum()))


def apply_operator(f: np.ndarray, state: TwoModeState) -> tuple[TwoModeState, float]:
    """The heralding step: (K rho K^dag / p, p) with K = sum_ab f[a, b] E1^a x E2^b and
    p = tr(K rho K^dag), on a state whose f is [[1]] (the thermal input of
    herald.click_inputs). K's columns are the state's with f in place of [[1]], and 1 / sqrt(p)
    is folded into s; (state, 0.0) where p <= 0."""
    if state.f.tolist() != [[1.0]]:
        raise ValueError("apply_operator acts on a state whose f is [[1]]")
    out = replace(state, f=f)
    p = out.trace
    if p <= 0.0:
        return state, 0.0
    return replace(out, s=out.s / math.sqrt(p)), p


def entropy_of_matrix(rho: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > ENTROPY_EIG_FLOOR]
    return float(-np.sum(lam * np.log(lam)))


def von_neumann_entropy(state: TwoModeState) -> float:
    """-sum lambda ln lambda over eigenvalues above the truncation-noise floor, from the
    rank x rank Gram matrix G = A^dag A of the click columns (same nonzero spectrum as rho;
    TwoModeState.gram, written in E = D - I so that no O(1) terms cancel at the dark fringe).

    G is real for thermal and heralded thermal states. Their columns are K s_x |k1_x, k2_x> on
    real thermal weights, with K a polynomial in E1 x 1 and 1 x E2 for E = e^{i mu X} - I.
    Those two commute and are complex-symmetric and normal, so K is too, and then
    conj(K^dag K) = K^T conj(K) = K K^dag = K^dag K. By Weyl's inequality dropping Im G moves
    each eigenvalue by at most ||Im G||_2 <= ||Im G||_F, so the real solve is taken when that
    bound is at rounding level: at most GRAM_IMAG_TOL of tr G, the size of the entropy's
    eigenvalue floor. Click columns with other E keep the Hermitian solve.
    """
    g = state.gram()
    real = np.linalg.norm(g.imag) <= GRAM_IMAG_TOL * np.trace(g.real)
    return entropy_of_matrix(g.real if real else g)
