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


def default_cutoff(nbar: float, mu: float) -> int:
    """Per-mode cutoff: 8x margin over the excitation scale, and two levels
    above the cutoff whose thermal tail mass meets THERMAL_TAIL_TOL."""
    scale = 8.0 * (nbar + mu * mu + 1.0)
    if not math.isfinite(scale):
        raise CutoffTooSmall(f"no finite cutoff at nbar = {nbar:g}, mu = {mu:g}")
    cutoff = max(20, math.ceil(scale))
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

    def _exchange_signs(self) -> np.ndarray | None:
        """sigma_x of each kept column under the mode exchange R that the state commutes with,
        or None: R|i, j> = sigma |j, i> with sigma = 1 (R = S, the swap) or (-1)^(i + j)
        (R = S Pi, Pi = (-1)^(n1 + n2)). Decided from the state at O(r + c^2 + n^2) cost:

        - E1 and E2 are the same block; the kept levels ascend in flat index (gram's row blocks),
          are swap-closed and s(i, j) = s(j, i) exactly (thermal_state's products p_i p_j are,
          and the heralding step scales them alike);
        - S: f = f^T, so S K S = K (series clicks; K = sum_ab f[a, b] E1^a x E2^b);
        - S Pi: f^T = lam conj(f) with |lam| = 1, Pi E Pi = conj(E) and E = E^T. Then
          (S Pi) K (S Pi) = lam conj(K) (parallel clicks, lam the product of the steps' +-c),
          and K^dag K is real (von_neumann_entropy), so R commutes with it.

        The others are taken to GRAM_IMAG_TOL relative to the largest |f| or |E|, as rounding
        leaves them (|c|^2 = 1 only to rounding in c (1 + conj(c)) = c + 1, and E from
        one eigh); von_neumann_entropy bounds what the split then drops."""
        e, f, tol = self.e1, self.f, GRAM_IMAG_TOL
        if e.shape != self.e2.shape or not np.array_equal(e, self.e2):
            return None
        kept = np.zeros(e.shape, dtype=bool)
        kept[self.k1, self.k2] = True
        weights = np.zeros(e.shape)
        weights[self.k1, self.k2] = self.s
        if (np.any(np.diff(self.k1 * len(e) + self.k2) <= 0) or not np.array_equal(kept, kept.T)
                or not np.array_equal(weights, weights.T)):
            return None
        f_scale = tol * np.max(np.abs(f))
        if np.max(np.abs(f - f.T)) <= f_scale:
            return np.ones(self.k1.size)
        top = np.unravel_index(np.argmax(np.abs(f)), f.shape)
        lam = f.T[top] / np.conj(f[top])
        parity = (-1.0) ** np.arange(len(e))
        e_scale = tol * np.max(np.abs(e))
        if (abs(abs(lam) - 1.0) <= tol and np.max(np.abs(f.T - lam * f.conj())) <= f_scale
                and np.max(np.abs(parity[:, None] * e * parity - e.conj())) <= e_scale
                and np.max(np.abs(e - e.T)) <= e_scale):
            return (-1.0) ** (self.k1 + self.k2)
        return None

    def gram(self) -> list[np.ndarray]:
        """G = A^dag A normalised by its own trace, as its blocks under the state's mode
        exchange R (_exchange_signs): [G] where there is none, else [G+, G-] in the orthonormal
        bases of the representative columns u (k1 <= k2) with R: |u> for a diagonal column
        (k1 = k2, even) and (|u> +- sigma_u R|u>) / sqrt(2) for the others. R G R = G, so G is
        the direct sum of G+ and G- and they have its spectrum. Both come from the
        representative rows alone, G+-[u, v] = G[u, v] +- sigma_v G[u, R(v)] between the
        others, sqrt(2) G[u, v] from another row u to a diagonal v and (G[u, v] + sigma_v
        G[u, R(v)]) / sqrt(2) the other way, so half of G's rows are built and no r x r matrix.

        G[x, x'] = s_x s_x' sum_{a, a'} M_aa'[k1_x, k1_x'] B_aa'[k2_x, k2_x'] / tr with the
        c x c blocks M_aa' = (E1^a)^dag E1^a' and B_aa' = F_a^dag F_a', and G[u, R(v)] the same
        at the swapped levels (k2_v, k1_v) of v. The kept columns ascend in flat index, so the
        rows are filled one row block of equal k1 at a time (a kept diagonal column first),
        from the columns M_aa'[:, k1] and B_aa'[:, k2]. M_00 = I adds only the block's diagonal
        part (for G[u, R(v)], the columns with k2_v = k1_u), and the column factor s_v / tr
        (sigma_v s_v / tr for G[u, R(v)], 0 at a diagonal v: it is its own mirror) is folded
        into those columns."""
        mode_1, mode_2 = self._blocks
        sign = self._exchange_signs()
        reps = np.arange(self.k1.size) if sign is None else np.flatnonzero(self.k1 <= self.k2)
        k1, k2, s = self.k1[reps], self.k2[reps], self.s[reps]
        pairs = [(a, a2) for a in range(len(mode_1)) for a2 in range(len(mode_1))]
        m_blocks = [mode_1[a].conj().T @ mode_1[a2] for a, a2 in pairs]
        b_blocks = [mode_2[a].conj().T @ mode_2[a2] for a, a2 in pairs]
        # the blocks before the gathered columns: freed, they leave memory that the entropy's
        # real copies reuse (the other order raised the fock round's peak by 1 MB)
        blocks = [np.zeros((k1.size, k1.size), dtype=complex)]
        cols = s / self.trace
        if sign is not None:
            odd, diagonal = np.flatnonzero(k1 != k2), np.flatnonzero(k1 == k2)
            blocks.append(np.zeros((odd.size, odd.size), dtype=complex))
            odd_row = np.cumsum(k1 != k2) - 1
            swapped = np.where(k1 != k2, sign[reps] * cols, 0.0)
            m_swap = [m[:, k2] * swapped for m in m_blocks[1:]]
            b_swap = [b[:, k1] for b in b_blocks]
        m_cols = [m[:, k1] * cols for m in m_blocks[1:]]
        b_cols = [b[:, k2] for b in b_blocks[1:]]
        starts = np.flatnonzero(np.diff(k1, prepend=-1))
        for lo, hi in zip(starts, [*starts[1:], k1.size]):
            rows = k2[lo:hi]
            direct = blocks[0][lo:hi]
            direct[:, lo:hi] = b_blocks[0][rows][:, rows] * cols[lo:hi]
            for m, b in zip(m_cols, b_cols):
                direct += b[rows] * m[k1[lo]]
            if sign is not None:
                mirror = np.zeros_like(direct)
                at = np.flatnonzero(k2 == k1[lo])
                mirror[:, at] = b_swap[0][rows][:, at] * swapped[at]
                for m, b in zip(m_swap, b_swap[1:]):
                    mirror += b[rows] * m[k1[lo]]
                first = int(rows[0] == k1[lo])  # 1 where the row block starts with its diagonal column
                odd_rows = (direct[first:] - mirror[first:])[:, odd]
                blocks[1][odd_row[lo + first:hi]] = odd_rows * s[lo + first:hi, None]
                direct += mirror
                direct[first:, diagonal] *= math.sqrt(2.0)
                direct[:first, odd] *= math.sqrt(0.5)
            direct *= s[lo:hi, None]
        return blocks

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
    i * cutoff_2 + j. A run of equal products is never split at that cut: it is kept whole,
    so the mirror products p_i p_j = p_j p_i of equal occupations and cutoffs are kept or
    dropped together and the kept set is closed under the mode exchange (TwoModeState.gram
    splits on it). A stable sort alone cut through such runs: one pair at nbar = 0.4, cutoff
    30, three at nbar 0.5, cutoff 23 and at nbar 0.1, cutoff 12. The products a run brings
    back were among the dropped ones, so they weigh at most THERMAL_DROP_TOL; over nbar 0-5.3
    and cutoffs 12-90 they were 1-56 columns and at most 5.7e-17. The truncation loss is each
    mode's tail beyond its cutoff plus the dropped mass; the populations are normalised, so
    the trace is 1 less the dropped mass."""
    c1, c2 = config.cutoff_1, config.cutoff_2
    w = np.outer(thermal_populations(nbar_1, c1), thermal_populations(nbar_2, c2)).ravel()
    by_size = np.argsort(w, kind="stable")
    ordered = w[by_size]
    n_drop = int(np.searchsorted(np.cumsum(ordered), THERMAL_DROP_TOL, side="right"))
    n_drop = int(np.searchsorted(ordered, ordered[n_drop], side="left"))  # the cut's run whole
    kept = np.sort(by_size[n_drop:])
    tails = sum((nbar / (nbar + 1.0)) ** c for nbar, c in ((nbar_1, c1), (nbar_2, c2)))
    return TwoModeState(np.ones((1, 1), dtype=complex), np.zeros((c1, c1), dtype=complex),
                        np.zeros((c2, c2), dtype=complex), *np.divmod(kept, c2), np.sqrt(w[kept]),
                        tails + float(ordered[:n_drop].sum()))


def kept_columns_bound(nbar_1: float, nbar_2: float, config: FockConfig) -> int:
    """At least as many columns as thermal_state keeps, from the per-mode populations alone (no
    cutoff_1 x cutoff_2 array): the products p1_i p2_j above THERMAL_DROP_TOL / dim. The products
    at or below it weigh at most THERMAL_DROP_TOL together, so thermal_state drops them all."""
    p1 = thermal_populations(nbar_1, config.cutoff_1)
    p2 = np.sort(thermal_populations(nbar_2, config.cutoff_2))
    with np.errstate(divide="ignore"):  # p1_i = 0 pairs with no level
        above = np.searchsorted(p2, THERMAL_DROP_TOL / config.dim / p1, side="right")
    return int(np.sum(len(p2) - above))


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
    TwoModeState.gram, written in E = D - I so that no O(1) terms cancel at the dark fringe),
    as the spectra of its blocks under the state's mode exchange: two eigenproblems of about
    half G's size where the state is exchange-symmetric (every state heralded from equal
    occupations and cutoffs), else G's own.

    G is real for thermal and heralded thermal states. Their columns are K s_x |k1_x, k2_x> on
    real thermal weights, with K a polynomial in E1 x 1 and 1 x E2 for E = e^{i mu X} - I.
    Those two commute and are complex-symmetric and normal, so K is too, and then
    conj(K^dag K) = K^T conj(K) = K K^dag = K^dag K. By Weyl's inequality dropping Im G moves
    each eigenvalue by at most ||Im G||_2 <= ||Im G||_F, so the real solve is taken when that
    bound is at rounding level: at most GRAM_IMAG_TOL of tr G, the size of the entropy's
    eigenvalue floor. The blocks are G in an orthonormal real basis, so the test reads their
    ||Im||_F and traces. Click columns with other E keep the Hermitian solve.

    The split is exact where the state's symmetry is: R G R = G, and the cross block between
    the even and odd combinations is zero. _exchange_signs takes f and E as symmetric where
    they are to GRAM_IMAG_TOL of their largest entry, the size of the rounding they carry
    already; the cross block the split then drops moves no eigenvalue by more than its norm
    (Weyl, as for Im G). Formed from the unsplit G of the benchmark's Fock points (seeds 3 and
    62, both configurations) it was at most 2.2e-16 of max |G|, and the entropy moved by at most
    1.4e-15 relative.
    """
    blocks = state.gram()
    imag = math.hypot(*(np.linalg.norm(b.imag) for b in blocks))
    real = imag <= GRAM_IMAG_TOL * sum(np.trace(b.real) for b in blocks)
    return sum(entropy_of_matrix(b.real if real else b) for b in blocks)
