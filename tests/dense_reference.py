"""Dense references on the truncated two-mode Fock space, for test oracles: dim x dim matrices,
and states held as plain factors A of shape (cutoff_1, cutoff_2, rank), rho = sum_x A_x A_x^dag.

Index i * cutoff_2 + j holds |i, j>, the layout of a factor's (dim, rank) reshape, so a
single-mode matrix M acts on mode 1 as M (x) 1 and on mode 2 as 1 (x) M.
"""

import dataclasses
import math

import numpy as np

from mechcat import algebra, fock, herald, verify
from mechcat.errors import CutoffTooSmall, HeraldImpossible

HERM_TOL = 1e-10
PSD_TOL = 1e-8


def mode_cutoff(cfg, mode):
    """cfg's cutoff of mode 1 or 2."""
    return cfg.cutoff_1 if mode == 1 else cfg.cutoff_2


def assert_hermitian_words_real(table, tol=1e-9):
    """The pure powers X1^p X2^r and P1^q P2^s are Hermitian words, so their moments in the
    table are real to tol (relative to 1 + |value|)."""
    for key, v in table.entries.items():
        p, q, r, s = key
        if q == 0 and s == 0 or p == 0 and r == 0:
            assert abs(v.imag) <= tol * (1.0 + abs(v)), f"{algebra.key_to_string(key)} = {v} not real"


def lift(single, mode, cfg):
    """The single-mode matrix `single` on mode 1 or 2 of cfg's two-mode space."""
    if mode == 1:
        return np.kron(single, np.eye(cfg.cutoff_2))
    return np.kron(np.eye(cfg.cutoff_1), single)


def letter_matrices(cfg):
    """X1, P1, b1, b1d, X2, P2, b2, b2d as dense matrices."""
    singles = {"X{}": fock.x_single, "P{}": fock.p_single, "b{}": fock.destroy,
               "b{}d": lambda c: fock.destroy(c).conj().T}
    return {name.format(mode): lift(make(mode_cutoff(cfg, mode)), mode, cfg)
            for mode in (1, 2) for name, make in singles.items()}


def displacement(beta, cutoff):
    """Single-mode D(beta) = exp(beta b^dag - conj(beta) b), the D-form oracle's displacement:
    exp of the generator through one eigendecomposition."""
    b = fock.destroy(cutoff)
    w, v = np.linalg.eigh(1j * (beta * b.conj().T - np.conj(beta) * b))  # D = exp(-i h), h Hermitian
    return (v * np.exp(-1j * w)) @ v.conj().T


def coherent_vector(beta, cutoff):
    """Coherent-state amplitudes e^{-|b|^2/2} b^n / sqrt(n!), truncated."""
    amps = np.zeros(cutoff, dtype=complex)
    amps[0] = 1.0
    for k in range(1, cutoff):
        amps[k] = amps[k - 1] * beta / math.sqrt(k)
    return amps * math.exp(-abs(beta) ** 2 / 2.0)


# ---------------------------------------------------------------------------
# factors


def factor(state):
    """The factor of a state's click columns: column x is sum_a E1^a[:, k1_x] x F_a[:, k2_x] s_x
    with F_a = sum_b f[a, b] E2^b."""
    n = len(state.f)
    mode_1 = fock.powers(state.e1, n)
    mode_2 = np.tensordot(state.f, fock.powers(state.e2, n), 1)
    return np.einsum("aix,ajx->ijx", mode_1[:, :, state.k1], mode_2[:, :, state.k2] * state.s)


def columns(a):
    """The factor as a (dim, rank) matrix: rho = columns columns^dag."""
    return a.reshape(-1, a.shape[2])


def density_matrix(a):
    c = columns(a)
    return c @ c.conj().T


def state_from_vector(psi, cfg):
    psi = psi.astype(complex)
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= 1e-8:
        raise ValueError(f"state vector norm {norm:.12g}")
    return (psi / norm).reshape(cfg.cutoff_1, cfg.cutoff_2, 1)


def state_from_rho(rho, cfg):
    """Factor of a dense density matrix: trace, Hermiticity and positivity are checked in
    full, and the factor is taken from its spectrum."""
    if rho.shape != (cfg.dim, cfg.dim):
        raise ValueError(f"rho shape {rho.shape} vs dim {cfg.dim}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > fock.TRACE_TOL:
        raise ValueError(f"trace(rho) = {tr:.12g}, not 1")
    if np.max(np.abs(rho - rho.conj().T)) > HERM_TOL:
        raise ValueError("rho is not Hermitian")
    lam, v = np.linalg.eigh(rho)
    if lam[0] < -PSD_TOL:
        raise ValueError(f"rho has negative eigenvalue {lam[0]:.3g}")
    keep = lam > 0.0
    return (v[:, keep] * np.sqrt(lam[keep])).reshape(cfg.cutoff_1, cfg.cutoff_2, -1)


def on_mode(single, mode, a):
    """Apply a single-mode matrix to one mode of a factor (c1, c2, r)."""
    if mode == 1:
        c1, c2, r = a.shape
        return (single @ a.reshape(c1, c2 * r)).reshape(c1, c2, r)
    if mode == 2:
        return np.matmul(single, a)
    raise ValueError("mode must be 1 or 2")


def partial_trace(a, keep_mode):
    """Reduced density matrix of one mode."""
    if keep_mode not in (1, 2):
        raise ValueError("keep_mode must be 1 or 2")
    a = a if keep_mode == 1 else a.transpose(1, 0, 2)
    a = a.reshape(a.shape[0], -1)
    return a @ a.conj().T


def entanglement_entropy(a):
    """Entropy of the mode-1 reduced state (equals mode 2 for pure states)."""
    return fock.entropy_of_matrix(partial_trace(a, 1))


def fidelity_to_pure(a, psi):
    """<psi| rho |psi> for a normalized reference vector."""
    psi = psi / np.linalg.norm(psi)
    return float(np.sum(np.abs(psi.conj() @ columns(a)) ** 2))


def moments_raw(a, order_max):
    """The canonical moments of a factor (unnormalised) from shifted overlaps.

    <M1 x M2> = sum_{i,j,k,l} M1[i, k] M2[j, l] sum_x conj(A[i, j, x]) A[k, l, x]. Words of
    order <= n are banded on both modes, so with k = i + d1, l = j + d2 every moment of order
    <= n is a sum over |d1| + |d2| <= n of diag(M1, d1) O_d diag(M2, d2)^T with the shifted
    overlaps O_d[i, j] = sum_x conj(A[i, j, x]) A[i + d1, j + d2, x] (both indexed from the
    first valid row and column). O_{-d} is the conjugate of O_d in that indexing, so only
    the half plane (d1 > 0, or d1 = 0 and d2 >= 0) is computed."""
    c1, c2 = a.shape[:2]
    m1 = algebra._word_matrices(c1, order_max)
    m2 = algebra._word_matrices(c2, order_max)

    def part(d1, d2, overlap):
        return np.diagonal(m1, d1, 1, 2) @ overlap @ np.diagonal(m2, d2, 1, 2).T

    grid = 0
    for d1 in range(min(order_max, c1 - 1) + 1):
        reach = min(order_max - d1, c2 - 1)
        for d2 in range(-reach if d1 else 0, reach + 1):
            lo, hi = max(0, -d2), c2 - max(0, d2)
            overlap = np.vecdot(a[: c1 - d1, lo:hi], a[d1:, lo + d2 : hi + d2])
            grid = grid + part(d1, d2, overlap)
            if d1 or d2:
                grid = grid + part(-d1, -d2, overlap.conj())
    i1, i2 = algebra._grid_index(order_max)
    return algebra.MomentTable(grid[i1, i2], order_max)


def pure_cat_state(mu, phi, configuration, cfg):
    """Ground-state-limit cat state as a rank-1 factor, built from analytic coherent amplitudes."""
    beta = 1j * mu / math.sqrt(2.0)
    c1 = coherent_vector(beta, cfg.cutoff_1)
    c2 = coherent_vector(beta, cfg.cutoff_2)
    v1 = np.zeros(cfg.cutoff_1, dtype=complex)
    v1[0] = 1.0
    v2 = np.zeros(cfg.cutoff_2, dtype=complex)
    v2[0] = 1.0
    if configuration == herald.PARALLEL:
        psi = np.kron(c1, v2) + np.exp(1j * phi) * np.kron(v1, c2)
    elif configuration == herald.SERIES:
        psi = np.kron(c1, c2) + np.exp(1j * phi) * np.kron(v1, v2)
    else:
        raise ValueError(f"unknown configuration {configuration!r}")
    norm_sq = 2.0 * herald.fringe(mu**2 / 2.0, phi)
    if norm_sq < 1e-15:
        raise HeraldImpossible("cat state norm vanishes (dark fringe at mu -> 0)")
    truncation_loss = abs(np.vdot(psi, psi) - norm_sq)
    if truncation_loss > 1e-9 * norm_sq:
        raise CutoffTooSmall(f"cat-state truncation loss {truncation_loss:.3g}")
    return state_from_vector(psi / math.sqrt(norm_sq), cfg)


def port_spectrum(signal, a):
    """Eigenvalues of the real port signal Y1 x 1 + 1 x Y2, for a signal row over
    (X1, P1, X2, P2), and the factor's probability on each eigenvector, from the
    single-mode eigenbases."""
    y = [
        np.real(signal[2 * k]) * fock.x_single(c) + np.real(signal[2 * k + 1]) * fock.p_single(c)
        for k, c in enumerate(a.shape[:2])
    ]
    (w1, v1), (w2, v2) = map(np.linalg.eigh, y)
    amps = on_mode(v1.conj().T, 1, on_mode(v2.conj().T, 2, a))
    return np.add.outer(w1, w2).ravel(), np.sum(np.abs(amps) ** 2, axis=2).ravel()


def sample_port_shots(pathway, port, a, n_samples, seed=None):
    """Per-shot homodyne record for real-coefficient pathways (closed system).

    The port observable is Hermitian only when every phase coefficient is
    real (zetas and phi multiples of pi), the noise row's included: an
    unpulsed slot still injects vacuum noise. Samples are drawn from the
    signal's exact spectral measure plus the Gaussian input noise of the port.
    """
    (signal,), (noise,) = verify._channel_signals([(pathway, port)])
    if np.max(np.abs(np.imag([signal, noise]))) > 1e-12:
        raise ValueError("per-shot sampling requires a real-coefficient pathway")
    w, probs = port_spectrum(signal, a)
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(w), size=n_samples, p=probs)
    noise_sigma = math.sqrt(np.real(np.sum(noise**2)) / 2.0)
    return w[idx] + rng.normal(0.0, noise_sigma, size=n_samples)


# ---------------------------------------------------------------------------
# click columns apart from the protocol


def random_click_state(cfg, seed, rank=None, n=2, decay=2.0):
    """A normalised fock.TwoModeState with random complex f (n x n) and E blocks, neither
    symmetric nor commuting, so its Gram matrix is complex; its columns sit on the `rank`
    lowest flat levels (every level for None). E's rows and the weights s decay as
    e^(-decay level), so the truncation stays small."""
    rng = np.random.default_rng(seed)

    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    e1, e2 = (0.3 * np.exp(-decay * np.arange(c))[:, None] * normal(c, c) for c in (cfg.cutoff_1, cfg.cutoff_2))
    k1, k2 = np.divmod(np.arange(cfg.dim if rank is None else rank), cfg.cutoff_2)
    s = np.exp(-decay * (k1 + k2)) * rng.uniform(0.5, 1.0, k1.size)
    state = fock.TwoModeState(normal(n, n), e1, e2, k1, k2, s)
    return dataclasses.replace(state, s=s / math.sqrt(state.trace))


def unsplit_gram(state):
    """The full Gram matrix G = A^dag A / tr of a state's click columns, whatever the state's
    mode exchange, in the arithmetic of fock.TwoModeState.gram's one-block case: row blocks of
    equal k1, the pairs (a, a') in order after the diagonal part of M_00 = I."""
    n = len(state.f)
    mode_1 = fock.powers(state.e1, n)
    mode_2 = np.tensordot(state.f, fock.powers(state.e2, n), 1)
    k1, k2, s = state.k1, state.k2, state.s
    pairs = [(a, a2) for a in range(n) for a2 in range(n)][1:]
    gram = np.zeros((k1.size, k1.size), dtype=complex)
    cols = s / state.trace
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


def exchange_blocks(gram, state, root_half=math.sqrt(0.5)):
    """A full Gram matrix (float, complex or mpmath objects) of `state`'s kept columns, in the
    bases of fock.TwoModeState.gram: [gram] where the state has no mode exchange, else
    [G+, G-] and the cross block between them. Each entry is b_u^T G b_v with the basis vectors
    b_u = n_u (|u> +- sigma_u |R(u)>) over the representative columns k1 <= k2 (n = 1/2 on a
    diagonal column, which is even, root_half on the others), summed from all four terms, so
    no symmetry of G is assumed; R(u) is found by its levels (k2_u, k1_u)."""
    sign = state._exchange_signs()
    if sign is None:
        return [gram]
    k1, k2 = state.k1, state.k2
    index = {(a, b): x for x, (a, b) in enumerate(zip(k1.tolist(), k2.tolist()))}
    reps = np.flatnonzero(k1 <= k2)
    mirror = np.array([index[k2[x], k1[x]] for x in reps])
    pair = k1[reps] != k2[reps]
    norm = np.where(pair, root_half, 0.5)

    def block(rows, cols, row_sign, col_sign):
        r, c = reps[rows], reps[cols]
        su, sv = row_sign * sign[r][:, None], col_sign * sign[c][None, :]
        terms = (gram[np.ix_(r, c)] + gram[np.ix_(r, mirror[cols])] * sv
                 + su * gram[np.ix_(mirror[rows], c)] + su * sv * gram[np.ix_(mirror[rows], mirror[cols])])
        return norm[rows][:, None] * norm[cols][None, :] * terms

    every, odd = np.arange(reps.size), np.flatnonzero(pair)
    return [block(every, every, 1, 1), block(odd, odd, -1, -1), block(every, odd, 1, -1)]


# ---------------------------------------------------------------------------
# the D-form heralding oracle


def thermal_columns(nbar_1, nbar_2, cfg):
    """The kept thermal columns, independent of fock.thermal_state: flat indices i * cutoff_2 + j
    (ascending) and weights p1_i p2_j of every Fock product, less the smallest products while
    their total mass stays at or below fock.THERMAL_DROP_TOL; every product equal to the
    smallest one kept is kept too."""
    pops = (fock.thermal_populations(nbar, mode_cutoff(cfg, mode)) for mode, nbar in ((1, nbar_1), (2, nbar_2)))
    w = np.outer(*pops).ravel()
    by_size = np.argsort(w, kind="stable")
    smallest = np.min(w[by_size[np.cumsum(w[by_size]) > fock.THERMAL_DROP_TOL]])
    kept = np.flatnonzero(w >= smallest)
    return kept, w[kept]


def dense_thermal_factor(nbar_1, nbar_2, cfg):
    """The thermal factor (c1, c2, r) as a dense array: column x is sqrt(w_x) at kept index x."""
    kept, w = thermal_columns(nbar_1, nbar_2, cfg)
    a = np.zeros((cfg.dim, kept.size), dtype=complex)
    a[kept, np.arange(kept.size)] = np.sqrt(w)
    return a.reshape(cfg.cutoff_1, cfg.cutoff_2, -1)


def plain_arms(params, cfg):
    """The interferometer arms as maps on state factors (c1, c2, r), in D form:
    D1 x 1 and 1 x D2 in parallel, D1 x D2 and 1 in series, D = e^{i mu X}."""
    beta = 1j * params.mu / np.sqrt(2.0)
    d1 = displacement(beta, cfg.cutoff_1)
    d2 = displacement(beta, cfg.cutoff_2)
    if params.configuration == "parallel":
        return (lambda a: on_mode(d1, 1, a)), (lambda a: on_mode(d2, 2, a))
    return (lambda a: on_mode(d1, 1, on_mode(d2, 2, a))), (lambda a: a)


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
    a = plain_click_map(params, outcome, cfg)(dense_thermal_factor(params.nbar_1, params.nbar_2, cfg))
    p = float(np.vdot(a, a).real)
    return a / np.sqrt(p), p
