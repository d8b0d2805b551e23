"""Pulsed homodyne verification pipeline: port statistics, finite-sample
datasets, and iterative order-by-order recovery of mechanical moments.

A pathway sends verification pulses into up to four slots (mode 1 or 2,
read-out time 0 or the damped quarter period), so the slots carry the
letters X1, P1, X2, P2. Each beam-splitter port measures a linear form over
the slot signals with phase coefficients e^{i zeta}; unused slots still
inject vacuum noise, so every port carries one unit of input noise. A
channel, a (pathway, port) pair, is therefore two coefficient rows over
(X1, P1, X2, P2): the signal row, chi included and 0 on unpulsed slots, and
the noise row (`_channel_signals`). Port moments, phase-set selection, the
per-shot sampler and the recovery all read those two rows.

Port moments are linear in the symmetrized sums, and the sums are a per-mode
linear map of the moment vector. Sample moments <P^d> are synthesized
semi-analytically with the exact estimator covariance. The recovery solves
one weighted least-squares system per order for its symmetrized sums, through
one SVD, and unlocks individual moments through the canonical commutation
relations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (Key, MomentTable, apply_mode_map, keys_up_to_order, order_slice,
                      symmetrization_maps)
from .errors import IllConditioned, RankDeficient
from . import fock
from .fock import TwoModeState

SLOTS = ("m1_t0", "m1_tp", "m2_t0", "m2_tp")
PORTS = ("A", "B", "C", "D")

COND_LIMIT = 1e8
RANK_RESIDUAL = 0.25
EXTRA_PHASE_SETS = 3


@dataclass(frozen=True)
class PhaseSet:
    """Controllable phases zeta_1..zeta_4 of one verification run."""

    zeta_1: float = 0.0
    zeta_2: float = 0.0
    zeta_3: float = 0.0
    zeta_4: float = 0.0


@dataclass(frozen=True)
class Pathway:
    """Which slots carry pulses, the phase set, the heralding phase, and chi."""

    pulses: frozenset[str] = frozenset(SLOTS)
    phases: PhaseSet = PhaseSet()
    chi: float = 1.0
    phi: float = math.pi

    def __post_init__(self):
        if not self.pulses:
            raise ValueError("pathway needs at least one pulse")
        for s in self.pulses:
            if s not in SLOTS:
                raise ValueError(f"unknown slot {s!r}")
        if not 0 < self.chi < math.inf:
            raise ValueError("chi must be finite and positive")


def _port_bases(zetas, phi) -> np.ndarray:
    """Transfer coefficients of the four slots into each port, shape (..., port, slot),
    for phase sets zetas[..., :] = (zeta_1, zeta_2, zeta_3, zeta_4)."""
    z1, z2, z3, z4 = np.moveaxis(np.asarray(zetas, dtype=float), -1, 0)
    phi = np.broadcast_to(np.asarray(phi, dtype=float), z1.shape)
    e = lambda x: np.exp(1j * x)  # noqa: E731
    one = np.ones(z1.shape, dtype=complex)
    ports = [
        [e(z3), e(z3 + z1), e(phi), e(phi + z2)],
        [e(z3), e(z3 + z1), -e(phi), -e(phi + z2)],
        [one, -e(z1), -e(phi + z4), -e(phi + z4 + z2)],
        [one, -e(z1), e(phi + z4), -e(phi + z4 + z2)],
    ]
    return 0.5 * np.stack([np.stack(c, axis=-1) for c in ports], axis=-2)


def _channel_signals(channels: list[tuple[Pathway, str]]) -> tuple[np.ndarray, np.ndarray]:
    """The two coefficient rows of each channel over (X1, P1, X2, P2): the signal,
    chi times the port's transfer coefficient on pulsed slots and 0 elsewhere, and
    the input noise, the transfer coefficients themselves (vacuum variance 1/2 per
    slot, so nu = sum(noise^2) / 2)."""
    for _, port in channels:
        if port not in PORTS:
            raise ValueError(f"unknown port {port!r}")
    pathways = [pathway for pathway, _ in channels]
    zetas = np.reshape(
        [(p.phases.zeta_1, p.phases.zeta_2, p.phases.zeta_3, p.phases.zeta_4) for p in pathways], (-1, 4)
    )
    ports = [PORTS.index(port) for _, port in channels]
    noise = _port_bases(zetas, [p.phi for p in pathways])[np.arange(len(channels)), ports]
    pulsed = np.array([[s in p.pulses for s in SLOTS] for p in pathways], dtype=bool)
    chi = np.array([p.chi for p in pathways], dtype=float)
    return np.where(pulsed, chi[:, None] * noise, 0.0), noise


def _coefficient_rows(kappa: np.ndarray, keys, order: int) -> np.ndarray:
    """Coefficient C(order, p+q) kappa^key of S(key) in <(kappa . L)^order>, per channel."""
    keys = np.asarray(keys).reshape(-1, 4)
    powers = np.ones(kappa.shape + (order + 1,), dtype=complex)
    for e in range(1, order + 1):
        powers[..., e] = powers[..., e - 1] * kappa
    rows = np.array([math.comb(order, p + q) for p, q, _, _ in keys], dtype=float)
    for letter in range(4):
        rows = rows * powers[:, letter, keys[:, letter]]
    return rows


def _noise_powers(noise: np.ndarray, d_max: int) -> np.ndarray:
    """Gaussian port-noise moments <N^m> = (m-1)!! nu^(m/2), m = 0..d_max, per noise row."""
    nu = np.sum(noise**2, axis=-1) / 2.0
    out = np.zeros((len(nu), d_max + 1), dtype=complex)
    for m in range(0, d_max + 1, 2):
        out[:, m] = math.prod(range(m - 1, 0, -2)) * nu ** (m // 2)
    return out


def _port_moments(kappa: np.ndarray, noise: np.ndarray, table: MomentTable, d_max: int) -> np.ndarray:
    """<P^d> for d = 1..d_max, one row per channel, from the table's symmetrized sums."""
    sums = apply_mode_map(symmetrization_maps(d_max)[0], table.moments(d_max), d_max)
    mech = np.ones((len(kappa), d_max + 1), dtype=complex)
    for j in range(1, d_max + 1):
        mech[:, j] = _coefficient_rows(kappa, _order_keys(j), j) @ sums[order_slice(j)]
    noise_moments = _noise_powers(noise, d_max)
    out = np.empty((len(kappa), d_max), dtype=complex)
    for d in range(1, d_max + 1):
        out[:, d - 1] = sum(math.comb(d, j) * mech[:, j] * noise_moments[:, d - j] for j in range(d + 1))
    return out


def exact_port_moments(
    pathway: Pathway, port: str, table: MomentTable, d_max: int
) -> np.ndarray:
    """<P_port^d> for d = 1..d_max from the mechanical moment table."""
    return _port_moments(*_channel_signals([(pathway, port)]), table, d_max)[0]


def _sampling_covariance(exact: np.ndarray, d_max: int) -> np.ndarray:
    """N Cov(P^d, P^e) = <P^{d+e}> - <P^d><P^e> for d, e = 1..d_max, per channel row."""
    idx = np.add.outer(np.arange(d_max), np.arange(d_max)) + 1
    return exact[..., idx] - exact[..., :d_max, None] * exact[..., None, :d_max]


# ---------------------------------------------------------------------------
# dataset synthesis


@dataclass
class HomodyneDataset:
    """Sample moments <P^d> (d = 1..d_max) of one pathway/port, with errors."""

    pathway: Pathway
    port: str
    n_samples: int | None
    sample_moments: np.ndarray
    standard_errors: np.ndarray
    seed: int | tuple | None = None

    @property
    def d_max(self) -> int:
        return len(self.sample_moments)

    def to_json(self) -> str:
        ps = self.pathway.phases
        payload = {
            "pathway": {
                "pulses": sorted(self.pathway.pulses),
                "phases": [ps.zeta_1, ps.zeta_2, ps.zeta_3, ps.zeta_4],
                "chi": self.pathway.chi,
                "phi": self.pathway.phi,
            },
            "port": self.port,
            "n_samples": self.n_samples,
            "seed": list(self.seed) if isinstance(self.seed, tuple) else self.seed,
            "sample_moments": [[m.real, m.imag] for m in self.sample_moments],
            "standard_errors": list(map(float, self.standard_errors)),
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "HomodyneDataset":
        payload = json.loads(text)
        p = payload["pathway"]
        pathway = Pathway(
            pulses=frozenset(p["pulses"]),
            phases=PhaseSet(*p["phases"]),
            chi=p["chi"],
            phi=p["phi"],
        )
        seed = payload.get("seed")
        return cls(
            pathway,
            payload["port"],
            payload["n_samples"],
            np.array([complex(re, im) for re, im in payload["sample_moments"]]),
            np.array(payload["standard_errors"]),
            tuple(seed) if isinstance(seed, list) else seed,
        )


_TAN_PI_16 = math.tan(math.pi / 16)


def _factor_complex_symmetric(c: np.ndarray) -> np.ndarray:
    """B = L sqrt(D) with B B^T = C, for complex symmetric C or a stack of them.

    An unpivoted LDL^T factor, so B moves smoothly with C while the pivots
    stay away from zero. A pivot of modulus at most 1e-10 of the largest |C|
    counts as zero and its column of B is zero: dividing by its root would
    turn rounding noise into a factor column (an all-zero C gives B = 0).
    A non-finite pivot, or a residual |B B^T - C| above 1e-8 of the largest
    |C|, raises IllConditioned; so a dropped column that mattered, such as
    the first of [[0, 1], [1, 0]], raises too.

    The roots are taken with arg in (-9 pi/16, 7 pi/16], so their branch cut
    lies along arg(pivot) = 7 pi/8. On the principal cut, the negative real
    axis, sits the pivot of any purely imaginary signal combination, and the
    sign of its column would follow the rounding of its imaginary part.
    """
    a = np.array(c, dtype=complex)
    b = np.zeros_like(a)
    scale = np.max(np.abs(a), axis=(-2, -1))
    for j in range(a.shape[-1]):
        pivot, below = a[..., j, j], a[..., j + 1 :, j]
        if not np.all(np.isfinite(pivot)):
            raise IllConditioned("non-finite pivot in the sampling covariance")
        keep = np.abs(pivot) > 1e-10 * scale
        root = np.sqrt(np.where(keep, pivot, 0.0))
        root = np.where((root.imag > 0) & (root.real <= _TAN_PI_16 * root.imag), -root, root)
        b[..., j, j] = root
        b[..., j + 1 :, j] = np.where(keep[..., None], below / np.where(keep, root, 1.0)[..., None], 0.0)
        col = b[..., j + 1 :, j]
        a[..., j + 1 :, j + 1 :] -= col[..., :, None] * col[..., None, :]
    residual = np.max(np.abs(b @ np.swapaxes(b, -1, -2) - c), axis=(-2, -1))
    bad = ~(residual <= 1e-8 * scale)
    if np.any(bad):
        worst = np.flatnonzero(bad)[0]
        raise IllConditioned(
            f"no LDL^T factor of the sampling covariance: residual "
            f"{np.ravel(residual)[worst]:.3g}, scale {np.ravel(scale)[worst]:.3g}"
        )
    return b


def _port_spectrum(signal: np.ndarray, state: TwoModeState) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the real port signal Y1 x 1 + 1 x Y2, for a signal row over
    (X1, P1, X2, P2), and the state's probability on each eigenvector, from the
    single-mode eigenbases."""
    y = [
        np.real(signal[2 * k]) * fock.x_single(c) + np.real(signal[2 * k + 1]) * fock.p_single(c)
        for k, c in enumerate((state.config.cutoff_1, state.config.cutoff_2))
    ]
    (w1, v1), (w2, v2) = map(np.linalg.eigh, y)
    amps = fock.on_mode(v1.conj().T, 1, fock.on_mode(v2.conj().T, 2, state.factor))
    return np.add.outer(w1, w2).ravel(), np.sum(np.abs(amps) ** 2, axis=2).ravel()


def sample_port_shots(
    pathway: Pathway,
    port: str,
    state: TwoModeState,
    n_samples: int,
    seed: int | None = None,
) -> np.ndarray:
    """Per-shot homodyne record for real-coefficient pathways (closed system).

    The port observable is Hermitian only when every phase coefficient is
    real (zetas and phi multiples of pi), the noise row's included: an
    unpulsed slot still injects vacuum noise. Samples are drawn from the
    signal's exact spectral measure plus the Gaussian input noise of the port.
    """
    (signal,), (noise,) = _channel_signals([(pathway, port)])
    if np.max(np.abs(np.imag([signal, noise]))) > 1e-12:
        raise ValueError("per-shot sampling requires a real-coefficient pathway")
    w, probs = _port_spectrum(signal, state)
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(w), size=n_samples, p=probs)
    noise_sigma = math.sqrt(np.real(np.sum(noise**2)) / 2.0)
    return w[idx] + rng.normal(0.0, noise_sigma, size=n_samples)


# ---------------------------------------------------------------------------
# phase-set selection and recovery


def _order_keys(order: int) -> list[Key]:
    return keys_up_to_order(order)[order_slice(order)]


def _greedy_rows(rows: np.ndarray, rank: int) -> list[int]:
    """Indices of the rows a greedy Gram-Schmidt pass accepts, in row order.

    A row is accepted when its residual against the directions accepted
    before it keeps more than RANK_RESIDUAL of its norm; the pass stops at
    `rank` directions or when no later row qualifies. Rows are projected 64
    at a time, so the work follows the rows actually scanned.
    """
    chunk = 64
    norms = np.linalg.norm(rows, axis=1)
    basis = np.empty((0, rows.shape[1]), dtype=complex)
    accepted: list[int] = []
    start = 0
    while len(accepted) < rank and start < len(rows):
        block, norm = rows[start : start + chunk], norms[start : start + chunk]
        residual = block - (block @ basis.conj().T) @ basis
        left = np.linalg.norm(residual, axis=1)
        hits = np.flatnonzero(left > RANK_RESIDUAL * norm)
        if not hits.size:
            start += len(block)
            continue
        i = hits[0]
        basis = np.vstack([basis, residual[i] / left[i]])
        accepted.append(start + i)
        start += i + 1
    return accepted


def default_phase_sets(target_order: int) -> list[PhaseSet]:
    """Deterministic spanning family of phase sets for the full pathway.

    Candidates run over a pi/4 grid (the pi/2 grid cannot separate, e.g.,
    the X1^4 and P1^4 sums: their coefficients coincide on every port for
    all fourth-root phases). Greedy selection keeps a set if one of its
    port rows adds a sufficiently independent direction at any order that
    is still rank-deficient; orders never share directions, so each order
    is one greedy pass over the rows of all candidates and ports. Once every
    order is complete, the next EXTRA_PHASE_SETS candidates are kept as
    extras to overdetermine the system.

    The sets depend on the target order alone: the heralding phase puts the
    same unit phase e^{i phi (r + s)} on each key column of every candidate
    row, and chi scales every order-d row by chi^d, so neither moves a
    residual-to-norm ratio of the greedy pass. The rows are built at
    phi = 0, chi = 1.
    """
    grid = np.arange(8) * math.pi / 4.0
    z3, z1, z2 = (g.ravel() for g in np.meshgrid(grid, grid, grid, indexing="ij"))
    zetas = np.stack([z1, z2, z3, np.zeros_like(z1)], axis=-1)
    kappa = _port_bases(zetas, 0.0).reshape(-1, 4)  # candidate-then-port rows
    useful = np.zeros(len(zetas), dtype=bool)
    completed = -1  # candidate at which the last order completed
    for d in range(1, target_order + 1):
        keys = _order_keys(d)
        accepted = np.array(_greedy_rows(_coefficient_rows(kappa, keys, d), len(keys)), dtype=int)
        useful[accepted // len(PORTS)] = True
        if completed is not None and len(accepted) == len(keys):
            completed = max(completed, accepted[-1] // len(PORTS))
        else:
            completed = None
    selected = np.flatnonzero(useful)
    if completed is not None:
        extras = np.arange(completed + 1, min(completed + 1 + EXTRA_PHASE_SETS, len(zetas)))
        selected = np.concatenate([selected, extras])
    return [PhaseSet(*map(float, zetas[i])) for i in selected]


def _null_space(a_w: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal rows spanning the null space of a_w (a full SVD: with fewer rows than
    unknowns the reduced V^H has no null rows)."""
    _, s, vh = np.linalg.svd(a_w, full_matrices=True)
    return vh[int(np.sum(s > tol)) :]


def _missing_directions(null: np.ndarray, keys: list[Key]) -> list[Key]:
    """One key per null direction, sorted: greedy pivots on the diagonal of the null-space
    projector N^H N, deflated after each pivot. The projector does not depend on the basis
    the rows of N give it, and a diagonal entry within 1e-9 relative of the largest goes to
    the key listed first."""
    proj = null.conj().T @ null
    picked = []
    for _ in range(len(null)):
        diag = proj.diagonal().real
        k = int(np.argmax(diag >= (1.0 - 1e-9) * diag.max()))
        picked.append(keys[k])
        proj = proj - np.outer(proj[:, k], proj[k]) / diag[k]
    return sorted(picked)


def recover_moments(datasets: list[HomodyneDataset], target_order: int) -> MomentTable:
    """Iterative order-by-order least-squares recovery of canonical moments.

    Each order is one weighted solve A_w x = b_w for its symmetrized sums
    (weights 1/se, lower orders moved to b). One reduced SVD A_w = U diag(s) V^H
    gives the rank and condition number, the solution V diag(1/s) U^H b_w, refined
    by one step on its residual (x += V diag(1/s) U^H (b_w - A_w x), about a digit
    for noiseless data), and the sums' standard errors as the row norms of
    V diag(1/s); forming (A_w^H A_w)^-1 instead would square the condition number.

    Solved in complex arithmetic: for an evolved table the symmetrized
    sums carry small imaginary parts (the decoherence map does not preserve
    commutators), and the complex solve inverts the synthesis exactly.
    Uncertainties are propagated to first order, neglecting correlations
    between orders.
    """
    if not datasets:
        raise ValueError("no datasets supplied")
    kappa, noise = _channel_signals([(ds.pathway, ds.port) for ds in datasets])
    noise_moments = _noise_powers(noise, target_order)
    covered = np.array([ds.d_max for ds in datasets])
    # recovered <(sum_s kappa_s L_s)^j> of every channel, order by order
    mech = np.ones((len(datasets), target_order + 1), dtype=complex)
    sym, sym_sq = symmetrization_maps(target_order)
    values = np.zeros(math.comb(target_order + 4, 4), dtype=complex)
    values[0] = 1.0
    errors = np.zeros(len(values))
    for order in range(1, target_order + 1):
        keys = _order_keys(order)
        use = np.flatnonzero(covered >= order)
        if not use.size:
            raise RankDeficient(f"no datasets cover order {order}", keys)
        known = sum(
            math.comb(order, j) * mech[use, j] * noise_moments[use, order - j] for j in range(order)
        )
        a = _coefficient_rows(kappa[use], keys, order)
        b = np.array([datasets[i].sample_moments[order - 1] for i in use]) - known
        se = np.array([datasets[i].standard_errors[order - 1] for i in use])
        pos = se > 0
        w = np.empty(len(use))
        w[pos] = 1.0 / se[pos]
        w[~pos] = w[pos].max() * 10.0 if pos.any() else 1.0
        a_w = a * w[:, None]
        u, svals, vh = np.linalg.svd(a_w, full_matrices=False)
        tol = svals[0] * max(a_w.shape) * np.finfo(float).eps
        rank = int(np.sum(svals > tol))
        if rank < len(keys):
            raise RankDeficient(
                f"order {order}: rank {rank} < {len(keys)} unknowns",
                _missing_directions(_null_space(a_w, tol), keys),
            )
        cond = svals[0] / svals[-1]
        if cond > COND_LIMIT:
            raise IllConditioned(f"order {order}: condition number {cond:.3g}")
        v_scaled = vh.conj().T / svals
        b_w = b * w
        sol = v_scaled @ (u.conj().T @ b_w)
        sol += v_scaled @ (u.conj().T @ (b_w - a_w @ sol))
        sum_errors = np.linalg.norm(v_scaled, axis=1)
        mech[use, order] = a @ sol
        # unlock individual canonical moments through the commutators (the
        # entries of this order are still zero: the maps give the lower part)
        block = order_slice(order)
        lower = apply_mode_map(sym, values, target_order)[block]
        lower_var = apply_mode_map(sym_sq, errors**2, target_order)[block].real
        n_words = np.array([math.comb(p + q, p) * math.comb(r + s, r) for p, q, r, s in keys])
        values[block] = (sol - lower) / n_words
        errors[block] = np.sqrt(sum_errors**2 + lower_var) / n_words
    n_samples = min(
        (ds.n_samples for ds in datasets if ds.n_samples is not None), default=None
    )
    return MomentTable(
        values, target_order, provenance="recovered", n_samples=n_samples, errors=errors, evolved=True
    )


# ---------------------------------------------------------------------------


@dataclass
class VerificationRun:
    """Bundle of everything one simulated verification campaign produced."""

    exact_table: MomentTable
    recovered_table: MomentTable
    datasets: list[HomodyneDataset] = field(default_factory=list)

    def max_abs_deviation(self) -> float:
        # Python abs, not np.abs: numpy rounds complex moduli differently in the last bit
        rec = self.recovered_table
        return max(map(abs, (rec.values - self.exact_table.moments(rec.order_max)).tolist()))


class VerificationStudy:
    """Precomputed campaign over every (phase set, port) of the full pathway.

    Exact port moments and the LDL^T factors of all sampling covariances are
    computed once, as stacked arrays; repeated Monte-Carlo draws then only
    add noise and re-run the recovery.
    """

    def __init__(
        self,
        table: MomentTable,
        phi: float,
        chi: float = 1.0,
        target_order: int = 4,
        phase_sets: list[PhaseSet] | None = None,
    ):
        if not 0 < chi < math.inf:
            raise ValueError(f"chi = {chi} must be finite and positive")
        if target_order < 1:
            raise ValueError(f"target_order = {target_order} must be >= 1")
        if phase_sets is None:
            phase_sets = default_phase_sets(target_order)
        if not phase_sets:
            raise ValueError("the study needs at least one phase set")
        self.table = table
        self.target_order = target_order
        self.channels = [
            (Pathway(phases=ps, chi=chi, phi=phi), port) for ps in phase_sets for port in PORTS
        ]
        exact = _port_moments(*_channel_signals(self.channels), table, 2 * target_order)
        cov = _sampling_covariance(exact, target_order)
        self.exact = exact[:, :target_order]
        self.variances = np.abs(np.diagonal(cov, axis1=-2, axis2=-1))
        self.factors = _factor_complex_symmetric(cov)

    def datasets(
        self, n_samples: int | None = None, seed: int | tuple | None = None
    ) -> list[HomodyneDataset]:
        """One dataset per channel: the exact moments plus, for finite n_samples,
        correlated estimation noise B z / sqrt(N) with z from the stream (seed, channel)."""
        if n_samples is not None and n_samples < 1:
            raise ValueError(f"n_samples = {n_samples} must be >= 1")
        order = self.target_order
        out = []
        for stream, (pathway, port) in enumerate(self.channels):
            exact = self.exact[stream]
            if n_samples is None:
                out.append(HomodyneDataset(pathway, port, None, exact.copy(), np.zeros(order), seed))
                continue
            ses = np.sqrt(self.variances[stream] / n_samples)
            rng = np.random.default_rng(None if seed is None else (seed, stream))
            noise = (self.factors[stream] / math.sqrt(n_samples)) @ rng.standard_normal(order)
            out.append(HomodyneDataset(pathway, port, n_samples, exact + noise, ses, seed))
        return out

    def run(
        self, n_samples: int | None = None, seed: int | tuple | None = None
    ) -> VerificationRun:
        datasets = self.datasets(n_samples, seed)
        recovered = recover_moments(datasets, self.target_order)
        return VerificationRun(
            exact_table=self.table, recovered_table=recovered, datasets=datasets
        )

