"""Pulsed homodyne verification pipeline: port statistics, finite-sample
moments, and iterative order-by-order recovery of mechanical moments.

A verification run sends four pulses, one per mode at read-out time 0 and at
the damped quarter period, so the slots carry the letters X1, P1, X2, P2, and
their phase set zeta_1..zeta_4 fixes what each beam-splitter port measures: a
linear form over the slot signals with phase coefficients e^{i zeta}, plus one
unit of vacuum input noise. A channel, a (phase set, port) pair, is therefore
two coefficient rows over (X1, P1, X2, P2): the noise row, the port's transfer
coefficients (_port_bases), and the signal row, chi times it. Port moments and
the recovery read what they need of those rows from one `ChannelRows`, built
once per study: per order the keys, coefficient rows and word counts, and the
port-noise moments. Any other channel, such as one whose pathway leaves a slot
unpulsed (a zero column of its signal row), is its own `ChannelRows`.

Port moments are linear in the symmetrized sums, and the sums are a per-mode
linear map of the moment vector. Sample moments <P^d> are synthesized
semi-analytically with the exact estimator covariance, as one (channel, order)
array per run. The recovery solves one weighted least-squares system per order
for its symmetrized sums and unlocks individual moments through the canonical
commutation relations. Everything of it that the sample moments do not move (the
weights, each order's one SVD and its checks, the recovered standard errors) is
a `RecoveryPlan`, built once per study and N; a seeded run only solves against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (D_MAX, Key, MomentTable, apply_mode_map, keys_up_to_order, order_slice,
                      symmetrization_maps)
from .errors import IllConditioned, NonFiniteValue, OrderOverflow, RankDeficient

PORTS = ("A", "B", "C", "D")

COND_LIMIT = 1e8


@dataclass(frozen=True)
class PhaseSet:
    """Controllable phases zeta_1..zeta_4 of one verification run."""

    zeta_1: float = 0.0
    zeta_2: float = 0.0
    zeta_3: float = 0.0
    zeta_4: float = 0.0


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


class ChannelRows:
    """What the port moments and the recovery read of a set of channels, built once for
    port-moment orders 1..d_max: the channels' signal and noise rows `kappa` and `noise`
    (channel x slot, one row over (X1, P1, X2, P2) each); per order d, its symmetrized-sum
    keys `keys[d]`, the coefficient rows `coefficients[d]` (channel x key, _coefficient_rows)
    and the number of canonical words of each key `n_words[d]`; and the Gaussian port-noise
    moments <N^m>, m = 0..d_max (`noise_moments`, channel x m). None of it depends on the
    moments, the seed or N."""

    def __init__(self, kappa: np.ndarray, noise: np.ndarray, d_max: int):
        if kappa.shape[1:] != (4,) or noise.shape != kappa.shape:
            raise ValueError(f"signal and noise rows need shape (channels, 4), not {kappa.shape} and {noise.shape}")
        self.kappa, self.noise, self.d_max = kappa, noise, d_max
        self.keys = {d: _order_keys(d) for d in range(1, d_max + 1)}
        self.coefficients = {d: _coefficient_rows(kappa, keys, d) for d, keys in self.keys.items()}
        self.n_words = {d: np.array([math.comb(p + q, p) * math.comb(r + s, r) for p, q, r, s in keys])
                        for d, keys in self.keys.items()}
        self.noise_moments = _noise_powers(noise, d_max)

    def truncate(self, d_max: int) -> None:
        """Drop every order above d_max, in place: nothing is recomputed."""
        for table in (self.keys, self.coefficients, self.n_words):
            for d in range(d_max + 1, self.d_max + 1):
                del table[d]
        self.noise_moments = self.noise_moments[:, : d_max + 1].copy()
        self.d_max = d_max


def _port_moments(rows: ChannelRows, table: MomentTable) -> np.ndarray:
    """<P^d> for d = 1..rows.d_max, one row per channel, from the table's symmetrized sums."""
    d_max = rows.d_max
    sums = apply_mode_map(symmetrization_maps(d_max)[0], table.moments(d_max), d_max)
    mech = np.ones((len(rows.kappa), d_max + 1), dtype=complex)
    for j in range(1, d_max + 1):
        mech[:, j] = rows.coefficients[j] @ sums[order_slice(j)]
    out = np.empty((len(rows.kappa), d_max), dtype=complex)
    for d in range(1, d_max + 1):
        out[:, d - 1] = sum(math.comb(d, j) * mech[:, j] * rows.noise_moments[:, d - j] for j in range(d + 1))
    return out


def _sampling_covariance(exact: np.ndarray, d_max: int) -> np.ndarray:
    """N Cov(P^d, P^e) = <P^{d+e}> - <P^d><P^e> for d, e = 1..d_max, per channel row."""
    idx = np.add.outer(np.arange(d_max), np.arange(d_max)) + 1
    return exact[..., idx] - exact[..., :d_max, None] * exact[..., None, :d_max]


# ---------------------------------------------------------------------------
# sampling noise


def _entropy_words(seed) -> list[int]:
    """The uint32 words numpy's SeedSequence takes from `seed` as its entropy: a non-negative
    integer as its little-endian 32-bit words (0 as one word), a decimal or 0x-hex string as
    that integer, and a sequence as its items' words in turn (nested sequences flattened).
    A negative integer raises ValueError and a float TypeError, as numpy does."""
    if isinstance(seed, str):
        seed = int(seed, 16) if seed.startswith("0x") else int(seed)
    if isinstance(seed, (int, np.integer)):
        n = int(seed)
        if n < 0:
            raise ValueError("expected non-negative integer")
        words = [n & 0xFFFFFFFF]
        while n := n >> 32:
            words.append(n & 0xFFFFFFFF)
        return words
    if isinstance(seed, (float, np.inexact)):
        raise TypeError("seed must be integer")
    return [word for item in seed for word in _entropy_words(item)]


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


# ---------------------------------------------------------------------------
# phase-set selection and recovery


def _order_keys(order: int) -> list[Key]:
    return keys_up_to_order(order)[order_slice(order)]


# (zeta_1, zeta_2, zeta_3) of each default phase set in units of pi/4, zeta_4 = 0
_DEFAULT_PHASE_STEPS = {
    1: ((0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0)),
    2: ((0, 0, 0), (0, 1, 0), (2, 0, 0), (0, 0, 2), (0, 1, 2), (0, 2, 2), (0, 3, 2)),
    3: ((0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 0, 0), (1, 2, 0), (2, 0, 0), (0, 0, 2),
        (1, 4, 2), (3, 3, 2), (3, 4, 2), (3, 5, 2), (3, 6, 2)),
    4: ((0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0), (0, 4, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0),
        (2, 0, 0), (2, 2, 0), (0, 0, 1), (0, 2, 1), (1, 3, 1), (2, 0, 1), (2, 3, 1), (5, 3, 1),
        (0, 0, 2), (1, 4, 2), (3, 3, 2), (4, 1, 2)),
}


def _check_target_order(target_order: int) -> None:
    """Target orders run from 1 to D_MAX / 2: the sampling covariances need port moments
    of order 2 x target_order."""
    if target_order < 1:
        raise ValueError(f"target_order = {target_order} must be >= 1")
    if 2 * target_order > D_MAX:
        raise OrderOverflow(
            f"target_order = {target_order} needs port moments of order {2 * target_order} > d_max={D_MAX}"
        )


def default_phase_sets(target_order: int) -> list[PhaseSet]:
    """Deterministic spanning family of phase sets for the full pathway, for target
    orders 1 to 4; ValueError below, OrderOverflow above (_check_target_order).

    The four lists are the output of a greedy selection rule, held as data. Candidates
    run over a pi/4 grid, zeta_3 slowest and zeta_2 fastest, with zeta_4 = 0 (the pi/2
    grid cannot separate, e.g., the X1^4 and P1^4 sums: their coefficients coincide on
    every port for all fourth-root phases). A candidate is kept if one of its port rows
    keeps more than 0.25 of its norm against the directions already accepted at an order
    that is still rank-deficient; orders never share directions. Once every order is
    complete, the next three candidates are kept as extras to overdetermine the system.

    The rule selects the same sets at every heralding phase and chi: phi puts the same
    unit phase e^{i phi (r + s)} on each key column of every candidate row, and chi
    scales every order-d row by chi^d, so neither moves a residual-to-norm ratio.
    tests/test_verify.py::_reference_phase_sets runs the rule and regenerates every list.
    """
    _check_target_order(target_order)
    return [
        PhaseSet(a * math.pi / 4.0, b * math.pi / 4.0, c * math.pi / 4.0, 0.0)
        for a, b, c in _DEFAULT_PHASE_STEPS[target_order]
    ]


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


def _row_weights(se: np.ndarray) -> np.ndarray:
    """1/se per row; a row with se = 0 gets ten times the largest weight, and all get 1 where
    every se is 0 (noiseless data)."""
    pos = se > 0
    w = np.empty(len(se))
    w[pos] = 1.0 / se[pos]
    w[~pos] = w[pos].max() * 10.0 if pos.any() else 1.0
    return w


def _check_spectrum(a_w: np.ndarray, svals: np.ndarray, keys: list[Key], order: int) -> dict:
    """RankDeficient below full column rank, IllConditioned above COND_LIMIT, from the singular
    values of one order's weighted system; else that order's channel count, rank and
    condition number."""
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
    return {"order": order, "channels": len(a_w), "rank": rank, "condition_number": float(cond)}


class RecoveryPlan:
    """What the recovery of a set of channels reads that the sample moments do not move, built
    once for their standard errors (channel x order, all zero for noiseless data: every row
    then weighs 1; a study's errors at one N are the same for every seed).

    Per order d, over the channels of `rows` (ChannelRows, d_max at least the target order):
    the row weights `weights[d]` (1/se), the weighted matrix `a_w[d]` and, from its one
    reduced SVD A_w = U diag(s) V^H, `uh[d]` = U^H and `v_scaled[d]` = V diag(1/s), taken
    once the spectrum has passed (_check_spectrum: RankDeficient or IllConditioned
    otherwise); `spectra` holds each order's channel count, rank and condition number.
    `errors` are the recovered table's standard errors, the row norms of V diag(1/s)
    propagated through the commutators order by order: they follow from the plan alone.

    check_errors, when given, are errors the systems must also pass the spectrum check
    at, before the plan's own (the noiseless run's rule, with the errors of one sample);
    their spectra are kept as `checked`, else `checked` is None.
    """

    def __init__(self, rows: ChannelRows, standard_errors: np.ndarray, check_errors: np.ndarray | None = None):
        if not len(rows.kappa):
            raise ValueError("no channels supplied")
        if standard_errors.ndim != 2 or len(standard_errors) != len(rows.kappa):
            raise ValueError("the channel rows and standard errors need one row per channel")
        target_order = standard_errors.shape[1]
        if target_order > rows.d_max:
            raise ValueError(f"target order {target_order} is above the rows' d_max = {rows.d_max}")
        self.rows, self.shape, self.target_order = rows, standard_errors.shape, target_order
        orders = range(1, target_order + 1)
        self.checked = None
        if check_errors is not None:
            self.checked = []
            for order in orders:
                a_c = rows.coefficients[order] * _row_weights(check_errors[:, order - 1])[:, None]
                self.checked.append(
                    _check_spectrum(a_c, np.linalg.svd(a_c, compute_uv=False), rows.keys[order], order)
                )
        sym_sq = symmetrization_maps(target_order)[1]
        self.weights, self.a_w, self.uh, self.v_scaled, self.spectra = {}, {}, {}, {}, []
        errors = np.zeros(math.comb(target_order + 4, 4))
        for order in orders:
            w = _row_weights(standard_errors[:, order - 1])
            a_w = rows.coefficients[order] * w[:, None]
            u, svals, vh = np.linalg.svd(a_w, full_matrices=False)
            self.spectra.append(_check_spectrum(a_w, svals, rows.keys[order], order))
            v_scaled = vh.conj().T / svals
            self.weights[order], self.a_w[order], self.uh[order], self.v_scaled[order] = w, a_w, u.conj().T, v_scaled
            # the entries of this order are still zero: the map gives the lower part
            block = order_slice(order)
            lower_var = apply_mode_map(sym_sq, errors**2, target_order)[block].real
            errors[block] = np.sqrt(np.linalg.norm(v_scaled, axis=1) ** 2 + lower_var) / rows.n_words[order]
        self.errors = errors


def recover_moments(plan: RecoveryPlan, sample_moments: np.ndarray, n_samples: int | None = None) -> MomentTable:
    """Iterative order-by-order least-squares recovery of canonical moments.

    The channels are the rows of sample_moments, their <P^d> for d = 1..target_order, in the
    order of the plan's channel rows; the plan (RecoveryPlan) holds everything the sample
    moments do not move, built once for their standard errors. n_samples is recorded on
    the recovered table.

    Each order is one weighted solve A_w x = b_w for its symmetrized sums
    (weights 1/se, lower orders moved to b), through the plan's reduced SVD
    A_w = U diag(s) V^H: the solution V diag(1/s) U^H b_w, refined by one step on its
    residual (x += V diag(1/s) U^H (b_w - A_w x), about a digit for noiseless data).
    The sums' standard errors, the row norms of V diag(1/s), are the plan's;
    forming (A_w^H A_w)^-1 instead would square the condition number.

    Solved in complex arithmetic: for an evolved table the symmetrized
    sums carry small imaginary parts (the decoherence map does not preserve
    commutators), and the complex solve inverts the synthesis exactly.
    Uncertainties are propagated to first order, neglecting correlations
    between orders.
    """
    if sample_moments.shape != plan.shape:
        raise ValueError("the sample moments need the plan's shape: one row per channel, one column per order")
    rows, target_order = plan.rows, plan.target_order
    # recovered <(sum_s kappa_s L_s)^j> of every channel, order by order
    mech = np.ones((len(rows.kappa), target_order + 1), dtype=complex)
    sym = symmetrization_maps(target_order)[0]
    values = np.zeros(math.comb(target_order + 4, 4), dtype=complex)
    values[0] = 1.0
    for order in range(1, target_order + 1):
        a_w, uh, v_scaled = plan.a_w[order], plan.uh[order], plan.v_scaled[order]
        known = sum(math.comb(order, j) * mech[:, j] * rows.noise_moments[:, order - j] for j in range(order))
        b_w = (sample_moments[:, order - 1] - known) * plan.weights[order]
        sol = v_scaled @ (uh @ b_w)
        sol += v_scaled @ (uh @ (b_w - a_w @ sol))
        mech[:, order] = rows.coefficients[order] @ sol
        # unlock individual canonical moments through the commutators (the
        # entries of this order are still zero: the map gives the lower part)
        block = order_slice(order)
        values[block] = (sol - apply_mode_map(sym, values, target_order)[block]) / rows.n_words[order]
    return MomentTable(
        values, target_order, provenance="recovered", n_samples=n_samples, errors=plan.errors, evolved=True
    )


# ---------------------------------------------------------------------------


@dataclass
class VerificationRun:
    """Bundle of everything one simulated verification campaign produced."""

    exact_table: MomentTable
    recovered_table: MomentTable

    def max_abs_deviation(self) -> float:
        # Python abs, not np.abs: numpy rounds complex moduli differently in the last bit
        rec = self.recovered_table
        return max(map(abs, (rec.values - self.exact_table.moments(rec.order_max)).tolist()))


class VerificationStudy:
    """Precomputed campaign over every (phase set, port) of the full pathway.

    `channels` lists the (PhaseSet, port) pairs, set-major, and `rows` (ChannelRows)
    their noise rows, the ports' transfer coefficients at phi, and signal rows, chi
    times those; the orders up to 2 x target_order that the exact port moments need
    are built here and dropped once those are taken. `exact` holds the channels' exact
    port moments, `variances` their per-sample variances and `factors` the LDL^T factors
    of their sampling covariances, all computed once as stacked arrays; repeated
    Monte-Carlo draws then only add noise and solve. What depends on N alone, the
    recovery plan, is built on the first run at that N (`plan`) and kept. A non-finite
    phi or zeta raises ValueError before any port moment is built, and port moments or
    covariances that overflow raise NonFiniteValue.
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
        if not math.isfinite(phi):
            raise ValueError(f"phi = {phi} must be finite")
        _check_target_order(target_order)
        if phase_sets is None:
            phase_sets = default_phase_sets(target_order)
        if not phase_sets:
            raise ValueError("the study needs at least one phase set")
        zetas = np.array([(ps.zeta_1, ps.zeta_2, ps.zeta_3, ps.zeta_4) for ps in phase_sets], dtype=float)
        if not np.all(np.isfinite(zetas)):
            k, j = np.argwhere(~np.isfinite(zetas))[0]
            raise ValueError(f"zeta_{j + 1} = {zetas[k, j]} of phase set {k} must be finite")
        self.table = table
        self.target_order = target_order
        self.channels = [(ps, port) for ps in phase_sets for port in PORTS]
        noise = _port_bases(zetas, phi).reshape(-1, 4)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is named below
            self.rows = ChannelRows(chi * noise, noise, 2 * target_order)
            exact = _port_moments(self.rows, table)
            cov = _sampling_covariance(exact, target_order)
        if not (np.all(np.isfinite(exact)) and np.all(np.isfinite(cov))):
            raise NonFiniteValue(f"the port moments or covariances are not finite at chi = {chi:g}, phi = {phi:g}")
        self.rows.truncate(target_order)
        self.exact = exact[:, :target_order]
        self.variances = np.abs(np.diagonal(cov, axis1=-2, axis2=-1))
        self.factors = _factor_complex_symmetric(cov)
        self._plans: dict[int | None, RecoveryPlan] = {}

    def _standard_errors(self, n_samples: int | None) -> np.ndarray:
        if n_samples is None:
            return np.zeros(self.exact.shape)
        if n_samples < 1:
            raise ValueError(f"n_samples = {n_samples} must be >= 1")
        return np.sqrt(self.variances / n_samples)

    def sample_moments(
        self, n_samples: int | None = None, seed: int | tuple | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The sample moments <P^d> (d = 1..target_order) of every channel, one row each, and
        their standard errors: the exact moments with zero errors for n_samples None, else plus
        correlated estimation noise factors[k] z / sqrt(N) on channel k, with z from the stream
        default_rng((seed, k)), or default_rng() for seed None. The seed's entropy words are
        taken once per call (_entropy_words) and channel k's generator is seeded with them and k,
        which is default_rng((seed, k)) bit for bit."""
        errors = self._standard_errors(n_samples)
        if n_samples is None:
            return self.exact.copy(), errors
        if seed is None:
            streams = (np.random.default_rng() for _ in self.channels)
        else:
            words = _entropy_words(seed)
            entropy = (np.array([*words, k], dtype=np.uint32) for k in range(len(self.channels)))
            streams = (np.random.Generator(np.random.PCG64(np.random.SeedSequence(e))) for e in entropy)
        z = np.array([stream.standard_normal(self.target_order) for stream in streams])
        # a stacked matrix-vector product: per channel the same arithmetic as factors[k] @ z[k]
        noise = np.matmul(self.factors / math.sqrt(n_samples), z[..., None])[..., 0]
        return self.exact + noise, errors

    def plan(self, n_samples: int | None = None) -> RecoveryPlan:
        """The recovery plan of the runs at n_samples, built on the first call at that value
        and kept; a plan whose spectrum check raises is not kept, so every call raises.
        The noiseless plan (None) weighs every row 1 in its own solve, but is held to the
        seeded runs' rule too: each order's system weighted by the sampling errors must have
        full rank and a condition number within COND_LIMIT (the weights 1/sqrt(variance) of
        one sample; N scales them all alike), checked once, as its `checked`. Without that
        check, where chi^d sits below the rounding of the port-noise moments, the noiseless
        run would return a wrong table with no error."""
        plan = self._plans.get(n_samples)
        if plan is None:
            check = np.sqrt(self.variances) if n_samples is None else None
            plan = self._plans[n_samples] = RecoveryPlan(self.rows, self._standard_errors(n_samples), check)
        return plan

    def run(
        self, n_samples: int | None = None, seed: int | tuple | None = None
    ) -> VerificationRun:
        """One campaign: sample moments (exact for n_samples None) and their recovery against
        the study's plan at n_samples (`plan`)."""
        moments, _ = self.sample_moments(n_samples, seed)
        recovered = recover_moments(self.plan(n_samples), moments, n_samples)
        return VerificationRun(exact_table=self.table, recovered_table=recovered)
