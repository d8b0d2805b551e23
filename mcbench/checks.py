"""Correctness checks, each against a reference computed apart from the
program or against a property the method must have.

Every check returns ``(failures, errors)``: a list of failure messages
(empty when the check passes) and the relative errors it measured, from
which the run takes ``accuracy_digits``. The benchmark's tests feed each
check a corrupted output and expect a failure.
"""

from __future__ import annotations

import math

import numpy as np

MPMATH_DIGITS = 50

# Tolerances: each sits well above what working code reaches today and well
# below the effect of a wrong sign, a wrong formula or a shifted value.
S3_CLOSED_TOL = 0.05  # relative; the closed form loses digits at mu <= 5e-5
FOCK_MAP_TOL = 1e-6  # relative, map point vs Fock path
NOISELESS_TOL = 1e-9  # |recovered - exact| / (1 + |exact|)
BIAS_Z_MAX = 7.0  # t statistic of the seed mean against the exact moment
SPREAD_RANGE = (1.0 / 3.0, 3.0)  # seed spread / propagated std_errors (see README)
PROBABILITY_TOL = 1e-8  # relative
MOMENT_TOL = 1e-5  # |fock - closed| / (1 + |closed|)
DELTA_TOL = 1e-6  # relative, delta vs Gaussian entropy at nbar = 0
ORACLE_TOL = 1e-5  # relative
ROOT_STEP = 1e-6  # relative step either side of a cooling-map root


def s3_ground_reference(mu: float, phi: float) -> float:
    """-mu^6 e^{-mu^2} / [64 (1 + e^{-mu^2/2} cos phi)^3] at 50 digits."""
    import mpmath

    with mpmath.workdps(MPMATH_DIGITS):
        m, p = mpmath.mpf(mu), mpmath.mpf(phi)
        den = 1 + mpmath.exp(-m * m / 2) * mpmath.cos(p)
        return float(-(m**6) * mpmath.exp(-m * m) / (64 * den**3))


def _rel(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    return abs(value - ref) / abs(ref) if ref != 0.0 else math.inf


def check_closed_s3(rows: list[dict]) -> tuple[list[str], list[float]]:
    """Closed-system S3 map against the 50-digit closed form; signs must agree."""
    failures, errors = [], []
    for row in rows:
        ref = s3_ground_reference(row["mu"], row["phi"])
        err = _rel(row["value"], ref)
        errors.append(err)
        if not err <= S3_CLOSED_TOL or (row["value"] < 0) != (ref < 0):
            failures.append(f"closed S3 at mu={row['mu']:.3g}, phi={row['phi']:.3g}: "
                            f"{row['value']:.6g} vs {ref:.6g}")
    return failures, errors


def check_cooling_roots(rows: list[dict], s3) -> tuple[list[str], list[float]]:
    """Each root brackets a sign change of S3; non-verifiable rows have S3(0) >= 0.

    ``s3(mu, nbar, nbar_bath)`` evaluates S3 after the open-system delays.
    """
    failures = []
    for row in rows:
        mu, nb, root = row["mu"], row["nbar_bath"], row["nbar_max"]
        if row["verifiable"]:
            step = ROOT_STEP * root + 1e-12
            below, above = s3(mu, max(root - step, 0.0), nb), s3(mu, root + step, nb)
            if not (below < 0.0 < above):
                failures.append(f"cooling root mu={mu:.3g}, nbar_bath={nb:.4g}: "
                                f"S3 {below:.3g} .. {above:.3g} does not change sign at {root:.6g}")
        elif not s3(mu, 0.0, nb) >= 0.0:
            failures.append(f"cooling row mu={mu:.3g}, nbar_bath={nb:.4g} marked non-verifiable "
                            f"but S3(0) < 0")
    return failures, []


def check_pairs(label: str, pairs: list[tuple[float, float]], tol: float) -> tuple[list[str], list[float]]:
    """Relative agreement of (computed, reference) pairs."""
    failures, errors = [], []
    for value, ref in pairs:
        err = _rel(value, ref)
        errors.append(err)
        if not err <= tol:
            failures.append(f"{label}: {value!r} vs reference {ref!r} (rel {err:.3g} > {tol:g})")
    return failures, errors


def _unit_errors(computed: np.ndarray, reference: np.ndarray) -> np.ndarray:
    return np.abs(computed - reference) / (1.0 + np.abs(reference))


def check_table(label: str, computed, reference, tol: float) -> tuple[list[str], list[float]]:
    """Moment tables (complex arrays over the same keys), error relative to 1 + |value|."""
    err = _unit_errors(np.asarray(computed), np.asarray(reference))
    worst = float(np.max(err)) if err.size else 0.0
    if not np.all(np.isfinite(err)) or worst > tol:
        return [f"{label}: worst moment error {worst:.3g} > {tol:g}"], [worst]
    return [], [worst]


def check_unbiased(label: str, exact, noisy) -> tuple[list[str], list[float]]:
    """Seed means of the recovered moments agree with the exact ones.

    ``noisy`` is (seeds, moments) complex; real and imaginary parts are
    tested apart with the t statistic of the seed mean.
    """
    noisy = np.asarray(noisy)
    exact = np.asarray(exact)
    k = noisy.shape[0]
    failures = []
    for part in (np.real, np.imag):
        x, ref = part(noisy), part(exact)
        mean = x.mean(axis=0)
        sd = x.std(axis=0, ddof=1)
        for j in range(x.shape[1]):
            if sd[j] > 0.0:
                z = abs(mean[j] - ref[j]) / (sd[j] / math.sqrt(k))
                bad = z > BIAS_Z_MAX
            else:
                bad = abs(mean[j] - ref[j]) > NOISELESS_TOL * (1.0 + abs(ref[j]))
                z = math.inf if bad else 0.0
            if bad:
                failures.append(f"{label}: moment {j} ({part.__name__}) biased, t = {z:.3g}")
    return failures, []


def check_spread(label: str, noisy, std_errors) -> tuple[list[str], list[float]]:
    """Seed-to-seed spread of each recovered moment against its propagated std_error."""
    noisy = np.asarray(noisy)
    se = np.asarray(std_errors, dtype=float)
    spread = np.sqrt(np.sum(np.abs(noisy - noisy.mean(axis=0)) ** 2, axis=0) / (noisy.shape[0] - 1))
    failures = []
    lo, hi = SPREAD_RANGE
    for j in range(noisy.shape[1]):
        if se[j] == 0.0:
            continue
        ratio = spread[j] / se[j]
        if not lo <= ratio <= hi:
            failures.append(f"{label}: moment {j} spread/std_error = {ratio:.3g} outside [{lo}, {hi}]")
    return failures, []


def gaussian_entropy(means, second) -> float:
    """Entropy of the Gaussian state with these moments over (X1, P1, X2, P2).

    ``second[i][j]`` is the canonical moment <R_i R_j> for i <= j. The
    symplectic eigenvalues come from the invariants of the covariance
    matrix, and g(nu) = (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2).
    """
    m = np.real(np.asarray(means))
    cov = np.empty((4, 4))
    for i in range(4):
        for j in range(i, 4):
            cov[i, j] = cov[j, i] = float(np.real(second[i][j])) - m[i] * m[j]
    a, b, c = cov[:2, :2], cov[2:, 2:], cov[:2, 2:]
    delta = np.linalg.det(a) + np.linalg.det(b) + 2.0 * np.linalg.det(c)
    disc = math.sqrt(max(delta * delta - 4.0 * np.linalg.det(cov), 0.0))
    total = 0.0
    for nu2 in ((delta + disc) / 2.0, (delta - disc) / 2.0):
        nu = math.sqrt(max(nu2, 0.0))
        if nu > 0.5:
            total += (nu + 0.5) * math.log(nu + 0.5) - (nu - 0.5) * math.log(nu - 0.5)
    return total


def check_delta(label: str, delta: float, gaussian: float | None) -> tuple[list[str], list[float]]:
    """delta >= 0; for a pure heralded state (nbar = 0) it equals ``gaussian``."""
    failures = [] if delta >= 0.0 else [f"{label}: delta = {delta:.3g} < 0"]
    if gaussian is None:
        return failures, []
    more, errors = check_pairs(label + " delta vs Gaussian entropy", [(delta, gaussian)], DELTA_TOL)
    return failures + more, errors


def accuracy_digits(errors: list[float]) -> float:
    """-log10 of the worst relative error, with a floor at 1e-17."""
    worst = max(errors, default=0.0)
    return -math.log10(max(worst, 1e-17))
