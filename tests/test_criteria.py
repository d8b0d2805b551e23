import math

import numpy as np
import pytest

from mechcat import algebra, criteria, fock, herald
from mechcat.criteria import (
    CriterionResult,
    build_d5,
    build_s3,
    criterion_words,
    d5_evolved,
    max_cooled_occupation,
    mu_cutoff,
    non_gaussianity,
    s3_evolved,
    s3_ground_closed_form,
    symplectic_eigenvalues,
)
from mechcat.errors import DegenerateHerald, NonPhysicalCovariance
from mechcat.herald import ProtocolParams, heralded_moment_table, thermal_moment_table
from mechcat.opensystem import EnvParams, evolve_moments

OMEGA = 2 * math.pi * 1e6

# reference 5x5 and 3x3 moment-matrix layouts, transcribed independently
D5_LITERAL = [
    [(), ("b1",), ("b1d",), ("b2d",), ("b2",)],
    [("b1d",), ("b1d", "b1"), ("b1d", "b1d"), ("b1d", "b2d"), ("b1d", "b2")],
    [("b1",), ("b1", "b1"), ("b1", "b1d"), ("b1", "b2d"), ("b1", "b2")],
    [("b2",), ("b1", "b2"), ("b1d", "b2"), ("b2d", "b2"), ("b2", "b2")],
    [("b2d",), ("b1", "b2d"), ("b1d", "b2d"), ("b2d", "b2d"), ("b2", "b2d")],
]
S3_LITERAL = [
    [(), ("b2d",), ("b1", "b2d")],
    [("b2",), ("b2d", "b2"), ("b1", "b2d", "b2")],
    [("b1d", "b2"), ("b1d", "b2d", "b2"), ("b1d", "b1", "b2d", "b2")],
]


def test_matrix_words_match_reference_layout():
    assert criterion_words(criteria.D5_INDICES) == D5_LITERAL
    assert criterion_words(criteria.S3_INDICES) == S3_LITERAL


def test_s3_is_row_deletion_of_extended_matrix():
    # deleting the b1, b1d, b2 rows/columns of the extended basis leaves S3
    full = criterion_words(tuple(range(6)))
    keep = [0, 3, 5]
    sub = [[full[i][j] for j in keep] for i in keep]
    assert sub == S3_LITERAL


def test_vacuum_d5_boundary():
    table = thermal_moment_table(0.0, 0.0, 2)
    res = build_d5(table)
    assert abs(res.value) < 1e-12
    assert not res.entangled


def test_separable_thermal_guard():
    for n1 in (0.0, 0.5):
        for n2 in (0.3, 1.5):
            table = thermal_moment_table(n1, n2, 4)
            assert build_d5(table).value >= -1e-10
            assert build_s3(table).value >= -1e-10
            # thermal closed forms: D5 = n1(n1+1)n2(n2+1), S3 = n1 n2^2
            assert build_d5(table).value == pytest.approx(n1 * (n1 + 1) * n2 * (n2 + 1), abs=1e-10)
            assert build_s3(table).value == pytest.approx(n1 * n2 * n2, abs=1e-10)


def test_bell_limit_s3():
    # mu -> 0 at phi = pi approaches S3 = -1/8
    table = heralded_moment_table(ProtocolParams(mu=1e-3, phi=math.pi), 4)
    assert build_s3(table).value == pytest.approx(-0.125, abs=1e-4)
    assert s3_ground_closed_form(1e-3, math.pi) == pytest.approx(-0.125, abs=1e-4)


def test_closed_form_matches_numeric_everywhere():
    for mu in (0.3, 1.0, 1.7):
        for phi in (0.0, 1.2, math.pi):
            table = heralded_moment_table(ProtocolParams(mu=mu, phi=phi), 4)
            assert build_s3(table).value == pytest.approx(
                s3_ground_closed_form(mu, phi), rel=1e-9, abs=1e-12
            )


def test_closed_form_negative_everywhere():
    for mu in np.linspace(0.05, 4.0, 25):
        for phi in np.linspace(0.0, 2 * math.pi, 13):
            assert s3_ground_closed_form(mu, phi) < 0


def test_closed_form_printed_value():
    # mu = 1, phi = 0: -e^{-1} / (64 (1 + e^{-1/2})^3)
    expect = -math.exp(-1) / (64 * (1 + math.exp(-0.5)) ** 3)
    assert s3_ground_closed_form(1.0, 0.0) == pytest.approx(expect, rel=1e-14)


def test_degenerate_herald_guard():
    with pytest.raises(DegenerateHerald):
        s3_ground_closed_form(0.0, math.pi)


def test_closed_form_dark_fringe_small_coupling():
    # S3 -> -1/8 at phi = pi as mu -> 0; 1 - e^{-mu^2/2} must not cancel
    assert s3_ground_closed_form(1e-6, math.pi) == pytest.approx(-1.0 / 8.0, abs=1e-9)
    assert s3_ground_closed_form(1e-4, math.pi) == pytest.approx(
        -(1e-4**6) * math.exp(-1e-8) / (64 * (-math.expm1(-0.5e-8)) ** 3), rel=1e-12
    )


def test_table_row_i():
    env = EnvParams(omega_m=OMEGA, q_factor=1e5, nbar_bath=1000.0)
    assert d5_evolved(1e-3, 0.1, env) == pytest.approx(0.56, abs=0.01)
    assert s3_evolved(1e-3, 0.1, env) == pytest.approx(-0.080, abs=0.008)


def test_criterion_result_json():
    table = thermal_moment_table(0.5, 0.5, 4)
    res = build_s3(table)
    import json

    payload = json.loads(res.to_json())
    assert payload["name"] == "S3"
    assert not payload["entangled"]
    assert len(payload["matrix_re"]) == 3


def test_non_gaussianity_gaussian_states():
    cfg = fock.FockConfig(20, 20)
    th = fock.thermal_state(0.4, 0.2, cfg)
    assert non_gaussianity(th) < 1e-9
    # mu = 0 heralding at phi != pi leaves the thermal state untouched
    st, _ = herald.heralded_state(ProtocolParams(mu=0.0, phi=0.5, nbar_1=0.3, nbar_2=0.3), cfg)
    assert non_gaussianity(st) < 1e-9


def test_non_gaussianity_monotone_in_mu():
    cfg = fock.FockConfig(26, 26)
    deltas = []
    for mu in (0.2, 0.6, 1.0, 1.4):
        st, _ = herald.heralded_state(ProtocolParams(mu=mu, phi=math.pi, nbar_1=0.1, nbar_2=0.1), cfg)
        deltas.append(non_gaussianity(st))
    assert all(b > a for a, b in zip(deltas, deltas[1:]))
    assert all(d >= 0 for d in deltas)


def test_nonphysical_covariance_guard():
    moments = {
        (0, 0, 0, 0): 1.0,
        (1, 0, 0, 0): 0.0, (0, 1, 0, 0): 0.0, (0, 0, 1, 0): 0.0, (0, 0, 0, 1): 0.0,
        (2, 0, 0, 0): 0.1, (0, 2, 0, 0): 0.1, (0, 0, 2, 0): 0.5, (0, 0, 0, 2): 0.5,
        (1, 1, 0, 0): 0.5j, (0, 0, 1, 1): 0.5j,
        (1, 0, 1, 0): 0.0, (1, 0, 0, 1): 0.0, (0, 1, 1, 0): 0.0, (0, 1, 0, 1): 0.0,
    }
    table = algebra.MomentTable([moments[k] for k in algebra.keys_up_to_order(2)], order_max=2)
    with pytest.raises(NonPhysicalCovariance):
        criteria.gaussian_reference_entropy(table)


def test_symplectic_eigenvalues_thermal():
    cov = np.diag([1.5, 1.5, 0.5, 0.5])  # nbar = 1 and vacuum
    nus = np.sort(symplectic_eigenvalues(cov))
    assert nus == pytest.approx([0.5, 1.5])


def test_max_cooled_occupation_flags():
    env = EnvParams(omega_m=OMEGA, q_factor=1e5, nbar_bath=0.0)
    res = max_cooled_occupation(5.0, env)
    assert not res.verification_possible
    assert res.nbar_max == 0.0
    res2 = max_cooled_occupation(0.5, env)
    assert res2.verification_possible
    assert res2.nbar_max > 0
    assert abs(s3_evolved(0.5, res2.nbar_max, env)) < 1e-8


def test_no_root_when_closed():
    env = EnvParams(omega_m=OMEGA, q_factor=math.inf, nbar_bath=0.0)
    for mu in (0.5, 1.5, 3.0, 5.0):
        assert s3_evolved(mu, 0.0, env) < 0
    with pytest.raises(RuntimeError):
        mu_cutoff(env, mu_hi=5.0)


def test_mu_cutoff_value():
    env = EnvParams(omega_m=OMEGA, q_factor=1e5, nbar_bath=0.0)
    assert mu_cutoff(env) == pytest.approx(3.6, abs=0.3)


def test_entangled_flag_threshold():
    res = CriterionResult("S3", -1e-12, np.eye(3))
    assert not res.entangled
    res2 = CriterionResult("S3", -1e-3, np.eye(3))
    assert res2.entangled


def test_fig3_structure():
    env = EnvParams(omega_m=OMEGA, q_factor=1e5, nbar_bath=500.0)
    phis = np.linspace(0.0, 2 * math.pi, 41)
    s3_vals = [s3_evolved(0.8, 0.1, env, phi) for phi in phis]
    i_s3 = int(np.argmin(s3_vals))
    assert abs(phis[i_s3] - math.pi) < 0.2
    assert min(s3_vals) < 0
    # the D5 negativity lobe needs mu above ~1; it is centered on phi = 0, 2pi
    d5_vals = [d5_evolved(1.5, 0.1, env, phi) for phi in phis]
    i_d5 = int(np.argmin(d5_vals))
    assert min(phis[i_d5], 2 * math.pi - phis[i_d5]) < 0.2
    assert min(d5_vals) < 0


def test_non_gaussianity_increases_toward_phi_pi():
    cfg = fock.FockConfig(24, 24)
    deltas = []
    for phi in (0.4, 1.5, 2.6):
        st, _ = herald.heralded_state(ProtocolParams(mu=0.8, phi=phi, nbar_1=0.1, nbar_2=0.1), cfg)
        deltas.append(non_gaussianity(st))
    assert deltas[0] < deltas[1] < deltas[2]


def _entrywise_determinant(name, mu, phi, nbar, env):
    """Reference: every matrix entry by MomentTable.ladder_value on the evolved table."""
    indices, order = criteria.CRITERIA[name]
    params = ProtocolParams(mu=mu, phi=phi, nbar_1=nbar, nbar_2=nbar)
    table = evolve_moments(heralded_moment_table(params, order), env)
    mat = np.array([[table.ladder_value(w) for w in row] for row in criterion_words(indices)])
    return np.linalg.det(mat).real


@pytest.mark.parametrize("name", ["D5", "S3"])
def test_batched_criteria_match_entrywise_reference(name):
    mus = np.array([1e-3, 0.3, 1.0, 2.0])
    phis = np.array([0.0, 1.0, math.pi, 5.0])
    nbars = np.array([0.0, 0.3])
    envs = [EnvParams(OMEGA, math.inf, 0.0), EnvParams(OMEGA, 1e5, 500.0)]
    # one call over the whole grid; the environments run along the last axis
    batch = criteria.evolved_criterion(name, envs)(
        mus[:, None, None, None], phis[:, None, None], nbars[:, None]
    )
    assert batch.shape == (4, 4, 2, 2)
    for (i, j, k, m), value in np.ndenumerate(batch):
        ref = _entrywise_determinant(name, mus[i], phis[j], nbars[k], envs[m])
        assert abs(value - ref) / (1 + abs(ref)) <= 1e-12


def test_cooling_roots_match_brentq():
    from scipy.optimize import brentq

    for mu in (0.2, 1.0, 2.0):
        for nbar_bath in (0.0, 1000.0):
            env = EnvParams(OMEGA, 1e5, nbar_bath)
            res = max_cooled_occupation(mu, env)
            assert res.verification_possible
            hi = 0.5
            while s3_evolved(mu, hi, env) < 0:
                hi *= 2
            ref = brentq(lambda n: s3_evolved(mu, n, env), 0.0, hi, xtol=1e-14, rtol=1e-14)
            assert abs(res.nbar_max - ref) <= 1e-9 * ref


def test_small_cooling_root_keeps_ten_digits():
    # root 5.76e-8: an absolute stop width of 1e-15 left it 3.4e-9 relative off
    mu, env = 4.0, EnvParams(OMEGA, 1e6, 0.0)
    lo, hi = 0.0, 0.5
    while s3_evolved(mu, hi, env) < 0:
        lo, hi = hi, 2 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):  # bisection to the last bit
        lo, hi = (mid, hi) if s3_evolved(mu, mid, env) < 0 else (lo, mid)
    root = max_cooled_occupation(mu, env).nbar_max
    assert abs(root - lo) <= 1e-10 * lo


def _cooled_occupations_all_points(mu, envs, phi=math.pi):
    """Reference: the same brackets and false-position steps, with S3 evaluated at
    every point on every step and each update masked to the brackets still open."""
    s3 = criteria.evolved_criterion("S3", envs)
    f_lo = s3(mu, phi, 0.0)
    ok = f_lo < 0.0
    lo, hi = np.zeros(ok.shape), np.where(ok, 0.5, 0.0)
    f_hi = s3(mu, phi, hi)
    while np.any(up := ok & (f_hi < 0.0)):
        lo, f_lo, hi = np.where(up, hi, lo), np.where(up, f_hi, f_lo), np.where(up, 2.0 * hi, hi)
        f_hi = s3(mu, phi, hi)
    moved = np.zeros(ok.shape)
    w1 = w2 = w3 = np.full(ok.shape, np.inf)
    while np.any(wide := (w := hi - lo) > (tol := np.maximum(1e-10 * np.abs(hi), 1e-300))):
        with np.errstate(invalid="ignore", divide="ignore"):
            x = lo - f_lo * w / (f_hi - f_lo)
        mid = ~((lo < x) & (x < hi)) | (w > 0.5 * w3)
        x = np.where(mid, 0.5 * (lo + hi), np.minimum(np.maximum(x, lo + tol / 2), hi - tol / 2))
        fx = s3(mu, phi, x)
        up, down = wide & (fx < 0.0), wide & ~(fx < 0.0)
        # Anderson-Bjorck: the end kept twice is scaled by 1 - f_new/f_old, or halved
        with np.errstate(invalid="ignore", divide="ignore"):
            scale_hi, scale_lo = 1.0 - fx / f_lo, 1.0 - fx / f_hi
        f_hi = np.where(up & (moved > 0), np.where(scale_hi > 0, scale_hi, 0.5) * f_hi, f_hi)
        f_lo = np.where(down & (moved < 0), np.where(scale_lo > 0, scale_lo, 0.5) * f_lo, f_lo)
        lo, f_lo = np.where(up, x, lo), np.where(up, fx, f_lo)
        hi, f_hi = np.where(down, x, hi), np.where(down, fx, f_hi)
        moved = np.where(up, 1.0, np.where(down, -1.0, moved))
        w1, w2, w3 = np.where(wide, w, w1), np.where(wide, w1, w2), np.where(wide, w2, w3)
    return np.where(ok, 0.5 * (lo + hi), 0.0), ok


def test_cooled_occupations_match_all_point_false_position():
    # open brackets only; the grid has points that are not verifiable and
    # brackets that close at different steps. S3 values can differ in the last
    # bit with the batch they are evaluated in, and false position reads them,
    # so the roots agree to rounding rather than bit for bit.
    mus = np.linspace(0.2, 4.2, 9)[:, None]
    envs = [EnvParams(OMEGA, 1e5, nb) for nb in (0.0, 700.0, 2000.0)]
    nbar_max, ok = criteria.cooled_occupations(mus, envs)
    ref_max, ref_ok = _cooled_occupations_all_points(mus, envs)
    assert nbar_max.shape == ok.shape == (9, 3)
    assert not ok.all() and ok.any()
    assert np.array_equal(ok, ref_ok)
    assert np.all(np.abs(nbar_max - ref_max) <= 1e-12 * ref_max)


def test_sweep_like_cooling_grid_needs_few_s3_evaluations(monkeypatch):
    # 5 mu x 3 nbar_bath as in the benchmark's sweep; bisection needed 47, Illinois steps 14
    calls = []
    evaluate = criteria._criterion_values
    monkeypatch.setattr(criteria, "_criterion_values", lambda *a: calls.append(a) or evaluate(*a))
    mus = np.linspace(0.21, 3.0, 5)[:, None]
    envs = [EnvParams(OMEGA, 1.27e5, nb) for nb in (0.0, 1024.0, 2048.0)]
    nbar_max, ok = criteria.cooled_occupations(mus, envs)
    assert ok.sum() >= 10
    assert len(calls) <= 12
    for (i, j), root in np.ndenumerate(nbar_max):
        if ok[i, j]:
            assert s3_evolved(mus[i, 0], root * (1 - 1e-9), envs[j]) < 0 < s3_evolved(mus[i, 0], root * (1 + 1e-9), envs[j])
