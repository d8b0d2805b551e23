import math

import numpy as np
import pytest
from scipy.special import genlaguerre

from mechcat import fock
from mechcat.errors import CutoffTooSmall, DimensionMismatch


CFG = fock.FockConfig(24, 24)


def test_config_validation():
    with pytest.raises(ValueError):
        fock.FockConfig(1, 10)
    assert CFG.dim == 576
    assert CFG.doubled() == fock.FockConfig(48, 48)


def test_default_cutoff_heuristic():
    assert fock.default_cutoff(0.0, 0.0) == 20
    assert fock.default_cutoff(0.1, 1.0) == max(20, math.ceil(8 * 2.1))
    assert fock.default_cutoff(0.4, 2.0) == math.ceil(8 * 5.4)
    # where the thermal tail sets the cutoff, two levels above the tolerance
    assert fock.default_cutoff(0.5, 0.5) == 23
    assert fock.default_cutoff(5.3, 0.0) == math.ceil(math.log(1e-10) / math.log(5.3 / 6.3)) + 2


@pytest.mark.parametrize("nbar", [0.05, 0.3, 0.5, 1.0, 2.5, 5.3])
@pytest.mark.parametrize("mu", [0.0, 0.5, 2.0])
def test_default_cutoff_passes_thermal_tail_check(nbar, mu):
    cutoff = fock.default_cutoff(nbar, mu)
    assert cutoff >= max(20, math.ceil(8.0 * (nbar + mu * mu + 1.0)))
    fock.thermal_populations(nbar, cutoff)


def test_thermal_ground_state():
    st = fock.thermal_state(0.0, 0.0, CFG)
    gs = fock.ground_state(CFG)
    assert np.max(np.abs(st.rho - gs.rho)) < 1e-14


def test_thermal_populations_geometric():
    # direct geometric-series formula as the oracle
    nbar = 0.1
    p = fock.thermal_populations(nbar, 20)
    expect = np.array([(1 / 1.1) * (0.1 / 1.1) ** n for n in range(20)])
    expect /= expect.sum()
    assert np.max(np.abs(p - expect)) < 1e-15
    assert abs(p[0] - 0.909090909) < 1e-6


def test_thermal_mean_occupation():
    cfg = fock.FockConfig(24, 24)
    st = fock.thermal_state(0.29, 0.29, cfg)
    n1 = fock.ladder_operator(1, cfg, dagger=True) @ fock.ladder_operator(1, cfg)
    assert abs(fock.expectation(st, n1).real - 0.29) < 1e-6


def test_thermal_tail_guard():
    with pytest.raises(CutoffTooSmall):
        fock.thermal_populations(5.3, 20)


def test_displacement_identity_at_zero():
    d = fock.displacement(1, 0.0, CFG)
    assert np.max(np.abs(d.matrix - np.eye(CFG.dim))) < 1e-14


def test_displacement_momentum_kick():
    mu = 0.9
    beta = 1j * mu / math.sqrt(2)
    st, _ = fock.apply_operator(fock.displacement(1, beta, CFG), fock.ground_state(CFG))
    x = fock.expectation(st, fock.x_operator(1, CFG))
    p = fock.expectation(st, fock.p_operator(1, CFG))
    assert abs(x) < 1e-10
    assert abs(p - mu) < 1e-10


def test_displacement_vacuum_amplitude():
    # <0|D(i mu/sqrt2)|0> = e^{-mu^2/4}; 0.77880 at mu = 1
    d = fock.displacement(1, 1j / math.sqrt(2), CFG)
    amp = d.matrix[0, 0]
    assert abs(amp - math.exp(-0.25)) < 1e-10
    assert abs(amp - 0.77880) < 1e-5


def test_displacement_matrix_elements_oracle():
    # associated-Laguerre closed form for <m|D(beta)|n>, m >= n
    beta = 0.3 + 0.4j
    cutoff = 30
    d = fock.displacement_single(beta, cutoff)
    for m, n in [(0, 0), (1, 0), (2, 1), (3, 3), (5, 2)]:
        lag = genlaguerre(n, m - n)(abs(beta) ** 2)
        ref = (
            math.sqrt(math.factorial(n) / math.factorial(m))
            * beta ** (m - n)
            * math.exp(-abs(beta) ** 2 / 2)
            * lag
        )
        assert abs(d[m, n] - ref) < 1e-10


def test_displacement_inverse_and_unitarity():
    cfg = fock.FockConfig(32, 32)
    beta = math.sqrt(cfg.cutoff_1 / 4.0)  # boundary of the stated regime
    d = fock.displacement(1, beta, cfg)
    dm = fock.displacement(1, -beta, cfg)
    assert np.max(np.abs((d @ dm).matrix - np.eye(cfg.dim))) < 1e-9
    u = d.matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(cfg.dim))) < 1e-9


def test_displacement_cutoff_guard():
    with pytest.raises(CutoffTooSmall):
        fock.displacement(1, 5.0, fock.FockConfig(10, 10))


def test_expectation_basics():
    st = fock.ground_state(CFG)
    assert abs(fock.expectation(st, fock.x_operator(1, CFG))) < 1e-14
    th = fock.thermal_state(0.4, 0.0, CFG)
    x2 = fock.x_operator(1, CFG) @ fock.x_operator(1, CFG)
    assert abs(fock.expectation(th, x2).real - 0.9) < 1e-9


def test_expectation_dimension_mismatch():
    st = fock.ground_state(CFG)
    other = fock.x_operator(1, fock.FockConfig(10, 10))
    with pytest.raises(DimensionMismatch):
        fock.expectation(st, other)


def test_entropy_pure_and_thermal():
    assert fock.von_neumann_entropy(fock.ground_state(CFG)) == 0.0
    cfg = fock.FockConfig(45, 8)
    th = fock.thermal_state(1.0, 0.0, cfg)
    # (nbar+1)ln(nbar+1) - nbar ln nbar = 2 ln 2
    assert abs(fock.von_neumann_entropy(th) - 2 * math.log(2)) < 1e-9


def test_partial_trace_product_state():
    cfg = fock.FockConfig(20, 28)
    th = fock.thermal_state(0.3, 0.7, cfg)
    r1 = fock.partial_trace(th, 1)
    r2 = fock.partial_trace(th, 2)
    assert np.max(np.abs(r1 - np.diag(fock.thermal_populations(0.3, 20)))) < 1e-12
    assert np.max(np.abs(r2 - np.diag(fock.thermal_populations(0.7, 28)))) < 1e-12


def test_rotation_operator():
    cfg = fock.FockConfig(8, 8)
    r = fock.rotation(1, math.pi, cfg)
    # pi rotation flips coherent amplitude: R X R^dag = -X
    x = fock.x_operator(1, cfg)
    back = r.matrix @ x.matrix @ r.matrix.conj().T
    assert np.max(np.abs(back + x.matrix)) < 1e-12


def test_validate_catches_bad_states():
    good = fock.thermal_state(0.2, 0.2, CFG)
    bad_trace = fock.TwoModeState(CFG, good.rho * 1.1)
    with pytest.raises(ValueError):
        bad_trace.validate()
    herm = good.rho.copy()
    herm[0, 1] += 1e-3
    with pytest.raises(ValueError):
        fock.TwoModeState(CFG, herm).validate()
    neg = good.rho.copy()
    big = 2.0 * math.sqrt(abs(neg[0, 0] * neg[1, 1]))
    neg[0, 1] = neg[1, 0] = big  # off-diagonal beyond the PSD bound
    with pytest.raises(ValueError):
        fock.TwoModeState(CFG, neg).validate()


def test_coherent_vector_matches_displacement_column():
    beta = 0.7 - 0.2j
    cutoff = 25
    vec = fock.coherent_vector(beta, cutoff)
    col = fock.displacement_single(beta, cutoff)[:, 0]
    assert np.max(np.abs(vec - col)) < 1e-9
