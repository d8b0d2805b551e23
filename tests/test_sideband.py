import math

import pytest

from mechcat.presets import CAVITY_ROWS
from mechcat.sideband import CavityParams, mu_effective, mu_nominal, percent_reduction


def test_mu_nominal_reference_rows():
    expect = {"membrane": 2.26e-5, "photonic-crystal": 1.29e-4, "nanobeam": 1.12e-2}
    for row in CAVITY_ROWS:
        assert mu_nominal(row.cavity) == pytest.approx(expect[row.name], rel=5e-3)


def test_mu_nominal_zero_coupling():
    assert mu_nominal(CavityParams(g0=0.0, kappa=1.0, omega_m=1.0)) == 0.0


def test_percent_reduction_reference_rows():
    expect = {"membrane": 8.6e-2, "photonic-crystal": 1.6e-3, "nanobeam": 3.0e-6}
    for row in CAVITY_ROWS:
        assert percent_reduction(row.cavity) == pytest.approx(expect[row.name], rel=0.01)


def test_percent_reduction_zero_frequency():
    # a zero mechanical frequency is rejected; the reduction vanishes towards it
    with pytest.raises(ValueError):
        CavityParams(g0=1.0, kappa=1.0, omega_m=0.0)
    assert percent_reduction(CavityParams(g0=1.0, kappa=1.0, omega_m=1e-9)) == pytest.approx(0.0, abs=1e-16)


def test_effective_coupling_small_time():
    cav = CavityParams(g0=2.0, kappa=100.0, omega_m=1.0)
    t = 1e-4
    mu_p, angle = mu_effective(cav, t)
    assert mu_p == pytest.approx(math.sqrt(2) * cav.g0 * t, rel=1e-6)
    assert angle == pytest.approx(cav.omega_m * t)
    # t = C/kappa recovers mu = sqrt(2) C g0 / kappa
    mu_c, _ = mu_effective(cav, 2.0 / cav.kappa)
    assert mu_c == pytest.approx(mu_nominal(cav), rel=1e-3)


def test_effective_coupling_maximum():
    cav = CavityParams(g0=3.0, kappa=50.0, omega_m=2.0)
    mu_max, _ = mu_effective(cav, math.pi / cav.omega_m)
    assert mu_max == pytest.approx(2 * math.sqrt(2) * cav.g0 / cav.omega_m, rel=1e-12)


def test_effective_coupling_periodicity():
    cav = CavityParams(g0=1.0, kappa=10.0, omega_m=3.0)
    period = 2 * math.pi / cav.omega_m
    for t in (0.1, 0.7, 1.9):
        a, _ = mu_effective(cav, t)
        b, _ = mu_effective(cav, t + period)
        assert a == pytest.approx(b, abs=1e-12)


def test_reduction_consistent_with_effective_coupling():
    # second-order formula tracks 1 - mu'(2/kappa)/mu within 10% up to ratio 0.1
    for ratio in (0.01, 0.05, 0.1):
        cav = CavityParams(g0=1.0, kappa=100.0, omega_m=100.0 * ratio)
        mu_p, _ = mu_effective(cav, 2.0 / cav.kappa)
        direct = 100.0 * (1.0 - mu_p / mu_nominal(cav))
        assert percent_reduction(cav) == pytest.approx(direct, rel=0.1)


def test_nanobeam_deficit_matches_reduction():
    cav = next(r.cavity for r in CAVITY_ROWS if r.name == "nanobeam")
    mu_p, _ = mu_effective(cav, 2.0 / cav.kappa)
    deficit = 100.0 * (1.0 - mu_p / mu_nominal(cav))
    assert deficit == pytest.approx(3.0e-6, rel=0.05)
