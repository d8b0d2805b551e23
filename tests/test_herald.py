import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dense_reference import (dense_thermal_factor, displacement, lift, plain_arms, plain_click_map,
                             plain_heralded_factor, thermal_columns)
from mechcat import algebra, fock, herald
from mechcat.errors import HeraldImpossible, ZeroOperator
from mechcat.herald import (
    ClickOutcome,
    CoherentInput,
    ProtocolParams,
    SinglePhotonInput,
    heralding_probability,
    measurement_operator,
    pure_cat_state,
)

CFG = fock.FockConfig(24, 24)


def fock_click_probability(params, outcome, cfg=CFG):
    op = measurement_operator(params, outcome, cfg)
    rho = fock.thermal_state(params.nbar_1, params.nbar_2, cfg).rho
    return float(np.real(np.trace(op @ rho @ op.conj().T)))


def test_zero_coupling_operators():
    params = ProtocolParams(mu=0.0, phi=0.0, input=CoherentInput(1.0))
    bright = measurement_operator(params, ClickOutcome(1, 0), CFG)
    expect = math.exp(-0.5) * np.eye(CFG.dim)
    assert np.max(np.abs(bright - expect)) < 1e-12
    dark = measurement_operator(params, ClickOutcome(0, 1), CFG)
    assert np.max(np.abs(dark)) < 1e-12


def test_single_photon_outcome_guard():
    params = ProtocolParams(mu=0.3, phi=0.0, input=SinglePhotonInput())
    with pytest.raises(ZeroOperator):
        measurement_operator(params, ClickOutcome(1, 1), CFG)
    with pytest.raises(ZeroOperator):
        measurement_operator(params, ClickOutcome(0, 0), CFG)


def test_heralding_probability_dark_fringe():
    assert heralding_probability(ProtocolParams(mu=0.0, phi=math.pi)) == 0.0


def test_heralding_probability_at_the_membrane_row_against_50_digits():
    # 1 +- lam cos phi in expm1 form; formed directly it was 9.2e-8 off at phi = pi
    import mpmath as mp

    mu, nbar = 2.26e-5, 0.1
    for phi, outcome in ((math.pi, ClickOutcome(1, 0)), (0.0, ClickOutcome(0, 1)), (2.0, ClickOutcome(1, 0))):
        params = ProtocolParams(mu=mu, phi=phi, nbar_1=nbar, nbar_2=nbar)
        sign = 1 if outcome.m == 1 else -1
        with mp.workdps(50):
            lam = mp.exp(-mp.mpf(mu) ** 2 * (1 + 2 * mp.mpf(nbar)) / 2)
            ref = herald.prefactor_probability(params, outcome) * (1 + sign * lam * mp.cos(mp.mpf(phi)))
            assert abs(heralding_probability(params, outcome) - ref) <= 1e-14 * ref


def test_pure_cat_at_the_membrane_row_is_the_bell_state():
    # the norm 2 (1 + e^{-mu^2/2} cos phi) formed directly was 1e-7 off here, beyond the
    # 1e-8 check of state_from_vector
    cfg = fock.FockConfig(6, 6)
    cat = pure_cat_state(2.26e-5, math.pi, "parallel", cfg)
    bell = np.zeros(cfg.dim, dtype=complex)
    bell[1], bell[cfg.cutoff_2] = 1 / math.sqrt(2), -1 / math.sqrt(2)  # |0,1>, |1,0>
    assert fock.fidelity_to_pure(cat, bell) > 1 - 1e-9


def test_heralding_probability_alpha_argmax():
    params = lambda a: ProtocolParams(mu=0.4, phi=1.0, input=CoherentInput(a), nbar_1=0.2, nbar_2=0.2)
    alphas = np.linspace(0.2, 2.0, 37)
    probs = [heralding_probability(params(a)) for a in alphas]
    assert abs(alphas[int(np.argmax(probs))] - 1.0) < 0.03


@pytest.mark.parametrize("configuration", ["parallel", "series"])
@pytest.mark.parametrize("mu,phi,nbar", [(0.5, 0.0, 0.0), (0.8, math.pi / 2, 0.3), (1.0, math.pi, 0.1)])
def test_closed_form_matches_fock_trace(configuration, mu, phi, nbar):
    params = ProtocolParams(
        mu=mu, phi=phi, input=CoherentInput(1.0), configuration=configuration,
        nbar_1=nbar, nbar_2=nbar,
    )
    assert abs(heralding_probability(params) - fock_click_probability(params, ClickOutcome(1, 0))) < 1e-8


def test_single_photon_probability_matches_fock():
    params = ProtocolParams(mu=0.6, phi=0.7, input=SinglePhotonInput(), nbar_1=0.2, nbar_2=0.0)
    assert abs(heralding_probability(params) - fock_click_probability(params, ClickOutcome(1, 0))) < 1e-8
    p01 = heralding_probability(params, ClickOutcome(0, 1))
    assert abs(p01 - fock_click_probability(params, ClickOutcome(0, 1))) < 1e-8
    # {1,0} and {0,1} exhaust the single-photon outcomes
    assert abs(heralding_probability(params) + p01 - 1.0) < 1e-12


def test_click_completeness_coherent():
    # sum of P_mn over outcomes approaches 1 with a Poisson tail bound
    params = ProtocolParams(mu=0.6, phi=0.9, input=CoherentInput(1.0), nbar_1=0.2, nbar_2=0.2)
    total, cap = 0.0, 10
    for m in range(cap + 1):
        for n in range(cap + 1 - m):
            total += fock_click_probability(params, ClickOutcome(m, n))
    tail = 1.0 - math.exp(-1.0) * sum(1.0 / math.factorial(k) for k in range(cap + 1))
    assert abs(total + tail - 1.0) < 1e-10


@pytest.mark.parametrize("configuration", ["parallel", "series"])
def test_herald_matches_pure_cat(configuration):
    params = ProtocolParams(mu=0.8, phi=math.pi, configuration=configuration)
    state, prob = herald.heralded_state(params, CFG)
    cat = pure_cat_state(0.8, math.pi, configuration, CFG)
    assert fock.fidelity_to_pure(state, cat.vector) > 1 - 1e-9
    assert prob > 0


def test_small_mu_bell_state():
    params = ProtocolParams(mu=0.01, phi=math.pi)
    state, _ = herald.heralded_state(params, CFG)
    bell = np.zeros(CFG.dim, dtype=complex)
    bell[0 * CFG.cutoff_2 + 1] = 1 / math.sqrt(2)   # |0,1>
    bell[1 * CFG.cutoff_2 + 0] = -1 / math.sqrt(2)  # |1,0>
    assert fock.fidelity_to_pure(state, bell) > 0.9999


def test_series_equals_mapped_parallel():
    # D2(i mu/sqrt2) R2(pi) applied to the parallel output gives the series output
    mu, phi, nbar = 0.7, 1.1, 0.3
    cfg = fock.FockConfig(26, 26)
    par, _ = herald.heralded_state(ProtocolParams(mu=mu, phi=phi, nbar_1=nbar, nbar_2=nbar), cfg)
    ser, _ = herald.heralded_state(
        ProtocolParams(mu=mu, phi=phi, configuration="series", nbar_1=nbar, nbar_2=nbar), cfg
    )
    d2 = displacement(1j * mu / math.sqrt(2), cfg.cutoff_2)
    r2 = np.diag(np.exp(-1j * math.pi * np.arange(cfg.cutoff_2)))
    u = lift(d2, 2, cfg) @ lift(r2, 2, cfg)
    mapped = u @ par.rho @ u.conj().T
    assert np.max(np.abs(mapped - ser.rho)) < 1e-8


@pytest.mark.parametrize("configuration", ["parallel", "series"])
@pytest.mark.parametrize("outcome", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 0)])
def test_click_map_is_the_plain_expression_and_leaves_its_input(configuration, outcome):
    # the dense click operator pref sum_ab f[a, b] E1^a x E2^b (measurement_operator), applied
    # to read-only factors, against the D-form expression
    params = ProtocolParams(mu=0.8, phi=2.3, input=CoherentInput(0.9 + 0.4j), configuration=configuration,
                            nbar_1=0.2, nbar_2=0.1)
    click = ClickOutcome(*outcome)
    cfg = fock.FockConfig(16, 11)
    rng = np.random.default_rng(sum(outcome))
    inputs = [dense_thermal_factor(0.2, 0.1, cfg),
              rng.normal(size=(16, 11, 3)) + 1j * rng.normal(size=(16, 11, 3))]
    y = measurement_operator(params, click, cfg)
    plain = plain_click_map(params, click, cfg)
    for a in inputs:
        kept = a.copy()
        a.setflags(write=False)
        out = (y @ a.reshape(cfg.dim, -1)).reshape(a.shape)
        assert a.tobytes() == kept.tobytes()
        ref = plain(kept)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_heralded_factor_matches_the_plain_click_expression():
    # heralded_state holds E-form click columns on the thermal basis columns; the D-form
    # oracle runs the plain click map over the dense thermal factor and normalises it by
    # np.vdot. Cases: a zero occupation on either mode, unequal cutoffs, and outcomes with
    # no, one and two click steps. Measured: factor 1.6e-15 of max|A|, p 3.5e-15 relative.
    cases = [((0.3, 0.05), (16, 14)), ((0.0, 0.2), (9, 15)), ((0.25, 0.0), (17, 7))]
    for ((nbar_1, nbar_2), cutoffs), configuration, outcome in itertools.product(
            cases, ("parallel", "series"), [(1, 0), (0, 1), (2, 0), (1, 1), (0, 0)]):
        params = ProtocolParams(mu=1.1, phi=0.7, configuration=configuration, nbar_1=nbar_1, nbar_2=nbar_2)
        cfg = fock.FockConfig(*cutoffs)
        state, p = herald.heralded_state(params, cfg, ClickOutcome(*outcome))
        a, p_plain = plain_heralded_factor(params, ClickOutcome(*outcome), cfg)
        assert abs(p - p_plain) <= 1e-14 * p_plain
        assert np.max(np.abs(state.factor - a)) <= 1e-14 * np.max(np.abs(a))
        assert state.truncation_loss == fock.thermal_state(nbar_1, nbar_2, cfg).truncation_loss


def test_click_step_is_the_plain_arm_sum():
    # the E-polynomials of the plus and minus steps and the E blocks (herald.click_inputs), through
    # polynomial_step as dense operators, against the D-form arm sums they stand for; f is left as
    # it was
    cfg = fock.FockConfig(10, 10)
    eye = np.eye(cfg.dim, dtype=complex).reshape(cfg.cutoff_1, cfg.cutoff_2, cfg.dim)
    for configuration in ("parallel", "series"):
        params = ProtocolParams(mu=0.6, phi=2.1, configuration=configuration)
        thermal, steps = herald.click_inputs(params, cfg)
        e1, e2 = thermal.clicks.e1, thermal.clicks.e2
        phase = np.exp(1j * params.phi)
        d_1, d_2 = (arm(eye).reshape(cfg.dim, cfg.dim) for arm in plain_arms(params, cfg))
        f = np.zeros((3, 3), dtype=complex)
        f[0, 0] = 1.0
        kept = f.copy()
        for sign, click_step in zip((1.0, -1.0), steps):
            g = herald.polynomial_step(f, click_step)
            assert f.tobytes() == kept.tobytes()
            step = sum(g[i, j] * np.kron(np.linalg.matrix_power(e1, i), np.linalg.matrix_power(e2, j))
                       for i, j in np.ndindex(g.shape))
            ref = d_1 + sign * phase * d_2
            assert np.max(np.abs(step - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_herald_impossible():
    with pytest.raises(HeraldImpossible):
        herald.heralded_state(ProtocolParams(mu=0.0, phi=math.pi), CFG)


def test_pure_cat_mu_zero_is_vacuum():
    for configuration in ("parallel", "series"):
        cat = pure_cat_state(0.0, 0.3, configuration, CFG)
        assert fock.fidelity_to_pure(cat, fock.ground_state(CFG).vector) > 1 - 1e-12


def test_entanglement_entropy_large_mu_limit():
    cfg = fock.FockConfig(fock.default_cutoff(0, 3.0), fock.default_cutoff(0, 3.0))
    cat = pure_cat_state(3.0, math.pi, "parallel", cfg)
    assert abs(fock.entanglement_entropy(cat) - math.log(2)) < 0.02


def test_entanglement_maximized_at_phi_pi():
    mu = 0.8
    cfg = fock.FockConfig(20, 20)
    phis = np.linspace(0.05, 2 * math.pi - 0.05, 101)
    entropies = [fock.entanglement_entropy(pure_cat_state(mu, phi, "parallel", cfg)) for phi in phis]
    assert abs(phis[int(np.argmax(entropies))] - math.pi) < (phis[1] - phis[0]) * 1.5


@pytest.mark.parametrize("configuration", ["parallel", "series"])
@pytest.mark.parametrize("outcome", [ClickOutcome(1, 0), ClickOutcome(0, 1)])
def test_analytic_moments_match_fock(configuration, outcome):
    params = ProtocolParams(
        mu=0.7, phi=2.2, configuration=configuration, nbar_1=0.25, nbar_2=0.1
    )
    cfg = fock.FockConfig(30, 30)
    state, _ = herald.heralded_state(params, cfg, outcome)
    table_fock = algebra.moments_from_state(state, 4)
    table_ana = herald.heralded_moment_table(params, 4, outcome)
    worst = max(abs(table_fock.value(k) - table_ana.value(k)) for k in table_ana.entries)
    assert worst < 1e-9


def test_analytic_moments_input_independent():
    base = dict(mu=0.5, phi=math.pi, nbar_1=0.1, nbar_2=0.1)
    coh = herald.heralded_moment_table(ProtocolParams(input=CoherentInput(0.7), **base), 3)
    sph = herald.heralded_moment_table(ProtocolParams(input=SinglePhotonInput(), **base), 3)
    worst = max(abs(coh.value(k) - sph.value(k)) for k in coh.entries)
    assert worst < 1e-14


def test_thermal_moment_table_against_fock():
    cfg = fock.FockConfig(24, 24)
    ana = herald.thermal_moment_table(0.3, 0.15, 4)
    num = algebra.moments_from_state(fock.thermal_state(0.3, 0.15, cfg), 4)
    worst = max(abs(ana.value(k) - num.value(k)) for k in ana.entries)
    assert worst < 1e-9


def test_hermitian_words_real():
    table = herald.heralded_moment_table(ProtocolParams(mu=0.9, phi=1.3, nbar_1=0.4, nbar_2=0.2), 6)
    table.check_hermitian_real()


def test_dark_port_click_is_phase_shifted_bright_port():
    # Y_01(phi) equals Y_10(phi + pi)
    base = dict(mu=0.6, nbar_1=0.2, nbar_2=0.2)
    t01 = herald.heralded_moment_table(ProtocolParams(phi=0.8, **base), 3, ClickOutcome(0, 1))
    t10 = herald.heralded_moment_table(ProtocolParams(phi=0.8 + math.pi, **base), 3, ClickOutcome(1, 0))
    worst = max(abs(t01.value(k) - t10.value(k)) for k in t01.entries)
    assert worst < 1e-12
    p01 = heralding_probability(ProtocolParams(phi=0.8, **base), ClickOutcome(0, 1))
    p10 = heralding_probability(ProtocolParams(phi=0.8 + math.pi, **base))
    assert p01 == pytest.approx(p10, rel=1e-12)


def test_heralded_state_default_cutoff_half_occupation():
    # the default cutoff must pass its own thermal-tail check here
    params = ProtocolParams(mu=0.5, phi=math.pi, nbar_1=0.5, nbar_2=0.5)
    state, _ = herald.heralded_state(params)
    assert state.config == fock.FockConfig(23, 23)
    table_fock = algebra.moments_from_state(state, 4)
    table_ana = herald.heralded_moment_table(params, 4)
    worst = max(
        abs(table_fock.value(k) - table_ana.value(k)) / (1.0 + abs(table_ana.value(k)))
        for k in table_ana.entries
    )
    assert worst < 2e-7


# ---------------------------------------------------------------------------
# references for the closed-form moments: the memoised recursion over the whole
# four-letter word, which the per-mode tables replaced, and a 50-digit mpmath
# evaluation of the same generating function

_J = np.zeros((4, 4), dtype=complex)
_J[0, 1], _J[1, 0] = 1j, -1j
_J[2, 3], _J[3, 2] = 1j, -1j
_K = np.zeros((4, 4), dtype=complex)
_K[0, 1] = _K[1, 0] = _K[2, 3] = _K[3, 2] = 1.0


class _WordRecursion:
    """Moments of one sandwich term (u_j, u_k), each from the Gaussian moment
    recursion over its whole word; arrays of shape (4, *batch)."""

    def __init__(self, u_j, u_k, sigma):
        du = u_k - u_j
        j_k = np.einsum("ij,j...->i...", _J, u_k)
        const = -0.5 * np.sum(du * sigma * du, axis=0) + 0.5 * np.sum(u_j * j_k, axis=0)
        self.beta = -sigma * du - 0.5 * (np.einsum("ij,j...->i...", _J, u_j) + j_k)
        self.h = {(i, k): -sigma[i] if i == k else -0.5j * _K[i, k]
                  for i in range(4) for k in range(4) if i == k or _K[i, k]}
        self.scale = np.exp(const)
        self._memo = {(): np.ones_like(self.scale)}

    def _raw(self, idx):
        if idx not in self._memo:
            i, rest = idx[0], idx[1:]
            val = self.beta[i] * self._raw(rest)
            for j in range(len(rest)):
                if (i, rest[j]) in self.h:
                    val = val + self.h[i, rest[j]] * self._raw(rest[:j] + rest[j + 1 :])
            self._memo[idx] = val
        return self._memo[idx]

    def moment(self, key):
        idx = sum(((i,) * e for i, e in enumerate(key)), ())
        return (-1j) ** len(idx) * self.scale * self._raw(idx)


def word_recursion_moments(mu, phi, n1, n2, order_max, outcome, configuration):
    mu, phi, n1, n2 = np.broadcast_arrays(*(np.asarray(a, float) for a in (mu, phi, n1, n2)))
    sigma = np.stack([n1, n1, n2, n2]) + 0.5
    phase = (1.0 if outcome.m == 1 else -1.0) * np.exp(1j * phi)
    z = np.zeros_like(mu)
    if configuration == "parallel":
        terms = [(1.0 + 0.0j, np.stack([mu, z, z, z])), (phase, np.stack([z, z, mu, z]))]
    else:
        terms = [(1.0 + 0.0j, np.stack([mu, z, mu, z])), (phase, np.stack([z, z, z, z]))]
    sandwiches = [(np.conj(g_j) * g_k, _WordRecursion(u_j, u_k, sigma))
                  for g_j, u_j in terms for g_k, u_k in terms]
    norm = sum(w * s.scale for w, s in sandwiches)
    return np.stack([sum(w * s.moment(key) for w, s in sandwiches) / norm
                     for key in algebra.keys_up_to_order(order_max)], axis=-1)


def mpmath_moments(mu, phi, n1, n2, order_max, outcome, configuration, dps=50):
    """The heralded moments of one point from the generating function, in dps digits."""
    import mpmath as mp

    with mp.workdps(dps):
        mu, phi = mp.mpf(mu), mp.mpf(phi)
        sigma = [mp.mpf(n1) + 0.5] * 2 + [mp.mpf(n2) + 0.5] * 2
        zero = mp.mpf(0)
        if configuration == "parallel":
            us = ([mu, zero, zero, zero], [zero, zero, mu, zero])
        else:
            us = ([mu, zero, mu, zero], [zero] * 4)
        gammas = (mp.mpc(1), (1 if outcome.m == 1 else -1) * mp.expj(phi))

        def j_dot(u):  # J u with [X, P] = i
            return [1j * u[1], -1j * u[0], 1j * u[3], -1j * u[2]]

        terms = []
        for g_j, u_j in zip(gammas, us):
            for g_k, u_k in zip(gammas, us):
                du = [b - a for a, b in zip(u_j, u_k)]
                const = (-sum(s * d * d for s, d in zip(sigma, du)) + sum(a * b for a, b in zip(u_j, j_dot(u_k)))) / 2
                beta = [-s * d - (a + b) / 2 for s, d, a, b in zip(sigma, du, j_dot(u_j), j_dot(u_k))]
                terms.append((mp.conj(g_j) * g_k * mp.exp(const), beta, {(): mp.mpc(1)}))

        def raw(idx, beta, memo):
            if idx not in memo:
                i, rest = idx[0], idx[1:]
                val = beta[i] * raw(rest, beta, memo)
                for j, letter in enumerate(rest):
                    if letter == i:
                        val -= sigma[i] * raw(rest[:j] + rest[j + 1 :], beta, memo)
                    elif letter // 2 == i // 2:  # the other quadrature of the same mode
                        val -= 0.5j * raw(rest[:j] + rest[j + 1 :], beta, memo)
                memo[idx] = val
            return memo[idx]

        norm = sum(c for c, _, _ in terms)
        out = []
        for key in algebra.keys_up_to_order(order_max):
            idx = sum(((i,) * e for i, e in enumerate(key)), ())
            out.append((-1j) ** len(idx) * sum(c * raw(idx, beta, memo) for c, beta, memo in terms) / norm)
        return np.array([complex(v) for v in out])


def _random_points(n, seed):
    # couplings 1e-5 to 2.5, unequal occupations, phases kept 0.25 away from the
    # dark fringe of either outcome, where the norm cancels and every
    # double-precision evaluation, the references included, loses digits
    rng = np.random.default_rng(seed)
    mu = 10.0 ** rng.uniform(-5.0, math.log10(2.5), n)
    phi = rng.uniform(0.25, math.pi - 0.25, n) + math.pi * rng.integers(0, 2, n)
    return mu, phi, rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)


@pytest.mark.parametrize("configuration", ["parallel", "series"])
@pytest.mark.parametrize("outcome", [ClickOutcome(1, 0), ClickOutcome(0, 1)])
def test_mode_tables_match_word_recursion(configuration, outcome):
    mu, phi, n1, n2 = _random_points(40, seed=11)
    for order in (2, 4, 8):
        ref = word_recursion_moments(mu, phi, n1, n2, order, outcome, configuration)
        got = herald.heralded_moments(mu, phi, n1, n2, order, outcome, configuration)
        if order == 2:
            assert np.array_equal(got, ref)
        assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) <= 1e-11


@pytest.mark.parametrize("mu,phi,n1,n2,order,outcome,configuration", [
    (0.7, 2.2, 0.25, 0.1, 8, ClickOutcome(1, 0), "parallel"),
    (1e-3, 1.2, 0.3, 1.2, 4, ClickOutcome(0, 1), "series"),
    (2.0, 0.4, 2.0, 0.5, 4, ClickOutcome(0, 1), "parallel"),
    (1e-5, 4.0, 0.05, 0.6, 4, ClickOutcome(1, 0), "series"),
])
def test_moments_match_50_digit_generating_function(mu, phi, n1, n2, order, outcome, configuration):
    ref = mpmath_moments(mu, phi, n1, n2, order, outcome, configuration)
    got = herald.heralded_moments(mu, phi, n1, n2, order, outcome, configuration)
    assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) <= 1e-13


# ---------------------------------------------------------------------------
# the Gram matrix of a heralded state's click columns, from per-mode E = D - I blocks


@pytest.mark.parametrize("configuration", ["parallel", "series"])
@pytest.mark.parametrize("outcome", [(1, 0), (0, 1), (2, 1), (0, 0)])
def test_carried_gram_is_the_factors_gram(configuration, outcome):
    for phi, (mu, nbar) in itertools.product((0.0, math.pi / 2, math.pi),
                                             [(0.01, 0.1), (0.05, 0.1), (1.0, 0.2), (2.0, 0.4)]):
        params = ProtocolParams(mu=mu, phi=phi, configuration=configuration, nbar_1=nbar, nbar_2=nbar)
        state, _ = herald.heralded_state(params, outcome=ClickOutcome(*outcome))
        # the carried Gram has its own unit trace; the D-form factor's (np.vdot) is off by up
        # to 1e-13 at (2, 0.4), so that factor is compared at its own trace
        a, _ = plain_heralded_factor(params, ClickOutcome(*outcome), state.config)
        a = a.reshape(state.config.dim, -1)
        trace = np.trace(a.conj().T @ a).real
        assert abs(trace - 1.0) <= fock.TRACE_TOL
        a = a / math.sqrt(trace)
        gram = a.conj().T @ a
        assert np.max(np.abs(state.clicks.gram() - gram)) <= 1e-13 * np.max(np.abs(gram))
        plain = fock.TwoModeState(state.config, a.reshape(state.config.cutoff_1, state.config.cutoff_2, -1))
        assert abs(fock.von_neumann_entropy(state) - fock.von_neumann_entropy(plain)) <= 1e-13


def mpmath_heralded_gram(params, cfg, dps=50):
    """(A^dag A, p) of the {1, 0} heralded factor at `dps` digits, each mode's D = expm(i mu X)
    of the truncated generator: A_x = sum_t g_t (U_t |k1_x>)(V_t |k2_x>) s_x / sqrt(p) with
    (g, U, V) = (1, D1, 1), (c, 1, D2) in parallel and (1, D1, D2), (c, 1, 1) in series,
    c = e^{i phi} as rounded to double. p = |pref|^2 tr is the trace before that normalisation
    times the prefactor as rounded to double, which cancels in A^dag A."""
    import mpmath as mp

    kept, w = thermal_columns(params.nbar_1, params.nbar_2, cfg)
    k1, k2 = np.divmod(kept, cfg.cutoff_2)
    with mp.workdps(dps):
        def displacement(cutoff):
            x = mp.matrix(cutoff, cutoff)
            for n in range(1, cutoff):
                x[n - 1, n] = x[n, n - 1] = mp.sqrt(n) / mp.sqrt(2)
            return mp.expm(1j * mp.mpf(params.mu) * x)

        def as_objects(m):
            return np.array(m.tolist(), dtype=object)

        c = complex(np.exp(1j * params.phi))
        d1, d2 = displacement(cfg.cutoff_1), displacement(cfg.cutoff_2)
        i1, i2 = mp.eye(cfg.cutoff_1), mp.eye(cfg.cutoff_2)
        terms = [(mp.mpc(1), d1, i2), (mp.mpc(c.real, c.imag), i1, d2)]
        if params.configuration == herald.SERIES:
            terms = [(mp.mpc(1), d1, d2), (mp.mpc(c.real, c.imag), i1, i2)]
        gram = 0
        for (g, u, v), (g2, u2, v2) in itertools.product(terms, terms):
            m1, m2 = as_objects(u.H * u2), as_objects(v.H * v2)
            gram = gram + mp.conj(g) * g2 * m1[np.ix_(k1, k1)] * m2[np.ix_(k2, k2)]
        s = np.array([mp.sqrt(mp.mpf(float(v))) for v in w], dtype=object)
        gram = gram * s[:, None] * s[None, :]
        trace = mp.re(sum(np.diagonal(gram)))
        p = trace * mp.mpf(abs(herald.amplitude_prefactor(params, ClickOutcome(1, 0))) ** 2)
        return np.array([[complex(v) for v in row] for row in gram / trace]), p


@pytest.mark.parametrize("configuration", ["parallel", "series"])
@pytest.mark.parametrize("mu", [0.01, 0.05])
def test_carried_gram_at_the_dark_fringe_against_50_digits(configuration, mu):
    # at phi = pi the heralded factor is O(mu) made from O(1) columns; E = D - I is O(mu) itself
    params = ProtocolParams(mu=mu, phi=math.pi, configuration=configuration, nbar_1=0.1, nbar_2=0.1)
    cfg = fock.FockConfig(10, 10)
    ref, _ = mpmath_heralded_gram(params, cfg)
    state, _ = herald.heralded_state(params, cfg)
    a = plain_heralded_factor(params, ClickOutcome(1, 0), cfg)[0].reshape(cfg.dim, -1)
    scale = np.max(np.abs(ref))
    carried = np.max(np.abs(state.clicks.gram() - ref)) / scale
    product = np.max(np.abs(a.conj().T @ a - ref)) / scale
    assert carried <= product


@pytest.mark.parametrize("configuration", ["parallel", "series"])
@pytest.mark.parametrize("mu", [0.01, 0.05])
def test_heralding_probability_of_the_click_columns_at_the_dark_fringe_against_50_digits(configuration, mu):
    # p from the click columns' trace against the D-form factor's np.vdot; measured on 10 x 10
    # levels: 5.1e-16 / 1.5e-15 (mu = 0.01 / 0.05) relative against 8.2e-16 / 2.3e-15 (parallel)
    # and 5.1e-16 / 2.1e-15 (series)
    params = ProtocolParams(mu=mu, phi=math.pi, configuration=configuration, nbar_1=0.1, nbar_2=0.1)
    cfg = fock.FockConfig(10, 10)
    _, ref = mpmath_heralded_gram(params, cfg)
    _, p = herald.heralded_state(params, cfg)
    _, p_plain = plain_heralded_factor(params, ClickOutcome(1, 0), cfg)
    carried, plain = (float(abs(v - ref) / ref) for v in (p, p_plain))
    assert carried <= 1e-14
    assert carried <= plain


# ---------------------------------------------------------------------------
# moments of a heralded state from its click columns, against the factor path


def factor_moments(params, outcome, cfg, order):
    """The factor path's moments of the D-form oracle factor at its own trace, its (0, 0, 0, 0)
    entry: the factor is normalised by np.vdot, which is off by up to 1e-13 at dim 1936. A
    state without click columns takes the factor path, bit for bit."""
    bare = fock.TwoModeState(cfg, plain_heralded_factor(params, outcome, cfg)[0])
    values = algebra.moments_from_state(bare, order).values
    assert values.tobytes() == algebra._moments_raw(bare, order).values.tobytes()
    return values / values[0].real


def assert_carried_moments_match(params, outcome):
    state, _ = herald.heralded_state(params, outcome=outcome)
    for order in (2, 4):
        ref = factor_moments(params, outcome, state.config, order)
        carried = algebra.moments_from_state(state, order).values
        assert np.max(np.abs(carried - ref) / (1.0 + np.abs(ref))) <= 1e-13


@pytest.mark.parametrize("configuration", ["parallel", "series"])
@pytest.mark.parametrize("outcome", [(1, 0), (0, 1), (2, 1)])
def test_carried_moments_are_the_factors_moments(configuration, outcome):
    # (2, 0.4) with three clicks is left out: there the factor path itself is 1.3e-13 off a
    # long-double evaluation (series, phi = pi/2); the property below covers one click up to it
    for phi, (mu, nbar) in itertools.product((0.0, math.pi / 2, math.pi), [(0.01, 0.1), (0.05, 0.1), (1.0, 0.2)]):
        params = ProtocolParams(mu=mu, phi=phi, configuration=configuration, nbar_1=nbar, nbar_2=nbar)
        assert_carried_moments_match(params, ClickOutcome(*outcome))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    mu=st.floats(0.01, 2.0),
    nbar=st.floats(0.0, 0.5),
    phi=st.floats(0.0, 2 * math.pi),
    configuration=st.sampled_from([herald.PARALLEL, herald.SERIES]),
    outcome=st.sampled_from([(1, 0), (0, 1)]),
)
def test_carried_moments_property(mu, nbar, phi, configuration, outcome):
    # the factor path loses digits where its heralding norm 1 +- lam cos(phi) cancels: at
    # mu = 0.012, nbar = 0, phi = pi it is 1.5e-13 (parallel) and 3.1e-13 (series) off a
    # long-double evaluation, the click columns 2.7e-16; the fixed cases above hold the dark
    # fringe at mu = 0.01 and 0.05 with nbar = 0.1
    params = ProtocolParams(mu=mu, phi=phi, configuration=configuration, nbar_1=nbar, nbar_2=nbar)
    click = ClickOutcome(*outcome)
    assume(heralding_probability(params, click) / herald.prefactor_probability(params, click) >= 1e-2)
    assert_carried_moments_match(params, click)
