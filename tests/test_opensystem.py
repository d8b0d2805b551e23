import itertools
import math

import numpy as np
import pytest

from dense_reference import assert_hermitian_words_real
from mechcat import herald, opensystem
from mechcat.algebra import canonicalize, keys_up_to_order
from mechcat.herald import ProtocolParams, heralded_moment_table
from mechcat.opensystem import (
    EnvParams,
    MeasurementSchedule,
    evolve_moments,
    noise_covariances,
    quarter_period,
)

OMEGA = 2 * math.pi * 1e6


def test_env_params_derived_rates():
    env = EnvParams(omega_m=OMEGA, q_factor=1e5, nbar_bath=10.0)
    assert env.gamma == pytest.approx(OMEGA / 1e5)
    assert env.epsilon == pytest.approx(5e-6)
    assert env.force_strength == pytest.approx(21.0)


def test_env_warns_below_q10():
    with pytest.warns(UserWarning):
        EnvParams(omega_m=OMEGA, q_factor=5.0, nbar_bath=0.0)


def test_quarter_period_gamma_zero_limit():
    env = EnvParams(omega_m=OMEGA, q_factor=math.inf, nbar_bath=0.0)
    assert quarter_period(env) == pytest.approx(math.pi / (2 * OMEGA), rel=1e-15)


def test_quarter_period_small_damping_shift():
    env = EnvParams(omega_m=OMEGA, q_factor=1e5, nbar_bath=0.0)
    tq = quarter_period(env)
    base = math.pi / (2 * OMEGA)
    rel = (tq - base) / base
    # shift is arctan(eps)/(pi/2) ~ 2 eps / pi = 3.2e-6
    assert rel > 0
    assert rel == pytest.approx(2 * env.epsilon / math.pi, rel=1e-3)


def test_quarter_period_monotone_in_damping():
    base = math.pi / (2 * OMEGA)
    for q in (10.0, 25.0, 100.0, 1e4):
        env = EnvParams(omega_m=OMEGA, q_factor=q, nbar_bath=0.0)
        assert quarter_period(env) > base
    # at the X0-zero time the X0 coefficient really vanishes
    env = EnvParams(omega_m=OMEGA, q_factor=10.0, nbar_bath=0.0)
    t = quarter_period(env)
    cx = math.cos(OMEGA * t) + env.epsilon * math.sin(OMEGA * t)
    assert abs(cx) < 1e-12


def test_noise_covariances_zero_cases():
    env = EnvParams(omega_m=OMEGA, q_factor=1e5, nbar_bath=100.0)
    assert noise_covariances(env, 0.0, 0.0) == (0.0, 0.0, 0.0)
    env0 = EnvParams(omega_m=OMEGA, q_factor=math.inf, nbar_bath=100.0)
    assert noise_covariances(env0, 1.0, 1.0) == (0.0, 0.0, 0.0)


def noise_covariances_quad(env, t_x, t_p):
    """Adaptive-quadrature oracle for the three entries of opensystem.noise_covariances."""
    from scipy.integrate import quad

    g, w, s = env.gamma, env.omega_m, env.force_strength
    period = 2 * math.pi / w

    def cov(t1, t2):
        tm = min(t1, t2)
        if g == 0.0 or tm == 0.0:
            return 0.0
        pts = min(int(tm / period) * 4 + 50, 1000)
        val = quad(lambda tp: math.exp(g * tp) * math.sin(w * (t1 - tp)) * math.sin(w * (t2 - tp)),
                   0.0, tm, limit=max(200, pts), epsabs=1e-13, epsrel=1e-11)[0]
        return 2 * g * s * math.exp(-g * (t1 + t2) / 2) * val

    return cov(t_x, t_x), cov(t_p, t_p), cov(t_x, t_p)


@pytest.mark.parametrize("q,nbar_b,cycles", [(1e5, 1000.0, 0.25), (50.0, 3.0, 0.25), (50.0, 3.0, 2.7)])
def test_noise_closed_form_vs_quadrature(q, nbar_b, cycles):
    env = EnvParams(omega_m=OMEGA, q_factor=q, nbar_bath=nbar_b)
    t = cycles * 2 * math.pi / OMEGA
    a = noise_covariances(env, t, t + quarter_period(env))
    b = noise_covariances_quad(env, t, t + quarter_period(env))
    for x, y in zip(a, b):
        assert x == pytest.approx(y, rel=1e-8, abs=1e-14)


def test_noise_steady_state():
    # long-time measured variance saturates at (2 nbar_B + 1) (up to O(1/Q^2)),
    # the equipartition value of the Brownian-force normalization in use
    env = EnvParams(omega_m=OMEGA, q_factor=100.0, nbar_bath=7.0)
    t = 20.0 / env.gamma
    var_x, _, _ = noise_covariances(env, t, t)
    assert var_x == pytest.approx(env.force_strength, rel=1e-3)


def test_noise_cross_covariance_limits():
    env = EnvParams(omega_m=OMEGA, q_factor=200.0, nbar_bath=2.0)
    t = quarter_period(env)
    var_x, _, same = noise_covariances(env, t, t)
    assert same == pytest.approx(var_x, rel=1e-12)
    assert noise_covariances(env, 0.0, t)[2] == 0.0
    # quadrature oracle for two different times
    t2 = 2.2 * t
    g, w, s = env.gamma, env.omega_m, env.force_strength
    from scipy.integrate import quad

    ref = (
        2 * g * s
        * math.exp(-g * (t + t2) / 2)
        * quad(lambda tp: math.exp(g * tp) * math.sin(w * (t - tp)) * math.sin(w * (t2 - tp)),
               0.0, t, limit=400)[0]
    )
    assert noise_covariances(env, t, t2)[2] == pytest.approx(ref, rel=1e-8)


def _mpmath_noise_cov(env, t1, t2):
    """<DX(t1) DX(t2)> as a 50-digit Gauss-Legendre integral, one period per panel."""
    import mpmath as mp

    with mp.workdps(50):
        g, w, t1, t2 = (mp.mpf(v) for v in (env.gamma, env.omega_m, t1, t2))
        tm = min(t1, t2)
        panels = int(tm * w / (2 * mp.pi)) + 1
        integral = mp.quad(
            lambda tp: mp.exp(g * (tp - (t1 + t2) / 2)) * mp.sin(w * (t1 - tp)) * mp.sin(w * (t2 - tp)),
            mp.linspace(0, tm, panels + 1),
            method="gauss-legendre",
        )
        return float(2 * g * (2 * mp.mpf(env.nbar_bath) + 1) * integral)


@pytest.mark.parametrize("q", [10.0, 1e3, 3.74e4, 1e5, 7.54e5, 1.03e9, 1e12, 1e15])
def test_noise_covariances_match_mpmath(q):
    # the variances fall to 1.8e-14 (Q = 1.03e9) and 1.8e-20 (Q = 1e15) at
    # 0.01 tau, below the quad oracle's epsabs = 1e-13; the 50-digit integral is not
    env = EnvParams(omega_m=OMEGA, q_factor=q, nbar_bath=3.0)
    tau = quarter_period(env)
    for c in (0.01, 0.37, 1.0, 3.3, 50.0):
        t = c * tau
        var_x, _, _ = noise_covariances(env, t, t)
        ref = _mpmath_noise_cov(env, t, t)
        assert abs(var_x - ref) <= (1e-11 if c < 0.37 else 1e-14) * ref
    for c_x, c_p in ((3.3, 1.2), (50.0, 51.0)):
        var_x, var_p, cross = noise_covariances(env, c_x * tau, c_p * tau)
        assert abs(cross - _mpmath_noise_cov(env, c_x * tau, c_p * tau)) <= 1e-11 * math.sqrt(var_x * var_p)


def test_evolution_identity_when_closed():
    env = EnvParams(omega_m=OMEGA, q_factor=math.inf, nbar_bath=0.0)
    table = heralded_moment_table(ProtocolParams(mu=0.6, phi=2.0, nbar_1=0.2, nbar_2=0.1), 4)
    evolved = evolve_moments(table, env)
    worst = max(abs(evolved.value(k) - table.value(k)) for k in table.entries)
    assert worst < 1e-12
    assert evolved.evolved


def test_pure_rotation_maps_x_to_p():
    env = EnvParams(omega_m=OMEGA, q_factor=math.inf, nbar_bath=0.0)
    table = heralded_moment_table(ProtocolParams(mu=0.6, phi=1.0, nbar_1=0.2, nbar_2=0.2), 2)
    schedule = MeasurementSchedule(t_x=math.pi / (2 * OMEGA), t_p=math.pi / (2 * OMEGA))
    evolved = evolve_moments(table, env, schedule)
    assert evolved.value((1, 0, 0, 0)) == pytest.approx(table.value((0, 1, 0, 0)), abs=1e-12)


def test_measured_p_damping_factor():
    # <P>_measured = <P0> e^{-gamma tau'/2} sin(w tau'), with no X0 admixture
    env = EnvParams(omega_m=OMEGA, q_factor=50.0, nbar_bath=0.0)
    table = heralded_moment_table(ProtocolParams(mu=0.8, phi=math.pi / 2, nbar_1=0.1, nbar_2=0.1), 2)
    assert abs(table.value((1, 0, 0, 0))) > 1e-3  # X admixture would be visible
    tq = quarter_period(env)
    evolved = evolve_moments(table, env)
    factor = math.exp(-env.gamma * tq / 2.0) * math.sin(OMEGA * tq)
    assert evolved.value((0, 1, 0, 0)) == pytest.approx(factor * table.value((0, 1, 0, 0)), rel=1e-9)
    assert math.sin(OMEGA * tq) == pytest.approx(1 / math.sqrt(1 + env.epsilon**2), rel=1e-12)


def test_second_moment_evolution_explicit():
    # <P^2>_measured = s^2 <P0^2> + var_dx(tau')
    env = EnvParams(omega_m=OMEGA, q_factor=80.0, nbar_bath=5.0)
    table = heralded_moment_table(ProtocolParams(mu=0.0, phi=0.0, nbar_1=0.7, nbar_2=0.7), 2)
    tq = quarter_period(env)
    s = math.exp(-env.gamma * tq / 2.0) * math.sin(OMEGA * tq)
    evolved = evolve_moments(table, env)
    expect = s * s * table.value((0, 2, 0, 0)) + noise_covariances(env, tq, tq)[0]
    assert evolved.value((0, 2, 0, 0)) == pytest.approx(expect, rel=1e-12)


def test_rethermalization_long_time():
    # both quadratures measured long after generation relax to the bath level
    env = EnvParams(omega_m=OMEGA, q_factor=100.0, nbar_bath=4.0)
    t_long = 20.0 / env.gamma
    schedule = MeasurementSchedule(t_x=t_long, t_p=t_long + quarter_period(env))
    table = heralded_moment_table(ProtocolParams(mu=0.0, phi=0.0), 2)
    evolved = evolve_moments(table, env, schedule)
    assert evolved.value((2, 0, 0, 0)).real == pytest.approx(env.force_strength, rel=1e-3)


def test_gaussian_noise_factorization_monte_carlo():
    # d = 4 word: evolved <P^4> equals the Isserlis value; cross-check by
    # sampling the noise process (3 sigma, 1e6 samples)
    env = EnvParams(omega_m=OMEGA, q_factor=60.0, nbar_bath=2.0)
    nbar = 0.5
    table = heralded_moment_table(ProtocolParams(mu=0.0, phi=0.0, nbar_1=nbar, nbar_2=nbar), 4)
    tq = quarter_period(env)
    s = math.exp(-env.gamma * tq / 2.0) * math.sin(OMEGA * tq)
    w = noise_covariances(env, tq, tq)[0]
    evolved = evolve_moments(table, env)
    rng = np.random.default_rng(5)
    n = 10**6
    p0 = rng.normal(0.0, math.sqrt(nbar + 0.5), size=n)
    noise = rng.normal(0.0, math.sqrt(w), size=n)
    samples = (s * p0 + noise) ** 4
    mc = samples.mean()
    sigma = samples.std() / math.sqrt(n)
    assert abs(evolved.value((0, 4, 0, 0)).real - mc) < 3 * sigma


def test_commutator_defect_scaling():
    # evolved Im<X P> = s/2: defect (1-s)/2 ~ gamma tau'/4; below 1e-6 at Q >= 1e6
    table = heralded_moment_table(ProtocolParams(mu=0.0, phi=0.0, nbar_1=0.2, nbar_2=0.2), 2)
    for q, bound in [(1e6, 1e-6), (1e5, 1e-5)]:
        env = EnvParams(omega_m=OMEGA, q_factor=q, nbar_bath=0.0)
        evolved = evolve_moments(table, env)
        defect = abs(2.0 * evolved.value((1, 1, 0, 0)).imag - 1.0)
        assert defect < bound
        tq = quarter_period(env)
        assert defect == pytest.approx(1 - math.exp(-env.gamma * tq / 2) * math.sin(OMEGA * tq), rel=1e-6)


def test_hermitian_realness_preserved():
    env = EnvParams(omega_m=OMEGA, q_factor=1e4, nbar_bath=30.0)
    table = heralded_moment_table(ProtocolParams(mu=0.6, phi=1.7, nbar_1=0.3, nbar_2=0.1), 4)
    assert_hermitian_words_real(evolve_moments(table, env))


# ---------------------------------------------------------------------------
# letter-by-letter reference: every word is expanded into its product terms
# and the noise letters are averaged pairing by pairing (Isserlis)


def _isserlis(noise_letters, cov):
    """E[prod of zero-mean jointly Gaussian noise letters]."""
    n = len(noise_letters)
    if n == 0:
        return 1.0
    if n % 2 == 1:
        return 0.0
    first = noise_letters[0]
    total = 0.0
    for j in range(1, n):
        c = cov(first, noise_letters[j])
        if c != 0.0:
            total += c * _isserlis(noise_letters[1:j] + noise_letters[j + 1 :], cov)
    return total


def reference_evolve(table, env, schedule, keys):
    """Evolved moments of `keys` by product expansion of the substituted letters."""
    sub = {
        "X": (opensystem._letter_substitution(env, schedule.t_x), schedule.t_x),
        "P": (opensystem._letter_substitution(env, schedule.t_p), schedule.t_p),
    }
    var_x, var_p, cross = noise_covariances(env, schedule.t_x, schedule.t_p)
    variance = {schedule.t_x: var_x, schedule.t_p: var_p}

    def cov(a, b):
        (mode_a, ta), (mode_b, tb) = a, b
        if mode_a != mode_b:
            return 0.0
        return variance[ta] if ta == tb else cross

    out = {}
    for key in keys:
        letters = (
            [("X", 1)] * key[0] + [("P", 1)] * key[1] + [("X", 2)] * key[2] + [("P", 2)] * key[3]
        )
        choices = []
        for quad_letter, mode in letters:
            (c_x, c_p), t = sub[quad_letter]
            opts = [(c_x, ("op", f"X{mode}")), (c_p, ("op", f"P{mode}"))]
            if variance[t] != 0.0:
                opts.append((1.0, ("noise", (mode, t))))
            choices.append([(c, tag) for c, tag in opts if c != 0.0])
        total = 0.0 + 0.0j
        for combo in itertools.product(*choices):
            coeff = 1.0 + 0.0j
            op_word = []
            noise_list = []
            for c, (kind, payload) in combo:
                coeff *= c
                if kind == "op":
                    op_word.append(payload)
                else:
                    noise_list.append(payload)
            noise_val = _isserlis(tuple(noise_list), cov)
            if noise_val != 0.0:
                total += coeff * noise_val * table.evaluate(canonicalize(tuple(op_word)))
        out[key] = total
    return out


def _schedules(env):
    tq = quarter_period(env)
    t_long = 20.0 * 50.0 / OMEGA  # 20 / gamma at Q = 50
    return {
        "standard": MeasurementSchedule.standard(env),
        "equal": MeasurementSchedule(t_x=0.37 * tq, t_p=0.37 * tq),
        "long": MeasurementSchedule(t_x=t_long, t_p=t_long + tq),
    }


# order-8 tables have 495 keys and up to 3^8 product terms per key: check
# every top-order pure-mode key and a spread of the rest
_ORDER8_KEYS = sorted(
    {k for k in keys_up_to_order(8) if sum(k) == 8 and (k[0] + k[1] in (0, 8))}
    | set(keys_up_to_order(8)[::23])
)


@pytest.mark.parametrize("q", [math.inf, 50.0, 1e5])
@pytest.mark.parametrize("schedule_name", ["standard", "equal", "long"])
@pytest.mark.parametrize("order", [2, 4, 8])
def test_evolution_map_matches_letter_reference(order, schedule_name, q):
    env = EnvParams(omega_m=OMEGA, q_factor=q, nbar_bath=3.0)
    table = heralded_moment_table(
        ProtocolParams(mu=0.7, phi=2.2, nbar_1=0.3, nbar_2=0.1, configuration="series"), order
    )
    schedule = _schedules(env)[schedule_name]
    keys = _ORDER8_KEYS if order == 8 else keys_up_to_order(order)
    ref = reference_evolve(table, env, schedule, keys)
    new = evolve_moments(table, env, schedule)
    worst = max(abs(new.value(k) - ref[k]) / (1.0 + abs(ref[k])) for k in keys)
    assert worst < 1e-12


@pytest.mark.parametrize("order", [2, 4, 8])
def test_batched_evolution_map_matches_per_environment_builds(order):
    # the closed system, the membrane row's Q = 1.03e9, and low-Q and hot baths
    envs = [EnvParams(OMEGA, q, nb) for q, nb in
            [(math.inf, 0.0), (1.03e9, 1e5), (1.03e9, 1e3), (1e5, 1000.0), (50.0, 3.0), (1e5, 0.0)]]
    batch = opensystem.evolution_map(envs, order)
    n = (order + 1) * (order + 2) // 2
    assert batch.shape == (len(envs), n, n)
    for env, m in zip(envs, batch):
        assert np.array_equal(m, opensystem.evolution_map([env], order)[0])
    # an explicit schedule list gives the same maps as the standard default
    schedules = [MeasurementSchedule.standard(e) for e in envs]
    assert np.array_equal(opensystem.evolution_map(envs, order, schedules), batch)
