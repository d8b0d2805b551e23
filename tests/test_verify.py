import dataclasses
import math

import numpy as np
import pytest

from dense_reference import factor, moments_raw, pure_cat_state, sample_port_shots
from mechcat import fock, verify
from mechcat.algebra import canonicalize, keys_up_to_order, symmetrized_expand
from mechcat.errors import IllConditioned, OrderOverflow, RankDeficient
from mechcat.herald import ProtocolParams, heralded_moment_table
from mechcat.opensystem import EnvParams, evolve_moments
from mechcat.verify import (
    PORTS,
    ChannelRows,
    Pathway,
    PhaseSet,
    VerificationStudy,
    default_phase_sets,
    exact_port_moments,
    recover_moments,
)

PHI = math.pi
ENV = EnvParams(omega_m=2 * math.pi * 1e6, q_factor=1e5, nbar_bath=1000.0)


def evolved_table(mu=0.5, phi=PHI, nbar=0.1, order=8, configuration="parallel", env=ENV):
    params = ProtocolParams(mu=mu, phi=phi, nbar_1=nbar, nbar_2=nbar, configuration=configuration)
    return evolve_moments(heralded_moment_table(params, order), env)


def port_samples(table, port, n_samples, seeds, phases=PhaseSet(), chi=1.0):
    """The sample moments and standard errors of the `port` channel of a one-phase-set
    study, one pair per seed."""
    study = VerificationStudy(table, phi=PHI, chi=chi, phase_sets=[phases])
    k = PORTS.index(port)
    assert study.channels[k] == (Pathway(phases=phases, chi=chi, phi=PHI), port)
    samples = (study.sample_moments(n_samples, seed) for seed in seeds)
    return [(moments[k], errors[k]) for moments, errors in samples]


def channel_rows(pathway, port):
    """The signal and noise coefficient rows of one channel over (X1, P1, X2, P2)."""
    (signal,), (noise,) = verify._channel_signals([(pathway, port)])
    return signal, noise


def test_port_coefficients_single_pulse():
    pathway = Pathway(pulses=frozenset({"m1_t0"}), chi=2.0, phi=0.7)
    signal, noise = channel_rows(pathway, "A")
    assert signal[0] == pytest.approx(2.0 * 0.5)
    assert np.all(signal[1:] == 0)
    # every port carries exactly one unit of vacuum noise
    assert np.sum(np.abs(noise) ** 2) == pytest.approx(1.0)


def test_port_coefficients_full_pathway():
    phi = 1.3
    pathway = Pathway(phases=PhaseSet(), chi=1.0, phi=phi)
    signal_a, _ = channel_rows(pathway, "A")
    e = np.exp(1j * phi)
    assert signal_a[0] == pytest.approx(0.5)
    assert signal_a[1] == pytest.approx(0.5)
    assert signal_a[2] == pytest.approx(0.5 * e)
    assert signal_a[3] == pytest.approx(0.5 * e)
    _, noise_c = channel_rows(pathway, "C")
    signs = np.sign([noise_c[0].real, noise_c[1].real, (noise_c[2] / e).real, (noise_c[3] / e).real])
    assert list(signs) == [1, -1, -1, -1]
    _, noise_d = channel_rows(pathway, "D")
    signs_d = np.sign([noise_d[0].real, noise_d[1].real, (noise_d[2] / e).real, (noise_d[3] / e).real])
    assert list(signs_d) == [1, -1, 1, -1]


def test_exact_first_moment_single_pulse():
    table = evolved_table(order=2)
    chi = 1.7
    pathway = Pathway(pulses=frozenset({"m1_t0"}), chi=chi, phi=PHI)
    m = exact_port_moments(pathway, "A", table, 1)
    assert m[0] == pytest.approx(chi * table.value((1, 0, 0, 0)) / 2.0)


def test_exact_third_moment_single_pulse_structure():
    # <P^3> = (chi/2)^3 <X^3> + 3 (chi/2) <X> <N^2>, with <N^2> the
    # unitary-network vacuum variance of the port
    table = evolved_table(mu=0.8, phi=2.0, order=6)
    chi = 1.3
    pathway = Pathway(pulses=frozenset({"m1_t0"}), chi=chi, phi=2.0)
    nu = np.sum(channel_rows(pathway, "A")[1] ** 2) / 2.0
    m = exact_port_moments(pathway, "A", table, 3)
    x1 = table.value((1, 0, 0, 0))
    x3 = table.value((3, 0, 0, 0))
    expect = (chi / 2) ** 3 * x3 + 3 * (chi / 2) * x1 * nu
    assert m[2] == pytest.approx(expect, rel=1e-12)
    # real pathway (phi = pi): the port noise variance is the full vacuum 1/2
    _, noise_pi = channel_rows(Pathway(pulses=frozenset({"m1_t0"}), chi=chi, phi=PHI), "A")
    assert np.sum(noise_pi**2) / 2.0 == pytest.approx(0.5)


def test_odd_port_moments_vanish_on_ground_state():
    table = heralded_moment_table(ProtocolParams(mu=0.0, phi=0.0), 8)
    pathway = Pathway(chi=1.0, phi=PHI)
    m = exact_port_moments(pathway, "A", table, 5)
    assert abs(m[0]) < 1e-14
    assert abs(m[2]) < 1e-14
    assert abs(m[4]) < 1e-14


def test_synthesize_noiseless_equals_exact():
    table = evolved_table()
    pathway = Pathway(chi=1.0, phi=PHI)
    ((moments, errors),) = port_samples(table, "B", None, [None])
    assert np.allclose(moments, exact_port_moments(pathway, "B", table, 4))
    assert np.all(errors == 0)


def test_synthesize_estimator_variance():
    table = evolved_table(mu=1e-3)
    pathway = Pathway(chi=1.0, phi=PHI)
    exact = exact_port_moments(pathway, "A", table, 2)
    n = 10**4
    devs = [moments[0] - exact[0] for moments, _ in port_samples(table, "A", n, [(3, k) for k in range(1000)])]
    var_emp = np.var(np.real(devs)) + np.var(np.imag(devs))
    var_th = abs(exact[1] - exact[0] ** 2) / n
    assert var_emp == pytest.approx(var_th, rel=0.05)


def test_seeded_sample_moments_are_the_per_channel_streams():
    # channel k of run(n, seed) adds factors[k] / sqrt(n) @ default_rng((seed, k)).standard_normal(order)
    # to its exact moments, bit for bit: `mechcat verify --seed 7` depends on these streams
    # the seeds' entropy words: one word for 0 and 2**32 - 1, two for 2**32, three for
    # 2**64 + 5, nested tuples flattened, and numpy's decimal and hex strings read as integers
    study = VerificationStudy(evolved_table(mu=1e-3), phi=PHI)
    seeds = [(7, 0), 3, 0, 2**32 - 1, 2**32, (2**64 + 5, 1), (3, (0, 2**40), 1), ("12", "0x1f")]
    for n, seed in zip([10**6, 10**4] + [10**5] * 6, seeds):
        moments, errors = study.sample_moments(n, seed)
        assert moments.shape == errors.shape == (len(study.channels), study.target_order)
        for k in range(len(study.channels)):
            z = np.random.default_rng((seed, k)).standard_normal(study.target_order)
            assert np.array_equal(moments[k], study.exact[k] + (study.factors[k] / math.sqrt(n)) @ z)
            assert np.array_equal(errors[k], np.sqrt(study.variances[k] / n))
        recovered = recover_moments(study.rows, moments, errors, n)
        run = study.run(n, seed).recovered_table
        assert np.array_equal(run.values, recovered.values)
        assert np.array_equal(run.errors, recovered.errors)
        assert run.n_samples == n
    for n in (0, -1):
        with pytest.raises(ValueError):
            study.run(n, 1)
    # a seed numpy refuses raises what default_rng((seed, k)) raises
    for seed, error in [(-1, ValueError), (1.5, TypeError), ((2, -1), ValueError), ((2, 1.5), TypeError)]:
        with pytest.raises(error) as numpy_error:
            np.random.default_rng((seed, 0))
        with pytest.raises(error, match=str(numpy_error.value)):
            study.sample_moments(10**6, seed)


def test_error_scaling_slope():
    table = evolved_table(mu=1e-3)
    pathway = Pathway(chi=1.0, phi=PHI)
    exact = exact_port_moments(pathway, "A", table, 1)[0]
    ns = [10**3, 10**4, 10**5, 10**6]
    means = []
    for n in ns:
        samples = port_samples(table, "A", n, [(11, k) for k in range(100)])
        devs = [abs(moments[0] - exact) for moments, _ in samples]
        means.append(np.mean(devs))
    slope = np.polyfit(np.log(ns), np.log(means), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_per_shot_sampler_matches_moments():
    cfg = fock.FockConfig(24, 24)
    state = pure_cat_state(0.7, PHI, "parallel", cfg)
    pathway = Pathway(chi=1.2, phi=PHI)
    shots = sample_port_shots(pathway, "A", state, 200_000, seed=4)
    table = moments_raw(state, 8)
    exact = exact_port_moments(pathway, "A", table, 3)
    for d in range(1, 4):
        emp = np.mean(shots**d)
        se = np.std(shots**d) / math.sqrt(len(shots))
        assert abs(emp - exact[d - 1].real) < 5 * se + 1e-12


def test_per_shot_requires_real_pathway():
    cfg = fock.FockConfig(10, 10)
    state = factor(fock.thermal_state(0.0, 0.0, cfg))
    pathway = Pathway(phases=PhaseSet(zeta_1=0.3), chi=1.0, phi=PHI)
    with pytest.raises(ValueError):
        sample_port_shots(pathway, "A", state, 10, seed=0)


def test_per_shot_requires_a_real_noise_row():
    # the one pulsed slot's signal is real, but the unpulsed P1 slot still injects
    # noise through the complex coefficient e^{i (zeta_3 + zeta_1)} / 2
    state = factor(fock.thermal_state(0.0, 0.0, fock.FockConfig(10, 10)))
    pathway = Pathway(pulses=frozenset({"m1_t0"}), phases=PhaseSet(zeta_1=0.3), chi=1.0, phi=PHI)
    signal, noise = channel_rows(pathway, "A")
    assert np.all(signal.imag == 0) and np.max(np.abs(noise.imag)) > 0.1
    with pytest.raises(ValueError):
        sample_port_shots(pathway, "A", state, 10, seed=0)


def test_noise_factor_is_ldlt_with_residual_check():
    # complex symmetric and nilpotent of index 3: its first pivot is zero over a
    # non-zero column, so it has no LDL^T factor
    c = np.array([[0, 1, 0], [1, 0, 1j], [0, 1j, 0]])
    with pytest.raises(IllConditioned):
        verify._factor_complex_symmetric(c)
    good = np.array([[2.0, 0.5j], [0.5j, 1.0]])
    b = verify._factor_complex_symmetric(good)
    assert np.max(np.abs(b @ b.T - good)) < 1e-12
    # a stack of random complex symmetric matrices, factored at once into
    # lower-triangular B = L sqrt(D)
    rng = np.random.default_rng(1)
    g = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    stack = g @ np.swapaxes(g, -1, -2)
    b = verify._factor_complex_symmetric(stack)
    assert b.shape == stack.shape
    assert np.all(np.triu(b, 1) == 0)
    assert np.max(np.abs(b @ np.swapaxes(b, -1, -2) - stack)) < 1e-12 * np.max(np.abs(stack))
    # an all-zero C gives a zero factor, a zero pivot over a zero column a zero column
    assert np.all(verify._factor_complex_symmetric(np.zeros((3, 3))) == 0)
    b = verify._factor_complex_symmetric(np.array([[0.0, 0.0], [0.0, 4.0]]))
    assert np.array_equal(b, [[0.0, 0.0], [0.0, 2.0]])
    with pytest.raises(IllConditioned):
        verify._factor_complex_symmetric(np.full((2, 2), np.nan))
    # a dropped zero pivot that mattered fails the residual check
    with pytest.raises(IllConditioned):
        verify._factor_complex_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_noise_factor_drops_rounding_level_pivots():
    # rank 2 plus rounding noise: the last two pivots are noise, and dividing by
    # their roots would make noise columns that move with every last bit of C
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    c = g @ g.T
    for _ in range(3):
        e = rng.standard_normal((4, 4))
        b = verify._factor_complex_symmetric(c * (1.0 + 1e-15 * (e + e.T)))
        assert np.all(b[:, 2:] == 0)
        assert np.max(np.abs(b @ b.T - c)) < 1e-13 * np.max(np.abs(c))


def test_noise_factor_root_continuous_across_negative_axis():
    # a pivot on the negative real axis keeps the sign of its root whichever
    # sign the rounding gives its imaginary part
    b = verify._factor_complex_symmetric(np.array([[[-1.0 + 1e-17j]], [[-1.0 - 1e-17j]], [[-1.0]]]))
    assert np.max(np.abs(b - b[0])) < 1e-15
    assert np.allclose(b @ np.swapaxes(b, -1, -2), -1.0, rtol=1e-15, atol=0.0)


def test_seeded_recovery_stable_under_last_bit_changes():
    # the `mechcat verify` defaults; a 1e-13 relative change of the exact
    # moments must barely move the seeded recovered moments
    from mechcat.presets import OMEGA_M_DEFAULT

    env = EnvParams(omega_m=OMEGA_M_DEFAULT, q_factor=1e5, nbar_bath=500.0)
    table = evolved_table(mu=1e-3, env=env)
    seeds = [(7, k) for k in range(5)]
    reference = VerificationStudy(table, phi=PHI)
    before = [reference.run(10**6, seed).recovered_table.entries for seed in seeds]
    for p in range(3):
        rng = np.random.default_rng(p)
        values = [
            value * (1.0 + 1e-13 * rng.uniform(-1.0, 1.0)) if any(key) else value
            for key, value in table.entries.items()
        ]
        study = VerificationStudy(dataclasses.replace(table, values=values), phi=PHI)
        assert np.max(np.abs(study.factors - reference.factors)) <= 1e-7
        for seed, ref in zip(seeds, before):
            rec = study.run(10**6, seed).recovered_table.entries
            assert max(abs(rec[key] - ref[key]) for key in ref) <= 1e-9


def test_max_abs_deviation_is_the_per_key_python_maximum():
    # bit for bit: np.abs rounds complex moduli differently from Python's abs
    from mechcat.presets import OMEGA_M_DEFAULT

    env = EnvParams(omega_m=OMEGA_M_DEFAULT, q_factor=1e5, nbar_bath=500.0)
    study = VerificationStudy(evolved_table(mu=1e-3, env=env), phi=PHI)
    for run in [study.run(None)] + [study.run(10**6, (7, k)) for k in range(20)]:
        exact, rec = run.exact_table.entries, run.recovered_table.entries
        assert run.max_abs_deviation() == max(abs(rec[k] - exact[k]) for k in rec)


def test_default_phase_sets_order1_minimal():
    # the four ports of the first set resolve the four first moments
    first = default_phase_sets(1)[0]
    channels = [(Pathway(phases=first, chi=1.0, phi=PHI), port) for port in PORTS]
    rows = verify._coefficient_rows(verify._channel_signals(channels)[0], verify._order_keys(1), 1)
    assert np.linalg.matrix_rank(rows) == 4


def test_default_phase_sets_span_order4():
    sets = default_phase_sets(4)
    keys = verify._order_keys(4)
    channels = [(Pathway(phases=ps, chi=1.0, phi=PHI), port) for ps in sets for port in PORTS]
    rows = verify._coefficient_rows(verify._channel_signals(channels)[0], keys, 4)
    rank = np.linalg.matrix_rank(rows)
    assert rank == len(keys) == 35


@pytest.mark.parametrize("configuration", ["parallel", "series"])
def test_noiseless_recovery_exact(configuration):
    table = evolved_table(configuration=configuration)
    run = VerificationStudy(table, phi=PHI, target_order=4).run(None)
    assert run.max_abs_deviation() < 1e-8


@pytest.mark.parametrize("mu, nbar, configuration, env", [
    (1e-3, 0.1, "parallel", ENV),
    (0.1, 0.05, "series", ENV),
    (1.0, 0.0, "parallel", EnvParams(omega_m=2 * math.pi * 1e6, q_factor=1e6, nbar_bath=100.0)),
])
def test_noiseless_recovery_to_rounding(mu, nbar, configuration, env):
    # one refinement step on the SVD solution's residual; the solution alone was ~1e-14 off
    table = evolved_table(mu=mu, nbar=nbar, configuration=configuration, env=env)
    recovered = VerificationStudy(table, phi=PHI, target_order=4).run(None).recovered_table
    exact = table.moments(4)
    assert np.max(np.abs(recovered.values - exact) / (1.0 + np.abs(exact))) <= 3e-15


def test_recovered_commutator_identity():
    # <X1^2 P1 X2> = S/3 + i <X1 X2> inside the recovered table
    table = evolved_table()
    run = VerificationStudy(table, phi=PHI, target_order=4).run(None)
    rec = run.recovered_table
    s_sum = sum(rec.evaluate(canonicalize(w)) for w in symmetrized_expand(2, 1, 1, 0))
    assert rec.value((2, 1, 1, 0)) == pytest.approx(
        s_sum / 3.0 + 1j * rec.value((1, 0, 1, 0)), abs=1e-10
    )


def test_port_redundancy_noiseless():
    table = evolved_table()
    study = VerificationStudy(table, phi=PHI, target_order=4)
    full = study.run(None).recovered_table
    keep = np.array([port != "D" for _, port in study.channels])
    moments, errors = study.sample_moments(None)
    rows = ChannelRows(study.rows.kappa[keep], study.rows.noise[keep], study.rows.d_max)
    reduced = recover_moments(rows, moments[keep], errors[keep])
    worst = max(abs(full.entries[k] - reduced.entries[k]) for k in full.entries)
    assert worst < 1e-8


def test_recovery_needs_one_row_per_channel_in_every_array():
    # a single sample row would broadcast against every channel's rows
    study = VerificationStudy(evolved_table(), phi=PHI, target_order=2)
    moments, errors = study.sample_moments(None)
    kappa, noise = study.rows.kappa, study.rows.noise
    for args in [
        (kappa, noise, moments[:1], errors[:1]),
        (kappa, noise[:, :2], moments, errors),
        (kappa, noise, moments, errors[:, :1]),
        (kappa[:0], noise[:0], moments[:0], errors[:0]),
    ]:
        with pytest.raises(ValueError):
            recover_moments(ChannelRows(*args[:2], study.rows.d_max), *args[2:])
    # the rows must reach the target order
    with pytest.raises(ValueError):
        recover_moments(ChannelRows(kappa, noise, 1), moments, errors)


def test_rank_deficient_single_phase_set():
    table = evolved_table(order=8)
    study = VerificationStudy(table, phi=PHI, target_order=2, phase_sets=[PhaseSet()])
    with pytest.raises(RankDeficient) as err:
        study.run(None)
    # four channels against ten unknowns: the reduced SVD has no null rows, so
    # the null directions come from the full one
    # the null space is six-dimensional: one key per direction
    assert err.value.missing_directions == [(0, 0, 0, 2), (0, 0, 1, 1), (0, 0, 2, 0), (0, 1, 0, 1), (0, 2, 0, 0),
                                            (1, 1, 0, 0)]


def test_missing_directions_do_not_depend_on_the_null_basis():
    kappa, _ = verify._channel_signals([(Pathway(phases=PhaseSet(), phi=PHI), port) for port in PORTS])
    keys = verify._order_keys(2)
    null = verify._null_space(verify._coefficient_rows(kappa, keys, 2), 1e-12)
    assert len(null) == 6
    rng = np.random.default_rng(5)
    for _ in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        assert verify._missing_directions(q @ null, keys) == verify._missing_directions(null, keys)


def test_ill_conditioned_family():
    table = evolved_table(order=8)
    sets = [PhaseSet(zeta_1=k * 1e-5, zeta_2=k * 2e-5, zeta_3=k * 3e-5) for k in range(8)]
    study = VerificationStudy(table, phi=PHI, target_order=2, phase_sets=sets)
    with pytest.raises((IllConditioned, RankDeficient)):
        study.run(None)


def test_small_chi_keeps_the_phase_sets_and_raises_ill_conditioned():
    # chi ~ 1e-4 once dropped 10 of the 20 order-4 sets and raised a misleading RankDeficient
    study = VerificationStudy(evolved_table(mu=1e-3), phi=PHI, chi=1e-4)
    assert [pathway.phases for pathway, _ in study.channels[:: len(PORTS)]] == default_phase_sets(4)
    with pytest.raises(IllConditioned):
        study.run(10**6, (7, 0))


def test_recovered_errors_scale_and_realness():
    table = evolved_table(mu=1e-3)
    study = VerificationStudy(table, phi=PHI, target_order=4)
    run = study.run(10**6, seed=2)
    rec = run.recovered_table
    assert rec.provenance == "recovered"
    assert rec.n_samples == 10**6
    # Hermitian words real within 3 propagated standard errors
    for key in [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (4, 0, 0, 0)]:
        assert abs(rec.entries[key].imag) < 3 * rec.std_errors[key] + 1e-12
    # propagated errors scale as N^{-1/2}
    bigger = study.run(10**8, seed=2).recovered_table
    for key in [(2, 0, 0, 0), (0, 0, 0, 4)]:
        assert rec.std_errors[key] / bigger.std_errors[key] == pytest.approx(10.0, rel=0.05)


def test_recovered_errors_against_50_digit_gram_inverse():
    # the `mechcat verify` defaults, last run of --seed 7: the order-4 weighted
    # matrix has condition number ~1.5e6, so (A_w^H A_w)^-1 in doubles loses ~1e-6
    import mpmath as mp

    from mechcat.algebra import apply_mode_map, order_slice, symmetrization_maps
    from mechcat.presets import OMEGA_M_DEFAULT

    env = EnvParams(omega_m=OMEGA_M_DEFAULT, q_factor=1e5, nbar_bath=500.0)
    study = VerificationStudy(evolved_table(mu=1e-3, env=env), phi=PHI)
    moments, standard_errors = study.sample_moments(10**6, (7, 19))
    rec = recover_moments(study.rows, moments, standard_errors, 10**6)
    sym_sq = symmetrization_maps(4)[1]
    errors = np.zeros(len(keys_up_to_order(4)))
    with mp.workdps(50):
        for order in range(1, 5):
            keys = verify._order_keys(order)
            se = standard_errors[:, order - 1]
            assert np.all(se > 0)
            a_w = mp.matrix((verify._coefficient_rows(study.rows.kappa, keys, order) / se[:, None]).tolist())
            gram_inv = mp.inverse(a_w.H * a_w)
            sum_var = np.array([float(mp.re(gram_inv[i, i])) for i in range(len(keys))])
            block = order_slice(order)
            lower_var = apply_mode_map(sym_sq, errors**2, 4)[block].real
            n_words = np.array([math.comb(p + q, p) * math.comb(r + s, r) for p, q, r, s in keys])
            errors[block] = np.sqrt(sum_var + lower_var) / n_words
    for key, ref in zip(verify._order_keys(4), errors[order_slice(4)]):
        assert abs(rec.std_errors[key] - ref) <= 1e-9 * ref


def test_sign_stability_small():
    table = evolved_table(mu=1e-3)
    from mechcat.criteria import build_s3

    s3_exact = build_s3(table).value
    study = VerificationStudy(table, phi=PHI, target_order=4)
    agree = sum(
        (build_s3(study.run(10**6, seed=k).recovered_table).value < 0) == (s3_exact < 0)
        for k in range(20)
    )
    assert agree >= 19


# ---------------------------------------------------------------------------
# scalar reference: symmetrized sums word by word, port moments key by key


def _reference_port_moments(pathway, port, table, d_max):
    signal, noise = channel_rows(pathway, port)

    def mech_coefficient(key, order):
        c = math.comb(order, key[0] + key[1])
        for coefficient, e in zip(signal, key):
            if e:
                c = c * coefficient**e  # 0 for an unpulsed slot
        return c

    def mech_moment(order):
        total = 1.0 + 0.0j if order == 0 else 0.0 + 0.0j
        for key in keys_up_to_order(order):
            if order and sum(key) == order:
                s_sum = sum(table.evaluate(canonicalize(w)) for w in symmetrized_expand(*key))
                total += mech_coefficient(key, order) * s_sum
        return total

    def noise_moment(m):
        if m % 2:
            return 0.0
        return math.prod(range(m - 1, 0, -2)) * (np.sum(noise**2) / 2.0) ** (m // 2)

    mech = [mech_moment(j) for j in range(d_max + 1)]
    return np.array([
        sum(math.comb(d, j) * mech[j] * noise_moment(d - j) for j in range(d + 1))
        for d in range(1, d_max + 1)
    ])


@pytest.mark.parametrize(
    "pathway",
    [
        Pathway(chi=1.0, phi=PHI),
        Pathway(phases=PhaseSet(0.3, 1.1, 2.0, 0.7), chi=1.4, phi=2.3),
        Pathway(pulses=frozenset({"m1_t0", "m2_tp"}), phases=PhaseSet(zeta_2=0.9), chi=0.8, phi=PHI),
    ],
)
def test_exact_port_moments_match_scalar_reference(pathway):
    table = evolved_table(mu=0.9, phi=2.0, nbar=0.2)
    for port in PORTS:
        ref = _reference_port_moments(pathway, port, table, 8)
        new = exact_port_moments(pathway, port, table, 8)
        assert np.max(np.abs(new - ref) / (1.0 + np.abs(ref))) < 1e-12


@pytest.mark.parametrize(
    "args,expected",
    [
        (
            (4,),
            [(0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0), (0, 4, 0), (1, 0, 0), (1, 1, 0),
             (1, 2, 0), (2, 0, 0), (2, 2, 0), (0, 0, 1), (0, 2, 1), (1, 3, 1), (2, 0, 1),
             (2, 3, 1), (5, 3, 1), (0, 0, 2), (1, 4, 2), (3, 3, 2), (4, 1, 2)],
        ),
        ((1,), [(0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0)]),
        (
            (2,),
            [(0, 0, 0), (0, 1, 0), (2, 0, 0), (0, 0, 2), (0, 1, 2), (0, 2, 2), (0, 3, 2)],
        ),
        (
            (3,),
            [(0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 0, 0), (1, 2, 0), (2, 0, 0),
             (0, 0, 2), (1, 4, 2), (3, 3, 2), (3, 4, 2), (3, 5, 2), (3, 6, 2)],
        ),
    ],
)
def test_default_phase_sets_pinned(args, expected):
    # (zeta_1, zeta_2, zeta_3) in units of pi/4, zeta_4 = 0, written out apart from
    # the library's table; _reference_phase_sets regenerates them from the rule
    step = math.pi / 4.0
    assert default_phase_sets(*args) == [PhaseSet(a * step, b * step, c * step, 0.0) for a, b, c in expected]


def _reference_phase_sets(target_order, phi, chi, margin, residual=0.25):
    """Candidate-by-candidate greedy selection, one port row at a time: a row is accepted
    when it keeps more than `residual` of its norm against its order's accepted directions,
    and `margin` extra candidates follow once every order is complete."""
    grid = [k * math.pi / 4.0 for k in range(8)]
    candidates = [PhaseSet(z1, z2, z3, 0.0) for z3 in grid for z1 in grid for z2 in grid]
    keys = {d: verify._order_keys(d) for d in range(1, target_order + 1)}
    bases = {d: [] for d in keys}
    selected, extra = [], 0

    def complete():
        return all(len(bases[d]) >= len(keys[d]) for d in keys)

    for cand in candidates:
        pathway = Pathway(phases=cand, chi=chi, phi=phi)
        useful, complete_before = False, complete()
        for d in keys:
            for port in PORTS:
                if len(bases[d]) >= len(keys[d]):
                    break
                kappa, _ = verify._channel_signals([(pathway, port)])
                vec = verify._coefficient_rows(kappa, keys[d], d)[0]
                norm0 = np.linalg.norm(vec)
                if norm0 < 1e-12:
                    continue
                basis = np.reshape(bases[d], (-1, len(keys[d])))
                vec = vec - basis.T @ (basis.conj() @ vec)
                if np.linalg.norm(vec) > residual * norm0:
                    bases[d].append(vec / np.linalg.norm(vec))
                    useful = True
        if useful:
            selected.append(cand)
        elif complete_before and extra < margin:
            selected.append(cand)
            extra += 1
        if complete() and extra >= margin:
            break
    return selected


@pytest.mark.parametrize(
    "args",
    [(1, 0.3, 0.7, 3), (2, 2.0, 1.3, 3), (2, 5.1, 1.0, 3), (3, math.pi / 2, 0.7, 3), (4, 0.3, 1.3, 3)],
)
def test_default_phase_sets_match_candidate_loop(args):
    assert default_phase_sets(args[0]) == _reference_phase_sets(*args)


@pytest.mark.parametrize("chi", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("phi", [0.0, 0.3, math.pi / 2, 2.0, math.pi])
def test_default_phase_sets_depend_on_the_order_alone(phi, chi):
    # phi puts one unit phase on each key column and chi scales each order's rows,
    # so neither moves the greedy selection of the candidate loop
    for order in range(1, 5):
        assert default_phase_sets(order) == _reference_phase_sets(order, phi, chi, 3)


def test_default_phase_sets_reject_orders_outside_the_table():
    with pytest.raises(ValueError):
        default_phase_sets(0)
    with pytest.raises(OrderOverflow):
        default_phase_sets(5)


@pytest.mark.parametrize("phase_sets", [None, [PhaseSet()]])
def test_study_rejects_order_5_before_any_port_moment(monkeypatch, phase_sets):
    # order 5 needs port moments of order 10, above algebra.D_MAX = 8
    def port_moments(*args):
        raise AssertionError("port moments built")

    monkeypatch.setattr(verify, "_port_moments", port_moments)
    with pytest.raises(OrderOverflow):
        VerificationStudy(evolved_table(), phi=PHI, target_order=5, phase_sets=phase_sets)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_noiseless_recovery_exact_at_the_lower_orders(order):
    run = VerificationStudy(evolved_table(), phi=PHI, target_order=order).run(None)
    assert run.max_abs_deviation() < 1e-12
