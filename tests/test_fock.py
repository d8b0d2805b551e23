import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import genlaguerre

from dense_reference import (coherent_vector, columns, density_matrix, dense_thermal_factor, displacement, factor,
                             fidelity_to_pure, letter_matrices, lift, moments_raw, on_mode, partial_trace,
                             plain_heralded_factor, port_spectrum, random_click_state, state_from_rho,
                             unsplit_gram)
from mechcat import algebra, criteria, fock, herald, verify
from mechcat.errors import CutoffTooSmall, MechcatError, NegativeNonGaussianity


CFG = fock.FockConfig(24, 24)


def test_config_validation():
    with pytest.raises(ValueError):
        fock.FockConfig(1, 10)
    assert CFG.dim == 576


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
    vacuum = np.zeros((CFG.dim, CFG.dim))
    vacuum[0, 0] = 1.0
    assert np.max(np.abs(density_matrix(factor(st)) - vacuum)) < 1e-14


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
    b = fock.destroy(cfg.cutoff_1)
    n1 = lift(b.conj().T @ b, 1, cfg)
    a = columns(factor(st))
    assert abs(np.vdot(a, n1 @ a).real - 0.29) < 1e-6


def test_thermal_tail_guard():
    with pytest.raises(CutoffTooSmall):
        fock.thermal_populations(5.3, 20)


def test_displacement_identity_at_zero():
    d = displacement(0.0, CFG.cutoff_1)
    assert np.max(np.abs(d - np.eye(CFG.cutoff_1))) < 1e-14


def test_displacement_momentum_kick():
    mu = 0.9
    beta = 1j * mu / math.sqrt(2)
    d = displacement(beta, CFG.cutoff_1)
    a = columns(on_mode(d, 1, factor(fock.thermal_state(0.0, 0.0, CFG))))
    mats = letter_matrices(CFG)
    x = np.vdot(a, mats["X1"] @ a)
    p = np.vdot(a, mats["P1"] @ a)
    assert abs(x) < 1e-10
    assert abs(p - mu) < 1e-10


def test_displacement_vacuum_amplitude():
    # <0|D(i mu/sqrt2)|0> = e^{-mu^2/4}; 0.77880 at mu = 1
    d = displacement(1j / math.sqrt(2), CFG.cutoff_1)
    amp = d[0, 0]
    assert abs(amp - math.exp(-0.25)) < 1e-10
    assert abs(amp - 0.77880) < 1e-5


def test_displacement_matrix_elements_oracle():
    # associated-Laguerre closed form for <m|D(beta)|n>, m >= n
    beta = 0.3 + 0.4j
    cutoff = 30
    d = displacement(beta, cutoff)
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
    cutoff = 32
    beta = math.sqrt(cutoff / 4.0)  # boundary of the stated regime
    d = displacement(beta, cutoff)
    dm = displacement(-beta, cutoff)
    assert np.max(np.abs(d @ dm - np.eye(cutoff))) < 1e-9
    assert np.max(np.abs(d.conj().T @ d - np.eye(cutoff))) < 1e-9


def test_displacement_cutoff_guard():
    with pytest.raises(CutoffTooSmall):
        fock.displacement_minus_identity(5.0, 10)


def test_library_e_is_the_oracle_d_minus_identity():
    # the library holds E = D - I only; the D-form oracle's D is the tests' own
    for beta, cutoff in [(0.0, 12), (0.3 + 0.4j, 30), (0.01j / math.sqrt(2), 20), (1.5j, 24), (4.0, 32)]:
        d = displacement(beta, cutoff)
        e = fock.displacement_minus_identity(beta, cutoff)
        assert np.max(np.abs(e - (d - np.eye(cutoff)))) <= 1e-14 * np.max(np.abs(d))


def test_expectation_basics():
    x = letter_matrices(CFG)["X1"]
    a = columns(factor(fock.thermal_state(0.0, 0.0, CFG)))
    assert abs(np.vdot(a, x @ a)) < 1e-14
    a = columns(factor(fock.thermal_state(0.4, 0.0, CFG)))
    assert abs(np.vdot(a, x @ x @ a).real - 0.9) < 1e-9


def test_entropy_pure_and_thermal():
    assert fock.von_neumann_entropy(fock.thermal_state(0.0, 0.0, CFG)) == 0.0
    cfg = fock.FockConfig(45, 8)
    th = fock.thermal_state(1.0, 0.0, cfg)
    # (nbar+1)ln(nbar+1) - nbar ln nbar = 2 ln 2
    assert abs(fock.von_neumann_entropy(th) - 2 * math.log(2)) < 1e-9


def test_entropy_of_a_complex_gram_matrix_takes_the_hermitian_solve():
    # click columns with random complex f and E: a Gram matrix whose imaginary part is far
    # above rounding, and whose real part has another spectrum than rho
    for cfg, seed in ((fock.FockConfig(5, 6), 3), (fock.FockConfig(7, 4), 4)):
        state = random_click_state(cfg, seed, decay=0.3)
        [gram] = state.gram()
        assert np.linalg.norm(gram.imag) > 1e6 * fock.GRAM_IMAG_TOL
        ref = fock.entropy_of_matrix(density_matrix(factor(state)))
        assert abs(fock.entropy_of_matrix(gram.real) - ref) > 0.1
        assert abs(fock.von_neumann_entropy(state) - ref) <= 1e-12 * ref


def test_exchange_blocks_have_the_spectrum_of_the_full_gram():
    # heralded states from equal occupations and cutoffs split into two blocks, whose joint
    # spectrum is that of the full Gram matrix
    rng = np.random.default_rng(28)
    for _ in range(12):
        mu, phi, nbar = rng.uniform(0.05, 1.5), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 0.3)
        configuration = (herald.PARALLEL, herald.SERIES)[rng.integers(2)]
        outcome = herald.ClickOutcome(*((1, 0), (0, 1))[rng.integers(2)])
        params = herald.ProtocolParams(mu=mu, phi=phi, configuration=configuration, nbar_1=nbar, nbar_2=nbar)
        state, _ = herald.heralded_state(params, outcome=outcome)
        blocks = state.gram()
        assert len(blocks) == 2 and sum(len(b) for b in blocks) == state.s.size
        full = unsplit_gram(state)
        spectrum = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
        assert np.max(np.abs(spectrum - np.linalg.eigvalsh(full))) <= 1e-14 * np.trace(full).real
        assert abs(fock.von_neumann_entropy(state) - fock.entropy_of_matrix(full)) <= 1e-13


@pytest.mark.parametrize("nbar, cutoff", [(0.0, 12), (0.05, 20), (0.1, 12), (0.2, 20), (0.4, 30), (0.4, 44),
                                          (0.5, 23), (1.0, 40)])
def test_thermal_kept_set_is_closed_under_the_mode_exchange(nbar, cutoff):
    # a run of equal products is not split at the drop cut, so mirror products stay together
    th = fock.thermal_state(nbar, nbar, fock.FockConfig(cutoff, cutoff))
    weights = np.zeros((cutoff, cutoff))
    weights[th.k1, th.k2] = th.s
    assert np.array_equal(weights, weights.T)
    assert th._exchange_signs() is not None


@pytest.mark.parametrize("nbar_1, nbar_2, cutoff_1, cutoff_2",
                         [(0.0, 0.0, 20, 20), (0.0, 0.3, 20, 24), (0.1, 0.1, 41, 41), (0.4, 0.4, 30, 30),
                          (0.5, 0.5, 23, 23), (1.0, 0.2, 40, 25), (3.0, 3.0, 83, 83)])
def test_kept_columns_bound_holds_the_kept_columns(nbar_1, nbar_2, cutoff_1, cutoff_2):
    # the delta map's memory guard sizes the Gram matrix from this bound; it stays close
    config = fock.FockConfig(cutoff_1, cutoff_2)
    kept = fock.thermal_state(nbar_1, nbar_2, config).k1.size
    assert kept <= fock.kept_columns_bound(nbar_1, nbar_2, config) <= 1.5 * kept


def test_default_cutoff_of_an_overflowing_scale_is_typed():
    with pytest.raises(CutoffTooSmall):
        fock.default_cutoff(0.1, 1e200)


def _parent_entropy(gram):
    real = np.linalg.norm(gram.imag) <= fock.GRAM_IMAG_TOL * np.trace(gram.real)
    return fock.entropy_of_matrix(gram.real if real else gram)


def test_states_without_the_mode_exchange_keep_the_full_gram():
    # unequal occupations, unequal cutoffs and random click columns: one block, the full G in
    # its unsplit arithmetic, and so the entropy bit for bit
    states = [herald.heralded_state(herald.ProtocolParams(mu=0.8, phi=0.4, nbar_1=0.2, nbar_2=0.05))[0],
              herald.heralded_state(herald.ProtocolParams(mu=0.8, phi=0.4, configuration=herald.SERIES,
                                                          nbar_1=0.1, nbar_2=0.1), fock.FockConfig(20, 22))[0],
              random_click_state(fock.FockConfig(6, 6), 5, decay=0.3),
              random_click_state(fock.FockConfig(7, 4), 4, decay=0.3)]
    for state in states:
        assert state._exchange_signs() is None
        [gram] = state.gram()
        assert np.array_equal(gram, unsplit_gram(state))
        assert fock.von_neumann_entropy(state) == _parent_entropy(gram)


def test_a_real_gram_without_the_parity_symmetry_is_not_split():
    # E = e^{iH} - I with H real symmetric: G is real, but H = mu (X + 0.3 X^2) is not odd under
    # Pi, so Pi E Pi != conj(E) and the parallel click (f^T = c conj(f), f not symmetric) has no
    # mode exchange; with H = mu X it has S Pi
    cfg = fock.FockConfig(16, 16)
    params = herald.ProtocolParams(mu=0.6, phi=0.9, nbar_1=0.1, nbar_2=0.1)
    thermal, steps = herald.click_inputs(params, cfg)
    f = herald._click_polynomial(steps, herald.ClickOutcome(1, 0))
    x = fock.x_single(16).real
    for generator, split in ((x + 0.3 * x @ x, False), (x, True)):
        w, v = np.linalg.eigh(0.6 * generator)
        e = (v * np.expm1(1j * w)) @ v.T
        state, _ = fock.apply_operator(f, dataclasses.replace(thermal, e1=e, e2=e))
        blocks = state.gram()
        assert len(blocks) == (2 if split else 1)
        assert math.hypot(*(np.linalg.norm(b.imag) for b in blocks)) <= fock.GRAM_IMAG_TOL
        full = unsplit_gram(state)
        if split:
            assert abs(fock.von_neumann_entropy(state) - _parent_entropy(full)) <= 1e-13
        else:
            assert fock.von_neumann_entropy(state) == _parent_entropy(full)


def test_partial_trace_product_state():
    cfg = fock.FockConfig(20, 28)
    th = fock.thermal_state(0.3, 0.7, cfg)
    r1 = partial_trace(factor(th), 1)
    r2 = partial_trace(factor(th), 2)
    assert np.max(np.abs(r1 - np.diag(fock.thermal_populations(0.3, 20)))) < 1e-12
    assert np.max(np.abs(r2 - np.diag(fock.thermal_populations(0.7, 28)))) < 1e-12


def test_validate_catches_bad_states():
    # the dense oracle checks trace, Hermiticity and positivity in full
    good = fock.thermal_state(0.2, 0.2, CFG)
    rho = density_matrix(factor(good))
    with pytest.raises(ValueError):
        state_from_rho(rho * 1.1, CFG)
    herm = rho.copy()
    herm[0, 1] += 1e-3
    with pytest.raises(ValueError):
        state_from_rho(herm, CFG)
    neg = rho.copy()
    big = 2.0 * math.sqrt(abs(neg[0, 0] * neg[1, 1]))
    neg[0, 1] = neg[1, 0] = big  # off-diagonal beyond the PSD bound
    with pytest.raises(ValueError):
        state_from_rho(neg, CFG)
    # click columns: Hermitian and PSD by construction, trace still checked
    with pytest.raises(ValueError):
        dataclasses.replace(good, s=good.s * 1.1).validate()


def test_coherent_vector_matches_displacement_column():
    beta = 0.7 - 0.2j
    cutoff = 25
    vec = coherent_vector(beta, cutoff)
    col = displacement(beta, cutoff)[:, 0]
    assert np.max(np.abs(vec - col)) < 1e-9


def test_thermal_factor_rank_rule():
    # one column per Fock product, less the smallest whose total mass is <= 1e-16, where the
    # run of equal products at that cut is kept whole (one mirror pair at nbar 0.4, three at 0.5)
    for (mu, nbar), rank in {(1.0, 0.2): 249, (1.5, 0.4): 520, (2.0, 0.4): 528, (0.5, 0.5): 480}.items():
        cfg = fock.default_config(nbar, nbar, mu)
        st_ = fock.thermal_state(nbar, nbar, cfg)
        assert st_.config == cfg and st_.s.shape == st_.k1.shape == st_.k2.shape == (rank,)
        w = np.sort(np.outer(*(fock.thermal_populations(nbar, c) for c in (cfg.cutoff_1, cfg.cutoff_2))).ravel())
        dropped, cut = cfg.dim - rank, int(np.searchsorted(np.cumsum(w), fock.THERMAL_DROP_TOL, side="right"))
        assert w[:cut].sum() <= fock.THERMAL_DROP_TOL < w[: cut + 1].sum()
        assert w[dropped - 1] < w[dropped] == w[cut]
    assert fock.thermal_state(0.0, 0.0, CFG).s.shape == (1,)


def test_thermal_state_is_click_columns_and_builds_no_factor():
    # f = [[1]], E = 0 on the kept thermal columns: below one complex dim x r array at
    # (2, 0.4), dim 1936 x rank 527, and the factor built from them is the dense one
    big = fock.default_config(0.4, 0.4, 2.0)
    tracemalloc.start()
    try:
        th = fock.thermal_state(0.4, 0.4, big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * big.dim * th.s.size
    for (nbar_1, nbar_2), cfg in [((0.4, 0.4), big), ((0.3, 0.0), fock.FockConfig(20, 7)), ((0.0, 0.0), CFG)]:
        th = fock.thermal_state(nbar_1, nbar_2, cfg)
        assert th.f.tolist() == [[1.0]] and not th.e1.any() and not th.e2.any()
        assert np.array_equal(factor(th), dense_thermal_factor(nbar_1, nbar_2, cfg))
    ground = fock.thermal_state(0.0, 0.0, CFG)
    assert ground.truncation_loss == 0.0
    assert np.array_equal(columns(factor(ground))[:, 0], np.eye(CFG.dim)[0])


@pytest.mark.parametrize("nbar", [0.0, 0.05, 0.2, 0.4, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("mu", [0.0, 0.5, 2.0])
def test_truncation_loss_on_default_cutoffs(nbar, mu):
    cfg = fock.default_config(nbar, nbar, mu)
    th = fock.thermal_state(nbar, nbar, cfg)
    assert th.truncation_loss <= fock.THERMAL_TAIL_TOL + fock.THERMAL_DROP_TOL
    if nbar == 0.0:
        assert th.truncation_loss == 0.0
    heralded, _ = herald.heralded_state(herald.ProtocolParams(mu=mu, phi=0.3, nbar_1=nbar, nbar_2=nbar), cfg)
    assert heralded.truncation_loss == th.truncation_loss


def test_truncation_loss_is_the_left_out_mass():
    # each mode's tail is checked against THERMAL_TAIL_TOL on its own, so two
    # modes at large occupation may together leave out up to twice that
    cfg = fock.default_config(5.3, 0.3, 0.0)
    th = fock.thermal_state(5.3, 0.3, cfg)
    tails = (5.3 / 6.3) ** cfg.cutoff_1 + (0.3 / 1.3) ** cfg.cutoff_2
    assert tails <= th.truncation_loss <= tails + fock.THERMAL_DROP_TOL
    assert th.truncation_loss <= 2 * fock.THERMAL_TAIL_TOL + fock.THERMAL_DROP_TOL


# ---------------------------------------------------------------------------
# dense reference: the dim x dim formulas of the Fock path, applied to dense rho


def ref_click_matrix(params, outcome, cfg):
    """Y_mn from Kronecker-embedded displacements and matrix powers."""
    beta = 1j * params.mu / math.sqrt(2.0)
    e1 = lift(displacement(beta, cfg.cutoff_1), 1, cfg)
    e2 = lift(displacement(beta, cfg.cutoff_2), 2, cfg)
    phase = np.exp(1j * params.phi)
    if params.configuration == herald.PARALLEL:
        plus, minus = e1 + phase * e2, e1 - phase * e2
    else:
        eye = np.eye(cfg.dim, dtype=complex)
        plus, minus = e1 @ e2 + phase * eye, e1 @ e2 - phase * eye
    pref = herald.amplitude_prefactor(params, outcome)
    return pref * (np.linalg.matrix_power(plus, outcome.m) @ np.linalg.matrix_power(minus, outcome.n))


def ref_heralded_rho(params, outcome, cfg):
    """(Y rho Y^dag / p, p) on the dense thermal input."""
    pops = np.kron(
        fock.thermal_populations(params.nbar_1, cfg.cutoff_1),
        fock.thermal_populations(params.nbar_2, cfg.cutoff_2),
    )
    y = ref_click_matrix(params, outcome, cfg)
    out = y @ np.diag(pops) @ y.conj().T
    p = float(np.real(np.trace(out)))
    if p < 1e-15:
        raise herald.HeraldImpossible(f"click probability {p:.3g}")
    return out / p, p


def ref_entropy(rho):
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > fock.ENTROPY_EIG_FLOOR]
    return float(-np.sum(lam * np.log(lam)))


@pytest.mark.parametrize("configuration", [herald.PARALLEL, herald.SERIES])
def test_factor_entropy_matches_the_dense_spectrum(configuration):
    # the click columns' Gram, against eigvalsh of the dense rho; it is real to rounding, so
    # the entropy takes the real solve
    cfg = fock.FockConfig(18, 16)
    for mu, phi, nbar_1, nbar_2 in [(0.8, 0.4, 0.2, 0.05), (1.3, math.pi, 0.1, 0.3), (0.5, 2.0, 0.0, 0.15)]:
        params = herald.ProtocolParams(mu=mu, phi=phi, configuration=configuration, nbar_1=nbar_1, nbar_2=nbar_2)
        state, _ = herald.heralded_state(params, cfg)
        ref = ref_entropy(density_matrix(factor(state)))
        assert abs(fock.von_neumann_entropy(state) - ref) <= 1e-13
        [gram] = state.gram()
        assert np.linalg.norm(gram.imag) <= fock.GRAM_IMAG_TOL * np.trace(gram).real
        assert abs(fock.entropy_of_matrix(gram.real) - fock.entropy_of_matrix(gram)) <= 1e-13


def ref_word_matrices(cutoff, order_max, size):
    """X^a P^b at `cutoff`, restricted to the first `size` levels."""
    x, p = fock.x_single(cutoff), fock.p_single(cutoff)
    return {
        (a, b): (np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(p, b))[:size, :size]
        for a in range(order_max + 1)
        for b in range(order_max + 1 - a)
    }


def ref_moments(rho, cfg, order_max, scale=1):
    """tr(rho X1^p P1^q X2^r P2^s); scale = 2 gives the moments of rho zero-padded
    into the doubled-cutoff space."""
    c1, c2 = cfg.cutoff_1, cfg.cutoff_2
    m1 = ref_word_matrices(scale * c1, order_max, c1)
    m2 = ref_word_matrices(scale * c2, order_max, c2)
    r4 = rho.reshape(c1, c2, c1, c2)
    return {
        (p, q, r, s): complex(np.einsum("ijkl,ki,lj->", r4, m1[(p, q)], m2[(r, s)], optimize=True))
        for p, q, r, s in algebra.keys_up_to_order(order_max)
    }


def ref_moments_checked(rho, cfg, order_max):
    table = ref_moments(rho, cfg, order_max)
    big = ref_moments(rho, cfg, order_max, scale=2)
    if any(abs(table[k] - big[k]) > 1e-8 for k in table if sum(k) == order_max):
        raise CutoffTooSmall("drift under cutoff doubling")
    return table


def ref_delta(rho, cfg):
    table = algebra.MomentTable(list(ref_moments(rho, cfg, 2).values()), 2)
    delta = criteria.gaussian_reference_entropy(table) - ref_entropy(rho)
    if delta < -1e-6:
        raise NegativeNonGaussianity("negative non-Gaussianity")
    return max(delta, 0.0)


def ref_port_spectrum(signal, rho, cfg):
    """Spectral measure of the real port signal for a signal row over (X1, P1, X2, P2)."""
    ops = letter_matrices(cfg)
    y = sum(np.real(c) * ops[letter] for letter, c in zip(("X1", "P1", "X2", "P2"), signal))
    w, v = np.linalg.eigh(y)
    return w, np.real(np.einsum("ij,jk,ki->i", v.conj().T, rho, v))


def outcome_of(fn):
    """(value, None) or (None, exception type) for the library's typed errors."""
    try:
        return fn(), None
    except (MechcatError, RuntimeError) as exc:
        return None, type(exc)


def rel_err(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    return float(np.max(np.abs(new - ref) / (1.0 + np.abs(ref))))


def smallest_tail_cutoff(nbar):
    ratio = nbar / (nbar + 1.0)
    return next(c for c in itertools.count(2) if ratio**c <= fock.THERMAL_TAIL_TOL)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    mu=st.floats(0.0, 2.0),
    phi=st.one_of(st.just(math.pi), st.floats(0.0, 2 * math.pi)),
    nbar_1=st.floats(0.0, 0.5),
    nbar_2=st.floats(0.0, 0.5),
    configuration=st.sampled_from([herald.PARALLEL, herald.SERIES]),
    outcome=st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1)]),
    cutoffs=st.tuples(st.integers(6, 16), st.integers(6, 16)),
)
def test_factor_path_matches_dense_reference(mu, phi, nbar_1, nbar_2, configuration, outcome, cutoffs):
    """Cutoffs up to 16, raised where the thermal tail check needs more (21 at nbar = 0.5)."""
    assume(nbar_1 != nbar_2)
    cfg = fock.FockConfig(max(cutoffs[0], smallest_tail_cutoff(nbar_1)),
                          max(cutoffs[1], smallest_tail_cutoff(nbar_2)))
    params = herald.ProtocolParams(mu=mu, phi=phi, configuration=configuration,
                                   nbar_1=nbar_1, nbar_2=nbar_2)
    click = herald.ClickOutcome(*outcome)
    (ref, error) = outcome_of(lambda: ref_heralded_rho(params, click, cfg))
    new, new_error = outcome_of(lambda: herald.heralded_state(params, cfg, click))
    assert new_error is error
    if error is not None:
        return
    (rho, p_ref), (state, p) = ref, new
    a = factor(state)
    assert rel_err(p, p_ref) < 1e-12
    assert rel_err(density_matrix(a), rho) < 1e-12
    assert rel_err(fock.von_neumann_entropy(state), ref_entropy(rho)) < 1e-12
    # G = A^dag A is real, so the entropy takes its real solve: max|Im G| <= ||Im G||_F
    gram = columns(a).conj().T @ columns(a)
    assert np.linalg.norm(gram.imag) <= fock.GRAM_IMAG_TOL * np.trace(gram).real
    for keep in (1, 2):
        axes = "ikjk->ij" if keep == 1 else "kikj->ij"
        ref_reduced = np.einsum(axes, rho.reshape(cfg.cutoff_1, cfg.cutoff_2, cfg.cutoff_1, cfg.cutoff_2))
        assert rel_err(partial_trace(a, keep), ref_reduced) < 1e-12
    psi = np.array([1.0, 1j]) @ np.random.default_rng(0).normal(size=(2, cfg.dim))
    psi /= np.linalg.norm(psi)
    assert rel_err(fidelity_to_pure(a, psi), np.real(np.vdot(psi, rho @ psi))) < 1e-12

    delta, delta_error = outcome_of(lambda: criteria.non_gaussianity(state))
    delta_ref, delta_ref_error = outcome_of(lambda: ref_delta(rho, cfg))
    assert delta_error is delta_ref_error
    if delta_error is None:
        assert rel_err(delta, delta_ref) < 1e-12

    table = algebra.moments_from_state(state, 4)
    ref_table = ref_moments(rho, cfg, 4)
    assert list(table.entries) == list(ref_table)
    assert rel_err(list(table.entries.values()), list(ref_table.values())) < 1e-12
    checked, checked_error = outcome_of(lambda: algebra.moments_from_state(state, 4, check_convergence=True))
    _, ref_checked_error = outcome_of(lambda: ref_moments_checked(rho, cfg, 4))
    assert checked_error is ref_checked_error
    if checked_error is None:
        assert checked.entries == table.entries

    # per-shot sampler: the spectral measure of a real-coefficient port signal
    signal = 1.2 * verify._port_bases(np.zeros(4), math.pi)[verify.PORTS.index("A")]
    w, probs = port_spectrum(signal, a)
    w_ref, probs_ref = ref_port_spectrum(signal, rho, cfg)
    for k in range(5):
        assert rel_err(np.sum(probs * w**k), np.sum(probs_ref * w_ref**k)) < 1e-12


def test_a_carried_gram_is_checked():
    # a heralded state is its click columns alone: its cutoffs are the sizes of its E blocks,
    # and validate checks their trace
    cfg = fock.FockConfig(12, 14)
    params = herald.ProtocolParams(mu=0.8, phi=1.0, nbar_1=0.1, nbar_2=0.2)
    state, _ = herald.heralded_state(params, cfg)
    assert state.config == cfg
    for off, ok in ((0.5 * fock.TRACE_TOL, True), (2.0 * fock.TRACE_TOL, False), (-2.0 * fock.TRACE_TOL, False)):
        checked = dataclasses.replace(state, s=state.s * math.sqrt((1.0 + off) / state.trace))
        if ok:
            checked.validate()
        else:
            with pytest.raises(ValueError, match="trace"):
                checked.validate()
    for name in ("payload", "clicks", "factor", "columns", "rho", "vector"):
        assert not hasattr(state, name)


def test_heralded_entropy_forms_no_dim_by_2r_product():
    # the (2, 0.4) heralded state carries its Gram: the entropy's peak stays below one
    # 2r x 2r float block, the size of V^T V over the factor's float view
    state, _ = herald.heralded_state(herald.ProtocolParams(mu=2.0, phi=1.0, nbar_1=0.4, nbar_2=0.4))
    r = state.s.size
    tracemalloc.start()
    try:
        fock.von_neumann_entropy(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (2 * r) ** 2


def test_heralding_entropy_and_moments_build_no_factor():
    # at (2, 0.4), dim 1936: heralding, non-Gaussianity and order-4 moments read the click
    # columns alone, so the peak stays below one complex dim x r array
    params = herald.ProtocolParams(mu=2.0, phi=1.0, nbar_1=0.4, nbar_2=0.4)
    tracemalloc.start()
    try:
        state, _ = herald.heralded_state(params)
        criteria.non_gaussianity(state)
        algebra.moments_from_state(state, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.config.dim == 1936
    assert peak < 16 * state.config.dim * state.s.size
    a, _ = plain_heralded_factor(params, herald.ClickOutcome(1, 0), state.config)
    for keep in (1, 2):
        ref = partial_trace(a, keep)
        assert np.max(np.abs(partial_trace(factor(state), keep) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_cutoff_doubling_check_builds_no_factor():
    # at (2, 0.4), dim 1936: the doubling pads the click columns' E blocks, so the check peaks
    # below one complex dim x r array, and the padded columns' moments are those of the
    # zero-padded D-form oracle factor
    params = herald.ProtocolParams(mu=2.0, phi=1.0, nbar_1=0.4, nbar_2=0.4)
    state, _ = herald.heralded_state(params)
    tracemalloc.start()
    try:
        checked = algebra.moments_from_state(state, 4, check_convergence=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cfg = state.config
    assert peak < 16 * cfg.dim * state.s.size
    assert checked.entries == algebra.moments_from_state(state, 4).entries
    a, _ = plain_heralded_factor(params, herald.ClickOutcome(1, 0), cfg)
    ref = moments_raw(np.pad(a, ((0, cfg.cutoff_1), (0, cfg.cutoff_2), (0, 0))), 4).values
    doubled = algebra.moments_from_state(algebra._reembed(state), 4).values
    assert rel_err(doubled, ref / ref[0].real) <= 1e-14
