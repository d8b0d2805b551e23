import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from dense_reference import displacement, lift, thermal_columns
from golden_section_reference import golden_section_alpha
from mechcat import detector, fock
from mechcat.detector import (
    LOSS_TRUNCATION,
    DetectorParams,
    LossOracle,
    LossOutcome,
    click_sum,
    click_terms,
    dark_prob_from_rate,
    fraction_of_amplitude,
    fractions_from_oracle,
    loss_outcome_probability,
    optimize_alpha,
    total_probability_covered,
    true_positive_fraction_nonresolving,
    true_positive_fraction_resolving,
)
from mechcat.errors import DegenerateHerald, TruncationTooSmall
from mechcat.fock import FockConfig
from mechcat.herald import PARALLEL, SERIES, CoherentInput, ProtocolParams, SinglePhotonInput

DET = DetectorParams(eta=0.8, dark_prob=1e-8)


def protocol(mu, nbar=0.1, alpha=1.0, phi=math.pi):
    return ProtocolParams(mu=mu, phi=phi, input=CoherentInput(alpha), nbar_1=nbar, nbar_2=nbar)


def test_perfect_detector():
    det = DetectorParams(eta=1.0, dark_prob=0.0)
    assert true_positive_fraction_resolving(det, protocol(0.5)) == pytest.approx(1.0)
    opt = optimize_alpha(det, 0.5, math.pi, 0.1, 0.1)
    assert opt.flat_objective
    assert opt.fraction == pytest.approx(1.0)


def test_dark_prob_from_rate():
    assert dark_prob_from_rate(1.0, 10e-9) == pytest.approx(1e-8)


def test_requires_coherent_input():
    p = ProtocolParams(mu=0.5, phi=math.pi, input=SinglePhotonInput())
    with pytest.raises(ValueError):
        true_positive_fraction_resolving(DET, p)


def test_benchmark_fractions():
    # row (iii): mu = 0.1 -> 82%; row (iv): mu = 1 splits 82% vs 66%
    assert 100 * true_positive_fraction_resolving(DET, protocol(0.1)) == pytest.approx(82, abs=5)
    det_n = DetectorParams(eta=0.8, dark_prob=1e-8, resolving=False)
    assert 100 * true_positive_fraction_resolving(DET, protocol(1.0)) == pytest.approx(82, abs=5)
    assert 100 * true_positive_fraction_nonresolving(det_n, protocol(1.0)) == pytest.approx(66, abs=5)


def test_optimized_fractions():
    # row (ii) optimum reaches 98%; row (i) optimum sits below alpha = 1
    assert 100 * optimize_alpha(DET, 1e-2, math.pi, 0.1, 0.1).fraction == pytest.approx(98, abs=5)
    opt_i = optimize_alpha(DET, 1e-3, math.pi, 0.1, 0.1)
    assert 100 * opt_i.fraction == pytest.approx(84, abs=5)
    assert opt_i.alpha < 1.0


def test_degenerate_herald():
    with pytest.raises(DegenerateHerald):
        true_positive_fraction_resolving(DET, protocol(0.0))
    for resolving in (True, False):
        with pytest.raises(DegenerateHerald):
            optimize_alpha(DetectorParams(0.8, 0.0, resolving), 0.0, math.pi, 0.0, 0.0)


def test_resolving_dominates_nonresolving():
    det_n = DetectorParams(eta=0.8, dark_prob=1e-8, resolving=False)
    for mu in (1e-3, 1e-2, 0.3, 1.0, 2.0):
        for nbar in (0.0, 0.5, 3.0):
            for alpha in (0.5, 1.0, 1.8):
                r = true_positive_fraction_resolving(DET, protocol(mu, nbar, alpha))
                n = true_positive_fraction_nonresolving(det_n, protocol(mu, nbar, alpha))
                # slack covers the O(D^2) asymmetry of the printed formulas
                assert 0.0 < n <= r + 1e-9
                assert r <= 1.0


def test_monotone_in_eta():
    fracs = [
        true_positive_fraction_resolving(DetectorParams(eta, 1e-8), protocol(0.5))
        for eta in (0.2, 0.4, 0.6, 0.8, 1.0)
    ]
    assert all(b > a for a, b in zip(fracs, fracs[1:]))


def test_click_sum_mu_zero_is_poisson():
    # lambda = 1 collapses L to the bright-port Poisson click distribution
    eta, a2, phi = 0.8, 1.3, 0.9
    lsum = click_sum(eta, a2, click_terms(0.0, phi, 0.0, 0.0))
    mean = eta * a2 * math.cos(phi / 2.0) ** 2
    assert lsum == pytest.approx(math.exp(mean) - 1.0, rel=1e-10)


def test_click_sum_poisson_inside_the_cap():
    # mu = 0, phi = 0: L = e^{eta |a|^2} - 1, up to |a|^2 = 16 (alpha = 4, the search's hi)
    a2 = np.array([0.01, 1.0, 4.0, 9.0, 16.0])
    lsum = click_sum(0.8, a2, click_terms(0.0, 0.0, 0.0, 0.0))
    assert np.allclose(lsum, np.expm1(0.8 * a2), rtol=1e-12, atol=0)


@pytest.mark.parametrize("a2", [36.0, 100.0])
def test_click_sum_beyond_the_cap_raises(a2):
    # no term of m <= 60 falls below the tolerance: the capped sum would be too small
    with pytest.raises(TruncationTooSmall):
        click_sum(0.8, a2, click_terms(0.0, 0.0, 0.0, 0.0))
    det_n = DetectorParams(eta=0.8, dark_prob=1e-8, resolving=False)
    with pytest.raises(TruncationTooSmall):
        true_positive_fraction_nonresolving(det_n, protocol(1e-2, alpha=math.sqrt(a2), phi=0.0))


def test_click_sum_of_a_batch_equals_its_points():
    a2 = np.array([[0.01], [2.0], [9.0]])
    mu, phi = np.array([2.26e-5, 0.1, 1.0, 2.0]), np.array([0.0, 1.0, math.pi, 3.0])
    batch = click_sum(0.8, a2, click_terms(mu, phi, 0.29, 5.3))
    assert batch.shape == (3, 4)
    for i, j in itertools.product(range(3), range(4)):
        assert batch[i, j] == click_sum(0.8, a2[i, 0], click_terms(mu[j], phi[j], 0.29, 5.3))


def _mpmath_click_sums(eta, a2s, mu, phi, nbar_1, nbar_2, dps=60, m_max=100):
    """Reference: the defining double sum in 60-digit arithmetic for each |a|^2 of a2s,
    summed over m until the terms are negligible (no tolerance-based truncation).
    Pairing k with 2m - k, the inner sum is sum_{|j| <= m} C(2m, m - j) cos(j phi) lam^(j^2)."""
    import mpmath as mp

    with mp.workdps(dps):
        x = mp.mpf(mu) ** 2 * (1 + mp.mpf(nbar_1) + mp.mpf(nbar_2)) / 2
        g = [mp.cos(j * mp.mpf(phi)) * mp.exp(-(j * j) * x) for j in range(m_max + 1)]
        inner = [None] + [g[0] * math.comb(2 * m, m) + 2 * mp.fsum(math.comb(2 * m, m - j) * g[j]
                                                                 for j in range(1, m + 1))
                          for m in range(1, m_max + 1)]
        sums = []
        for a2 in a2s:
            base = mp.mpf(eta) * mp.mpf(a2) / 4
            total, weight = mp.mpf(0), mp.mpf(1)
            for m in range(1, m_max + 1):
                weight *= base / m
                total += (term := weight * inner[m])
                if m > 4 * base + 4 and abs(term) < mp.mpf(10) ** -30 * abs(total):
                    break
            else:
                raise AssertionError("reference sum did not converge")
            sums.append(total)
        return sums


@pytest.mark.parametrize("mu", [2.26e-5, 1.29e-4, 1e-3, 1e-2, 0.1, 1.0])
def test_click_sum_matches_mpmath(mu):
    # the dark fringe at the couplings of real platforms is where the alternating
    # sum cancelled (2.1e-9 relative at the membrane row before the expm1 form)
    a2s = (0.01, 1.0, 4.0, 16.0)
    worst = 0.0
    for phi, nbar in itertools.product((0.0, math.pi / 2, 3 * math.pi / 4, math.pi), (0.0, 0.29, 5.3)):
        for a2, ref in zip(a2s, _mpmath_click_sums(DET.eta, a2s, mu, phi, nbar, nbar)):
            lsum = click_sum(DET.eta, a2, click_terms(mu, phi, nbar, nbar))
            worst = max(worst, float(abs((lsum - ref) / ref)))
    assert worst <= 1e-10


def test_resolving_fraction_at_the_membrane_row_against_50_digits():
    # P10's fringe 1 + lam cos phi in expm1 form: formed directly, F was 9.1e-8 off here
    import mpmath as mp

    mu, nbar, alpha = 2.26e-5, 0.1, 1.0
    with mp.workdps(50):
        a2, eta, dark = mp.mpf(alpha) ** 2, mp.mpf(DET.eta), mp.mpf(DET.dark_prob)
        lam = mp.exp(-mp.mpf(mu) ** 2 * (1 + 2 * mp.mpf(nbar)) / 2)
        p10 = mp.exp(-a2) * a2 / 2 * (1 + lam * mp.cos(mp.mpf(math.pi)))
        ref = 1 / (mp.exp((1 - eta) * a2) + mp.exp(-eta * a2) * dark / (eta * p10 * (1 - dark)))
        got = true_positive_fraction_resolving(DET, protocol(mu, nbar, alpha))
        assert abs(got - ref) <= 1e-14 * ref


def _search_grid(seed, size):
    """Seeded points: mu 1e-5..2, nbar 0..20 (a fifth at 0), phi uniform with 0 and pi;
    three etas spread over 0.5..1."""
    rng = np.random.default_rng(seed)
    mu = 10.0 ** rng.uniform(-5.0, math.log10(2.0), size)
    nbar = np.where(rng.random(size) < 0.2, 0.0, rng.uniform(0.0, 20.0, size))
    phi = rng.uniform(0.0, 2 * math.pi, size)
    phi[:4] = (0.0, math.pi, 0.0, math.pi)
    return mu, phi, nbar, 0.5 + 0.5 * (np.arange(3) + rng.random(3)) / 3


def _search_detectors(etas, resolving):
    # the perfect detector has a flat resolving objective
    return [DetectorParams(eta, 1e-8, resolving) for eta in etas] + [DetectorParams(1.0, 0.0, resolving)]


@pytest.mark.parametrize("resolving", [True, False])
def test_batched_search_matches_scalar_golden_section(resolving):
    mu, phi, nbar, etas = _search_grid(18, 12)
    for det in _search_detectors(etas, resolving):
        opt = optimize_alpha(det, mu, phi, nbar, nbar)
        for k in range(mu.size):
            one = optimize_alpha(det, mu[k], phi[k], nbar[k], nbar[k])
            assert (one.alpha, one.fraction, one.flat_objective) == (opt.alpha[k], opt.fraction[k],
                                                                     opt.flat_objective[k])
            try:
                alpha, fraction, flat = golden_section_alpha(det, protocol(mu[k], nbar[k], phi=phi[k]))
            except TruncationTooSmall:
                continue  # alpha -> 4 at phi near 0 and eta > 0.91 passes the click sum's cap
            assert opt.fraction[k] >= fraction * (1.0 - 1e-15), (det, k)
            assert opt.flat_objective[k] == flat, (det, k)
            # without dark counts F is 1 to rounding over a range of alpha above lo, where the
            # golden-section point is arbitrary
            if not flat and det.dark_prob > 0.0:
                assert abs(opt.alpha[k] - alpha) <= 1e-6, (det, k)
    assert opt.flat_objective.all() == resolving  # the perfect detector's search, the last one


def test_search_stays_inside_the_click_sums_cap():
    # where the golden-section reference probes alpha = 4 past the cap, the search still
    # finds the best F of the alphas whose click sum the cap holds
    mu, phi, nbar, etas = _search_grid(18, 12)
    alphas = np.linspace(1e-4, 4.0, 200)
    seen = 0
    for det in _search_detectors(etas, resolving=False):
        opt = optimize_alpha(det, mu, phi, nbar, nbar)
        for k in range(mu.size):
            p = protocol(mu[k], nbar[k], phi=phi[k])
            try:
                golden_section_alpha(det, p)
                continue
            except TruncationTooSmall:
                seen += 1
            fraction = fraction_of_amplitude(det, mu[k], phi[k], nbar[k], nbar[k])
            grid = []
            for alpha in alphas:
                try:
                    grid.append(float(fraction(alpha)))
                except TruncationTooSmall:
                    break
            assert opt.fraction[k] >= max(grid), (det, k)
    assert seen >= 4


def test_search_raises_where_its_bracket_closes_at_the_cap():
    # alpha in [4.5, 5] at phi = 0 lies past the cap (|alpha|^2 = 18.5 at eta = 0.8)
    det = DetectorParams(eta=0.8, dark_prob=1e-8, resolving=False)
    with pytest.raises(TruncationTooSmall, match=r"\|alpha\|\^2"):
        optimize_alpha(det, np.array([1e-3, 0.5]), np.array([math.pi, 0.0]), 0.0, 0.0, lo=4.5, hi=5.0)
    # from 3.9 the optimum is lo, inside the cap, though hi is past it
    opt = optimize_alpha(det, 1e-3, 0.0, 0.0, 0.0, lo=3.9, hi=5.0)
    assert opt.alpha == 3.9 and not opt.flat_objective


@pytest.mark.parametrize("resolving, most", [(True, 1), (False, 3)])
def test_search_needs_few_evaluations(monkeypatch, resolving, most):
    # resolving: F at the closed-form optimum; non-resolving: click series per Newton step
    name = "_inverse_fraction" if resolving else "_click_moments"
    calls = []
    evaluate = getattr(detector, name)
    monkeypatch.setattr(detector, name, lambda *a: calls.append(a) or evaluate(*a))
    mu, phi, nbar, etas = _search_grid(18, 12)
    for det in _search_detectors(etas, resolving):
        calls.clear()
        optimize_alpha(det, mu, phi, nbar, nbar)
        assert len(calls) <= most, det


def test_search_of_one_point_takes_zero_d_values():
    opt = optimize_alpha(DET, 1e-2, math.pi, 0.1, 0.1)
    assert opt.alpha.shape == opt.fraction.shape == opt.flat_objective.shape == ()
    batch = optimize_alpha(DET, np.array([1.0, 1e-2]), math.pi, 0.1, 0.1)
    assert (opt.alpha, opt.fraction, opt.flat_objective) == (batch.alpha[1], batch.fraction[1],
                                                             batch.flat_objective[1])


def test_dark_count_dominated_limit():
    # mu -> 0 at phi = pi: both detector types collapse to the same
    # dark-count-dominated fraction eta P10 e^{eta a} / D
    det_n = DetectorParams(eta=0.8, dark_prob=1e-8, resolving=False)
    p = protocol(1e-6)
    r = true_positive_fraction_resolving(DET, p)
    n = true_positive_fraction_nonresolving(det_n, p)
    assert n == pytest.approx(r, rel=1e-4)
    from mechcat.herald import heralding_probability

    limit = 0.8 * heralding_probability(p) * math.exp(0.8) / 1e-8
    assert r == pytest.approx(limit, rel=1e-3)


def test_loss_oracle_no_loss_channel():
    det = DetectorParams(eta=1.0, dark_prob=0.0)
    cfg = FockConfig(20, 20)
    p = loss_outcome_probability(det, protocol(0.3), LossOutcome(1, 0, 1, 0), cfg)
    assert abs(p) < 1e-14
    with pytest.raises(TruncationTooSmall):
        loss_outcome_probability(det, protocol(0.3), LossOutcome(5, 4, 3, 2), cfg)


@pytest.mark.parametrize("configuration", [PARALLEL, SERIES])
def test_loss_oracle_at_unit_efficiency_is_the_heralding(configuration):
    # with no loss the oracle's P_1000 is the heralded state's p: both are traces of the
    # thermal state's columns under the same click polynomial, on the default cutoffs
    from mechcat.herald import heralded_state

    det = DetectorParams(eta=1.0, dark_prob=0.0)
    for mu, phi, nbar in [(0.01, math.pi, 0.0), (0.01, math.pi, 0.1), (0.3, 0.0, 0.05), (0.6, 2.1, 0.1),
                          (2.0, 1.0, 0.4)]:
        p = dataclasses.replace(protocol(mu, nbar, alpha=1.3, phi=phi), configuration=configuration)
        cfg = fock.default_config(nbar, nbar, mu)
        _, heralded = heralded_state(p, cfg)
        p1000 = LossOracle(det, p, cfg).probability(LossOutcome(1, 0, 0, 0))
        assert abs(p1000 - heralded) <= 2e-15 * heralded, (mu, phi, nbar)


def test_fractions_need_the_herald_outcome_in_the_truncation():
    with pytest.raises(TruncationTooSmall):
        fractions_from_oracle(DET, protocol(0.3, nbar=0.0), FockConfig(8, 8), truncation=0)


def test_loss_oracle_completeness():
    cfg = FockConfig(20, 20)
    p = protocol(0.3)
    covered = total_probability_covered(DET, p, cfg, truncation=8)
    # total detected+lost photon number is Poisson(|alpha|^2)
    tail = 1.0 - math.exp(-1.0) * sum(1.0 / math.factorial(k) for k in range(9))
    assert covered + tail == pytest.approx(1.0, abs=1e-8)


def assert_oracle_matches_closed_forms(p):
    oracle = fractions_from_oracle(DET, p, FockConfig(20, 20))
    det_n = DetectorParams(eta=0.8, dark_prob=1e-8, resolving=False)
    assert oracle.resolving == pytest.approx(true_positive_fraction_resolving(DET, p), abs=1e-6)
    assert oracle.nonresolving == pytest.approx(
        true_positive_fraction_nonresolving(det_n, p), abs=1e-6
    )


def test_oracle_matches_closed_forms():
    assert_oracle_matches_closed_forms(protocol(1e-2))


def test_series_oracle_matches_closed_forms():
    assert_oracle_matches_closed_forms(dataclasses.replace(protocol(1e-2), configuration=SERIES))


def dense_loss_probabilities(det, p, cfg, truncation):
    """Every P_mnkl from Kronecker-embedded dim x dim displacements: the
    population-weighted column norms of plus^m minus^n arm_1^k arm_2^l."""
    beta = 1j * p.mu / math.sqrt(2.0)
    d1 = lift(displacement(beta, cfg.cutoff_1), 1, cfg)
    d2 = lift(displacement(beta, cfg.cutoff_2), 2, cfg)
    arm_1, arm_2 = (d1, d2) if p.configuration == PARALLEL else (d1 @ d2, np.eye(cfg.dim))
    phase = np.exp(1j * p.phi)
    powers = [[np.linalg.matrix_power(op, j) for j in range(truncation + 1)]
              for op in (arm_1 + phase * arm_2, arm_1 - phase * arm_2, arm_1, arm_2)]
    pops = np.kron(fock.thermal_populations(p.nbar_1, cfg.cutoff_1),
                   fock.thermal_populations(p.nbar_2, cfg.cutoff_2))
    a = abs(p.input.alpha)
    out = {}
    for m, n, k, l in itertools.product(range(truncation + 1), repeat=4):  # noqa: E741
        if m + n + k + l > truncation:
            continue
        op = powers[0][m] @ powers[1][n] @ powers[2][k] @ powers[3][l]
        pref = (math.exp(-a * a / 2.0) * (math.sqrt(det.eta) * a / 2.0) ** (m + n)
                * (math.sqrt((1.0 - det.eta) / 2.0) * a) ** (k + l)
                / math.sqrt(math.factorial(m) * math.factorial(n) * math.factorial(k) * math.factorial(l)))
        col_norms = np.einsum("ij,ij->j", op.conj(), op).real
        out[LossOutcome(m, n, k, l)] = pref * pref * (col_norms @ pops)
    return out


@pytest.mark.parametrize("configuration", [PARALLEL, SERIES])
@pytest.mark.parametrize("eta", [0.8, 1.0])
def test_loss_oracle_matches_dense_reference(configuration, eta):
    cfg = FockConfig(10, 10)
    det = DetectorParams(eta=eta, dark_prob=1e-8)
    p = ProtocolParams(mu=0.6, phi=2.1, input=CoherentInput(1.3), configuration=configuration,
                       nbar_1=0.05, nbar_2=0.1)
    oracle = LossOracle(det, p, cfg)
    reference = dense_loss_probabilities(det, p, cfg, LOSS_TRUNCATION)
    assert len(reference) == 495
    for outcome, ref in reference.items():
        assert abs(oracle.probability(outcome) - ref) <= 1e-12, outcome
    assert oracle.table.sum() == pytest.approx(sum(reference.values()), abs=1e-12)


@pytest.mark.parametrize("configuration", [PARALLEL, SERIES])
@pytest.mark.parametrize("eta", [0.8, 1.0])
def test_fractions_walk_matches_the_full_oracle_table(configuration, eta):
    # the fractions walk only the n = 0 outcomes, in the order of the full walk
    cfg = FockConfig(10, 10)
    det = DetectorParams(eta=eta, dark_prob=1e-8)
    p = ProtocolParams(mu=0.6, phi=2.1, input=CoherentInput(1.3), configuration=configuration,
                       nbar_1=0.05, nbar_2=0.1)
    m0kl = LossOracle(det, p, cfg).table[:, 0]
    sum_10kl, sum_00kl, sum_m0kl = m0kl[1].sum(), m0kl[0].sum(), m0kl[1:].sum()
    dark = det.dark_prob
    resolving = (1.0 - dark) * m0kl[1, 0, 0] / ((1.0 - dark) * sum_10kl + dark * sum_00kl)
    nonresolving = m0kl[1, 0, 0] / (sum_m0kl + dark * sum_00kl)
    fractions = fractions_from_oracle(det, p, cfg)
    assert (fractions.resolving, fractions.nonresolving) == (float(resolving), float(nonresolving))


def mpmath_loss_table(det, p, cfg, truncation, dps=50):
    """Every P_mnkl at `dps` digits: each mode's D = expm(i mu X) of the truncated generator,
    the thermal columns of dense_reference.thermal_columns, and e^{i phi} as rounded to double; each
    column is walked through its arms and click steps as a (cutoff_1, cutoff_2) array."""
    import mpmath as mp

    kept, w = thermal_columns(p.nbar_1, p.nbar_2, cfg)
    k1, k2 = np.divmod(kept, cfg.cutoff_2)
    with mp.workdps(dps):
        def displacement(cutoff):
            x = mp.matrix(cutoff, cutoff)
            for n in range(1, cutoff):
                x[n - 1, n] = x[n, n - 1] = mp.sqrt(n) / mp.sqrt(2)
            return np.array(mp.expm(1j * mp.mpf(p.mu) * x).tolist(), dtype=object)

        d1, d2 = displacement(cfg.cutoff_1), displacement(cfg.cutoff_2)
        c = complex(np.exp(1j * p.phi))
        c = mp.mpc(c.real, c.imag)
        if p.configuration == PARALLEL:
            arm_1, arm_2 = (lambda a: d1 @ a), (lambda a: a @ d2.T)
        else:
            arm_1, arm_2 = (lambda a: d1 @ a @ d2.T), (lambda a: a)
        steps = [lambda a: arm_1(a) + c * arm_2(a), lambda a: arm_1(a) - c * arm_2(a), arm_1, arm_2]
        a2 = mp.mpf(abs(p.input.alpha)) ** 2
        click, lost = mp.mpf(det.eta) * a2 / 4, (1 - mp.mpf(det.eta)) * a2 / 2
        norms = {}
        for x in range(kept.size):
            a = np.full((cfg.cutoff_1, cfg.cutoff_2), mp.mpc(0), dtype=object)
            a[k1[x], k2[x]] = mp.sqrt(mp.mpf(float(w[x])))
            nodes = {(0, 0, 0, 0): a}
            for total in range(1, truncation + 1):
                for key in itertools.product(range(total + 1), repeat=4):
                    if sum(key) == total:
                        i = next(j for j in range(4) if key[j])
                        parent = tuple(v - (j == i) for j, v in enumerate(key))
                        nodes[key] = steps[i](nodes[parent])
            for key, node in nodes.items():
                norms[key] = norms.get(key, 0) + sum(abs(v) ** 2 for v in node.ravel())
        out = {}
        for (m, n, k, l), norm in norms.items():  # noqa: E741
            weight = (click ** (m + n) / (mp.factorial(m) * mp.factorial(n))
                      * lost ** (k + l) / (mp.factorial(k) * mp.factorial(l)))
            out[m, n, k, l] = float(mp.exp(-a2) * weight * norm)
        return out


@pytest.mark.parametrize("configuration", [PARALLEL, SERIES])
@pytest.mark.parametrize("mu", [0.02, 0.3])
def test_loss_table_at_the_dark_fringe_against_50_digits(configuration, mu):
    # at phi = pi every click operator with m >= 1 is small, made from O(1) arms
    p = dataclasses.replace(protocol(mu, nbar=0.01), configuration=configuration)
    cfg = FockConfig(6, 6)
    table = LossOracle(DET, p, cfg, truncation=3).table
    reference = mpmath_loss_table(DET, p, cfg, 3)
    assert len(reference) == 35
    for (m, n, k, l), ref in reference.items():  # noqa: E741
        if m >= 1:
            assert abs(table[m, n, k, l] - ref) <= 1e-13 * ref, (m, n, k, l)


def test_loss_oracle_memory_stays_below_one_dense_matrix():
    cfg = FockConfig(24, 24)
    tracemalloc.start()
    try:
        fractions_from_oracle(DET, protocol(0.3, nbar=0.0), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * cfg.dim**2


def test_parameter_validation():
    with pytest.raises(ValueError):
        DetectorParams(eta=0.0, dark_prob=0.0)
    with pytest.raises(ValueError):
        DetectorParams(eta=0.5, dark_prob=1.0)
