"""Acceptance suite: every release gate runs here at its stated tolerance and
prints one PASS/FAIL line (visible with pytest -s or on failure)."""

import itertools
import math
import time

import numpy as np
import pytest

from dense_reference import density_matrix, displacement, factor, letter_matrices, moments_raw, pure_cat_state
from mechcat import algebra, criteria, detector, fock, herald, presets, sideband, verify
from mechcat.criteria import build_d5, build_s3, mu_cutoff, non_gaussianity, s3_ground_closed_form
from mechcat.herald import (
    ClickOutcome,
    CoherentInput,
    ProtocolParams,
    heralded_moment_table,
    heralded_state,
)
from mechcat.opensystem import EnvParams, evolve_moments
from mechcat.presets import BENCHMARK_ROWS, OMEGA_M_DEFAULT, PHI_DEFAULT


def report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_closed_form_s3_oracle():
    """Fock-numeric S3 matches the closed form to 1e-6 (closed system), < 10 s."""
    t0 = time.monotonic()
    worst = 0.0
    for mu in (0.1, 0.5, 1.0, 1.5, 2.0):
        for phi in (0.0, math.pi / 2, math.pi):
            cutoff = fock.default_cutoff(0.0, mu)
            cfg = fock.FockConfig(cutoff, cutoff)
            table = moments_raw(pure_cat_state(mu, phi, "parallel", cfg), 4)
            worst = max(worst, abs(build_s3(table).value - s3_ground_closed_form(mu, phi)))
    elapsed = time.monotonic() - t0
    report(1, worst < 1e-6 and elapsed < 10.0,
           f"S3 numeric vs closed form: worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_heralding_probability():
    """Closed-form P10 equals tr(Y rho Y^dag) to 1e-8 on a 5x5x3 grid; argmax at |alpha|=1."""
    worst = 0.0
    cutoffs = {0.0: 28, 0.2: 30, 0.5: 36, 1.0: 44, 2.0: 62}
    pref = abs(herald.amplitude_prefactor(
        ProtocolParams(mu=0.1, phi=0.0, input=CoherentInput(1.0)), ClickOutcome(1, 0)
    )) ** 2
    for nbar, cutoff in cutoffs.items():
        pops = np.kron(
            fock.thermal_populations(nbar, cutoff), fock.thermal_populations(nbar, cutoff)
        )
        eye = np.eye(cutoff)
        for mu in (0.1, 0.5, 1.0, 1.5, 2.0):
            d = displacement(1j * mu / math.sqrt(2.0), cutoff)
            e1 = np.kron(d, eye)
            e2 = np.kron(eye, d)
            for phi in (0.0, math.pi / 2, math.pi):
                params = ProtocolParams(
                    mu=mu, phi=phi, input=CoherentInput(1.0), nbar_1=nbar, nbar_2=nbar
                )
                op = e1 + np.exp(1j * phi) * e2
                col = np.einsum("ij,ij->j", op.conj(), op).real
                p_fock = pref * float(col @ pops)
                worst = max(worst, abs(herald.heralding_probability(params) - p_fock))
    alphas = np.linspace(0.2, 2.0, 46)
    probs = [
        herald.heralding_probability(
            ProtocolParams(mu=0.5, phi=1.0, input=CoherentInput(a), nbar_1=0.1, nbar_2=0.1)
        )
        for a in alphas
    ]
    argmax_ok = abs(alphas[int(np.argmax(probs))] - 1.0) < 0.025
    report(2, worst < 1e-8 and argmax_ok,
           f"P10 closed vs Fock: worst {worst:.2e}; argmax at |alpha|=1: {argmax_ok}")


TABLE1_REFERENCE = {
    # name: (D5, S3) reference values
    "i": (0.56, -0.080), "ii": (0.56, -0.080), "iii": (0.56, -0.080), "iv": (0.54, -0.029),
    "membrane": (1.4, 0.084), "membrane-cooled": (0.51, -0.089),
    "photonic-crystal": (3500.0, 420.0), "photonic-crystal-cooled": (0.51, -0.089),
    "nanobeam": (1.3e17, 6.3e12), "nanobeam-cooled": (0.58, -0.074),
}


def test_criterion_3_benchmark_table_regeneration():
    """Rows (i)-(iv) within +-0.01 / +-0.008; sign classification exact on all 10 rows; < 2 min."""
    t0 = time.monotonic()
    sign_ok, value_ok, details = True, True, []
    for row in BENCHMARK_ROWS:
        env = EnvParams(omega_m=OMEGA_M_DEFAULT, q_factor=row.q_factor, nbar_bath=row.nbar_bath)
        d5 = criteria.d5_evolved(row.mu, row.nbar, env, PHI_DEFAULT)
        s3 = criteria.s3_evolved(row.mu, row.nbar, env, PHI_DEFAULT)
        d5_ref, s3_ref = TABLE1_REFERENCE[row.name]
        sign_ok &= (s3 < 0) == (s3_ref < 0) and (d5 < 0) == (d5_ref < 0)
        if row.name in ("i", "ii", "iii", "iv"):
            ok = abs(d5 - d5_ref) <= 0.01 and abs(s3 - s3_ref) <= 0.008
            value_ok &= ok
            if not ok:
                details.append(f"{row.name}: D5 {d5:.4f} vs {d5_ref}, S3 {s3:.4f} vs {s3_ref}")
    elapsed = time.monotonic() - t0
    report(3, sign_ok and value_ok and elapsed < 120.0,
           f"signs exact on 10 rows: {sign_ok}; (i)-(iv) tolerances: {value_ok}; "
           f"{elapsed:.1f}s {details}")


def test_criterion_4_detector_fractions():
    """F columns within +-5 pp; resolving >= non-resolving; oracle agreement 1e-6 at row (ii)."""
    reference = {  # percent, alpha = 1 and optimized
        "i": (79, 79, 84, 84), "ii": (82, 82, 98, 98), "iii": (82, 82, 99, 99),
        "iv": (82, 66, 99, 99),
        "membrane": (1.3, 1.3, 2.8, 2.8), "membrane-cooled": (0.99, 0.99, 2.1, 2.1),
        "photonic-crystal": (65, 65, 65, 65), "photonic-crystal-cooled": (23, 23, 30, 30),
        "nanobeam": (82, 60, 99, 99), "nanobeam-cooled": (82, 82, 98, 98),
    }
    det_r = presets.default_detector(True)
    det_n = presets.default_detector(False)
    ok_tol, ok_order = True, True
    for row in BENCHMARK_ROWS:
        protocol = ProtocolParams(mu=row.mu, phi=PHI_DEFAULT, input=CoherentInput(1.0),
                                  nbar_1=row.nbar, nbar_2=row.nbar)
        fr = 100 * detector.true_positive_fraction_resolving(det_r, protocol)
        fn = 100 * detector.true_positive_fraction_nonresolving(det_n, protocol)
        point = (row.mu, PHI_DEFAULT, row.nbar, row.nbar)
        fro = 100 * detector.optimize_alpha(det_r, *point).fraction
        fno = 100 * detector.optimize_alpha(det_n, *point).fraction
        refs = reference[row.name]
        ok_tol &= all(abs(v - r) <= 5.0 for v, r in zip((fr, fn, fro, fno), refs))
        # slack covers the O(D^2) asymmetry of the printed formulas (the
        # resolving one carries a (1-D) factor) and the optimizer tolerance
        ok_order &= fn <= fr + 1e-6 and fno <= fro + 1e-6
    p2 = ProtocolParams(mu=1e-2, phi=PHI_DEFAULT, input=CoherentInput(1.0),
                        nbar_1=0.1, nbar_2=0.1)
    oracle = detector.fractions_from_oracle(det_r, p2, fock.FockConfig(20, 20))
    agree = (
        abs(oracle.resolving - detector.true_positive_fraction_resolving(det_r, p2)) < 1e-6
        and abs(oracle.nonresolving - detector.true_positive_fraction_nonresolving(det_n, p2)) < 1e-6
    )
    report(4, ok_tol and ok_order and agree,
           f"tolerances: {ok_tol}; resolving dominates: {ok_order}; oracle 1e-6: {agree}")


def test_criterion_5_sideband_table():
    """Percentage reduction reproduced to 2 significant figures from (g0, kappa, omega_m)."""
    reference = {"membrane": 8.6e-2, "photonic-crystal": 1.6e-3, "nanobeam": 3.0e-6}
    ok = True
    for row in presets.CAVITY_ROWS:
        val = sideband.percent_reduction(row.cavity)
        ref = reference[row.name]
        # 2 s.f. agreement: rounding val to the reference's precision matches
        ok &= abs(val - ref) <= 0.5 * 10.0 ** (math.floor(math.log10(ref)) - 1)
    report(5, ok, "percent reduction matches to 2 s.f. on all rows")


def test_criterion_6_mu_cutoff():
    """S3(mu) = 0 root at nbar = nbar_B = 0, Q = 1e5 sits at 3.6 +- 0.3."""
    env = EnvParams(omega_m=OMEGA_M_DEFAULT, q_factor=1e5, nbar_bath=0.0)
    val = mu_cutoff(env)
    ok = abs(val - 3.6) <= 0.3
    report(6, ok, f"mu_c = {val:.3f}")


def test_criterion_7_figure_structure():
    """S3 argmin at phi=pi; D5 negativity centered at phi in {0, 2pi}; delta behavior."""
    env = EnvParams(omega_m=OMEGA_M_DEFAULT, q_factor=1e5, nbar_bath=500.0)
    phis = np.linspace(0.0, 2 * math.pi, 41)
    s3_vals = [criteria.s3_evolved(0.8, 0.1, env, p) for p in phis]
    s3_ok = abs(phis[int(np.argmin(s3_vals))] - math.pi) < 0.2 and min(s3_vals) < 0
    d5_vals = [criteria.d5_evolved(1.5, 0.1, env, p) for p in phis]
    i_d5 = int(np.argmin(d5_vals))
    d5_ok = min(phis[i_d5], 2 * math.pi - phis[i_d5]) < 0.2 and min(d5_vals) < 0
    # delta: zero at mu = 0, monotone over the 4-point grid at phi = pi
    cfg0 = fock.FockConfig(24, 24)
    st0, _ = heralded_state(ProtocolParams(mu=0.0, phi=0.5, nbar_1=0.1, nbar_2=0.1), cfg0)
    delta0 = non_gaussianity(st0)
    deltas = []
    for mu in (0.2, 0.6, 1.0, 1.4):
        cfg = fock.FockConfig(26, 26)
        st, _ = heralded_state(ProtocolParams(mu=mu, phi=math.pi, nbar_1=0.1, nbar_2=0.1), cfg)
        deltas.append(non_gaussianity(st))
    delta_ok = delta0 < 1e-9 and all(b > a for a, b in zip(deltas, deltas[1:]))
    report(7, s3_ok and d5_ok and delta_ok,
           f"S3 centered at pi: {s3_ok}; D5 at 0/2pi: {d5_ok}; delta: {delta0:.1e}, {deltas}")


def test_criterion_8_verification_pipeline():
    """Noiseless recovery 1e-8 (both configurations); slope -0.5 +- 0.1; >= 95% sign stability."""
    env = EnvParams(omega_m=OMEGA_M_DEFAULT, q_factor=1e5, nbar_bath=1000.0)
    devs = {}
    for configuration in ("parallel", "series"):
        params = ProtocolParams(mu=0.5, phi=PHI_DEFAULT, nbar_1=0.1, nbar_2=0.1,
                                configuration=configuration)
        table = evolve_moments(heralded_moment_table(params, 8), env)
        run = verify.VerificationStudy(table, phi=PHI_DEFAULT, target_order=4).run(None)
        devs[configuration] = run.max_abs_deviation()
    noiseless_ok = all(d < 1e-8 for d in devs.values())

    params_i = ProtocolParams(mu=1e-3, phi=PHI_DEFAULT, nbar_1=0.1, nbar_2=0.1)
    table_i = evolve_moments(heralded_moment_table(params_i, 8), env)
    pathway = verify.Pathway(chi=1.0, phi=PHI_DEFAULT)
    exact1 = verify.exact_port_moments(pathway, "A", table_i, 1)[0]
    single = verify.VerificationStudy(table_i, phi=PHI_DEFAULT, phase_sets=[verify.PhaseSet()])
    port_a = verify.PORTS.index("A")
    ns = [10**3, 10**4, 10**5, 10**6]
    means = []
    for n in ns:
        errs = [abs(single.sample_moments(n, (17, k))[0][port_a, 0] - exact1) for k in range(100)]
        means.append(np.mean(errs))
    slope = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
    slope_ok = abs(slope + 0.5) <= 0.1

    s3_exact = build_s3(table_i).value
    study = verify.VerificationStudy(table_i, phi=PHI_DEFAULT, target_order=4)
    agree = sum(
        (build_s3(study.run(10**6, seed=k).recovered_table).value < 0) == (s3_exact < 0)
        for k in range(100)
    )
    report(8, noiseless_ok and slope_ok and agree >= 95,
           f"noiseless devs {devs}; slope {slope:.3f}; sign agreement {agree}/100")


def test_criterion_9_separability_guard():
    """Product thermal states: D5 and S3 >= -1e-10 on a 4x4 nbar grid."""
    ok = True
    for n1 in (0.0, 0.3, 1.0, 2.5):
        for n2 in (0.0, 0.3, 1.0, 2.5):
            table = heralded_moment_table(ProtocolParams(mu=0.0, phi=0.0, nbar_1=n1, nbar_2=n2), 4)
            ok &= build_d5(table).value >= -1e-10
            ok &= build_s3(table).value >= -1e-10
    report(9, ok, "no false entanglement on separable thermal grid")


def test_criterion_10_structural_invariants():
    """State invariants, cutoff-doubling stability, commutator identities,
    symmetrized enumeration vs brute force; < 60 s."""
    t0 = time.monotonic()
    # trace / Hermiticity / PSD after construction and heralding
    for mu, nbar in ((0.5, 0.1), (1.0, 0.1)):
        cfg = fock.FockConfig(20, 20)
        state, _ = heralded_state(ProtocolParams(mu=mu, phi=PHI_DEFAULT, nbar_1=nbar, nbar_2=nbar), cfg)
        state.validate()
    # cutoff-doubling stability of reported moments at benchmark regimes
    worst_drift = 0.0
    for mu, nbar in ((0.5, 0.1), (1.0, 0.1)):
        params = ProtocolParams(mu=mu, phi=PHI_DEFAULT, nbar_1=nbar, nbar_2=nbar)
        small, _ = heralded_state(params, fock.FockConfig(20, 20))
        big, _ = heralded_state(params, fock.FockConfig(40, 40))
        t_small = algebra.moments_from_state(small, 4)
        t_big = algebra.moments_from_state(big, 4)
        worst_drift = max(
            worst_drift, max(abs(t_small.value(k) - t_big.value(k)) for k in t_small.entries)
        )
    doubling_ok = worst_drift < 1e-8
    # commutator identities: canonicalized words match direct Fock products
    cfg = fock.FockConfig(16, 16)
    rng = np.random.default_rng(3)
    state, _ = heralded_state(ProtocolParams(mu=0.4, phi=1.0, nbar_1=0.1, nbar_2=0.1), cfg)
    table = algebra.moments_from_state(state, 4)
    rho = density_matrix(factor(state))
    mats = {k: m for k, m in letter_matrices(cfg).items() if k[0] in "XP"}
    comm_ok = True
    for _ in range(30):
        word = tuple(rng.choice(list(mats)) for _ in range(rng.integers(2, 5)))
        direct = np.eye(cfg.dim, dtype=complex)
        for c in word:
            direct = direct @ mats[c]
        lhs = complex(np.trace(rho @ direct))
        comm_ok &= abs(lhs - table.evaluate(algebra.canonicalize(word))) < 1e-9
    # symmetrized enumeration vs brute force to order 6
    enum_ok = True
    for key in algebra.keys_up_to_order(6):
        if sum(key) == 0:
            continue
        words = algebra.symmetrized_expand(*key)
        letters = ("X1",) * key[0] + ("P1",) * key[1] + ("X2",) * key[2] + ("P2",) * key[3]
        brute = set()
        for perm in set(itertools.permutations(letters)):
            m1 = tuple(c for c in perm if c.endswith("1"))
            m2 = tuple(c for c in perm if c.endswith("2"))
            brute.add(m1 + m2)
        enum_ok &= brute == set(words)
    elapsed = time.monotonic() - t0
    report(10, doubling_ok and comm_ok and enum_ok and elapsed < 60.0,
           f"doubling drift {worst_drift:.1e}; commutators {comm_ok}; enumeration {enum_ok}; "
           f"{elapsed:.1f}s")
