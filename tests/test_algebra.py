import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from dense_reference import (density_matrix, factor, letter_matrices, moments_raw, on_mode, random_click_state,
                             state_from_rho)
from mechcat import algebra, fock, herald
from mechcat.algebra import MomentTable, canonicalize, ladder_to_quadrature, symmetrized_expand
from mechcat.errors import MissingMoment, OrderOverflow


def _key_to_word(key):
    """The canonical word X1^p P1^q X2^r P2^s of a key, letter by letter."""
    return ("X1",) * key[0] + ("P1",) * key[1] + ("X2",) * key[2] + ("P2",) * key[3]

RNG = np.random.default_rng(1234)


def fock_word_matrix(word, cfg):
    mats = letter_matrices(cfg)
    out = np.eye(cfg.dim, dtype=complex)
    for c in word:
        out = out @ mats[c]
    return out


# ---------------------------------------------------------------------------
# Test-only references: the whole-word rewriting the per-mode product replaced.
# A bubble sort of adjacent letters with AB = BA + [A, B], and ladder words
# expanded letter by letter from the left onto canonical tails.

_RANK = {"X1": 0, "P1": 1, "X2": 2, "P2": 3}
_LADDER_EXPANSION = {
    "b1": (("X1", 1 / math.sqrt(2)), ("P1", 1j / math.sqrt(2))),
    "b1d": (("X1", 1 / math.sqrt(2)), ("P1", -1j / math.sqrt(2))),
    "b2": (("X2", 1 / math.sqrt(2)), ("P2", 1j / math.sqrt(2))),
    "b2d": (("X2", 1 / math.sqrt(2)), ("P2", -1j / math.sqrt(2))),
}


@lru_cache(maxsize=None)
def _canonicalize_cached(word):
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if _RANK[a] <= _RANK[b]:
            continue
        out = dict(_canonicalize_cached(word[:i] + (b, a) + word[i + 2 :]))
        if a[1] == b[1]:  # same mode, necessarily P before X: [P, X] = -i
            for k, c in _canonicalize_cached(word[:i] + word[i + 2 :]):
                out[k] = out.get(k, 0.0) + (-1j) * c
        return tuple(out.items())
    key = tuple(word.count(c) for c in ("X1", "P1", "X2", "P2"))
    return ((key, 1.0 + 0.0j),)


@lru_cache(maxsize=None)
def _ladder_to_quadrature_cached(word):
    if not word:
        return (((0, 0, 0, 0), 1.0 + 0.0j),)
    out = {}
    tail = dict(_ladder_to_quadrature_cached(word[1:]))
    for letter, coeff in _LADDER_EXPANSION[word[0]]:
        for key, c in tail.items():
            for k2, c2 in _canonicalize_cached((letter,) + _key_to_word(key)):
                out[k2] = out.get(k2, 0.0) + coeff * c * c2
    return tuple(out.items())


def _nonzero(pairs):
    return {k: c for k, c in pairs if c != 0}


def test_canonicalize_matches_word_rewriting_exactly():
    for n in range(7):
        for word in itertools.product(algebra.QUAD_LETTERS, repeat=n):
            assert canonicalize(word) == _nonzero(_canonicalize_cached(word)), word


def test_ladder_matches_word_rewriting():
    for n in range(6):
        for word in itertools.product(algebra.LADDER_LETTERS, repeat=n):
            ref, got = _nonzero(_ladder_to_quadrature_cached(word)), ladder_to_quadrature(word)
            for key in set(ref) | set(got):
                assert abs(got.get(key, 0.0) - ref.get(key, 0.0)) <= 1e-15, (word, key)


def test_unknown_letters_rejected():
    with pytest.raises(ValueError):
        canonicalize(("X1", "b1"))
    with pytest.raises(ValueError):
        ladder_to_quadrature(("b1", "X2"))


@pytest.mark.parametrize("order", [2, 4, 8])
def test_symmetrization_maps_match_word_loop(order):
    mkeys = algebra.mode_keys(order)
    pos = {k: i for i, k in enumerate(mkeys)}
    sym = np.zeros((len(mkeys), len(mkeys)), dtype=complex)
    sym_sq = np.zeros((len(mkeys), len(mkeys)))
    for row, (p, q) in enumerate(mkeys):
        for word in symmetrized_expand(p, q, 0, 0):
            for key, c in _canonicalize_cached(word):
                sym[row, pos[key[:2]]] += c
                sym_sq[row, pos[key[:2]]] += abs(c) ** 2
    got, got_sq = algebra.symmetrization_maps(order)
    assert np.array_equal(got, sym)
    assert np.array_equal(got_sq, sym_sq)


@pytest.mark.parametrize("mu, phi, nbar", [(0.7, math.pi, 0.1), (1.2, 2.0, 0.3)])
def test_moments_from_state_match_matrix_power_words(mu, phi, nbar):
    # reference: per-key sandwiches of the factor with matrix_power word matrices
    state, _ = herald.heralded_state(herald.ProtocolParams(mu=mu, phi=phi, nbar_1=nbar, nbar_2=nbar),
                                     fock.FockConfig(24, 24))
    a = factor(state)
    c1, c2 = a.shape[:2]

    def word(cutoff, n_x, n_p):
        power = np.linalg.matrix_power
        return power(fock.x_single(cutoff), n_x) @ power(fock.p_single(cutoff), n_p)

    table = algebra.moments_from_state(state, 8)
    conj_rows = a.conj().reshape(c1, -1)
    sandwiches = {}
    for p, q, r, s in algebra.keys_up_to_order(8):
        if (r, s) not in sandwiches:
            sandwiches[r, s] = conj_rows @ on_mode(word(c2, r, s), 2, a).reshape(c1, -1).T
        ref = complex(np.sum(word(c1, p, q) * sandwiches[r, s]))
        assert abs(table.value((p, q, r, s)) - ref) <= 1e-14 * (1 + abs(ref)), (p, q, r, s)


def _random_factor(cutoff_1, cutoff_2, rank, seed, decay=1.0):
    # rho = A A^dag with Fock amplitudes damped as e^(-decay (i + j)), so truncation stays small
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(cutoff_1, cutoff_2, rank)) + 1j * rng.normal(size=(cutoff_1, cutoff_2, rank))
    a *= np.exp(-decay * np.add.outer(np.arange(cutoff_1), np.arange(cutoff_2)))[..., None]
    return a / np.linalg.norm(a)


def _matrix_power_moments(a, order):
    # per-key sandwiches of the factor with matrix_power word matrices
    c1, c2 = a.shape[:2]

    def word(cutoff, n_x, n_p):
        power = np.linalg.matrix_power
        return power(fock.x_single(cutoff), n_x) @ power(fock.p_single(cutoff), n_p)

    conj_rows = a.conj().reshape(c1, -1)
    out = {}
    for p, q, r, s in algebra.keys_up_to_order(order):
        sandwich = conj_rows @ on_mode(word(c2, r, s), 2, a).reshape(c1, -1).T
        out[p, q, r, s] = complex(np.sum(word(c1, p, q) * sandwich))
    return out


def _assert_moments_match(entries, ref):
    assert entries.keys() == ref.keys()
    for key, value in ref.items():
        assert abs(entries[key] - value) <= 1e-14 * (1 + abs(value)), key


@pytest.mark.parametrize("order", [1, 2, 4, 8])
@pytest.mark.parametrize("rank", [1, 4], ids=["pure", "mixed"])
@pytest.mark.parametrize("cutoffs", [(12, 7), (7, 12), (12, 3), (3, 12)], ids=lambda c: "%dx%d" % c)
def test_banded_moments_match_matrix_power_words(cutoffs, rank, order):
    # the factor oracle's shifted overlaps; a cutoff of 3 clips that mode's shift loop at
    # c - 1 = 2 at orders 4 and 8
    a = _random_factor(*cutoffs, rank, seed=sum(cutoffs) + rank + order)
    _assert_moments_match(moments_raw(a, order).entries, _matrix_power_moments(a, order))


@pytest.mark.parametrize("order", [1, 2, 4, 8])
@pytest.mark.parametrize("rank", [1, 4, None], ids=["pure", "mixed", "full"])
@pytest.mark.parametrize("cutoffs", [(12, 7), (7, 12), (12, 3), (3, 12)], ids=lambda c: "%dx%d" % c)
def test_click_moments_match_matrix_power_words(cutoffs, rank, order):
    # click columns with complex, non-commuting E blocks: the word sums against the factor
    state = random_click_state(fock.FockConfig(*cutoffs), seed=sum(cutoffs) + order, rank=rank)
    table = algebra.moments_from_state(state, order)
    _assert_moments_match(table.entries, _matrix_power_moments(factor(state), order))


@pytest.mark.parametrize("order", [2, 4, 8])
@pytest.mark.parametrize("cutoffs", [(12, 7), (12, 3), (3, 12)], ids=lambda c: "%dx%d" % c)
def test_moments_of_non_contiguous_factors(cutoffs, order):
    # state_from_rho factors are views of the eigenvector matrix, and a factor
    # stored mode-2 major is a transposed view: the overlaps read both as strided
    a = _random_factor(*cutoffs, 4, seed=sum(cutoffs) + order)
    from_rho = state_from_rho(density_matrix(a), fock.FockConfig(*cutoffs))
    transposed = a.transpose(1, 0, 2).copy().transpose(1, 0, 2)
    for b in (from_rho, transposed):
        assert not b.flags.c_contiguous
        _assert_moments_match(moments_raw(b, order).entries, _matrix_power_moments(b, order))


@pytest.mark.parametrize("rank", [1, 4], ids=["pure", "mixed"])
def test_banded_moments_on_reembedded_state(rank):
    # the doubling zero-pads E, which zero-pads every column of the factor
    state = random_click_state(fock.FockConfig(14, 10), seed=rank, rank=rank)
    checked = algebra.moments_from_state(state, 4, check_convergence=True)
    assert checked.entries == algebra.moments_from_state(state, 4).entries
    big = algebra._reembed(state)
    assert big.config == fock.FockConfig(28, 20)
    a = factor(state)
    padded = np.pad(a, ((0, 14), (0, 10), (0, 0)))
    assert np.max(np.abs(factor(big) - padded)) <= 1e-15 * np.max(np.abs(a))
    _assert_moments_match(algebra.moments_from_state(big, 4).entries, _matrix_power_moments(padded, 4))


def test_canonicalize_single_commutator():
    combo = canonicalize(("P1", "X1"))
    assert combo == {(1, 1, 0, 0): pytest.approx(1.0), (0, 0, 0, 0): pytest.approx(-1j)}


def test_canonicalize_idempotent_on_canonical():
    for key in algebra.keys_up_to_order(4):
        word = _key_to_word(key)
        assert canonicalize(word) == {key: 1.0 + 0.0j}


def test_canonicalize_worked_identity():
    # <X1^2 P1 X2> = S(...)/3 + i <X1 X2>
    words = symmetrized_expand(2, 1, 1, 0)
    total = {}
    for w in words:
        for k, c in canonicalize(w).items():
            total[k] = total.get(k, 0) + c
    assert total[(2, 1, 1, 0)] == pytest.approx(3.0)
    assert total[(1, 0, 1, 0)] == pytest.approx(-3j)


def test_canonicalize_against_fock_random_states():
    cfg = fock.FockConfig(10, 10)
    st = random_click_state(cfg, 7)
    rho = density_matrix(factor(st))
    table = algebra.moments_from_state(st, 4)
    letters = ["X1", "P1", "X2", "P2"]
    rng = np.random.default_rng(42)
    for _ in range(40):
        d = rng.integers(1, 5)
        word = tuple(rng.choice(letters) for _ in range(d))
        direct = np.trace(rho @ fock_word_matrix(word, cfg))
        via_table = table.evaluate(canonicalize(word))
        assert abs(direct - via_table) < 1e-9


def test_symmetrized_counts_match_brute_force():
    for p, q, r, s in algebra.keys_up_to_order(6):
        if p + q + r + s == 0:
            continue
        words = symmetrized_expand(p, q, r, s)
        assert len(words) == math.comb(p + q, p) * math.comb(r + s, r)
        # brute force: distinct permutations modulo cross-mode commutation
        letters = ("X1",) * p + ("P1",) * q + ("X2",) * r + ("P2",) * s
        seen = set()
        for perm in set(itertools.permutations(letters)):
            m1 = tuple(c for c in perm if c.endswith("1"))
            m2 = tuple(c for c in perm if c.endswith("2"))
            seen.add(m1 + m2)
        assert seen == set(words)


def test_symmetrized_examples():
    assert symmetrized_expand(1, 0, 0, 0) == [("X1",)]
    assert len(symmetrized_expand(2, 1, 1, 0)) == 3
    assert len(symmetrized_expand(2, 2, 0, 0)) == 6


def test_order_overflow():
    with pytest.raises(OrderOverflow):
        symmetrized_expand(5, 4, 0, 0)
    with pytest.raises(OrderOverflow):
        canonicalize(("X1",) * 9)


def test_ladder_expansions():
    assert ladder_to_quadrature(("b1",)) == {
        (1, 0, 0, 0): pytest.approx(1 / math.sqrt(2)),
        (0, 1, 0, 0): pytest.approx(1j / math.sqrt(2)),
    }
    number = ladder_to_quadrature(("b1d", "b1"))
    assert number[(2, 0, 0, 0)] == pytest.approx(0.5)
    assert number[(0, 2, 0, 0)] == pytest.approx(0.5)
    assert number[(0, 0, 0, 0)] == pytest.approx(-0.5)


def test_ladder_against_fock():
    cfg = fock.FockConfig(10, 10)
    st = random_click_state(cfg, 9)
    rho = density_matrix(factor(st))
    table = algebra.moments_from_state(st, 4)
    for word in [("b1",), ("b1d", "b1"), ("b1", "b2d"), ("b1d", "b1", "b2d", "b2")]:
        direct = np.trace(rho @ fock_word_matrix(word, cfg))
        assert abs(direct - table.evaluate(ladder_to_quadrature(word))) < 1e-9
    ground = algebra.moments_from_state(fock.thermal_state(0.0, 0.0, cfg), 4)
    assert abs(ground.evaluate(ladder_to_quadrature(("b1d", "b1", "b2d", "b2")))) < 1e-12


def test_moment_matrix_positivity_spot_check():
    # <w^dag w> >= 0 for words of order <= 2
    cfg = fock.FockConfig(10, 10)
    st = random_click_state(cfg, 21)
    table = algebra.moments_from_state(st, 4)
    reverse = {"X1": "X1", "P1": "P1", "X2": "X2", "P2": "P2"}
    for key in algebra.keys_up_to_order(2):
        w = _key_to_word(key)
        wdw = tuple(reverse[c] for c in reversed(w)) + w
        val = table.evaluate(canonicalize(wdw))
        assert val.real > -1e-10


def test_moments_from_state_basics():
    cfg = fock.FockConfig(20, 20)
    ground = algebra.moments_from_state(fock.thermal_state(0.0, 0.0, cfg), 2)
    assert abs(ground.value((2, 0, 0, 0)) - 0.5) < 1e-12
    assert abs(ground.value((1, 0, 0, 0))) < 1e-13
    th = algebra.moments_from_state(fock.thermal_state(0.6, 0.0, fock.FockConfig(26, 8)), 2)
    assert abs(th.evaluate(ladder_to_quadrature(("b1d", "b1"))) - 0.6) < 1e-9


def test_heralded_first_moment_inner_product_oracle():
    # coherent-state inner products give <P1> for the ground-state cat:
    # [mu + mu lam cos(phi)] / (2 (1 + lam cos phi)) = mu / 2
    mu, phi = 0.5, math.pi
    lam = math.exp(-mu * mu / 2)
    expect = (mu + mu * lam * math.cos(phi)) / (2 * (1 + lam * math.cos(phi)))
    cfg = fock.FockConfig(24, 24)
    params = herald.ProtocolParams(mu=mu, phi=phi)
    st, _ = herald.heralded_state(params, cfg)
    table = algebra.moments_from_state(st, 2)
    assert abs(table.value((0, 1, 0, 0)) - expect) < 1e-9


def test_missing_moment_error():
    table = MomentTable(np.array([1.0]), order_max=0)
    with pytest.raises(MissingMoment):
        table.value((1, 0, 0, 0))
    with pytest.raises(MissingMoment):
        table.moments(1)


def test_moment_table_rejects_wrong_length():
    with pytest.raises(ValueError, match="values"):
        MomentTable(np.ones(14), order_max=2)
    with pytest.raises(ValueError, match="errors"):
        MomentTable(np.ones(15), order_max=2, errors=np.ones(5))


def test_moment_table_is_read_only():
    values = np.arange(15, dtype=complex)
    table = MomentTable(values, order_max=2)
    values[1] = 99.0  # the table keeps its own copy
    assert table.value((0, 0, 0, 1)) == 1.0
    with pytest.raises(ValueError):
        table.values[1] = 5.0
    with pytest.raises(TypeError):
        table.entries[(0, 0, 0, 1)] = 5.0
    with pytest.raises(TypeError):
        table.std_errors[(0, 0, 0, 1)] = 5.0
    assert table.entries is table.entries  # built once


def test_cutoff_doubling_convergence_check():
    cfg = fock.FockConfig(20, 20)
    st, _ = herald.heralded_state(herald.ProtocolParams(mu=0.5, phi=math.pi, nbar_1=0.1, nbar_2=0.1), cfg)
    table = algebra.moments_from_state(st, 2, check_convergence=True)
    assert abs(table.value((0, 1, 0, 0)) - 0.25) < 1e-9


def test_word_key_strings():
    assert algebra.key_to_string((2, 0, 1, 3)) == "X1^2 P1^0 X2^1 P2^3"
