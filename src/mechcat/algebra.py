"""Canonical algebra of quadrature operator words over {X1, P1, X2, P2}.

Canonical words are X1^p P1^q X2^r P2^s, keyed by the exponent tuple
(p, q, r, s). Letters of different modes commute, so every word is a
mode-1 word times a mode-2 word, and each of those is a polynomial over
X^a P^b built one letter at a time by the single-mode product rule
(P^b X = X P^b - i b P^(b-1) from [X, P] = i). Every letter is a linear
form cx X + cp P; ladder letters use b = (X + iP)/sqrt(2).
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import CutoffTooSmall, MissingMoment, OrderOverflow
from .fock import TwoModeState, p_single, x_single

D_MAX = 8

QUAD_LETTERS = ("X1", "P1", "X2", "P2")
LADDER_LETTERS = ("b1", "b1d", "b2", "b2d")

_S = 1 / math.sqrt(2)
# letter: (mode index, X coefficient, P coefficient)
_LETTERS = {
    "X1": (0, 1.0, 0.0), "P1": (0, 0.0, 1.0), "b1": (0, _S, 1j * _S), "b1d": (0, _S, -1j * _S),
    "X2": (1, 1.0, 0.0), "P2": (1, 0.0, 1.0), "b2": (1, _S, 1j * _S), "b2d": (1, _S, -1j * _S),
}

Key = tuple[int, int, int, int]
Combo = dict[Key, complex]


def key_to_string(key: Key) -> str:
    return f"X1^{key[0]} P1^{key[1]} X2^{key[2]} P2^{key[3]}"


def _check_order(n: int):
    if n > D_MAX:
        raise OrderOverflow(f"word order {n} exceeds d_max={D_MAX}")


def mode_product(poly: np.ndarray, cx: complex, cp: complex) -> np.ndarray:
    """Right product poly . (cx X + cp P) of X^a P^b coefficient arrays (*batch, a, b),
    using P^b X = X P^b - i b P^(b-1); powers beyond the array are dropped."""
    out = np.zeros_like(poly)
    out[..., 1:, :] += cx * poly[..., :-1, :]
    out[..., :-1] -= 1j * cx * np.arange(1, poly.shape[-1]) * poly[..., 1:]
    out[..., 1:] += cp * poly[..., :-1]
    return out


@lru_cache(maxsize=None)
def _expand(word: tuple[str, ...]) -> tuple[tuple[Key, complex], ...]:
    # one polynomial per mode, letter by letter; the word is their product
    n = len(word) + 1
    polys = np.zeros((2, n, n), dtype=complex)
    polys[:, 0, 0] = 1.0
    for letter in word:
        mode, cx, cp = _LETTERS[letter]
        polys[mode] = mode_product(polys[mode], cx, cp)
    prod = np.multiply.outer(polys[0], polys[1])
    keys = np.argwhere(prod)
    return tuple(zip(map(tuple, keys.tolist()), prod[tuple(keys.T)].tolist()))


def _expand_checked(word: tuple[str, ...], letters: tuple[str, ...]) -> Combo:
    _check_order(len(word))
    for c in word:
        if c not in letters:
            raise ValueError(f"unknown letter {c!r}")
    return dict(_expand(tuple(word)))


def canonicalize(word: tuple[str, ...]) -> Combo:
    """Rewrite a quadrature word as {canonical key: coefficient}."""
    return _expand_checked(word, QUAD_LETTERS)


def ladder_to_quadrature(word: tuple[str, ...]) -> Combo:
    """Expand a ladder word into canonical quadrature words."""
    return _expand_checked(word, LADDER_LETTERS)


def _interleavings(p: int, q: int) -> list[tuple[str, ...]]:
    # distinct arrangements of p X's and q P's of one mode, as generic letters
    return [
        tuple("X" if i in xs else "P" for i in range(p + q))
        for xs in itertools.combinations(range(p + q), p)
    ]


def symmetrized_expand(p: int, q: int, r: int, s: int) -> list[tuple[str, ...]]:
    """Distinct orderings of p X1, q P1, r X2, s P2 (cross-mode letters commute).

    Words are returned with all mode-1 letters before mode-2 letters; the
    count is C(p+q, p) * C(r+s, r).
    """
    _check_order(p + q + r + s)
    m1 = [tuple(c + "1" for c in w) for w in _interleavings(p, q)]
    m2 = [tuple(c + "2" for c in w) for w in _interleavings(r, s)]
    return [w1 + w2 for w1 in m1 for w2 in m2]


def _key_to_word(key: Key) -> tuple[str, ...]:
    return ("X1",) * key[0] + ("P1",) * key[1] + ("X2",) * key[2] + ("P2",) * key[3]


def keys_up_to_order(order_max: int) -> list[Key]:
    out = []
    for p in range(order_max + 1):
        for q in range(order_max + 1 - p):
            for r in range(order_max + 1 - p - q):
                for s in range(order_max + 1 - p - q - r):
                    out.append((p, q, r, s))
    return sorted(out, key=lambda k: (sum(k), k))


def order_slice(order: int) -> slice:
    """Position of the order-`order` keys in keys_up_to_order(n >= order)."""
    return slice(math.comb(order + 3, 4), math.comb(order + 4, 4))


# ---------------------------------------------------------------------------
# Per-mode linear maps: a map acting letter by letter within each mode acts on
# the moments laid out as a (mode-1 word) x (mode-2 word) grid G as M G M^T.


def mode_keys(order_max: int) -> list[tuple[int, int]]:
    """Single-mode canonical words X^a P^b with a + b <= order_max."""
    return [(a, n - a) for n in range(order_max + 1) for a in range(n, -1, -1)]


@lru_cache(maxsize=None)
def _grid_index(order_max: int) -> np.ndarray:
    pos = {k: i for i, k in enumerate(mode_keys(order_max))}
    idx = np.array([(pos[k[:2]], pos[k[2:]]) for k in keys_up_to_order(order_max)]).T
    idx.setflags(write=False)
    return idx


def apply_mode_map(m: np.ndarray, vector: np.ndarray, order_max: int) -> np.ndarray:
    """Apply the single-mode map m to both modes of a moment vector; vectors may be
    stacked as (*batch, keys), and m may be a stack (*batch, n, n) broadcasting with them."""
    i1, i2 = _grid_index(order_max)
    grid = np.zeros(vector.shape[:-1] + m.shape[-1:] * 2, dtype=complex)
    grid[..., i1, i2] = vector
    return (m @ grid @ np.swapaxes(m, -1, -2))[..., i1, i2]


@lru_cache(maxsize=None)
def symmetrization_maps(order_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only single-mode maps of the symmetrized sums: row (p, q) adds up the
    canonical coefficients of every ordering of p X and q P letters and, for
    error propagation, their squared moduli ordering by ordering."""
    _check_order(order_max)
    mkeys = mode_keys(order_max)
    a_idx, b_idx = np.array(mkeys).T
    n = order_max + 1
    # polynomials of all orderings of p X and q P, stacked: each ends in X or in P
    unit = np.zeros((1, n, n), dtype=complex)
    unit[0, 0, 0] = 1.0
    orderings = {(0, 0): unit}
    for p, q in mkeys[1:]:
        ends = []
        if p:
            ends.append(mode_product(orderings[p - 1, q], 1.0, 0.0))
        if q:
            ends.append(mode_product(orderings[p, q - 1], 0.0, 1.0))
        orderings[p, q] = np.concatenate(ends)
    sym = np.array([orderings[k].sum(axis=0)[a_idx, b_idx] for k in mkeys])
    sym_sq = np.array([(np.abs(orderings[k]) ** 2).sum(axis=0)[a_idx, b_idx] for k in mkeys])
    for a in (sym, sym_sq):
        a.setflags(write=False)
    return sym, sym_sq


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Moment vector over keys_up_to_order(order_max), with derived key views.

    `values` and `errors` (standard errors in the same layout, or None) are
    read-only copies; `entries` and `std_errors` are read-only mappings from
    canonical keys, built on first use. `provenance` is "exact" for tables
    computed from a state or in closed form, "recovered" for tables estimated
    by the verification pipeline (then `n_samples` and `errors` are set).
    """

    values: np.ndarray
    order_max: int
    provenance: str = "exact"
    n_samples: int | None = None
    errors: np.ndarray | None = None
    evolved: bool = False  # open-system map applied (commutators no longer exact)

    def __post_init__(self):
        size = math.comb(self.order_max + 4, 4)
        for name, dtype in (("values", complex), ("errors", float)):
            if (a := getattr(self, name)) is not None:
                a = np.array(a, dtype=dtype)
                if a.shape != (size,):
                    raise ValueError(f"{name} has shape {a.shape}, order {self.order_max} needs ({size},)")
                a.setflags(write=False)
                object.__setattr__(self, name, a)

    @cached_property
    def entries(self) -> Mapping[Key, complex]:
        return MappingProxyType(dict(zip(keys_up_to_order(self.order_max), self.values.tolist())))

    @cached_property
    def std_errors(self) -> Mapping[Key, float]:
        errors = [] if self.errors is None else self.errors.tolist()
        return MappingProxyType(dict(zip(keys_up_to_order(self.order_max), errors)))

    def moments(self, order: int) -> np.ndarray:
        """The moments over keys_up_to_order(order), a read-only leading block of `values`."""
        if order > self.order_max:
            raise MissingMoment(f"table order {self.order_max} < requested {order}")
        return self.values[: math.comb(order + 4, 4)]

    def value(self, key: Key) -> complex:
        try:
            return self.entries[key]
        except KeyError:
            raise MissingMoment(f"moment {key_to_string(key)} not in table") from None

    def evaluate(self, combo: Combo) -> complex:
        """Value of a linear combination of canonical words."""
        return complex(sum(c * self.value(k) for k, c in combo.items()))

    def word_value(self, word: tuple[str, ...]) -> complex:
        return self.evaluate(canonicalize(word))

    def ladder_value(self, word: tuple[str, ...]) -> complex:
        return self.evaluate(ladder_to_quadrature(word))

    def check_hermitian_real(self, tol: float = 1e-9) -> None:
        """Hermitian-symmetric words (q and s paired as X^p P^q with the word
        equal to its own reversal) must have real expectation: spot-check the
        pure powers and the symmetrized sums."""
        for key, v in self.entries.items():
            p, q, r, s = key
            if q == 0 and s == 0 or p == 0 and r == 0:
                if abs(v.imag) > tol * (1.0 + abs(v)):
                    raise ValueError(f"{key_to_string(key)} = {v} not real")

    def to_dict(self) -> dict:
        """The JSON payload of the table: entries as [re, im] and std_errors by word string."""
        return {
            "order_max": self.order_max,
            "provenance": self.provenance,
            "n_samples": self.n_samples,
            "convention": {"hbar": 1, "var_vacuum": 0.5},
            "entries": {
                key_to_string(k): [v.real, v.imag] for k, v in sorted(self.entries.items())
            },
            "std_errors": {key_to_string(k): e for k, e in sorted(self.std_errors.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "MomentTable":
        payload = json.loads(text)
        names = [key_to_string(k) for k in keys_up_to_order(payload["order_max"])]
        entries, errors = payload["entries"], payload.get("std_errors")
        return cls(
            [complex(*entries[name]) for name in names],
            payload["order_max"],
            payload.get("provenance", "exact"),
            payload.get("n_samples"),
            [errors[name] for name in names] if errors else None,
        )


# ---------------------------------------------------------------------------


def _word_matrices(cutoff: int, order_max: int) -> np.ndarray:
    """X^a P^b over mode_keys(order_max) on one mode, each an earlier word times one letter."""
    x, p = x_single(cutoff), p_single(cutoff)
    words = {(0, 0): np.eye(cutoff, dtype=complex)}
    for a, b in mode_keys(order_max)[1:]:
        words[a, b] = words[a, b - 1] @ p if b else words[a - 1, b] @ x
    return np.array(list(words.values()))


def moments_from_state(state: TwoModeState, order_max: int,
                       check_convergence: bool = False) -> MomentTable:
    """All canonical moments <X1^p P1^q X2^r P2^s> of a Fock-space state.

    Click columns give them as the word sums of fock.ClickColumns over the single-mode word
    matrices, divided by the identity word's sum (the columns' trace); a factor gives them as
    shifted overlaps (_moments_raw). The doubling check compares the top order with the
    moments of the same state zero-padded into the doubled-cutoff space (_reembed)."""
    _check_order(order_max)
    table = _moments_raw(state, order_max) if state.clicks is None else _click_moments(state, order_max)
    if check_convergence:
        top = order_slice(order_max)
        drift = np.abs(table.values[top] - moments_from_state(_reembed(state), order_max).values[top])
        if (bad := np.flatnonzero(drift > 1e-8)).size:
            key = keys_up_to_order(order_max)[top][bad[0]]
            raise CutoffTooSmall(
                f"moment {key_to_string(key)} drifts {drift[bad[0]]:.3g} under cutoff doubling"
            )
    return table


def _click_moments(state: TwoModeState, order_max: int) -> MomentTable:
    cfg = state.config
    grid = state.clicks.word_sums(_word_matrices(cfg.cutoff_1, order_max), _word_matrices(cfg.cutoff_2, order_max))
    i1, i2 = _grid_index(order_max)
    return MomentTable(grid[i1, i2] / grid[0, 0].real, order_max)


def _moments_raw(state: TwoModeState, order_max: int) -> MomentTable:
    # <M1 x M2> = sum_{i,j,k,l} M1[i, k] M2[j, l] sum_x conj(A[i, j, x]) A[k, l, x]. Words of
    # order <= n are banded on both modes, so with k = i + d1, l = j + d2 every moment of order
    # <= n is a sum over |d1| + |d2| <= n of diag(M1, d1) O_d diag(M2, d2)^T with the shifted
    # overlaps O_d[i, j] = sum_x conj(A[i, j, x]) A[i + d1, j + d2, x] (both indexed from the
    # first valid row and column). O_{-d} is the conjugate of O_d in that indexing, so only
    # the half plane (d1 > 0, or d1 = 0 and d2 >= 0) is computed
    a = state.factor
    c1, c2 = a.shape[:2]
    m1 = _word_matrices(c1, order_max)
    m2 = _word_matrices(c2, order_max)

    def part(d1, d2, overlap):
        return np.diagonal(m1, d1, 1, 2) @ overlap @ np.diagonal(m2, d2, 1, 2).T

    grid = 0
    for d1 in range(min(order_max, c1 - 1) + 1):
        reach = min(order_max - d1, c2 - 1)
        for d2 in range(-reach if d1 else 0, reach + 1):
            lo, hi = max(0, -d2), c2 - max(0, d2)
            overlap = np.vecdot(a[: c1 - d1, lo:hi], a[d1:, lo + d2 : hi + d2])
            grid = grid + part(d1, d2, overlap)
            if d1 or d2:
                grid = grid + part(-d1, -d2, overlap.conj())
    i1, i2 = _grid_index(order_max)
    return MomentTable(grid[i1, i2], order_max)


def _reembed(state: TwoModeState) -> TwoModeState:
    """Embed the state in a doubled-cutoff space: zero-pad its click columns' E blocks (their
    kept levels stay), which zero-pads their factor without building it, or its factor."""
    cfg, clicks = state.config, state.clicks
    if clicks is None:
        payload = np.pad(state.factor, ((0, cfg.cutoff_1), (0, cfg.cutoff_2), (0, 0)))
    else:
        payload = replace(clicks, e1=np.pad(clicks.e1, (0, cfg.cutoff_1)), e2=np.pad(clicks.e2, (0, cfg.cutoff_2)))
    return TwoModeState(cfg.doubled(), payload)
