"""Machine-speed reading: fixed calibration loops timed beside the work.

Shared hosts switch between speed modes that last seconds to minutes: on
the 2-core VM of the README's figures, the same round of work took 1.0 s in
one mode and 1.9 s in another, and the calibration loops slowed down and
sped up with it. A round therefore reads
a short loop before set-up, after set-up and between groups of operations,
and the benchmark scales each measured time by ``REFERENCE / loop time``
read beside it. ``python`` is interpreter-bound work, like the closed-form
and verification code; ``blas`` is dense complex matrix products, like the
Fock path. numpy is imported lazily, so importing this module costs nothing
before the set-up clock of a round starts.
"""

from __future__ import annotations

import statistics
import time

# Scaled times read as seconds on a host where one reading is exactly this
# long; on the README's 2-core VM the python reading ran 11-19 ms.
REFERENCE = {"python": 0.015, "blas": 0.018}


def python_loop(n: int = 70_000) -> float:
    t = time.perf_counter()
    acc = {}
    for i in range(n):
        acc[i % 97] = acc.get(i % 97, 0) + (i * i) % 7
    return time.perf_counter() - t


_BLAS_OPERANDS = {}


def blas_loop(dim: int = 300, reps: int = 6) -> float:
    import numpy as np

    if dim not in _BLAS_OPERANDS:
        k = np.arange(dim * dim, dtype=float).reshape(dim, dim)
        _BLAS_OPERANDS[dim] = (np.exp(1j * k / dim), np.exp(-1j * k.T / dim))
    a, b = _BLAS_OPERANDS[dim]
    t = time.perf_counter()
    for _ in range(reps):
        a @ b
    return time.perf_counter() - t


LOOPS = {"python": python_loop, "blas": blas_loop}


def calibrate() -> dict[str, float]:
    return {kind: loop() for kind, loop in LOOPS.items()}


class Marks:
    """Calibration readings at points in time, to scale the times between them."""

    def __init__(self, kind: str):
        self.kind = kind
        self.readings: list[tuple[float, float]] = []  # (time at end of loop, loop seconds)

    def __call__(self) -> None:
        """One reading: the median of three loops, so that one interrupted loop does not count."""
        seconds = statistics.median(LOOPS[self.kind]() for _ in range(3))
        self.readings.append((time.perf_counter(), seconds))

    def scale(self, start: float, end: float) -> float:
        """REFERENCE over the mean loop time of the readings just before and after."""
        before = [s for t, s in self.readings if t <= start][-1:]
        after = [s for t, s in self.readings if t >= end][:1]
        near = before + after
        return REFERENCE[self.kind] / (sum(near) / len(near))
