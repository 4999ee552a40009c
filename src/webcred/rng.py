"""Deterministic pseudo-random numbers for every stochastic step.

All randomness in the package (fold shuffles, SVM coordinate order,
bootstrap resampling, feature subsampling) flows from one explicit 64-bit
seed through SplitMix64 (Steele, Lea & Flood's mixer, as used by
java.util.SplittableRandom).  The algorithm is ~10 lines and is duplicated
verbatim in ``_kernels/kernels.c``, which keeps the compiled and pure paths
on identical random streams and makes results reproducible across runs,
thread counts, and kernel implementations.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """SplitMix64 finalizer: avalanching 64-bit hash of ``x``."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stream_seed(seed: int, index: int) -> int:
    """Seed for the ``index``-th independent substream of ``seed``.

    Used to give each forest tree (and each CV fold shuffle) its own
    stream so per-unit work can run in any order or thread.
    """
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


class SplitMix64:
    """Sequential SplitMix64 generator over a 64-bit state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def randbelow(self, n: int) -> int:
        """Integer in [0, n) via modulo (bias < 2**-53 for our n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def next_u64_array(self, k: int) -> np.ndarray:
        """The next ``k`` draws of :meth:`next_u64` as a uint64 array.

        Computed at once with wrapping uint64 arithmetic (draw j mixes
        state + j*GOLDEN); the state advances past all ``k`` draws.
        """
        x = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        x += np.uint64(self._state)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        self._state = (self._state + k * _GOLDEN) & _MASK64
        return x

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: for i = n-1 down to 1, swap
        items[i] with items[randbelow(i + 1)].

        The n-1 draws come from one :meth:`next_u64_array` call; only the
        swaps stay in Python.
        """
        n = len(items)
        if n < 2:
            return
        draws = self.next_u64_array(n - 1)
        picks = (draws % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        for i, j in zip(range(n - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct integers from [0, n), in draw order."""
        if k > n:
            raise ValueError("sample larger than population")
        seen: set[int] = set()
        out: list[int] = []
        while len(out) < k:
            j = self.randbelow(n)
            if j not in seen:
                seen.add(j)
                out.append(j)
        return out
