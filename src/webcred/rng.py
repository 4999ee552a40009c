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
# Most draws :meth:`SplitMix64.shuffle` makes ahead (more for a larger shuffle).
_AHEAD_MAX = 2**13


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
        # Draws made ahead for :meth:`shuffle`: ``_ahead`` continues the
        # stream from state ``_ahead_base``, and the first ``_taken`` of
        # them have been used.
        self._ahead = np.empty(0, dtype=np.uint64)
        self._ahead_base = self._state
        self._taken = 0

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
        """The next ``k`` draws of :meth:`next_u64` as a uint64 array,
        computed at once; the state advances past all ``k`` draws."""
        state = np.array([self._state], dtype=np.uint64)
        x = next_u64_rows(state, k)[0]
        self._state = int(state[0])
        return x

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: for i = n-1 down to 1, swap
        items[i] with items[randbelow(i + 1)].

        The n-1 draws are taken from draws made ahead at once, so a run of
        shuffles (one per SVM pass) makes a few numpy calls rather than a
        whole :meth:`next_u64_array` pipeline each; only the swaps stay in
        Python.  The state advances by exactly n-1 draws.  The draws made
        ahead are remade, twice as many up to ``_AHEAD_MAX``, when too few
        are left or when another method has moved the state since.
        """
        n = len(items)
        if n < 2:
            return
        used = self._taken + n - 1
        if (
            self._state != (self._ahead_base + self._taken * _GOLDEN) & _MASK64
            or used > len(self._ahead)
        ):
            size = max(n - 1, min(2 * len(self._ahead), _AHEAD_MAX))
            self._ahead = next_u64_rows(np.array([self._state], dtype=np.uint64), size)[0]
            self._ahead_base = self._state
            self._taken, used = 0, n - 1
        draws = self._ahead[self._taken : used]
        picks = (draws % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        self._taken = used
        self._state = (self._ahead_base + used * _GOLDEN) & _MASK64
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


def next_u64_rows(states: np.ndarray, k: int) -> np.ndarray:
    """Row r holds the next ``k`` draws of ``SplitMix64(states[r])``.

    ``states`` is a uint64 array, advanced in place past the draws; the
    result is (len(states), k) uint64, computed at once with wrapping
    uint64 arithmetic (draw j mixes state + j*GOLDEN).
    """
    x = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    x = states[:, None] + x
    states += np.uint64(k * _GOLDEN & _MASK64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def samples_without_replacement(
    states: np.ndarray, n: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row r of the (len(states), k) int64 result is what
    ``SplitMix64(states[r]).sample_without_replacement(n, k)`` returns; the
    second result holds the uint64 states after those draws.

    Each row draws a batch of values below n at once and keeps its first k
    distinct values in draw order; the state advances past the draw that
    completed the sample, as the one-draw-at-a-time loop would.  A row
    whose batch holds fewer than k distinct values is drawn again from its
    original state with a batch twice as long.
    """
    if k > n:
        raise ValueError("sample larger than population")
    states = np.asarray(states, dtype=np.uint64)
    out = np.empty((len(states), k), dtype=np.int64)
    after = states.copy()
    if k == 0:
        return out, after
    todo = np.arange(len(states))
    size = 2 * k + 8
    while todo.size:
        draws = (next_u64_rows(states[todo], size) % np.uint64(n)).astype(np.int64)
        # A value's first draw in its row is the first of its (row, value)
        # key in a stable sort of the keys.
        keys = (draws + (np.arange(len(todo)) * n)[:, None]).ravel()
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        first = np.empty(keys.size, dtype=bool)
        first[order] = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        first = first.reshape(draws.shape)
        distinct = np.cumsum(first, axis=1)
        done = distinct[:, -1] >= k
        rows = todo[done]
        out[rows] = draws[done][first[done] & (distinct[done] <= k)].reshape(-1, k)
        used = np.argmax(distinct[done] >= k, axis=1) + 1
        after[rows] = states[rows] + used.astype(np.uint64) * np.uint64(_GOLDEN)
        todo = todo[~done]
        size *= 2
    return out, after
