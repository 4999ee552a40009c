import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from webcred.rng import (
    SplitMix64,
    mix64,
    next_u64_rows,
    samples_without_replacement,
    stream_seed,
)


def test_same_seed_reproduces_the_stream():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_diverge():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_mix64_stays_in_64_bits():
    for x in (0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15):
        assert 0 <= mix64(x) < 2**64


def test_stream_seed_gives_distinct_substreams():
    seeds = {stream_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_randbelow_bounds_and_error():
    rng = SplitMix64(7)
    for _ in range(1000):
        assert 0 <= rng.randbelow(13) < 13
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_uniform_in_unit_interval():
    rng = SplitMix64(9)
    values = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.4 < sum(values) / len(values) < 0.6


def test_shuffle_is_a_permutation():
    rng = SplitMix64(11)
    items = list(range(50))
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items


@pytest.mark.parametrize("n", [0, 1, 2, 3, 108, 450])
def test_shuffle_matches_sequential_fisher_yates(n):
    for seed in (0, 11, 2**64 - 1):
        rng = SplitMix64(seed)
        reference = SplitMix64(seed)
        got, want = list(range(n)), list(range(n))
        for _ in range(100):
            rng.shuffle(got)
            for i in range(n - 1, 0, -1):
                j = reference.randbelow(i + 1)
                want[i], want[j] = want[j], want[i]
            assert got == want
        # Equal states give equal next draws.
        assert rng.next_u64() == reference.next_u64()


def reference_shuffle(rng, items):
    for i in range(len(items) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        items[i], items[j] = items[j], items[i]


def test_shuffle_draws_ahead_past_the_cap():
    # 400 shuffles of 54 items make about 21,000 draws, so the draws made
    # ahead are remade several times at their cap of 8,192.
    rng, reference = SplitMix64(3), SplitMix64(3)
    for n in [54] * 400 + [9000, 54]:
        got, want = list(range(n)), list(range(n))
        rng.shuffle(got)
        reference_shuffle(reference, want)
        assert got == want
    assert rng.next_u64() == reference.next_u64()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    steps=st.lists(
        st.tuples(st.sampled_from(["shuffle", "next_u64", "array", "sample"]),
                  st.integers(0, 120)),
        max_size=40,
    ),
)
def test_shuffles_interleaved_with_other_draws_match_the_stream(seed, steps):
    # Any other draw between two shuffles moves the state away from the
    # draws made ahead; the next shuffle must start from the new state.
    rng, reference = SplitMix64(seed), SplitMix64(seed)
    for op, n in steps:
        if op == "shuffle":
            got, want = list(range(n)), list(range(n))
            rng.shuffle(got)
            reference_shuffle(reference, want)
            assert got == want
        elif op == "next_u64":
            assert rng.next_u64() == reference.next_u64()
        elif op == "array":
            assert rng.next_u64_array(n).tolist() == [
                reference.next_u64() for _ in range(n)
            ]
        else:
            assert rng.sample_without_replacement(n + 1, min(n, 5)) == (
                reference.sample_without_replacement(n + 1, min(n, 5))
            )
    assert rng.next_u64() == reference.next_u64()


@pytest.mark.parametrize("n", [1, 2, 54, 108, 1000])
def test_bulk_draws_match_sequential_randbelow(n):
    # The forest's bootstrap: n draws of randbelow(n) taken at once.
    for seed in (0, 11, 2**64 - 1):
        rng = SplitMix64(seed)
        reference = SplitMix64(seed)
        for _ in range(3):
            draws = rng.next_u64_array(n)
            assert draws.dtype == np.uint64
            assert (draws % np.uint64(n)).tolist() == [
                reference.randbelow(n) for _ in range(n)
            ]
        assert rng.next_u64() == reference.next_u64()


def test_sample_without_replacement_distinct_and_in_range():
    rng = SplitMix64(13)
    for _ in range(50):
        picks = rng.sample_without_replacement(20, 8)
        assert len(picks) == 8
        assert len(set(picks)) == 8
        assert all(0 <= p < 20 for p in picks)


def test_next_u64_rows_continue_each_stream():
    seeds = [0, 5, 2**63, 2**64 - 1]
    states = np.array(seeds, dtype=np.uint64)
    rows = next_u64_rows(states, 6)
    for seed, row, state in zip(seeds, rows, states):
        rng = SplitMix64(seed)
        assert row.tolist() == [rng.next_u64() for _ in range(6)]
        assert int(state) == rng._state


@st.composite
def sample_problems(draw):
    n = draw(st.integers(1, 80))
    k = draw(st.one_of(st.just(n), st.integers(0, n)))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=8))
    return n, k, seeds


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problem=sample_problems())
def test_bulk_samples_equal_the_one_draw_loop(problem):
    # k = n needs every value, so a row's first batch often falls short
    # and is drawn again with a longer one.
    n, k, seeds = problem
    states = np.array(seeds, dtype=np.uint64)
    samples, after = samples_without_replacement(states, n, k)
    assert samples.shape == (len(seeds), k)
    assert states.tolist() == seeds
    for seed, sample, state in zip(seeds, samples, after):
        rng = SplitMix64(seed)
        assert sample.tolist() == rng.sample_without_replacement(n, k)
        assert int(state) == rng._state


def test_bulk_samples_refuse_k_above_n():
    with pytest.raises(ValueError):
        samples_without_replacement(np.zeros(2, dtype=np.uint64), 3, 4)
