import numpy as np
import pytest

from webcred.rng import SplitMix64, mix64, stream_seed


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
