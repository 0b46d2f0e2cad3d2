"""Bulk replay of ``random.Random`` draws must equal the per-call loop.

Every replay is checked value for value against the calls it stands for,
and the generator must be left where those calls would have left it (the
next ``random()`` agrees).
"""

import random

import numpy as np
import pytest

from repro.workload.stream import (
    WordStream,
    randbelow,
    randbelow_pairs,
    shuffled_order,
)

SEEDS = (1, 96, 12345)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "n", [1, 2, 3, 7, 64, 1000, 102_400, 1_000_000, 1 << 30, (1 << 32) - 1]
)
def test_randbelow_matches_randrange(seed, n):
    loop, bulk = random.Random(seed), random.Random(seed)
    want = [loop.randrange(n) for _ in range(3000)]
    with WordStream(bulk) as stream:
        got = randbelow(stream, n, 3000)
    assert got.dtype == np.uint64
    assert got.tolist() == want
    assert bulk.random() == loop.random()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "n_a,n_b", [(1_000_000, 1 << 30), (3, 5), (1, 1), (7, 1 << 31), (2, 1)]
)
def test_randbelow_pairs_matches_interleaved_randrange(seed, n_a, n_b):
    loop, bulk = random.Random(seed), random.Random(seed)
    want = [(loop.randrange(n_a), loop.randrange(n_b)) for _ in range(4000)]
    with WordStream(bulk) as stream:
        a, b = randbelow_pairs(stream, n_a, n_b, 4000)
    assert list(zip(a.tolist(), b.tolist())) == want
    assert bulk.random() == loop.random()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "n", list(range(0, 40)) + [100, 1000, 4096, 4097, 65_537, 102_400]
)
def test_shuffled_order_matches_shuffle(seed, n):
    loop, bulk = random.Random(seed), random.Random(seed)
    items = list(range(n))
    loop.shuffle(items)
    assert shuffled_order(bulk, n).tolist() == items
    assert bulk.random() == loop.random()


def test_consecutive_replays_continue_the_stream():
    loop, bulk = random.Random(7), random.Random(7)
    want = [loop.randrange(10) for _ in range(50)]
    want += [loop.randrange(1 << 20) for _ in range(50)]
    with WordStream(bulk) as stream:
        first = randbelow(stream, 10, 50)
        second = randbelow(stream, 1 << 20, 50)
    assert first.tolist() + second.tolist() == want


def test_empty_requests_consume_nothing():
    loop, bulk = random.Random(3), random.Random(3)
    with WordStream(bulk) as stream:
        assert len(randbelow(stream, 5, 0)) == 0
        assert all(len(x) == 0 for x in randbelow_pairs(stream, 5, 6, 0))
    assert bulk.random() == loop.random()


@pytest.mark.parametrize("n", [0, 1 << 32])
def test_bounds_outside_one_word_are_rejected(n):
    with WordStream(random.Random(1)) as stream:
        with pytest.raises(ValueError):
            randbelow(stream, n, 1)
