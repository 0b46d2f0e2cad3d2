"""Bulk replay of a ``random.Random`` stream as numpy arrays.

The generator's draws — ``randrange`` and ``shuffle`` — are defined by
CPython's Mersenne Twister and its rejection sampler: ``randrange(n)``
takes ``k = n.bit_length()`` bits from one 32-bit word (its top ``k``
bits) and draws again while the value is ``>= n``.  :class:`WordStream`
fetches the stream's words in bulk with one ``getrandbits(32 * m)``
call, the functions below run the rejection sampling over whole word
arrays, and :meth:`WordStream.close` rewinds the generator and advances
it by exactly the words consumed.  The arrays are therefore exactly what
the per-call loop would have drawn, and the generator is left where that
loop would have left it.
"""

from __future__ import annotations

import random

import numpy as np

WORD_BITS = 32


class WordStream:
    """The 32-bit words of a ``random.Random``, fetched ahead, used exactly.

    Use as a context manager: on exit the generator is rewound and
    advanced by :attr:`used` words, so draws made on it afterwards
    continue the stream where the replayed calls would have left it.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used = 0
        self._start = rng.getstate()
        self._words = np.empty(0, dtype=np.uint32)

    def ahead(self, count: int) -> np.ndarray:
        """At least ``count`` unconsumed words (without consuming them)."""
        short = self.used + count - len(self._words)
        if short > 0:
            fetched = self.rng.getrandbits(WORD_BITS * short)
            self._words = np.concatenate([
                self._words,
                np.frombuffer(fetched.to_bytes(4 * short, "little"), "<u4"),
            ])
        return self._words[self.used:]

    def close(self) -> None:
        self.rng.setstate(self._start)
        if self.used:
            self.rng.getrandbits(WORD_BITS * self.used)

    def __enter__(self) -> "WordStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _shift(n: int) -> int:
    """Right shift that keeps ``randrange(n)``'s ``n.bit_length()`` bits."""
    if not 0 < n < 1 << WORD_BITS:
        raise ValueError(f"bulk randrange needs 0 < n < 2**32, got {n}")
    return WORD_BITS - n.bit_length()


def _estimate(count: int, *bounds: int) -> int:
    """Words that ``count`` rounds of draws below ``bounds`` likely need."""
    words = sum(count * (1 << n.bit_length()) / n for n in bounds)
    return int(words * 1.05) + 64


def randbelow(stream: WordStream, n: int, count: int) -> np.ndarray:
    """``[rng.randrange(n) for _ in range(count)]`` as a u64 array."""
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    shift = _shift(n)
    want = _estimate(count, n)
    while True:
        values = stream.ahead(want) >> shift
        accepted = np.flatnonzero(values < n)
        if len(accepted) >= count:
            stream.used += int(accepted[count - 1]) + 1
            return values[accepted[:count]].astype(np.uint64)
        want *= 2


def randbelow_pairs(
    stream: WordStream, n_a: int, n_b: int, count: int
) -> tuple:
    """``count`` interleaved ``(randrange(n_a), randrange(n_b))`` draws.

    A word goes to whichever draw is pending, so which draw a word
    serves depends on every earlier rejection.  The two-state machine
    (state 0: an ``a`` draw is pending, 1: a ``b`` draw) is resolved for
    all words at once: per word, the transition either keeps both states
    (both draws would reject it), swaps them (both accept), or sends both
    to one state (exactly one accepts).  A word's starting state is
    therefore the last constant transition before it, flipped once per
    swap since.
    """
    if count == 0:
        empty = np.empty(0, dtype=np.uint64)
        return empty, empty.copy()
    shift_a, shift_b = _shift(n_a), _shift(n_b)
    want = _estimate(count, n_a, n_b)
    while True:
        words = stream.ahead(want)
        value_a, value_b = words >> shift_a, words >> shift_b
        ok_a, ok_b = value_a < n_a, value_b < n_b
        index = np.arange(len(words))
        constant = ok_a != ok_b
        swaps = np.cumsum(ok_a & ok_b)
        last = np.maximum.accumulate(np.where(constant, index, -1))
        seen = last >= 0
        base = np.where(seen, ok_a[last], False)
        flips = swaps - np.where(seen, swaps[last], 0)
        after = base ^ (flips & 1).astype(bool)
        before = np.concatenate([[False], after[:-1]])
        took_a = np.flatnonzero(~before & ok_a)
        took_b = np.flatnonzero(before & ok_b)
        if len(took_b) >= count:
            stream.used += int(took_b[count - 1]) + 1
            return (
                value_a[took_a[:count]].astype(np.uint64),
                value_b[took_b[:count]].astype(np.uint64),
            )
        want *= 2


def shuffled_order(rng: random.Random, n: int) -> np.ndarray:
    """The permutation ``rng.shuffle`` applies to a length-``n`` list.

    ``order[p]`` is the original index of the item that ends at position
    ``p``.  ``shuffle``'s draws do not depend on the items, so this
    consumes the stream exactly as shuffling the items would.
    """
    if n < 2:
        return np.arange(n, dtype=np.intp)
    with WordStream(rng) as stream:
        draws = _shuffle_draws(stream, n)
    # partner[i] is step i's draw; step 0 is a placeholder (see below).
    partner = np.concatenate([[0], draws[::-1]])
    return _fisher_yates(partner)


def _shuffle_draws(stream: WordStream, n: int) -> np.ndarray:
    """``[randbelow(b) for b in range(n, 1, -1)]``: ``shuffle``'s draws.

    The bound falls by one per draw, so the bounds sharing one bit length
    ``k`` form a run drawn from ``k``-bit values.  Within a run starting
    at bound ``top``, word ``t`` is rejected iff ``rej(t) <= c_t`` with
    ``c_t = value_t - top + t``, where ``rej(t)`` counts the run's
    rejected words before ``t``.  That recurrence is solved by iterating
    ``rej <- prefix count of (rej <= c)`` to its fixed point: the map is
    antitone, so the iterates bracket the solution from both sides, and
    each iteration settles at least one more leading word.
    """
    runs = []
    top = n
    while top >= 2:
        k = top.bit_length()
        low = max(2, 1 << (k - 1))
        count = top - low + 1
        shift = WORD_BITS - k
        want = 2 * count + 64
        while True:
            values = (stream.ahead(want) >> shift).astype(np.int64)
            c = values - top + np.arange(len(values))
            rejected_before = np.zeros(len(values), dtype=np.int64)
            while True:
                rejected = rejected_before <= c
                settled = np.empty_like(rejected_before)
                settled[0] = 0
                np.cumsum(rejected[:-1], out=settled[1:])
                if np.array_equal(settled, rejected_before):
                    break
                rejected_before = settled
            accepted = np.flatnonzero(~rejected)
            if len(accepted) >= count:
                stream.used += int(accepted[count - 1]) + 1
                runs.append(values[accepted[:count]])
                break
            want *= 2
        top = low - 1
    return np.concatenate(runs)


def _fisher_yates(partner: np.ndarray) -> np.ndarray:
    """Final positions of ``shuffle``'s swaps, without running them.

    Step ``i`` (run from ``n - 1`` down to 1) swaps positions ``i`` and
    ``partner[i] <= i``; position ``i`` never changes after it.  The item
    at position ``i`` when step ``i`` runs, ``held(i)``, is ``held(w)``
    of the writer ``w`` — the smallest step ``w > i`` with ``partner[w]
    == i`` — or ``i`` if no step wrote there.  Position ``i`` ends with
    what position ``partner[i]`` held just before step ``i``: ``held``
    of the smallest step after ``i`` with the same partner, or
    ``partner[i]`` itself.  With the placeholder ``partner[0] = 0`` the
    same rule gives position 0.  The "smallest later step" queries are
    one sort of ``(partner, step)`` keys; ``held`` follows writer chains
    by pointer jumping.
    """
    n = len(partner)
    steps = np.arange(n)
    by_partner = np.argsort(partner * n + steps)
    sorted_partner = partner[by_partner]
    later = np.full(n, -1)
    later[by_partner[:-1]] = np.where(
        sorted_partner[1:] == sorted_partner[:-1], by_partner[1:], -1
    )
    # Every step with partner p is >= p, so p's first writer heads its
    # group — unless p is its own partner, which then heads the group.
    head = np.minimum(np.searchsorted(sorted_partner, steps), n - 1)
    first = np.where(sorted_partner[head] == steps, by_partner[head], -1)
    writer = np.where(partner == steps, later, first)
    held = np.where(writer >= 0, writer, steps)
    while True:
        jumped = held[held]
        if np.array_equal(jumped, held):
            break
        held = jumped
    return np.where(later >= 0, held[np.maximum(later, 0)], partner)
