"""Output checks against the workload oracle, run outside every timer.

A join is correct when the pairs the caller actually received are, as a
multiset, the oracle's pairs (``repro.joins.reference.reference_join``),
their count and checksum match the oracle's
(``repro.joins.reference.expected_checksum``), and the program's own
reported count and checksum agree with both.  The checksum is
recomputed here from the received pairs — never taken from the program —
with the same order-independent mixing the engine uses.  The checksum
leaves out ``r_payload`` and does not see which R-object an S-object was
paired with, so the multiset comparison is what catches a join that
hands S halves to the wrong R-objects.
"""

from __future__ import annotations

import gc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.joins.reference import expected_checksum, reference_join

CHECKSUM_MOD = 1 << 61


def pairs_checksum(pairs: Iterable[Sequence[int]]) -> tuple:
    """``(count, checksum)`` of ``(rid, sid, r_payload, s_value)`` pairs."""
    count = 0
    total = 0
    for pair in pairs:
        count += 1
        total += pair[0] * 1_000_003 + pair[1] * 7919 + pair[3]
    return count, total % CHECKSUM_MOD


@dataclass(frozen=True)
class Expected:
    count: int
    checksum: int
    pairs: Counter


@contextmanager
def gc_paused():
    """The oracle makes some 10^5 tuples at a time; the collections they
    trigger scan every live object of the run and would double its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@gc_paused()
def expected_for(workload) -> Expected:
    """The oracle for ``workload`` (slow: build it outside the timers)."""
    return Expected(
        workload.r_objects_total,
        expected_checksum(workload),
        # Plain tuples of ints, which the collector stops tracking, so
        # the oracle held through a run adds nothing to the timed ops'
        # collections.
        Counter(map(tuple, reference_join(workload))),
    )


@gc_paused()
def check(
    expected: Expected,
    received: Sequence[Sequence[int]],
    reported_count: int,
    reported_checksum: int,
) -> Optional[str]:
    """``None`` when the op is correct, else what was wrong."""
    problems = []
    count, checksum = pairs_checksum(received)
    if (count, checksum) != (expected.count, expected.checksum):
        problems.append(
            f"received {count} pairs with checksum {checksum}, "
            f"oracle has {expected.count} with {expected.checksum}"
        )
    produced = Counter(map(tuple, received))
    if produced != expected.pairs:
        missing = sum((expected.pairs - produced).values())
        extra = sum((produced - expected.pairs).values())
        problems.append(
            f"received pairs differ from the oracle's: {missing} missing, "
            f"{extra} unexpected"
        )
    if (reported_count, reported_checksum) != (expected.count, expected.checksum):
        problems.append(
            f"program reported {reported_count} pairs with checksum "
            f"{reported_checksum}"
        )
    return "; ".join(problems) or None


def flip_one(pairs: list) -> list:
    """A copy of ``pairs`` with one pair pointing at the wrong S-object."""
    flipped = list(pairs)
    rid, sid, r_payload, s_value = flipped[0]
    flipped[0] = (rid, sid ^ 1, r_payload, s_value)
    return flipped


def swap_two(pairs: list) -> list:
    """A copy of ``pairs`` with the S halves of two pairs exchanged.

    Count and checksum stay the same; only the multiset check sees it.
    """
    swapped = list(pairs)
    first = swapped[0]
    k = next(k for k, p in enumerate(swapped) if p[1] != first[1])
    other = swapped[k]
    swapped[0] = (first[0], other[1], first[2], other[3])
    swapped[k] = (other[0], first[1], other[2], first[3])
    return swapped


INJECTIONS = {"flip": flip_one, "swap": swap_two}


def self_test() -> None:
    """Prove the gate can fail: a flipped or swapped pair must be caught."""
    pairs = [(rid, (rid * 7) % 11, rid * 3, rid + 100) for rid in range(11)]
    count, checksum = pairs_checksum(pairs)
    truth = Expected(count, checksum, Counter(pairs))
    if check(truth, pairs, count, checksum) is not None:
        raise RuntimeError("oracle check rejects correct output")
    for name, inject in INJECTIONS.items():
        if check(truth, inject(pairs), count, checksum) is None:
            raise RuntimeError(f"oracle check accepts the {name} injection")
