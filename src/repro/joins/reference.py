"""Reference (oracle) join and output verification.

Pointer-based join semantics make correctness sharply checkable: every
R-object joins exactly the S-object its pointer names, once.  The oracle
therefore follows directly from the workload, and verification catches the
real failure modes of the parallel algorithms — lost objects in the
redistribution passes, duplicated emissions, or pairs routed to the wrong
partition.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List

from repro.core.records import JoinedPair
from repro.workload.generator import Workload


class JoinVerificationError(AssertionError):
    """Raised when a join produced wrong output."""


def reference_join(workload: Workload) -> List[JoinedPair]:
    """The correct join output, computed directly (no simulation).

    Built from the workload's columns: each R-object's pointer indexes
    S's value column.
    """
    return list(map(JoinedPair._make, zip(
        workload.r_rid.tolist(),
        workload.r_sptr.tolist(),
        workload.r_payload.tolist(),
        workload.s_value[workload.r_sptr].tolist(),
    )))


def verify_pairs(workload: Workload, pairs: Iterable[JoinedPair]) -> int:
    """Check a join's output against the oracle; returns the pair count.

    Output order is immaterial (the paper: "nor do we assume that the join
    results are generated in any particular order"), so comparison is by
    multiset.
    """
    expected = Counter(reference_join(workload))
    produced = Counter(pairs)
    if expected == produced:
        return sum(produced.values())

    missing = expected - produced
    extra = produced - expected
    problems = []
    if missing:
        sample = next(iter(missing))
        problems.append(f"{sum(missing.values())} missing (e.g. {sample})")
    if extra:
        sample = next(iter(extra))
        problems.append(f"{sum(extra.values())} unexpected (e.g. {sample})")
    raise JoinVerificationError("join output incorrect: " + "; ".join(problems))


def expected_checksum(workload: Workload) -> int:
    """The PairCollector checksum the correct output must produce.

    The checksum is a sum of per-pair terms ``rid * 1_000_003 + sid *
    7919 + s_value`` modulo ``2**61``, so it is taken per column, in
    Python ints (no u64 wrap-around).
    """
    rid = sum(workload.r_rid.tolist())
    sid = sum(workload.r_sptr.tolist())
    value = sum(workload.s_value[workload.r_sptr].tolist())
    return (rid * 1_000_003 + sid * 7919 + value) % (1 << 61)
