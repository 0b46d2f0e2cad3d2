"""Join-attribute (S-pointer) distributions for workload generation.

The paper's experiments assume join attributes "randomly distributed in R"
(uniform, skew ~ 1.0); the extension benches additionally exercise skewed
and clustered reference patterns to probe the algorithms' differing skew
sensitivity.
"""

from __future__ import annotations

import inspect
import math
import random
from functools import lru_cache
from typing import Callable, List, Mapping, Sequence

import numpy as np

from repro.workload.stream import WordStream, randbelow, shuffled_order

#: ``(rng, count, |S|, **args) -> pointers``: a list of ints or, for the
#: samplers replayed in bulk, a u64 array holding the same values.
Sampler = Callable[[random.Random, int, int], Sequence[int]]


class DistributionError(ValueError):
    """Raised for unknown or ill-parameterized distributions."""


def uniform_pointers(
    rng: random.Random, count: int, s_objects: int
) -> np.ndarray:
    """Independent uniform pointers — the paper's validation workload.

    ``[rng.randrange(s_objects) for _ in range(count)]``, drawn in bulk.
    """
    with WordStream(rng) as stream:
        return randbelow(stream, s_objects, count)


def permutation_pointers(
    rng: random.Random, count: int, s_objects: int
) -> np.ndarray:
    """Each S-object referenced at most once (a key/foreign-key join).

    When ``count > s_objects`` the permutation repeats, keeping reference
    counts within one of each other.  Each block is ``rng.shuffle`` of
    ``range(s_objects)``.
    """
    blocks = []
    remaining = count
    while remaining > 0:
        blocks.append(shuffled_order(rng, s_objects)[:remaining])
        remaining -= s_objects
    return np.concatenate(blocks).astype(np.uint64)


@lru_cache(maxsize=16)
def zipf_cumulative_weights(s_objects: int, theta: float) -> tuple[float, ...]:
    """Cumulative Zipf weights for ``rng.choices(cum_weights=...)``.

    Cached per (|S|, theta) so repeated sampling does not rebuild the
    O(|S|) weight list on every call.  ``rank ** theta`` overflows for
    large exponents; the log-space form underflows to 0.0 instead, which
    is the correct limit (rank 1 keeps weight 1.0, the tail vanishes).
    """
    total = 0.0
    cumulative: List[float] = []
    for rank in range(1, s_objects + 1):
        try:
            weight = 1.0 / rank**theta
        except OverflowError:
            weight = math.exp(-theta * math.log(rank))
        total += weight
        cumulative.append(total)
    return tuple(cumulative)


def zipf_pointers(
    rng: random.Random, count: int, s_objects: int, theta: float = 1.0
) -> List[int]:
    """Zipf-distributed references: a few hot S-objects dominate.

    ``theta`` is the usual Zipf exponent; ``theta = 0`` degenerates to
    uniform.  Hot ranks are scattered over S with a fixed multiplicative
    shuffle so popularity skew does not accidentally become *partition*
    skew.
    """
    if not isinstance(theta, (int, float)) or not math.isfinite(theta):
        raise DistributionError("zipf exponent must be a finite number")
    if theta < 0:
        raise DistributionError("zipf exponent must be non-negative")
    cum_weights = zipf_cumulative_weights(s_objects, float(theta))
    ranks = rng.choices(range(s_objects), cum_weights=cum_weights, k=count)
    # Scatter ranks across S: multiply by an odd stride modulo |S|.
    stride = _coprime_stride(s_objects)
    return [(rank * stride + 1) % s_objects for rank in ranks]


def partition_hot_pointers(
    rng: random.Random,
    count: int,
    s_objects: int,
    hot_fraction: float = 0.5,
    hot_span: float = 0.25,
) -> List[int]:
    """Partition-skewed references: ``hot_fraction`` of pointers land in
    the first ``hot_span`` of S.

    This is the distribution that drives the paper's ``skew`` parameter
    above 1.0, gating the synchronized algorithms.
    """
    if not 0.0 <= hot_fraction <= 1.0:
        raise DistributionError("hot_fraction must be within [0, 1]")
    if not 0.0 < hot_span <= 1.0:
        raise DistributionError("hot_span must be within (0, 1]")
    hot_limit = max(1, int(s_objects * hot_span))
    pointers = []
    for _ in range(count):
        if rng.random() < hot_fraction:
            pointers.append(rng.randrange(hot_limit))
        else:
            pointers.append(rng.randrange(s_objects))
    return pointers


def clustered_pointers(
    rng: random.Random, count: int, s_objects: int, run_length: int = 32
) -> List[int]:
    """Locally-sequential references: runs of consecutive S-objects.

    Models R built by a clustered scan of S — friendly to nested loops'
    buffer, since consecutive dereferences hit the same S pages.
    """
    if run_length < 1:
        raise DistributionError("run_length must be at least 1")
    pointers: List[int] = []
    while len(pointers) < count:
        start = rng.randrange(s_objects)
        for step in range(min(run_length, count - len(pointers))):
            pointers.append((start + step) % s_objects)
    return pointers


# The whole point of clustered references is that R's *order* carries the
# locality; the generator must not shuffle it away.
clustered_pointers.order_matters = True


def _coprime_stride(n: int) -> int:
    """A multiplicative stride coprime with n (for rank scattering)."""
    import math

    stride = max(3, int(n * 0.61803) | 1)
    while math.gcd(stride, n) != 1:
        stride += 2
    return stride


DISTRIBUTIONS: dict[str, Sampler] = {
    "uniform": uniform_pointers,
    "permutation": permutation_pointers,
    "zipf": zipf_pointers,
    "partition_hot": partition_hot_pointers,
    "clustered": clustered_pointers,
}


def sampler(name: str) -> Sampler:
    """Look up a pointer distribution by name."""
    try:
        return DISTRIBUTIONS[name]
    except KeyError:
        raise DistributionError(
            f"unknown distribution {name!r}; choices: {sorted(DISTRIBUTIONS)}"
        ) from None


def distribution_arg_names(name: str) -> List[str]:
    """The keyword parameters a distribution accepts beyond (rng, count, |S|)."""
    return list(inspect.signature(sampler(name)).parameters)[3:]


def validate_distribution_args(name: str, args: Mapping[str, object]) -> None:
    """Reject unknown ``distribution_args`` before any work is done.

    Raises :class:`DistributionError` naming the offending keys and the
    accepted ones, so callers (the CLI in particular) can fail before a
    store is created.
    """
    allowed = distribution_arg_names(name)
    unknown = sorted(set(args) - set(allowed))
    if unknown:
        accepted = ", ".join(allowed) if allowed else "none"
        raise DistributionError(
            f"distribution {name!r} does not accept {unknown}; "
            f"accepted args: {accepted}"
        )
