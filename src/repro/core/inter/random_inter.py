"""Uniformly random inter-DBC partitioning (RW building block)."""

from __future__ import annotations

import numpy as np

from repro.errors import CapacityError
from repro.trace.sequence import AccessSequence
from repro.util.rng import ensure_rng


def random_partition(
    sequence: AccessSequence,
    num_dbcs: int,
    capacity: int,
    rng: int | np.random.Generator | None = None,
) -> list[list[str]]:
    """Assign each variable to a uniformly random non-full DBC.

    Variables are processed in a random order and each picks uniformly
    among DBCs with free locations, so both the partition and the
    resulting intra-DBC insertion orders are random.

    The picks are drawn in segments, one array call each. A segment is
    no longer than the smallest free capacity among the open DBCs, so no
    DBC can fill before the segment's last pick and every pick in it has
    the same bound. Array and scalar ``integers`` calls with one bound
    consume the bit stream identically, so the result and the final
    generator state equal one scalar draw per variable.
    """
    if num_dbcs < 1:
        raise CapacityError(f"need at least one DBC, got {num_dbcs}")
    if capacity < 1:
        raise CapacityError(f"capacity must be >= 1, got {capacity}")
    if sequence.num_variables > num_dbcs * capacity:
        raise CapacityError(
            f"{sequence.num_variables} variables exceed {num_dbcs} DBCs x "
            f"{capacity} locations"
        )
    gen = ensure_rng(rng)
    variables = sequence.variables
    # Same draws as shuffling the list of names in place.
    order = gen.permutation(len(variables)).tolist()
    dbcs: list[list[str]] = [[] for _ in range(num_dbcs)]
    open_dbcs = list(range(num_dbcs))
    start = 0
    while start < len(order):
        seg = min(len(order) - start,
                  capacity - max(len(dbcs[d]) for d in open_dbcs))
        picks = gen.integers(0, len(open_dbcs), size=seg).tolist()
        for v, pick in zip(order[start : start + seg], picks):
            dbcs[open_dbcs[pick]].append(variables[v])
        start += seg
        open_dbcs = [d for d in open_dbcs if len(dbcs[d]) < capacity]
    return dbcs
