"""Named end-to-end placement policies — the configurations of Sec. IV-A.

The paper evaluates six: ``AFD-OFU`` (baseline), ``DMA-OFU``, ``DMA-Chen``
and ``DMA-SR`` (the contribution paired with intra-DBC optimizers),
``GA`` and ``RW``. This registry adds the raw Fig. 3 variants and the
extension policies (TSP intra, multi-set DMA) used by the ablations.

Every policy maps ``(sequence, num_dbcs, capacity[, rng])`` to a
:class:`~repro.core.placement.Placement`; deterministic policies ignore
the rng.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.ga import GAConfig, GeneticPlacer
from repro.core.inter.afd import afd_partition, afd_placement
from repro.core.inter.dma import dma_placement, order_non_disjoint
from repro.core.inter.multiset import multiset_dma_placement
from repro.core.intra import (
    INTRA_HEURISTICS,
    _default_annealed,
    chen_order,
    ofu_order,
    shifts_reduce_order,
    tsp_order,
)
from repro.core.placement import Placement
from repro.core.random_walk import DEFAULT_ITERATIONS, random_walk_search
from repro.errors import SolverError
from repro.trace.sequence import AccessSequence
from repro.util.rng import ensure_rng

PlaceFn = Callable[
    [AccessSequence, int, int, np.random.Generator], Placement
]

#: The six configurations evaluated throughout Sec. IV.
PAPER_POLICIES: tuple[str, ...] = (
    "AFD-OFU", "DMA-OFU", "DMA-Chen", "DMA-SR", "GA", "RW",
)


@dataclass(frozen=True)
class Policy:
    """A named placement strategy."""

    name: str
    fn: PlaceFn
    deterministic: bool = True

    def place(
        self,
        sequence: AccessSequence,
        num_dbcs: int,
        capacity: int,
        rng: int | np.random.Generator | None = None,
    ) -> Placement:
        """Compute a placement; ``rng`` feeds the stochastic policies."""
        placement = self.fn(sequence, num_dbcs, capacity, ensure_rng(rng))
        return placement.padded(num_dbcs)


def _afd_raw(seq, q, cap, _rng) -> Placement:
    return afd_placement(seq, q, cap)


def _afd_with(intra) -> PlaceFn:
    def fn(seq, q, cap, _rng) -> Placement:
        return Placement(
            order_non_disjoint(seq, afd_partition(seq, q, cap), 0, intra)
        )

    return fn


def _dma_raw(seq, q, cap, _rng) -> Placement:
    return dma_placement(seq, q, cap, intra=None)


def _dma_with(intra) -> PlaceFn:
    def fn(seq, q, cap, _rng) -> Placement:
        return dma_placement(seq, q, cap, intra=intra)

    return fn


def _mdma_with(intra) -> PlaceFn:
    def fn(seq, q, cap, _rng) -> Placement:
        return multiset_dma_placement(seq, q, cap, intra=intra)

    return fn


def _ga_policy(**options) -> PlaceFn:
    config = GAConfig(**options) if options else GAConfig()

    def fn(seq, q, cap, rng) -> Placement:
        return GeneticPlacer(seq, q, cap, config=config, rng=rng).run().placement

    return fn


def _rw_policy(iterations: int = DEFAULT_ITERATIONS) -> PlaceFn:
    def fn(seq, q, cap, rng) -> Placement:
        return random_walk_search(seq, q, cap, iterations=iterations, rng=rng).placement

    return fn


_BUILDERS: dict[str, Callable[..., tuple[PlaceFn, bool]]] = {
    # Paper's six configurations.
    "AFD-OFU": lambda: (_afd_with(ofu_order), True),
    "DMA-OFU": lambda: (_dma_with(ofu_order), True),
    "DMA-Chen": lambda: (_dma_with(chen_order), True),
    "DMA-SR": lambda: (_dma_with(shifts_reduce_order), True),
    "GA": lambda **kw: (_ga_policy(**kw), False),
    "RW": lambda **kw: (_rw_policy(**kw), False),
    # Raw Fig. 3 variants (no intra-DBC optimization).
    "AFD": lambda: (_afd_raw, True),
    "DMA": lambda: (_dma_raw, True),
    # Cross products and extensions for the ablation studies.
    "AFD-Chen": lambda: (_afd_with(chen_order), True),
    "AFD-SR": lambda: (_afd_with(shifts_reduce_order), True),
    "DMA-TSP": lambda: (_dma_with(tsp_order), True),
    "DMA-SA": lambda: (_dma_with(_default_annealed), True),
    "MDMA-OFU": lambda: (_mdma_with(ofu_order), True),
    "MDMA-SR": lambda: (_mdma_with(shifts_reduce_order), True),
}


def available_policies() -> tuple[str, ...]:
    """All registered policy names."""
    return tuple(_BUILDERS)


def get_policy(name: str, **options) -> Policy:
    """Instantiate a policy by name.

    ``GA`` accepts :class:`~repro.core.ga.GAConfig` fields as keyword
    options (e.g. ``generations=50``); ``RW`` accepts ``iterations``.
    Deterministic policies accept no options.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise SolverError(
            f"unknown policy {name!r}; available: {', '.join(_BUILDERS)}"
        ) from None
    try:
        fn, deterministic = builder(**options)
    except TypeError as exc:
        raise SolverError(f"bad options for policy {name!r}: {exc}") from exc
    return Policy(name=name, fn=fn, deterministic=deterministic)


def intra_heuristic_names() -> tuple[str, ...]:
    """Names of the standalone intra-DBC heuristics (for ablations)."""
    return tuple(INTRA_HEURISTICS)
