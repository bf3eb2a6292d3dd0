"""Bit-identity of the array-speed search front end.

The vectorized ``random_partition``, ``dma_split``/``dma_partition`` and
GA seeding must reproduce the scalar implementations they replaced draw
for draw and variable for variable: any drift changes every seed-fixed
GA/RW result and every store content key. The scalar references are
kept here, verbatim in behaviour, so a stream change is caught across
commits, not only between two runs of the same code. The golden test
at the end pins fixed-seed GA and RW results on the paper's Fig. 3
sequence to the values the scalar implementations produced.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ga import GAConfig, GeneticPlacer
from repro.core.inter.afd import afd_partition
from repro.core.inter.dma import dma_partition, dma_split
from repro.core.inter.random_inter import random_partition
from repro.core.intra import chen_order, ofu_order, shifts_reduce_order
from repro.core.random_walk import random_walk_search
from repro.trace.generators.synthetic import phased_sequence
from repro.trace.liveness import NEVER, Liveness
from repro.trace.sequence import AccessSequence

from strategies import access_sequences, sequences_with_geometry
from tests.paperdata import FIG3_ACCESSES, FIG3_VARIABLES

# -- scalar references ----------------------------------------------------------


def scalar_random_partition(sequence, num_dbcs, capacity, gen):
    """One scalar ``integers`` draw per variable after an in-place shuffle."""
    variables = list(sequence.variables)
    gen.shuffle(variables)
    dbcs = [[] for _ in range(num_dbcs)]
    open_dbcs = list(range(num_dbcs))
    for v in variables:
        pick = int(gen.integers(0, len(open_dbcs)))
        dbc_index = open_dbcs[pick]
        dbcs[dbc_index].append(v)
        if len(dbcs[dbc_index]) >= capacity:
            open_dbcs.pop(pick)
    return dbcs


def reference_split(sequence):
    """Algorithm 1 lines 1-12 as the O(V²) pseudocode reads."""
    live = Liveness(sequence)
    vndj = live.by_first_occurrence()
    remaining = set(vndj)
    vdj, t_min = [], 0
    for v in list(vndj):
        fv, lv = live.first(v), live.last(v)
        if fv == NEVER or fv <= t_min:
            continue
        nested_sum = sum(
            live.frequency(u) for u in remaining
            if u != v and live.first(u) != NEVER
            and live.first(u) > fv and live.last(u) < lv
        )
        if live.frequency(v) > nested_sum:
            vdj.append(v)
            remaining.discard(v)
            t_min = lv
    return (vdj, [v for v in vndj if v in remaining],
            sum(live.frequency(v) for v in vdj))


def reference_partition(sequence, num_dbcs, capacity, fairness_guard=True):
    """Algorithm 1 lines 13-21 over :func:`reference_split`, on names."""
    vdj, vndj, vdj_freq = reference_split(sequence)
    k = math.ceil(len(vdj) / capacity) if vdj else 0
    if fairness_guard and vdj:
        var_share = len(vdj) / sequence.num_variables
        access_share = vdj_freq / max(len(sequence), 1)
        k = min(k, math.floor(num_dbcs * max(var_share, access_share) + 0.5))
        if k == 0:
            vndj, vdj = vdj + vndj, []
    if vndj and k >= num_dbcs:
        k = num_dbcs - 1
    if len(vdj) > k * capacity:
        vdj, vndj = vdj[: k * capacity], vdj[k * capacity :] + vndj
    dbcs = [[] for _ in range(num_dbcs)]
    for i, v in enumerate(vdj):
        dbcs[i % k].append(v)
    vndj.sort(key=lambda v: (-sequence.frequency(v), sequence.index_of(v)))
    targets = list(range(k, num_dbcs)) or list(range(num_dbcs))
    cursor, spill = 0, []
    for v in vndj:
        for _ in range(len(targets)):
            dbc = dbcs[targets[cursor % len(targets)]]
            cursor += 1
            if len(dbc) < capacity:
                dbc.append(v)
                break
        else:
            spill.append(v)
    for v in spill:
        next(d for d in dbcs if len(d) < capacity).append(v)
    return dbcs, k


def recomputed_seeds(placer):
    """GA seeds with one fresh ``dma_partition`` per intra order."""
    seq, q, cap = placer.sequence, placer.num_dbcs, placer.capacity
    seeds = []
    for intra in (shifts_reduce_order, chen_order, ofu_order, None):
        dbcs, k = dma_partition(seq, q, cap)
        if intra is not None:
            for i in range(k, len(dbcs)):
                if len(dbcs[i]) > 1:
                    dbcs[i] = intra(seq, dbcs[i])
        seeds.append(placer._to_individual(dbcs))
    seeds.append(placer._to_individual(afd_partition(seq, q, cap)))
    return seeds


# -- random_partition -------------------------------------------------------------


def _named(count: int) -> AccessSequence:
    names = [f"x{i}" for i in range(count)]
    return AccessSequence(names, variables=names)


@st.composite
def packings(draw):
    """(V, q, capacity), biased towards tight and exactly full devices."""
    q = draw(st.integers(1, 12))
    cap = draw(st.integers(1, 24))
    full = q * cap
    v = draw(st.one_of(st.just(full), st.integers(max(1, full - 3), full),
                       st.integers(1, min(full, 90))))
    return v, q, cap


def _assert_same_stream(v, q, cap, seed, calls=3):
    seq = _named(v)
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(calls):
        assert (random_partition(seq, q, cap, fast)
                == scalar_random_partition(seq, q, cap, slow))
    assert fast.bit_generator.state == slow.bit_generator.state


@given(packing=packings(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_random_partition_equals_scalar_draws(packing, seed):
    _assert_same_stream(*packing, seed)


@pytest.mark.parametrize("v, q, cap", [
    (48, 6, 8),     # V == q * cap
    (120, 16, 8),   # V == q * cap, many short segments
    (7, 7, 1),      # capacity == 1
    (5, 9, 1),      # capacity == 1, spare DBCs
    (30, 1, 30),    # q == 1, full
    (12, 1, 512),   # q == 1, roomy
    (170, 16, 64),  # several segments
    (49, 8, 128),   # one segment
])
@pytest.mark.parametrize("seed", [0, 1, 2**31 + 5])
def test_random_partition_edge_packings(v, q, cap, seed):
    _assert_same_stream(v, q, cap, seed)


# -- dma_split / dma_partition --------------------------------------------------------


def _assert_dma_matches(seq, q, cap):
    split = dma_split(seq)
    assert (list(split.vdj), list(split.vndj),
            split.disjoint_frequency_sum) == reference_split(seq)
    for guard in (True, False):
        assert (dma_partition(seq, q, cap, fairness_guard=guard)
                == reference_partition(seq, q, cap, fairness_guard=guard))


@given(data=sequences_with_geometry(max_vars=12, max_length=80))
@settings(max_examples=300, deadline=None)
def test_dma_equals_quadratic_reference(data):
    _assert_dma_matches(*data)


@given(phases=st.integers(1, 5), per_phase=st.integers(1, 6),
       length=st.integers(1, 30), shared=st.integers(0, 3),
       seed=st.integers(0, 2**16), q=st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_dma_equals_reference_on_phased_traces(phases, per_phase, length,
                                               shared, seed, q):
    seq = phased_sequence(phases, per_phase, length, shared_vars=shared,
                          rng=seed)
    _assert_dma_matches(seq, q, -(-seq.num_variables // q))


def test_dma_with_unaccessed_variables():
    seq = AccessSequence(list("abbaccdd"), variables=list("xaybczdw"))
    _assert_dma_matches(seq, 3, 3)
    assert set("xyzw") <= set(dma_split(seq).vndj)


# -- GA seeding -------------------------------------------------------------------------


@given(data=sequences_with_geometry(max_vars=10, max_length=50))
@settings(max_examples=100, deadline=None)
def test_seed_individuals_equals_recompute_per_intra(data):
    seq, q, cap = data
    placer = GeneticPlacer(seq, q, cap, GAConfig(mu=2, lam=2, generations=0),
                           rng=0)
    assert placer.seed_individuals() == recomputed_seeds(placer)


# -- golden values (captured from the scalar implementations) ------------------------------


@pytest.fixture
def fig3():
    return AccessSequence(FIG3_ACCESSES, variables=FIG3_VARIABLES, name="fig3")


@pytest.mark.parametrize("q, cap, cost, dbcs", [
    (2, 512, 12, (("e", "h", "a", "d"), ("f", "i", "g", "c", "b"))),
    (2, 5, 11, (("a", "f", "i", "g"), ("b", "c", "d", "h", "e"))),
    (3, 3, 7, (("h", "c", "e"), ("i", "d", "b"), ("g", "f", "a"))),
])
def test_random_walk_golden(fig3, q, cap, cost, dbcs):
    result = random_walk_search(fig3, q, cap, iterations=700, rng=7,
                                history_stride=100)
    assert result.cost == cost
    assert result.placement.dbc_lists() == dbcs


@pytest.mark.parametrize("q, cap, cost, dbcs", [
    (2, 5, 26, (("h", "b", "g", "e", "f"), ("i", "a", "d", "c"))),
    (3, 3, 11, (("h", "g", "e"), ("b", "c", "f"), ("i", "a", "d"))),
    (9, 1, 0, (("h",), ("g",), ("e",), ("b",), ("f",), ("c",), ("d",),
               ("i",), ("a",))),
    (1, 9, 63, (("i", "a", "h", "b", "d", "g", "c", "e", "f"),)),
])
def test_random_walk_first_draw_golden(fig3, q, cap, cost, dbcs):
    result = random_walk_search(fig3, q, cap, iterations=1, rng=7)
    assert result.cost == cost
    assert result.placement.dbc_lists() == dbcs


def test_random_partition_stream_golden(fig3):
    gen = np.random.default_rng(3)
    parts = [random_partition(fig3, 3, 3, gen) for _ in range(3)]
    assert parts == [
        [["h", "e", "g"], ["a", "c", "b"], ["f", "d", "i"]],
        [["h", "b", "c"], ["e", "i", "g"], ["d", "f", "a"]],
        [["f", "b", "g"], ["e", "i", "a"], ["c", "d", "h"]],
    ]
    assert int(gen.integers(0, 2**62)) == 2698587748396766855


@pytest.mark.parametrize("q, cap, seeded, cost, dbcs, history", [
    (2, 5, True, 9, (("b", "c", "d", "e", "h"), ("f", "g", "i", "a")),
     [9] * 9),
    (3, 3, True, 9, (("d", "a", "i"), ("b", "f", "h"), ("c", "e", "g")),
     [10, 10, 10, 9, 9, 9, 9, 9, 9]),
    (2, 512, False, 12, (("h", "g", "f", "c", "d", "b"), ("e", "i", "a")),
     [22, 22, 12, 12]),
    (2, 5, False, 18, (("b", "c", "e", "h", "f"), ("i", "g", "d", "a")),
     [18, 18, 18, 18]),
    (3, 3, False, 9, (("h", "g", "b"), ("c", "d", "e"), ("a", "i", "f")),
     [10, 9, 9, 9]),
])
def test_genetic_placer_golden(fig3, q, cap, seeded, cost, dbcs, history):
    if seeded:
        config, seed = GAConfig(mu=10, lam=10, generations=8), 42
    else:
        config = GAConfig(mu=6, lam=6, generations=3,
                          seed_with_heuristics=False)
        seed = 5
    result = GeneticPlacer(fig3, q, cap, config, rng=seed).run()
    assert result.cost == cost
    assert result.placement.dbc_lists() == dbcs
    assert result.history == history
