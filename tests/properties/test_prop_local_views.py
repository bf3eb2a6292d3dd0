"""Property tests: DBC-local views against scalar reference builds.

Every intra-DBC heuristic works on ``AccessSequence.restricted_to`` and
on the :class:`AccessGraph` of that local sequence. Both are built from
integer codes in bulk; the references below rebuild them one access at a
time, the way a reader of Sec. II-B would, and the tests demand the same
result down to dict insertion order, which fixes every tie-break of the
greedy heuristics.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.intra import chen_order, ofu_order, shifts_reduce_order, tsp_order
from repro.errors import TraceError
from repro.trace.graph import AccessGraph
from repro.trace.sequence import AccessSequence

from strategies import access_sequences


def reference_restricted(seq, subset, name=""):
    """Name-by-name rebuild of the local subsequence of ``subset``."""
    wanted = set(subset)
    unknown = wanted.difference(seq.variables)
    if unknown:
        raise TraceError(f"unknown variables in subset: {sorted(unknown)}")
    keep = [v for v in seq.variables if v in wanted]
    if not keep:
        raise TraceError("subset must contain at least one variable")
    kept = [a for a in seq.accesses if a in wanted]
    return AccessSequence(kept, variables=keep, name=name or seq.name)


def reference_adjacency(seq):
    """``(adjacency, self_transitions)`` from one scan over ``S``."""
    adj = {v: {} for v in seq.variables}
    self_transitions = 0
    accesses = seq.accesses
    for u, v in zip(accesses, accesses[1:]):
        if u == v:
            self_transitions += 1
            continue
        adj[u][v] = adj[u].get(v, 0) + 1
        adj[v][u] = adj[v].get(u, 0) + 1
    return adj, self_transitions


class ReferenceGraph(AccessGraph):
    """An :class:`AccessGraph` whose adjacency comes from the scalar scan."""

    def __init__(self, sequence):
        self._seq = sequence
        self._adj, self._self_transitions = reference_adjacency(sequence)


@st.composite
def sequences_with_subset(draw, min_size=1):
    seq = draw(access_sequences())
    subset = draw(
        st.lists(
            st.sampled_from(seq.variables), min_size=min_size, unique=True
        )
    )
    return seq, subset


#: Edge cases pinned explicitly: empty, one access, unaccessed variables.
_EMPTY = AccessSequence([], variables=["v0", "v1"])
_ONE = AccessSequence(["v1"], variables=["v0", "v1", "v2"])
_GAPPY = AccessSequence(list("caac"), variables=list("abcd"))


def _same_sequence(got, want):
    assert got.variables == want.variables
    assert got.codes.dtype == want.codes.dtype == np.int64
    assert np.array_equal(got.codes, want.codes)
    assert not got.codes.flags.writeable
    assert got.name == want.name
    assert np.array_equal(got.frequencies, want.frequencies)
    for v in got.variables:
        assert got.index_of(v) == want.index_of(v)


@given(case=sequences_with_subset(), name=st.sampled_from(["", "local"]))
@settings(max_examples=200, deadline=None)
@example(case=(_EMPTY, ["v1"]), name="")
@example(case=(_ONE, ["v2", "v1"]), name="")
@example(case=(_GAPPY, ["d", "b"]), name="local")
@example(case=(_GAPPY, ["d", "c", "b", "a"]), name="")
def test_restricted_to_matches_reference(case, name):
    seq, subset = case
    seq = seq.with_name("parent")
    _same_sequence(
        seq.restricted_to(subset, name=name),
        reference_restricted(seq, subset, name=name),
    )


@given(case=sequences_with_subset(min_size=0), bad=st.sampled_from(["zz", "v99"]))
@settings(max_examples=50, deadline=None)
def test_restricted_to_unknown_variable_raises_like_reference(case, bad):
    seq, subset = case
    subset = subset + [bad]
    with pytest.raises(TraceError) as want:
        reference_restricted(seq, subset)
    with pytest.raises(TraceError) as got:
        seq.restricted_to(subset)
    assert str(got.value) == str(want.value)


@given(seq=access_sequences())
@settings(max_examples=20, deadline=None)
def test_restricted_to_empty_subset_raises_like_reference(seq):
    with pytest.raises(TraceError) as want:
        reference_restricted(seq, [])
    with pytest.raises(TraceError) as got:
        seq.restricted_to([])
    assert str(got.value) == str(want.value)


@given(seq=access_sequences(max_length=80))
@settings(max_examples=200, deadline=None)
@example(seq=_EMPTY)
@example(seq=_ONE)
@example(seq=_GAPPY)
def test_access_graph_matches_reference_including_order(seq):
    graph = AccessGraph(seq)
    adj, self_transitions = reference_adjacency(seq)
    assert graph.self_transitions == self_transitions
    for v in seq.variables:
        got = graph.neighbors(v)
        assert list(got.items()) == list(adj[v].items())
        assert all(type(w) is int for w in got.values())
    assert list(graph.edges()) == list(ReferenceGraph(seq).edges())


@given(case=sequences_with_subset(), ports=st.sampled_from([1, 2]))
@settings(max_examples=100, deadline=None)
@example(case=(_GAPPY, ["d", "a", "b"]), ports=1)
def test_intra_orders_match_reference_graph(case, ports):
    seq, subset = case

    def orders():
        return (
            shifts_reduce_order(seq, subset),
            chen_order(seq, subset),
            ofu_order(seq, subset),
            tsp_order(seq, subset, ports=ports),
        )

    with ExitStack() as stack:
        # Route every graph and local view to the scalar references.
        for mod in ("shifts_reduce", "chen", "tsp"):
            stack.enter_context(mock.patch(
                f"repro.core.intra.{mod}.AccessGraph", ReferenceGraph
            ))
        stack.enter_context(mock.patch.object(
            AccessSequence, "restricted_to", reference_restricted
        ))
        want = orders()
    assert orders() == want
