"""Unit tests for the engine API surface: registry, requests, caches."""

import numpy as np
import pytest

from repro.core.cost import cost_from_arrays
from repro.core.placement import Placement
from repro.engine import (
    ShiftRequest,
    available_backends,
    clear_compile_caches,
    compile_access_arrays,
    describe_backends,
    get_backend,
    single_port_warm_total,
    trace_fingerprint,
)
from repro.errors import SimulationError
from repro.trace.sequence import AccessSequence
from repro.trace.trace import MemoryTrace


class TestBackendRegistry:
    def test_both_backends_registered(self):
        assert available_backends() == ("numpy", "reference")

    def test_lookup_by_name(self):
        assert get_backend("numpy").name == "numpy"
        assert get_backend("reference").name == "reference"

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert get_backend(None).name == "numpy"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        assert get_backend(None).name == "reference"

    @pytest.mark.parametrize("raw", [" Reference ", "REFERENCE"])
    def test_env_override_normalized(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BACKEND", raw)
        assert get_backend(None).name == "reference"

    def test_blank_env_is_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "  ")
        assert get_backend(None).name == "numpy"

    @pytest.mark.parametrize("name", ["auto", "numba"])
    def test_retired_names_rejected(self, monkeypatch, name):
        with pytest.raises(SimulationError, match="numpy, reference"):
            get_backend(name)
        monkeypatch.setenv("REPRO_BACKEND", name)
        with pytest.raises(SimulationError, match="numpy, reference"):
            get_backend(None)

    def test_describe_lists_registered_backends(self):
        assert [name for name, _ in describe_backends()] == [
            "numpy", "reference"]

    def test_instance_passthrough(self):
        backend = get_backend("reference")
        assert get_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(SimulationError, match="unknown engine backend"):
            get_backend("cuda")

    def test_non_backend_rejected(self):
        with pytest.raises(SimulationError):
            get_backend(42)

    def test_non_callable_run_rejected(self):
        class Impostor:
            run = "not callable"

        with pytest.raises(SimulationError, match="non-callable"):
            get_backend(Impostor())


class TestShiftRequestValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SimulationError):
            ShiftRequest(dbc=np.array([0, 1]), slot=np.array([0]),
                         num_dbcs=2, domains=8)

    def test_dbc_out_of_range_rejected(self):
        with pytest.raises(SimulationError):
            ShiftRequest(dbc=np.array([2]), slot=np.array([0]),
                         num_dbcs=2, domains=8)

    @pytest.mark.parametrize("backend_name", ["numpy", "reference"])
    def test_slot_outside_track_rejected(self, backend_name):
        request = ShiftRequest(dbc=np.array([0]), slot=np.array([8]),
                               num_dbcs=1, domains=8)
        with pytest.raises(SimulationError, match="outside track"):
            get_backend(backend_name).run(request)

    def test_bad_init_offsets_rejected(self):
        request = ShiftRequest(dbc=np.array([0]), slot=np.array([0]),
                               num_dbcs=1, domains=8,
                               init_offsets=np.array([8]))
        with pytest.raises(SimulationError, match="envelope"):
            get_backend("numpy").run(request)

    def test_init_shape_mismatch_rejected(self):
        request = ShiftRequest(dbc=np.array([0]), slot=np.array([0]),
                               num_dbcs=2, domains=8,
                               init_offsets=np.array([0]))
        with pytest.raises(SimulationError, match="shape"):
            get_backend("numpy").run(request)


class TestCompileCache:
    def test_arrays_are_cached_and_frozen(self):
        seq = AccessSequence(list("abcab"))
        placement = Placement([("a", "b"), ("c",)])
        first = compile_access_arrays(seq, placement)
        second = compile_access_arrays(seq, placement)
        assert first[0] is second[0] and first[1] is second[1]
        assert not first[0].flags.writeable
        assert first[0].tolist() == [0, 0, 1, 0, 0]
        assert first[1].tolist() == [0, 1, 0, 0, 1]

    def test_equal_inputs_share_entries(self):
        # lru_cache keys on equality, so freshly built equal objects hit.
        hits_before = compile_access_arrays.cache_info().hits
        for _ in range(2):
            seq = AccessSequence(list("xyx"))
            placement = Placement([("x", "y")])
            compile_access_arrays(seq, placement)
        assert compile_access_arrays.cache_info().hits > hits_before

    def test_clear_compile_caches(self):
        seq = AccessSequence(list("ab"))
        compile_access_arrays(seq, Placement([("a", "b")]))
        clear_compile_caches()
        assert compile_access_arrays.cache_info().currsize == 0


class TestTraceFingerprint:
    def test_content_identity(self):
        a = MemoryTrace(AccessSequence(list("abab"), name="one"))
        b = MemoryTrace(AccessSequence(list("abab"), name="two"))
        assert trace_fingerprint(a) == trace_fingerprint(b)  # name-free

    def test_write_mask_matters(self):
        seq = AccessSequence(list("abab"))
        default = MemoryTrace(seq)
        all_writes = MemoryTrace(seq, writes=[True] * 4)
        assert trace_fingerprint(default) != trace_fingerprint(all_writes)

    def test_access_order_matters(self):
        a = MemoryTrace(AccessSequence(list("ab"), variables=list("ab")))
        b = MemoryTrace(AccessSequence(list("ba"), variables=list("ab")))
        assert trace_fingerprint(a) != trace_fingerprint(b)


class TestWarmSinglePortKernel:
    def test_matches_cost_from_arrays(self, fig3_sequence):
        placement = Placement([("a", "g", "b", "d", "h"), ("e", "i", "c", "f")])
        dbc_of, pos_of = placement.as_arrays(fig3_sequence)
        codes = fig3_sequence.codes
        assert single_port_warm_total(dbc_of[codes], pos_of[codes]) == 39
        assert cost_from_arrays(codes, dbc_of, pos_of, 2) == 39

    def test_trivial_sizes(self):
        empty = np.array([], dtype=np.int64)
        assert single_port_warm_total(empty, empty) == 0
        one = np.array([0], dtype=np.int64)
        assert single_port_warm_total(one, np.array([5])) == 0
