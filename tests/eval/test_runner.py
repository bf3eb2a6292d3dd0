"""Unit tests for the experiment matrix runner."""

import pytest

from repro.core.policies import get_policy
from repro.errors import ExperimentError
from repro.eval.profiles import EvalProfile
from repro.eval.runner import (
    build_policies,
    clear_cell_cache,
    load_suite,
    policy_specs,
    run_matrix,
    run_policy_on_program,
)
from repro.rtm.geometry import iso_capacity_sweep
from repro.trace.generators.offsetstone import load_benchmark

TINY = EvalProfile(
    name="tiny",
    suite_scale=0.12,
    ga_options={"mu": 6, "lam": 6, "generations": 3},
    rw_iterations=20,
    benchmarks=("adpcm", "dct"),
)


@pytest.fixture(scope="module")
def tiny_matrix():
    return run_matrix(("AFD-OFU", "DMA-SR"), TINY,
                      configs=iso_capacity_sweep(dbc_counts=(2, 4)))


class TestRunPolicyOnProgram:
    def test_cell_aggregates_all_traces(self):
        bench = load_benchmark("adpcm", scale=0.12, seed=TINY.seed)
        config = iso_capacity_sweep(dbc_counts=(4,))[0]
        cell = run_policy_on_program(bench, get_policy("DMA-SR"), config)
        assert cell.report.accesses == bench.total_accesses
        assert cell.benchmark == "adpcm"
        assert cell.dbcs == 4
        assert cell.policy == "DMA-SR"

    def test_analytic_equals_simulated_shifts(self):
        bench = load_benchmark("dct", scale=0.12, seed=TINY.seed)
        config = iso_capacity_sweep(dbc_counts=(4,))[0]
        cell = run_policy_on_program(bench, get_policy("AFD-OFU"), config)
        assert cell.shifts == cell.report.shifts


class TestRunMatrix:
    def test_all_cells_present(self, tiny_matrix):
        keys = set(tiny_matrix)
        assert ("adpcm", "AFD-OFU", 2) in keys
        assert ("dct", "DMA-SR", 4) in keys
        assert len(keys) == 2 * 2 * 2

    def test_cells_deterministic_across_runs(self, tiny_matrix):
        again = run_matrix(("AFD-OFU", "DMA-SR"), TINY,
                           configs=iso_capacity_sweep(dbc_counts=(2, 4)))
        for key, cell in tiny_matrix.items():
            assert again[key].shifts == cell.shifts

    def test_metrics_positive(self, tiny_matrix):
        for cell in tiny_matrix.values():
            assert cell.report.runtime_ns > 0
            assert cell.report.total_energy_pj > 0

    def test_configs_sharing_a_dbc_count_rejected(self):
        """Results are keyed by DBC count: one sweep at two port counts
        would overwrite half the cells, so it is refused before any work."""
        configs = (iso_capacity_sweep(dbc_counts=(2, 4))
                   + iso_capacity_sweep(dbc_counts=(4,), ports_per_track=4))
        with pytest.raises(ExperimentError, match="share 4 DBCs") as exc:
            run_matrix(("AFD-OFU",), TINY, configs=configs, use_cache=False)
        assert "1 port(s)/track" in str(exc.value)
        assert "4 port(s)/track" in str(exc.value)
        config = iso_capacity_sweep(dbc_counts=(2,))[0]
        with pytest.raises(ExperimentError, match="share 2 DBCs"):
            run_matrix(("AFD-OFU",), TINY, configs=[config, config],
                       use_cache=False)


class TestBuildPolicies:
    def test_profile_budgets_applied(self):
        policies = build_policies(("GA", "RW", "DMA-SR"), TINY)
        names = [p.name for p in policies]
        assert names == ["GA", "RW", "DMA-SR"]

    def test_load_suite_respects_benchmark_list(self):
        suite = load_suite(TINY)
        assert [b.name for b in suite] == ["adpcm", "dct"]

    def test_specs_are_picklable_recipes(self):
        import pickle
        specs = policy_specs(("GA", "RW", "DMA-SR"), TINY)
        assert specs == [
            ("GA", {"mu": 6, "lam": 6, "generations": 3}),
            ("RW", {"iterations": 20}),
            ("DMA-SR", {}),
        ]
        rebuilt = [get_policy(n, **kw) for n, kw in pickle.loads(
            pickle.dumps(specs))]
        assert [p.name for p in rebuilt] == ["GA", "RW", "DMA-SR"]

    def test_search_scale_grows_ga_population_and_rw_budget(self):
        from dataclasses import replace
        scaled = replace(TINY, search_scale=3.0)
        specs = dict(policy_specs(("GA", "RW", "DMA-SR"), scaled))
        assert specs["GA"]["mu"] == 18
        assert specs["GA"]["lam"] == 18
        assert specs["GA"]["generations"] == 3  # iterations not scaled
        assert specs["RW"]["iterations"] == 60
        assert specs["DMA-SR"] == {}

    def test_search_scale_uses_paper_defaults_when_unset(self):
        from dataclasses import replace
        scaled = replace(TINY, ga_options={}, search_scale=0.5)
        specs = dict(policy_specs(("GA",), scaled))
        assert specs["GA"] == {"mu": 50, "lam": 50}

    def test_default_scale_leaves_specs_untouched(self):
        # The matrix runner's cell cache keys hash the specs; scale 1.0
        # must be a no-op so existing cached cells stay valid.
        assert policy_specs(("GA", "RW"), TINY) == [
            ("GA", {"mu": 6, "lam": 6, "generations": 3}),
            ("RW", {"iterations": 20}),
        ]


class TestParallelMatrix:
    CONFIGS = iso_capacity_sweep(dbc_counts=(2, 4))
    # GA/RW exercise the per-cell RNG streams; DMA-SR the deterministic path.
    POLICIES = ("DMA-SR", "GA", "RW")

    def test_workers_do_not_change_results(self):
        serial = run_matrix(self.POLICIES, TINY, configs=self.CONFIGS,
                            workers=1, use_cache=False)
        parallel = run_matrix(self.POLICIES, TINY, configs=self.CONFIGS,
                              workers=4, use_cache=False)
        assert set(serial) == set(parallel)
        for key, cell in serial.items():
            other = parallel[key]
            assert other.shifts == cell.shifts
            assert other.report == cell.report  # bit-identical, floats too

    def test_backends_agree_through_the_matrix(self):
        ref = run_matrix(("DMA-SR",), TINY, configs=self.CONFIGS,
                         backend="reference", use_cache=False)
        vec = run_matrix(("DMA-SR",), TINY, configs=self.CONFIGS,
                         backend="numpy", use_cache=False)
        for key, cell in ref.items():
            assert vec[key].shifts == cell.shifts
            assert vec[key].report == cell.report

    def test_workers_zero_means_all_cores(self):
        cells = run_matrix(("DMA-SR",), TINY,
                           configs=iso_capacity_sweep(dbc_counts=(2,)),
                           workers=0, use_cache=False)
        assert len(cells) == 2

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            run_matrix(("DMA-SR",), TINY, configs=self.CONFIGS, workers=-1)


class TestCellCache:
    CONFIGS = iso_capacity_sweep(dbc_counts=(2,))

    def test_repeat_runs_served_from_cache(self, monkeypatch):
        clear_cell_cache()
        first = run_matrix(("DMA-SR", "GA"), TINY, configs=self.CONFIGS,
                           use_cache=True)

        def boom(*args, **kwargs):  # any recomputation is a cache miss
            raise AssertionError("cell recomputed despite cache")

        monkeypatch.setattr("repro.eval.runner.run_policy_on_program", boom)
        again = run_matrix(("DMA-SR", "GA"), TINY, configs=self.CONFIGS,
                           use_cache=True)
        assert set(again) == set(first)
        for key, cell in first.items():
            assert again[key].report == cell.report

    def test_deterministic_cells_shared_across_matrix_shapes(self, monkeypatch):
        # Policy subsets reshuffle seed streams; deterministic cells must
        # still hit (their key omits the seed), stochastic ones must not.
        clear_cell_cache()
        run_matrix(("DMA-SR", "GA"), TINY, configs=self.CONFIGS,
                   use_cache=True)
        calls = []
        import repro.eval.runner as runner_module
        real = run_policy_on_program

        def spy(program, policy, config, **kwargs):
            calls.append(policy.name)
            return real(program, policy, config, **kwargs)

        monkeypatch.setattr(runner_module, "run_policy_on_program", spy)
        run_matrix(("AFD-OFU", "DMA-SR"), TINY, configs=self.CONFIGS,
                   use_cache=True)
        assert "DMA-SR" not in calls  # reused despite the new matrix shape
        assert "AFD-OFU" in calls

    def test_cache_can_be_bypassed(self, monkeypatch):
        clear_cell_cache()
        run_matrix(("DMA-SR",), TINY, configs=self.CONFIGS, use_cache=True)
        calls = []
        import repro.eval.runner as runner_module
        real = run_policy_on_program

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_module, "run_policy_on_program", spy)
        run_matrix(("DMA-SR",), TINY, configs=self.CONFIGS, use_cache=False)
        assert calls  # recomputed


class TestFaultedMatrix:
    CONFIGS = iso_capacity_sweep(dbc_counts=(2, 4))

    def _faulted(self, **kw):
        from dataclasses import replace

        return replace(TINY, fault_rate=0.05, **kw)

    def test_workers_do_not_change_faulted_results(self):
        profile = self._faulted(scrub_interval=50)
        serial = run_matrix(("DMA-SR",), profile, configs=self.CONFIGS,
                            workers=1, use_cache=False)
        parallel = run_matrix(("DMA-SR",), profile, configs=self.CONFIGS,
                              workers=2, use_cache=False)
        assert set(serial) == set(parallel)
        for key, cell in serial.items():
            assert parallel[key].report == cell.report
        assert any(c.report.fault_injected for c in serial.values())

    def test_backends_agree_on_faulted_cells(self):
        profile = self._faulted()
        ref = run_matrix(("DMA-SR",), profile, configs=self.CONFIGS,
                         backend="reference", use_cache=False)
        vec = run_matrix(("DMA-SR",), profile, configs=self.CONFIGS,
                         backend="numpy", use_cache=False)
        for key, cell in ref.items():
            assert vec[key].report == cell.report

    def test_invalid_fault_rate_fails_pointedly(self):
        from dataclasses import replace

        with pytest.raises(ExperimentError, match="fault_rate"):
            run_matrix(("DMA-SR",), replace(TINY, fault_rate=2.0),
                       configs=self.CONFIGS, use_cache=False)

    def test_scrub_without_fault_fails_pointedly(self):
        from dataclasses import replace

        with pytest.raises(ExperimentError, match="scrub_interval"):
            run_matrix(("DMA-SR",), replace(TINY, scrub_interval=10),
                       configs=self.CONFIGS, use_cache=False)
