"""Tests of the benchmark's own code: spans, metric names, output checks."""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import checks, tracing  # noqa: E402
from perfbench.run import END_TO_END_UNITS, cells_per_kprobe  # noqa: E402
from perfbench.spans import (  # noqa: E402
    Recorder,
    Span,
    layer_self_times,
    outermost,
    self_times,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _tree() -> list[Span]:
    #  root [0, 10]
    #  +- core.place [1, 6]
    #  |  +- engine.evaluate_batch [2, 4]
    #  +- store.put_cell [7, 9]
    return [
        Span("pass0", "root", 0.0, 10.0, None, "pass0"),
        Span("core.place", "core", 1.0, 6.0, 0, "pass0"),
        Span("engine.evaluate_batch", "engine", 2.0, 4.0, 1, "pass0"),
        Span("store.put_cell", "store", 7.0, 9.0, 0, "pass0"),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_tree()) == [3.0, 3.0, 2.0, 2.0]


def test_layer_self_times_partition_the_root():
    layers = layer_self_times(_tree())
    assert layers == {"root": 3.0, "core": 3.0, "engine": 2.0, "store": 2.0}
    assert sum(layers.values()) == 10.0


def test_outermost_counts_nested_same_layer_spans_once():
    spans = [
        Span("pass0", "root", 0.0, 5.0, None, "pass0"),
        Span("workloads.resolve_all", "workloads", 1.0, 4.0, 0, "pass0"),
        Span("workloads.resolve", "workloads", 1.5, 3.0, 1, "pass0"),
    ]
    assert [s.name for s in outermost(spans, "workloads")] == [
        "workloads.resolve_all"]


def test_recorder_nests_and_ignores_calls_outside_a_root():
    rec = Recorder()
    with rec.span("core.place", "core"):
        pass
    assert rec.spans == []
    with rec.root("pass0") as root:
        with rec.span("core.place", "core", policy="GA") as attrs:
            with rec.span("engine.evaluate_batch", "engine"):
                pass
            attrs["extra"] = 1
    assert [s.parent for s in rec.spans] == [None, 0, 1]
    assert rec.spans[1].attrs == {"policy": "GA", "extra": 1}
    assert {s.run for s in rec.spans} == {"pass0"}
    assert tracing.self_time_residual(rec.spans) < 1e-9
    assert root.duration >= rec.spans[1].duration


def test_layer_metrics_are_per_pass_means():
    spans = _tree()
    spans[1].attrs["policy"] = "GA"
    spans[2].attrs["candidates"] = 24
    m = tracing.layer_metrics(spans, passes=2)
    assert m["core.place_s.GA"] == 2.5
    assert m["core.place_self_s.GA"] == 1.5
    assert m["core.place_calls.GA"] == 0.5
    assert m["engine.candidates_per_s"] == 12.0
    assert m["store.put_cell_s"] == 1.0
    assert m["root.s"] == 5.0
    layers = sum(m[f"layer.{name}.self_s"] for name in tracing.LAYERS)
    assert layers + m["root.self_s"] == m["root.s"]
    assert set(m) | {"trace.overhead_x"} == set(tracing.per_layer_units())


def test_cells_per_kprobe_divides_median_rep_by_mean_probe():
    from perfbench.workloads import Steps

    def rep(seconds, rates):
        steps = Steps(probe=False)
        steps.seconds, steps.probe_rates = dict(seconds), list(rates)
        return {"steps": steps}

    # Reps of 8 cells in 4, 2 and 1 s of steps: 4 cells/s is the median.
    # The probes ran at 3000 iterations/s on average.
    reps = [rep({"a": 3.0, "b": 1.0}, [2000.0, 4000.0]),
            rep({"a": 1.5, "b": 0.5}, [3000.0]),
            rep({"a": 0.5, "b": 0.5}, [2500.0, 3500.0])]
    assert cells_per_kprobe(reps, 8) == pytest.approx(4.0 / 3.0)
    # A host twice as slow halves both the steps' speed and the probe's.
    slow = [rep({n: 2 * t for n, t in r["steps"].seconds.items()},
                [x / 2 for x in r["steps"].probe_rates]) for r in reps]
    assert cells_per_kprobe(slow, 8) == pytest.approx(4.0 / 3.0)


def test_metric_names_and_units_are_well_formed():
    names = list(END_TO_END_UNITS) + list(tracing.per_layer_units())
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in (*END_TO_END_UNITS.values(),
                 *tracing.per_layer_units().values()):
        assert UNIT.match(unit), unit


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == END_TO_END_UNITS
    assert layers == tracing.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == [
        "paper-matrix", "long-trace", "queue-drain"]


# -- output checks ----------------------------------------------------------


@pytest.fixture(scope="module")
def cells():
    from repro.core.policies import get_policy
    from repro.eval.runner import run_policy_on_program
    from repro.rtm.geometry import iso_capacity_sweep
    from repro.workloads import WorkloadContext, resolve_workload

    from perfbench.workloads import Cell

    program = resolve_workload("offsetstone:adpcm",
                               WorkloadContext(scale=0.05, seed=3))
    config = iso_capacity_sweep(dbc_counts=(4,), ports_per_track=2)[0]
    return [
        Cell("adpcm", name, config,
             run_policy_on_program(program, get_policy(name), config),
             program)
        for name in ("AFD-OFU", "DMA-SR")
    ]


def _perturbed(cell, **report_changes):
    result = cell.result
    if "shifts" in report_changes:
        result = dataclasses.replace(result, shifts=report_changes.pop("shifts"))
    if report_changes:
        result = dataclasses.replace(
            result, report=dataclasses.replace(result.report, **report_changes))
    return dataclasses.replace(cell, result=result)


def test_digest_ignores_order_and_flags_a_perturbed_cell(cells):
    base = checks.digest(cells)
    assert checks.digest(list(reversed(cells))) == base
    bumped = [cells[0], _perturbed(cells[1], shifts=cells[1].result.shifts + 1)]
    assert checks.digest(bumped) != base
    slower = [cells[0], _perturbed(
        cells[1], runtime_ns=cells[1].result.report.runtime_ns * (1 + 1e-12))]
    assert checks.digest(slower) != base


def test_reference_oracle_passes_real_cells_and_flags_a_mismatch(cells):
    assert checks.oracle_mismatches(cells, checks.reference_recompute) == []
    wrong = _perturbed(cells[1], shifts=cells[1].result.shifts + 1,
                       scrub_shifts=7)
    found = checks.oracle_mismatches([cells[0], wrong],
                                     checks.reference_recompute)
    assert len(found) == 1
    assert found[0][0] is wrong
    assert found[0][1] == ["shifts", "report.scrub_shifts"]


def test_oracle_sample_skips_stochastic_policies(cells):
    ga = dataclasses.replace(cells[0], policy="GA")
    assert checks.oracle_sample([ga, *cells], 5, seed=1) == sorted(
        cells, key=lambda c: json.dumps(checks.cell_record(c), sort_keys=True))


def test_simulated_metrics_and_sr_check(cells):
    m = checks.simulated_metrics(cells)
    afd, sr = (c.result for c in cells)
    assert m["sr_vs_afd_shifts_x"] == pytest.approx(
        (afd.shifts + 1) / (sr.shifts + 1))
    assert m["sr_runtime_x"] == pytest.approx(afd.runtime_ns / sr.runtime_ns)
    assert m["sr_energy_x"] == pytest.approx(
        afd.total_energy_pj / sr.total_energy_pj)
    assert m["ga_vs_rw_shifts_x"] == 1.0
    assert checks.sr_not_worse(cells) == (sr.shifts <= afd.shifts)
