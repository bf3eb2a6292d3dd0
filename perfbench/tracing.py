"""Patch table and per-layer metrics of the traced run.

Each traced function is replaced where its caller looks it up (the
module attribute or class method the caller resolves at call time), by
a wrapper that opens a span around the original call. Program code is
not edited; :func:`installed` restores every original on exit.

Layers are the ``repro`` packages; a span's layer is the first part of
its name.
"""

from __future__ import annotations

import functools
import statistics
from contextlib import contextmanager

from .spans import ROOT, Recorder, Span, ancestor, layer_self_times, outermost, self_times

LAYERS = ("workloads", "core", "engine", "rtm", "eval", "store")

#: The paper's six policies (``repro.core.policies.PAPER_POLICIES``).
POLICIES = ("AFD-OFU", "DMA-OFU", "DMA-Chen", "DMA-SR", "GA", "RW")

#: Replay classes reported separately: clean replay per port count, and
#: any replay with a fault model attached.
REPLAY_CLASSES = ("ports1", "ports4", "ports8", "faulted")

_STORE_METHODS = ("__init__", "close", "get_cell", "put_cell", "begin_run",
                  "finish_run")
_QUEUE_METHODS = ("submit", "claim", "complete", "fail", "pending",
                  "done_among")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "workloads.resolve_s": "s",
        "workloads.accesses": "count",
        "workloads.ingest_accesses_per_s": "1/s",
    }
    for p in POLICIES:
        units[f"core.place_s.{p}"] = "s"
    for p in POLICIES:
        units[f"core.place_calls.{p}"] = "count"
    units.update({
        "core.place_self_s.RW": "s",
        "core.place_self_s.GA": "s",
        "core.encode_s": "s",
        "core.encode_calls": "count",
        "core.shift_cost_s": "s",
        "engine.evaluate_batch_s": "s",
        "engine.evaluate_batch_calls": "count",
        "engine.candidates": "count",
        "engine.candidates_per_s": "1/s",
        "engine.replay_s": "s",
        "engine.replay_calls": "count",
    })
    for c in REPLAY_CLASSES:
        units[f"rtm.replay_s.{c}"] = "s"
    units.update({
        "rtm.replayed_accesses": "count",
        "rtm.replay_accesses_per_s": "1/s",
        "eval.cells": "count",
        "eval.cell_p50_ms": "ms",
        "eval.cell_p90_ms": "ms",
        "eval.runner_self_s": "s",
        "eval.compute_job_self_s": "s",
        "eval.worker_self_s": "s",
        "store.put_cell_s": "s",
        "store.put_cells": "count",
        "store.get_cell_s": "s",
        "store.get_cells": "count",
        "store.hit_ratio": "ratio",
        "store.queue.submit_s": "s",
        "store.queue.claim_s": "s",
        "store.queue.claims": "count",
        "store.queue.claimed_cells": "count",
        "store.queue.empty_claim_ratio": "ratio",
        "store.queue.complete_s": "s",
        "store.queue.failed": "count",
    })
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units.update({
        "root.self_s": "s",
        "root.s": "s",
        "trace.overhead_x": "x",
    })
    return units


# -- probes: counts taken at the span boundary ---------------------------------


def _policy(args, kwargs, result) -> dict:
    return {"policy": args[0].name}


def _program(args, kwargs, result) -> dict:
    return {"accesses": result.total_accesses}


def _programs(args, kwargs, result) -> dict:
    return {"accesses": sum(p.total_accesses for p in result)}


def _candidates(args, kwargs, result) -> dict:
    dbc_of = args[1] if len(args) > 1 else kwargs["dbc_of"]
    return {"candidates": int(dbc_of.shape[0]) if dbc_of.ndim == 2 else 1}


def _replay_class(ports: int, fault) -> str:
    return "faulted" if fault is not None else f"ports{ports}"


def _simulate(args, kwargs, result) -> dict:
    trace = args[0]
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"accesses": len(trace),
            "replay": _replay_class(config.ports_per_track,
                                    kwargs.get("fault"))}


def _execute_stream(args, kwargs, result) -> dict:
    controller, trace = args[0], args[1]
    return {"accesses": len(trace),
            "replay": _replay_class(controller.config.ports_per_track,
                                    controller.fault)}


def _get_cell(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _claim(args, kwargs, result) -> dict:
    return {"claimed": len(result)}


def _targets() -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, span name, probe)`` for every traced call."""
    import repro.workloads as workloads
    from repro.core import ga, random_walk
    from repro.core.policies import Policy
    from repro.engine.cursor import ShiftCursor
    from repro.engine.numpy_backend import NumpyBackend
    from repro.engine.reference import ReferenceBackend
    from repro.eval import runner, service
    from repro.rtm.controller import RTMController
    from repro.store import ExperimentStore
    from repro.store.queue import WorkQueue

    targets = [
        (workloads, "resolve_workload", "workloads.resolve", _program),
        (workloads, "resolve_workloads", "workloads.resolve_all", _programs),
        (Policy, "place", "core.place", _policy),
        (random_walk, "stack_placement_lists", "core.encode", None),
        (ga, "stack_candidate_arrays", "core.encode", None),
        (random_walk, "evaluate_batch", "engine.evaluate_batch", _candidates),
        (ga, "evaluate_batch", "engine.evaluate_batch", _candidates),
        (NumpyBackend, "run", "engine.replay", None),
        (ReferenceBackend, "run", "engine.replay", None),
        (ShiftCursor, "replay_chunk", "engine.replay", None),
        (runner, "shift_cost", "core.shift_cost", None),
        (runner, "simulate", "rtm.replay", _simulate),
        (RTMController, "execute_stream", "rtm.replay", _execute_stream),
        (runner, "run_policy_on_program", "eval.cell", None),
        (service, "run_policy_on_program", "eval.cell", None),
        (service, "compute_job", "eval.compute_job", None),
    ]
    probes = {"get_cell": _get_cell, "claim": _claim}
    targets += [(ExperimentStore, m, f"store.{m}", probes.get(m))
                for m in _STORE_METHODS]
    targets += [(WorkQueue, m, f"store.queue.{m}", probes.get(m))
                for m in _QUEUE_METHODS]
    return targets


def _wrap(fn, recorder: Recorder, name: str, probe):
    layer = name.split(".", 1)[0]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.active():
            return fn(*args, **kwargs)
        with recorder.span(name, layer) as attrs:
            result = fn(*args, **kwargs)
            if probe is not None:
                attrs.update(probe(args, kwargs, result))
            return result

    return traced


@contextmanager
def installed(recorder: Recorder):
    """Patch every traced call for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, probe in _targets():
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, recorder, name, probe))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics -----------------------------------------------------------


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (0 for no values, the value for one)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


#: Spans reported by duration, and spans reported by self time, under
#: their own names.
_TIMED = ("core.encode", "core.shift_cost", "store.put_cell",
          "store.queue.submit", "store.queue.complete", "store.queue.fail")
_SELF_TIMED = ("eval.compute_job", "eval.worker_loop")


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer metrics of ``passes`` traced passes, as per-pass means.

    Times and counts are averaged per pass; rates, ratios and cell-time
    percentiles are taken over every pass together.
    """
    selfs = self_times(spans)
    total: dict[str, float] = {}
    count: dict[str, int] = {}

    def add(key: str, seconds: float = 0.0, n: int = 1) -> None:
        total[key] = total.get(key, 0.0) + seconds
        count[key] = count.get(key, 0) + n

    cell_ms = []
    hits = reads = claims_empty = 0
    for s, self_s in zip(spans, selfs):
        a = s.attrs
        if s.name == "core.place":
            add(f"place.{a['policy']}", s.duration)
            add(f"place_self.{a['policy']}", self_s)
        elif s.name == "engine.evaluate_batch":
            add("evaluate_batch", s.duration)
            add("candidates", n=a["candidates"])
        elif s.name == "engine.replay":
            add("engine_replay", self_s)
        elif s.name == "rtm.replay":
            add(f"replay.{a['replay']}", s.duration)
            add("replay", s.duration, a["accesses"])
        elif s.name == "eval.cell":
            cell_ms.append(1e3 * s.duration)
            add("runner_self", self_s)
        elif s.name == "eval.run_matrix":
            add("runner_self", self_s)
        elif s.name == "store.get_cell":
            add("get_cell", s.duration)
            regen = ancestor(spans, s, "eval.run_matrix")
            if regen is not None and regen.attrs.get("mode") == "offline":
                reads += 1
                hits += a["hit"]
        elif s.name == "store.queue.claim":
            add("claim", s.duration)
            add("claimed", n=a["claimed"])
            claims_empty += a["claimed"] == 0
        elif s.name in _TIMED:
            add(s.name, s.duration)
        elif s.name in _SELF_TIMED:
            add(s.name, self_s)

    def t(key: str) -> float:
        return total.get(key, 0.0) / passes

    def c(key: str) -> float:
        return count.get(key, 0) / passes

    def rate(n: float, seconds: float) -> float:
        return n / seconds if seconds > 0 else 0.0

    resolves = outermost(spans, "workloads")
    resolve_s = sum(s.duration for s in resolves) / passes
    accesses = sum(s.attrs["accesses"] for s in resolves) / passes
    m = {
        "workloads.resolve_s": resolve_s,
        "workloads.accesses": accesses,
        "workloads.ingest_accesses_per_s": rate(accesses, resolve_s),
    }
    for p in POLICIES:
        m[f"core.place_s.{p}"] = t(f"place.{p}")
    for p in POLICIES:
        m[f"core.place_calls.{p}"] = c(f"place.{p}")
    m["core.place_self_s.RW"] = t("place_self.RW")
    m["core.place_self_s.GA"] = t("place_self.GA")
    m["core.encode_s"] = t("core.encode")
    m["core.encode_calls"] = c("core.encode")
    m["core.shift_cost_s"] = t("core.shift_cost")
    m["engine.evaluate_batch_s"] = t("evaluate_batch")
    m["engine.evaluate_batch_calls"] = c("evaluate_batch")
    m["engine.candidates"] = c("candidates")
    m["engine.candidates_per_s"] = rate(count.get("candidates", 0),
                                        total.get("evaluate_batch", 0.0))
    m["engine.replay_s"] = t("engine_replay")
    m["engine.replay_calls"] = c("engine_replay")
    for cls in REPLAY_CLASSES:
        m[f"rtm.replay_s.{cls}"] = t(f"replay.{cls}")
    m["rtm.replayed_accesses"] = c("replay")
    m["rtm.replay_accesses_per_s"] = rate(count.get("replay", 0),
                                          total.get("replay", 0.0))
    m["eval.cells"] = len(cell_ms) / passes
    m["eval.cell_p50_ms"] = _quantile(cell_ms, 50)
    m["eval.cell_p90_ms"] = _quantile(cell_ms, 90)
    m["eval.runner_self_s"] = t("runner_self")
    m["eval.compute_job_self_s"] = t("eval.compute_job")
    m["eval.worker_self_s"] = t("eval.worker_loop")
    m["store.put_cell_s"] = t("store.put_cell")
    m["store.put_cells"] = c("store.put_cell")
    m["store.get_cell_s"] = t("get_cell")
    m["store.get_cells"] = c("get_cell")
    m["store.hit_ratio"] = hits / reads if reads else 0.0
    m["store.queue.submit_s"] = t("store.queue.submit")
    m["store.queue.claim_s"] = t("claim")
    m["store.queue.claims"] = c("claim")
    m["store.queue.claimed_cells"] = c("claimed")
    claims = count.get("claim", 0)
    m["store.queue.empty_claim_ratio"] = claims_empty / claims if claims else 0.0
    m["store.queue.complete_s"] = t("store.queue.complete")
    m["store.queue.failed"] = c("store.queue.fail")
    layers = layer_self_times(spans)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layers.get(layer, 0.0) / passes
    m["root.self_s"] = layers.get(ROOT, 0.0) / passes
    m["root.s"] = sum(s.duration for s in spans if s.layer == ROOT) / passes
    return m


def self_time_residual(spans: list[Span]) -> float:
    """|sum of all self times - sum of root durations|, in seconds.

    Zero up to rounding when every span closed inside its parent, which
    is what makes the layer self times a partition of the root span.
    """
    roots = sum(s.duration for s in spans if s.layer == ROOT)
    return abs(sum(layer_self_times(spans).values()) - roots)
