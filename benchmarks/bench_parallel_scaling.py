#!/usr/bin/env python
"""Benchmark: matrix-runner scaling with pool workers and shared traces.

The zero-copy shared-trace arena (``SharedTraceArena``) exists so that
``--workers N`` scales wall time without multiplying memory: workers
attach read-only shared-memory views of the compiled traces instead of
each receiving a pickled copy of the suite. This bench makes both
claims observable on a large external workload:

* **scaling** — one (program x config x policy) matrix over a ~1M-access
  ``file:`` workload at ``--workers 1`` vs ``--workers 4`` (shared
  traces on). Gated: workers=4 must be ``--min-speedup`` (default 2.5x)
  faster than workers=1. The gate needs real parallelism, so it arms
  only when the machine has at least as many cores as workers; below
  that the row is recorded with ``gated: false`` and the reason.
* **bit-identity** — the workers=4 matrix with the arena on vs off must
  produce identical cells (always enforced; the arena only changes
  where bytes live, never any number).
* **hygiene** — no shared-memory segments may survive a normal matrix
  exit *or* an injected worker crash (always enforced; the arena's
  lifecycle is parent-owned with an ``atexit`` guard).

Peak resident memory (parent + every pool worker, summed) is sampled
``psutil``-free from ``/proc`` for each run and recorded in the JSON so
the zero-copy claim is a number, not an assertion.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py \
        --accesses 2000000 --out results/BENCH_parallel.json
"""

from __future__ import annotations

import argparse
import glob
import json
import multiprocessing
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _bench_utils import RssSampler  # noqa: E402

from repro.engine.compile import SharedTraceArena  # noqa: E402
from repro.eval.profiles import QUICK_PROFILE  # noqa: E402
from repro.eval.runner import clear_cell_cache, run_matrix  # noqa: E402
from repro.rtm.geometry import RTMConfig  # noqa: E402
from repro.workloads import WorkloadContext, resolve_workloads  # noqa: E402

#: Deterministic heuristic policies of comparable per-cell cost: the
#: pool's load stays balanced, so the speedup gate measures the runner,
#: not scheduling luck.
POLICIES = ("AFD", "AFD-SR", "DMA", "DMA-SR")


def shm_segments() -> set[str]:
    """Names currently present under /dev/shm (empty off-Linux)."""
    return set(glob.glob("/dev/shm/*"))


def write_address_trace(path: Path, accesses: int, seed: int) -> None:
    """A deterministic gem5-style raw address trace with a hot working set."""
    rng = np.random.default_rng(seed)
    words = 96
    ranks = np.arange(1, words + 1, dtype=np.float64)
    probs = 1.0 / ranks**1.1
    probs /= probs.sum()
    idx = rng.choice(words, size=accesses, p=probs)
    addrs = 0x1000 + 8 * idx
    with path.open("w", encoding="utf-8") as fh:
        fh.write("\n".join(f"0x{a:x}" for a in addrs))
        fh.write("\n")


def resolve_program(trace_file: Path):
    """Resolve the trace file through the registry, exactly as users do."""
    spec = f"file:{trace_file},word=8,max_vars=64,min_count=2"
    ctx = WorkloadContext.from_profile(QUICK_PROFILE)
    return resolve_workloads((spec,), ctx)


def timed_matrix(programs, configs, workers: int, shared: bool):
    """One cold matrix run; returns (results, wall_s, peak_rss_mib).

    ``run_matrix`` keys its cells by DBC count, so configs that differ
    only in port count get one call each; the merged results are keyed
    by ``(benchmark, policy, dbcs, ports)``.
    """
    clear_cell_cache()
    results = {}
    with RssSampler() as mem:
        start = time.perf_counter()
        for config in configs:
            cells = run_matrix(
                POLICIES, QUICK_PROFILE, configs=[config], programs=programs,
                workers=workers, use_cache=False, shared_traces=shared,
            )
            for (name, policy, dbcs), cell in cells.items():
                results[name, policy, dbcs, config.ports_per_track] = cell
        wall = time.perf_counter() - start
    return results, wall, mem.peak_mib


def identical(a, b) -> bool:
    return set(a) == set(b) and all(
        a[k].shifts == b[k].shifts and a[k].report == b[k].report for k in a
    )


def _attach_and_die(spec) -> None:  # pragma: no cover - child process body
    SharedTraceArena.attach(spec)
    os._exit(1)  # simulated crash: no cleanup, no atexit


def crash_leak_check(programs) -> bool:
    """Inject a worker crash mid-attachment; the segment must still die.

    A child attaches to a live arena and exits hard (``os._exit``) —
    the moral equivalent of a pool worker being OOM-killed. Ownership
    stays with the parent, so dispose() must still remove the segment.
    """
    before = shm_segments()
    arena = SharedTraceArena.create(programs)
    try:
        ctx = multiprocessing.get_context()
        proc = ctx.Process(target=_attach_and_die, args=(arena.spec,))
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == 1
    finally:
        arena.dispose()
    return shm_segments() == before


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accesses", type=int, default=1_200_000,
                        help="length of the generated raw address trace "
                             "(cold-word filtering trims a few percent; the "
                             "default keeps the resolved workload over 1M)")
    parser.add_argument("--workers", type=int, nargs=2, default=[1, 4],
                        metavar=("LOW", "HIGH"),
                        help="the two worker counts to compare")
    parser.add_argument("--min-speedup", type=float, default=2.5,
                        help="gate: HIGH-workers speedup over LOW "
                             "(0 disables; auto-skipped below HIGH cores)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_parallel.json")
    args = parser.parse_args(argv)

    low, high = args.workers
    configs = [
        RTMConfig(dbcs=16, tracks_per_dbc=1, domains_per_track=64,
                  ports_per_track=2),
        RTMConfig(dbcs=16, tracks_per_dbc=1, domains_per_track=64,
                  ports_per_track=4),
    ]

    baseline_segments = shm_segments()
    with tempfile.TemporaryDirectory(prefix="bench_parallel_") as tmp:
        trace_file = Path(tmp) / "addresses.trc"
        write_address_trace(trace_file, args.accesses, args.seed)
        programs = resolve_program(trace_file)
        accesses = sum(len(t) for p in programs for t in p.traces)
        print(f"workload: {accesses:,} accesses")

        r_low, t_low, rss_low = timed_matrix(programs, configs, low, True)
        cells = len(r_low)
        print(f"{cells} matrix cells")
        print(f"workers={low} shared: {t_low:.2f}s, peak {rss_low:.0f} MiB")
        r_high, t_high, rss_high = timed_matrix(programs, configs, high, True)
        print(f"workers={high} shared: {t_high:.2f}s, peak {rss_high:.0f} MiB")
        r_off, t_off, rss_off = timed_matrix(programs, configs, high, False)
        print(f"workers={high} pickled: {t_off:.2f}s, peak {rss_off:.0f} MiB")

        bit_identical = identical(r_low, r_high) and identical(r_high, r_off)
        no_leak = shm_segments() == baseline_segments
        crash_ok = crash_leak_check(programs)

    speedup = t_low / t_high
    cores = os.cpu_count() or 1
    gate_armed = bool(args.min_speedup) and cores >= high
    gate_reason = (
        "armed" if gate_armed else
        f"skipped: {cores} core(s) < {high} workers"
        if args.min_speedup else "disabled"
    )
    rows = [
        {"mode": "matrix", "workers": low, "shared_traces": True,
         "wall_s": t_low, "peak_rss_mib": rss_low},
        {"mode": "matrix", "workers": high, "shared_traces": True,
         "wall_s": t_high, "peak_rss_mib": rss_high,
         "speedup_vs_serial": speedup, "gated": gate_armed,
         "gate_reason": gate_reason},
        {"mode": "matrix", "workers": high, "shared_traces": False,
         "wall_s": t_off, "peak_rss_mib": rss_off},
    ]
    payload = {
        "benchmark": "parallel_scaling",
        "generated_accesses": args.accesses,
        "accesses": accesses,
        "cells": cells,
        "policies": list(POLICIES),
        "cores": cores,
        "results": rows,
        "checks": {
            "bit_identical_shm_on_off": bit_identical,
            "no_leaked_segments": no_leak,
            "no_leak_after_worker_crash": crash_ok,
        },
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")

    failures = []
    if not bit_identical:
        failures.append("shm-on vs shm-off results differ")
    if not no_leak:
        failures.append("shared-memory segments leaked after matrix exit")
    if not crash_ok:
        failures.append("shared-memory segment leaked after worker crash")
    if gate_armed and speedup < args.min_speedup:
        failures.append(
            f"workers={high} speedup {speedup:.2f}x < {args.min_speedup}x"
        )
    if failures:
        print(f"FAIL: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"speedup {speedup:.2f}x ({gate_reason}); all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
