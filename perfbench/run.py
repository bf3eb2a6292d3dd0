#!/usr/bin/env python3
"""End-to-end benchmark of the placement pipeline.

Runs one workload (``paper-matrix``, ``long-trace`` or ``queue-drain``,
see README.md) from the root of a source checkout, through the public
``repro`` API, serially, and prints its metrics::

    python3 perfbench/run.py --workload paper-matrix --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
throughput and set-up time are divided by the rate of a fixed host
probe run between the timed steps (:func:`cells_per_kprobe`).
``--trace 1`` alternates untraced and traced passes (set-up plus one
rep) and reports per-layer metrics from spans recorded around the calls
into each ``repro`` module, plus the tracing overhead.

Every run checks its outputs: the results digest must repeat across
reps, a seeded sample of cells must match the ``reference`` backend
field for field, summed DMA-SR shifts must not exceed AFD-OFU's, and
``queue-drain``'s offline regeneration must equal the committed cells.
The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the full record (envelope, digest,
all metrics), which is also written with the spans under
``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("paper-matrix", "long-trace", "queue-drain")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Deterministic-policy cells re-simulated on the reference backend.
ORACLE_CELLS = 6

#: What a fresh process imports before the first cell.
IMPORTS = ("repro.eval.runner", "repro.eval.service", "repro.workloads",
           "repro.store", "repro.core.policies")

END_TO_END_UNITS = {
    "cells_per_kprobe": "cells/kprobe",
    "setup_s": "s",
    "peak_mib": "MiB",
    "sr_vs_afd_shifts_x": "x",
    "sr_runtime_x": "x",
    "sr_energy_x": "x",
    "ga_vs_rw_shifts_x": "x",
}


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing :data:`IMPORTS`."""
    code = ("import time; t = time.perf_counter()\n"
            + "".join(f"import {m}\n" for m in IMPORTS)
            + "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` files; "unknown" without."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def envelope(workload: str, seed: int, runs: int, trace: bool) -> dict:
    import numpy

    return {
        "benchmark": "perfbench",
        "workload": workload,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "runs": runs,
        "trace": trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time; reps run until it is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pass(wl, recorder):
    wl.setup()
    return wl.run(recorder, probe=False)


def measure(wl, recorder, seconds: float, trace: bool):
    """Run reps until ``seconds`` are spent; returns the rep list.

    Each rep is ``{"wall", "cpu", "traced", "cells", "failures",
    "steps"}`` or, if it raised, ``{"error"}`` (and measurement stops).
    Traced mode alternates an untraced and a traced pass, each a set-up
    plus a rep without probes, so the overhead compares like with like.
    """
    from perfbench.tracing import installed

    reps = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(reps) % 2 == 1
        cpu = time.process_time()
        try:
            if traced:
                with installed(recorder), \
                        recorder.root(f"pass{len(reps)}") as root:
                    cells, failures, steps = _pass(wl, recorder)
                wall = root.duration
            else:
                start = time.perf_counter()
                cells, failures, steps = (_pass(wl, recorder) if trace
                                          else wl.run(recorder))
                wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            reps.append({"error": True})
            return reps
        reps.append({"wall": wall, "cpu": time.process_time() - cpu,
                     "traced": traced, "cells": cells, "failures": failures,
                     "steps": steps})
        if time.perf_counter() >= deadline and (not trace or traced):
            return reps


def cells_per_kprobe(reps, cells_per_rep: int) -> float:
    """Cells per thousand host-probe iterations.

    The median rep's cells per second of its steps' wall time, over the
    mean rate of the probes run between the steps of every rep: how many
    cells the program settles in the time the host takes for a thousand
    probe iterations. A slow phase of a shared host slows the steps and
    the probes alike, so the ratio follows the program's speed and much
    less the host's (see README.md).
    """
    per_s = statistics.median(cells_per_rep / sum(r["steps"].seconds.values())
                              for r in reps)
    rates = [rate for r in reps for rate in r["steps"].probe_rates]
    return per_s / statistics.fmean(rates) * 1000


def check(wl, reps, seed: int) -> tuple[int, int, list[str], str]:
    """``(attempted, failed, problems, digest)`` over every rep."""
    from perfbench import checks

    problems = []
    attempted = wl.cells_per_rep * len(reps)
    good = [r for r in reps if "error" not in r]
    failed = wl.cells_per_rep * (len(reps) - len(good))
    if len(good) < len(reps):
        problems.append("a rep raised")
    if not good:
        return attempted, failed, problems, ""
    digests = [checks.digest(r["cells"]) for r in good]
    for r, d in zip(good, digests):
        failed += r["failures"]
        if len(r["cells"]) != wl.cells_per_rep or d != digests[0]:
            failed += wl.cells_per_rep
    if len(set(digests)) > 1:
        problems.append("results digest differs between reps")
    if any(r["failures"] for r in good):
        problems.append("cells failed in the worker or went missing offline")
    cells = good[-1]["cells"]
    sample = checks.oracle_sample(cells, ORACLE_CELLS, seed)
    for cell, diffs in checks.oracle_mismatches(
            sample, checks.reference_recompute):
        failed += 1
        problems.append(f"reference backend disagrees on {cell.label}/"
                        f"{cell.policy}/{cell.config.dbcs}: {diffs}")
    if not checks.sr_not_worse(cells):
        failed += sum(c.policy == "DMA-SR" for c in cells)
        problems.append("summed DMA-SR shifts exceed AFD-OFU's")
    bad = wl.check_store(cells)
    if bad:
        failed += bad
        problems.append("offline regeneration differs from the store")
    return attempted, min(failed, attempted), problems, digests[0]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}: run from the root of "
              f"a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src"), str(ROOT / "benchmarks")]
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Streaming spills, sqlite and other temp files stay in the checkout.
    tempfile.tempdir = os.environ["TMPDIR"] = str(workdir)
    wl = None
    try:
        from perfbench.probe import REFERENCE_PER_S, host_probe

        # A probe runs before and after each part of each set-up.
        imports, setup_rates = [], [host_probe()]
        for _ in range(SETUPS):
            imports.append(import_seconds())
            setup_rates.append(host_probe())
        from _bench_utils import RssSampler

        from perfbench import checks, tracing
        from perfbench.spans import Recorder
        from perfbench.workloads import WORKLOADS

        from repro.core.policies import PAPER_POLICIES

        if tuple(PAPER_POLICIES) != tracing.POLICIES:
            raise RuntimeError(f"paper policies changed: {PAPER_POLICIES}")
        recorder = Recorder()
        with RssSampler() as mem:
            wl = WORKLOADS[args.workload](args.seed, str(workdir))
            setups = []
            for imported in imports:
                start = time.perf_counter()
                wl.setup()
                setups.append(imported + time.perf_counter() - start)
                setup_rates.append(host_probe())
            reps = measure(wl, recorder, args.seconds, bool(args.trace))
        attempted, failed, problems, digest = check(wl, reps, args.seed)
        good = [r for r in reps if "error" not in r]
        untraced = [r for r in good if not r["traced"]]
        traced = [r for r in good if r["traced"]]
        if not untraced or (args.trace and not traced):
            return 1
        simulated = checks.simulated_metrics(good[0]["cells"])
        if args.trace:
            values = tracing.layer_metrics(recorder.spans, len(traced))
            # The first pass pays the process's first-call costs; leave it
            # out of the overhead when a later untraced pass exists.
            warm = untraced[1:] or untraced
            values["trace.overhead_x"] = (
                statistics.median(r["wall"] for r in traced)
                / statistics.median(r["wall"] for r in warm))
            residual = tracing.self_time_residual(recorder.spans)
            if residual > 1e-6 * max(values["root.s"], 1.0):
                problems.append(f"layer self times miss the root by "
                                f"{residual:.3g} s")
            units = tracing.per_layer_units()
        else:
            values = {
                "cells_per_kprobe": cells_per_kprobe(untraced,
                                                     wl.cells_per_rep),
                # In seconds of a host that runs the probe at the
                # reference rate.
                "setup_s": (statistics.median(setups)
                            * statistics.fmean(setup_rates) / REFERENCE_PER_S),
                "peak_mib": mem.peak_mib,
                **simulated,
            }
            units = END_TO_END_UNITS
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        record = {
            "envelope": envelope(args.workload, args.seed, len(reps),
                                 bool(args.trace)),
            "digest": digest,
            "problems": problems,
            "rep_walls_s": [r["wall"] for r in good],
            "rep_cells_per_s": [len(r["cells"]) / r["wall"] for r in good],
            "rep_cpu_s": [r["cpu"] for r in good],
            "traced": [r["traced"] for r in good],
            "setup_wall_s": setups,
            "paper": {
                "sr_runtime_saving_pct":
                    100 * (1 - 1 / simulated["sr_runtime_x"]),
                "sr_energy_saving_pct":
                    100 * (1 - 1 / simulated["sr_energy_x"]),
            },
            "metrics": metrics,
        }
        if args.trace:
            record["self_time_residual_s"] = residual
        else:
            record["cells_per_s"] = statistics.median(record["rep_cells_per_s"])
            record["steps_s"] = [r["steps"].seconds for r in untraced]
            record["probe_per_s"] = [r["steps"].probe_rates for r in untraced]
            record["setup_probe_per_s"] = setup_rates
        correct = failed == 0 and not problems
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        for name, m in metrics.items():
            print(f"{args.workload:>12} {name:<36} {m['value']:>14.6g} "
                  f"{m['unit']}", file=sys.stderr)
        if not args.trace:
            print(f"{args.workload:>12} {'(host wall, median rep)':<36} "
                  f"{record['cells_per_s']:>14.6g} cells/s", file=sys.stderr)
        records = out_dir / "records"
        records.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        with open(records / f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({**record,
                       "spans": [dataclasses.asdict(s)
                                 for s in recorder.spans]}, fh)
        print(json.dumps(record))
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
