"""Output checks and the simulated (paper-fidelity) metrics.

* :func:`digest` — one SHA-256 over every cell's shifts and report
  fields, keyed by stable program labels (never by the temp paths of
  generated trace files), so two commits can be compared by one string.
* :func:`oracle_mismatches` — re-simulate a seeded sample of cells with
  the per-access ``reference`` engine backend and compare field by field.
* :func:`sr_not_worse` — summed DMA-SR shifts never exceed AFD-OFU's.
* :func:`simulated_metrics` — the Fig. 4/5 quantities of a rep.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np


def cell_record(cell) -> dict:
    """The digested identity and outcome of one cell."""
    return {
        "program": cell.label,
        "policy": cell.policy,
        "dbcs": cell.config.dbcs,
        "ports": cell.config.ports_per_track,
        "faulted": cell.fault is not None,
        "shifts": cell.result.shifts,
        "report": dataclasses.asdict(cell.result.report),
    }


def digest(cells) -> str:
    """Order-independent SHA-256 of every cell record."""
    lines = sorted(json.dumps(cell_record(c), sort_keys=True) for c in cells)
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def field_differences(got, want) -> list[str]:
    """Names of the ``CellResult`` fields (report fields expanded) that differ."""
    diffs = [f for f in ("benchmark", "policy", "dbcs", "shifts")
             if getattr(got, f) != getattr(want, f)]
    a = dataclasses.asdict(got.report)
    b = dataclasses.asdict(want.report)
    diffs += [f"report.{k}" for k in sorted(a.keys() | b.keys())
              if a.get(k) != b.get(k)]
    return diffs


def oracle_sample(cells, size: int, seed: int) -> list:
    """A seeded sample of the deterministic-policy cells.

    Stochastic cells (GA, RW) draw from per-cell seeds that only the
    runner's enumeration knows; the reference backend changes replay,
    not search, so the deterministic cells exercise every replay path.
    """
    pool = sorted((c for c in cells if c.policy not in ("GA", "RW")),
                  key=lambda c: json.dumps(cell_record(c), sort_keys=True))
    if len(pool) <= size:
        return pool
    rng = np.random.default_rng([seed, 7])
    return [pool[i] for i in sorted(rng.choice(len(pool), size, replace=False))]


def oracle_mismatches(sample, recompute) -> list[tuple[object, list[str]]]:
    """``(cell, differing fields)`` for every sampled cell whose
    ``recompute(cell)`` disagrees with it."""
    out = []
    for cell in sample:
        diffs = field_differences(recompute(cell), cell.result)
        if diffs:
            out.append((cell, diffs))
    return out


def reference_recompute(cell):
    """Re-run one cell through ``run_policy_on_program`` on the reference
    backend, with the cell's own fault model and scrubbing."""
    from repro.core.policies import get_policy
    from repro.eval.runner import run_policy_on_program

    return run_policy_on_program(
        cell.program, get_policy(cell.policy), cell.config,
        backend="reference", fault=cell.fault,
        scrub_interval=cell.scrub_interval,
    )


def sr_not_worse(cells) -> bool:
    """Summed DMA-SR shifts are at most summed AFD-OFU shifts."""
    def total(policy: str) -> int:
        return sum(c.result.shifts for c in cells if c.policy == policy)

    return total("DMA-SR") <= total("AFD-OFU")


def _geomean_ratio(cells, num: str, den: str, value, plus: float = 0.0):
    """Geomean over (program, dbcs, ports) of ``value(num cell) + plus``
    over ``value(den cell) + plus``; 1.0, the empty product, without
    such pairs."""
    pairs: dict[tuple, dict[str, float]] = {}
    for c in cells:
        if c.policy in (num, den):
            key = (c.label, c.config.dbcs, c.config.ports_per_track)
            pairs.setdefault(key, {})[c.policy] = value(c.result)
    logs = [math.log((p[num] + plus) / (p[den] + plus))
            for p in pairs.values() if len(p) == 2]
    return math.exp(sum(logs) / len(logs)) if logs else 1.0


def simulated_metrics(cells) -> dict[str, float]:
    """The simulated end-to-end metrics over a rep's clean cells.

    Each is a geomean over (program, DBCs, ports) of one policy's
    figure over another's: add-one-smoothed shifts (Fig. 4), runtime and
    total energy (Fig. 5). The paper's saving is ``100 * (1 - 1/x)``.
    """
    clean = [c for c in cells if c.fault is None]
    return {
        "sr_vs_afd_shifts_x": _geomean_ratio(
            clean, "AFD-OFU", "DMA-SR", lambda r: r.shifts, plus=1.0),
        "sr_runtime_x": _geomean_ratio(
            clean, "AFD-OFU", "DMA-SR", lambda r: r.runtime_ns),
        "sr_energy_x": _geomean_ratio(
            clean, "AFD-OFU", "DMA-SR", lambda r: r.total_energy_pj),
        "ga_vs_rw_shifts_x": _geomean_ratio(
            clean, "RW", "GA", lambda r: r.shifts, plus=1.0),
    }
