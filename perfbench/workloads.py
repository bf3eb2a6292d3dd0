"""The benchmark's three workloads.

Each workload turns the benchmark seed into generated inputs, then
offers two timed parts: :meth:`setup` (resolve and ingest the workload
specs, open the store) and :meth:`run` (one rep: every cell of the
workload, cold caches, serial, through the public ``repro`` API). A rep
is a fixed sequence of short named :class:`Steps` (one ``run_matrix``
call, one chunk of the queue drain) and returns its cells with each
step's wall time and the host's speed right after it; ``run.py`` times
reps, checks their outputs and derives the metrics. See README.md for
why each exists.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, replace

import numpy as np

import repro.workloads as repro_workloads
from repro.core.policies import PAPER_POLICIES
from repro.engine import FaultModel
from repro.engine.compile import clear_compile_caches
from repro.eval import service
from repro.eval.profiles import QUICK_PROFILE, SMOKE_PROFILE, EvalProfile
from repro.eval.runner import CellResult, clear_cell_cache, last_matrix_stats, run_matrix
from repro.rtm.geometry import RTMConfig, iso_capacity_sweep
from repro.store import ExperimentStore
from repro.trace.generators.offsetstone import BenchmarkProgram
from repro.workloads import WorkloadContext

from .probe import host_probe
from .spans import Recorder

#: The four deterministic heuristics of the paper's matrix.
HEURISTICS = ("AFD-OFU", "DMA-OFU", "DMA-Chen", "DMA-SR")


@dataclass(frozen=True)
class Cell:
    """One settled matrix cell plus what the reference oracle needs."""

    label: str  # stable program label: no temp paths in it
    policy: str
    config: RTMConfig
    result: CellResult
    program: BenchmarkProgram
    fault: FaultModel | None = None
    scrub_interval: int | None = None


def _profile_fault(profile: EvalProfile) -> FaultModel | None:
    # The runner builds its fault model from the profile exactly so.
    return (FaultModel(rate=profile.fault_rate, seed=profile.seed)
            if profile.fault_rate else None)


def _cold() -> None:
    """Drop the in-process caches a fresh process would not have."""
    clear_cell_cache()
    clear_compile_caches()


def _matrix(recorder: Recorder, mode: str, *args, **kwargs):
    with recorder.span("eval.run_matrix", "eval", mode=mode):
        return run_matrix(*args, **kwargs)


class Steps:
    """The timed steps of one rep.

    A :func:`host_probe` runs before the first step and after every
    step, outside the steps' times, so the probe rates sample the host's
    speed all through the rep. Traced runs skip the probes: they would
    show as root self time and in the tracing overhead.
    """

    def __init__(self, probe: bool = True):
        self.seconds: dict[str, float] = {}
        self.probe_rates: list[float] = [host_probe()] if probe else []
        self._probe = probe

    def run(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, timed as step ``name``."""
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds[name] = time.perf_counter() - start
        if self._probe:
            self.probe_rates.append(host_probe())
        return out


class Workload:
    name = ""
    #: Cells one rep settles.
    cells_per_rep = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, recorder: Recorder, probe: bool = True
            ) -> tuple[list[Cell], int, Steps]:
        """One rep: its cells, the number of cells that failed in it and
        its timed steps (the same steps, on the same inputs, every rep),
        host-probed when ``probe``."""
        raise NotImplementedError

    def check_store(self, cells: list[Cell]) -> int:
        """Cells of the last rep that disagree with what it stored."""
        return 0

    def close(self) -> None:
        pass


# -- paper-matrix ------------------------------------------------------------------


def suite_size(profile: EvalProfile, seed: int) -> tuple[int, int]:
    """``(variables, accesses)`` summed over ``profile``'s suite when it is
    synthesized with profile seed ``seed``."""
    programs = repro_workloads.resolve_workloads(
        profile.workload_specs,
        WorkloadContext.from_profile(replace(profile, seed=seed)))
    traces = [t.sequence for p in programs for t in p.traces]
    return sum(t.num_variables for t in traces), sum(len(t) for t in traces)


def median_size_seed(profile: EvalProfile, rng: np.random.Generator,
                     key, candidates: int = 15) -> int:
    """The profile seed, of ``candidates`` drawn from ``rng``, whose suite
    is the median by ``key(variables, accesses)``.

    Synthesized suites differ in size from seed to seed (summed variable
    and access counts spread about 0.06 and 0.1 between quartiles over
    ten seeds), and the work of a rep with them; the median of fifteen
    draws differs much less, while the traces still change with the seed.
    """
    seeds = [int(s) for s in rng.integers(1, 2**31, size=candidates)]
    sizes = {s: key(*suite_size(profile, s)) for s in seeds}
    return sorted(seeds, key=lambda s: (sizes[s], s))[candidates // 2]


class PaperMatrix(Workload):
    name = "paper-matrix"

    def __init__(self, seed: int, workdir: str):
        # The seed sets the profile seed: the synthesized offsetstone
        # traces and the GA and RW seeds. Every seed runs the whole suite,
        # so every seed measures the same programs' worth of search and the
        # summed DMA-SR <= AFD-OFU check covers all 31 (see README.md).
        rng = np.random.default_rng([seed, 1])
        profile = replace(
            QUICK_PROFILE, workers=1, engine_backend="numpy",
            ga_options=SMOKE_PROFILE.ga_options,
            rw_iterations=SMOKE_PROFILE.rw_iterations)
        # GA and RW time grows with the variable count.
        self.profile = replace(profile, seed=median_size_seed(
            profile, rng, key=lambda variables, accesses: variables))
        self.configs = iso_capacity_sweep()
        self.cells_per_rep = (len(self.profile.benchmarks)
                              * len(self.configs) * len(PAPER_POLICIES))
        self.programs: list[BenchmarkProgram] = []

    def setup(self) -> None:
        self.programs = repro_workloads.resolve_workloads(
            self.profile.workload_specs,
            WorkloadContext.from_profile(self.profile))

    def run(self, recorder: Recorder, probe: bool = True
            ) -> tuple[list[Cell], int, Steps]:
        _cold()
        configs = {c.dbcs: c for c in self.configs}
        cells, steps = [], Steps(probe)
        # One step per program: the six policies on the DBC sweep.
        for program in self.programs:
            results = steps.run(program.name, _matrix, recorder, "compute",
                                PAPER_POLICIES, self.profile,
                                configs=self.configs, programs=[program],
                                workers=1)
            cells += [Cell(b, pol, configs[q], cell, program)
                      for (b, pol, q), cell in results.items()]
        return cells, 0, steps


# -- long-trace --------------------------------------------------------------------


def write_address_trace(path: str, accesses: int, rng: np.random.Generator,
                        words: int = 384, phase: int = 4096) -> None:
    """A raw ``R|W 0x<addr>`` trace: Zipf-hot words over a drifting hot set.

    Every ``phase`` accesses the popularity ranking rotates, so the
    trace has phases with different working sets, the case the DMA
    heuristic's liveness analysis targets.
    """
    ranks = np.arange(1, words + 1, dtype=np.float64)
    probs = 1.0 / ranks**1.1
    probs /= probs.sum()
    perm = rng.permutation(words)
    rank = rng.choice(words, size=accesses, p=probs)
    shift = (np.arange(accesses) // phase) * 37
    word = perm[(rank + shift) % words]
    write = rng.random(accesses) < 0.25
    with open(path, "w", encoding="ascii") as fh:
        for start in range(0, accesses, 1 << 16):
            stop = min(start + (1 << 16), accesses)
            fh.write("\n".join(
                f"{'W' if w else 'R'} 0x{0x10000 + 8 * int(a):x}"
                for a, w in zip(word[start:stop], write[start:stop])))
            fh.write("\n")


class LongTrace(Workload):
    name = "long-trace"
    accesses = 300_000
    markov_accesses = 120_000
    window = 60_000
    #: ``(ports, faulted)`` passes, one ``run_matrix`` call each: the
    #: runner keys results on (benchmark, policy, dbcs), so port counts
    #: must not share a call.
    passes = ((1, False), (4, False), (8, False), (1, True))
    labels = ("addr", "addr-stream", "markov")
    policies = ("AFD-OFU", "DMA-SR")

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        self.profile = replace(QUICK_PROFILE, seed=int(rng.integers(1, 2**31)),
                               workers=1, engine_backend="numpy")
        paths = []
        for i in range(2):
            path = os.path.join(workdir, f"addr{i}.trc")
            write_address_trace(path, self.accesses, rng)
            paths.append(path)
        self.specs = (
            f"file:{paths[0]},word=8,max_vars=256",
            f"file:{paths[1]},word=8,max_vars=256,stream=1,"
            f"window={self.window}",
            f"synthetic:markov,vars=192,length={self.markov_accesses}",
        )
        self.cells_per_rep = (len(self.specs) * len(self.passes)
                              * len(self.policies))
        self.programs: list[BenchmarkProgram] = []

    def setup(self) -> None:
        self.programs = repro_workloads.resolve_workloads(
            self.specs, WorkloadContext.from_profile(self.profile))

    def run(self, recorder: Recorder, probe: bool = True
            ) -> tuple[list[Cell], int, Steps]:
        _cold()
        cells, steps = [], Steps(probe)
        for ports, faulted in self.passes:
            profile = self.profile
            if faulted:
                profile = replace(profile, fault_rate=1e-3, scrub_interval=4096)
            config = iso_capacity_sweep(dbc_counts=(8,),
                                        ports_per_track=ports)[0]
            # One step per trace and pass: both policies.
            for label, program in zip(self.labels, self.programs):
                results = steps.run(
                    f"{label}.ports{ports}{'-faulted' * faulted}", _matrix,
                    recorder, "compute", self.policies, profile,
                    configs=[config], programs=[program], workers=1)
                cells += [Cell(label, pol, config, cell, program,
                               _profile_fault(profile), profile.scrub_interval)
                          for (_, pol, _), cell in results.items()]
        return cells, 0, steps


# -- queue-drain -------------------------------------------------------------------


def _remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(path + suffix)
        except FileNotFoundError:
            pass


def _fields(cell: CellResult) -> tuple:
    return (cell.benchmark, cell.policy, cell.dbcs, cell.shifts, cell.report)


class QueueDrain(Workload):
    name = "queue-drain"
    suite_scale = 0.05
    ports = (1, 4)
    #: Cells one ``worker_loop`` call settles before it returns; the
    #: drain is a sequence of such calls, each a timed step.
    drain_chunk = 124

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        profile = replace(QUICK_PROFILE, suite_scale=self.suite_scale,
                          workers=1, engine_backend="numpy")
        # The heuristics' and replay's time grows with the access count.
        self.profile = replace(profile, seed=median_size_seed(
            profile, rng, key=lambda variables, accesses: accesses))
        self.store_path = os.path.join(workdir, "queue.sqlite")
        self.sweeps = {p: iso_capacity_sweep(ports_per_track=p)
                       for p in self.ports}
        self.cells_per_rep = (len(self.profile.benchmarks) * len(HEURISTICS)
                              * sum(len(s) for s in self.sweeps.values()))
        self.programs: dict[str, BenchmarkProgram] = {}

    def setup(self) -> None:
        suite = repro_workloads.resolve_workloads(
            self.profile.workload_specs,
            WorkloadContext.from_profile(self.profile))
        self.programs = {p.name: p for p in suite}
        _remove_store(self.store_path)
        ExperimentStore(self.store_path).close()

    def _drain_chunk(self, recorder: Recorder) -> dict:
        with recorder.span("eval.worker_loop", "eval"):
            return service.worker_loop(self.store_path, drain=True,
                                       max_cells=self.drain_chunk)

    def run(self, recorder: Recorder, probe: bool = True
            ) -> tuple[list[Cell], int, Steps]:
        _cold()
        # Each rep models a fresh worker process: no resolved workloads.
        service._WORKLOAD_CACHE.clear()
        _remove_store(self.store_path)
        steps = Steps(probe)
        # Every call opens and closes the store itself, so the worker and
        # its heartbeat hold the only two connections while it drains.
        for ports, sweep in self.sweeps.items():
            steps.run(f"enqueue.ports{ports}", _matrix, recorder,
                      "enqueue", HEURISTICS, self.profile, configs=sweep,
                      store=self.store_path, enqueue=True)
        # Claims go most expensive first, ties by key, so chunk i settles
        # the same cells in every rep. The last call finds the queue empty.
        failed = 0
        for i in itertools.count():
            settled = steps.run(f"drain.{i}", self._drain_chunk, recorder)
            failed += settled["failed"]
            if settled["computed"] + settled["failed"] < self.drain_chunk:
                break
        cells = []
        for ports, sweep in self.sweeps.items():
            clear_cell_cache()
            results = steps.run(f"offline.ports{ports}", _matrix,
                                recorder, "offline", HEURISTICS,
                                self.profile, configs=sweep,
                                store=self.store_path, offline=True)
            stats = last_matrix_stats()
            failed += stats.cells_total - stats.hits_store
            configs = {c.dbcs: c for c in sweep}
            cells += [Cell(b, pol, configs[q], cell, self.programs[b])
                      for (b, pol, q), cell in results.items()]
        return cells, failed, steps

    def check_store(self, cells: list[Cell]) -> int:
        """Regenerated cells that differ from the rows the worker committed.

        Stored rows carry no port count, so both sides are compared as
        multisets of (benchmark, policy, dbcs, shifts, report).
        """
        store = ExperimentStore(self.store_path)
        try:
            keys = [row[0] for row in store.iter_cells()]
            committed = sorted((_fields(store.get_cell(k)) for k in keys),
                               key=repr)
        finally:
            store.close()
        regenerated = sorted((_fields(c.result) for c in cells), key=repr)
        return (sum(a != b for a, b in zip(committed, regenerated))
                + abs(len(committed) - len(regenerated)))

    def close(self) -> None:
        _remove_store(self.store_path)


WORKLOADS = {w.name: w for w in (PaperMatrix, LongTrace, QueueDrain)}
