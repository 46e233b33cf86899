"""``explore``: greedy ``Explorer.explore`` sweeps from SPAM, RISC16 and
SPAM2, each with a fresh cache, in the evaluator's default (process pool)
mode with at most ``nproc`` workers.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.arch import description_for
from repro.cache import ArtifactCache
from repro.codegen.kernels import resolve_kernels
from repro.explore import Explorer
from repro.isdl import fingerprint

import common
import inputs
from layers import Recorder, merge_totals, obs_totals
from wl_eval import layer_metrics

MAX_ITERATIONS = 6


@dataclass
class Sweep:
    arch: str
    seconds: float
    at: float  # perf_counter() at the middle of the sweep
    trajectory: Dict[str, object]
    errors: List[str]
    cache: Dict[str, float]
    cycles: int
    instructions: int
    rss_mb: float
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    reused: Dict[str, float] = field(default_factory=dict)


@dataclass
class Op:
    """One round: a sweep from every starting architecture."""

    index: int
    seconds: float
    sweeps: List[Sweep]


class ExploreWorkload:
    name = "explore"

    def setup(self, seed: int, seconds: int) -> None:
        self.seed = seed
        shift = seed % len(inputs.ARCHS)
        self.order = inputs.ARCHS[shift:] + inputs.ARCHS[:shift]
        self.kernels = {arch: resolve_kernels(list(inputs.SHORT_KERNELS[arch]))
                        for arch in self.order}
        self.starts = {arch: description_for(arch) for arch in self.order}
        self.workers = min(common.nproc(), 8)
        self.peak_children_mb = 0.0
        # one short sweep pays the process's one-time lazy initialisation
        warm = Explorer(self.kernels["spam2"], cache=ArtifactCache(),
                        max_workers=self.workers)
        try:
            warm.explore(copy.deepcopy(self.starts["spam2"]),
                         max_iterations=1)
        finally:
            warm.evaluator.shutdown()

    def close(self) -> None:
        pass

    def _sweep(self, arch: str, rec: Optional[Recorder]) -> Sweep:
        start = copy.deepcopy(self.starts[arch])
        explorer = Explorer(self.kernels[arch], cache=ArtifactCache(),
                            max_workers=self.workers)
        traced = rec is not None
        before = obs.registry().snapshot().counters if traced else {}
        self.speed.tick(3)
        began = time.perf_counter()
        try:
            if traced:
                with rec.span("explore.sweep"):
                    log = explorer.explore(start,
                                           max_iterations=MAX_ITERATIONS,
                                           seed=self.seed)
            else:
                log = explorer.explore(start, max_iterations=MAX_ITERATIONS,
                                       seed=self.seed)
            seconds = time.perf_counter() - began
            rss = common.pool_children_peak_mb()
        finally:
            explorer.evaluator.shutdown()
        measured = log.evaluated + log.rejected
        static = [e for e in log.errors if e.diagnostics]
        errors = [f"{e.label}: {e.error}" for e in log.errors
                  if not e.diagnostics]
        trajectory = {
            "evaluations": log.evaluations,
            "infeasible": len(log.rejected),
            "static_rejects": len(static),
            "iterations": log.iterations,
            "best": fingerprint(log.best.desc),
            "improvement": log.improvement,
        }
        sweep = Sweep(arch, seconds, began + seconds / 2.0, trajectory, errors,
                      common.cache_counts(explorer.cache.stats),
                      sum(c.evaluation.cycles for c in measured),
                      sum(c.evaluation.stats.instructions for c in measured
                          if c.evaluation.stats is not None),
                      rss)
        if traced:
            after = obs.registry().snapshot().counters
            delta = {name: value - before.get(name, 0.0)
                     for name, value in after.items()}
            sweep.layers = obs_totals(delta)
            sweep.reused = {
                kind: delta.get(f"cache.incremental.{kind}.reused", 0.0)
                for kind in common.REUSE_KINDS}
        return sweep

    def _round(self, index: int, rec: Optional[Recorder]) -> Op:
        sweeps = [self._sweep(arch, rec) for arch in self.order]
        self.peak_children_mb = max([self.peak_children_mb]
                                    + [s.rss_mb for s in sweeps])
        return Op(index, sum(s.seconds for s in sweeps), sweeps)

    def measure(self, seconds: float) -> List[Op]:
        self.speed = common.Speedometer(window=6)
        ops: List[Op] = []
        while sum(op.seconds for op in ops) < seconds:
            ops.append(self._round(len(ops), None))
        self.speed.tick(3)
        return ops

    def traced(self, seconds: float, rec: Recorder) -> Dict[str, object]:
        """One round untraced, then two traced with the wrappers writing
        into the obs registry (pool workers ship theirs back)."""
        self.speed = common.Speedometer(window=6)
        untraced = [self._round(0, None)]
        rec.to_obs = True
        obs.enable()
        try:
            passes = [[self._round(0, rec)] for _ in range(2)]
        finally:
            obs.disable(reset=True)
            rec.to_obs = False
        self.speed.tick(3)
        return {"untraced": untraced, "passes": passes}

    # -- metrics -----------------------------------------------------------

    def _op_ms(self, op: Op) -> float:
        """A round's time in reference-host ms."""
        return sum(self.speed.reference_ms(s.seconds * 1000.0, s.at)
                   for s in op.sweeps)

    def end_to_end(self, ops: List[Op]) -> Dict[str, float]:
        return {"op_ms_p50": common.median([self._op_ms(op) for op in ops])}

    def trace_metrics(self, traced: Dict[str, object]) -> Dict[str, float]:
        ops: List[Op] = [op for run in traced["passes"] for op in run]
        sweeps = [s for op in ops for s in op.sweeps]
        totals = merge_totals(*(s.layers for s in sweeps))
        metrics = layer_metrics(totals, len(ops))
        wall = sum(op.seconds for op in ops)
        metrics["unattributed_frac"] = common.share(
            totals["self_s"].get("explore.sweep", 0.0), wall)
        metrics["explore_s"] = common.median([op.seconds for op in ops])
        untraced = common.median([self._op_ms(op)
                                  for op in traced["untraced"]])
        metrics["trace.overhead_frac"] = common.share(
            common.median([self._op_ms(op) for op in ops]), untraced) - 1.0
        cache = common.add_counts(s.cache for s in sweeps)
        for kind in common.REUSE_KINDS:
            cache[f"units_reused.{kind}"] = sum(s.reused.get(kind, 0.0)
                                                for s in sweeps)
        metrics.update(common.cache_metrics(cache))
        for backend in inputs.BACKENDS:
            run_s = totals["self_s"].get("gensim.run." + backend, 0.0)
            metrics[f"gensim.run_ms.{backend}"] = \
                run_s * 1000.0 / max(1, len(ops))
        metrics["op_count"] = len(ops)
        self.layer_self_s = totals["self_s"]
        self.layer_wall_s = wall
        return metrics

    def exact_counts(self, ops: List[Op]) -> Dict[str, float]:
        sweeps = [s for op in ops for s in op.sweeps]
        return {
            "explore.evaluations": sum(s.trajectory["evaluations"]
                                       for s in sweeps),
            "explore.infeasible": sum(s.trajectory["infeasible"]
                                      for s in sweeps),
            "explore.static_rejects": sum(s.trajectory["static_rejects"]
                                          for s in sweeps),
            "gensim.sim_cycles": sum(s.cycles for s in sweeps),
            "gensim.instructions": sum(s.instructions for s in sweeps),
        }

    def attempted(self, ops: List[Op]) -> int:
        return sum(1 + s.trajectory["evaluations"]
                   for op in ops for s in op.sweeps)

    # -- correctness -------------------------------------------------------

    def check(self, ops: List[Op], golden: Optional[Dict[str, str]]
              ) -> Dict[str, str]:
        failed: Dict[str, str] = {}
        first: Dict[str, str] = {}
        for op in ops:
            for sweep in op.sweeps:
                key = f"{op.index}/{sweep.arch}"
                for n, error in enumerate(sweep.errors):
                    failed[f"{key}/error{n}"] = error
                got = common.digest(sweep.trajectory)
                want = first.setdefault(sweep.arch, got)
                if got != want:
                    failed[key] = "trajectory differs from this run's first"
                pinned = (golden or {}).get(sweep.arch)
                if pinned is not None and got != pinned:
                    failed.setdefault(key, "trajectory digest differs from"
                                           " the pinned one")
        return failed

    def digests(self, ops: List[Op]) -> Dict[str, str]:
        return {s.arch: common.digest(s.trajectory) for s in ops[0].sweeps}

    def self_test(self, ops: List[Op]) -> Optional[str]:
        if len(ops[0].sweeps) == 0:
            return None
        sweep = ops[0].sweeps[0]
        wrong = copy.copy(sweep)
        wrong.trajectory = dict(sweep.trajectory,
                                evaluations=sweep.trajectory["evaluations"]
                                + 1)
        mutated = [Op(ops[0].index, ops[0].seconds,
                      [wrong] + ops[0].sweeps[1:])]
        golden = {s.arch: common.digest(s.trajectory) for s in ops[0].sweeps}
        if not self.check(mutated, golden):
            return "a trajectory one evaluation off was not counted as failed"
        return None
