"""``eval_cold`` and ``sim_long``: cold evaluations through
``repro.explore.evaluate`` on every backend.

Every evaluation gets a fresh ``ArtifactCache`` and a private copy of its
candidate description, so nothing carries over between evaluations but
the process itself (imports and one-time lazy set-up, paid in set-up by
a warm-up evaluation per backend).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache import ArtifactCache
from repro.explore import evaluate

import common
import inputs
from layers import Recorder, merge_totals


@dataclass
class Op:
    """One timed evaluation."""

    index: int
    backend: str
    seconds: float
    at: float = 0.0  # perf_counter() at the middle of the evaluation
    record: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    cache: Dict[str, float] = field(default_factory=dict)


class EvalWorkload:
    """Shared driver; *long* selects the ``sim_long`` kernels."""

    def __init__(self, name: str, long: bool):
        self.name = name
        self.long = long

    # -- set-up ------------------------------------------------------------

    def setup(self, seed: int, seconds: int) -> None:
        kernels = inputs.LONG_KERNELS if self.long else inputs.SHORT_KERNELS
        self.stream = inputs.CandidateStream(
            seed, kernels, base_every=2 if self.long else 4)
        # the traced passes repeat a fixed prefix of the stream
        self.prefix = 1 if self.long else max(6, round(seconds * 2))
        for index in range(min(self.prefix, 6)):
            self.stream.get(index)
        # one-time lazy initialisation inside the tool chain (first
        # evaluation per backend in a process) belongs to set-up
        warm = inputs.Candidate(-1, "spam", "warm-up", "base",
                                inputs.description_for("spam"),
                                inputs.SHORT_KERNELS["spam"])
        for backend in inputs.BACKENDS:
            evaluate(warm.fresh(), warm.kernels, cache=ArtifactCache(),
                     sim_backend=backend)

    def close(self) -> None:
        pass

    # -- measurement -------------------------------------------------------

    def _evaluate(self, candidate: inputs.Candidate, backend: str,
                  rec: Optional[Recorder]) -> Op:
        desc = candidate.fresh()
        kernels = candidate.kernels
        cache = ArtifactCache()
        before = rec.totals() if rec is not None else None
        start = time.perf_counter()
        try:
            if rec is not None:
                with rec.span("eval." + backend):
                    evaluation = evaluate(desc, kernels, name=candidate.label,
                                          cache=cache, sim_backend=backend)
            else:
                evaluation = evaluate(desc, kernels, name=candidate.label,
                                      cache=cache, sim_backend=backend)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            end = time.perf_counter()
            return Op(candidate.index, backend, end - start,
                      (start + end) / 2.0,
                      error=f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        op = Op(candidate.index, backend, end - start, (start + end) / 2.0,
                record=common.output_record(evaluation),
                cache=common.cache_counts(cache.stats))
        if rec is not None:
            op.layers = _delta(rec.totals(), before)
        return op

    def _round(self, index: int, rec: Optional[Recorder]) -> List[Op]:
        """One candidate on every backend, with host-speed samples before
        each evaluation (long ones take several)."""
        candidate = self.stream.get(index)
        ops = []
        for backend in inputs.BACKENDS:
            self.speed.tick(3 if self.long else 1)
            ops.append(self._evaluate(candidate, backend, rec))
        return ops

    def measure(self, seconds: float) -> List[Op]:
        """Candidates in stream order, each on every backend, until
        *seconds* of evaluation time are spent."""
        self.speed = common.Speedometer(window=6 if self.long else 11)
        ops: List[Op] = []
        index = 0
        while sum(op.seconds for op in ops) < seconds:
            ops.extend(self._round(index, None))
            index += 1
        self.speed.tick(3)
        return ops

    def traced(self, seconds: float, rec: Recorder) -> Dict[str, object]:
        """The fixed prefix untraced, then traced twice."""
        self.speed = common.Speedometer(window=6 if self.long else 11)
        untraced = [op for i in range(self.prefix)
                    for op in self._round(i, None)]
        passes = []
        for _ in range(2):
            rec.reset()
            passes.append([op for i in range(self.prefix)
                           for op in self._round(i, rec)])
        self.speed.tick(3)
        return {"untraced": untraced, "passes": passes}

    # -- metrics -----------------------------------------------------------

    def _op_ms(self, op: Op) -> Optional[float]:
        """An op's time in the workload's unit, in reference-host ms: per
        evaluation, or for long kernels per 1e5 simulated cycles."""
        if op.record is None:
            return None
        ms = self.speed.reference_ms(op.seconds * 1000.0, op.at)
        if not self.long:
            return ms
        cycles = op.record["cycles"]
        return ms * 1e5 / cycles if cycles else None

    def _cells(self, ops: List[Op]) -> Dict[tuple, List[float]]:
        """Op times by (architecture, backend)."""
        cells: Dict[tuple, List[float]] = {}
        for op in ops:
            value = self._op_ms(op)
            if value is not None:
                arch = self.stream.get(op.index).arch
                cells.setdefault((arch, op.backend), []).append(value)
        return cells

    def end_to_end(self, ops: List[Op]) -> Dict[str, float]:
        """A geometric mean over architecture x backend cells of the cell
        medians, so every backend and architecture weighs the same
        whatever the count of candidates a run got through."""
        cells = self._cells(ops).values()
        return {"op_ms_p50": common.gmean(common.median(v) for v in cells)}

    def backend_metrics(self, ops: List[Op]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        times: Dict[str, List[float]] = {b: [] for b in inputs.BACKENDS}
        cycles: Dict[str, int] = {b: 0 for b in inputs.BACKENDS}
        for op in ops:
            if op.record is not None:
                times[op.backend].append(op.seconds)
                cycles[op.backend] += op.record["cycles"]
        for backend in inputs.BACKENDS:
            ms = [s * 1000.0 for s in times[backend]]
            out[f"eval_ms_p50.{backend}"] = common.median(ms)
            out[f"sim_mcps.{backend}"] = common.share(
                cycles[backend] / 1e6, sum(times[backend]))
        out["eval_ms_p90"] = common.percentile(
            [op.seconds * 1000.0 for op in ops if op.record is not None], 90)
        return out

    def trace_metrics(self, traced: Dict[str, object]) -> Dict[str, float]:
        passes: List[List[Op]] = traced["passes"]
        ops = [op for run in passes for op in run]
        totals = merge_totals(*(op.layers for op in ops))
        metrics = layer_metrics(totals, len(ops))
        metrics.update(self.backend_metrics(ops))
        for backend in inputs.BACKENDS:
            mine = [op for op in ops if op.backend == backend]
            wall = sum(op.seconds for op in mine)
            unattributed = sum(
                op.layers["self_s"].get(name, 0.0)
                for op in mine for name in ("eval." + backend,
                                            "eval.pipeline"))
            metrics[f"eval.unattributed_frac.{backend}"] = common.share(
                unattributed, wall)
            run_s = totals["self_s"].get("gensim.run." + backend, 0.0)
            run_cycles = sum(op.record["cycles"] for op in mine
                             if op.record is not None)
            metrics[f"gensim.run_ms.{backend}"] = \
                run_s * 1000.0 / max(1, len(mine))
            metrics[f"gensim.ns_per_cycle.{backend}"] = common.share(
                run_s * 1e9, run_cycles)
        wall = sum(op.seconds for op in ops)
        unattributed = sum(op.layers["self_s"].get(name, 0.0) for op in ops
                           for name in ("eval.xsim", "eval.compiled",
                                        "eval.block", "eval.pipeline"))
        metrics["unattributed_frac"] = common.share(unattributed, wall)
        # the passes repeat the untraced evaluations one for one
        untraced = {(op.index, op.backend): self._op_ms(op)
                    for op in traced["untraced"]}
        metrics["trace.overhead_frac"] = common.median([
            self._op_ms(op) / untraced[op.index, op.backend] - 1.0
            for op in ops
            if self._op_ms(op) and untraced.get((op.index, op.backend))])
        metrics["op_count"] = len(ops)
        self.layer_self_s = totals["self_s"]
        self.layer_wall_s = wall
        return metrics

    def exact_counts(self, ops: List[Op]) -> Dict[str, float]:
        """Counts that must repeat exactly for one seed."""
        records = [op.record for op in ops if op.record is not None]
        totals = merge_totals(*(op.layers for op in ops))
        counts = {
            "gensim.sim_cycles": sum(r["cycles"] for r in records),
            "gensim.instructions": sum(r["instructions"] for r in records),
            "encoding.matches_calls":
                totals["calls"].get("encoding.matches", 0),
            "gensim.disassembler_builds":
                totals["calls"].get("gensim.disassembler", 0),
        }
        return counts

    def attempted(self, ops: List[Op]) -> int:
        return len(ops)

    # -- correctness -------------------------------------------------------

    def check(self, ops: List[Op], golden: Optional[Dict[str, str]]
              ) -> Dict[str, str]:
        """Failed ops by ``index/backend``, with the reason."""
        failed: Dict[str, str] = {}
        by_index: Dict[int, Dict[str, Op]] = {}
        for op in ops:
            by_index.setdefault(op.index, {})[op.backend] = op
            if op.error is not None:
                failed[f"{op.index}/{op.backend}"] = op.error
        for index, row in by_index.items():
            reference = row.get("xsim")
            if reference is None or reference.record is None:
                continue
            for backend, op in row.items():
                if op.record is None or backend == "xsim":
                    continue
                mismatch = common.first_mismatch(
                    op.record, reference.record, common.IDENTITY_FIELDS)
                if mismatch:
                    failed[f"{index}/{backend}"] = \
                        f"differs from xsim: {mismatch}"
        if golden is not None:
            for op in ops:
                key = f"{op.index}/{op.backend}"
                want = golden.get(key)
                if want is not None and op.record is not None \
                        and common.digest(op.record) != want:
                    failed.setdefault(key, "output digest differs from the"
                                           " pinned one")
        return failed

    def digests(self, ops: List[Op]) -> Dict[str, str]:
        return {f"{op.index}/{op.backend}": common.digest(op.record)
                for op in ops if op.record is not None}

    def self_test(self, ops: List[Op]) -> Optional[str]:
        """Inject one wrong evaluation (one cycle off); the check must
        count it.  Returns a complaint, or None when the check works."""
        failed = self.check(ops, None)
        victim = next((op for op in ops if op.backend == "compiled"
                       and op.record is not None and op.record["feasible"]
                       and f"{op.index}/{op.backend}" not in failed), None)
        if victim is None:
            return None
        before = len(failed)
        wrong = Op(victim.index, victim.backend, victim.seconds,
                   record=dict(victim.record,
                               cycles=victim.record["cycles"] + 1))
        mutated = [wrong if op is victim else op for op in ops]
        if len(self.check(mutated, None)) != before + 1:
            return "an evaluation one cycle off was not counted as failed"
        return None


def _delta(after: Dict[str, Dict[str, float]],
           before: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    return {kind: {name: value - before[kind].get(name, 0)
                   for name, value in after[kind].items()
                   if value != before[kind].get(name, 0)}
            for kind in after}


#: per-layer time metrics: metric name -> recorder layers it sums
LAYER_TIMES = {
    "isdl.fingerprint_ms": ("isdl.fingerprint",),
    "isdl.parse_ms": ("isdl.parse",),
    "codegen.compile_ms": ("codegen.compile",),
    "asm.assemble_ms": ("asm.assemble",),
    "encoding.sigtable_ms": ("encoding.sigtable",),
    "gensim.build_ms": ("gensim.build", "gensim.disassembler"),
    "gensim.load_ms": ("gensim.load",),
    "gensim.block_compile_ms": ("gensim.block_compile",),
    "analyze.check_ms": ("analyze.check",),
    "analyze.dataflow_ms": ("analyze.dataflow",),
    "analyze.proof_check_ms": ("analyze.proof_check",),
    "hgen.synth_ms": ("hgen.synth",),
    "hgen.power_ms": ("hgen.power",),
    "cache.lookup_ms": ("cache.lookup", "cache.build"),
    "explore.batch_ms": ("explore.batch",),
    "explore.propose_ms": ("explore.propose",),
}


def layer_metrics(totals: Dict[str, Dict[str, float]], ops: int
                  ) -> Dict[str, float]:
    """Self ms per operation for each layer metric, plus call counts."""
    self_s, calls = totals["self_s"], totals["calls"]
    out = {name: sum(self_s.get(layer, 0.0) for layer in layers)
           * 1000.0 / max(1, ops)
           for name, layers in LAYER_TIMES.items()}
    out["encoding.matches_calls"] = calls.get("encoding.matches", 0)
    out["gensim.disassembler_builds"] = calls.get("gensim.disassembler", 0)
    return out
