"""Architecture exploration over pluggable search strategies.

The paper's Figure-1 loop is greedy single-trajectory iterative
improvement: evaluate the incumbent, propose measurement-guided
candidate improvements, adopt the cheapest feasible one, stop at
convergence.  That loop is now one :class:`~repro.explore.strategies.Strategy`
(``"greedy"``, the default — byte-identical trajectories to the original
engine) among several: multi-start random restarts, beam/(μ+λ)
population search, and a Pareto-frontier mode that returns the whole
non-dominated cost/cycle-time/power/area trade-off curve instead of a
single winner.

:class:`Explorer` is the driver.  Per round it asks the strategy for a
batch of :class:`~repro.explore.parallel.EvalRequest`\\ s, measures them
through the :class:`~repro.explore.parallel.ParallelEvaluator` (worker
pools, the shared :class:`~repro.cache.ArtifactCache`, the static
validity gate, and :mod:`repro.obs` profiling all apply unchanged,
whatever the strategy), does the log bookkeeping, and feeds the feasible
survivors back to the strategy.  Results stay deterministic — identical
trajectories and frontiers whatever the pool mode.

Every candidate is a complete ISDL description, so the whole tool chain
(compiler, assembler, ILS, HGEN) regenerates automatically for each
measurement — the property the paper argues makes exploration practical
at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..cache import ArtifactCache
from ..codegen.ir import Kernel
from ..errors import ExplorationError, ReproError
from ..isdl import ast
from ..obs.metrics import MetricsSnapshot
from ..tech.model import TechSpec
from . import transforms
from .metrics import CostWeights, Evaluation, Measurement
from .parallel import EvalRequest, EvalResult, ParallelEvaluator


@dataclass
class Candidate:
    """One evaluated point in the design space."""

    desc: ast.Description
    evaluation: Evaluation
    derived_by: str = "initial"

    def cost(self, weights: Optional[CostWeights] = None) -> float:
        return self.evaluation.cost(weights)


@dataclass
class Trajectory:
    """One improvement lineage inside an exploration run.

    The greedy strategy produces exactly one; multi-start produces one
    per restart, population/Pareto searches one for their best-incumbent
    chain.  Per-trajectory profile and cache accounting lives here so a
    label measured in two trajectories is attributed to both (the global
    :attr:`ExplorationLog.profiles` dict is first-wins across the whole
    run and cannot tell them apart).
    """

    label: str
    accepted: List[Candidate] = field(default_factory=list)
    #: per-candidate observability profile, first measurement per label
    #: *within this trajectory*; empty unless :mod:`repro.obs` was on
    profiles: Dict[str, MetricsSnapshot] = field(default_factory=dict)
    #: warm-cache hits / real measurements attributed to this trajectory
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def best(self) -> Candidate:
        return self.accepted[-1]

    @property
    def initial(self) -> Candidate:
        return self.accepted[0]

    def improvement(self, weights: Optional[CostWeights] = None) -> float:
        """Cost ratio initial/best along this trajectory."""
        initial = self.initial.cost(weights)
        best = self.best.cost(weights)
        if best == 0:
            return float("inf")
        return initial / best

    def merged_profile(self) -> Optional[MetricsSnapshot]:
        """This trajectory's profiles folded into one snapshot."""
        if not self.profiles:
            return None
        return MetricsSnapshot.merged(self.profiles.values())


@dataclass
class ExplorationLog:
    """The record of one exploration run.

    :attr:`accepted` remains the winning trajectory's candidate chain
    (what greedy always produced), so ``best``/``initial``/
    ``improvement`` read the same regardless of strategy;
    :attr:`trajectories` holds every lineage a multi-trajectory strategy
    followed, and :meth:`frontier` extracts the non-dominated subset of
    everything measured.
    """

    weights: CostWeights
    accepted: List[Candidate] = field(default_factory=list)
    rejected: List[Candidate] = field(default_factory=list)
    errors: List[EvalResult] = field(default_factory=list)
    iterations: int = 0
    #: per-candidate observability profile (label → first measurement
    #: anywhere in the run); empty unless :mod:`repro.obs` was enabled
    profiles: Dict[str, MetricsSnapshot] = field(default_factory=dict)
    #: registry name of the strategy that drove the run
    strategy: str = "greedy"
    #: every improvement lineage, in creation order
    trajectories: List[Trajectory] = field(default_factory=list)
    #: every feasible measured candidate, in evaluation order
    evaluated: List[Candidate] = field(default_factory=list)
    #: total measurements dispatched / answered from the warm cache
    evaluations: int = 0
    cache_hits: int = 0

    def trajectory(self, label: str) -> Trajectory:
        """The trajectory named *label*, created on first use."""
        for trajectory in self.trajectories:
            if trajectory.label == label:
                return trajectory
        trajectory = Trajectory(label)
        self.trajectories.append(trajectory)
        return trajectory

    def frontier(self, weights: Optional[CostWeights] = None
                 ) -> List[Candidate]:
        """The mutually non-dominated subset of every feasible candidate
        measured this run (cost/cycle-time/power/area axes, all
        minimized; deterministic order — see :mod:`repro.explore.pareto`)."""
        from . import pareto

        weights = weights or self.weights
        return pareto.frontier(
            list(self.evaluated),
            key=lambda c: pareto.objectives(c.evaluation, weights),
        )

    @property
    def profile_count(self) -> int:
        """Distinct candidate measurements with a recorded profile,
        counted once per (trajectory, label) plus unclaimed globals."""
        claimed = set()
        count = 0
        for trajectory in self.trajectories:
            count += len(trajectory.profiles)
            claimed.update(trajectory.profiles)
        count += sum(1 for label in self.profiles if label not in claimed)
        return count

    def merged_profile(self, trajectory: Optional[str] = None
                       ) -> Optional[MetricsSnapshot]:
        """Per-candidate profiles folded into one snapshot; None when
        obs was off.

        With *trajectory* (a :attr:`Trajectory.label`) only that
        lineage's measurements merge.  Without it, every trajectory
        contributes its own first-measurement-per-label set — a label
        measured in two trajectories counts once *per trajectory* —
        plus any profile recorded outside a trajectory (e.g. the shared
        initial measurement).
        """
        if trajectory is not None:
            for candidate in self.trajectories:
                if candidate.label == trajectory:
                    return candidate.merged_profile()
            raise KeyError(f"no trajectory {trajectory!r}")
        claimed = set()
        snapshots: List[MetricsSnapshot] = []
        for lineage in self.trajectories:
            claimed.update(lineage.profiles)
            snapshots.extend(lineage.profiles.values())
        head = [snapshot for label, snapshot in self.profiles.items()
                if label not in claimed]
        snapshots = head + snapshots
        if not snapshots:
            return None
        return MetricsSnapshot.merged(snapshots)

    @property
    def best(self) -> Candidate:
        return self.accepted[-1]

    @property
    def initial(self) -> Candidate:
        return self.accepted[0]

    @property
    def improvement(self) -> float:
        """Cost ratio initial/best (>1 means the search improved)."""
        initial = self.initial.cost(self.weights)
        best = self.best.cost(self.weights)
        if best == 0:
            return float("inf")
        return initial / best


class Explorer:
    """Strategy-driven search over ISDL descriptions.

    The heavy lifting — measuring candidates — goes through *evaluator*
    (built on demand when not supplied): a worker pool plus an artifact
    cache, warm-shared between iterations and across `explore` calls on
    the same instance.  Pass ``parallel="serial"`` and ``cache=None`` via
    a hand-built :class:`ParallelEvaluator` to reproduce the original
    one-at-a-time engine exactly.

    Which points get proposed and adopted is the strategy's business:
    ``explore(initial, strategy="greedy")`` (the default) runs the
    paper's Figure-1 loop; see :mod:`repro.explore.strategies` for the
    registry.
    """

    def __init__(
        self,
        kernels: Sequence[Kernel],
        weights: Optional[CostWeights] = None,
        max_candidates_per_round: int = 12,
        utilization_threshold: float = 0.05,
        *,
        cache: Optional[ArtifactCache] = None,
        evaluator: Optional[ParallelEvaluator] = None,
        parallel: str = "auto",
        max_workers: Optional[int] = None,
        static_check: bool = True,
    ):
        self.kernels = list(kernels)
        self.weights = weights or CostWeights()
        self.max_candidates_per_round = max_candidates_per_round
        self.utilization_threshold = utilization_threshold
        if evaluator is None:
            evaluator = ParallelEvaluator(
                Measurement(self.kernels, weights=self.weights),
                cache=cache if cache is not None else ArtifactCache(),
                mode=parallel,
                max_workers=max_workers,
                static_check=static_check,
            )
        self.evaluator = evaluator

    @property
    def cache(self) -> Optional[ArtifactCache]:
        return self.evaluator.cache

    # ------------------------------------------------------------------

    def evaluate(self, desc: ast.Description, *,
                 derived_by: str = "initial",
                 parent: Optional[ast.Description] = None,
                 tech: Optional[TechSpec] = None) -> Candidate:
        """Measure one candidate description.

        All options are keyword-only.  *parent*
        names the description this one was mutated from — a pure
        optimization hint that lets a cache miss reuse the parent's
        artifacts (see :func:`repro.explore.metrics.evaluate`).  *tech*
        measures the candidate in a scaled technology (see
        :class:`repro.tech.TechSpec`) instead of the pinned baseline.
        """
        evaluation = self.evaluator.evaluate(desc, parent=parent, tech=tech)
        return Candidate(desc, evaluation, derived_by)

    def tech_sweep(
        self,
        desc: ast.Description,
        specs: Sequence[Optional[TechSpec]],
        *,
        label: Optional[str] = None,
        parent: Optional[ast.Description] = None,
    ) -> List[Candidate]:
        """Measure one description across a family of technology specs.

        Each entry in *specs* is a :class:`repro.tech.TechSpec` (or
        ``None`` for the pinned baseline process).  Cycle counts,
        compiled programs, and the synthesized netlist are shared across
        the whole family through the artifact cache — the sweep costs one
        tool-chain run plus a cheap re-projection per spec.  Results come
        back in *specs* order; a spec whose measurement raises aborts the
        sweep with :class:`ExplorationError`.
        """
        base = label or desc.name
        requests = []
        for spec in specs:
            name = base + (spec.suffix() if spec is not None else "")
            requests.append(EvalRequest(
                desc, derived_by="tech_sweep", label=name,
                parent=parent, tech=spec,
            ))
        candidates: List[Candidate] = []
        for result in self.evaluator.evaluate_many(requests):
            if not result.ok:
                raise ExplorationError(
                    f"tech sweep failed at {result.label!r}: {result.error}"
                )
            candidates.append(Candidate(
                requests[result.index].desc, result.evaluation,
                result.derived_by,
            ))
        return candidates

    def explore(self, initial: ast.Description, *,
                max_iterations: int = 8,
                strategy="greedy",
                seed: int = 0,
                max_evaluations: Optional[int] = None) -> ExplorationLog:
        """Search from *initial* under *strategy* until convergence.

        All options are keyword-only.  *strategy* is a
        :class:`~repro.explore.strategies.Strategy` instance or registry
        name (default ``"greedy"``, the paper's Figure-1 loop — its
        trajectories are bit-identical to the pre-strategy engine).
        *seed* feeds strategies that randomize (multi-start's transform
        sampler); *max_evaluations*, when set, is a hard cap on batch
        measurements — the final round's batch is truncated to the
        remaining budget and the run stops once it is spent.
        """
        from . import strategies as strategy_registry

        search = strategy_registry.get(strategy)
        log = ExplorationLog(self.weights, strategy=search.name)
        with obs.span("explore.sweep", initial=initial.name,
                      max_iterations=max_iterations):
            with obs.capture() as cap:
                incumbent = self.evaluate(initial)
            self._note_profile(log, incumbent.evaluation.name,
                               cap.snapshot)
            if not incumbent.evaluation.feasible:
                raise ExplorationError(
                    f"initial architecture infeasible:"
                    f" {incumbent.evaluation.reason}"
                )
            log.evaluated.append(incumbent)
            context = strategy_registry.StrategyContext(
                initial=incumbent,
                weights=self.weights,
                max_iterations=max_iterations,
                propose_from=lambda c: list(self._proposals(c)),
                rng=random.Random(seed),
                log=log,
            )
            search.begin(context)
            while not search.finished:
                log.iterations += 1
                with obs.span("explore.iteration", n=log.iterations):
                    requests = search.propose()
                    if max_evaluations is not None:
                        # hard measurement cap: truncate the batch to the
                        # remaining budget (requests keep proposal order,
                        # so the strategy's highest-priority work survives)
                        remaining = max_evaluations - log.evaluations
                        requests = requests[:max(0, remaining)]
                    survivors = self._measure(log, requests)
                    search.observe(survivors)
                if (max_evaluations is not None
                        and log.evaluations >= max_evaluations):
                    break
            log.accepted = search.winner().accepted
        return log

    def _measure(self, log: ExplorationLog,
                 requests: List[EvalRequest]) -> List[Candidate]:
        """One batch through the evaluator, with all log bookkeeping.

        Returns the feasible candidates in submission order (the
        tie-break every strategy inherits); errors land in
        ``log.errors``, infeasible measurements in ``log.rejected``,
        profiles and cache attribution on the tagged trajectory.
        """
        survivors: List[Candidate] = []
        if not requests:
            return survivors
        for result in self.evaluator.evaluate_many(requests):
            request = requests[result.index]
            trajectory = (log.trajectory(request.tag)
                          if request.tag else None)
            self._note_profile(log, result.label, result.obs, trajectory)
            log.evaluations += 1
            if result.cached:
                log.cache_hits += 1
            if trajectory is not None:
                if result.cached:
                    trajectory.cache_hits += 1
                else:
                    trajectory.cache_misses += 1
            if not result.ok:
                log.errors.append(result)
                continue
            candidate = Candidate(request.desc, result.evaluation,
                                  result.derived_by)
            if not candidate.evaluation.feasible:
                log.rejected.append(candidate)
                continue
            log.evaluated.append(candidate)
            survivors.append(candidate)
        return survivors

    @staticmethod
    def _note_profile(log: ExplorationLog, label: str,
                      snapshot: Optional[MetricsSnapshot],
                      trajectory: Optional[Trajectory] = None) -> None:
        """Keep the first (= full-measurement) profile per candidate —
        globally and, when the request was tagged, per trajectory."""
        if snapshot is None:
            return
        if label not in log.profiles:
            log.profiles[label] = snapshot.copy()
        if trajectory is not None and label not in trajectory.profiles:
            trajectory.profiles[label] = snapshot.copy()

    # ------------------------------------------------------------------
    # Measurement-guided candidate generation
    # ------------------------------------------------------------------

    def _proposals(
        self, incumbent: Candidate
    ) -> Iterable[Tuple[ast.Description, str]]:
        desc = incumbent.desc
        stats = incumbent.evaluation.stats
        produced = 0

        def cap() -> bool:
            return produced >= self.max_candidates_per_round

        # 1. Drop operations the workloads never execute.
        if stats is not None:
            unused = stats.unused_operations(desc)
            droppable = [
                (f, o) for f, o in unused
                if len(desc.field_named(f).operations) > 1
            ]
            if droppable:
                try:
                    yield (
                        transforms.drop_operations(
                            desc, droppable, rename=f"{desc.name}~lean"
                        ),
                        f"drop {len(droppable)} unused operations",
                    )
                    produced += 1
                except ReproError:
                    pass
        # 2. Drop fields with utilization below the threshold.
        if stats is not None and len(desc.fields) > 1 and not cap():
            for name, util in stats.field_utilization(desc).items():
                if util <= self.utilization_threshold:
                    try:
                        yield (
                            transforms.drop_field(desc, name),
                            f"drop idle field {name}"
                            f" ({util * 100:.1f}% used)",
                        )
                        produced += 1
                    except ReproError:
                        continue
                    if cap():
                        break
        # 3. Stalls observed: add bypass timing to high-latency operations.
        if (
            incumbent.evaluation.stall_cycles > 0
            and stats is not None
            and not cap()
        ):
            for fld, op in desc.operations():
                if op.costs.stall > 0 and stats.op_counts[
                    (fld.name, op.name)
                ]:
                    yield (
                        transforms.set_operation_timing(
                            desc, fld.name, op.name,
                            costs=ast.Costs(op.costs.cycle, 0,
                                            op.costs.size),
                            timing=ast.Timing(1, op.timing.usage),
                            rename=f"{desc.name}+byp-{op.name}",
                        ),
                        f"bypass {fld.name}.{op.name}",
                    )
                    produced += 1
                    if cap():
                        break
        # 4. Serialize rarely co-used field pairs so hardware can share.
        if stats is not None and len(desc.fields) > 1 and not cap():
            utils = stats.field_utilization(desc)
            ranked = sorted(utils, key=utils.get)
            for i, field_a in enumerate(ranked[:3]):
                for field_b in ranked[i + 1 : 4]:
                    ops_a = self._busiest_op(desc, stats, field_a)
                    ops_b = self._busiest_op(desc, stats, field_b)
                    if ops_a is None or ops_b is None:
                        continue
                    yield (
                        transforms.add_constraint(
                            desc, field_a, ops_a, field_b, ops_b,
                            rename=f"{desc.name}+ser",
                        ),
                        f"serialize {field_a}.{ops_a} / {field_b}.{ops_b}",
                    )
                    produced += 1
                    if cap():
                        break
                if cap():
                    break
        # 5. Halve over-provisioned memories (an infeasible shrink is
        #    detected at load time during evaluation).
        if not cap():
            memories = [
                s for s in desc.storages.values()
                if s.kind in (
                    ast.StorageKind.INSTRUCTION_MEMORY,
                    ast.StorageKind.DATA_MEMORY,
                )
            ]
            for storage in sorted(
                memories, key=lambda m: -(m.width * (m.depth or 0))
            )[:2]:
                if (storage.depth or 0) >= 32:
                    yield (
                        transforms.resize_memory(
                            desc, storage.name, storage.depth // 2
                        ),
                        f"halve {storage.name} to {storage.depth // 2}",
                    )
                    produced += 1
                    if cap():
                        break
        # 6. Try halving the register file.
        if not cap():
            reg_files = [
                s for s in desc.storages.values()
                if s.kind is ast.StorageKind.REGISTER_FILE
            ]
            if reg_files:
                depth = max(s.depth or 0 for s in reg_files)
                if depth >= 4:
                    try:
                        yield (
                            transforms.narrow_register_file(
                                desc, depth // 2
                            ),
                            f"narrow register file to {depth // 2}",
                        )
                        produced += 1
                    except ReproError:
                        pass

    @staticmethod
    def _busiest_op(desc, stats, field_name) -> Optional[str]:
        ops = [
            (stats.op_counts[(field_name, op.name)], op.name)
            for op in desc.field_named(field_name).operations
            if op.action
        ]
        ops.sort(reverse=True)
        if not ops or ops[0][0] == 0:
            return None
        return ops[0][1]
