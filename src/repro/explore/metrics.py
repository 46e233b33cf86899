"""Candidate-architecture evaluation (the measurement box of Figure 1).

One evaluation runs the whole methodology for a candidate description:
compile the application kernels with the retargetable compiler, execute them
on the generated ILS (cycle counts + utilization statistics), synthesize the
hardware model with HGEN (cycle length, die size), estimate power from the
observed activity, and fold everything into a scalar cost for the
iterative-improvement search.

When handed a :class:`repro.cache.ArtifactCache`, the pipeline memoizes
every generated artifact by the description's structural fingerprint —
signature tables, fast cores, assembled workload binaries, synthesized
hardware models, and whole evaluations — so re-measuring a known candidate
(the common case inside an exploration sweep) costs a lookup instead of a
tool-chain run.
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass, field, fields as dc_fields, replace
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

from .. import obs
from ..cache import ArtifactCache, kernel_fingerprint
from ..codegen import Compiler
from ..codegen.ir import Kernel
from ..errors import CodegenError, ReproError
from ..encoding.signature import decode_preserved
from ..gensim.stats import SimulationStats
from ..gensim.xsim import XSim
from ..hgen import estimate_power
from ..isdl import ast, fingerprint
from ..isdl.fingerprint import fingerprint_delta
from ..tech.model import TechSpec

#: When set (to anything non-empty), every evaluation that reused parent
#: artifacts is re-run cold and the two results are assert-compared —
#: the debug net under the incremental tier's equal-to-cold invariant.
INCREMENTAL_CHECK_ENV = "REPRO_INCREMENTAL_CHECK"


@dataclass
class CostWeights:
    """Exponents of the weighted-geometric cost function.

    ``cost = runtime^wt · area^wa · power^wp`` — runtime in µs, area in
    grid cells, power in mW.  Embedded targets (paper §1: "low cost and low
    power") weight area and power; a performance target sets them to 0.
    """

    runtime: float = 1.0
    area: float = 0.35
    power: float = 0.25


@dataclass
class Evaluation:
    """Everything measured about one candidate architecture."""

    name: str
    feasible: bool
    reason: str = ""
    cycles: int = 0
    stall_cycles: int = 0
    cycle_ns: float = 0.0
    die_size: float = 0.0
    core_die_size: float = 0.0
    power_mw: float = 0.0
    verilog_lines: int = 0
    synthesis_seconds: float = 0.0
    stats: Optional[SimulationStats] = None
    per_kernel_cycles: Dict[str, int] = field(default_factory=dict)
    weights: Optional[CostWeights] = None
    fingerprint: str = ""
    # Technology axis (None/False on baseline evaluations)
    tech_node: Optional[int] = None
    tech_flavor: Optional[str] = None
    vdd: Optional[float] = None
    budget_mw: Optional[float] = None
    power_capped: bool = False

    @property
    def runtime_us(self) -> float:
        return self.cycles * self.cycle_ns / 1000.0

    @property
    def clock_mhz(self) -> float:
        return 1000.0 / self.cycle_ns if self.cycle_ns else 0.0

    @property
    def tech_spec(self) -> Optional[TechSpec]:
        """The technology this candidate was evaluated in, if any."""
        if self.tech_node is None:
            return None
        return TechSpec(self.tech_node, self.tech_flavor or "HP",
                        self.budget_mw)

    def cost(self, weights: Optional[CostWeights] = None) -> float:
        weights = weights or self.weights or CostWeights()
        if not self.feasible:
            return float("inf")
        return (
            max(self.runtime_us, 1e-9) ** weights.runtime
            * max(self.die_size, 1.0) ** weights.area
            * max(self.power_mw, 1e-6) ** weights.power
        )

    def summary(self) -> str:
        if not self.feasible:
            return f"{self.name}: INFEASIBLE ({self.reason})"
        spec = self.tech_spec
        suffix = ""
        if spec is not None:
            suffix = f" [{spec.suffix()[1:]}"
            if self.power_capped:
                suffix += ", capped"
            suffix += "]"
        return (
            f"{self.name}: {self.cycles} cycles @ {self.cycle_ns:.1f} ns ="
            f" {self.runtime_us:.2f} µs, die {self.die_size:,.0f} cells,"
            f" {self.power_mw:.1f} mW{suffix}"
        )


@dataclass(frozen=True, eq=False)
class Measurement:
    """How a candidate is measured: everything but the candidate itself.

    The five axes of one Figure-1 measurement — workload kernels, step
    budget, simulator backend, cost weights, technology point — as one
    picklable value that the evaluator, its pool workers and the serve
    jobs carry instead of threading the axes by hand.  Equality and
    hashing go through the kernels' fingerprints, not the ``Kernel``
    objects, so two measurements built from equal kernels are one
    measurement (one serve batch, one pooled evaluator).
    """

    kernels: Tuple[Kernel, ...]
    max_steps: int = 500_000
    backend: str = "xsim"
    weights: Optional[CostWeights] = None
    tech: Optional[TechSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernels", tuple(self.kernels))

    @cached_property
    def kernel_fingerprints(self) -> Tuple[str, ...]:
        return tuple(kernel_fingerprint(k) for k in self.kernels)

    def key(self, fp: str) -> Tuple:
        """The evaluation-cache key of candidate *fp* under this measurement.

        Weights stay out: cost is computed on read, so one cached
        evaluation serves every weight vector.  Backends are
        cycle-identical but still separate entries, so a cached
        evaluation carries the statistics its backend produced.
        """
        return (fp, self.kernel_fingerprints, self.max_steps, self.backend,
                None if self.tech is None else self.tech.cache_key)

    def _identity(self) -> Tuple:
        # the cache key with the candidate left blank, plus the weights
        weights = None if self.weights is None else astuple(self.weights)
        return self.key(""), weights

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Measurement):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())


def evaluate(
    desc: ast.Description,
    kernels: Sequence[Kernel],
    max_steps: int = 500_000,
    name: Optional[str] = None,
    *,
    weights: Optional[CostWeights] = None,
    cache: Optional[ArtifactCache] = None,
    sim_backend: str = "xsim",
    memoize: bool = True,
    parent: Optional[ast.Description] = None,
    tech: Optional[TechSpec] = None,
) -> Evaluation:
    """Run the full Figure-1 measurement pipeline on one candidate.

    The axes (*kernels*, *max_steps*, *weights*, *sim_backend*, *tech*)
    form one :class:`Measurement`; see :func:`measure` for the rest.

    *tech* (keyword-only, a :class:`repro.tech.TechSpec`) measures the
    candidate in a scaled technology, optionally power-capped to the
    spec's ``budget_mw``.  Cycle *counts* are technology independent and
    stay shared; synthesis is projected (not re-run) and the power model
    re-estimated, with the spec folded into the evaluation cache key.

    *weights* (keyword-only) is attached to the result so
    :meth:`Evaluation.cost` can be called without repeating them.
    *sim_backend* selects the executor (see
    :func:`repro.gensim.simulator_for`): ``"xsim"`` keeps the full
    utilization statistics that the improvement heuristics read;
    ``"block"`` trades them for raw cycle-count speed — right for sweeps
    scored on runtime/area/power alone.
    """
    return measure(
        desc, Measurement(kernels, max_steps, sim_backend, weights, tech),
        name, cache=cache, memoize=memoize, parent=parent,
    )


def measure(
    desc: ast.Description,
    measurement: Measurement,
    name: Optional[str] = None,
    *,
    cache: Optional[ArtifactCache] = None,
    memoize: bool = True,
    parent: Optional[ast.Description] = None,
) -> Evaluation:
    """Measure candidate *desc* as *measurement* says.

    *cache* memoizes generated artifacts and whole evaluations (keyed by
    :meth:`Measurement.key`) by structural fingerprint instead of
    rebuilding them internally.

    *memoize* controls only the whole-evaluation memo: with
    ``memoize=False`` the pipeline still shares artifact-level caches
    (signature tables, cores, programs, synthesis) but always re-runs
    the measurement itself — what the evaluation service's no-dedup
    baseline and simulator-noise studies need.

    *parent* names the description this candidate was mutated from.  It
    changes nothing about *what* is computed — cache keys and results
    are identical with or without it — but on a cache miss the pipeline
    builds artifacts *incrementally* off the parent's cached ones:
    signature rows, compiled simulator routines and blocks, hardware
    sub-structures, assembled programs, and whole simulation results are
    carried over wherever the fingerprint delta proves the relevant
    description units byte-identical.  Set the
    ``REPRO_INCREMENTAL_CHECK`` environment variable to re-run every
    parent-assisted evaluation cold and assert the results equal.
    """
    label = name or desc.name
    if cache is None:
        with obs.span("explore.evaluate", candidate=label):
            return _evaluate_uncached(desc, measurement, label)
    with obs.span("explore.evaluate", candidate=label):
        fp = fingerprint(desc)
        if not memoize:
            return _evaluate_uncached(desc, measurement, label, cache, fp,
                                      parent)
        evaluation = cache.evaluation(
            measurement.key(fp),
            lambda: _evaluate_uncached(desc, measurement, label, cache, fp,
                                       parent),
        )
    # A hit may carry another run's label/weights; normalize without
    # touching the cached instance.
    weights = measurement.weights
    if evaluation.name != label or evaluation.weights != weights:
        evaluation = replace(evaluation, name=label, weights=weights)
    return evaluation


def _copy_stats(stats: SimulationStats) -> SimulationStats:
    """A merge-safe copy: fresh counters/dicts, scalar fields shared.

    Simulation results now live in the artifact cache (the ``"sim"``
    kind), so the stats merge below must never mutate the instance it was
    handed — the next evaluation of the same candidate reads it again.
    """
    values = {}
    for fld in dc_fields(stats):
        value = getattr(stats, fld.name)
        values[fld.name] = value.copy() if hasattr(value, "copy") else value
    return type(stats)(**values)


def _evaluate_uncached(
    desc: ast.Description,
    measurement: Measurement,
    label: str,
    cache: Optional[ArtifactCache] = None,
    fp: Optional[str] = None,
    parent: Optional[ast.Description] = None,
    _checked: bool = False,
) -> Evaluation:
    kernels, max_steps = measurement.kernels, measurement.max_steps
    weights, tech = measurement.weights, measurement.tech
    sim_backend = measurement.backend
    fp = fp or (fingerprint(desc) if cache is not None else "")
    # Resolve the technology up front so an unknown node fails loudly
    # before any tool-chain work; tech_fields stays empty on the
    # baseline path, keeping its Evaluation constructions byte-identical.
    tech_model = tech.model() if tech is not None else None
    tech_fields = {} if tech is None else {
        "tech_node": tech.node_nm,
        "tech_flavor": tech.flavor,
        "budget_mw": tech.budget_mw,
    }
    if (parent is not None and not _checked
            and os.environ.get(INCREMENTAL_CHECK_ENV)):
        return _checked_incremental(desc, measurement, label, cache, fp,
                                    parent)
    # 1. Retarget the compiler; an unfit ISA is a legitimate negative result.
    try:
        compiler = Compiler(desc)
        if cache is None:
            programs = [
                (kernel.name, compiler.compile_to_words(kernel), None)
                for kernel in kernels
            ]
        else:
            programs = [
                (
                    kernel.name,
                    cache.assembled(
                        desc, kernel,
                        lambda k=kernel: compiler.compile_to_words(k),
                        fp=fp, parent=parent,
                    ),
                    kernel_fingerprint(kernel),
                )
                for kernel in kernels
            ]
    except (CodegenError, ReproError) as exc:
        return Evaluation(label, feasible=False, reason=str(exc),
                          weights=weights, fingerprint=fp, **tech_fields)
    # 2. Simulate every kernel on the generated ILS.  The signature table
    #    and the fast core are pure functions of the description, so with a
    #    cache they are generated once and shared by every simulator.
    table = (cache.signature_table(desc, fp, parent=parent)
             if cache is not None else None)
    core = (cache.fast_core(desc, fp, parent=parent)
            if cache is not None else "generated")
    delta = parent_fp = None
    if cache is not None and parent is not None:
        delta = fingerprint_delta(parent, desc)
        parent_fp = cache.description_fingerprint(parent)
    total_cycles = 0
    total_stalls = 0
    merged_stats: Optional[SimulationStats] = None
    per_kernel: Dict[str, int] = {}
    for kernel_name, program, kfp in programs:

        def run_kernel(program=program, kfp=kfp) -> SimulationStats:
            # Sim-result adoption: with the whole simulation environment
            # (format, tokens, NTs, storages, fields, attributes) proved
            # unchanged, the identical program decoding to identical
            # operations must execute identically — adopt the parent's
            # cached result without running a single instruction.
            if delta is not None and delta.sim_env_unchanged:
                parent_stats = cache.peek(
                    "sim", (parent_fp, kfp, max_steps, sim_backend)
                )
                parent_program = cache.peek("program", (parent_fp, kfp))
                if (
                    parent_stats is not None
                    and parent_program is not None
                    and list(parent_program.words) == list(program.words)
                    and parent_program.origin == program.origin
                    and decode_preserved(table, desc, program.words, delta)
                ):
                    obs.add("explore.sim_reused")
                    cache.note_incremental("sim", {"reused": 1})
                    return parent_stats
            if sim_backend == "xsim":
                sim = XSim(desc, table=table, core=core)
            elif sim_backend == "block":
                from ..gensim.blocksim import BlockSimulator

                sim = BlockSimulator(desc, table=table, cache=cache,
                                     parent=parent)
            else:
                from ..gensim.protocol import simulator_for

                sim = simulator_for(desc, sim_backend, table=table)
            sim.load_words(program.words, program.origin)
            return sim.run_to_completion(max_steps)

        try:
            if cache is not None:
                stats = cache.get_or_build(
                    "sim", (fp, kfp, max_steps, sim_backend), run_kernel
                )
            else:
                stats = run_kernel()
        except ReproError as exc:
            # e.g. the program no longer fits a shrunken instruction
            # memory, or it fails to halt on this candidate
            return Evaluation(
                label, feasible=False,
                reason=f"kernel {kernel_name!r}: {exc}",
                weights=weights, fingerprint=fp, **tech_fields,
            )
        per_kernel[kernel_name] = stats.cycles
        total_cycles += stats.cycles
        total_stalls += stats.stall_cycles
        if merged_stats is None:
            merged_stats = _copy_stats(stats)
        else:
            merged_stats.cycles += 0  # totals tracked separately
            merged_stats.op_counts.update(stats.op_counts)
            merged_stats.field_busy.update(stats.field_busy)
            merged_stats.instructions += stats.instructions
    # 3. Synthesize the hardware model (projected, not re-run, when a
    #    technology is set — the synth cache stays technology-free).
    if cache is None:
        from ..hgen import synthesize

        model = synthesize(desc, tech=tech_model)
    else:
        model = cache.synthesized(desc, fp, parent=parent, tech=tech_model)
    with obs.span("hgen.power"):
        power = estimate_power(
            desc, model.netlist, model.clock_mhz, stats=merged_stats,
            area=model.area, tech=tech_model,
            budget_mw=tech.budget_mw if tech is not None else None,
        )
    cycle_ns = model.cycle_ns
    if power.capped and power.frequency_mhz > 0:
        # dark-silicon capping slows the clock below the timing-closure
        # cycle; runtime must be charged at the operating point's clock
        cycle_ns = 1000.0 / power.frequency_mhz
    if tech is not None:
        tech_fields = dict(tech_fields, vdd=power.vdd,
                           power_capped=power.capped)
    return Evaluation(
        name=label,
        feasible=True,
        cycles=total_cycles,
        stall_cycles=total_stalls,
        cycle_ns=cycle_ns,
        die_size=model.die_size,
        core_die_size=model.core_die_size,
        power_mw=power.total_mw,
        verilog_lines=model.verilog_lines,
        synthesis_seconds=model.synthesis_seconds,
        stats=merged_stats,
        per_kernel_cycles=per_kernel,
        weights=weights,
        fingerprint=fp,
        **tech_fields,
    )


#: Evaluation fields the equal-to-cold debug check compares (everything
#: deterministic; synthesis_seconds is wall-clock and excluded).
_CHECK_FIELDS = (
    "feasible", "reason", "cycles", "stall_cycles", "cycle_ns",
    "die_size", "core_die_size", "power_mw", "verilog_lines",
    "per_kernel_cycles", "tech_node", "tech_flavor", "vdd", "budget_mw",
    "power_capped",
)


def _checked_incremental(
    desc: ast.Description,
    measurement: Measurement,
    label: str,
    cache: Optional[ArtifactCache],
    fp: str,
    parent: ast.Description,
) -> Evaluation:
    """Run incrementally *and* cold, assert-compare, return the incremental.

    The debug net behind ``REPRO_INCREMENTAL_CHECK``: every
    parent-assisted evaluation is shadowed by a from-scratch one (no
    cache, no parent) and any metric divergence raises.
    """
    incremental = _evaluate_uncached(desc, measurement, label, cache, fp,
                                     parent, _checked=True)
    cold = _evaluate_uncached(desc, measurement, label)
    for name in _CHECK_FIELDS:
        got, want = getattr(incremental, name), getattr(cold, name)
        if got != want:
            raise AssertionError(
                f"incremental evaluation diverged from cold build on"
                f" {name!r}: {got!r} != {want!r} (candidate {label!r})"
            )
    return incremental
