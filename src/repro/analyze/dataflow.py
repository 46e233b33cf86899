"""Worklist dataflow over decoded programs: facts, lints and proofs.

The per-construct passes in :mod:`repro.analyze.passes` look at one
operation (or one pair) at a time.  This module adds whole-program
reasoning over the basic-block CFG that :mod:`repro.gensim.cfg`
discovers: a generic worklist fixpoint engine (:func:`fixpoint`) plus
four concrete lattices —

* **PC-target resolution** — every program-counter write of a decoded
  instruction is constant-folded (operands and the instruction's own
  address are compile-time constants) into an explicit successor set;
* **constant propagation** — scalar storages carrying statically known
  values across block boundaries (join = agree-or-unknown);
* **reaching writes** — which ``(storage, writer offset)`` pairs can
  reach each block entry (join = union, forward);
* **liveness** — which storages a later *execution* may still read
  (join = union, backward; final-state observability is deliberately
  out of scope — the lattice answers "can this value change what the
  program does next", which is the question dead-write elision asks).

The facts feed the ``ISDL6xx`` diagnostics of :func:`pass_dataflow`
(registered in :data:`repro.analyze.passes.ALL_PASSES`) — unreachable
blocks, provably never-halting programs, always-false guards, dead
conditional writes, and storages written-but-never-read across every
supplied workload program.  Every call is a cold build: ``repro-lint``
analyzes each description × program pair once, and no evaluation path
derives facts (DESIGN.md §13).

Two **proof certificates** are derived from the facts as analysis
objects: :class:`DeoptFreedom` (no self-modifying stores, every PC
target resolved, no write outlives its block) and
:class:`SuperblockChain` (maximal single-successor resolved chains).
Each ships with an independent checker (:func:`check_deopt_freedom`,
:func:`check_superblock_chains`) that re-derives every claim from the
description and program words alone.  No simulator consumes them:
deriving the facts at load time cost cold ``block`` evaluations more
than the guards they elided (DESIGN.md §13).  They stay because the
pipeline benchmark's per-layer attribution (``perfbench/layers.py``)
binds all four functions by name; they go with the next benchmark
revision.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .. import obs
from ..encoding.bits import mask
from ..encoding.signature import SignatureTable
from ..isdl import ast, rtl
from ..isdl.fingerprint import fingerprint

__all__ = [
    "fixpoint",
    "InstrFacts",
    "BlockFacts",
    "ProgramFacts",
    "ArchFacts",
    "program_facts",
    "arch_facts",
    "DeoptFreedom",
    "SuperblockChain",
    "derive_deopt_freedom",
    "derive_superblock_chains",
    "check_deopt_freedom",
    "check_superblock_chains",
    "words_digest",
]

#: Fused superblock chains are capped at this many instructions so one
#: pathological chain cannot dominate compile time.
MAX_CHAIN_LEN = 256


# ---------------------------------------------------------------------------
# The generic worklist engine
# ---------------------------------------------------------------------------


def fixpoint(
    nodes: Sequence,
    edges: Mapping,
    transfer: Callable,
    join: Callable,
    init: Callable,
    *,
    direction: str = "forward",
) -> Dict:
    """Solve a monotone dataflow problem to its least fixpoint.

    *nodes* is the node set, *edges* maps each node to its (forward)
    successors, ``transfer(node, in_fact)`` produces the node's out
    fact, ``join(a, b)`` merges facts along confluent edges, and
    ``init(node)`` seeds the in fact of nodes with no incoming edges
    (every node starts there, so unreachable nodes still get a sound
    fact).  ``direction="backward"`` flips the edges.  Returns
    ``{node: (in_fact, out_fact)}``.

    The worklist is seeded in the given node order and processed FIFO,
    so for a fixed input the iteration order — and therefore the result,
    even for non-distributive frameworks — is deterministic.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    nodes = list(nodes)
    flow: Dict = {n: [] for n in nodes}
    into: Dict = {n: [] for n in nodes}
    for node in nodes:
        for succ in edges.get(node, ()):
            if succ not in flow:
                continue
            if direction == "forward":
                flow[node].append(succ)
                into[succ].append(node)
            else:
                flow[succ].append(node)
                into[node].append(succ)
    in_facts = {n: init(n) for n in nodes}
    out_facts = {n: transfer(n, in_facts[n]) for n in nodes}
    pending = deque(nodes)
    queued = set(nodes)
    while pending:
        node = pending.popleft()
        queued.discard(node)
        merged = in_facts[node]
        for pred in into[node]:
            merged = join(merged, out_facts[pred])
        in_facts[node] = merged
        out = transfer(node, merged)
        if out == out_facts[node]:
            continue
        out_facts[node] = out
        for succ in flow[node]:
            if succ not in queued:
                queued.add(succ)
                pending.append(succ)
    return {n: (in_facts[n], out_facts[n]) for n in nodes}


# ---------------------------------------------------------------------------
# Per-instruction facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstrFacts:
    """Static summary of one decoded instruction at one address."""

    offset: int
    size: int
    reads: FrozenSet[str]
    writes: FrozenSet[str]
    #: ``(storage, value, definite)`` per scalar write, in RTL order.
    #: ``definite`` means unguarded and whole-storage (a *must* write
    #: that fully redefines the scalar); ``value`` is the statically
    #: known written value for definite writes, else None
    scalar_writes: Tuple[Tuple[str, Optional[int], bool], ...]
    writes_pc: bool
    conditional_pc: bool
    writes_imem: bool
    unresolved: bool
    #: "none" | "maybe" | "always" — does the instruction raise the halt
    #: flag (to a provably non-zero value, unguarded, for "always")
    halts: str
    #: resolved absolute branch-target addresses; None when some PC
    #: write could not be constant-folded
    pc_targets: Optional[Tuple[int, ...]]
    max_latency: int
    #: ``if`` guards that constant-fold to 0 under the decoded operands
    false_guards: Tuple[str, ...]


class _InstrAnalyzer:
    """Folds one decoded instruction's RTL into an :class:`InstrFacts`."""

    def __init__(self, desc: ast.Description):
        from ..gensim.cfg import ControlFlowAnalyzer
        from ..gensim.core import INTRINSIC_IMPLS

        self.desc = desc
        self.cfa = ControlFlowAnalyzer(desc)
        self.pc = self.cfa._pc
        self.pc_mask = mask(desc.storages[self.pc].width)
        self.imem = desc.instruction_memory().name
        self.halt = self.cfa._halt
        self.intrinsics = INTRINSIC_IMPLS

    def _alias_base(self, name: str) -> str:
        alias = self.desc.aliases.get(name)
        return alias.storage if alias is not None else name

    def _read_oracle(self, address: int):
        """Storage-read oracle for const-eval: only the PC is known —
        during execution it holds the current instruction's address."""

        def read(node: rtl.StorageRead) -> Optional[int]:
            alias = self.desc.aliases.get(node.storage)
            if alias is not None:
                if alias.storage != self.pc or alias.index is not None \
                        or alias.hi is not None:
                    return None
                return address
            if node.storage == self.pc and node.index is None:
                return address
            return None

        return read

    def _const(self, expr: rtl.Expr, env, address: int) -> Optional[int]:
        return rtl.try_const_eval(
            expr, env, reads=self._read_oracle(address),
            intrinsics=self.intrinsics,
        )

    def summarize(self, decoded, offset: int, address: int) -> InstrFacts:
        flow = self.cfa.flow(decoded)
        scan = _RtlScan(self, address)

        def scan_unit(unit, operands) -> None:
            env = {
                name: value for name, value in operands.items()
                if isinstance(value, int)
            }
            bindings = self.cfa._nt_bindings(unit.params, operands)
            scan.stmts(list(unit.action) + list(unit.side_effect),
                       env, bindings, ())
            for pname, (option, _sub) in bindings.items():
                _label, sub_operands = operands[pname]
                scan_unit(option, sub_operands)

        for dop in decoded.operations:
            scan_unit(self.desc.operation(dop.field, dop.op_name),
                      dop.operands)
        if flow.writes_pc and not scan.pc_unresolved:
            targets: Optional[Tuple[int, ...]] = tuple(
                sorted({t & self.pc_mask for t in scan.pc_targets})
            )
        else:
            targets = None if flow.writes_pc else ()
        return InstrFacts(
            offset=offset,
            size=flow.size,
            reads=frozenset(scan.reads),
            writes=frozenset(scan.writes),
            scalar_writes=tuple(scan.scalar_writes),
            writes_pc=flow.writes_pc,
            conditional_pc=flow.conditional_pc,
            writes_imem=flow.writes_imem,
            unresolved=flow.unresolved,
            halts=scan.halts,
            pc_targets=targets,
            max_latency=flow.max_latency,
            false_guards=tuple(scan.false_guards),
        )


class _RtlScan:
    """One statement walk collecting reads, writes, PC targets, halt
    behaviour and constant-false guards, guard status threaded through.

    ``guards`` is a tuple of per-``if`` statuses: True (provably taken),
    None (unknown).  Branches whose guard folds to a constant restrict
    the walk to the taken side, which is what makes ``halts="always"``
    and PC-target sets precise on guarded RTL.
    """

    def __init__(self, owner: _InstrAnalyzer, address: int):
        self.owner = owner
        self.address = address
        self.reads: set = set()
        self.writes: set = set()
        self.scalar_writes: List[Tuple[str, Optional[int]]] = []
        self.pc_targets: List[int] = []
        self.pc_unresolved = False
        self.halts = "none"
        self.false_guards: List[str] = []

    def stmts(self, statements, env, bindings, guards) -> None:
        for stmt in statements:
            if isinstance(stmt, rtl.Assign):
                self._assign(stmt, env, bindings, guards)
            elif isinstance(stmt, rtl.If):
                self._reads_in(stmt.cond)
                value = self.owner._const(stmt.cond, env, self.address)
                if value is not None and not value:
                    self.false_guards.append(rtl.format_expr(stmt.cond))
                    self.stmts(stmt.orelse, env, bindings, guards)
                elif value:
                    self.stmts(stmt.then, env, bindings, guards)
                else:
                    self.stmts(stmt.then, env, bindings, guards + (None,))
                    self.stmts(stmt.orelse, env, bindings, guards + (None,))

    def _assign(self, stmt, env, bindings, guards) -> None:
        self._reads_in(stmt.expr)
        dest = stmt.dest
        if isinstance(dest, rtl.NtLV):
            return
        if isinstance(dest, rtl.ParamLV):
            binding = bindings.get(dest.name)
            target = binding[0].storage_target() if binding else None
            if target is None:
                return  # flow.unresolved already covers this
            dest = target
        if dest.index is not None:
            self._reads_in(dest.index)
        alias = self.owner.desc.aliases.get(dest.storage)
        base = self.owner._alias_base(dest.storage)
        self.writes.add(base)
        unguarded = not guards
        #: a slice assignment (directly or through a sliced/indexed
        #: alias) only redefines part of the storage
        partial = (
            dest.hi is not None
            or (alias is not None
                and (alias.hi is not None or alias.index is not None))
        )
        value = self.owner._const(stmt.expr, env, self.address)
        if base == self.owner.pc:
            if value is None or partial:
                self.pc_unresolved = True
            else:
                self.pc_targets.append(value)
            return
        if self.owner.halt is not None and base == self.owner.halt:
            if unguarded and value is not None and value != 0 \
                    and not partial:
                self.halts = "always"
            elif self.halts != "always":
                self.halts = "maybe"
        storage = self.owner.desc.storages.get(base)
        if storage is not None and not storage.addressed:
            definite = unguarded and not partial
            self.scalar_writes.append(
                (base, value if definite else None, definite)
            )

    def _reads_in(self, expr) -> None:
        for node in rtl.walk_exprs(expr):
            if isinstance(node, rtl.StorageRead):
                self.reads.add(self.owner._alias_base(node.storage))


# ---------------------------------------------------------------------------
# Per-block and per-program facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockFacts:
    """One discovered basic block plus its fixpoint facts."""

    start: int
    offsets: Tuple[int, ...]
    #: successor block entry offsets (falling off the program is an
    #: implicit exit edge, not listed here)
    succs: Tuple[int, ...]
    ends_in_branch: bool
    capped: bool
    #: some successor could not be resolved statically
    succs_unknown: bool
    #: control may leave the loaded program (runtime error unless halted)
    may_exit: bool
    reads: FrozenSet[str]
    writes: FrozenSet[str]
    #: scalar -> value known on entry / exit (constant propagation)
    const_in: Tuple[Tuple[str, int], ...]
    const_out: Tuple[Tuple[str, int], ...]
    #: (storage, writer offset) pairs reaching entry / exit
    reach_in: FrozenSet[Tuple[str, int]]
    reach_out: FrozenSet[Tuple[str, int]]
    #: storages a later execution may read, at entry / exit
    live_in: FrozenSet[str]
    live_out: FrozenSet[str]


@dataclass
class ProgramFacts:
    """Whole-program dataflow facts for one loaded word image."""

    name: str
    origin: int
    n_words: int
    #: content digest of ``(origin, words)`` — stamps certificates
    digest: str
    #: entry block offset (PC resets to address 0); None when address 0
    #: is outside the loaded image
    entry: Optional[int]
    instr: Dict[int, InstrFacts]
    blocks: Dict[int, BlockFacts]
    reachable: FrozenSet[int]
    #: every reachable successor was resolved — reachability is exact
    complete: bool
    #: False: provably never halts; None: not provable either way
    halting: Optional[bool]
    reads: FrozenSet[str]
    writes: FrozenSet[str]

    @property
    def reachable_offsets(self) -> FrozenSet[int]:
        out = set()
        for start in self.reachable:
            out.update(self.blocks[start].offsets)
        return frozenset(out)


@dataclass
class ArchFacts:
    """Facts for one description across a set of workload programs."""

    desc_fp: str
    programs: Dict[str, ProgramFacts]

    @property
    def complete(self) -> bool:
        return all(p.complete for p in self.programs.values())


def words_digest(words: Sequence[int], origin: int) -> str:
    payload = repr((origin, tuple(words))).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _build_blocks(analyzer: _InstrAnalyzer, instr: Dict[int, InstrFacts],
                  flows, origin: int, n_words: int):
    """Discover entry-reachable blocks and their successor edges."""
    from ..gensim.cfg import block_span

    entry = 0 - origin
    if not (0 <= entry < n_words) or flows[entry] is None:
        return None, {}, False
    raw: Dict[int, Dict] = {}
    complete = True
    pending = deque([entry])
    while pending:
        start = pending.popleft()
        if start in raw:
            continue
        span = block_span(flows, start)
        if not span:
            raw[start] = dict(span=(), succs=(), unknown=True, exit=True)
            complete = False
            continue
        last = instr[span[-1]]
        succs: List[int] = []
        unknown = False
        may_exit = False
        fall = span[-1] + last.size
        if last.unresolved or (last.writes_pc and last.pc_targets is None):
            unknown = True
            complete = False
        else:
            if last.writes_pc:
                for target in last.pc_targets:
                    offset = target - origin
                    if 0 <= offset < n_words and flows[offset] is not None:
                        succs.append(offset)
                    else:
                        may_exit = True
            if not last.writes_pc or last.conditional_pc:
                if 0 <= fall < n_words and flows[fall] is not None:
                    succs.append(fall)
                else:
                    may_exit = True
        raw[start] = dict(
            span=span, succs=tuple(dict.fromkeys(succs)),
            unknown=unknown, exit=may_exit,
        )
        for succ in raw[start]["succs"]:
            if succ not in raw:
                pending.append(succ)
    return entry, raw, complete


def _program_fixpoints(instr: Dict[int, InstrFacts], raw: Dict[int, Dict],
                       entry: int, analyzer: _InstrAnalyzer):
    """Run the three block-level lattices over the discovered CFG."""
    starts = sorted(raw)
    edges = {s: raw[s]["succs"] for s in starts}

    def block_summary(start):
        reads: set = set()
        writes: set = set()
        for offset in raw[start]["span"]:
            facts = instr[offset]
            reads |= facts.reads
            writes |= facts.writes
        return reads, writes

    summaries = {s: block_summary(s) for s in starts}

    # Constant propagation: {scalar: value}, absence = unknown, with a
    # None sentinel for "not yet reached" (the identity of the
    # agree-or-unknown join — a plain {} seed would wrongly drop every
    # constant at the first merge).
    def const_transfer(start, env):
        if env is None:
            return None
        env = dict(env)
        for offset in raw[start]["span"]:
            for name, value, definite in instr[offset].scalar_writes:
                if definite and value is not None:
                    env[name] = value & mask(
                        analyzer.desc.storages[name].width
                    )
                else:
                    env.pop(name, None)
            # array writes never touch env; sliced-alias writes appear
            # as non-definite scalar_write entries and invalidate
        return env

    def const_join(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return {k: v for k, v in a.items() if b.get(k) == v}

    const = fixpoint(
        starts, edges, const_transfer, const_join,
        # entry state: nothing known (storage persists across resets)
        lambda s: {} if s == entry else None,
    )

    # Reaching writes: {(storage, offset)}.
    def reach_transfer(start, incoming):
        out = set(incoming)
        for offset in raw[start]["span"]:
            written = instr[offset].writes
            out = {p for p in out if p[0] not in written}
            out |= {(name, offset) for name in written}
        return frozenset(out)

    reach = fixpoint(
        starts, edges, reach_transfer,
        lambda a, b: frozenset(a | b), lambda s: frozenset(),
    )

    # Liveness (backward): storages a later execution may read.  The
    # boundary is empty — observability of the *final* state is not the
    # question this lattice answers (see the module docstring).
    def live_transfer(start, live_out):
        live = set(live_out)
        for offset in reversed(raw[start]["span"]):
            facts = instr[offset]
            # kill only *definite* (unguarded, whole-storage) scalar
            # writes; array, sliced and guarded writes may leave old
            # contents visible and so must not kill
            for name, _value, definite in facts.scalar_writes:
                if definite:
                    live.discard(name)
            live |= facts.reads
        return frozenset(live)

    live = fixpoint(
        starts, edges, live_transfer,
        lambda a, b: frozenset(a | b), lambda s: frozenset(),
        direction="backward",
    )

    blocks: Dict[int, BlockFacts] = {}
    for start in starts:
        info = raw[start]
        reads, writes = summaries[start]
        last = instr[info["span"][-1]] if info["span"] else None
        capped = bool(
            info["span"]
            and not (last.writes_pc or last.unresolved)
            and info["succs"]
        )
        blocks[start] = BlockFacts(
            start=start,
            offsets=tuple(info["span"]),
            succs=info["succs"],
            ends_in_branch=bool(last and last.writes_pc),
            capped=capped,
            succs_unknown=info["unknown"],
            may_exit=info["exit"],
            reads=frozenset(reads),
            writes=frozenset(writes),
            const_in=tuple(sorted((const[start][0] or {}).items())),
            const_out=tuple(sorted((const[start][1] or {}).items())),
            reach_in=reach[start][0],
            reach_out=reach[start][1],
            live_in=live[start][1],  # backward: transfer output is "in"
            live_out=live[start][0],
        )
    return blocks


def _decode(desc: ast.Description, words: Sequence[int],
            table: SignatureTable) -> List:
    from ..gensim.disassembler import Disassembler

    disasm = Disassembler(desc, table)
    return [disasm.disassemble(word) for word in words]


def _build_program_facts(desc: ast.Description, words: Sequence[int],
                         origin: int, name: str,
                         table: SignatureTable) -> ProgramFacts:
    analyzer = _InstrAnalyzer(desc)
    decoded = _decode(desc, words, table)
    flows = analyzer.cfa.flows_for_program(decoded)
    n_words = len(words)
    instr: Dict[int, InstrFacts] = {
        offset: analyzer.summarize(decoded[offset], offset, origin + offset)
        for offset in range(n_words)
        if flows[offset] is not None
    }
    entry, raw, complete = _build_blocks(
        analyzer, instr, flows, origin, n_words
    )
    blocks: Dict[int, BlockFacts] = {}
    halting: Optional[bool] = None
    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()
    if entry is not None and raw:
        blocks = _program_fixpoints(instr, raw, entry, analyzer)
        all_reads: set = set()
        all_writes: set = set()
        halts = "none"
        may_exit = False
        for facts in blocks.values():
            all_reads |= facts.reads
            all_writes |= facts.writes
            may_exit = may_exit or facts.may_exit
            for offset in facts.offsets:
                if instr[offset].halts == "always":
                    halts = "always"
                elif instr[offset].halts == "maybe" and halts == "none":
                    halts = "maybe"
        reads = frozenset(all_reads)
        writes = frozenset(all_writes)
        # "provably never halts" needs exact reachability, no reachable
        # halt write, and no escape from the loaded image (running off
        # the program ends the run too, just not by halting)
        if complete and halts == "none" and not may_exit:
            halting = False
    else:
        complete = False
    return ProgramFacts(
        name=name,
        origin=origin,
        n_words=n_words,
        digest=words_digest(words, origin),
        entry=entry,
        instr=instr,
        blocks=blocks,
        reachable=frozenset(blocks),
        complete=complete,
        halting=halting,
        reads=reads,
        writes=writes,
    )


def program_facts(desc: ast.Description, words: Sequence[int],
                  origin: int = 0, *, name: str = "<program>"
                  ) -> ProgramFacts:
    """Dataflow facts for *words* loaded at *origin* under *desc*."""
    with obs.span("analyze.dataflow", desc=desc.name, program=name):
        return _build_program_facts(desc, words, origin, name,
                                    SignatureTable(desc))


def arch_facts(desc: ast.Description,
               programs: Sequence[Tuple[str, Sequence[int], int]]
               ) -> ArchFacts:
    """Facts for every ``(name, words, origin)`` program under *desc*
    (one signature table decodes them all)."""
    table = SignatureTable(desc)
    facts: Dict[str, ProgramFacts] = {}
    for name, words, origin in programs:
        with obs.span("analyze.dataflow", desc=desc.name, program=name):
            facts[name] = _build_program_facts(desc, words, origin, name,
                                               table)
    return ArchFacts(desc_fp=fingerprint(desc), programs=facts)


# ---------------------------------------------------------------------------
# Proof certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeoptFreedom:
    """Proof that a program can run without runtime deopt guards.

    Claims, over every entry-reachable instruction: no instruction
    memory write (no self-modifying code), no statically unresolvable
    destination, every PC write constant-folds, and no write latency
    exceeds one cycle (so no write ever outlives its block — the
    latency-residue machinery is never needed).  ``blocks`` is the
    reachable block cover; soundness needs it *closed* under the
    successor relation, which the checker re-derives.
    """

    desc_fp: str
    program_digest: str
    entry: int
    blocks: Tuple[int, ...]


@dataclass(frozen=True)
class SuperblockChain:
    """Certified single-successor block chains for superblock fusion.

    Each chain is a sequence of block entry offsets where every link is
    either an *unconditional, resolved, single-target* PC write landing
    exactly on the next block's entry, or a capped/fall-through block
    whose next word is the next entry.  A fused compile of the chain is
    then execution-equivalent to dispatching the blocks one by one
    (halt exits inside the chain remain side exits).
    """

    desc_fp: str
    program_digest: str
    chains: Tuple[Tuple[int, ...], ...]


def derive_deopt_freedom(desc: ast.Description,
                         facts: ProgramFacts) -> Optional[DeoptFreedom]:
    """A :class:`DeoptFreedom` certificate, or None when not provable."""
    if not facts.complete or facts.entry is None:
        return None
    for start in facts.reachable:
        block = facts.blocks[start]
        if block.succs_unknown:
            return None
        for offset in block.offsets:
            instr = facts.instr[offset]
            if instr.writes_imem or instr.unresolved:
                return None
            if instr.writes_pc and instr.pc_targets is None:
                return None
            if instr.max_latency > 1:
                return None
    return DeoptFreedom(
        desc_fp=fingerprint(desc),
        program_digest=facts.digest,
        entry=facts.entry,
        blocks=tuple(sorted(facts.reachable)),
    )


def _chain_next(facts: ProgramFacts, start: int) -> Optional[int]:
    """The unique certified continuation of block *start*, if any."""
    block = facts.blocks[start]
    if block.succs_unknown or len(block.succs) != 1:
        return None
    if block.may_exit:
        return None
    last = facts.instr[block.offsets[-1]]
    if last.writes_pc:
        if last.conditional_pc or last.pc_targets is None \
                or len(last.pc_targets) != 1:
            return None
        # a branch whose PC write outlives its own boundary executes
        # with delay-slot semantics when dispatched unfused — fusing
        # would change behaviour, so only latency-1 terminators link
        if last.max_latency > 1:
            return None
    succ = block.succs[0]
    return succ if succ in facts.blocks else None


def derive_superblock_chains(desc: ast.Description,
                             facts: ProgramFacts) -> SuperblockChain:
    """Maximal certified chains (length ≥ 2 blocks) in *facts*."""
    chains: List[Tuple[int, ...]] = []
    if facts.complete:
        next_of = {
            start: _chain_next(facts, start)
            for start in sorted(facts.blocks)
        }
        preds: Dict[int, List[int]] = {s: [] for s in facts.blocks}
        for start in facts.blocks:
            for succ in facts.blocks[start].succs:
                if succ in preds:
                    preds[succ].append(start)
        for start in sorted(facts.blocks):
            if next_of.get(start) is None:
                continue
            # a block whose *only* way in is its unique predecessor's
            # chain link is pure interior — it never heads a dispatch.
            # Join points (several predecessors) head their own chain
            # even when another chain runs through them: the overlap is
            # superblock tail duplication, bounded by MAX_CHAIN_LEN.
            sole = preds[start]
            if (start != facts.entry and len(sole) == 1
                    and next_of.get(sole[0]) == start):
                continue
            chain = [start]
            length = len(facts.blocks[start].offsets)
            node = next_of[start]
            while (
                node is not None
                and node not in chain
                and length + len(facts.blocks[node].offsets) <= MAX_CHAIN_LEN
            ):
                chain.append(node)
                length += len(facts.blocks[node].offsets)
                node = next_of.get(node)
            if len(chain) >= 2:
                chains.append(tuple(chain))
    return SuperblockChain(
        desc_fp=fingerprint(desc),
        program_digest=facts.digest,
        chains=tuple(chains),
    )


# ---------------------------------------------------------------------------
# Certificate checkers (independent of the fixpoint engine)
# ---------------------------------------------------------------------------


def _checker_instr(desc: ast.Description, words: Sequence[int],
                   origin: int, table: SignatureTable):
    """(analyzer, flows, summarize-by-offset) re-derived from scratch."""
    analyzer = _InstrAnalyzer(desc)
    decoded = _decode(desc, words, table)
    flows = analyzer.cfa.flows_for_program(decoded)

    def summarize(offset: int) -> InstrFacts:
        return analyzer.summarize(decoded[offset], offset, origin + offset)

    return analyzer, flows, summarize


def check_deopt_freedom(desc: ast.Description, words: Sequence[int],
                        origin: int, cert: DeoptFreedom) -> bool:
    """Re-validate every :class:`DeoptFreedom` claim from first principles.

    Walks the certified block cover with a fresh analyzer (no fixpoint
    involved) and verifies: the entry block is covered, the cover is
    closed under resolved successors, and no covered instruction
    self-modifies, hides a destination, leaves a PC target unresolved,
    or writes with latency above one cycle.
    """
    from ..gensim.cfg import block_span

    if cert.desc_fp != fingerprint(desc):
        return False
    if cert.program_digest != words_digest(words, origin):
        return False
    analyzer, flows, summarize = _checker_instr(
        desc, words, origin, SignatureTable(desc)
    )
    covered = set(cert.blocks)
    entry = 0 - origin
    if cert.entry != entry or entry not in covered:
        return False
    n_words = len(words)
    for start in cert.blocks:
        if not (0 <= start < n_words) or flows[start] is None:
            return False
        span = block_span(flows, start)
        if not span:
            return False
        for offset in span:
            instr = summarize(offset)
            if instr.writes_imem or instr.unresolved:
                return False
            if instr.writes_pc and instr.pc_targets is None:
                return False
            if instr.max_latency > 1:
                return False
        last = summarize(span[-1])
        fall = span[-1] + last.size
        succs: List[int] = []
        if last.writes_pc:
            succs.extend(t - origin for t in last.pc_targets)
        if not last.writes_pc or last.conditional_pc:
            succs.append(fall)
        for succ in succs:
            if 0 <= succ < n_words and flows[succ] is not None \
                    and succ not in covered:
                return False
    return True


def check_superblock_chains(desc: ast.Description, words: Sequence[int],
                            origin: int, cert: SuperblockChain) -> bool:
    """Re-validate every chain link from first principles."""
    from ..gensim.cfg import block_span

    if cert.desc_fp != fingerprint(desc):
        return False
    if cert.program_digest != words_digest(words, origin):
        return False
    analyzer, flows, summarize = _checker_instr(
        desc, words, origin, SignatureTable(desc)
    )
    n_words = len(words)
    for chain in cert.chains:
        if len(chain) < 2:
            return False
        total = 0
        for i, start in enumerate(chain):
            if not (0 <= start < n_words) or flows[start] is None:
                return False
            span = block_span(flows, start)
            if not span:
                return False
            total += len(span)
            for offset in span:
                instr = summarize(offset)
                if instr.writes_imem or instr.unresolved:
                    return False
            if i == len(chain) - 1:
                continue
            last = summarize(span[-1])
            expected = origin + chain[i + 1]
            if last.writes_pc:
                if last.conditional_pc or last.pc_targets is None \
                        or last.max_latency > 1:
                    return False
                if last.pc_targets != (expected & analyzer.pc_mask,):
                    return False
            else:
                if span[-1] + last.size != chain[i + 1]:
                    return False
        if total > MAX_CHAIN_LEN:
            return False
    return True
