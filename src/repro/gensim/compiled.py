"""Compiled-code simulation (paper §6.2: "Additional speedups can be
obtained by a move to compiled-code simulators").

Where the interpretive XSIM walks the RTL AST on every execution, the
compiled simulator translates each *loaded instruction* into a closure tree
at load time: operand values are burned in as constants, storage accesses
become direct list/dict operations, and the two-phase semantics are
preserved by having the closures compute into a write list that the driver
commits.  Like real compiled-code simulators, the executable is specific to
one program (reload to change it) and trades the monitor hooks for speed —
state monitors and per-access statistics are not serviced in this mode.

Cycle accounting (costs, static stalls, latency delays) is identical to the
interpretive scheduler, so cycle counts and final state match XSIM exactly;
``tests/gensim/test_compiled.py`` asserts it.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..encoding.bits import mask, set_bits
from ..errors import SimulationError, StateError
from ..isdl import ast, rtl
from .core import INTRINSIC_IMPLS, _BINOPS, BoundNt, ProcessingCore
from .disassembler import DecodedInstruction, Disassembler
from .hazards import HazardAnalyzer
from .stats import RunResult, SimulationStats

#: an expression closure: (scalars, arrays) -> int
ExprFn = Callable[[dict, dict], int]
#: a statement closure appends (delay, phase, commit_fn) entries
StmtFn = Callable[[dict, dict, list], None]


def _make_commit(name: str, width: int, hi, lo, is_array: bool):
    """Build the commit closure for one resolved write location.

    Shared by the per-instruction closure compiler below and the
    block compiler's latency-residue slots
    (:mod:`repro.gensim.blocksim`), so both paths apply writes with
    identical masking semantics.
    """
    # default-arg binding (not closure cells) is deliberate: locals are
    # one dict lookup cheaper per commit on the hot path
    if hi is None:
        if is_array:
            def commit_fn(scalars, arrays, index, value,
                          _n=name, _m=mask(width)):  # noqa: B008
                arrays[_n][index] = value & _m
        else:
            def commit_fn(scalars, arrays, index, value,
                          _n=name, _m=mask(width)):  # noqa: B008
                scalars[_n] = value & _m
    else:
        effective_lo = lo if lo is not None else hi

        if is_array:
            def commit_fn(scalars, arrays, index, value,
                          _n=name, _hi=hi, _lo=effective_lo):
                arrays[_n][index] = set_bits(
                    arrays[_n][index], _hi, _lo, value
                )
        else:
            def commit_fn(scalars, arrays, index, value,
                          _n=name, _hi=hi, _lo=effective_lo):
                scalars[_n] = set_bits(scalars[_n], _hi, _lo, value)
    return commit_fn


def _storage_fault(exc: IndexError) -> StateError:
    """The reference cores' error for a generated routine's raw list
    access that ran off the end of a storage (the generated code does
    not bounds-check; the run boundary converts)."""
    return StateError(f"storage index out of range ({exc})")


class CompiledSimulator:
    """A program-specialized, cycle-accurate, bit-true simulator."""

    def __init__(self, desc: ast.Description, table=None):
        self.desc = desc
        self.disassembler = Disassembler(desc, table)
        self.hazards = HazardAnalyzer(desc)
        self._core = ProcessingCore(desc)  # reused for operand binding
        self.scalars: Dict[str, int] = {}
        self.arrays: Dict[str, List[int]] = {}
        self._widths: Dict[str, int] = {}
        for storage in desc.storages.values():
            self._widths[storage.name] = storage.width
            if storage.addressed:
                self.arrays[storage.name] = [0] * storage.depth
            else:
                self.scalars[storage.name] = 0
        self._pc = desc.program_counter().name
        self._halt = desc.attributes.get("halt_flag")
        self._decoded: List[DecodedInstruction] = []
        self._program: List[Optional[Tuple[StmtFn, int, int]]] = []
        self._stalls: List[int] = []
        self._origin = 0
        self.cycle = 0
        self.instructions = 0
        self.stall_cycles = 0
        self._pending: List = []
        self._seq = 0

    # ------------------------------------------------------------------
    # State access (for setup and result inspection)
    # ------------------------------------------------------------------

    def read(self, name: str, index: Optional[int] = None) -> int:
        if name in self.arrays:
            return self.arrays[name][index]
        return self.scalars[name]

    def write(self, name: str, value: int,
              index: Optional[int] = None) -> None:
        value &= mask(self._widths[name])
        if name in self.arrays:
            self.arrays[name][index] = value
        else:
            self.scalars[name] = value

    @property
    def halted(self) -> bool:
        return self._halt is not None and self.scalars.get(self._halt, 0) != 0

    @property
    def stats(self) -> SimulationStats:
        """Counters accumulated so far (the protocol's ``stats``)."""
        return SimulationStats(
            cycles=self.cycle,
            stall_cycles=self.stall_cycles,
            instructions=self.instructions,
        )

    def reset(self) -> None:
        """Reset cycle counts, pending writes and the PC; state persists.

        Mirrors :meth:`Scheduler.reset` so the two backends agree on what
        a reset means (the halt flag, like all state, is *not* cleared).
        """
        self.cycle = 0
        self.instructions = 0
        self.stall_cycles = 0
        self._pending = []
        self._seq = 0
        self.scalars[self._pc] = self._origin

    # ------------------------------------------------------------------
    # Loading: off-line disassembly + per-instruction compilation
    # ------------------------------------------------------------------

    def load_words(self, words: Sequence[int], origin: int = 0) -> None:
        with obs.span("sim.load", backend="compiled", desc=self.desc.name):
            self._load(words, origin)

    def _load(self, words: Sequence[int], origin: int) -> None:
        """Decode *words* once (kept in ``_decoded`` for subclasses) and
        compile one routine per instruction."""
        self._decoded = [self.disassembler.disassemble(w) for w in words]
        self._stalls = self.hazards.stalls_for_program(self._decoded)
        self._program = [self._compile_instruction(d) for d in self._decoded]
        self._origin = origin
        im = self.desc.instruction_memory()
        for offset, word in enumerate(words):
            self.write(im.name, word, origin + offset)
        self.scalars[self._pc] = origin

    def _compile_instruction(self, decoded: DecodedInstruction):
        """Compile one decoded instruction to (closure, cycles, size)."""
        stmt_fns: List[StmtFn] = []
        side_fns: List[StmtFn] = []
        cycles = 0
        size = 1
        for dop in decoded.operations:
            op = self.desc.operation(dop.field, dop.op_name)
            env = self._bind(op.params, dop.operands)
            cycles = max(cycles, self._instruction_cycles(op, env))
            size = max(size, op.costs.size)
            delay = op.timing.latency - 1
            nt_prologue: List[StmtFn] = []
            compiled_env = self._compile_env(env, nt_prologue)
            stmt_fns.extend(nt_prologue)
            for stmt in op.action:
                stmt_fns.append(
                    self._compile_stmt(stmt, compiled_env, delay, phase=0)
                )
            for stmt in op.side_effect:
                side_fns.append(
                    self._compile_stmt(stmt, compiled_env, delay, phase=1)
                )
            for bound in env.values():
                if isinstance(bound, BoundNt) and bound.option.side_effect:
                    nt_delay = bound.option.timing.latency - 1
                    sub_env = self._compile_env(bound.env, [])
                    for stmt in bound.option.side_effect:
                        side_fns.append(
                            self._compile_stmt(
                                stmt, sub_env, nt_delay, phase=1
                            )
                        )
        fns = tuple(stmt_fns + side_fns)

        def execute(scalars, arrays, sink):
            for fn in fns:
                fn(scalars, arrays, sink)

        return execute, max(cycles, 1), size

    def _instruction_cycles(self, op, env) -> int:
        cycles = op.costs.cycle
        for bound in env.values():
            if isinstance(bound, BoundNt):
                cycles += bound.option.costs.cycle
        return cycles

    def _bind(self, params, operands):
        env = {}
        for param in params:
            ptype = self.desc.param_type(param)
            operand = operands[param.name]
            if isinstance(ptype, ast.TokenDef):
                env[param.name] = operand
            else:
                label, sub = operand
                option = ptype.option(label)
                env[param.name] = BoundNt(
                    ptype, option, self._bind(option.params, sub)
                )
        return env

    # ------------------------------------------------------------------
    # Closure compilation
    # ------------------------------------------------------------------

    def _compile_env(self, env, nt_prologue: List[StmtFn]):
        """Turn a binding env into name -> ExprFn (NT values pre-evaluated
        into per-cycle slots filled by prologue closures)."""
        compiled: Dict[str, object] = {}
        for name, bound in env.items():
            if isinstance(bound, BoundNt):
                slot = [0]
                sub_env = self._compile_env(bound.env, nt_prologue)
                value_fn, writes = self._compile_nt_action(
                    bound.option, sub_env
                )
                delay = bound.option.timing.latency - 1

                def prologue(scalars, arrays, sink, _slot=slot,
                             _fn=value_fn, _writes=writes, _delay=delay):
                    _slot[0] = _fn(scalars, arrays)
                    for write_fn in _writes:
                        write_fn(scalars, arrays, sink)

                nt_prologue.append(prologue)
                compiled[name] = ("nt", slot, bound)
            else:
                compiled[name] = ("const", bound)
        return compiled

    def _compile_nt_action(self, option, sub_env):
        """Compile an option action into (value_fn, state-write closures)."""
        value_holder: Dict[str, ExprFn] = {}
        writes: List[StmtFn] = []
        for stmt in option.action:
            if isinstance(stmt, rtl.Assign) and isinstance(
                stmt.dest, rtl.NtLV
            ):
                value_holder["$$"] = self._compile_expr(
                    stmt.expr, sub_env, value_holder
                )
            else:
                writes.append(
                    self._compile_stmt(
                        stmt, sub_env, option.timing.latency - 1, phase=0,
                        nt_value=value_holder,
                    )
                )
        value_fn = value_holder.get("$$", lambda s, a: 0)
        return value_fn, writes

    def _compile_stmt(self, stmt, env, delay, phase,
                      nt_value=None) -> StmtFn:
        if isinstance(stmt, rtl.Assign):
            return self._compile_assign(stmt, env, delay, phase, nt_value)
        if isinstance(stmt, rtl.If):
            cond = self._compile_expr(stmt.cond, env, nt_value)
            then = tuple(
                self._compile_stmt(s, env, delay, phase, nt_value)
                for s in stmt.then
            )
            orelse = tuple(
                self._compile_stmt(s, env, delay, phase, nt_value)
                for s in stmt.orelse
            )

            def run_if(scalars, arrays, sink):
                branch = then if cond(scalars, arrays) else orelse
                for fn in branch:
                    fn(scalars, arrays, sink)

            return run_if
        raise SimulationError(f"cannot compile statement {stmt!r}")

    def _compile_assign(self, stmt, env, delay, phase, nt_value) -> StmtFn:
        value_fn = self._compile_expr(stmt.expr, env, nt_value)
        dest = stmt.dest
        if isinstance(dest, rtl.ParamLV):
            binding = env[dest.name]
            bound = binding[2]
            target = bound.option.storage_target()
            sub_env = self._compile_env(bound.env, [])
            dest = target
            # fall through with the transparent target as a StorageLV
            return self._compile_storage_write(
                dest, value_fn, sub_env, delay, phase, nt_value
            )
        if isinstance(dest, rtl.StorageLV):
            return self._compile_storage_write(
                dest, value_fn, env, delay, phase, nt_value
            )
        raise SimulationError(f"cannot compile destination {dest!r}")

    def _compile_storage_write(self, dest, value_fn, env, delay, phase,
                               nt_value) -> StmtFn:
        name, fixed_index, hi, lo = self._resolve_location(
            dest.storage, dest.hi, dest.lo
        )
        width = self._widths[name]
        is_array = name in self.arrays
        index_fn: Optional[ExprFn] = None
        if is_array:
            if dest.index is not None:
                index_fn = self._compile_expr(dest.index, env, nt_value)
            else:
                index_fn = lambda s, a, _v=fixed_index: _v

        commit_fn = _make_commit(name, width, hi, lo, is_array)

        def run(scalars, arrays, sink, _vfn=value_fn, _ifn=index_fn,
                _commit=commit_fn, _delay=delay, _phase=phase):
            index = _ifn(scalars, arrays) if _ifn is not None else None
            sink.append(
                (_delay, _phase, _commit, index, _vfn(scalars, arrays))
            )

        return run

    def _resolve_location(self, name, hi, lo):
        if name in self.desc.storages:
            return name, None, hi, lo
        alias = self.desc.aliases[name]
        storage = self.desc.storages[alias.storage]
        alias_hi, alias_lo = alias.hi, alias.lo
        fixed_index = alias.index if storage.addressed else None
        if not storage.addressed and alias.index is not None:
            alias_hi = alias_lo = alias.index
        if alias_lo is None:
            alias_lo = alias_hi
        if alias_hi is None:
            return storage.name, fixed_index, hi, lo
        if hi is None:
            return storage.name, fixed_index, alias_hi, alias_lo
        effective_lo = lo if lo is not None else hi
        return (
            storage.name, fixed_index, alias_lo + hi,
            alias_lo + effective_lo,
        )

    def _compile_expr(self, expr, env, nt_value) -> ExprFn:
        if isinstance(expr, rtl.IntLit):
            value = expr.value
            return lambda s, a: value
        if isinstance(expr, rtl.ParamRef):
            binding = env[expr.name]
            if binding[0] == "const":
                value = binding[1]
                return lambda s, a: value
            slot = binding[1]
            return lambda s, a: slot[0]
        if isinstance(expr, rtl.NtValue):
            if nt_value is None or "$$" not in nt_value:
                raise SimulationError("'$$' read before assignment")
            inner = nt_value["$$"]
            return inner
        if isinstance(expr, rtl.StorageRead):
            return self._compile_read(expr, env, nt_value)
        if isinstance(expr, rtl.BinOp):
            left = self._compile_expr(expr.left, env, nt_value)
            right = self._compile_expr(expr.right, env, nt_value)
            if expr.op == "&&":
                return lambda s, a: int(bool(left(s, a)) and bool(right(s, a)))
            if expr.op == "||":
                return lambda s, a: int(bool(left(s, a)) or bool(right(s, a)))
            fn = _BINOPS[expr.op]
            return lambda s, a: fn(left(s, a), right(s, a))
        if isinstance(expr, rtl.UnOp):
            operand = self._compile_expr(expr.operand, env, nt_value)
            if expr.op == "~":
                return lambda s, a: ~operand(s, a)
            if expr.op == "-":
                return lambda s, a: -operand(s, a)
            return lambda s, a: int(not operand(s, a))
        if isinstance(expr, rtl.Cond):
            cond = self._compile_expr(expr.cond, env, nt_value)
            then = self._compile_expr(expr.then, env, nt_value)
            other = self._compile_expr(expr.other, env, nt_value)
            return lambda s, a: then(s, a) if cond(s, a) else other(s, a)
        if isinstance(expr, rtl.Call):
            impl = INTRINSIC_IMPLS[expr.func]
            arg_fns = tuple(
                self._compile_expr(arg, env, nt_value) for arg in expr.args
            )
            return lambda s, a: impl(*(fn(s, a) for fn in arg_fns))
        raise SimulationError(f"cannot compile expression {expr!r}")

    def _compile_read(self, expr, env, nt_value) -> ExprFn:
        name, fixed_index, hi, lo = self._resolve_location(
            expr.storage, expr.hi, expr.lo
        )
        is_array = name in self.arrays
        index_fn = None
        if is_array:
            if expr.index is not None:
                index_fn = self._compile_expr(expr.index, env, nt_value)
            else:
                index_fn = lambda s, a, _v=fixed_index: _v
        if hi is None:
            if is_array:
                return lambda s, a, _n=name, _i=index_fn: a[_n][_i(s, a)]
            return lambda s, a, _n=name: s[_n]
        effective_lo = lo if lo is not None else hi
        m = mask(hi - effective_lo + 1)
        if is_array:
            return (
                lambda s, a, _n=name, _i=index_fn, _lo=effective_lo, _m=m:
                (a[_n][_i(s, a)] >> _lo) & _m
            )
        return (
            lambda s, a, _n=name, _lo=effective_lo, _m=m:
            (s[_n] >> _lo) & _m
        )

    # ------------------------------------------------------------------
    # Driver loop (mirrors the interpretive scheduler)
    # ------------------------------------------------------------------

    def run_to_completion(self, max_steps: int = 5_000_000) -> RunResult:
        """Run until the halt flag rises; raise if it never does.

        (The driver loop below already raises on ``max_steps``, so this is
        :meth:`run` under the protocol's name.)
        """
        return self.run(max_steps)

    def run(self, max_steps: int = 5_000_000) -> RunResult:
        instructions_before = self.instructions
        cycles_before = self.cycle
        with obs.span("sim.run", backend="compiled", desc=self.desc.name):
            try:
                result = self._run_loop(max_steps)
            except IndexError as exc:
                raise _storage_fault(exc) from None
        if obs.enabled():
            obs.add("sim.runs")
            obs.add("sim.cycles", self.cycle - cycles_before)
            obs.add("sim.instructions",
                    self.instructions - instructions_before)
        return result

    def _run_loop(self, max_steps: int) -> RunResult:
        scalars, arrays = self.scalars, self.arrays
        pending = self._pending
        origin = self._origin
        program = self._program
        stalls = self._stalls
        pc_name = self._pc
        halt = self._halt
        steps = 0
        sink: List = []
        while True:
            # commit due writes
            while pending and pending[0][0] <= self.cycle:
                _, _, _, commit, index, value = heapq.heappop(pending)
                commit(scalars, arrays, index, value)
            if halt is not None and scalars.get(halt, 0):
                break
            if steps >= max_steps:
                # like the interpretive scheduler: finish the in-flight
                # writes, then report the step-budget failure
                while pending:
                    _, _, _, commit, index, value = heapq.heappop(pending)
                    commit(scalars, arrays, index, value)
                raise SimulationError(
                    f"program did not halt within {max_steps} steps"
                )
            address = scalars[pc_name]
            offset = address - origin
            if not 0 <= offset < len(program):
                raise SimulationError(
                    f"PC 0x{address:x} outside the loaded program"
                )
            stall = stalls[offset]
            if stall:
                self.cycle += stall
                self.stall_cycles += stall
                while pending and pending[0][0] <= self.cycle:
                    _, _, _, commit, index, value = heapq.heappop(pending)
                    commit(scalars, arrays, index, value)
            entry = program[offset]
            execute, cycles, size = entry
            del sink[:]
            execute(scalars, arrays, sink)
            retire = self.cycle + cycles
            # Sink order is action writes then side-effect writes, so the
            # sequence number alone reproduces the ILS commit order.
            for delay, phase, commit, index, value in sink:
                self._seq += 1
                heapq.heappush(
                    pending,
                    (retire + delay, self._seq, phase, commit, index, value),
                )
            self.cycle = retire
            self.instructions += 1
            scalars[pc_name] = (address + size) & mask(
                self._widths[pc_name]
            )
            steps += 1
        else:
            raise SimulationError(
                f"program did not halt within {max_steps} steps"
            )
        # drain
        while pending:
            _, _, _, commit, index, value = heapq.heappop(pending)
            commit(scalars, arrays, index, value)
        return RunResult(
            cycles=self.cycle,
            stall_cycles=self.stall_cycles,
            instructions=self.instructions,
            halt_reason="halted",
        )
