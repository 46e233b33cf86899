"""Tests for the block-compiled simulator.

The contract is the same as the compiled backend's, one level up: the
block JIT must be indistinguishable from the interpretive XSIM in cycle
counts and final architectural state on every workload — plus the
dispatch-cache behaviours that are new here (lazy compilation, reload
invalidation, deopt fallbacks, table sharing through the artifact cache).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    all_workloads,
    description_for,
    run_workload,
)
from repro.arch.workloads import (
    acc8_sum_array,
    risc16_sum_loop,
    spam2_sum_loop,
)
from repro.asm import Assembler
from repro.cache import ArtifactCache
from repro.errors import SimulationError
from repro.gensim import MonitorSet, Simulator, simulator_for
from repro.gensim.blocksim import BlockSimulator
from repro.gensim.compiled import CompiledSimulator

CASES = [(w.arch, w) for w in all_workloads()]


def run_block(workload, **kwargs):
    desc = description_for(workload.arch)
    sim = BlockSimulator(desc, **kwargs)
    for storage, contents in workload.preload.items():
        for index, value in contents.items():
            sim.write(storage, value, index)
    program = Assembler(desc).assemble(workload.source)
    sim.load_words(program.words, program.origin)
    result = sim.run()
    return sim, result


def assert_state_matches(arch, sim, reference):
    desc = description_for(arch)
    for storage in desc.storages.values():
        if storage.addressed:
            for index in range(storage.depth):
                assert sim.read(storage.name, index) == reference.read(
                    storage.name, index
                ), f"{storage.name}[{index}]"
        else:
            assert sim.read(storage.name) == reference.read(
                storage.name
            ), storage.name


# ---------------------------------------------------------------------------
# Differential correctness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "arch,workload", CASES, ids=[f"{a}-{w.name}" for a, w in CASES]
)
def test_matches_interpretive_simulator(arch, workload):
    reference = run_workload(workload)
    block, result = run_block(workload)
    assert result.cycles == reference.stats.cycles
    assert result.instructions == reference.stats.instructions
    assert result.stall_cycles == reference.stats.stall_cycles
    assert result.halt_reason == "halted"
    assert_state_matches(arch, block, reference)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(min_value=1, max_value=40))  # the loop is do-while: n=0 is undefined
def test_property_risc16_sum_loop(n):
    workload = risc16_sum_loop(n)
    reference = run_workload(workload)
    block, result = run_block(workload)
    assert result.cycles == reference.stats.cycles
    assert block.read("DM", 0) == n * (n + 1) // 2
    assert_state_matches("risc16", block, reference)


@settings(max_examples=10, deadline=None)
@given(values=st.lists(st.integers(min_value=0, max_value=40),
                       min_size=1, max_size=8).map(tuple))
def test_property_acc8_sum_array(values):
    workload = acc8_sum_array(values)
    reference = run_workload(workload)
    block, _ = run_block(workload)
    assert_state_matches("acc8", block, reference)


@settings(max_examples=8, deadline=None)
@given(n=st.integers(min_value=1, max_value=30))
def test_property_spam2_sum_loop(n):
    workload = spam2_sum_loop(n)
    reference = run_workload(workload)
    block, result = run_block(workload)
    assert result.cycles == reference.stats.cycles
    assert_state_matches("spam2", block, reference)


def test_latency_residue_crosses_block_boundary(spam_desc):
    """A latency-3 write retiring after the block's last cycle must be
    carried by the residue machinery — and still match the reference."""
    source = """
        fmul r8, r9, r10
        halt
    """
    sims = {}
    for cls in (CompiledSimulator, BlockSimulator):
        sim = cls(spam_desc)
        sim.write("RF", 0x40000000, 9)   # 2.0f
        sim.write("RF", 0x40400000, 10)  # 3.0f
        program = Assembler(spam_desc).assemble(source)
        sim.load_words(program.words, program.origin)
        sim.run()
        sims[cls] = sim
    block = sims[BlockSimulator]
    assert block.block_stats.residue_writes > 0
    assert block.read("RF", 8) == sims[CompiledSimulator].read("RF", 8)
    assert block.stats.cycles == sims[CompiledSimulator].stats.cycles


# ---------------------------------------------------------------------------
# Driver edge cases
# ---------------------------------------------------------------------------


def test_non_halting_program_raises_like_compiled(risc16_desc):
    program = Assembler(risc16_desc).assemble("loop: jmp loop\n")
    for budget in (1, 7, 100):
        results = []
        for cls in (CompiledSimulator, BlockSimulator):
            sim = cls(risc16_desc)
            sim.load_words(program.words)
            with pytest.raises(SimulationError):
                sim.run(max_steps=budget)
            results.append((sim.cycle, sim.instructions))
        assert results[0] == results[1], f"max_steps={budget}"


def test_max_steps_boundary_matches_xsim(risc16_desc):
    """Halting exactly at the step budget follows the interpretive
    scheduler's rule: the in-flight halt write is committed and the run
    counts as halted, not as a budget failure."""
    from repro.gensim import XSim

    source = "ldi r1, #5\nhalt\n"
    program = Assembler(risc16_desc).assemble(source)
    for budget in (1, 2, 3):
        outcomes = []
        for cls in (XSim, CompiledSimulator, BlockSimulator):
            sim = cls(risc16_desc)
            sim.load_words(program.words)
            try:
                sim.run_to_completion(max_steps=budget)
                outcomes.append("halted")
            except SimulationError:
                outcomes.append("raise")
        assert outcomes[0] == outcomes[1] == outcomes[2], (
            f"max_steps={budget}: {outcomes}"
        )
    # budget 2 is the exact boundary — the halt commits, so this is a halt
    sim = BlockSimulator(risc16_desc)
    sim.load_words(program.words)
    assert sim.run(max_steps=2).halt_reason == "halted"


def test_max_steps_overrun_drains_in_flight_writes(spam_desc):
    """A step-budget failure leaves the same architectural state on every
    backend: the long-latency ``fdiv`` result still in flight when the
    budget runs out is committed before the error, as the interpretive
    scheduler's finish step does."""
    source = "ldi r1,#6\nldi r2,#3\nfdiv r3,r1,r2\nloop: jmp loop\n"
    program = Assembler(spam_desc).assemble(source)
    backends = ("xsim", "interpretive", "compiled", "block")
    for budget in (3, 4, 5, 8):
        sims = {}
        for backend in backends:
            sim = simulator_for(spam_desc, backend)
            sim.load_words(program.words, program.origin)
            with pytest.raises(SimulationError):
                sim.run_to_completion(max_steps=budget)
            sims[backend] = sim
        reference = sims["xsim"]
        assert reference.read("RF", 3) == 0x40000000  # 6.0 / 3.0
        for backend in backends[1:]:
            sim = sims[backend]
            assert (sim.stats.cycles, sim.stats.instructions) == (
                reference.stats.cycles, reference.stats.instructions
            ), f"{backend}, max_steps={budget}"
            assert_state_matches("spam", sim, reference)


def test_run_after_halt_is_idempotent(risc16_desc):
    program = Assembler(risc16_desc).assemble("halt\n")
    sim = BlockSimulator(risc16_desc)
    sim.load_words(program.words)
    first = sim.run()
    again = sim.run()
    assert again.cycles == first.cycles
    assert again.instructions == first.instructions


# ---------------------------------------------------------------------------
# Dispatch cache behaviour
# ---------------------------------------------------------------------------


def test_block_cache_hits_and_misses(risc16_desc):
    workload = risc16_sum_loop(10)
    block, _ = run_block(workload)
    stats = block.block_stats
    assert stats.misses > 0
    assert stats.hits > stats.misses  # the loop body re-dispatches
    assert stats.deopts == 0


def test_reload_invalidates_blocks(risc16_desc):
    asm = Assembler(risc16_desc)
    sim = BlockSimulator(risc16_desc)
    sim.load_words(asm.assemble("ldi r1, #1\nhalt\n").words)
    sim.run()
    first_blocks = sim._blocks
    sim.load_words(asm.assemble("ldi r1, #2\nhalt\n").words)
    assert sim._blocks is not first_blocks
    sim.write("HALTED", 0)
    sim.run()
    assert sim.read("RF", 1) == 2


def test_load_decodes_each_word_once(risc16_desc):
    # the block CFG reuses the compiled backend's decoded program
    program = Assembler(risc16_desc).assemble(risc16_sum_loop(10).source)
    sim = BlockSimulator(risc16_desc)
    sim.load_words(program.words, program.origin)
    disasm = sim.disassembler
    assert disasm.decode_hits + disasm.decode_misses == len(program.words)
    assert len(sim._flows) == len(sim._decoded) == len(program.words)


def test_block_table_shared_through_artifact_cache(risc16_desc):
    cache = ArtifactCache()
    program = Assembler(risc16_desc).assemble(
        risc16_sum_loop(6).source
    )
    sims = []
    for _ in range(2):
        sim = BlockSimulator(risc16_desc, cache=cache)
        for storage, contents in risc16_sum_loop(6).preload.items():
            for index, value in contents.items():
                sim.write(storage, value, index)
        sim.load_words(program.words, program.origin)
        sim.run()
        sims.append(sim)
    assert sims[0]._blocks is sims[1]._blocks
    assert cache.stats.hits_by_kind["blocktable"] == 1
    # The second simulator found every block pre-compiled.
    assert sims[1].block_stats.misses == 0
    assert sims[0].read("DM", 0) == sims[1].read("DM", 0)


def test_deopt_sentinel_on_unsupported_block(risc16_desc, monkeypatch):
    """An uncompilable block must fall back to the per-instruction path
    with identical results, not fail."""
    workload = risc16_sum_loop(8)
    reference = run_workload(workload)

    from repro.gensim import blocksim

    class Boom(blocksim._BlockCompiler):
        def compile(self, offsets):
            raise blocksim._Unsupported("forced")

    monkeypatch.setattr(blocksim, "_BlockCompiler", Boom)
    block, result = run_block(workload)
    assert result.cycles == reference.stats.cycles
    assert block.block_stats.deopts > 0
    assert block.block_stats.interp_steps == result.instructions
    assert_state_matches("risc16", block, reference)


# ---------------------------------------------------------------------------
# Monitors (coarse support on the deopt path)
# ---------------------------------------------------------------------------


def test_monitored_storage_deopts_and_reports(risc16_desc):
    workload = risc16_sum_loop(5)
    reference = run_workload(workload)
    monitors = MonitorSet()
    monitors.watch("DM")
    block, result = run_block(workload, monitors=monitors)
    assert result.cycles == reference.stats.cycles
    assert block.block_stats.deopts > 0
    assert monitors.hits_total > 0
    assert any("DM[0]" in msg for msg in monitors.messages)
    assert_state_matches("risc16", block, reference)


def test_unmonitored_run_stays_on_fast_path(risc16_desc):
    workload = risc16_sum_loop(5)
    monitors = MonitorSet()  # no watches attached
    block, _ = run_block(workload, monitors=monitors)
    assert block.block_stats.deopts == 0


# ---------------------------------------------------------------------------
# Protocol and generated source
# ---------------------------------------------------------------------------


def test_conforms_to_simulator_protocol(risc16_desc):
    assert isinstance(BlockSimulator(risc16_desc), Simulator)
    sim = simulator_for(risc16_desc, "block")
    assert isinstance(sim, BlockSimulator)


def test_generated_source_shape(risc16_desc):
    """Spot-check the emitted Python: burned constants, local loads, one
    batched write-back, a rendered-assembly comment per instruction."""
    workload = risc16_sum_loop(4)
    block, _ = run_block(workload)
    compiled = [b for b in block._blocks.blocks
                if b is not None and b.fn is not None]
    assert compiled
    loop = max(compiled, key=lambda b: b.n)
    src = loop.source
    assert src.startswith("def _block(scalars, arrays, res):")
    assert "s_CCR = scalars['CCR']" in src  # risc16 flags alias into CCR
    assert "scalars['PC'] = _pc" in src
    assert src.count("# 0x") == loop.n  # one disassembly comment each
    # write-back happens once per exit, not per instruction
    assert src.count("scalars['CCR'] =") == 1


def test_cold_block_evaluation_runs_no_dataflow(spam_desc, monkeypatch):
    """The block backend compiles what it dispatches and derives nothing
    ahead of time: a cold evaluation never builds program facts."""
    import repro.analyze.dataflow as dataflow
    from repro.codegen.kernels import resolve_kernels
    from repro.explore import evaluate

    kernels = resolve_kernels(["sum:40", "dot:8", "blockmove:12"])
    want = evaluate(spam_desc, kernels, sim_backend="xsim",
                    cache=ArtifactCache())

    def no_facts(*args, **kwargs):
        raise AssertionError("cold block evaluation built dataflow facts")

    monkeypatch.setattr(dataflow, "_build_program_facts", no_facts)
    got = evaluate(spam_desc, kernels, sim_backend="block",
                   cache=ArtifactCache())
    assert got.feasible, got.reason
    assert got.cycles == want.cycles
    assert got.per_kernel_cycles == want.per_kernel_cycles
