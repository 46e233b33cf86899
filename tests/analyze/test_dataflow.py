"""Tests for the worklist dataflow engine and its proof certificates."""

import dataclasses

import pytest

from repro import obs
from repro.analyze.dataflow import (
    MAX_CHAIN_LEN,
    DeoptFreedom,
    arch_facts,
    check_deopt_freedom,
    check_superblock_chains,
    derive_deopt_freedom,
    derive_superblock_chains,
    fixpoint,
    program_facts,
    words_digest,
)
from repro.arch import description_for
from repro.arch.workloads import (
    all_workloads,
    risc16_sum_loop,
    workloads_for,
)
from repro.asm import Assembler


def _assemble(desc, source):
    program = Assembler(desc).assemble(source)
    return tuple(program.words), program.origin


#: splits the hot loop across three blocks joined by unconditional
#: jumps — the canonical superblock-fusion candidate
CHAIN_SOURCE = """
        ldi r0, #50
        ldi r1, #0
        ldi r2, #0
        jmp loop
loop:   add r1, r1, r0
        jmp body
body:   sub r0, r0, #1
        bne loop - .
        st (r2), r1
        halt
"""


# ---------------------------------------------------------------------------
# The generic engine
# ---------------------------------------------------------------------------


def test_fixpoint_forward_union():
    # 0 -> 1 -> 2, 2 -> 1 (a loop): gen sets must accumulate along paths
    edges = {0: [1], 1: [2], 2: [1]}

    def transfer(node, incoming):
        return frozenset(incoming | {node})

    result = fixpoint(
        [0, 1, 2], edges, transfer,
        lambda a, b: frozenset(a | b), lambda n: frozenset(),
    )
    assert result[0] == (frozenset(), frozenset({0}))
    # the loop 1 -> 2 -> 1 feeds every gen (1's own included) back in
    assert result[1][0] == frozenset({0, 1, 2})
    assert result[2] == (frozenset({0, 1, 2}), frozenset({0, 1, 2}))


def test_fixpoint_backward_flips_edges():
    edges = {0: [1], 1: [2]}

    def transfer(node, incoming):
        return frozenset(incoming | {node})

    result = fixpoint(
        [0, 1, 2], edges, transfer,
        lambda a, b: frozenset(a | b), lambda n: frozenset(),
        direction="backward",
    )
    # node 0's "in" (what flows back into it) covers every later node
    assert result[0][0] == frozenset({1, 2})
    assert result[2] == (frozenset(), frozenset({2}))


def test_fixpoint_rejects_unknown_direction():
    with pytest.raises(ValueError):
        fixpoint([0], {}, lambda n, f: f, lambda a, b: a, lambda n: 0,
                 direction="sideways")


def test_fixpoint_is_deterministic():
    edges = {n: [(n + 1) % 8, (n + 3) % 8] for n in range(8)}

    def transfer(node, incoming):
        return frozenset(incoming | {node})

    runs = [
        fixpoint(range(8), edges, transfer,
                 lambda a, b: frozenset(a | b), lambda n: frozenset())
        for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------------------
# Program facts
# ---------------------------------------------------------------------------


def test_sum_loop_facts_are_complete(risc16_desc):
    words, origin = _assemble(risc16_desc, risc16_sum_loop(5).source)
    facts = program_facts(risc16_desc, words, origin, name="sum_loop")
    assert facts.complete
    assert facts.entry == 0
    assert facts.reachable_offsets == frozenset(range(len(words)))
    assert facts.halting is None  # it does halt, but only dynamically
    assert facts.digest == words_digest(words, origin)


def test_chain_program_block_graph(risc16_desc):
    words, origin = _assemble(risc16_desc, CHAIN_SOURCE)
    facts = program_facts(risc16_desc, words, origin, name="chain")
    assert facts.complete
    assert set(facts.blocks) == {0, 4, 6, 8}
    assert facts.blocks[0].succs == (4,)     # jmp loop
    assert facts.blocks[4].succs == (6,)     # jmp body
    assert facts.blocks[6].succs == (4, 8)   # bne: taken + fall-through
    assert facts.blocks[8].succs == ()       # st; halt — run ends
    # the unconditional jmp resolves to exactly one target
    jmp = facts.instr[3]
    assert jmp.writes_pc and not jmp.conditional_pc
    assert jmp.pc_targets == (4,)


def test_every_workload_has_complete_facts():
    for workload in all_workloads():
        desc = description_for(workload.arch)
        words, origin = _assemble(desc, workload.source)
        facts = program_facts(desc, words, origin, name=workload.name)
        assert facts.complete, workload.name
        assert facts.blocks, workload.name


def test_arch_facts_decodes_every_program_with_one_table(risc16_desc):
    programs = [
        (w.name, *_assemble(risc16_desc, w.source))
        for w in workloads_for("risc16")
    ]
    assert len(programs) > 1
    obs.enable()
    try:
        with obs.capture() as cap:
            facts = arch_facts(risc16_desc, programs)
    finally:
        obs.disable(reset=True)
    assert cap.snapshot.counters["sigtable.builds"] == 1
    for name, words, origin in programs:
        assert facts.programs[name] == program_facts(
            risc16_desc, words, origin, name=name)


# ---------------------------------------------------------------------------
# Certificates and their checkers
# ---------------------------------------------------------------------------


def test_deopt_freedom_derives_and_checks(risc16_desc):
    words, origin = _assemble(risc16_desc, CHAIN_SOURCE)
    facts = program_facts(risc16_desc, words, origin)
    cert = derive_deopt_freedom(risc16_desc, facts)
    assert cert is not None
    assert check_deopt_freedom(risc16_desc, words, origin, cert)


def test_deopt_freedom_refused_for_long_latency(spam_desc):
    # SPAM's fp pipes write with latency > 1: a write can outlive its
    # block, so the guard-free loop would be unsound
    source = "fadd r1, r2, r3\nhalt\n"
    words, origin = _assemble(spam_desc, source)
    facts = program_facts(spam_desc, words, origin)
    assert derive_deopt_freedom(spam_desc, facts) is None


def test_checker_rejects_wrong_program(risc16_desc):
    words, origin = _assemble(risc16_desc, CHAIN_SOURCE)
    facts = program_facts(risc16_desc, words, origin)
    cert = derive_deopt_freedom(risc16_desc, facts)
    tampered = words[:-1] + (words[0],)
    assert not check_deopt_freedom(risc16_desc, tampered, origin, cert)


def test_checker_rejects_wrong_description(risc16_desc, spam2_desc):
    words, origin = _assemble(risc16_desc, CHAIN_SOURCE)
    facts = program_facts(risc16_desc, words, origin)
    cert = derive_deopt_freedom(risc16_desc, facts)
    assert not check_deopt_freedom(spam2_desc, words, origin, cert)


def test_checker_rejects_unclosed_cover(risc16_desc):
    words, origin = _assemble(risc16_desc, CHAIN_SOURCE)
    facts = program_facts(risc16_desc, words, origin)
    cert = derive_deopt_freedom(risc16_desc, facts)
    # drop a reachable block from the cover: no longer successor-closed
    holey = dataclasses.replace(
        cert, blocks=tuple(b for b in cert.blocks if b != 4)
    )
    assert not check_deopt_freedom(risc16_desc, words, origin, holey)


def test_superblock_chains_derive_and_check(risc16_desc):
    words, origin = _assemble(risc16_desc, CHAIN_SOURCE)
    facts = program_facts(risc16_desc, words, origin)
    cert = derive_superblock_chains(risc16_desc, facts)
    # prologue->loop->body, plus the loop re-entry chain (overlap is
    # superblock tail duplication)
    assert cert.chains == ((0, 4, 6), (4, 6))
    assert check_superblock_chains(risc16_desc, words, origin, cert)
    for chain in cert.chains:
        total = sum(len(facts.blocks[s].offsets) for s in chain)
        assert total <= MAX_CHAIN_LEN


def test_chain_checker_rejects_broken_link(risc16_desc):
    words, origin = _assemble(risc16_desc, CHAIN_SOURCE)
    facts = program_facts(risc16_desc, words, origin)
    cert = derive_superblock_chains(risc16_desc, facts)
    bogus = dataclasses.replace(cert, chains=((0, 6),))  # skips block 4
    assert not check_superblock_chains(risc16_desc, words, origin, bogus)


def test_no_chains_without_unconditional_links(risc16_desc):
    words, origin = _assemble(risc16_desc, risc16_sum_loop(5).source)
    facts = program_facts(risc16_desc, words, origin)
    cert = derive_superblock_chains(risc16_desc, facts)
    assert cert.chains == ()  # only a conditional branch: nothing fuses
