"""Tests for the generated disassembler (paper Fig. 4).

The central property: for every operation and every legal operand binding,
``disassemble(assemble(op, operands))`` recovers the operation and the
operands exactly — the disassembly function inverts the assembly function.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.passes import PassContext, pass_decode_ambiguity
from repro.arch import ARCHITECTURES
from repro.encoding.signature import SignatureTable
from repro.errors import DisassemblyError, IsdlSemanticError
from repro.gensim import generate_simulator
from repro.gensim.disassembler import Disassembler
from repro.isdl import ast


def operand_strategy(desc, param):
    """A hypothesis strategy for legal operands of one parameter."""
    ptype = desc.param_type(param)
    if isinstance(ptype, ast.TokenDef):
        values = ptype.valid_values()
        return st.integers(min_value=values.start, max_value=values.stop - 1)
    options = []
    for option in ptype.options:
        sub = st.fixed_dictionaries(
            {p.name: operand_strategy(desc, p) for p in option.params}
        )
        options.append(st.tuples(st.just(option.label), sub))
    return st.one_of(options)


def operation_strategy(desc):
    """Strategy over (field, op, operands) for a whole description."""
    choices = []
    for fld, op in desc.operations():
        operands = st.fixed_dictionaries(
            {p.name: operand_strategy(desc, p) for p in op.params}
        )
        choices.append(
            st.tuples(st.just(fld.name), st.just(op.name), operands)
        )
    return st.one_of(choices)


@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
def test_descriptions_are_decodable(arch):
    desc = ARCHITECTURES[arch]()
    assert pass_decode_ambiguity(PassContext(desc)) == []


@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_roundtrip_property(arch, data):
    desc = ARCHITECTURES[arch]()
    table = SignatureTable(desc)
    dis = Disassembler(desc, table)
    field_name, op_name, operands = data.draw(operation_strategy(desc))
    word = table.encode_operation(field_name, op_name, operands)
    decoded = dis.disassemble(word)
    recovered = decoded.operation_in(field_name)
    assert recovered is not None
    assert recovered.op_name == op_name
    assert recovered.operands == operands


def test_every_field_decodes_in_vliw_word(spam_desc):
    table = SignatureTable(spam_desc)
    dis = Disassembler(spam_desc, table)
    word = table.encode_instruction(
        {
            "FP1": ("fadd", {"d": 1, "a": 2, "b": 3}),
            "INT": ("add", {"d": 4, "a": 5, "b": ("imm", {"v": 7})}),
            "MV2": ("mov", {"d": 8, "s": 9}),
        }
    )
    decoded = dis.disassemble(word)
    selection = decoded.selection()
    assert selection["FP1"] == "fadd"
    assert selection["INT"] == "add"
    assert selection["MV2"] == "mov"
    # unspecified fields decode as their all-zero NOPs
    assert selection["FP2"] == "mnop"
    assert selection["LSU"] == "lnop"
    assert selection["MV1"] == "mnop"
    assert selection["MV3"] == "mnop"


def test_signed_immediate_decodes_negative(risc16_desc):
    table = SignatureTable(risc16_desc)
    dis = Disassembler(risc16_desc, table)
    word = table.encode_operation("EX", "beq", {"t": -4})
    decoded = dis.disassemble(word).operation_in("EX")
    assert decoded.operands["t"] == -4


def test_illegal_instruction_raises(mini_desc):
    dis = Disassembler(mini_desc)
    # opcode 0b0010 is not defined in the MINI description
    with pytest.raises(DisassemblyError):
        dis.disassemble(0b0010 << 12)


def test_nt_option_selected_by_mode_bit(risc16_desc):
    table = SignatureTable(risc16_desc)
    dis = Disassembler(risc16_desc, table)
    reg_word = table.encode_operation(
        "EX", "mov", {"d": 0, "b": ("reg", {"r": 5})}
    )
    imm_word = table.encode_operation(
        "EX", "mov", {"d": 0, "b": ("imm", {"v": 5})}
    )
    reg_dec = dis.disassemble(reg_word).operation_in("EX")
    imm_dec = dis.disassemble(imm_word).operation_in("EX")
    assert reg_dec.operands["b"] == ("reg", {"r": 5})
    assert imm_dec.operands["b"] == ("imm", {"v": 5})


def test_ambiguity_detection_flags_shadowed_encodings():
    from repro.isdl import load_string

    desc = load_string('''
processor "AMB"
section format
    word 8
end
section storage
    instruction_memory IM width 8 depth 8
    register ACC width 8
    program_counter PC width 3
end
section instruction_set
    field EX
        operation a()
            encoding { bits[7] = 0b1 }
        operation b()
            encoding { bits[6] = 0b1 }
    end
end
''')
    problems = pass_decode_ambiguity(PassContext(desc))
    assert problems  # word 0b11xxxxxx matches both
    with pytest.raises(IsdlSemanticError, match="not decodable"):
        generate_simulator(desc)


AMBIGUOUS_ISDL = '''
processor "AMB"
section format
    word 8
end
section storage
    instruction_memory IM width 8 depth 8
    register ACC width 8
    program_counter PC width 3
end
section instruction_set
    field EX
        operation a()
            encoding { bits[7] = 0b1 }
        operation b()
            encoding { bits[6] = 0b1 }
    end
end
'''


def test_ambiguous_word_raises_naming_all_matches_sorted():
    from repro.errors import AmbiguousEncodingError
    from repro.isdl import load_string

    desc = load_string(AMBIGUOUS_ISDL)
    dis = Disassembler(desc)
    with pytest.raises(AmbiguousEncodingError) as excinfo:
        dis.disassemble(0b1100_0000)  # carries both constant images
    assert excinfo.value.matches == ("EX.a", "EX.b")
    assert "EX.a" in str(excinfo.value)
    assert "EX.b" in str(excinfo.value)
    # a word matching exactly one signature still decodes normally
    assert dis.disassemble(0b1000_0000).operation_in("EX").op_name == "a"
    assert dis.disassemble(0b0100_0000).operation_in("EX").op_name == "b"


def test_ambiguity_error_is_deterministic_across_decodes():
    from repro.errors import AmbiguousEncodingError
    from repro.isdl import load_string

    desc = load_string(AMBIGUOUS_ISDL)
    seen = set()
    for _ in range(3):
        dis = Disassembler(desc, cache_size=0)
        with pytest.raises(AmbiguousEncodingError) as excinfo:
            dis.disassemble(0xFF)
        seen.add(excinfo.value.matches)
    assert seen == {("EX.a", "EX.b")}


def test_unique_match_decodes_regardless_of_declaration_order(mini_desc):
    # word 0 matches only nop's constants; uniqueness — not declaration
    # order — is what selects the operation now
    dis = Disassembler(mini_desc)
    decoded = dis.disassemble(0)
    assert decoded.operation_in("EX").op_name == "nop"


# ---------------------------------------------------------------------------
# Decode memoization
# ---------------------------------------------------------------------------


def test_decode_memoized_by_word(risc16_desc):
    table = SignatureTable(risc16_desc)
    dis = Disassembler(risc16_desc, table)
    word = table.encode_operation("EX", "mov", {"d": 0, "b": ("reg", {"r": 5})})
    first = dis.disassemble(word)
    second = dis.disassemble(word)
    assert first is second  # same immutable object, no re-decode
    assert dis.decode_misses == 1
    assert dis.decode_hits == 1
    other = table.encode_operation("EX", "mov", {"d": 1, "b": ("reg", {"r": 5})})
    dis.disassemble(other)
    assert dis.decode_misses == 2


def test_decode_cache_is_bounded_lru(risc16_desc):
    table = SignatureTable(risc16_desc)
    dis = Disassembler(risc16_desc, table, cache_size=2)
    words = [
        table.encode_operation("EX", "ldi", {"d": 0, "v": v})
        for v in (1, 2, 3)
    ]
    for word in words:
        dis.disassemble(word)
    assert len(dis._cache) == 2
    assert words[0] not in dis._cache  # oldest evicted
    # touching the survivor keeps it resident across the next insert
    dis.disassemble(words[1])
    dis.disassemble(words[0])
    assert words[1] in dis._cache


def test_decode_cache_can_be_disabled(risc16_desc):
    table = SignatureTable(risc16_desc)
    dis = Disassembler(risc16_desc, table, cache_size=0)
    word = table.encode_operation("EX", "halt", {})
    first = dis.disassemble(word)
    second = dis.disassemble(word)
    assert first is not second
    assert dis.decode_hits == dis.decode_misses == 0
    assert len(dis._cache) == 0


def test_decode_counters_reach_observability(risc16_desc):
    from repro import obs

    table = SignatureTable(risc16_desc)
    dis = Disassembler(risc16_desc, table)
    word = table.encode_operation("EX", "halt", {})
    obs.enable()
    try:
        with obs.capture() as cap:
            dis.disassemble(word)
            dis.disassemble(word)
    finally:
        obs.disable(reset=True)
    assert cap.snapshot.counters["disasm.decode_misses"] == 1
    assert cap.snapshot.counters["disasm.decode_hits"] == 1
