"""Unit tests for ISDL semantic analysis."""

import pytest

from repro.errors import IsdlSemanticError
from repro.isdl import check, parse

BASE = '''
processor "T"
section format
    word 16
end
section global_definitions
    token REG prefix "R" range 0 .. 3
    token IMM4 immediate unsigned width 4
end
section storage
    instruction_memory IM width 16 depth 64
    register_file RF width 8 depth 4
    register ACC width 8
    program_counter PC width 6
    alias LO = ACC[3:0]
end
'''

GOOD_FIELD = '''
section instruction_set
    field EX
        operation nop()
            encoding { bits[15:12] = 0b0000 }
        operation addi(d: REG, v: IMM4)
            encoding { bits[15:12] = 0b0001; bits[11:10] = d; bits[7:4] = v }
            action { RF[d] <- RF[d] + v; }
    end
end
'''


def check_text(text):
    return check(parse(text))


def expect_error(text, fragment):
    with pytest.raises(IsdlSemanticError) as excinfo:
        check_text(text)
    assert fragment in str(excinfo.value)


def test_valid_description_passes():
    check_text(BASE + GOOD_FIELD)


def test_diagnose_returns_all_problems():
    from repro.isdl import semantics

    desc = parse(BASE + '''
section instruction_set
    field EX
        operation a(d: REG)
            encoding { bits[15] = 0b1 }
            action { RF[d] <- 0; }
            cost size 0
    end
end
''')
    problems = [d.message for d in semantics.diagnose(desc)]
    assert len(problems) >= 2  # unencoded parameter + invalid size cost
    assert any("never encoded" in p for p in problems)
    assert any("invalid costs" in p for p in problems)


def test_missing_program_counter():
    text = BASE.replace("    program_counter PC width 6\n", "")
    expect_error(text + GOOD_FIELD, "program counter")


def test_missing_instruction_memory():
    text = BASE.replace(
        "    instruction_memory IM width 16 depth 64\n", ""
    )
    expect_error(text + GOOD_FIELD, "instruction memory")


def test_axiom1_double_assigned_bits():
    expect_error(BASE + '''
section instruction_set
    field EX
        operation t(d: REG)
            encoding { bits[15:12] = 0b0001; bits[12:11] = d }
    end
end
''', "Axiom 1")


def test_unencoded_parameter_rejected():
    expect_error(BASE + '''
section instruction_set
    field EX
        operation t(d: REG)
            encoding { bits[15:12] = 0b0001 }
            action { RF[d] <- 0; }
    end
end
''', "never encoded")


def test_constant_too_wide_rejected():
    expect_error(BASE + '''
section instruction_set
    field EX
        operation t()
            encoding { bits[15:14] = 0b111 }
    end
end
''', "does not fit")


def test_param_slice_width_mismatch():
    expect_error(BASE + '''
section instruction_set
    field EX
        operation t(v: IMM4)
            encoding { bits[15:12] = 0b0001; bits[11:9] = v }
    end
end
''', "different widths")


def test_encoding_outside_word_rejected():
    expect_error(BASE + '''
section instruction_set
    field EX
        operation t()
            encoding { bits[16] = 0b1 }
    end
end
''', "outside word width")


def test_bit_range_outside_storage_width():
    expect_error(BASE + '''
section instruction_set
    field EX
        operation t()
            encoding { bits[15] = 0b1 }
            action { ACC[9:8] <- 1; }
    end
end
''', "outside")


def test_alias_of_unknown_storage():
    text = BASE.replace(
        "alias LO = ACC[3:0]", "alias LO = NOPE[3:0]"
    )
    expect_error(text + GOOD_FIELD, "unknown storage")


def test_alias_range_outside_width():
    text = BASE.replace(
        "alias LO = ACC[3:0]", "alias LO = ACC[11:8]"
    )
    expect_error(text + GOOD_FIELD, "outside")


def test_constraint_unknown_operation():
    expect_error(BASE + GOOD_FIELD.replace("end\nend", '''
    end
end
section constraints
    forbid EX.bogus
end
''', 1), "unknown operation")


def test_cross_field_overlap_without_constraint():
    expect_error(BASE + '''
section instruction_set
    field A
        operation x()
            encoding { bits[15] = 0b1 }
    end
    field B
        operation y()
            encoding { bits[15] = 0b1 }
    end
end
''', "share instruction bits")


def test_cross_field_overlap_excused_by_constraint():
    # A.x and B.y both claim bit 13, but a constraint forbids combining
    # them, so the overlap is legal (paper rule 4 refinement).
    check_text(BASE + '''
section instruction_set
    field A
        operation x()
            encoding { bits[15] = 0b1; bits[13] = 0b1 }
        operation xn()
            encoding { bits[15] = 0b0 }
    end
    field B
        operation y()
            encoding { bits[14] = 0b1; bits[13] = 0b1 }
        operation yn()
            encoding { bits[14] = 0b0 }
    end
end
section constraints
    forbid A.x & B.y
end
''')


def test_intrinsic_arity_checked():
    expect_error(BASE + '''
section instruction_set
    field EX
        operation t()
            encoding { bits[15] = 0b1 }
            action { ACC <- carry(1, 2); }
    end
end
''', "takes 3 arguments")


def test_unknown_intrinsic_rejected():
    expect_error(BASE + '''
section instruction_set
    field EX
        operation t()
            encoding { bits[15] = 0b1 }
            action { ACC <- frobnicate(1); }
    end
end
''', "unknown intrinsic")


def test_alias_bit_select_out_of_range_rejected():
    # LO is a 4-bit alias; selecting bit 9 of it must be rejected.
    expect_error(BASE + '''
section instruction_set
    field EX
        operation t()
            encoding { bits[15] = 0b1 }
            action { ACC <- LO[9]; }
    end
end
''', "outside")


def test_nonterminal_destination_requires_transparency():
    expect_error('''
processor "T"
section format
    word 16
end
section global_definitions
    token REG prefix "R" range 0 .. 3
    nonterminal SRC width 3
        option reg(r: REG)
            encoding { bits[2] = 0b0; bits[1:0] = r }
            action { $$ <- RF[r] + 1; }
    end
end
section storage
    instruction_memory IM width 16 depth 64
    register_file RF width 8 depth 4
    program_counter PC width 6
end
section instruction_set
    field EX
        operation t(s: SRC)
            encoding { bits[15] = 0b1; bits[2:0] = s }
            action { s <- 5; }
    end
end
''', "not transparent")


def test_invalid_costs_rejected():
    expect_error(BASE + '''
section instruction_set
    field EX
        operation t()
            encoding { bits[15] = 0b1 }
            cost size 0
    end
end
''', "invalid costs")


# ---------------------------------------------------------------------------
# Structured diagnostics (repro.analyze integration)
# ---------------------------------------------------------------------------


def test_diagnose_returns_structured_diagnostics():
    from repro.analyze import Diagnostic, Severity
    from repro.isdl import semantics

    desc = parse(BASE + '''
section instruction_set
    field EX
        operation a(d: REG)
            encoding { bits[15] = 0b1 }
            action { RF[d] <- 0; }
    end
end
''')
    diagnostics = semantics.diagnose(desc)
    assert diagnostics
    assert all(isinstance(d, Diagnostic) for d in diagnostics)
    (finding,) = [d for d in diagnostics if d.code == "ISDL012"]
    assert finding.severity is Severity.ERROR
    assert "never encoded" in finding.message


def test_diagnose_tags_axiom1_violations():
    from repro.isdl import semantics

    desc = parse(BASE + '''
section instruction_set
    field EX
        operation t()
            encoding { bits[15:12] = 0b1111; bits[13:12] = 0b00 }
    end
end
''')
    codes = [d.code for d in semantics.diagnose(desc)]
    assert "ISDL011" in codes


def test_diagnose_clean_description_is_empty():
    from repro.isdl import semantics

    assert semantics.diagnose(parse(BASE + GOOD_FIELD)) == []


def test_check_error_is_location_then_message():
    # check() raises the first problem diagnose() reports, as
    # "location: message"
    from repro.isdl import semantics

    desc = parse(BASE + '''
section instruction_set
    field EX
        operation a(d: REG)
            encoding { bits[15] = 0b1 }
            action { RF[d] <- 0; }
            cost size 0
    end
end
''')
    first = semantics.diagnose(desc)[0]
    assert first.location is not None
    with pytest.raises(IsdlSemanticError) as excinfo:
        check(desc)
    assert str(excinfo.value) == f"{first.location}: {first.message}"


def test_unknown_constraint_ref_is_warning_severity():
    from repro.analyze import Severity
    from repro.isdl import semantics

    desc = parse(BASE + GOOD_FIELD + '''
section constraints
    forbid EX.ghost
end
''')
    findings = [d for d in semantics.diagnose(desc)
                if d.code == "ISDL201"]
    assert findings
    assert all(d.severity is Severity.WARNING for d in findings)
