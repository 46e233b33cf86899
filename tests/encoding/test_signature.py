"""Tests for operation signatures and the assembly function (paper Fig. 3)."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.signature import Signature, SignatureTable
from repro.errors import EncodingError
from repro.isdl import ast


def make_signature():
    # op a, b with layout: bits[9:8]=01, a -> bits[7:4], b -> bits[3:0]
    encoding = (
        ast.BitAssign(9, 8, ast.EncConst(0b01)),
        ast.BitAssign(7, 4, ast.EncParam("a")),
        ast.BitAssign(3, 0, ast.EncParam("b")),
    )
    return Signature.from_encoding(encoding, 10, {"a": 4, "b": 4})


def test_constant_mask_and_value():
    sig = make_signature()
    assert sig.constant_mask == 0b11_0000_0000
    assert sig.constant_value == 0b01_0000_0000


def test_defined_mask_covers_constants_and_params():
    sig = make_signature()
    assert sig.defined_mask == 0b11_1111_1111


def test_dont_care_bits():
    encoding = (ast.BitAssign(9, 9, ast.EncConst(1)),)
    sig = Signature.from_encoding(encoding, 10, {})
    assert sig.defined_mask == 1 << 9
    assert sig.symbols[0] is None


def test_matches_only_on_constants():
    sig = make_signature()
    assert sig.matches(0b01_1010_0101)
    assert sig.matches(0b01_0000_0000)
    assert not sig.matches(0b10_1010_0101)


@given(st.integers(0, 15), st.integers(0, 15))
def test_assemble_extract_roundtrip(a, b):
    sig = make_signature()
    word = sig.assemble({"a": a, "b": b})
    assert sig.matches(word)
    assert sig.extract(word, "a") == a
    assert sig.extract(word, "b") == b


# symbols of a signature: don't-care, a constant bit, or a parameter bit
_SYMBOL = st.one_of(
    st.none(),
    st.sampled_from((0, 1)),
    st.tuples(st.sampled_from(("a", "b")), st.integers(0, 7)),
)


@st.composite
def _signature_and_word(draw):
    symbols = tuple(draw(st.lists(_SYMBOL, min_size=1, max_size=24)))
    word = draw(st.integers(0, (1 << len(symbols)) - 1))
    return Signature(len(symbols), symbols), word


@settings(max_examples=200, deadline=None)
@given(_signature_and_word())
def test_cached_masks_agree_with_symbols(case):
    sig, word = case
    fresh = Signature(sig.width, sig.symbols)
    pickled = pickle.dumps(sig)
    # the masks are computed once and kept; each equals a recomputation
    # from the symbols, read twice to hit the cached value
    for _ in range(2):
        assert sig.constant_mask == sum(
            1 << i for i, s in enumerate(sig.symbols) if s in (0, 1))
        assert sig.constant_value == sum(
            1 << i for i, s in enumerate(sig.symbols) if s == 1)
        assert sig.defined_mask == sum(
            1 << i for i, s in enumerate(sig.symbols) if s is not None)
    # matches agrees with a per-bit reference: every constant bit equal
    assert sig.matches(word) == all(
        (word >> i) & 1 == s for i, s in enumerate(sig.symbols)
        if s in (0, 1)
    )
    # reading the masks leaves identity alone: equality, hash, pickling
    assert sig == fresh and hash(sig) == hash(fresh)
    assert pickle.loads(pickled) == sig
    restored = pickle.loads(pickle.dumps(sig))
    assert restored == fresh and hash(restored) == hash(fresh)
    assert restored.matches(word) == sig.matches(word)
    assert restored.constant_mask == sig.constant_mask


def test_assemble_missing_param_raises():
    sig = make_signature()
    with pytest.raises(EncodingError):
        sig.assemble({"a": 1})


def test_param_positions_map_word_to_value_bits():
    sig = make_signature()
    positions = sig.param_positions("a")
    assert positions == [(4, 0), (5, 1), (6, 2), (7, 3)]


def test_split_parameter_slices():
    # A parameter split across two non-adjacent word ranges.
    encoding = (
        ast.BitAssign(7, 6, ast.EncParam("v", 3, 2)),
        ast.BitAssign(1, 0, ast.EncParam("v", 1, 0)),
    )
    sig = Signature.from_encoding(encoding, 8, {"v": 4})
    word = sig.assemble({"v": 0b1001})
    assert word == 0b10_0000_01
    assert sig.extract(word, "v") == 0b1001


def test_param_names_in_bit_order():
    sig = make_signature()
    assert sig.param_names() == ["b", "a"]


# ---------------------------------------------------------------------------
# SignatureTable over a real architecture
# ---------------------------------------------------------------------------


def test_table_covers_all_operations(risc16_desc):
    table = SignatureTable(risc16_desc)
    expected = sum(len(f.operations) for f in risc16_desc.fields)
    assert len(table.operation_signatures) == expected
    assert ("SRC", "reg") in table.option_signatures


def test_encode_operation_with_nt_operand(risc16_desc):
    table = SignatureTable(risc16_desc)
    # add R1, R2, R3  (register source)
    word = table.encode_operation(
        "EX", "add", {"d": 1, "a": 2, "b": ("reg", {"r": 3})}
    )
    assert (word >> 19) == 0b00001
    assert (word >> 16) & 0b111 == 1
    assert (word >> 13) & 0b111 == 2
    # NT: bit 8 of SRC field (word bit 12) = 0, reg index in low bits
    assert (word >> 12) & 1 == 0
    assert (word >> 4) & 0b111 == 3


def test_encode_operation_with_imm_operand(risc16_desc):
    table = SignatureTable(risc16_desc)
    word = table.encode_operation(
        "EX", "add", {"d": 1, "a": 2, "b": ("imm", {"v": 0xAB})}
    )
    assert (word >> 12) & 1 == 1
    assert (word >> 4) & 0xFF == 0xAB


def test_encode_signed_immediate(risc16_desc):
    table = SignatureTable(risc16_desc)
    word = table.encode_operation("EX", "beq", {"t": -3})
    assert (word >> 5) & 0xFF == (-3) & 0xFF


def test_encode_out_of_range_value_raises(risc16_desc):
    table = SignatureTable(risc16_desc)
    with pytest.raises(EncodingError):
        table.encode_operation(
            "EX", "add", {"d": 9, "a": 0, "b": ("imm", {"v": 0})}
        )


def test_encode_missing_sub_operand_raises(risc16_desc):
    table = SignatureTable(risc16_desc)
    with pytest.raises(EncodingError):
        table.encode_operation(
            "EX", "add", {"d": 1, "a": 0, "b": ("reg", {})}
        )


def test_encode_wrong_operand_shape_raises(risc16_desc):
    table = SignatureTable(risc16_desc)
    with pytest.raises(EncodingError):
        table.encode_operation(
            "EX", "add", {"d": ("reg", {}), "a": 0, "b": ("imm", {"v": 1})}
        )


def test_encode_instruction_combines_fields(spam_desc):
    table = SignatureTable(spam_desc)
    word = table.encode_instruction(
        {
            "FP1": ("fadd", {"d": 1, "a": 2, "b": 3}),
            "MV1": ("mov", {"d": 4, "s": 5}),
        }
    )
    fp1 = table.operation("FP1", "fadd")
    mv1 = table.operation("MV1", "mov")
    assert fp1.matches(word)
    assert mv1.matches(word)
    assert fp1.extract(word, "d") == 1
    assert mv1.extract(word, "s") == 5
