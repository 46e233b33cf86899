"""Operation signatures and the assembly function (paper Fig. 3, §3.3.2).

A *signature* is an image of the instruction word with a symbol in each bit:

* ``None`` — don't-care: the assembly function never sets this bit,
* ``0`` / ``1`` — a constant set by the operation's opcode bits,
* ``(param_name, bit_index)`` — a function of bit *bit_index* of one
  parameter's return value.

Axiom 1 of the paper (each parameter symbol depends on a single parameter
only) holds by construction of our encoding AST and is validated by the
semantic checker, so every signature can be inverted symbolically: constants
identify the operation, parameter symbols are gathered back into parameter
values.  The same signature model drives the GENSIM disassembler and the
HGEN decode-logic generator (paper §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..errors import EncodingError, IsdlSemanticError
from ..isdl import ast

#: A decoded operand: token parameters bind to an integer value; non-terminal
#: parameters bind to ``(option_label, {sub_param: operand, ...})``.
Operand = Union[int, Tuple[str, Dict[str, "Operand"]]]


@dataclass(frozen=True)
class Signature:
    """The per-bit symbol image of one operation or non-terminal option."""

    width: int
    symbols: Tuple[object, ...]  # length == width, indexed by bit position

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_encoding(encoding: Sequence[ast.BitAssign], width: int,
                      value_widths: Dict[str, int]) -> "Signature":
        """Build a signature from bitfield assignments.

        *value_widths* maps parameter names to their return-value widths
        (used to expand whole-parameter references into per-bit symbols).
        """
        symbols: List[object] = [None] * width
        for assign in encoding:
            rhs = assign.rhs
            for offset in range(assign.width):
                position = assign.lo + offset
                if isinstance(rhs, ast.EncConst):
                    symbols[position] = (rhs.value >> offset) & 1
                elif isinstance(rhs, ast.EncParam):
                    lo = rhs.lo if rhs.lo is not None else 0
                    symbols[position] = (rhs.name, lo + offset)
                else:
                    raise IsdlSemanticError(
                        f"unknown encoding right-hand side {rhs!r}"
                    )
        return Signature(width, tuple(symbols))

    # -- views -------------------------------------------------------------
    #
    # The masks are pure functions of the frozen ``symbols``, so each is
    # computed on first use and kept in the instance ``__dict__``: the
    # disassembler calls :meth:`matches` for every operation of every
    # field of every decoded word.  Equality and hashing still see only
    # ``width`` and ``symbols``.

    @cached_property
    def constant_mask(self) -> int:
        """Mask of bits carrying a 0/1 constant."""
        result = 0
        for position, symbol in enumerate(self.symbols):
            if symbol in (0, 1):
                result |= 1 << position
        return result

    @cached_property
    def constant_value(self) -> int:
        """The constant bits' values (within :attr:`constant_mask`)."""
        result = 0
        for position, symbol in enumerate(self.symbols):
            if symbol == 1:
                result |= 1 << position
        return result

    @cached_property
    def defined_mask(self) -> int:
        """Mask of every bit the assembly function sets (non-don't-care)."""
        result = 0
        for position, symbol in enumerate(self.symbols):
            if symbol is not None:
                result |= 1 << position
        return result

    def param_positions(self, name: str) -> List[Tuple[int, int]]:
        """``(word_bit, value_bit)`` pairs for parameter *name*."""
        return [
            (position, symbol[1])
            for position, symbol in enumerate(self.symbols)
            if isinstance(symbol, tuple) and symbol[0] == name
        ]

    def param_names(self) -> List[str]:
        """Parameter names appearing in the signature, in bit order."""
        seen: List[str] = []
        for symbol in self.symbols:
            if isinstance(symbol, tuple) and symbol[0] not in seen:
                seen.append(symbol[0])
        return seen

    # -- the assembly function and its inverse ------------------------------

    def matches(self, word: int) -> bool:
        """True if the constant part of the signature matches *word*."""
        return (word & self.constant_mask) == self.constant_value

    def assemble(self, param_bits: Dict[str, int]) -> int:
        """Apply the assembly function: constants + encoded parameter bits.

        *param_bits* maps each parameter to its (unsigned) return-value bit
        pattern.  Don't-care bits are left zero.
        """
        word = self.constant_value
        for position, symbol in enumerate(self.symbols):
            if isinstance(symbol, tuple):
                name, value_bit = symbol
                if name not in param_bits:
                    raise EncodingError(
                        f"missing value for parameter {name!r}"
                    )
                if (param_bits[name] >> value_bit) & 1:
                    word |= 1 << position
        return word

    def extract(self, word: int, name: str) -> int:
        """Invert the encoding of parameter *name* from *word*."""
        value = 0
        for position, value_bit in self.param_positions(name):
            if (word >> position) & 1:
                value |= 1 << value_bit
        return value


# ---------------------------------------------------------------------------
# Signature tables for a whole description
# ---------------------------------------------------------------------------


class SignatureTable:
    """All signatures of a description, for operations and NT options.

    Built once per description; shared by the assembler, the disassembler
    generator, and the decode-logic generator.
    """

    def __init__(self, desc: ast.Description,
                 reuse_from: Optional[Tuple["SignatureTable", object]] = None):
        self.desc = desc
        self.operation_signatures: Dict[Tuple[str, str], Signature] = {}
        self.option_signatures: Dict[Tuple[str, str], Signature] = {}
        #: (rows carried over, rows built) when built incrementally.
        self.reuse_counts: Dict[str, int] = {}
        carry: Dict[Tuple[str, str], Signature] = {}
        if reuse_from is not None:
            # A row is a pure function of the operation's encoding, the
            # word width, and its parameters' value widths — so with the
            # format/token/NT environment identical, an unchanged
            # operation's row is byte-identical and carries over.
            parent, delta = reuse_from
            if delta.global_env_unchanged:
                carry = parent.operation_signatures
        with obs.span("encoding.sigtable", desc=desc.name):
            reused = built = 0
            for fld, op in desc.operations():
                key = (fld.name, op.name)
                if carry and delta.op_unchanged(*key):
                    self.operation_signatures[key] = carry[key]
                    reused += 1
                    continue
                widths = self._value_widths(op.params)
                self.operation_signatures[key] = (
                    Signature.from_encoding(
                        op.encoding, desc.word_width, widths
                    )
                )
                built += 1
            if carry:
                # NT options were proved identical by the environment
                # check; adopt the parent's table wholesale.
                self.option_signatures = dict(parent.option_signatures)
            else:
                for nt in desc.nonterminals.values():
                    for opt in nt.options:
                        widths = self._value_widths(opt.params)
                        self.option_signatures[(nt.name, opt.label)] = (
                            Signature.from_encoding(opt.encoding, nt.width,
                                                    widths)
                        )
            if reuse_from is not None:
                self.reuse_counts = {"reused": reused, "rebuilt": built}
            obs.add("sigtable.builds")

    def _value_widths(self, params) -> Dict[str, int]:
        widths = {}
        for param in params:
            ptype = self.desc.param_type(param)
            if isinstance(ptype, ast.TokenDef):
                widths[param.name] = ptype.value_width
            else:
                widths[param.name] = ptype.width
        return widths

    def operation(self, field_name: str, op_name: str) -> Signature:
        return self.operation_signatures[(field_name, op_name)]

    def option(self, nt_name: str, label: str) -> Signature:
        return self.option_signatures[(nt_name, label)]

    # -- recursive operand encoding -----------------------------------------

    def encode_param(self, param: ast.Param, operand: Operand) -> int:
        """Encode one operand to its return-value bit pattern."""
        ptype = self.desc.param_type(param)
        if isinstance(ptype, ast.TokenDef):
            if not isinstance(operand, int):
                raise EncodingError(
                    f"parameter {param.name!r} expects a token value,"
                    f" got {operand!r}"
                )
            if operand not in ptype.valid_values():
                raise EncodingError(
                    f"value {operand} out of range for token {ptype.name}"
                )
            return ptype.encode_value(operand)
        if not (isinstance(operand, tuple) and len(operand) == 2):
            raise EncodingError(
                f"parameter {param.name!r} expects a non-terminal operand"
                f" (label, sub-operands), got {operand!r}"
            )
        label, sub_operands = operand
        option = ptype.option(label)
        signature = self.option(ptype.name, label)
        bits = {}
        for sub_param in option.params:
            if sub_param.name not in sub_operands:
                raise EncodingError(
                    f"missing operand {sub_param.name!r} for"
                    f" {ptype.name}.{label}"
                )
            bits[sub_param.name] = self.encode_param(
                sub_param, sub_operands[sub_param.name]
            )
        return signature.assemble(bits)

    def encode_operation(self, field_name: str, op_name: str,
                         operands: Dict[str, Operand]) -> int:
        """Encode a full operation into its instruction-word contribution."""
        op = self.desc.operation(field_name, op_name)
        signature = self.operation(field_name, op_name)
        bits = {}
        for param in op.params:
            if param.name not in operands:
                raise EncodingError(
                    f"missing operand {param.name!r} for"
                    f" {field_name}.{op_name}"
                )
            bits[param.name] = self.encode_param(param, operands[param.name])
        return signature.assemble(bits)

    def encode_instruction(
        self, selections: Dict[str, Tuple[str, Dict[str, Operand]]]
    ) -> int:
        """Encode a whole (VLIW) instruction.

        *selections* maps field name → ``(op_name, operands)``.  Fields not
        mentioned contribute nothing (their bits stay don't-care/zero) —
        descriptions model explicit NOP encodings where the hardware needs
        them.
        """
        word = 0
        for field_name, (op_name, operands) in selections.items():
            word |= self.encode_operation(field_name, op_name, operands)
        return word


def decode_preserved(table: SignatureTable, desc: ast.Description,
                     words: Sequence[int], delta) -> bool:
    """True when *words* provably decode identically under parent and child.

    *table* is the **child** description's signature table and *delta* the
    parent→child :class:`~repro.isdl.fingerprint.FingerprintDelta`.  The
    disassembler requires exactly one constant-signature match per field
    (ambiguity and illegal words are load-time errors), which makes the
    proof local: if a word's unique match in the child is a delta-unchanged
    operation, that operation's signature is byte-identical in the parent,
    so it matched there too — and since the parent decoded the program
    without error, its unique match was the same operation with the same
    operand bits.  Conservative on every other outcome (changed/added
    unique match, no match, ambiguity): returns False and the caller
    decodes cold.
    """
    if not delta.global_env_unchanged:
        return False
    if not (delta.changed_ops or delta.added_ops or delta.removed_ops):
        return True
    for word in set(words):
        for fld in desc.fields:
            matched = None
            for op in fld.operations:
                if table.operation(fld.name, op.name).matches(word):
                    if matched is not None:
                        return False  # ambiguous: no proof
                    matched = op
            if matched is None:
                return False  # illegal in the child: let the load raise
            if not delta.op_unchanged(fld.name, matched.name):
                return False
    return True
