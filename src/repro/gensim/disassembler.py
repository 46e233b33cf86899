"""The generated disassembler (paper §3.3.2, Fig. 4).

The program to be simulated is disassembled *off-line at load time* to
determine which operations correspond to each input instruction.  The
algorithm is the paper's: for each field, match the constant part of every
operation signature against the instruction word (unique for a decodable
assembly function), then reverse the parameter encodings — recursing through
non-terminal return values (``disassemble_ntl``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..encoding.signature import Operand, Signature, SignatureTable
from ..errors import AmbiguousEncodingError, DisassemblyError
from ..isdl import ast


@dataclass(frozen=True)
class DecodedOperation:
    """One operation recovered from an instruction word."""

    field: str
    op_name: str
    operands: Dict[str, Operand]


@dataclass(frozen=True)
class DecodedInstruction:
    """A whole (possibly VLIW) instruction: one operation per field."""

    word: int
    operations: Tuple[DecodedOperation, ...]

    def operation_in(self, field_name: str) -> Optional[DecodedOperation]:
        for op in self.operations:
            if op.field == field_name:
                return op
        return None

    def selection(self) -> Dict[str, str]:
        """field → operation-name map (for constraint evaluation)."""
        return {op.field: op.op_name for op in self.operations}


class Disassembler:
    """The disassembly function derived from the bitfield assignments.

    Decoding is memoized by instruction word: real programs repeat words
    (loop bodies re-loaded across candidates, ``nop`` padding, common
    register moves), and :class:`DecodedInstruction` is immutable, so one
    decode per distinct word serves the whole session.  The LRU is
    per-instance — signatures depend on the description — and bounded by
    ``cache_size`` (0 disables memoization).
    """

    DEFAULT_CACHE_SIZE = 4096

    def __init__(self, desc: ast.Description,
                 table: Optional[SignatureTable] = None,
                 cache_size: int = DEFAULT_CACHE_SIZE):
        self.desc = desc
        self.table = table or SignatureTable(desc)
        self.cache_size = cache_size
        self.decode_hits = 0
        self.decode_misses = 0
        self._cache: "OrderedDict[int, DecodedInstruction]" = OrderedDict()

    # -- paper Fig. 4: disassemble(I) ---------------------------------------

    def disassemble(self, word: int) -> DecodedInstruction:
        """Decode one instruction word into per-field operations."""
        if self.cache_size:
            cached = self._cache.get(word)
            if cached is not None:
                self._cache.move_to_end(word)
                self.decode_hits += 1
                obs.add("disasm.decode_hits")
                return cached
        operations: List[DecodedOperation] = []
        for fld in self.desc.fields:
            operations.append(self._disassemble_field(word, fld))
        decoded = DecodedInstruction(word, tuple(operations))
        if self.cache_size:
            self.decode_misses += 1
            obs.add("disasm.decode_misses")
            self._cache[word] = decoded
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return decoded

    # -- paper Fig. 4: disassemble_field(s, f) ------------------------------

    def _disassemble_field(self, word: int, fld: ast.Field) -> DecodedOperation:
        matches = [
            op for op in fld.operations
            if self.table.operation(fld.name, op.name).matches(word)
        ]
        if len(matches) > 1:
            names = sorted(f"{fld.name}.{op.name}" for op in matches)
            raise AmbiguousEncodingError(
                f"AMBIGUOUS INSTRUCTION: word 0x{word:x} matches"
                f" {len(names)} operations in field {fld.name!r}:"
                f" {', '.join(names)} (assembly function is not"
                " decodable — see Axiom 1)",
                matches=tuple(names),
            )
        if not matches:
            raise DisassemblyError(
                f"ILLEGAL INSTRUCTION: word 0x{word:x} matches no operation"
                f" in field {fld.name!r}"
            )
        op = matches[0]
        signature = self.table.operation(fld.name, op.name)
        operands = self._decode_params(word, op.params, signature)
        return DecodedOperation(fld.name, op.name, operands)

    # -- paper Fig. 4: disassemble_ntl(s, n) --------------------------------

    def _disassemble_ntl(self, value: int, nt: ast.NonTerminal) -> Operand:
        matches = [
            option for option in nt.options
            if self.table.option(nt.name, option.label).matches(value)
        ]
        if len(matches) > 1:
            names = sorted(f"{nt.name}.{option.label}" for option in matches)
            raise AmbiguousEncodingError(
                f"AMBIGUOUS INSTRUCTION: value 0x{value:x} matches"
                f" {len(names)} options of non-terminal {nt.name!r}:"
                f" {', '.join(names)}",
                matches=tuple(names),
            )
        if not matches:
            raise DisassemblyError(
                f"ILLEGAL INSTRUCTION: value 0x{value:x} matches no option"
                f" of non-terminal {nt.name!r}"
            )
        option = matches[0]
        signature = self.table.option(nt.name, option.label)
        operands = self._decode_params(value, option.params, signature)
        return (option.label, operands)

    def _decode_params(self, word: int, params, signature: Signature):
        operands: Dict[str, Operand] = {}
        for param in params:
            ptype = self.desc.param_type(param)
            raw = signature.extract(word, param.name)
            if isinstance(ptype, ast.TokenDef):
                operands[param.name] = ptype.decode_value(raw)
            else:
                operands[param.name] = self._disassemble_ntl(raw, ptype)
        return operands
