"""Seeded benchmark inputs: candidate descriptions and kernel sets.

The program only ever sees the generated descriptions and kernels; the
seed stays here.  Candidates are the shipped SPAM, RISC16 and SPAM2
descriptions plus mutants drawn with ``repro.explore.strategies.perturb``.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.arch import description_for
from repro.codegen import Compiler
from repro.codegen.kernels import parse_kernel_spec, resolve_kernels
from repro.errors import ReproError
from repro.explore.strategies import perturb
from repro.gensim.xsim import XSim
from repro.isdl import ast

ARCHS = ("spam", "risc16", "spam2")
BACKENDS = ("xsim", "compiled", "block")

#: short kernels per architecture (SPAM's is the ROADMAP reference set;
#: RISC16 and SPAM2 cannot target ``dot``)
SHORT_KERNELS: Dict[str, Tuple[str, ...]] = {
    "spam": ("sum:40", "dot:8", "blockmove:12"),
    "risc16": ("sum:40", "blockmove:12", "memset:16"),
    "spam2": ("sum:40", "blockmove:12", "memset:16"),
}

#: hot loops of about 1.1e5 simulated cycles (SPAM2 has no ``|`` for
#: the larger loop counters, so only SPAM and RISC16 run long)
LONG_KERNELS: Dict[str, Tuple[str, ...]] = {
    "spam": ("sum:30000", "dot:300", "blockmove:900"),
    "risc16": ("sum:27000", "blockmove:180", "memset:200"),
}


def data_footprint(specs: Sequence[str]) -> int:
    """Words of data memory the kernels address (their layouts are fixed
    in ``repro.codegen.kernels``)."""
    extent = {
        "sum": lambda n: 1,
        "dot": lambda n: max(16 + n, 41),
        "blockmove": lambda n: 64 + n,
        "memset": lambda n: 32 + n,
    }
    return max(extent[name](size)
               for name, size in map(parse_kernel_spec, specs))


def data_memory_depth(desc: ast.Description) -> int:
    return min((s.depth or 0) for s in desc.storages.values()
               if s.kind is ast.StorageKind.DATA_MEMORY)


@dataclass
class Candidate:
    """One candidate description with the kernels it is measured on."""

    index: int
    arch: str
    label: str
    derived_by: str
    desc: ast.Description
    specs: Tuple[str, ...]

    @property
    def kernels(self):
        return resolve_kernels(list(self.specs))

    def fresh(self) -> ast.Description:
        """A private copy, so per-object memos (fingerprints) start cold."""
        return copy.deepcopy(self.desc)


class CandidateStream:
    """An endless, seed-determined stream of candidates, built on demand.

    Architectures rotate in a fixed order and every *base_every*-th
    candidate of an architecture is its shipped description, so the mix
    is the same for every seed and only the mutants differ.  A mutant is
    kept only when the kernels can run on it: its data memory holds their
    data (their data layout is fixed, so a smaller memory cannot hold
    their operands), the compiler targets all of them and the binaries
    decode.  This is part of the workload's definition, whatever the
    backends do with such descriptions; ``skipped`` counts the rest.
    """

    def __init__(self, seed: int, kernels: Dict[str, Tuple[str, ...]],
                 base_every: int = 4, moves: int = 2):
        self.rng = random.Random(seed)
        self.kernels = kernels
        self.archs = [a for a in ARCHS if a in kernels]
        self.base_every = base_every
        self.moves = moves
        self.skipped = {"toolchain": 0, "data_memory": 0}
        self._produced: List[Candidate] = []

    def get(self, index: int) -> Candidate:
        while len(self._produced) <= index:
            self._produced.append(self._next(len(self._produced)))
        return self._produced[index]

    def _next(self, index: int) -> Candidate:
        arch = self.archs[index % len(self.archs)]
        specs = self.kernels[arch]
        base = description_for(arch)
        if (index // len(self.archs)) % self.base_every == 0:
            return Candidate(index, arch, f"{index}:{base.name}", "base",
                             base, specs)
        while True:
            mutant = perturb(base, self.rng, moves=self.moves)
            if mutant is None:
                continue
            desc, derived_by = mutant
            if data_memory_depth(desc) < data_footprint(specs):
                self.skipped["data_memory"] += 1
                continue
            if not _compiles(desc, specs):
                self.skipped["toolchain"] += 1
                continue
            return Candidate(index, arch, f"{index}:{desc.name}",
                             derived_by, desc, specs)


def _compiles(desc: ast.Description, specs: Sequence[str]) -> bool:
    """True when every kernel compiles and its binary decodes (work done
    on a copy, so the candidate's own memos stay cold)."""
    desc = copy.deepcopy(desc)
    compiler = Compiler(desc)
    try:
        for kernel in resolve_kernels(list(specs)):
            program = compiler.compile_to_words(kernel)
            XSim(desc).load_words(program.words, program.origin)
    except ReproError:
        return False
    return True
