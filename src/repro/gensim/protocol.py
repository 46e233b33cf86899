"""The common simulator surface shared by every backend.

There are four cycle-accurate, bit-true executors: the generated
:class:`~repro.gensim.xsim.XSim` with its fast core (``xsim``) or walking
the RTL AST (``interpretive``), the program-specialized
:class:`~repro.gensim.compiled.CompiledSimulator` (``compiled``), and the
basic-block :class:`~repro.gensim.blocksim.BlockSimulator` (``block``).
The :class:`Simulator` protocol pins down the surface they share: load a
program, reset, run to completion, examine/set state, read statistics.
Code written against the protocol runs unchanged on every backend, and
:func:`simulator_for` builds one by name.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, runtime_checkable

from .stats import SimulationStats

__all__ = ["Simulator", "simulator_for"]


@runtime_checkable
class Simulator(Protocol):
    """Structural interface of a generated simulator.

    ``runtime_checkable`` — ``isinstance(sim, Simulator)`` verifies the
    surface is present, which the test suite uses to keep every backend
    conforming.
    """

    def load_words(self, words: Sequence[int], origin: int = 0):
        """Load raw instruction words (off-line disassembly happens here)."""

    def reset(self) -> None:
        """Reset cycle counts, pending writes and the PC; state persists."""

    def run_to_completion(self, max_steps: int = 1_000_000) -> SimulationStats:
        """Run until the halt flag rises; raise if it never does."""

    def read(self, name: str, index: Optional[int] = None) -> int:
        """Examine a storage element."""

    def write(self, name: str, value: int,
              index: Optional[int] = None) -> None:
        """Set a storage element."""

    @property
    def stats(self) -> SimulationStats:
        """Counters accumulated so far."""
        ...


def simulator_for(desc, backend: str = "xsim", **kwargs) -> "Simulator":
    """Build a simulator for *desc* by backend name.

    ``"xsim"`` (generated fast core), ``"interpretive"`` (XSim walking the
    RTL AST), ``"compiled"`` (program-specialized closures) or ``"block"``
    (basic-block JIT over exec-generated Python).
    """
    from .blocksim import BlockSimulator
    from .compiled import CompiledSimulator
    from .xsim import XSim

    if backend == "xsim":
        return XSim(desc, **kwargs)
    if backend == "interpretive":
        return XSim(desc, core="interpretive", **kwargs)
    if backend == "compiled":
        return CompiledSimulator(desc, **kwargs)
    if backend == "block":
        return BlockSimulator(desc, **kwargs)
    raise ValueError(f"unknown simulator backend {backend!r}")
