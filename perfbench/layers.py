"""Per-layer attribution by wrapping the program's public entry points.

Nothing in the program changes.  :func:`install` replaces public
functions and methods of ``repro`` with timing wrappers in this process;
worker processes forked from it inherit them.  Each wrapped call is a
span.  A span's *self time* is its duration minus the time of the
wrapped calls made inside it, so self times add up to the covered part
of the wall time and nothing is counted twice.

A recorder keeps its totals in memory.  In a process-pool worker the
totals cannot reach the parent that way, so with ``to_obs`` set the
wrappers write ``perfbench.<layer>.self_s`` / ``.calls`` counters into the
:mod:`repro.obs` registry instead; ``ParallelEvaluator`` ships each pool
evaluation's registry snapshot back and merges it into the parent's.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Union

OBS_PREFIX = "perfbench."

Layer = Union[str, Callable[..., str]]


class Recorder:
    """Self time and call count per layer, for every thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()
        self.to_obs = False
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)

    def _stack(self) -> list:
        if os.getpid() != self._pid:
            # a forked worker starts with a copy of the parent's open spans
            self._pid = os.getpid()
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, layer: str, self_s: float, total_s: float) -> None:
        if self.to_obs:
            from repro import obs

            obs.add(f"{OBS_PREFIX}{layer}.self_s", self_s)
            obs.add(f"{OBS_PREFIX}{layer}.total_s", total_s)
            obs.add(f"{OBS_PREFIX}{layer}.calls")
            return
        with self._lock:
            self.self_s[layer] += self_s
            self.total_s[layer] += total_s
            self.calls[layer] += 1

    def timed(self, layer: Layer, fn: Callable) -> Callable:
        """*fn* wrapped as a span of *layer* (a name, or a function of the
        call's arguments returning one)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # time covered by wrapped calls inside this one
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                name = layer if isinstance(layer, str) else layer(*args)
                self._record(name, duration - frame[0], duration)

        wrapper.__perfbench_original__ = fn
        return wrapper

    def counted(self, layer: str, fn: Callable) -> Callable:
        """*fn* with its calls counted but not timed: for hot functions,
        whose time then stays with their callers."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.to_obs:
                from repro import obs

                obs.add(f"{OBS_PREFIX}{layer}.calls")
            else:
                with self._lock:
                    self.calls[layer] += 1
            return fn(*args, **kwargs)

        wrapper.__perfbench_original__ = fn
        return wrapper

    @contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark itself (e.g. one evaluation)."""
        stack = self._stack()
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            self._record(layer, duration - frame[0], duration)

    def reset(self) -> None:
        with self._lock:
            self.self_s.clear()
            self.total_s.clear()
            self.calls.clear()

    def totals(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {"self_s": dict(self.self_s),
                    "total_s": dict(self.total_s),
                    "calls": dict(self.calls)}


def obs_totals(counters: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """The ``perfbench.*`` counters of a registry snapshot as totals."""
    out: Dict[str, Dict[str, float]] = {"self_s": {}, "total_s": {},
                                        "calls": {}}
    for name, value in counters.items():
        if not name.startswith(OBS_PREFIX):
            continue
        layer, _, kind = name[len(OBS_PREFIX):].rpartition(".")
        if kind in out:
            out[kind][layer] = out[kind].get(layer, 0.0) + value
    return out


def merge_totals(*parts: Dict[str, Dict[str, float]]
                 ) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {"self_s": {}, "total_s": {},
                                        "calls": {}}
    for part in parts:
        for kind in out:
            for layer, value in part.get(kind, {}).items():
                out[kind][layer] = out[kind].get(layer, 0.0) + value
    return out


#: layer owning the work of an ArtifactCache builder, by artifact kind;
#: a whole-evaluation build is pipeline glue, reported as unattributed
BUILD_LAYERS = {
    "sigtable": "encoding.sigtable",
    "fastcore": "gensim.build",
    "program": "codegen.compile",
    "sim": "gensim.build",
    "synth": "hgen.synth",
    "blocktable": "gensim.block_compile",
    "facts": "analyze.dataflow",
    "analysis": "analyze.check",
    "evaluation": "eval.pipeline",
}


def _backend_of(sim) -> str:
    from repro.gensim.blocksim import BlockSimulator
    from repro.gensim.compiled import CompiledSimulator

    if isinstance(sim, BlockSimulator):
        return "block"
    if isinstance(sim, CompiledSimulator):
        return "compiled"
    return "xsim"


def _run_layer(sim, *args) -> str:
    return "gensim.run." + _backend_of(sim)


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every layer (idempotent per
    process: call it once)."""
    import repro.analyze as analyze_pkg
    import repro.analyze.dataflow as dataflow
    import repro.analyze.passes as passes
    import repro.cache as cache_mod
    import repro.explore.metrics as metrics
    import repro.explore.parallel as parallel
    import repro.explore.strategies as strategies
    import repro.gensim.blocksim as blocksim
    import repro.hgen as hgen
    import repro.isdl as isdl
    import repro.serve.service as service
    from repro.asm.assembler import Assembler
    from repro.cache import ArtifactCache
    from repro.codegen.compile import Compiler
    from repro.encoding.signature import Signature, SignatureTable
    from repro.explore.parallel import ParallelEvaluator
    from repro.gensim.compiled import CompiledSimulator
    from repro.gensim.disassembler import Disassembler
    from repro.gensim.fastcore import FastCore
    from repro.gensim.xsim import XSim

    # the package attribute ``repro.isdl.fingerprint`` is the function,
    # which shadows the submodule of the same name
    fingerprint_mod = importlib.import_module("repro.isdl.fingerprint")
    wrapped: Dict[int, Callable] = {}

    def wrap(fn: Callable, layer: Layer) -> Callable:
        if id(fn) not in wrapped:
            wrapped[id(fn)] = rec.timed(layer, fn)
        return wrapped[id(fn)]

    def functions(layer: Layer, name: str, *modules) -> None:
        # the same function object is bound in every module that
        # imported it by name; each binding gets the one wrapper
        for module in modules:
            setattr(module, name, wrap(getattr(module, name), layer))

    def methods(layer: Layer, name: str, *classes) -> None:
        for cls in classes:
            if name in cls.__dict__:
                setattr(cls, name, wrap(cls.__dict__[name], layer))

    # isdl: structural fingerprints and parsing
    functions("isdl.fingerprint", "fingerprint", fingerprint_mod, isdl,
              metrics, parallel, strategies, dataflow, passes, service)
    functions("isdl.fingerprint", "fingerprint_delta", fingerprint_mod,
              metrics, blocksim)
    functions("isdl.parse", "load_string", isdl)
    # codegen / asm
    methods("codegen.compile", "compile_to_words", Compiler)
    methods("asm.assemble", "assemble", Assembler)
    # encoding
    methods("encoding.sigtable", "__init__", SignatureTable)
    Signature.matches = rec.counted("encoding.matches",
                                    Signature.__dict__["matches"])
    # gensim: off-line decode, simulator/core builds, program load, run
    methods("gensim.disassembler", "__init__", Disassembler)
    methods("gensim.build", "__init__", XSim, CompiledSimulator,
            blocksim.BlockSimulator, FastCore)
    methods("gensim.load", "load_words", XSim, CompiledSimulator,
            blocksim.BlockSimulator)
    methods(_run_layer, "run_to_completion", XSim, CompiledSimulator,
            blocksim.BlockSimulator)
    # analyze: the static gate, dataflow proofs and their checkers
    analyze_pkg.check_static = wrap(passes.check_static, "analyze.check")
    functions("analyze.check", "check_static", passes)
    for name in ("program_facts", "derive_deopt_freedom",
                 "derive_superblock_chains"):
        functions("analyze.dataflow", name, dataflow)
    for name in ("check_deopt_freedom", "check_superblock_chains"):
        functions("analyze.proof_check", name, dataflow)
    # hgen
    functions("hgen.synth", "synthesize", hgen)
    functions("hgen.power", "estimate_power", hgen, metrics)
    # cache: lookups and key hashing.  A builder's own work belongs to
    # the layer that owns the artifact; wrapped calls inside it are
    # attributed to their layers as usual.
    get_or_build = ArtifactCache.__dict__["get_or_build"]

    @functools.wraps(get_or_build)
    def attributed_get_or_build(cache, kind, key, builder):
        layer = BUILD_LAYERS.get(kind, "cache.build")
        return get_or_build(cache, kind, key, rec.timed(layer, builder))

    ArtifactCache.get_or_build = rec.timed("cache.lookup",
                                           attributed_get_or_build)
    functions("cache.lookup", "kernel_fingerprint", cache_mod, metrics)
    # explore: batches and strategy proposals
    methods("explore.batch", "evaluate_many", ParallelEvaluator)
    for obj in vars(strategies).values():
        if isinstance(obj, type) and issubclass(obj, strategies.Strategy):
            methods("explore.propose", "propose", obj)
