"""Content-addressed artifact cache for the exploration tool chain.

Every box of the paper's Figure-1 loop regenerates from the single ISDL
description: signature tables, simulator cores, assembled workload
binaries, and synthesized hardware models.  During exploration the same
description (or large parts of it) is evaluated over and over — the
incumbent is re-simulated against new candidates, rejected candidates
reappear in later sweeps, and benchmark reruns repeat whole trajectories.
This module memoizes those artifacts behind a structural fingerprint
(:func:`repro.isdl.fingerprint`) so repeated work is a dictionary lookup.

Two layers:

* an in-memory LRU (always on) — bounded by ``max_entries``, shared by
  every tool that accepts a ``cache=`` handle;
* an optional on-disk pickle layer (``disk_path=``) for artifacts that
  survive pickling (assembled programs, whole evaluations), which makes
  warm-cache state persistent across processes and runs.  Entry names
  fold in :data:`DISK_FORMAT_VERSION`, so entries another format version
  wrote are plain misses.

The cache is thread-safe; builders run outside the lock, so two threads
racing on the same key may both build (last store wins) but never corrupt
the table.  All disk I/O is best-effort and safe under concurrent
writers, threads and processes alike: saves go to a uniquely named temp
file (pid + thread + sequence) and land with an atomic ``os.replace``,
so a reader never sees a half-written pickle; a corrupt or truncated
entry is treated as a miss — counted in ``stats.disk_errors`` and the
``cache.disk_corrupt`` obs counter, and the bad file is removed so the
rebuild overwrites it.  Two processes that miss the same key at once
both build it; the entry that lands is whole either way.  A fleet never
pays that duplicate: its router sends each fingerprint to one shard, and
each shard keeps its own cache (:mod:`repro.cluster`).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from . import obs

__all__ = ["ArtifactCache", "CacheStats", "kernel_fingerprint"]

#: Version of the pickled artifact formats, folded into every disk-entry
#: name.  Bump it whenever a pickled class or a cache key changes shape:
#: entries written under another version then miss instead of loading
#: objects the current code cannot read.  (Unversioned entries were 1.)
DISK_FORMAT_VERSION = 2


def kernel_fingerprint(kernel) -> str:
    """Stable digest of an IR kernel (dataclass reprs are deterministic)."""
    payload = f"{kernel.name}|{kernel.ops!r}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting, total and per artifact kind."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0
    #: disk entries that existed but failed to load (corrupt/truncated)
    disk_errors: int = 0
    hits_by_kind: Counter = field(default_factory=Counter)
    misses_by_kind: Counter = field(default_factory=Counter)
    #: artifacts built incrementally off a parent, per kind
    incremental_builds: Counter = field(default_factory=Counter)
    #: sub-units (rows, routines, node groups, ...) carried over, per kind
    units_reused: Counter = field(default_factory=Counter)
    #: sub-units rebuilt during incremental builds, per kind
    units_rebuilt: Counter = field(default_factory=Counter)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def report(self) -> str:
        lines = [
            f"cache: {self.hits} hits / {self.misses} misses"
            f" ({self.hit_rate * 100:.1f}% hit rate),"
            f" {self.evictions} evictions, {self.disk_hits} from disk"
            + (f", {self.disk_errors} corrupt disk entr"
               f"{'y' if self.disk_errors == 1 else 'ies'}"
               if self.disk_errors else "")
        ]
        for kind in sorted(set(self.hits_by_kind) | set(self.misses_by_kind)):
            lines.append(
                f"  {kind:12s} {self.hits_by_kind[kind]:5d} hit"
                f" {self.misses_by_kind[kind]:5d} miss"
            )
        if self.incremental_builds:
            lines.append("incremental:")
            for kind in sorted(self.incremental_builds):
                lines.append(
                    f"  {kind:12s} {self.incremental_builds[kind]:5d}"
                    f" build{'' if self.incremental_builds[kind] == 1 else 's'}"
                    f" ({self.units_reused[kind]} units reused,"
                    f" {self.units_rebuilt[kind]} rebuilt)"
                )
        return "\n".join(lines)


class ArtifactCache:
    """LRU artifact cache keyed by ``(kind, key)``.

    The generic interface is :meth:`get_or_build`; the typed helpers below
    it encode the key conventions used across the tool chain so callers
    (metrics, the parallel evaluator, benchmarks) agree on what a cache
    entry means.
    """

    #: artifact kinds that survive pickling and may go to the disk layer
    PICKLABLE_KINDS = frozenset({"program", "evaluation", "analysis"})

    def __init__(self, max_entries: int = 512,
                 disk_path: Optional[str] = None):
        self.max_entries = max_entries
        self.disk_path = disk_path
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple[str, Hashable], Any]" = OrderedDict()
        self._lock = threading.RLock()
        if disk_path:
            os.makedirs(disk_path, exist_ok=True)

    # ------------------------------------------------------------------
    # Generic interface
    # ------------------------------------------------------------------

    def get_or_build(self, kind: str, key: Hashable,
                     builder: Callable[[], Any]) -> Any:
        """Return the cached artifact for ``(kind, key)`` or build it."""
        full_key = (kind, key)
        with self._lock:
            if full_key in self._entries:
                self._entries.move_to_end(full_key)
                self.stats.hits += 1
                self.stats.hits_by_kind[kind] += 1
                obs.add("cache.hits")
                return self._entries[full_key]
        value, from_disk = self._disk_load(kind, key)
        if not from_disk:
            value = builder()
        with self._lock:
            if from_disk:
                self.stats.hits += 1
                self.stats.hits_by_kind[kind] += 1
                self.stats.disk_hits += 1
                obs.add("cache.hits")
                obs.add("cache.disk_hits")
            else:
                self.stats.misses += 1
                self.stats.misses_by_kind[kind] += 1
                obs.add("cache.misses")
            self._store(full_key, value)
        if not from_disk:
            self._disk_save(kind, key, value)
        return value

    def peek(self, kind: str, key: Hashable) -> Optional[Any]:
        """Non-counting lookup (memory layer only); None on miss."""
        with self._lock:
            return self._entries.get((kind, key))

    def clear(self) -> None:
        """Drop the in-memory layer (disk entries are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _store(self, full_key: Tuple[str, Hashable], value: Any) -> None:
        self._entries[full_key] = value
        self._entries.move_to_end(full_key)
        self.stats.stores += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            obs.add("cache.evictions")

    # ------------------------------------------------------------------
    # Disk layer (best-effort, picklable kinds only)
    # ------------------------------------------------------------------

    #: everything a hostile/truncated pickle can raise at load time
    _DISK_LOAD_ERRORS = (
        OSError, pickle.PickleError, EOFError, AttributeError,
        ImportError, IndexError, ValueError, TypeError,
        MemoryError,
    )

    #: unique temp-file names even for two threads saving the same key
    _tmp_seq = itertools.count()

    def _disk_file(self, kind: str, key: Hashable) -> str:
        digest = hashlib.sha256(
            repr((DISK_FORMAT_VERSION, kind, key)).encode()
        ).hexdigest()
        return os.path.join(self.disk_path, f"{kind}-{digest[:32]}.pkl")

    def _disk_load(self, kind: str, key: Hashable) -> Tuple[Any, bool]:
        if not self.disk_path or kind not in self.PICKLABLE_KINDS:
            return None, False
        path = self._disk_file(kind, key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle), True
        except FileNotFoundError:
            return None, False  # a plain miss, not a corrupt entry
        except self._DISK_LOAD_ERRORS:
            # the entry exists but cannot be loaded (truncated write from
            # a killed process, version skew, bit rot): count it, drop
            # the bad file so the rebuild overwrites it, report a miss
            with self._lock:
                self.stats.disk_errors += 1
            obs.add("cache.disk_corrupt")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None, False

    def _disk_save(self, kind: str, key: Hashable, value: Any) -> None:
        if not self.disk_path or kind not in self.PICKLABLE_KINDS:
            return
        path = self._disk_file(kind, key)
        # temp-file-then-rename keeps the landing atomic; the name is
        # unique per (process, thread, save) so concurrent writers of the
        # same key never clobber each other's half-written temp file
        tmp = (f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
               f".{next(self._tmp_seq)}")
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(value, handle)
            os.replace(tmp, path)
        except (OSError, pickle.PickleError, TypeError):
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Typed helpers — the key conventions of the tool chain
    # ------------------------------------------------------------------

    def description_fingerprint(self, desc) -> str:
        """Fingerprint a description (memoized per AST object)."""
        from .isdl import fingerprint

        return fingerprint(desc)

    @staticmethod
    def _parent_delta(parent, child):
        """FingerprintDelta parent → child, or None without a parent."""
        if parent is None:
            return None
        from .isdl.fingerprint import fingerprint_delta

        return fingerprint_delta(parent, child)

    def note_incremental(self, kind: str, counts: Dict[str, int]) -> None:
        """Fold a builder's per-unit reuse counts into the stats.

        *counts* is the ``reuse_counts`` attribute incremental builders
        expose: keys ending in ``reused``/``copied`` count carried-over
        units, keys ending in ``rebuilt``/``computed``/``partitioned``
        count rebuilt ones.
        """
        reused = sum(v for k, v in counts.items()
                     if k.endswith(("reused", "copied")))
        rebuilt = sum(v for k, v in counts.items()
                      if k.endswith(("rebuilt", "computed", "partitioned")))
        with self._lock:
            self.stats.incremental_builds[kind] += 1
            self.stats.units_reused[kind] += reused
            self.stats.units_rebuilt[kind] += rebuilt
        obs.add("cache.incremental.builds")
        obs.add(f"cache.incremental.{kind}.reused", reused)
        obs.add(f"cache.incremental.{kind}.rebuilt", rebuilt)

    def signature_table(self, desc, fp: Optional[str] = None, *,
                        parent=None):
        """Memoized :class:`~repro.encoding.signature.SignatureTable`.

        With *parent* (the description this one was mutated from) a miss
        builds incrementally: rows of delta-unchanged operations are
        carried over from the parent's cached table when it is present.
        """
        from .encoding.signature import SignatureTable

        fp = fp or self.description_fingerprint(desc)

        def build():
            parent_table = (
                self.peek("sigtable", self.description_fingerprint(parent))
                if parent is not None else None
            )
            if parent_table is None:
                return SignatureTable(desc)
            delta = self._parent_delta(parent, desc)
            table = SignatureTable(desc, reuse_from=(parent_table, delta))
            self.note_incremental("sigtable", table.reuse_counts)
            return table

        return self.get_or_build("sigtable", fp, build)

    def fast_core(self, desc, fp: Optional[str] = None, *, parent=None):
        """Memoized :class:`~repro.gensim.fastcore.FastCore`.

        A FastCore is stateless between runs (it only caches compiled
        per-operation routines), so one instance serves every simulator
        generated for the same description.  With *parent*, a miss adopts
        the parent core's compiled routines for delta-unchanged
        operations instead of recompiling them on first dispatch.
        """
        from .gensim.fastcore import FastCore

        fp = fp or self.description_fingerprint(desc)

        def build():
            parent_core = (
                self.peek("fastcore", self.description_fingerprint(parent))
                if parent is not None else None
            )
            if parent_core is None:
                return FastCore(desc)
            delta = self._parent_delta(parent, desc)
            core = FastCore(desc, reuse_from=(parent_core, delta))
            self.note_incremental("fastcore", core.reuse_counts)
            return core

        return self.get_or_build("fastcore", fp, build)

    def assembled(self, desc, kernel, builder: Callable[[], Any],
                  fp: Optional[str] = None, *, parent=None):
        """Memoized assembled workload binary for (description, kernel).

        With *parent*, a miss first checks whether the parent's cached
        program for the same kernel is still valid — the delta must prove
        the whole instruction set, encoding environment, storages, and
        constraints unchanged (:attr:`FingerprintDelta.assembly_reusable`)
        — and adopts it without re-running the assembler.
        """
        fp = fp or self.description_fingerprint(desc)

        def build():
            if parent is not None:
                parent_program = self.peek(
                    "program",
                    (self.description_fingerprint(parent),
                     kernel_fingerprint(kernel)),
                )
                if parent_program is not None:
                    delta = self._parent_delta(parent, desc)
                    if delta.assembly_reusable:
                        self.note_incremental("program", {"reused": 1})
                        return parent_program
            return builder()

        return self.get_or_build(
            "program", (fp, kernel_fingerprint(kernel)), build
        )

    def synthesized(self, desc, fp: Optional[str] = None, *,
                    share: bool = True, use_constraints: bool = True,
                    parent=None, tech=None):
        """Memoized :func:`repro.hgen.synthesize` hardware model.

        With *parent*, a miss synthesizes incrementally off the parent's
        cached model (same *share*/*use_constraints* key): unchanged
        operations keep their extracted nodes, stable compatibility-matrix
        entries are copied, and per-component clique partitions are reused
        by structural digest.  A miss synthesizes against this cache's
        :meth:`signature_table`, so the evaluation's one table serves the
        decode logic too.

        *tech* (a :class:`repro.tech.TechModel`) projects the returned
        model into a scaled technology **after** the cache fetch — the
        synth cache itself stays technology independent, so one stored
        synthesis serves every node/flavor a sweep asks for.
        """
        from .hgen import synthesize

        fp = fp or self.description_fingerprint(desc)

        def build():
            reuse_from = None
            if parent is not None:
                parent_model = self.peek(
                    "synth",
                    (self.description_fingerprint(parent), share,
                     use_constraints),
                )
                if parent_model is not None:
                    reuse_from = (
                        parent_model, self._parent_delta(parent, desc)
                    )
            model = synthesize(desc, share=share,
                               use_constraints=use_constraints,
                               table=self.signature_table(
                                   desc, fp, parent=parent),
                               reuse_from=reuse_from)
            if reuse_from is not None:
                self.note_incremental("synth", model.reuse_counts)
            return model

        model = self.get_or_build(
            "synth", (fp, share, use_constraints), build
        )
        if tech is not None:
            model = model.with_tech(tech)
        return model

    def block_table(self, desc, words, origin: int,
                    builder: Callable[[], Any],
                    fp: Optional[str] = None):
        """Memoized :class:`repro.gensim.blocksim.BlockTable`.

        Keyed by (description fingerprint, program words, origin): block
        functions close over burned constants only, so one lazily filled
        table serves every simulator measuring the same candidate.
        Memory layer only — compiled code objects do not pickle.
        """
        fp = fp or self.description_fingerprint(desc)
        return self.get_or_build(
            "blocktable", (fp, tuple(words), origin), builder
        )

    def peek_block_table(self, desc, words, origin: int,
                         fp: Optional[str] = None):
        """Non-counting lookup of a cached block table; None on miss.

        Used by the block simulator to find the *parent* candidate's
        table for the same program so delta-unchanged compiled blocks can
        be adopted instead of recompiled (see
        :meth:`repro.gensim.blocksim.BlockSimulator.load_words`).
        """
        fp = fp or self.description_fingerprint(desc)
        return self.peek("blocktable", (fp, tuple(words), origin))

    def evaluation(self, key: Hashable, builder: Callable[[], Any]):
        """Memoized whole-candidate evaluation (see explore.metrics)."""
        return self.get_or_build("evaluation", key, builder)

    def analysis(self, desc, builder: Callable[[], Any],
                 fp: Optional[str] = None):
        """Memoized :class:`repro.analyze.AnalysisResult` for a description.

        Keyed by the structural fingerprint alone: the analysis depends on
        nothing but the description, so the explorer's validity gate pays
        one run per distinct candidate and a lookup thereafter.
        """
        fp = fp or self.description_fingerprint(desc)
        return self.get_or_build("analysis", fp, builder)
