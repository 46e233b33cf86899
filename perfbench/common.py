"""Statistics, output records, digests and host facts shared by the
workloads."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

#: the Evaluation fields the cross-backend identity check compares
IDENTITY_FIELDS = ("feasible", "cycles", "stall_cycles", "per_kernel_cycles",
                   "cycle_ns", "die_size")

#: every deterministic Evaluation field (synthesis_seconds is wall time)
OUTPUT_FIELDS = ("feasible", "reason", "cycles", "stall_cycles", "cycle_ns",
                 "die_size", "core_die_size", "power_mw", "verilog_lines",
                 "per_kernel_cycles", "fingerprint")


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], pct: int) -> float:
    """The *pct*-th percentile (linear interpolation between ranks)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def gmean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def output_record(evaluation) -> Dict[str, object]:
    """The deterministic outputs of one Evaluation, as plain data."""
    record = {name: getattr(evaluation, name) for name in OUTPUT_FIELDS}
    record["per_kernel_cycles"] = dict(record["per_kernel_cycles"])
    stats = evaluation.stats
    record["instructions"] = stats.instructions if stats is not None else 0
    return record


#: artifact kinds whose incremental reuse the benchmark reports
REUSE_KINDS = ("sigtable", "fastcore", "sim", "synth")


def cache_counts(stats) -> Dict[str, float]:
    """An ArtifactCache's hit/miss/eviction/reuse counts as plain data."""
    counts = {"hits": stats.hits, "misses": stats.misses,
              "evictions": stats.evictions}
    for kind in REUSE_KINDS:
        counts[f"units_reused.{kind}"] = stats.units_reused[kind]
    return counts


def cache_metrics(counts: Dict[str, float]) -> Dict[str, float]:
    out = {
        "cache.hit_rate": share(counts.get("hits", 0),
                                counts.get("hits", 0)
                                + counts.get("misses", 0)),
        "cache.evictions": counts.get("evictions", 0),
    }
    for kind in REUSE_KINDS:
        out[f"cache.units_reused.{kind}"] = counts.get(
            f"units_reused.{kind}", 0)
    return out


def add_counts(parts: Iterable[Dict[str, float]]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for part in parts:
        for name, value in part.items():
            total[name] = total.get(name, 0) + value
    return total


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def load_golden() -> Dict[str, Dict[str, str]]:
    try:
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def save_golden(workload: str, digests: Dict[str, str]) -> None:
    golden = load_golden()
    golden[workload] = dict(sorted(digests.items()))
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


def self_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_mb(pid: int) -> float:
    """Peak resident memory of a live process (VmHWM), 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def pool_children_peak_mb() -> float:
    """Largest peak RSS among this process's live multiprocessing children
    (the evaluator's pool workers)."""
    import multiprocessing

    return max((process_peak_mb(child.pid)
                for child in multiprocessing.active_children()),
               default=0.0)


def host_record() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def first_mismatch(got: Dict[str, object], want: Dict[str, object],
                   fields: Sequence[str]) -> Optional[str]:
    for name in fields:
        if got.get(name) != want.get(name):
            return f"{name}: {got.get(name)!r} != {want.get(name)!r}"
    return None


def layer_rows(self_s: Dict[str, float], wall_s: float
               ) -> List[Dict[str, object]]:
    """Per-layer self time grouped by top-level layer, largest first."""
    groups: Dict[str, float] = {}
    for name, seconds in self_s.items():
        groups[name.split(".")[0]] = groups.get(name.split(".")[0], 0.0) \
            + seconds
    return [{"layer": name, "ms": seconds * 1000.0,
             "share": share(seconds, wall_s)}
            for name, seconds in sorted(groups.items(),
                                        key=lambda kv: -kv[1])]


# ----------------------------------------------------------------------
# Host speed.  The shared host this benchmark runs on changes speed by
# 30-50 % within a minute (CPU time drifts with wall time, so it is not
# waiting but slower execution).  Every end-to-end time is therefore
# reported in *reference-host milliseconds*: divided by the median time
# of a fixed interpreter-bound loop measured next to it, and multiplied
# by that loop's time on the reference host.  The loop is the
# benchmark's own code, so no change to the program can move it.
# ----------------------------------------------------------------------

#: the calibration loop's time on the reference host (2-CPU x86_64
#: container, Python 3.11, at its fastest), in ms
REFERENCE_MS = 2.0


def calibration_loop() -> int:
    """Integer arithmetic in the interpreter loop.  Of the loops tried
    (allocation, pointer chasing, large dicts, method calls, strings) its
    time tracked the evaluation pipeline's through the host's slow and
    fast phases most closely: log-log slope 1.0, where memory-bound
    loops slowed twice as much as the pipeline."""
    total = 0
    for i in range(20000):
        total += (i * 2654435761) & 0xFFFF
    return total


class Speedometer:
    """Calibration samples taken through a run, and the factor that turns
    a time measured at some moment into reference-host time."""

    def __init__(self, window: int = 11, clock=time.perf_counter):
        #: False reports raw times (factor 1), for comparison
        self.enabled = True
        self.window = window
        self.clock = clock
        self.at: List[float] = []
        self.ms: List[float] = []

    def tick(self, samples: int = 1) -> None:
        for _ in range(samples):
            start = self.clock()
            calibration_loop()
            end = self.clock()
            self.at.append((start + end) / 2.0)
            self.ms.append((end - start) * 1000.0)

    def factor(self, at: float) -> float:
        """REFERENCE_MS over the median of the *window* samples nearest
        in time to *at*."""
        if not self.ms or not self.enabled:
            return 1.0
        centre = bisect_left(self.at, at)
        lo = max(0, min(centre - self.window // 2,
                        len(self.ms) - self.window))
        return REFERENCE_MS / statistics.median(
            self.ms[lo:lo + self.window])

    def reference_ms(self, ms: float, at: float) -> float:
        return ms * self.factor(at)

    def median_factor(self) -> float:
        return REFERENCE_MS / median(self.ms) if self.ms else 1.0
