"""Tests for the content-addressed artifact cache and ISDL fingerprints."""

import os
import time

import pytest

from repro.arch import description_for
from repro.cache import ArtifactCache, kernel_fingerprint
from repro.codegen import KernelBuilder, Opcode
from repro.explore import evaluate, transforms
from repro.isdl import fingerprint, load_string, print_description


def small_kernel():
    K = KernelBuilder("tiny")
    a = K.li(3)
    b = K.li(4)
    K.store(K.li(0), K.binary(Opcode.ADD, a, b))
    return K.build()


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


@pytest.mark.parametrize("arch", ["risc16", "spam", "acc8"])
def test_fingerprint_stable_across_print_parse_roundtrip(arch):
    desc = description_for(arch)
    reparsed = load_string(print_description(desc))
    assert fingerprint(desc) == fingerprint(reparsed)
    # and the round trip is a fixed point, not merely hash-equal
    assert print_description(desc) == print_description(reparsed)


def test_fingerprint_distinguishes_architectures():
    assert fingerprint(description_for("risc16")) != fingerprint(
        description_for("spam")
    )


def test_fingerprint_invalidated_when_operations_change():
    desc = description_for("risc16")
    before = fingerprint(desc)
    fld = desc.fields[0]
    droppable = [
        (fld.name, op.name)
        for op in fld.operations
        if op.action
    ][:1]
    leaner = transforms.drop_operations(desc, droppable)
    assert fingerprint(leaner) != before
    # the original is untouched (transforms are functional)
    assert fingerprint(desc) == before


def test_fingerprint_sensitive_to_timing_annotations():
    from repro.isdl import ast

    desc = description_for("risc16")
    fld, op = next(
        (f, o) for f, o in desc.operations() if o.action
    )
    changed = transforms.set_operation_timing(
        desc, fld.name, op.name,
        costs=ast.Costs(op.costs.cycle + 1, op.costs.stall, op.costs.size),
        timing=op.timing,
    )
    assert fingerprint(changed) != fingerprint(desc)


def test_kernel_fingerprint_stable_and_distinct():
    assert kernel_fingerprint(small_kernel()) == kernel_fingerprint(
        small_kernel()
    )
    K = KernelBuilder("tiny")
    K.store(K.li(0), K.li(9))
    assert kernel_fingerprint(K.build()) != kernel_fingerprint(
        small_kernel()
    )


# ----------------------------------------------------------------------
# LRU layer: hit/miss accounting, eviction
# ----------------------------------------------------------------------


def test_hit_miss_accounting():
    cache = ArtifactCache()
    builds = []
    for _ in range(3):
        cache.get_or_build("thing", "k", lambda: builds.append(1) or 42)
    assert builds == [1]
    assert cache.stats.misses == 1
    assert cache.stats.hits == 2
    assert cache.stats.hits_by_kind["thing"] == 2
    assert cache.stats.misses_by_kind["thing"] == 1
    assert cache.stats.hit_rate == pytest.approx(2 / 3)
    assert "thing" in cache.stats.report()


def test_lru_eviction_drops_oldest():
    cache = ArtifactCache(max_entries=2)
    cache.get_or_build("k", 1, lambda: "a")
    cache.get_or_build("k", 2, lambda: "b")
    cache.get_or_build("k", 1, lambda: "a")  # touch 1 → 2 is now oldest
    cache.get_or_build("k", 3, lambda: "c")
    assert cache.stats.evictions == 1
    assert cache.peek("k", 2) is None
    assert cache.peek("k", 1) == "a"
    assert len(cache) == 2


def test_signature_table_and_fast_core_shared():
    cache = ArtifactCache()
    desc = description_for("risc16")
    assert cache.signature_table(desc) is cache.signature_table(desc)
    assert cache.fast_core(desc) is cache.fast_core(desc)


# ----------------------------------------------------------------------
# Disk layer
# ----------------------------------------------------------------------


def test_disk_layer_survives_new_cache(tmp_path):
    disk = str(tmp_path / "artifacts")
    first = ArtifactCache(disk_path=disk)
    first.get_or_build("evaluation", ("fp", "k"), lambda: {"cycles": 99})

    second = ArtifactCache(disk_path=disk)

    def must_not_build():
        raise AssertionError("disk layer should have served this")

    value = second.get_or_build("evaluation", ("fp", "k"), must_not_build)
    assert value == {"cycles": 99}
    assert second.stats.disk_hits == 1


def test_disk_layer_ignores_unpicklable_kinds(tmp_path):
    cache = ArtifactCache(disk_path=str(tmp_path / "d"))
    value = cache.get_or_build("sigtable", "fp", lambda: object())
    fresh = ArtifactCache(disk_path=str(tmp_path / "d"))
    rebuilt = []
    fresh.get_or_build("sigtable", "fp", lambda: rebuilt.append(1) or value)
    assert rebuilt == [1]  # memory-only kind: new cache rebuilds


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    disk = str(tmp_path / "artifacts")
    cache = ArtifactCache(disk_path=disk)
    cache.get_or_build("evaluation", "key", lambda: 1)
    path = cache._disk_file("evaluation", "key")
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")
    fresh = ArtifactCache(disk_path=disk)
    assert fresh.get_or_build("evaluation", "key", lambda: 2) == 2


def test_entry_of_another_format_version_is_a_plain_miss(tmp_path,
                                                         monkeypatch):
    import repro.cache as cache_mod

    disk = str(tmp_path / "artifacts")
    current = cache_mod.DISK_FORMAT_VERSION
    monkeypatch.setattr(cache_mod, "DISK_FORMAT_VERSION", current - 1)
    old = ArtifactCache(disk_path=disk)
    old.get_or_build("evaluation", "key", lambda: "stale")
    monkeypatch.setattr(cache_mod, "DISK_FORMAT_VERSION", current)
    cache = ArtifactCache(disk_path=disk)
    assert cache.get_or_build("evaluation", "key", lambda: "fresh") \
        == "fresh"
    assert cache.stats.disk_hits == 0
    assert cache.stats.disk_errors == 0  # a miss, not a corrupt entry
    # both versions' entries sit side by side; neither was deleted
    assert len(os.listdir(disk)) == 2


# ----------------------------------------------------------------------
# Whole-evaluation memoization and invalidation
# ----------------------------------------------------------------------


def test_cached_evaluation_hits_and_invalidates():
    cache = ArtifactCache()
    desc = description_for("risc16")
    kernel = small_kernel()

    first = evaluate(desc, [kernel], cache=cache)
    assert cache.stats.misses_by_kind["evaluation"] == 1

    again = evaluate(desc, [kernel], cache=cache)
    assert cache.stats.hits_by_kind["evaluation"] == 1
    assert again.cycles == first.cycles
    assert again.die_size == first.die_size

    # a structurally different candidate never hits the old entry
    fld = desc.fields[0]
    droppable = [
        (fld.name, op.name)
        for op in fld.operations
        if op.action and kernel_unused(first, fld.name, op.name)
    ][:1]
    if droppable:
        leaner = transforms.drop_operations(desc, droppable)
        evaluate(leaner, [kernel], cache=cache)
        assert cache.stats.misses_by_kind["evaluation"] == 2


def kernel_unused(evaluation, field_name, op_name):
    return evaluation.stats.op_counts[(field_name, op_name)] == 0


def test_cached_evaluation_results_are_bit_true():
    cache = ArtifactCache()
    desc = description_for("spam")
    kernel = small_kernel()
    cold = evaluate(desc, [kernel], cache=cache)
    plain = evaluate(desc, [kernel])
    assert cold.cycles == plain.cycles
    assert cold.stall_cycles == plain.stall_cycles
    assert cold.cycle_ns == plain.cycle_ns
    assert cold.die_size == plain.die_size
    assert cold.power_mw == plain.power_mw


# ----------------------------------------------------------------------
# Disk-layer hardening (atomic writes, corrupt-entry accounting)
# ----------------------------------------------------------------------


def test_corrupt_disk_entry_is_counted_and_rebuilt(tmp_path):
    disk = str(tmp_path / "artifacts")
    seeded = ArtifactCache(disk_path=disk)
    seeded.get_or_build("evaluation", "key", lambda: "good")
    path = seeded._disk_file("evaluation", "key")
    with open(path, "wb") as handle:
        handle.write(b"\x80\x04 definitely not a pickle")
    cache = ArtifactCache(disk_path=disk)
    assert cache.get_or_build("evaluation", "key", lambda: "rebuilt") \
        == "rebuilt"
    assert cache.stats.disk_errors == 1
    assert cache.stats.misses == 1  # corrupt counts as a miss, not a hit
    assert "1 corrupt disk entry" in cache.stats.report()
    # the bad file was replaced: a fresh cache loads the rebuilt value
    fresh = ArtifactCache(disk_path=disk)
    assert fresh.get_or_build("evaluation", "key", lambda: "wrong") \
        == "rebuilt"
    assert fresh.stats.disk_errors == 0


def test_truncated_disk_entry_is_a_counted_miss(tmp_path):
    import pickle

    disk = str(tmp_path / "artifacts")
    seeded = ArtifactCache(disk_path=disk)
    seeded.get_or_build("evaluation", "key", lambda: list(range(1000)))
    path = seeded._disk_file("evaluation", "key")
    blob = pickle.dumps(list(range(1000)))
    with open(path, "wb") as handle:
        handle.write(blob[: len(blob) // 2])  # a killed writer's leavings
    cache = ArtifactCache(disk_path=disk)
    assert cache.get_or_build("evaluation", "key", lambda: "rebuilt") \
        == "rebuilt"
    assert cache.stats.disk_errors == 1


def test_missing_disk_entry_is_a_plain_miss_not_an_error(tmp_path):
    cache = ArtifactCache(disk_path=str(tmp_path / "artifacts"))
    cache.get_or_build("evaluation", "key", lambda: 1)
    assert cache.stats.disk_errors == 0


def test_corrupt_disk_entry_increments_obs_counter(tmp_path):
    from repro import obs

    disk = str(tmp_path / "artifacts")
    seeded = ArtifactCache(disk_path=disk)
    seeded.get_or_build("evaluation", "key", lambda: 1)
    with open(seeded._disk_file("evaluation", "key"), "wb") as handle:
        handle.write(b"junk")
    obs.enable()
    try:
        ArtifactCache(disk_path=disk).get_or_build(
            "evaluation", "key", lambda: 2
        )
        snap = obs.registry().snapshot()
    finally:
        obs.disable(reset=True)
    assert snap.counters.get("cache.disk_corrupt") == 1


def test_disk_saves_leave_no_temp_files(tmp_path):
    import os

    disk = str(tmp_path / "artifacts")
    cache = ArtifactCache(disk_path=disk)
    for i in range(10):
        cache.get_or_build("evaluation", f"key-{i}", lambda: b"x" * 1000)
    leftovers = [name for name in os.listdir(disk) if ".tmp." in name]
    assert leftovers == []


def test_concurrent_disk_writers_never_corrupt_an_entry(tmp_path):
    import threading

    disk = str(tmp_path / "artifacts")
    value = {"payload": list(range(500))}
    caches = [ArtifactCache(disk_path=disk) for _ in range(8)]
    start = threading.Barrier(8)

    def writer(cache):
        start.wait()
        for _ in range(10):
            cache.get_or_build("evaluation", "shared",
                               lambda: dict(value))
            cache.clear()  # force the disk path on the next lookup

    threads = [threading.Thread(target=writer, args=(c,)) for c in caches]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # whatever the interleaving, the landed file is a whole pickle
    fresh = ArtifactCache(disk_path=disk)
    assert fresh.get_or_build("evaluation", "shared", lambda: None) \
        == value
    assert fresh.stats.disk_errors == 0
    assert all(c.stats.disk_errors == 0 for c in caches)


# ----------------------------------------------------------------------
# Processes sharing one disk path
# ----------------------------------------------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: one writer process: report ready, wait for the start signal, then
#: build every key (each builder slow enough that the other process
#: misses it too)
_DISK_WRITER = """
import json, os, sys, time
from repro.cache import ArtifactCache

disk, go, keys = sys.argv[1], sys.argv[2], int(sys.argv[3])
open(go + "." + str(os.getpid()), "w").close()
deadline = time.monotonic() + 60.0
while not os.path.exists(go) and time.monotonic() < deadline:
    time.sleep(0.005)

def build(key):
    time.sleep(0.05)
    return {"key": key, "payload": list(range(20000))}

cache = ArtifactCache(disk_path=disk)
values = [cache.evaluation(f"shared-{i}", lambda i=i: build(i))
          for i in range(keys)]
print(json.dumps({"values": values,
                  "disk_errors": cache.stats.disk_errors}))
"""


def test_two_processes_building_one_key_share_the_disk_safely(tmp_path):
    import json
    import subprocess
    import sys

    disk = str(tmp_path / "artifacts")
    go = str(tmp_path / "go")
    keys = 4
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", _DISK_WRITER, disk, go, str(keys)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    deadline = time.monotonic() + 60.0
    while (len([n for n in os.listdir(tmp_path) if n.startswith("go.")]) < 2
           and time.monotonic() < deadline):
        time.sleep(0.01)
    open(go, "w").close()  # both writers are up: start them together
    outputs = []
    for writer in writers:
        out, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err
        outputs.append(json.loads(out))
    expected = [{"key": i, "payload": list(range(20000))}
                for i in range(keys)]
    assert outputs[0]["values"] == outputs[1]["values"] == expected
    assert [o["disk_errors"] for o in outputs] == [0, 0]
    assert [name for name in os.listdir(disk) if ".tmp." in name] == []
    # whatever the interleaving, every landed entry is a whole pickle
    fresh = ArtifactCache(disk_path=disk)
    for i in range(keys):
        assert fresh.evaluation(f"shared-{i}", lambda: None) == expected[i]
    assert fresh.stats.disk_hits == keys
    assert fresh.stats.disk_errors == 0
