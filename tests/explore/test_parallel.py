"""Tests for the parallel cache-backed evaluation engine."""

import pytest

from repro.arch import description_for
from repro.cache import ArtifactCache
from repro.codegen import Cond, KernelBuilder, Opcode
from repro.explore import (
    CostWeights,
    EvalRequest,
    Explorer,
    Measurement,
    ParallelEvaluator,
)
from repro.isdl import fingerprint


def sum_kernel(n=6):
    K = KernelBuilder("sum")
    cnt = K.li(n)
    acc = K.li(0)
    K.label("loop")
    K.binary_into(acc, Opcode.ADD, acc, cnt)
    K.binary_into(cnt, Opcode.SUB, cnt, 1)
    K.cbr(Cond.NE, cnt, 0, "loop")
    K.store(K.li(0), acc)
    return K.build()


def requests():
    return [
        EvalRequest(description_for("risc16"), "initial"),
        EvalRequest(description_for("spam"), "initial"),
        EvalRequest(description_for("acc8"), "initial"),
    ]


@pytest.fixture(scope="module")
def serial_results():
    with ParallelEvaluator(Measurement([sum_kernel()]), mode="serial") as ev:
        return ev.evaluate_many(requests())


@pytest.mark.parametrize("mode", ["process"])
def test_pool_modes_match_serial_results(mode, serial_results):
    with ParallelEvaluator(Measurement([sum_kernel()]),
                           mode=mode) as evaluator:
        results = evaluator.evaluate_many(requests())
    assert [r.index for r in results] == [0, 1, 2]
    for got, want in zip(results, serial_results):
        assert got.ok and want.ok
        assert got.label == want.label
        assert got.evaluation.feasible == want.evaluation.feasible
        assert got.evaluation.cycles == want.evaluation.cycles
        assert got.evaluation.die_size == want.evaluation.die_size
        assert got.evaluation.cost() == want.evaluation.cost()


@pytest.mark.parametrize("mode", ["serial", "process"])
def test_failed_candidate_is_recorded_not_raised(mode):
    batch = [
        EvalRequest(description_for("risc16"), "good"),
        EvalRequest("not a description", "broken"),
        EvalRequest(description_for("risc16"), "good-too"),
    ]
    with ParallelEvaluator(Measurement([sum_kernel()]),
                           mode=mode) as evaluator:
        results = evaluator.evaluate_many(batch)
    assert len(results) == 3
    assert results[0].ok and results[0].evaluation.feasible
    assert not results[1].ok
    assert results[1].error
    assert results[2].ok and results[2].evaluation.feasible


def test_warm_cache_skips_dispatch():
    cache = ArtifactCache()
    kernels = [sum_kernel()]
    with ParallelEvaluator(Measurement(kernels), cache=cache,
                           mode="serial") as ev:
        first = ev.evaluate_many(requests())
        assert all(not r.cached for r in first)
        second = ev.evaluate_many(requests())
    assert all(r.cached for r in second)
    for got, want in zip(second, first):
        assert got.evaluation.cycles == want.evaluation.cycles


def test_process_results_warm_the_parent_cache():
    cache = ArtifactCache()
    kernels = [sum_kernel()]
    with ParallelEvaluator(Measurement(kernels), cache=cache,
                           mode="process") as ev:
        ev.evaluate_many(requests())
        again = ev.evaluate_many(requests())
    assert all(r.cached for r in again)
    assert cache.stats.hits_by_kind["evaluation"] >= 3


def test_weights_travel_with_evaluations():
    weights = CostWeights(1.0, 0.0, 0.0)
    with ParallelEvaluator(
        Measurement([sum_kernel()], weights=weights), mode="serial"
    ) as ev:
        (result,) = ev.evaluate_many(
            [EvalRequest(description_for("risc16"))]
        )
    assert result.evaluation.weights == weights
    # Evaluation.cost() now defaults to the attached weights
    assert result.evaluation.cost() == result.evaluation.cost(weights)


# ----------------------------------------------------------------------
# Explorer integration
# ----------------------------------------------------------------------


def test_explorer_parallel_matches_seed_serial_engine():
    kernels = [sum_kernel()]
    weights = CostWeights(1.0, 0.5, 0.3)
    serial = Explorer(
        kernels, weights,
        evaluator=ParallelEvaluator(
            Measurement(kernels, weights=weights), cache=None, mode="serial"
        ),
    ).explore(description_for("spam"), max_iterations=2)
    parallel = Explorer(kernels, weights).explore(
        description_for("spam"), max_iterations=2
    )
    assert fingerprint(serial.best.desc) == fingerprint(parallel.best.desc)
    assert serial.best.evaluation.cycles == parallel.best.evaluation.cycles
    assert [c.derived_by for c in serial.accepted] == [
        c.derived_by for c in parallel.accepted
    ]
    assert [c.cost(weights) for c in serial.accepted] == [
        c.cost(weights) for c in parallel.accepted
    ]


def test_explorer_records_candidate_errors_without_aborting():
    kernels = [sum_kernel()]

    class Sabotaged(ParallelEvaluator):
        """Blow up the first proposal of every round."""

        def evaluate_many(self, reqs):
            results = super().evaluate_many(reqs)
            if results:
                first = results[0]
                first.error = "RuntimeError: injected tool-chain crash"
                first.evaluation = None
            return results

    explorer = Explorer(
        kernels,
        evaluator=Sabotaged(Measurement(kernels), cache=ArtifactCache(),
                            mode="serial"),
    )
    log = explorer.explore(description_for("spam"), max_iterations=2)
    assert log.errors, "sabotaged candidates should be recorded"
    assert all(r.error for r in log.errors)
    assert log.accepted, "the sweep itself must still complete"


def test_explorer_cache_shared_across_explore_calls():
    kernels = [sum_kernel()]
    explorer = Explorer(kernels, parallel="serial")
    explorer.explore(description_for("spam"), max_iterations=2)
    baseline_hits = explorer.cache.stats.hits_by_kind["evaluation"]
    explorer.explore(description_for("spam"), max_iterations=2)
    assert (
        explorer.cache.stats.hits_by_kind["evaluation"] > baseline_hits
    ), "the second sweep should ride the first sweep's cache"


def test_unknown_mode_rejected():
    for mode in ("quantum", "thread"):
        with pytest.raises(ValueError):
            ParallelEvaluator(Measurement([sum_kernel()]), mode=mode)


# ----------------------------------------------------------------------
# Simulator backend selection
# ----------------------------------------------------------------------


def test_block_backend_matches_xsim_cycles():
    kernels = [sum_kernel()]
    with ParallelEvaluator(Measurement(kernels), mode="serial") as ref, \
            ParallelEvaluator(Measurement(kernels, backend="block"),
                              mode="serial") as fast:
        want = ref.evaluate_many(requests())
        got = fast.evaluate_many(requests())
    for a, b in zip(got, want):
        assert a.ok and b.ok
        assert a.evaluation.cycles == b.evaluation.cycles
        assert a.evaluation.stall_cycles == b.evaluation.stall_cycles
        assert a.evaluation.per_kernel_cycles == b.evaluation.per_kernel_cycles


def test_backend_is_part_of_the_evaluation_key():
    cache = ArtifactCache()
    kernels = [sum_kernel()]
    desc = description_for("risc16")
    with ParallelEvaluator(Measurement(kernels), cache=cache,
                           mode="serial") as ev:
        ev.evaluate_many([EvalRequest(desc)])
    with ParallelEvaluator(Measurement(kernels, backend="block"),
                           cache=cache, mode="serial") as ev:
        (result,) = ev.evaluate_many([EvalRequest(desc)])
    # a different backend is a different measurement, not a cache hit
    assert not result.cached
    assert cache.stats.misses_by_kind["evaluation"] == 2
