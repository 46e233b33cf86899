"""Tests for the exploration validity gate (check_static in the loop)."""

from repro import obs
from repro.arch import description_for
from repro.cache import ArtifactCache
from repro.codegen import Cond, KernelBuilder, Opcode
from repro.explore import (
    EvalRequest,
    Explorer,
    Measurement,
    ParallelEvaluator,
)
from repro.isdl import load_string

AMBIGUOUS_ISDL = '''
processor "AMBIG"
section format
    word 8
end
section storage
    instruction_memory IM width 8 depth 16
    register ACC width 8
    program_counter PC width 4
end
section instruction_set
    field EX
        operation a()
            encoding { bits[7] = 0b1 }
            action { ACC <- ACC + 1; }
        operation b()
            encoding { bits[6] = 0b1 }
            action { ACC <- ACC - 1; }
    end
end
'''


def ambiguous_desc():
    return load_string(AMBIGUOUS_ISDL, filename="ambig.isdl",
                       validate=False)


def sum_kernel(n=4):
    K = KernelBuilder("sum")
    cnt = K.li(n)
    acc = K.li(0)
    K.label("loop")
    K.binary_into(acc, Opcode.ADD, acc, cnt)
    K.binary_into(cnt, Opcode.SUB, cnt, 1)
    K.cbr(Cond.NE, cnt, 0, "loop")
    K.store(K.li(0), acc)
    return K.build()


def test_gate_rejects_invalid_candidate_before_evaluation():
    cache = ArtifactCache()
    with ParallelEvaluator(Measurement([sum_kernel()]), cache=cache,
                           mode="serial") as ev:
        (result,) = ev.evaluate_many(
            [EvalRequest(ambiguous_desc(), "mutated")]
        )
    assert not result.ok
    assert "static analysis rejected" in result.error
    assert "ISDL101" in result.error
    assert result.diagnostics
    assert any(d.code == "ISDL101" for d in result.diagnostics)
    # nothing was evaluated: no evaluation artifact was ever built
    assert cache.stats.misses_by_kind["evaluation"] == 0
    assert cache.stats.hits_by_kind["evaluation"] == 0


def test_gate_counts_rejections_in_obs():
    obs.enable()
    try:
        with obs.capture() as cap:
            with ParallelEvaluator(Measurement([sum_kernel()]),
                                   mode="serial") as ev:
                ev.evaluate_many([EvalRequest(ambiguous_desc())])
    finally:
        obs.disable(reset=True)
    assert cap.snapshot.counters["analyze.candidates_rejected"] == 1


def test_gate_passes_valid_candidates_through():
    with ParallelEvaluator(Measurement([sum_kernel()]), mode="serial") as ev:
        (result,) = ev.evaluate_many(
            [EvalRequest(description_for("risc16"))]
        )
    assert result.ok
    assert result.evaluation.feasible
    assert result.diagnostics == ()


def test_gate_can_be_disabled():
    with ParallelEvaluator(Measurement([sum_kernel()]), mode="serial",
                           static_check=False) as ev:
        (result,) = ev.evaluate_many([EvalRequest(ambiguous_desc())])
    # without the gate the tool chain runs and reports infeasibility
    # later (the strict generator refuses the non-decodable description)
    assert result.ok
    assert not result.evaluation.feasible
    assert result.diagnostics == ()


def test_gate_memoizes_analysis_in_cache():
    cache = ArtifactCache()
    with ParallelEvaluator(Measurement([sum_kernel()]), cache=cache,
                           mode="serial") as ev:
        ev.evaluate_many([EvalRequest(ambiguous_desc())])
        ev.evaluate_many([EvalRequest(ambiguous_desc())])
    assert cache.stats.misses_by_kind["analysis"] == 1
    assert cache.stats.hits_by_kind["analysis"] == 1


def test_malformed_candidate_still_recorded_the_pre_gate_way():
    with ParallelEvaluator(Measurement([sum_kernel()]), mode="serial") as ev:
        (result,) = ev.evaluate_many(
            [EvalRequest("not a description", "broken")]
        )
    assert not result.ok
    assert result.error
    assert result.diagnostics == ()


def test_explorer_records_static_rejection_in_log_errors():
    explorer = Explorer([sum_kernel()], parallel="serial")
    bad = ambiguous_desc()

    original = Explorer._proposals

    def sabotage(self, incumbent):
        yield bad, "mutate into ambiguity"
        yield from original(self, incumbent)

    explorer._proposals = sabotage.__get__(explorer)
    obs.enable()
    try:
        with obs.capture() as cap:
            log = explorer.explore(description_for("risc16"),
                                   max_iterations=1)
    finally:
        obs.disable(reset=True)
    rejected = [r for r in log.errors if r.diagnostics]
    assert rejected, "static rejection must land in log.errors"
    assert any(d.code == "ISDL101" for d in rejected[0].diagnostics)
    assert cap.snapshot.counters["analyze.candidates_rejected"] >= 1
    assert log.accepted, "the sweep itself completes"


def test_report_counts_statically_rejected():
    from repro.explore.report import exploration_report

    explorer = Explorer([sum_kernel()], parallel="serial")
    bad = ambiguous_desc()
    original = Explorer._proposals

    def sabotage(self, incumbent):
        yield bad, "mutate into ambiguity"
        yield from original(self, incumbent)

    explorer._proposals = sabotage.__get__(explorer)
    log = explorer.explore(description_for("risc16"), max_iterations=1)
    assert "1 statically rejected" in exploration_report(log)
