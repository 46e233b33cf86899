"""Tests for the Pareto dominance utilities (repro.explore.pareto)."""

import itertools

import pytest

from repro.arch import description_for
from repro.codegen import Cond, KernelBuilder, Opcode
from repro.explore import (
    CostWeights,
    Explorer,
    Measurement,
    ParallelEvaluator,
)
from repro.explore.pareto import (
    dominates,
    frontier,
    frontier_indices,
    objectives,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


POINTS = [
    (1.0, 1.0),
    (2.0, 2.0),   # dominated by (1, 1)
    (0.5, 3.0),   # incomparable with (1, 1)
    (1.0, 1.0),   # exact duplicate of index 0
    (3.0, 0.5),   # incomparable
    (1.0, 2.0),   # dominated by (1, 1)
]


# ----------------------------------------------------------------------
# dominance is a strict partial order
# ----------------------------------------------------------------------


def test_dominates_basics():
    assert dominates((1, 1), (2, 2))
    assert dominates((1, 2), (1, 3))
    assert not dominates((1, 3), (3, 1))
    assert not dominates((3, 1), (1, 3))


def test_dominance_is_irreflexive():
    for point in POINTS:
        assert not dominates(point, point)


def test_dominance_is_asymmetric():
    for a, b in itertools.permutations(POINTS, 2):
        assert not (dominates(a, b) and dominates(b, a))


def test_dominance_is_transitive():
    for a, b, c in itertools.permutations(POINTS, 3):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


def test_dominates_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        dominates((1, 2), (1, 2, 3))


if HAVE_HYPOTHESIS:
    finite = st.floats(allow_nan=False, allow_infinity=False,
                       min_value=-1e9, max_value=1e9)
    point3 = st.tuples(finite, finite, finite)

    @given(point3, point3, point3)
    @settings(max_examples=200, deadline=None)
    def test_dominance_partial_order_property(a, b, c):
        assert not dominates(a, a)
        assert not (dominates(a, b) and dominates(b, a))
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


# ----------------------------------------------------------------------
# frontier extraction
# ----------------------------------------------------------------------


def test_frontier_drops_exactly_the_dominated_points():
    kept = frontier_indices(POINTS)
    assert kept == [0, 2, 4]
    for i in range(len(POINTS)):
        if i in kept:
            continue
        dominated = any(dominates(POINTS[j], POINTS[i]) for j in kept)
        duplicate = any(POINTS[j] == POINTS[i] for j in kept)
        assert dominated or duplicate


def test_frontier_keeps_first_of_exact_duplicates():
    kept = frontier_indices([(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)])
    assert kept == [0]


def test_frontier_preserves_input_order():
    points = [(3.0, 0.5), (0.5, 3.0), (1.0, 1.0)]
    assert frontier_indices(points) == [0, 1, 2]
    assert frontier(points) == points


def test_frontier_of_mutually_incomparable_set_is_identity():
    points = [(float(i), float(10 - i)) for i in range(5)]
    assert frontier(points) == points


def test_frontier_with_key_maps_items():
    items = [{"v": (2.0, 2.0)}, {"v": (1.0, 1.0)}]
    assert frontier(items, key=lambda d: d["v"]) == [items[1]]


def test_frontier_result_is_mutually_non_dominated():
    kept = frontier(POINTS)
    for a, b in itertools.permutations(kept, 2):
        assert not dominates(a, b)


def test_empty_and_singleton():
    assert frontier([]) == []
    assert frontier([(1.0, 2.0)]) == [(1.0, 2.0)]


# ----------------------------------------------------------------------
# objectives vector
# ----------------------------------------------------------------------


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


def test_objectives_vector_shape():
    weights = CostWeights(1.0, 0.5, 0.3)
    with ParallelEvaluator(Measurement([sum_kernel()], weights=weights),
                           mode="serial") as ev:
        evaluation = ev.evaluate(description_for("risc16"))
    vec = objectives(evaluation, weights)
    assert vec == (
        evaluation.cost(weights),
        evaluation.cycle_ns,
        evaluation.power_mw,
        evaluation.die_size,
    )


def test_infeasible_evaluation_maps_to_all_infinite():
    class Infeasible:
        feasible = False

    vec = objectives(Infeasible())
    assert vec == (float("inf"),) * 4
    # every feasible point dominates it
    assert dominates((1.0, 1.0, 1.0, 1.0), vec)


# ----------------------------------------------------------------------
# frontier determinism across pool modes (satellite 4)
# ----------------------------------------------------------------------


#: frontier from the first pool mode measured, compared against by the
#: second parametrized run
_FRONTIERS = {}


@pytest.mark.parametrize("mode", ["serial", "process"])
def test_pareto_frontier_stable_across_pool_modes(mode):
    weights = CostWeights(1.0, 0.5, 0.3)
    explorer = Explorer([sum_kernel()], weights, parallel=mode)
    log = explorer.explore(description_for("spam2"), max_iterations=3,
                           strategy="pareto", seed=0)
    front = [
        (c.derived_by, objectives(c.evaluation, weights))
        for c in log.frontier()
    ]
    assert front, "frontier must not be empty"
    _FRONTIERS.setdefault("front", front)
    assert front == _FRONTIERS["front"], (
        "frontier order/content must be identical whatever pool mode"
        " measured the candidates"
    )
