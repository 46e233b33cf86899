"""Tests for the Strategy protocol, its four implementations, and the
redesigned exploration API (repro.explore.strategies)."""

import json
from pathlib import Path

import pytest

from repro.arch import description_for
from repro.codegen import Cond, KernelBuilder, Opcode
from repro.errors import ExplorationError
from repro.explore import (
    CostWeights,
    Explorer,
    Strategy,
    UnknownStrategyError,
    strategies,
)
from repro.explore.pareto import dominates, objectives
from repro.isdl import fingerprint

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_trajectories.json").read_text()
)

WEIGHTS = CostWeights(**GOLDEN["weights"])


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


def explorer(**kwargs):
    kwargs.setdefault("parallel", "serial")
    return Explorer([sum_kernel()], WEIGHTS, **kwargs)


# ----------------------------------------------------------------------
# the default greedy strategy reproduces the seed engine bit-for-bit
# ----------------------------------------------------------------------


@pytest.mark.parametrize("arch", sorted(GOLDEN["architectures"]))
def test_greedy_default_reproduces_seed_trajectories(arch):
    golden = GOLDEN["architectures"][arch]
    if "error" in golden:
        with pytest.raises(ExplorationError, match="infeasible"):
            explorer().explore(description_for(arch),
                               max_iterations=GOLDEN["max_iterations"])
        return
    log = explorer().explore(description_for(arch),
                             max_iterations=GOLDEN["max_iterations"])
    assert log.strategy == "greedy"
    assert [c.derived_by for c in log.accepted] == golden["derived_by"]
    assert fingerprint(log.best.desc) == golden["best_fingerprint"]
    assert log.best.evaluation.cycles == golden["best_cycles"]
    assert log.best.cost(WEIGHTS) == pytest.approx(golden["best_cost"])
    assert log.iterations == golden["iterations"]
    assert len(log.rejected) == golden["rejected"]
    assert len(log.errors) == golden["errors"]


def test_greedy_name_and_instance_spellings_agree():
    desc = description_for("spam2")
    by_name = explorer().explore(desc, max_iterations=3,
                                 strategy="greedy")
    by_instance = explorer().explore(desc, max_iterations=3,
                                     strategy=strategies.Greedy())
    assert ([c.derived_by for c in by_name.accepted]
            == [c.derived_by for c in by_instance.accepted])


def test_zero_iterations_only_measures_the_initial():
    log = explorer().explore(description_for("risc16"), max_iterations=0)
    assert log.iterations == 0
    assert [c.derived_by for c in log.accepted] == ["initial"]


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


def test_registry_lists_all_four_strategies():
    assert strategies.available() == [
        "greedy", "multistart", "pareto", "population",
    ]


def test_registry_resolves_names_with_params():
    strategy = strategies.get("multistart", restarts=2)
    assert isinstance(strategy, strategies.MultiStart)
    assert strategy.restarts == 2


def test_registry_passes_instances_through():
    instance = strategies.ParetoFrontier(frontier_cap=6)
    assert strategies.get(instance) is instance


def test_unknown_name_raises_naming_known_strategies():
    with pytest.raises(UnknownStrategyError, match="greedy"):
        strategies.get("annealing")


def test_bad_params_raise_naming_known_strategies():
    with pytest.raises(UnknownStrategyError, match="pareto"):
        strategies.get("pareto", bogus=1)
    with pytest.raises(UnknownStrategyError):
        strategies.get("population", size=0)


def test_params_with_instance_rejected():
    with pytest.raises(UnknownStrategyError):
        strategies.get(strategies.Greedy(), restarts=2)


def test_explore_rejects_unknown_strategy():
    with pytest.raises(UnknownStrategyError):
        explorer().explore(description_for("risc16"), max_iterations=1,
                           strategy="annealing")


# ----------------------------------------------------------------------
# keyword-only options
# ----------------------------------------------------------------------


def test_evaluate_takes_derived_by_as_keyword_only():
    ex = explorer()
    candidate = ex.evaluate(description_for("risc16"), derived_by="seeded")
    assert candidate.derived_by == "seeded"
    with pytest.raises(TypeError):
        ex.evaluate(description_for("risc16"), "seeded")


def test_too_many_positionals_raise():
    with pytest.raises(TypeError):
        explorer().explore(description_for("risc16"), 2, "greedy")


# ----------------------------------------------------------------------
# multistart
# ----------------------------------------------------------------------


def test_multistart_runs_one_trajectory_per_restart():
    log = explorer().explore(description_for("spam2"), max_iterations=3,
                             strategy=strategies.MultiStart(restarts=3),
                             seed=7)
    assert log.strategy == "multistart"
    labels = [t.label for t in log.trajectories]
    assert labels[0] == "restart-0"
    assert 1 <= len(labels) <= 3
    # restart-0 is plain greedy from the same initial
    greedy = explorer().explore(description_for("spam2"),
                                max_iterations=3)
    restart0 = log.trajectory("restart-0")
    assert ([c.derived_by for c in restart0.accepted]
            == [c.derived_by for c in greedy.accepted])
    # the winner is never worse than greedy alone
    assert log.best.cost(WEIGHTS) <= greedy.best.cost(WEIGHTS)


def test_multistart_is_deterministic_per_seed():
    def run():
        return explorer().explore(
            description_for("spam2"), max_iterations=2,
            strategy="multistart", seed=11,
        )

    a, b = run(), run()
    assert ([c.derived_by for c in a.accepted]
            == [c.derived_by for c in b.accepted])
    assert fingerprint(a.best.desc) == fingerprint(b.best.desc)
    assert ([t.label for t in a.trajectories]
            == [t.label for t in b.trajectories])


def test_multistart_rejects_zero_restarts():
    with pytest.raises(UnknownStrategyError):
        strategies.get("multistart", restarts=0)


# ----------------------------------------------------------------------
# population
# ----------------------------------------------------------------------


def test_population_never_loses_to_greedy():
    desc = description_for("spam2")
    greedy = explorer().explore(desc, max_iterations=4)
    population = explorer().explore(
        desc, max_iterations=4, strategy=strategies.Population(size=3),
    )
    assert population.strategy == "population"
    assert (population.best.cost(WEIGHTS)
            <= greedy.best.cost(WEIGHTS))
    # monotone accepted chain
    costs = [c.cost(WEIGHTS) for c in population.accepted]
    assert costs == sorted(costs, reverse=True)


def test_population_survivor_bound_is_respected():
    strategy = strategies.Population(size=2)
    explorer().explore(description_for("spam2"), max_iterations=3,
                       strategy=strategy)
    assert len(strategy.survivors) <= 2


# ----------------------------------------------------------------------
# pareto frontier (acceptance criteria)
# ----------------------------------------------------------------------


def test_pareto_frontier_contains_point_no_worse_than_greedy():
    desc = description_for("spam2")
    budget = 64
    greedy = explorer().explore(desc, max_iterations=4,
                                max_evaluations=budget)
    pareto = explorer().explore(desc, max_iterations=4,
                                strategy="pareto",
                                max_evaluations=budget)
    front = pareto.frontier()
    assert front
    best_front_cost = min(c.cost(WEIGHTS) for c in front)
    assert best_front_cost <= greedy.best.cost(WEIGHTS)


def test_pareto_frontier_is_mutually_non_dominated():
    log = explorer().explore(description_for("spam2"), max_iterations=3,
                             strategy="pareto")
    front = log.frontier()
    vectors = [objectives(c.evaluation, WEIGHTS) for c in front]
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            if i != j:
                assert not dominates(a, b)
    # deterministic: a re-run yields the identical frontier
    again = explorer().explore(description_for("spam2"),
                               max_iterations=3, strategy="pareto")
    assert ([fingerprint(c.desc) for c in again.frontier()]
            == [fingerprint(c.desc) for c in front])


def test_pareto_winner_is_the_cost_best_chain():
    log = explorer().explore(description_for("spam2"), max_iterations=3,
                             strategy="pareto")
    front_costs = [c.cost(WEIGHTS) for c in log.frontier()]
    assert log.best.cost(WEIGHTS) == min(front_costs)


# ----------------------------------------------------------------------
# log accounting shared by all strategies
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["greedy", "multistart", "population",
                                  "pareto"])
def test_every_strategy_counts_evaluations_and_trajectories(name):
    log = explorer().explore(description_for("risc16"), max_iterations=2,
                             strategy=name, seed=3)
    assert log.strategy == name
    assert log.evaluations > 0
    assert log.trajectories
    assert log.evaluated[0].derived_by == "initial"
    per_trajectory = sum(t.cache_hits + t.cache_misses
                         for t in log.trajectories)
    assert per_trajectory == log.evaluations


def test_max_evaluations_bounds_the_run():
    log = explorer().explore(description_for("spam2"), max_iterations=8,
                             strategy="population", max_evaluations=10)
    # the budget stops the run at the end of the round that crossed it
    assert log.iterations < 8


def test_custom_strategy_instances_plug_in():
    class FirstProposalOnly(Strategy):
        """Adopt the first feasible proposal once, then stop."""

        name = "first-only"

        def begin(self, context):
            self.context = context
            self.trajectory = context.log.trajectory("first-only")
            self.trajectory.accepted.append(context.initial)
            self._done = False

        def propose(self):
            from repro.explore import EvalRequest

            pairs = self.context.propose_from(self.context.initial)[:1]
            return [EvalRequest(desc, how, tag="first-only")
                    for desc, how in pairs]

        def observe(self, survivors):
            if survivors:
                self.trajectory.accepted.append(survivors[0])
            self._done = True

        @property
        def finished(self):
            return self._done

        def winner(self):
            return self.trajectory

    log = explorer().explore(description_for("spam2"), max_iterations=4,
                             strategy=FirstProposalOnly())
    assert log.strategy == "first-only"
    assert log.iterations == 1
    assert len(log.accepted) <= 2
