"""Architecture exploration: strategy-driven search (paper Fig. 1).

One coherent surface: :class:`Explorer` drives a
:class:`~repro.explore.strategies.Strategy` (``strategies.get("greedy")``
by default — the paper's loop) over the parallel cache-backed
evaluator; the resulting :class:`ExplorationLog` renders through
:func:`exploration_report` and exposes trajectories and the Pareto
:mod:`frontier <repro.explore.pareto>`.
"""

from .explorer import Candidate, ExplorationLog, Explorer, Trajectory
from .metrics import CostWeights, Evaluation, Measurement, evaluate, measure
from .parallel import EvalRequest, EvalResult, ParallelEvaluator
from .report import (
    evaluation_table,
    exploration_report,
    operating_point_table,
    service_metrics_table,
)
from .strategies import Strategy, UnknownStrategyError
from . import pareto, strategies, transforms

__all__ = [
    "Candidate",
    "ExplorationLog",
    "Explorer",
    "Trajectory",
    "CostWeights",
    "Evaluation",
    "Measurement",
    "evaluate",
    "measure",
    "EvalRequest",
    "EvalResult",
    "ParallelEvaluator",
    "Strategy",
    "UnknownStrategyError",
    "evaluation_table",
    "exploration_report",
    "operating_point_table",
    "service_metrics_table",
    "pareto",
    "strategies",
    "transforms",
]
