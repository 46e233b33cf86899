"""One definition of a measurement (:class:`repro.explore.Measurement`).

The evaluation-cache key, the serve coalescing key and the serve batch
key are all derived from the one value; these properties pin that.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arch import description_for
from repro.cache import ArtifactCache
from repro.codegen.kernels import resolve_kernels
from repro.explore import CostWeights, Measurement, ParallelEvaluator
from repro.isdl import fingerprint
from repro.serve import EvaluationService, ServiceConfig
from repro.serve.jobs import Job, JobQueue, new_job_id
from repro.tech import TechSpec

FP = "f" * 64

AXES = ("kernels", "max_steps", "backend", "weights", "tech")

axes = st.fixed_dictionaries({
    "kernels": st.lists(
        st.sampled_from(["sum:4", "sum:8", "dot:4", "blockmove:4"]),
        min_size=1, max_size=3,
    ),
    "max_steps": st.integers(1, 10**6),
    "backend": st.sampled_from(["xsim", "compiled", "block"]),
    "weights": st.builds(
        CostWeights,
        st.sampled_from([1.0, 0.5]),
        st.sampled_from([0.35, 0.0]),
        st.sampled_from([0.25, 0.1]),
    ),
    "tech": st.none() | st.builds(
        TechSpec,
        st.sampled_from([45, 22, 10]),
        st.sampled_from(["HP", "LP"]),
        st.none() | st.sampled_from([1.0, 2.5]),
    ),
})


def build(ax):
    """A measurement of freshly resolved (distinct) Kernel objects."""
    return Measurement(resolve_kernels(ax["kernels"]), ax["max_steps"],
                       ax["backend"], ax["weights"], ax["tech"])


def job(label, measurement):
    return Job(id=new_job_id(), desc=None, label=label, workloads=(),
               measurement=measurement)


@settings(max_examples=60, deadline=None)
@given(axes)
def test_equal_measurements_give_equal_keys(ax):
    a, b = build(ax), build(ax)
    assert a.kernels[0] is not b.kernels[0]
    assert a == b
    assert hash(a) == hash(b)
    assert a.key(FP) == b.key(FP)


@settings(max_examples=120, deadline=None)
@given(axes, axes, st.sampled_from(AXES))
def test_changing_one_axis_changes_a_key(ax, other, axis):
    assume(ax[axis] != other[axis])
    a, b = build(ax), build({**ax, axis: other[axis]})
    assert a != b  # the batch / evaluator-LRU key
    if axis == "weights":
        # cost is computed on read: one cached evaluation serves all
        assert a.key(FP) == b.key(FP)
    else:
        assert a.key(FP) != b.key(FP)
    assert a.key(FP) != a.key("0" * 64)
    # the job queue batches exactly the jobs with equal measurements
    queue = JobQueue()
    for label, measurement in (("a1", a), ("b", b), ("a2", build(ax))):
        queue.push(job(label, measurement))
    assert [j.label for j in queue.pop_batch(3)] == ["a1", "a2"]


@settings(max_examples=40, deadline=None)
@given(axes)
def test_serve_keys_derive_from_the_job_measurement(ax):
    weights = ax["weights"]
    payload = {
        "arch": "spam2",
        "workloads": ax["kernels"],
        "backend": ax["backend"],
        "max_steps": ax["max_steps"],
        "weights": {"runtime": weights.runtime, "area": weights.area,
                    "power": weights.power},
    }
    if ax["tech"] is not None:
        tech = ax["tech"]
        payload["tech"] = {"node": tech.node_nm, "flavor": tech.flavor}
        if tech.budget_mw is not None:
            payload["tech"]["budget_mw"] = tech.budget_mw
    service = EvaluationService(ServiceConfig(static_check=False))
    submitted = service.submit(payload)
    assert submitted.measurement == build(ax)
    fp = fingerprint(description_for("spam2"))
    assert submitted.key == (fp, submitted.measurement)


def test_evaluation_cache_key_is_the_measurement_key():
    measurement = Measurement(resolve_kernels(["sum:4"]))
    desc = description_for("spam2")
    cache = ArtifactCache()
    with ParallelEvaluator(measurement, cache=cache, mode="serial") as ev:
        evaluation = ev.evaluate(desc)
    assert cache.peek("evaluation", measurement.key(fingerprint(desc))) \
        is not None
    assert evaluation.feasible
