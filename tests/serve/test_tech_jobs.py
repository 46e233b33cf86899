"""Technology-pinned jobs on the serve v1 schema."""

import json

import pytest

from repro.serve import (
    EvaluationService,
    ServeClient,
    ServiceConfig,
    serve_in_thread,
)
from repro.serve.cli import main as cli_main
from repro.serve.service import BadRequestError, CODE_BAD_TECH
from repro.tech import TechSpec

from .conftest import instant_eval, payload


def tech_payload(node=22, flavor="HP", budget_mw=None, **overrides):
    spec = {"node": node, "flavor": flavor}
    if budget_mw is not None:
        spec["budget_mw"] = budget_mw
    return payload(tech=spec, **overrides)


@pytest.fixture(scope="module")
def real_live():
    """One real-toolchain server for the end-to-end tech tests."""
    service = EvaluationService(
        ServiceConfig(workers=1, static_check=False)
    )
    server, _ = serve_in_thread(service)
    yield server
    server.shutdown_service(drain=False, timeout=5.0)


@pytest.fixture(scope="module")
def live():
    """One stubbed server for the client/CLI plumbing tests."""
    service = EvaluationService(
        ServiceConfig(workers=2, static_check=False, batch_size=1),
        evaluate_fn=instant_eval,
    )
    server, _ = serve_in_thread(service)
    yield server
    server.shutdown_service(drain=False, timeout=2.0)


# ----------------------------------------------------------------------
# admission-time validation
# ----------------------------------------------------------------------


def test_unknown_node_rejected_without_queue_slot(service_factory):
    service = service_factory()
    job = service.submit(tech_payload(node=14))
    assert job.state.value == "rejected"
    assert job.diagnostics
    assert job.diagnostics[0].code == CODE_BAD_TECH
    # the diagnostic names the known technology points
    for node in (45, 32, 22, 16, 10):
        assert str(node) in job.diagnostics[0].message
    assert len(service.queue) == 0
    counters = service.metrics_snapshot().counters
    assert counters.get("serve.jobs_rejected") == 1
    assert "serve.jobs_accepted" not in counters


def test_unknown_flavor_rejected(service_factory):
    service = service_factory()
    job = service.submit(tech_payload(flavor="XX"))
    assert job.state.value == "rejected"
    assert job.diagnostics[0].code == CODE_BAD_TECH


@pytest.mark.parametrize("spec", [
    "22HP",                          # not an object
    {"flavor": "HP"},                # node missing
    {"node": True},                  # bool is not a node
    {"node": 22, "flavor": 7},       # flavor not a string
    {"node": 22, "budget_mw": -1},   # budget not positive
    {"node": 22, "budget_mw": "x"},  # budget not a number
])
def test_malformed_tech_spec_is_a_400(service_factory, spec):
    service = service_factory()
    with pytest.raises(BadRequestError):
        service.submit(payload(tech=spec))


def test_absent_tech_field_unchanged(service_factory):
    service = service_factory()
    job = service.submit(payload())
    service.wait(job.id, timeout=10)
    record = job.to_dict()
    assert job.measurement.tech is None
    assert "tech" not in record
    assert json.dumps(record)  # still JSON-serializable


def test_tech_extends_the_coalescing_key(service_factory):
    service = service_factory()
    bare = service.submit(payload())
    pinned = service.submit(tech_payload())
    budgeted = service.submit(tech_payload(budget_mw=2.0))
    again = service.submit(tech_payload(budget_mw=2.0))
    assert bare.key != pinned.key
    assert pinned.key != budgeted.key
    assert budgeted.key == again.key
    # the technology lives in the job's one measurement value
    assert pinned.key == (bare.key[0], pinned.measurement)
    assert pinned.measurement.tech == TechSpec(22, "HP", None)


# ----------------------------------------------------------------------
# end-to-end (real tool chain)
# ----------------------------------------------------------------------


def test_tech_job_end_to_end(real_live):
    client = ServeClient(real_live.url)
    record = client.submit_and_wait(
        tech_payload(budget_mw=2.0, timeout_s=300.0), timeout=300.0,
    )
    assert record["state"] == "succeeded"
    assert record["tech"] == {"node": 22, "flavor": "HP",
                              "budget_mw": 2.0}
    result = record["result"]
    assert result["feasible"]
    tech = result["tech"]
    assert tech["node"] == 22 and tech["flavor"] == "HP"
    assert tech["capped"] is True
    assert tech["budget_mw"] == 2.0
    assert 0.0 < tech["vdd"] < 0.9  # squeezed below the 22HP nominal
    assert result["power_mw"] == pytest.approx(2.0, rel=1e-6)
    assert json.dumps(record)


def test_cli_tech_submit_prints_the_operating_point(real_live, capsys):
    code = cli_main([
        "submit", "--url", real_live.url, "--arch", "spam2",
        "--workload", "sum:8", "--tech-node", "22",
        "--power-budget", "2.0", "--timeout", "300",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "tech: 22 nm HP" in out
    assert "budget 2 mW" in out
    assert "(capped)" in out


# ----------------------------------------------------------------------
# client + CLI plumbing (stubbed evaluations)
# ----------------------------------------------------------------------


def test_client_submit_tech_kwarg_injects_the_payload_field(live):
    client = ServeClient(live.url)
    record = client.submit_and_wait(
        payload(), tech={"node": 22, "flavor": "lp"},
    )
    assert record["state"] == "succeeded"
    assert record["tech"] == {"node": 22, "flavor": "LP"}


def test_client_submit_unknown_tech_returns_rejected_record(live):
    client = ServeClient(live.url)
    record = client.submit(payload(), tech={"node": 14})
    assert record["state"] == "rejected"
    assert record["diagnostics"][0]["code"] == CODE_BAD_TECH


def test_cli_tech_flags_pass_through(live, capsys):
    code = cli_main([
        "submit", "--url", live.url, "--arch", "spam2",
        "--tech-node", "22", "--tech-flavor", "LP",
        "--power-budget", "2.0", "--json",
    ])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["tech"] == {"node": 22, "flavor": "LP",
                              "budget_mw": 2.0}


def test_cli_unknown_node_exits_two(live, capsys):
    code = cli_main([
        "submit", "--url", live.url, "--arch", "spam2",
        "--tech-node", "14",
    ])
    out = capsys.readouterr().out
    assert code == 2
    assert CODE_BAD_TECH in out


def test_cli_budget_without_node_is_a_usage_error(live):
    with pytest.raises(SystemExit):
        cli_main(["submit", "--url", live.url, "--arch", "spam2",
                  "--power-budget", "2.0"])


def test_cli_flavor_without_node_is_a_usage_error(live):
    with pytest.raises(SystemExit):
        cli_main(["submit", "--url", live.url, "--arch", "spam2",
                  "--tech-flavor", "LP"])
