"""Tests for the diagnostics core: Diagnostic, AnalysisResult, emitters."""

import json

import pytest

from repro.analyze import (
    AnalysisResult,
    Diagnostic,
    Severity,
    dump_json,
    render_text,
    to_json_payload,
    to_sarif,
)
from repro.errors import SourceLocation


_LOC = SourceLocation("t.isdl", 3, 7)


def diag(code="ISDL101", severity=Severity.ERROR, message="boom",
         where="EX.a", location=_LOC):
    return Diagnostic(code, severity, message, where=where,
                      location=location)


# ---------------------------------------------------------------------------
# Severity
# ---------------------------------------------------------------------------


def test_severity_orders_and_parses():
    assert Severity.INFO < Severity.WARNING < Severity.ERROR
    assert max([Severity.INFO, Severity.ERROR]) is Severity.ERROR
    assert Severity.parse("warning") is Severity.WARNING
    assert Severity.parse("ERROR") is Severity.ERROR
    with pytest.raises(ValueError):
        Severity.parse("fatal")


def test_severity_sarif_levels():
    assert Severity.INFO.sarif_level == "note"
    assert Severity.WARNING.sarif_level == "warning"
    assert Severity.ERROR.sarif_level == "error"


# ---------------------------------------------------------------------------
# Diagnostic
# ---------------------------------------------------------------------------


def test_diagnostic_str_carries_location_code_and_context():
    text = str(diag())
    assert text == "t.isdl:3:7: error ISDL101 [EX.a]: boom"


def test_diagnostic_str_without_location_or_context():
    assert str(diag(where="", location=None)) == "error ISDL101: boom"


def test_to_dict_round_trips_through_json():
    payload = json.loads(json.dumps(diag().to_dict()))
    assert payload == {
        "code": "ISDL101",
        "severity": "error",
        "message": "boom",
        "where": "EX.a",
        "file": "t.isdl",
        "line": 3,
        "column": 7,
    }


# ---------------------------------------------------------------------------
# AnalysisResult
# ---------------------------------------------------------------------------


def test_result_severity_views_and_threshold():
    result = AnalysisResult("X", (
        diag(severity=Severity.INFO),
        diag(severity=Severity.WARNING),
        diag(severity=Severity.ERROR),
    ))
    assert result.max_severity is Severity.ERROR
    assert len(result.errors) == 1
    assert len(result.warnings) == 1
    assert not result.ok()
    assert result.counts() == {"error": 1, "warning": 1, "info": 1}


def test_result_ok_respects_fail_on():
    warn_only = AnalysisResult("X", (diag(severity=Severity.WARNING),))
    assert warn_only.ok()  # default threshold is ERROR
    assert not warn_only.ok(Severity.WARNING)
    assert AnalysisResult("X").ok(Severity.INFO)
    assert AnalysisResult("X").max_severity is None


def test_result_by_code():
    result = AnalysisResult("X", (diag(code="ISDL101"),
                                  diag(code="ISDL202")))
    assert [d.code for d in result.by_code("ISDL202")] == ["ISDL202"]


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------


def test_render_text_one_line_per_diag_plus_summary():
    result = AnalysisResult("X", (diag(),))
    text = render_text([result])
    assert "t.isdl:3:7: error ISDL101 [EX.a]: boom" in text
    assert "X: 1 error(s), 0 warning(s), 0 info" in text


def test_json_payload_structure():
    payload = to_json_payload([AnalysisResult(
        "X", (diag(),), passes=("semantic", "decode-ambiguity"),
    )])
    assert payload["version"] == 1
    assert payload["max_severity"] == "error"
    (target,) = payload["targets"]
    assert target["name"] == "X"
    assert target["passes"] == ["semantic", "decode-ambiguity"]
    assert target["diagnostics"][0]["code"] == "ISDL101"
    json.loads(dump_json(payload))  # serializable


def test_sarif_has_rules_results_and_regions():
    sarif = to_sarif([AnalysisResult("X", (
        diag(), diag(code="ISDL501", severity=Severity.INFO),
    ))])
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
        "ISDL101", "ISDL501",
    ]
    first = run["results"][0]
    assert first["ruleId"] == "ISDL101"
    assert first["level"] == "error"
    location = first["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "t.isdl"
    assert location["region"] == {"startLine": 3, "startColumn": 7}
    # INFO maps to SARIF "note"
    assert run["results"][1]["level"] == "note"
