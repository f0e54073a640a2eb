import json
from dataclasses import asdict

import pytest

from dynball import CASE_IDS, battery, case_info, consistency_matrix, run_battery
from dynball.cli import main

SUBSET = ["isometry", "thA", "exxx1"]


def test_case_registry():
    assert len(CASE_IDS) == 10
    assert len(set(CASE_IDS)) == 10
    info = case_info("thD")
    assert info["id"] == "thD"
    assert "interval" in " ".join(info["systems"])
    assert info["claim"]
    with pytest.raises(KeyError):
        case_info("nosuch")


def test_subset_run_passes():
    rep = run_battery(case_filter=SUBSET, seed=7)
    assert [c.id for c in rep.cases] == SUBSET  # registry order preserved
    assert all(c.outcome == "pass" for c in rep.cases)
    assert rep.all_clear
    assert rep.failing_ids() == []


def test_unknown_case_rejected():
    with pytest.raises(KeyError):
        run_battery(case_filter=["isometry", "bogus"])


def test_report_bytes_deterministic_across_workers():
    a = run_battery(case_filter=SUBSET, seed=11, workers=1)
    b = run_battery(case_filter=SUBSET, seed=11, workers=3)
    assert json.dumps(asdict(a), sort_keys=True) == json.dumps(asdict(b), sort_keys=True)
    assert a.to_markdown() == b.to_markdown()


def test_report_formats():
    rep = run_battery(case_filter=["isometry"], seed=7)
    md = rep.to_markdown()
    assert "| isometry | pass |" in md
    assert "cross-estimator consistency" in md
    d = asdict(rep)
    assert d["summary"]["pass"] == 1
    assert d["cases"][0]["id"] == "isometry"
    assert d["version"] == rep.version


def test_consistency_matrix_agrees():
    m = consistency_matrix(seed=7)
    assert m["all_consistent"]
    assert set(m["rows"]) == {"doubling", "identity", "rotation"}
    assert m["rows"]["doubling"]["verdict"] == "evidence_expansive"
    assert m["rows"]["identity"]["verdict"] == "evidence_not_expansive"


def test_failing_cases_exit_1_and_record_the_error(tmp_path, monkeypatch, capsys):
    def boom(seed):
        raise RuntimeError("boom")

    runners = {"thA": boom, "exxx1": lambda seed: ("fail", {})}
    monkeypatch.setattr(battery, "_CASES",
                        [(*e[:4], runners.get(e[0], e[4])) for e in battery._CASES])
    assert main(["battery", "--cases", "thA,exxx1", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "failing cases: thA, exxx1" in err
    cases = {c["id"]: c for c in json.loads((tmp_path / "battery.json").read_text())["cases"]}
    assert cases["thA"]["error"] == "RuntimeError: boom"
    assert cases["exxx1"]["outcome"] == "fail" and cases["exxx1"]["error"] is None
