"""Tests of the benchmark itself: reference checks, span accounting, hooks.

Run from the root of the checkout: python3 -m pytest perfbench/tests -q
"""
import json
import math
from pathlib import Path

import pytest

import tracing
import workloads
from dynball import cli


def _op(tmp_path, workload, op_id):
    ops = workloads.make_ops(workload, 7, tmp_path, denjoy_half_gap=0.001)
    return next(o for o in ops if o["id"] == op_id)


def _run(o):
    assert cli.main(o["argv"]) == 0
    return json.loads(workloads.artifact_files(o)[-1].read_text())


def _rewrite(o, doc):
    workloads.artifact_files(o)[-1].write_text(json.dumps(doc))


def _small(o):
    o["argv"] += ["--samples", "20000"]
    return o


def test_checker_accepts_real_outputs(tmp_path):
    for op_id in ("decay-rotation", "decay-doubling", "verdict-rotation"):
        o = _op(tmp_path, "circle-cli", op_id)
        _run(o)
        assert workloads.check_op(o, 0) == []


def test_checker_rejects_wrong_verdict(tmp_path):
    o = _op(tmp_path, "circle-cli", "verdict-rotation")
    doc = _run(_small(o))
    assert workloads.check_op(o, 0) == []
    doc["result"]["verdict"] = "evidence_expansive"
    _rewrite(o, doc)
    reasons = workloads.check_op(o, 0)
    assert reasons and "expected evidence_not_expansive" in reasons[0]


def test_checker_rejects_wrong_decay_curve(tmp_path):
    o = _op(tmp_path, "circle-cli", "decay-doubling")
    doc = _run(o)
    r = doc["result"]
    # a flat curve is the rotation's shape, not the doubling law's
    r["counts"] = [r["counts"][0]] * len(r["counts"])
    r["estimate"] = [r["estimate"][0]] * len(r["counts"])
    r["ci_low"] = [r["ci_low"][0]] * len(r["counts"])
    r["ci_high"] = [r["ci_high"][0]] * len(r["counts"])
    _rewrite(o, doc)
    reasons = workloads.check_op(o, 0)
    assert any("z=" in x for x in reasons)


def test_checker_rejects_increasing_counts_and_bad_exit(tmp_path):
    o = _op(tmp_path, "circle-cli", "decay-rotation")
    doc = _run(_small(o))
    doc["result"]["counts"][-1] = doc["result"]["counts"][0] + 1
    _rewrite(o, doc)
    assert "counts increase with the window" in workloads.check_op(o, 0)
    assert workloads.check_op(o, 2) == ["exit 2"]


def test_span_self_times_sum_to_op_time(tmp_path):
    t = tracing.Tracer().install()
    try:
        o = _op(tmp_path, "circle-cli", "verdict-rotation")
        code = t.run("cli.verdict", cli.main, _small(o)["argv"])
    finally:
        t.uninstall()
    assert code == 0
    op = t.spans[0]
    assert op[tracing.NAME] == "cli.verdict" and op[tracing.PARENT] is None
    duration = op[tracing.END] - op[tracing.START]
    total_self = sum(tracing.self_time(s) for s in t.spans)
    assert total_self == pytest.approx(duration, rel=1e-9, abs=1e-9)
    names = {s[tracing.NAME] for s in t.spans}
    assert {"expansiveness.survival_counts", "systems.forward", "systems.inverse",
            "measures.sample_coords", "rng.uniform_block", "stats.wilson_interval",
            "estimator.expansiveness_verdict"} <= names
    m = tracing.layer_metrics(t.spans)
    assert m["expansiveness.kernel_calls"] == 1
    assert m["expansiveness.kernel_cells"] == 20 * 20_000 * 30
    assert 0 < m["expansiveness.alive_frac"] <= 1
    # two-sided windows: 29 forward and 30 inverse steps of batch and probes
    assert m["systems.points"] == (29 + 30) * (20_000 + 20)
    assert m["rng.draws"] == 20_000 + 20


def test_tracing_is_transparent(tmp_path):
    o = _op(tmp_path / "plain", "circle-cli", "entropy-doubling")
    _run(_small(o))
    plain = workloads.digests(o)
    t = tracing.Tracer().install()
    try:
        o2 = _op(tmp_path / "traced", "circle-cli", "entropy-doubling")
        assert t.run("cli.entropy", cli.main, _small(o2)["argv"]) == 0
    finally:
        t.uninstall()
    assert workloads.digests(o2) == plain


def test_missing_hook_target_is_an_absent_layer():
    t = tracing.Tracer()
    t.hook_function("dynball.expansiveness", "no_such_kernel", tracing.KERNEL)
    t.hook_method("dynball.measures", "MeasureSpec", "no_such_method", "measures.x")
    t.hook_maps("dynball.systems", "NoSuchSpec")
    assert t.absent == ["dynball.expansiveness.no_such_kernel",
                        "dynball.measures.MeasureSpec.no_such_method",
                        "dynball.systems.NoSuchSpec"]
    m = tracing.layer_metrics(t.spans)
    assert m["expansiveness.kernel_s"] == 0
    absent = tracing.absent_metrics(m, ["dynball.expansiveness.survival_counts"])
    assert "expansiveness.kernel_s" in absent and "rng.busy_s" not in absent


def test_sizes_are_computed_from_artifact_configs(tmp_path):
    ops = workloads.make_ops("decay-bigbatch", 7, tmp_path)
    # only the config the CLI records matters here, not the run itself
    artifact = workloads.artifact_files(ops[0])[-1]
    artifact.parent.mkdir(parents=True)
    artifact.write_text(json.dumps({"config": {"samples": 5_000_000, "x": [0.5],
                                               "system": {"name": "rotation"}}}))
    sizes = workloads.computed_sizes(ops)
    assert sizes["largest_per_sample_array_bytes"] == 5_000_000 * 8
    assert sizes["uniform_block_temp_bytes"] == 5_000_000 * 4 * 8
    assert math.isclose(sizes["uniform_block_temp_bytes"] / 2**20, 152.587890625)
    assert sizes["unread"] == []


def test_sizes_name_unreadable_artifacts(tmp_path):
    ops = workloads.make_ops("circle-cli", 7, tmp_path)
    entropy = next(o for o in ops if o["id"] == "entropy-doubling")
    assert cli.main(_small(entropy)["argv"]) == 0
    sizes = workloads.computed_sizes(ops)
    # 30 probes x 20k samples of float64 distances outweigh the
    # 3 x 30 x 20k bool alive mask; the four ops that never ran are named
    assert sizes["largest_per_sample_array_bytes"] == 30 * 20_000 * 8
    assert len(sizes["unread"]) == 4
