"""Workload definitions: the CLI ops of one pass and their reference checks.

An op is one ``dynball.cli.main([...])`` invocation.  Each op carries the
argv it runs, the directory its artifacts land in, and the name of the
check that compares those artifacts with an exact reference already in
dynball (ball oracles, the doubling law, log 2, the battery's own
outcomes).  Ops are plain JSON so the parent can hand them to a fresh
worker process.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

WORKLOADS = ("circle-cli", "denjoy-cli", "battery", "decay-bigbatch")

# |z| bound for an estimated count against its exact expectation, applied
# only to cells whose expected count is at least MIN_EXPECTED.
Z_MAX = 5.0
MIN_EXPECTED = 30

BIGBATCH_SAMPLES = 5_000_000

# The battery's artifact does not record its kernel calls' shapes.  Its
# largest is the Fubini cross-check of product_diagonal_test: 40 probes
# x 100k samples on the torus.
BATTERY_SHAPE = dict(S=100_000, P=40, D=1, dim=2)


def pass_seed(derive_seed, seed: int, workload: str, pass_idx: int) -> int:
    """The --seed every op of one pass receives (non-negative, < 2**64)."""
    return derive_seed(seed, "perfbench", workload, pass_idx)


def make_ops(workload: str, seed: int, out_dir: Path, denjoy_half_gap: float | None = None):
    """The ops of one pass of ``workload`` with CLI seed ``seed``."""
    s = str(seed)

    def op(op_id, argv, check, **expect):
        out = out_dir / op_id
        return {"id": op_id, "command": argv[0],
                "argv": argv + ["--seed", s, "--out", str(out)],
                "out": str(out), "check": check, "expect": expect}

    if workload == "circle-cli":
        return [
            op("decay-rotation", ["decay"], "rotation_decay"),
            op("decay-doubling", ["decay", "--system", "doubling"], "doubling_decay"),
            op("verdict-rotation", ["verdict"], "verdict",
               verdict="evidence_not_expansive"),
            op("entropy-doubling", ["entropy"], "doubling_entropy"),
            op("generator-doubling", ["generator"], "generator"),
        ]
    if workload == "denjoy-cli":
        if denjoy_half_gap is None:
            raise ValueError("denjoy-cli needs half the smallest gap of the default construction")
        den = ["--system", "denjoy", "--measure", "denjoy-minimal"]
        return [
            op("verdict-denjoy", ["verdict", *den], "verdict"),
            op("verdict-denjoy-halfgap",
               ["verdict", *den, "--delta", repr(denjoy_half_gap)], "verdict",
               verdict="evidence_expansive", delta=denjoy_half_gap),
            op("decay-denjoy", ["decay", *den], "structural_decay"),
        ]
    if workload == "battery":
        return [op("battery", ["battery", "--workers", "1"], "battery")]
    if workload == "decay-bigbatch":
        return [op("decay-rotation-5m",
                   ["decay", "--samples", str(BIGBATCH_SAMPLES)], "rotation_decay")]
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def kernel_shape(o) -> dict:
    """S samples, P probes (centers), D radii and dim of an op's dense
    survival kernel, read from the config its artifact JSON records."""
    if o["command"] == "battery":
        return BATTERY_SHAPE
    from dynball.systems import get_system
    c = json.loads(artifact_files(o)[-1].read_text())["config"]
    dim = get_system(c["system"]["name"]).space.dim
    if o["command"] == "generator":
        return dict(S=c["mc_samples"], P=c["sequences"], D=1, dim=dim)
    return dict(S=c["samples"], P=c.get("x_probes", 1), D=len(c.get("delta_grid", [0])), dim=dim)


def computed_sizes(ops) -> dict:
    """Bytes of the largest per-sample array and of uniform_block's
    temporary over the ops, computed from the dense-kernel shapes.  An op
    whose artifact cannot be read is left out and named."""
    best = {"largest_per_sample_array_bytes": 0, "uniform_block_temp_bytes": 0,
            "largest_per_sample_array": None, "unread": []}
    for o in ops:
        try:
            sh = kernel_shape(o)
        except (OSError, ValueError, KeyError) as exc:
            best["unread"].append(f"{o['id']}: {type(exc).__name__}: {exc}")
            continue
        arrays = {
            "coordinates (S, dim) float64": sh["S"] * sh["dim"] * 8,
            "pair distances (P, S) float64": sh["P"] * sh["S"] * 8,
            "alive mask (D, P, S) bool": sh["D"] * sh["P"] * sh["S"],
        }
        name = max(arrays, key=arrays.get)
        if arrays[name] > best["largest_per_sample_array_bytes"]:
            best["largest_per_sample_array_bytes"] = arrays[name]
            best["largest_per_sample_array"] = f"{name} in {o['id']}"
        best["uniform_block_temp_bytes"] = max(best["uniform_block_temp_bytes"],
                                               sh["S"] * 4 * 8)
    best["label"] = "computed from S, P, D, dim of the dense kernel, not measured"
    return best


# ---------------------------------------------------------------------------
# artifacts and reference checks

def artifact_files(o) -> list[Path]:
    out = Path(o["out"])
    if o["command"] == "battery":
        return [out / "battery.json"]
    return [out / f"{o['command']}.csv", out / f"{o['command']}.json"]


def digests(o) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in artifact_files(o)}


def _z_failures(counts, expected, samples):
    bad = []
    for n, (c, mu) in enumerate(zip(counts, expected), start=1):
        if mu < MIN_EXPECTED:
            continue
        p = mu / samples
        z = (c - mu) / math.sqrt(samples * p * (1.0 - p))
        if abs(z) > Z_MAX:
            bad.append(f"n={n}: count {c}, expected {mu:.1f}, z={z:.2f}")
    return bad


def _structural_series(r) -> list[str]:
    bad = []
    counts = r["counts"]
    if list(r["n"]) != list(range(1, len(counts) + 1)):
        bad.append("window lengths are not 1..nmax")
    if any(b > a for a, b in zip(counts, counts[1:])):
        bad.append("counts increase with the window")
    for n, (lo, e, hi) in enumerate(zip(r["ci_low"], r["estimate"], r["ci_high"]), start=1):
        if not lo <= e <= hi:
            bad.append(f"n={n}: CI [{lo}, {hi}] misses estimate {e}")
    return bad


def _ball_mass(r) -> float:
    """Exact Lebesgue mass of the plain ball, from dynball's own oracle."""
    from dynball import geometry as geo
    from dynball.measures import make_lebesgue
    space = geo.circle()
    ball = geo.Ball(geo.Point(space, tuple(r["x"])), r["delta"])
    return float(make_lebesgue(space).ball_oracle(ball))


def _check_rotation_decay(doc, expect):
    r = doc["result"]
    bad = _structural_series(r)
    if r["sided"] != "two_sided":
        bad.append(f"rotation window is {r['sided']}, expected two_sided")
    mass = _ball_mass(r)
    # an isometry never loses mass: every window set is the plain ball
    bad += _z_failures(r["counts"], [mass * r["samples"]] * len(r["counts"]), r["samples"])
    return bad


def _check_doubling_decay(doc, expect):
    r = doc["result"]
    bad = _structural_series(r)
    if r["sided"] != "one_sided":
        bad.append(f"doubling window is {r['sided']}, expected one_sided")
    mass = _ball_mass(r)
    law = [mass * 2.0 ** -(n - 1) * r["samples"] for n in r["n"]]
    return bad + _z_failures(r["counts"], law, r["samples"])


def _check_structural_decay(doc, expect):
    return _structural_series(doc["result"])


def _check_verdict(doc, expect):
    r = doc["result"]
    bad = []
    if r["verdict"] not in ("evidence_expansive", "evidence_not_expansive", "inconclusive"):
        bad.append(f"unknown verdict {r['verdict']!r}")
    if "verdict" in expect and r["verdict"] != expect["verdict"]:
        bad.append(f"verdict {r['verdict']}, expected {expect['verdict']}")
    if "delta" in expect and r["delta"] != expect["delta"]:
        bad.append(f"delta {r['delta']!r}, expected {expect['delta']!r}")
    for i, (lo, e, hi) in enumerate(zip(r["per_probe_lower"], r["per_probe_terminal"],
                                        r["per_probe_upper"])):
        if not lo <= e <= hi:
            bad.append(f"probe {i}: CI [{lo}, {hi}] misses estimate {e}")
    return bad


def _check_doubling_entropy(doc, expect):
    # the bracket the acceptance tests hold the doubling rate to:
    # [0.64, 0.75], and at most the growth exponent log 2 plus 0.05
    e = doc["result"]["extrapolated_e"]
    hi = min(0.75, math.log(2.0) + 0.05)
    return [] if 0.64 <= e <= hi else [f"entropy {e!r} outside [0.64, {hi:.4f}] (log 2)"]


def _check_generator(doc, expect):
    r = doc["result"]
    return [] if r["is_generator_evidence"] is True else \
        [f"no generator evidence (max upper CI {r['max_upper_ci']!r})"]


def _check_battery(doc, expect):
    bad = []
    summary = doc["summary"]
    if summary["pass"] != 10:
        failing = [c["id"] for c in doc["cases"] if c["outcome"] != "pass"]
        bad.append(f"{summary['pass']} of 10 cases pass; not passing: {', '.join(failing)}")
    if doc["consistency_matrix"]["all_consistent"] is not True:
        bad.append("cross-estimator consistency: disagreement")
    return bad


CHECKS = {
    "rotation_decay": _check_rotation_decay,
    "doubling_decay": _check_doubling_decay,
    "structural_decay": _check_structural_decay,
    "verdict": _check_verdict,
    "doubling_entropy": _check_doubling_entropy,
    "generator": _check_generator,
    "battery": _check_battery,
}


def check_op(o, exit_code) -> list[str]:
    """Reasons the op failed; empty when it exited 0 and met its reference."""
    if exit_code != 0:
        return [f"exit {exit_code}"]
    json_file = artifact_files(o)[-1]
    try:
        doc = json.loads(json_file.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable {json_file.name}: {exc}"]
    try:
        return CHECKS[o["check"]](doc, o["expect"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed {json_file.name}: {type(exc).__name__}: {exc}"]
