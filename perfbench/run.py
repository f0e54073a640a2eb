"""dynball benchmark: one workload per call, end to end or traced.

Usage, from the root of a dynball checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop: ops run back to back, one client):

* ``circle-cli``     decay (rotation; doubling), verdict, entropy and
                     generator at CLI defaults on the cheap circle maps;
* ``denjoy-cli``     verdict on the gapped circle at the default radius and
                     at half its smallest gap, plus its decay curve;
* ``decay-bigbatch`` one rotation decay curve at 5M samples;
* ``battery``        the ten-case theorem battery, serial.  Runnable, but
                     not in BENCHMARK.json: its ``diagonal`` case fails on
                     a few percent of seeds (the rotation pair series and
                     its Fubini mean are compared by 95% CI overlap; seed
                     3027117461845230525 gives 0.1023 against 0.0999, exact
                     0.1), and a contract workload must not fail.

A pass runs every op of the workload once, in a fresh worker process,
with its own seed derived from ``--seed``.  Passes repeat until the next
one would end after ``--seconds``; a run makes at least two.  Every op is
checked against an exact reference from dynball; an op fails when it
raises, exits non-zero or misses its reference.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (first op start
to last op end, median over passes), ``setup_s`` (worker launch to ready,
median over every pass launch plus SETUP_LAUNCHES set-up-only launches
spread over the run, so the median samples the whole run rather than
one burst), ``peak_rss_mb`` (worker ru_maxrss, median).
``error_rate`` is failed/attempted, printed and carried in the
``failed``/``attempted`` fields.

``--trace 1`` runs each pass twice with the same seed, untraced and
traced, requires identical artifact digests from both, and reports the
per-layer metrics of the traced passes plus ``trace.overhead_frac``, the
median over pairs of traced/untraced ``wall_s`` minus one.  That last one
is a diagnostic: the tracer's cost is small next to the machine's drift
between two passes, so it can read near zero or below it.

Human-readable lines come first; the last line of stdout is the JSON
result.  The full record (machine facts, sizes, per-op digests, spans)
is written under ``.perfbench_out/<workload>/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine
import tracing
import workloads

HERE = Path(__file__).resolve().parent
# set-up-only worker launches per untraced run: a third before the first
# pass, the rest shared evenly among the gaps after each pass
SETUP_LAUNCHES = 24
# a run times at least this many passes (pairs when traced), so even a
# workload whose pass takes more than half of --seconds reports a median of two
MIN_PASSES = 2
# every worker is killed by this many seconds after the run started, so a
# hung op cannot keep the run past the 180 s a run may take
RUN_DEADLINE_S = 170


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def load_dynball(root: Path):
    """Import dynball from the checkout's src/, never from elsewhere."""
    src = root / "src"
    if not (src / "dynball" / "__init__.py").is_file():
        raise BenchError(f"no dynball package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import dynball
    if Path(dynball.__file__).resolve().parent != (src / "dynball").resolve():
        raise BenchError(f"imported dynball from {dynball.__file__}, not from {src}")
    return dynball


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, dynball):
        from dynball.rng import derive_seed
        self.root = root
        self.workload = workload
        self.seed = seed
        self.derive_seed = derive_seed
        self.work = root / ".perfbench_out" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.half_gap = None
        if workload == "denjoy-cli":
            # an input of the workload, fixed by the default construction
            self.half_gap = dynball.build_denjoy().smallest_gap / 2.0
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def ops(self, pass_idx: int, tag: str):
        seed = workloads.pass_seed(self.derive_seed, self.seed, self.workload, pass_idx)
        return workloads.make_ops(self.workload, seed, self.work / f"pass{pass_idx}{tag}",
                                  self.half_gap)

    def launch(self, name: str, spec: dict):
        """Run one worker; returns (setup seconds, result dict or None, stderr tail)."""
        spec_path = self.work / f"{name}.spec.json"
        spec = {**spec, "result": str(self.work / f"{name}.result.json"),
                "spans": str(self.work / f"{name}.spans.json")}
        spec_path.write_text(json.dumps(spec))
        err_path = self.work / f"{name}.stderr.txt"
        with open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                    stdout=subprocess.PIPE, stderr=err, env=self.env,
                                    cwd=self.root)
            try:
                ready = proc.stdout.readline()
                setup = time.perf_counter() - t0
                proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        tail = err_path.read_text()[-2000:]
        if ready.strip() != b"ready" or proc.returncode != 0:
            return None, None, tail or f"worker exit {proc.returncode}"
        if spec.get("setup_only"):
            return setup, None, tail
        return setup, json.loads(Path(spec["result"]).read_text()), tail

    def one_pass(self, pass_idx: int, trace: bool) -> dict:
        tag = "t" if trace else ""
        ops = self.ops(pass_idx, tag)
        setup, res, tail = self.launch(f"pass{pass_idx}{tag}", {"ops": ops, "trace": trace})
        out = {"pass": pass_idx, "traced": trace, "setup_s": setup, "ops": []}
        records = {r["id"]: r for r in res["ops"]} if res else {}
        for o in ops:
            rec = records.get(o["id"])
            if rec is None:
                reasons = [f"worker failed: {tail.strip()[-300:]}"]
            else:
                reasons = ([rec["error"]] if rec["error"] else []) + \
                    workloads.check_op(o, rec["exit_code"])
            try:
                dig = workloads.digests(o)
            except OSError:
                dig = {}
            out["ops"].append({"id": o["id"], "ok": not reasons, "reasons": reasons,
                               "seconds": rec["end"] - rec["start"] if rec else None,
                               "digests": dig})
        if res:
            out.update(wall_s=res["wall_s"], cpu_s=res["cpu_s"], peak_rss_mb=res["peak_rss_mb"])
            if trace:
                out.update(layers=res["layers"], absent=res["absent"])
        return out

    def setup_probes(self, setups: list, due: int):
        """Launch set-up-only workers until ``due`` of them have run."""
        while len(setups) < due:
            setup, _, _ = self.launch(f"setup{len(setups)}",
                                      {"ops": self.ops(0, "s"), "trace": False,
                                       "setup_only": True})
            setups.append(setup)

    def run(self, seconds: float, trace: bool) -> dict:
        passes, probes, pairs_ok = [], [], True
        first = SETUP_LAUNCHES // 3
        start = time.perf_counter()
        while True:
            idx = len(passes) // (2 if trace else 1)
            if not trace:
                # the machine's speed drifts over seconds; probes spread
                # over the whole run give a median that does not hang on
                # one moment of it
                due = first
                if idx:
                    planned = max(MIN_PASSES, int(seconds // first_pass_s))
                    due += math.ceil((SETUP_LAUNCHES - first) * idx / planned)
                self.setup_probes(probes, min(SETUP_LAUNCHES, due))
            t = time.perf_counter()
            plain = self.one_pass(idx, trace=False)
            passes.append(plain)
            if trace:
                traced = self.one_pass(idx, trace=True)
                passes.append(traced)
                same = [bool(a["digests"]) and a["digests"] == b["digests"]
                        for a, b in zip(plain["ops"], traced["ops"])]
                for op, ok in zip(traced["ops"], same):
                    if not ok:
                        op["ok"] = False
                        op["reasons"].append("traced digests differ from the untraced run")
                pairs_ok &= all(same)
            took = time.perf_counter() - t
            if idx == 0:
                first_pass_s = took
            finish = time.perf_counter() - start + took
            if finish > RUN_DEADLINE_S - 10:
                break
            if idx + 1 >= MIN_PASSES and finish > seconds:
                break
        if not trace:
            self.setup_probes(probes, SETUP_LAUNCHES)
        setups = [p["setup_s"] for p in passes if not p["traced"]] + probes
        return {"passes": passes, "setups": [s for s in setups if s is not None],
                "digests_equal": pairs_ok}


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summarize(run: dict, trace: bool) -> dict:
    plain = [p for p in run["passes"] if not p["traced"]]
    m = {
        "wall_s": _median(p.get("wall_s") for p in plain),
        "setup_s": _median(run["setups"]),
        "peak_rss_mb": _median(p.get("peak_rss_mb") for p in plain),
        "proc.cpu_s": _median(p.get("cpu_s") for p in plain),
    }
    if trace:
        traced = [p for p in run["passes"] if p["traced"] and "layers" in p]
        if traced:
            m.update(tracing.median_metrics([p["layers"] for p in traced]))
        # passes alternate untraced, traced with the same seed
        pairs = zip(run["passes"][0::2], run["passes"][1::2])
        m["trace.overhead_frac"] = _median(b["wall_s"] / a["wall_s"] - 1.0 for a, b in pairs
                                           if a.get("wall_s") and b.get("wall_s"))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    trace = bool(args.trace)
    try:
        contract = json.loads((root / "BENCHMARK.json").read_text())
        dynball = load_dynball(root)
    except (OSError, ValueError, BenchError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, dynball)
    facts = machine.facts(root)
    run = bench.run(args.seconds, trace)
    metrics = summarize(run, trace)

    passes = run["passes"]
    op_results = [o for p in passes for o in p["ops"]]
    attempted, failed = len(op_results), sum(not o["ok"] for o in op_results)
    wanted = contract["per_layer"] if trace else contract["end_to_end"]
    absent = sorted({a for p in passes for a in p.get("absent", [])})
    absent_metrics = tracing.absent_metrics(metrics, absent)
    missing = [w["name"] for w in wanted if metrics.get(w["name"]) is None]
    sizes = workloads.computed_sizes(bench.ops(0, ""))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": trace, "machine": facts, "sizes": sizes, "metrics": metrics,
              "absent_hooks": absent, "absent_metrics": absent_metrics,
              "attempted": attempted, "failed": failed, "setups_s": run["setups"],
              "passes": passes}
    (bench.work / "result.json").write_text(json.dumps(record, indent=1))

    n_plain = sum(not p["traced"] for p in passes)
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"inputs: {n_plain} pass(es) x {len(passes[0]['ops'])} op(s); sizes (computed): "
          f"largest per-sample array {sizes['largest_per_sample_array_bytes']} B "
          f"({sizes['largest_per_sample_array']}), uniform_block temporary "
          f"{sizes['uniform_block_temp_bytes']} B")
    for why in sizes["unread"]:
        print(f"  sizes: left out {why}")
    units = {w["name"]: w["unit"] for w in contract["end_to_end"] + contract["per_layer"]}
    for name, value in sorted(metrics.items()):
        # layers a workload never reaches read 0: only contract metrics show them
        if value is None or (name not in units and (not trace or value == 0)):
            continue
        flag = " (absent: hook target missing)" if name in absent_metrics else ""
        unit = units.get(name) or ("s" if name.endswith("_s") else "count")
        print(f"  {name:32s} {value:.6g} {unit}{flag}")
    print(f"  {'error_rate':32s} {failed / attempted:.6g} fraction ({failed} of {attempted} ops failed)")
    for o in op_results:
        if not o["ok"]:
            print(f"  FAILED {o['id']}: {'; '.join(o['reasons'])}")
    for o in passes[0]["ops"]:
        for fname, sha in o["digests"].items():
            print(f"  sha256 pass0 {o['id']}/{fname} {sha}")
    if trace:
        print(f"  traced digests equal untraced: {run['digests_equal']}")
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]}
                    for w in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
