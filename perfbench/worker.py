"""One pass of a workload in a fresh process.

Usage: python3 perfbench/worker.py SPEC.json

The spec (written by run.py) lists the ops, whether to trace, and where
to write the result.  The worker imports numpy and dynball (found through
PYTHONPATH, which run.py points at the checkout's ``src``), reads its
inputs, prints ``ready`` on stdout and then runs the ops back to back
through ``dynball.cli.main``.  The parent times launch-to-``ready`` as
set-up.  A fresh process per pass matters: ``battery`` caches the
gapped-circle construction for the life of the process.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_ops(ops, call) -> list[dict]:
    """Run each op through ``call(op_id, command, argv)``; never raises."""
    records = []
    for o in ops:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = call(o["id"], o["command"], o["argv"])
            error = None
        except SystemExit as exc:  # argparse exits on bad argv
            code, error = exc.code, f"SystemExit({exc.code})"
        except Exception as exc:  # an op that raises counts as failed
            code, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        records.append({"id": o["id"], "start": t0, "end": t1,
                        "exit_code": code, "error": error})
    return records


def main(spec_path: str) -> int:
    import numpy  # noqa: F401  (part of the measured set-up)
    import dynball
    from dynball import cli

    spec = json.loads(Path(spec_path).read_text())
    ops = spec["ops"]
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer().install()
    print("ready", flush=True)
    if spec.get("setup_only"):
        return 0

    cpu0 = _cpu_s()
    if tracer is None:
        records = run_ops(ops, lambda op_id, cmd, argv: cli.main(argv))
    else:
        def call(op_id, cmd, argv):
            tracer.op = op_id
            return tracer.run(f"cli.{cmd}", cli.main, argv)
        records = run_ops(ops, call)
    cpu1 = _cpu_s()

    result = {
        "ops": records,
        "wall_s": records[-1]["end"] - records[0]["start"],
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer.spans,
                                                 getattr(dynball, "CASE_IDS", ()))
        result["absent"] = tracer.absent
        Path(spec["spans"]).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "child_s", "attrs"],
             "spans": tracer.spans}))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
