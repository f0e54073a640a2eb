"""Command-line runner writing reproducible CSV/JSON artifacts.

Every data command writes three files into ``--out``: ``<cmd>.csv`` with
a commented metadata header (version, config echo, seed) and a plain
header row, ``<cmd>.json`` with the structured result and the same
config echo, and ``<cmd>.meta.json`` carrying the wall-clock runtime,
the process's peak RSS and its minor page-fault count, the usable CPUs
(``nproc``) and the kernel keys of ``expansiveness.recording_kernel``.
The csv and json files are byte-stable for a fixed config and seed; the
meta sidecar is the only file whose bytes vary run to run.

The four data commands are rows of one table, ``_COMMANDS``.  A row holds
the command's flags with their defaults (flag ``--a-b`` sets ``a_b``), the
CSV header, and a function ``(f, mu, settings, seed)`` returning the
result, the command's own config-echo fields, the CSV rows and a one-line
summary.  The parser is generated from the table, and its types parse each
setting once, whatever the source: a flag, a config-file line (made a flag
placed before the command line's own, which win) or ``DYNBALL_SEED`` (the
text default of ``--seed``); every rule on a value is the library's.
``_run`` does the shared steps once.
``runtime_seconds`` times the row's function: the estimator plus decay's
center draw and generator's cover build, not the system and measure
construction or the file writes.  ``battery`` takes its flags from the
same table but runs its own function.

Exit codes: 0 success, 1 battery case failure, 2 usage error, 3 the
requested computation is outside the system's capabilities.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from . import geometry as geo
from .battery import CASE_IDS, case_info, run_battery
from .entropy import bk_entropy
from .errors import CapabilityError, DynballError
from .expansiveness import (SIDED, decay_series, expansiveness_verdict, generator_check,
                            recording_kernel, usable_cpus)
from .measures import make_measure, measure_names
from .rng import derive_seed
from .stats import read_integer
from .systems import get_system, system_params, zoo_names


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, so ``main`` returns 2 for it."""

    def error(self, message):
        raise ValueError(message)


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(map(float, text.split(",")))


def _key_value(text: str) -> tuple[str, str]:
    key, value = text.split("=", 1)  # ValueError without "="
    return key.strip(), value.strip()


def _case_ids(text: str) -> list[str]:
    ids = [c.strip() for c in text.split(",")]
    if not all(ids):
        raise ValueError(text)
    return ids


# setting -> (reader of its text, what the text must be); any other setting
# is read as its default's type (_BY_DEFAULT) or kept as text.  Readers only
# parse: systems.system_params casts --param, and the library checks values.
_TYPES = {"x": (_numbers, "comma-separated numbers"),
          "delta_grid": (_numbers, "comma-separated numbers"),
          "seed": (read_integer, "an integer"),
          "param": (_key_value, "key=value"),
          "cases": (_case_ids, "comma-separated case ids")}
_BY_DEFAULT = {int: (read_integer, "an integer"), float: (float, "a number")}


def _converter(key: str, default=None):
    """The argparse type of setting ``key``: a usage error names the
    setting and its text when the reader refuses the text."""
    read, want = _TYPES.get(key) or _BY_DEFAULT.get(type(default), (None, None))
    if read is None:
        return None

    def convert(text: str):
        try:
            return read(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{key.replace('_', '-')} must be "
                                             f"{want}, got {text!r}") from None
    return convert


def _config_args(path: str, keys: set) -> list[str]:
    """A config file's ``key = value`` lines as ``--key=value`` flags,
    keeping the keys in ``keys``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ValueError(f"config {path} is not UTF-8 text") from None
    flags = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        key, eq, value = line.partition("=")
        if line and not eq:
            raise ValueError(f"config line needs key=value: {raw!r}")
        if key.strip().replace("-", "_") in keys:
            flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def _write(out: str, files: dict) -> None:
    """Write each file of ``files`` into directory ``out``: text as it is,
    a dict as sorted, indented JSON."""
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            if isinstance(data, dict):
                data = json.dumps(data, sort_keys=True, indent=2) + "\n"
            (Path(out) / name).write_text(data)
    except OSError as exc:
        raise ValueError(f"cannot write to --out {out}: {exc.strerror}") from None


def _decay(f, mu, s: dict, seed: int):
    x = s["x"] or mu.sample_coords(derive_seed(seed, "x"), 1)
    series = decay_series(f, mu, x, s["delta"],
                          sided=s["sided"], n_max=s["nmax"],
                          samples=s["samples"], seed=seed)
    echo = {"delta": s["delta"], "nmax": s["nmax"], "samples": s["samples"],
            "sided": series.sided, "x": list(series.x)}
    rows = list(zip(series.n, series.estimate, series.ci_low, series.ci_high))
    return (asdict(series), echo, rows,
            f"{len(rows)} rows (terminal estimate {series.terminal!r})")


def _verdict(f, mu, s: dict, seed: int):
    v = expansiveness_verdict(f, mu, s["delta"], n_max=s["nmax"],
                              samples=s["samples"], x_probes=s["x_probes"],
                              threshold=s["threshold"], seed=seed, sided=s["sided"])
    echo = {k: s[k] for k in ("delta", "nmax", "samples", "x_probes", "threshold")}
    rows = [(i + 1, est, lo, hi) for i, (est, lo, hi) in
            enumerate(zip(v.per_probe_terminal, v.per_probe_lower, v.per_probe_upper))]
    return (asdict(v), {**echo, "sided": v.sided}, rows,
            f"{v.verdict} (delta={v.delta}, worst upper {v.worst_upper_bound!r})")


def _entropy(f, mu, s: dict, seed: int):
    grid = s["delta_grid"]
    n_range = (s["n_lo"], s["n_hi"])
    est = bk_entropy(f, mu, grid, n_range=n_range, x_probes=s["x_probes"],
                     samples=s["samples"], seed=seed)
    echo = {"delta_grid": list(grid), "n_range": list(n_range),
            "x_probes": s["x_probes"], "samples": s["samples"]}
    rows = [(d, e, e - 2 * se, e + 2 * se) for d, e, se in
            zip(est.delta_grid, est.e_of_delta, est.se_of_delta)]
    return (asdict(est), echo, rows,
            f"extrapolated {est.extrapolated_e!r} +- {est.extrapolated_se!r} "
            f"(converged={est.converged})")


def _generator(f, mu, s: dict, seed: int):
    cover = geo.make_ball_cover(f.space, radius=s["radius"], step=s["step"])
    rep = generator_check(f, mu, cover, n_max=s["nmax"],
                          sequence_samples=s["sequences"],
                          mc_samples=s["mc_samples"], threshold=s["threshold"],
                          seed=seed, sided=s["sided"])
    echo = {k: s[k] for k in ("radius", "step", "nmax", "sequences",
                              "mc_samples", "threshold")}
    rows = [(i + 1, v, lo, hi) for i, (v, lo, hi) in
            enumerate(zip(rep.per_sequence, rep.per_sequence_lower, rep.per_sequence_upper))]
    return (asdict(rep), {**echo, "sided": rep.sided}, rows,
            f"evidence={rep.is_generator_evidence} "
            f"(max estimate {rep.max_intersection_estimate!r})")


class _Command(NamedTuple):
    help: str
    flags: dict                # setting -> default; flag --<setting with dashes>
    run: Callable | None = None  # (f, mu, settings, seed) -> result, echo, rows, summary
    header: str = "n,estimate,ci_low,ci_high"


_COMMANDS = {
    "decay": _Command(
        "window-mass decay curve at one center",
        {"system": "rotation", "measure": "lebesgue", "delta": 0.05, "nmax": 20,
         "samples": 100_000, "sided": None, "x": None},
        _decay),
    "verdict": _Command(
        "three-valued expansiveness verdict",
        {"system": "rotation", "measure": "lebesgue", "delta": 0.05, "nmax": 30,
         "samples": 100_000, "x_probes": 20, "threshold": 0.01, "sided": None},
        _verdict),
    "entropy": _Command(
        "local entropy rate over a radius grid",
        {"system": "doubling", "measure": "lebesgue", "delta_grid": "0.1,0.05,0.02",
         "n_lo": 1, "n_hi": 14, "x_probes": 30, "samples": 100_000},
        _entropy, "delta,estimate,ci_low,ci_high"),
    "generator": _Command(
        "cover-sequence intersection check",
        {"system": "doubling", "measure": "lebesgue", "radius": 0.1, "step": 0.05,
         "nmax": 10, "sequences": 32, "mc_samples": 100_000, "threshold": 0.01,
         "sided": None},
        _generator),
    "battery": _Command("run the theorem battery", {"cases": None, "workers": 1}),
}
_HELP = {"x": "comma-separated center coordinates",
         "cases": "comma-separated case ids (default: all)"}


def _usage(kernel: dict) -> dict:
    """Peak RSS (Linux reports ru_maxrss in KiB) and minor page faults of
    this process so far, the usable CPUs and the record of
    ``recording_kernel``, for the meta sidecar."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"peak_rss_mb": ru.ru_maxrss / 1024, "minor_faults": ru.ru_minflt,
            "nproc": usable_cpus(), **kernel}


def _run(command: str, args: argparse.Namespace) -> int:
    """Shared steps of the data commands; only the table's function is timed."""
    spec = _COMMANDS[command]
    params = system_params(args.system, dict(args.param or ()))
    f = get_system(args.system, params)
    # a gapped-circle measure takes the system's alpha, and its N if denjoy
    mu = make_measure(args.measure, f.space, params)
    t0 = time.perf_counter()
    with recording_kernel() as kernel:
        result, fields, rows, summary = spec.run(f, mu, vars(args), args.seed)
    runtime = time.perf_counter() - t0
    echo = {"system": {"name": f.name, "params": params},
            "measure": {"name": mu.name}, **fields, "seed": args.seed}

    lines = [f"# dynball {__version__}",
             f"# command: {command}",
             f"# config: {json.dumps(echo, sort_keys=True, separators=(',', ':'))}",
             f"# seed: {args.seed}",
             spec.header]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    payload = {"version": __version__, "command": command,
               "config": echo, "seed": args.seed, "result": result}
    meta = {"version": __version__, "command": command, "seed": args.seed,
            "runtime_seconds": runtime, **_usage(kernel)}
    _write(args.out, {f"{command}.csv": "\n".join(lines) + "\n",
                      f"{command}.json": payload, f"{command}.meta.json": meta})
    print(f"{command}: {summary} -> {args.out}/{command}.json")
    return 0


def _battery(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    with recording_kernel() as kernel:
        report = run_battery(case_filter=args.cases, seed=args.seed, workers=args.workers)
    runtime = time.perf_counter() - t0
    meta = {"version": __version__, "command": "battery", "seed": args.seed,
            "runtime_seconds": runtime, "workers": args.workers, **_usage(kernel)}
    _write(args.out, {"battery.json": asdict(report),
                      "battery.md": report.to_markdown(),
                      "battery.meta.json": meta})
    tally = ", ".join(f"{n} {outcome}" for outcome, n in report.summary.items())
    print(f"battery: {tally} -> {args.out}/battery.md")
    if not report.all_clear:
        print("failing cases: " + ", ".join(report.failing_ids()), file=sys.stderr)
        return 1
    return 0


def _explain(args: argparse.Namespace) -> int:
    info = case_info(args.case_id)
    print(f"{info['id']}: {info['claim']}")
    print(f"systems: {', '.join(info['systems'])}")
    print(f"measures: {', '.join(info['measures'])}")
    return 0


def _print_listing() -> None:
    for title, names in (("systems", zoo_names()), ("measures", measure_names()),
                         ("battery cases", CASE_IDS)):
        print(f"{title}:")
        for name in names:
            print(f"  {name}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dynball",
        description="Monte-Carlo expansiveness and entropy estimates for "
                    "the built-in system zoo.")
    parser.add_argument("--list", action="store_true",
                        help="list systems, measures, and battery case ids")
    sub = parser.add_subparsers(dest="command")
    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        for key, default in spec.flags.items():
            p.add_argument("--" + key.replace("_", "-"), default=default,
                           type=_converter(key, default), help=_HELP.get(key),
                           choices=SIDED if key == "sided" else None)
        if "system" in spec.flags:
            p.add_argument("--param", action="append", metavar="KEY=VALUE",
                           type=_converter("param"))
        # a text default goes through the type too: a bad DYNBALL_SEED is refused
        p.add_argument("--seed", type=_converter("seed"),
                       default=os.environ.get("DYNBALL_SEED", "7"))
        p.add_argument("--config")
        p.add_argument("--out", default=".")
    p = sub.add_parser("explain", help="describe one battery case")
    p.add_argument("case_id")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.list:
            _print_listing()
            return 0
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        if args.command == "explain":
            return _explain(args)
        if args.config is not None:
            # file entries go right after the command name, so a flag wins
            at = argv.index(args.command) + 1
            keys = {*_COMMANDS[args.command].flags, "seed"}
            args = parser.parse_args(argv[:at] + _config_args(args.config, keys)
                                     + argv[at:])
        if args.command == "battery":
            return _battery(args)
        return _run(args.command, args)
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except (KeyError, ValueError, DynballError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"usage error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
