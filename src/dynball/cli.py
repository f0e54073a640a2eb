"""Command-line runner writing reproducible CSV/JSON artifacts.

Every data command writes three files into ``--out``: ``<cmd>.csv`` with
a commented metadata header (version, config echo, seed) and a plain
header row, ``<cmd>.json`` with the structured result and the same
config echo, and ``<cmd>.meta.json`` carrying the wall-clock runtime.
The csv and json files are byte-stable for a fixed config and seed; the
meta sidecar is the only file whose bytes vary run to run.

The four data commands are rows of one table, ``_COMMANDS``.  A row holds
the command's flags with their defaults (flag ``--a-b`` sets ``a_b``; its
type is the default's type, a ``None`` default meaning a string), the
settings that must be finite positive lengths, the CSV header, and a
function ``(f, mu, settings, seed)`` returning the result, the command's
own config-echo fields, the CSV rows and a one-line summary.  The parser
is generated from the table and ``_run`` does the shared steps once.
``runtime_seconds`` times that function: the estimator plus decay's
center draw and generator's cover build, not the system and measure
construction or the file writes.  ``battery`` takes its flags from the
same table but runs its own function.

Exit codes: 0 success, 1 battery case failure, 2 usage error, 3 the
requested computation is outside the system's capabilities.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from . import geometry as geo
from .battery import CASE_IDS, case_info, run_battery
from .denjoy import build_denjoy
from .entropy import bk_entropy
from .errors import CapabilityError, DynballError
from .expansiveness import decay_series, expansiveness_verdict, generator_check
from .measures import make_measure, measure_names
from .rng import derive_seed
from .systems import get_system, make_denjoy, system_params, zoo_names


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _parse_params(items: list[str] | None) -> dict:
    params = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--param expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        params[key.strip()] = _parse_value(value.strip())
    return params


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line needs key=value: {raw!r}")
        key, _, value = line.partition("=")
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _effective(args: argparse.Namespace, cfg: dict, flags: dict) -> dict:
    """Flag > config file > default, per option.  A config-file value is
    cast once to its default's type; ``None`` defaults are strings."""
    out = {}
    for key, default in flags.items():
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in cfg:
            cast = str if default is None else type(default)
            try:
                value = _parse_value(cfg[key])
                out[key] = cast(value)
                if cast is int and out[key] != value:  # nmax = 2.5; 2e4 is 20000
                    raise ValueError
            except (ValueError, OverflowError):  # e.g. int('abc'), int(1e400)
                raise ValueError(f"config value {key} = {cfg[key]!r} is not a "
                                 f"valid {cast.__name__}") from None
        else:
            out[key] = default
    return out


def _env_seed() -> int:
    return int(os.environ.get("DYNBALL_SEED", "7"))


def _resolve_seed(args: argparse.Namespace, cfg: dict) -> int:
    if getattr(args, "seed", None) is not None:
        seed = int(args.seed)
    elif "seed" in cfg:
        seed = int(cfg["seed"])
    else:
        seed = _env_seed()
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
    return seed


def _grid(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in str(text).split(","))


def _check_lengths(settings: dict, *keys: str) -> None:
    """Radii and cover steps must be finite and positive."""
    for key in keys:
        for value in _grid(settings[key]):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key.replace('_', '-')} must be finite and "
                                 f"positive, got {value!r}")


def _build_pair(settings: dict, params: dict):
    """System + measure sharing one gapped-circle construction if needed."""
    sys_name = settings["system"]
    meas_name = settings["measure"]
    kwargs = system_params(sys_name, params)
    construction = None
    if sys_name == "denjoy" or meas_name == "denjoy-minimal":
        construction = build_denjoy(**system_params("denjoy", kwargs))
    if sys_name == "denjoy":
        f = make_denjoy(construction)
    else:
        f = get_system(sys_name, kwargs)
    mu = make_measure(meas_name, f.space, denjoy_construction=construction)
    return f, mu


def _decay(f, mu, s: dict, seed: int):
    if s["x"] is not None:
        coords = _grid(s["x"])
    else:
        coords = tuple(mu.sample_coords(derive_seed(seed, "x"), 1)[0])
    series = decay_series(f, mu, geo.Point(f.space, coords), s["delta"],
                          sided=s["sided"], n_max=s["nmax"],
                          samples=s["samples"], seed=seed)
    echo = {"delta": s["delta"], "nmax": s["nmax"], "samples": s["samples"],
            "sided": series.sided, "x": list(series.x)}
    rows = list(zip(series.n_values, series.estimates, series.ci_low, series.ci_high))
    return (series.to_dict(), echo, rows,
            f"{len(rows)} rows (terminal estimate {series.terminal!r})")


def _verdict(f, mu, s: dict, seed: int):
    v = expansiveness_verdict(f, mu, s["delta"], n_max=s["nmax"],
                              samples=s["samples"], x_probes=s["x_probes"],
                              threshold=s["threshold"], seed=seed, sided=s["sided"])
    echo = {k: s[k] for k in ("delta", "nmax", "samples", "x_probes", "threshold")}
    rows = [(i + 1, est, lo, hi) for i, (est, lo, hi) in
            enumerate(zip(v.per_probe_terminal, v.per_probe_lower, v.per_probe_upper))]
    return (v.to_dict(), {**echo, "sided": v.sided}, rows,
            f"{v.verdict} (delta={v.delta}, worst upper {v.worst_upper_bound!r})")


def _entropy(f, mu, s: dict, seed: int):
    grid = _grid(s["delta_grid"])
    n_range = (s["n_lo"], s["n_hi"])
    est = bk_entropy(f, mu, grid, n_range=n_range, x_probes=s["x_probes"],
                     samples=s["samples"], seed=seed)
    echo = {"delta_grid": list(grid), "n_range": list(n_range),
            "x_probes": s["x_probes"], "samples": s["samples"]}
    rows = [(d, e, e - 2 * se, e + 2 * se) for d, e, se in
            zip(est.delta_grid, est.e_of_delta, est.se_of_delta)]
    return (est.to_dict(), echo, rows,
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
    rows = [(i + 1, v, v, v) for i, v in enumerate(rep.per_sequence)]
    return (rep.to_dict(), {**echo, "sided": rep.sided}, rows,
            f"evidence={rep.is_generator_evidence} "
            f"(max estimate {rep.max_intersection_estimate!r})")


class _Command(NamedTuple):
    help: str
    flags: dict                # setting -> default; flag --<setting with dashes>
    run: Callable | None = None  # (f, mu, settings, seed) -> result, echo, rows, summary
    lengths: tuple = ()        # settings that must be finite positive lengths
    header: str = "n,estimate,ci_low,ci_high"


_COMMANDS = {
    "decay": _Command(
        "window-mass decay curve at one center",
        {"system": "rotation", "measure": "lebesgue", "delta": 0.05, "nmax": 20,
         "samples": 100_000, "sided": None, "x": None},
        _decay, ("delta",)),
    "verdict": _Command(
        "three-valued expansiveness verdict",
        {"system": "rotation", "measure": "lebesgue", "delta": 0.05, "nmax": 30,
         "samples": 100_000, "x_probes": 20, "threshold": 0.01, "sided": None},
        _verdict, ("delta",)),
    "entropy": _Command(
        "local entropy rate over a radius grid",
        {"system": "doubling", "measure": "lebesgue", "delta_grid": "0.1,0.05,0.02",
         "n_lo": 1, "n_hi": 14, "x_probes": 30, "samples": 100_000},
        _entropy, ("delta_grid",), "delta,estimate,ci_low,ci_high"),
    "generator": _Command(
        "cover-sequence intersection check",
        {"system": "doubling", "measure": "lebesgue", "radius": 0.1, "step": 0.05,
         "nmax": 10, "sequences": 32, "mc_samples": 100_000, "threshold": 0.01,
         "sided": None},
        _generator, ("radius", "step")),
    "battery": _Command("run the theorem battery", {"cases": None, "workers": 1}),
}
_SIDED = ["one", "two", "one_sided", "two_sided"]
_HELP = {"x": "comma-separated center coordinates",
         "cases": "comma-separated case ids (default: all)"}


def _run(command: str, args: argparse.Namespace, cfg: dict) -> int:
    """Shared steps of the data commands; only the table's function is timed."""
    spec = _COMMANDS[command]
    settings = _effective(args, cfg, spec.flags)
    _check_lengths(settings, *spec.lengths)
    seed = _resolve_seed(args, cfg)
    params = _parse_params(args.param)
    f, mu = _build_pair(settings, params)
    t0 = time.perf_counter()
    result, fields, rows, summary = spec.run(f, mu, settings, seed)
    runtime = time.perf_counter() - t0
    echo = {"system": {"name": f.name, "params": params},
            "measure": {"name": mu.name}, **fields, "seed": seed}

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"# dynball {__version__}",
             f"# command: {command}",
             f"# config: {json.dumps(echo, sort_keys=True, separators=(',', ':'))}",
             f"# seed: {seed}",
             spec.header]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    (out / f"{command}.csv").write_text("\n".join(lines) + "\n")
    payload = {"version": __version__, "command": command,
               "config": echo, "seed": seed, "result": result}
    (out / f"{command}.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n")
    meta = {"version": __version__, "command": command, "seed": seed,
            "runtime_seconds": runtime}
    (out / f"{command}.meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n")
    print(f"{command}: {summary} -> {args.out}/{command}.json")
    return 0


def _battery(args: argparse.Namespace, cfg: dict) -> int:
    settings = _effective(args, cfg, _COMMANDS["battery"].flags)
    seed = _resolve_seed(args, cfg)
    workers = settings["workers"]
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    case_filter = None
    if settings["cases"]:
        case_filter = [c.strip() for c in settings["cases"].split(",")]
    t0 = time.perf_counter()
    report = run_battery(case_filter=case_filter, seed=seed, workers=workers)
    runtime = time.perf_counter() - t0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "battery.json").write_text(report.to_json())
    (out / "battery.md").write_text(report.to_markdown())
    meta = {"version": __version__, "command": "battery", "seed": seed,
            "runtime_seconds": runtime, "workers": workers}
    (out / "battery.meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n")
    print(f"battery: {report.passed} pass, {report.failed} fail, "
          f"{report.vacuous} vacuous, {report.inconclusive} inconclusive "
          f"-> {args.out}/battery.md")
    if not report.all_clear:
        print("failing cases: " + ", ".join(report.failing_ids()), file=sys.stderr)
        return 1
    return 0


def _explain(args: argparse.Namespace) -> int:
    try:
        info = case_info(args.case_id)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(f"{info['id']}: {info['claim']}")
    print(f"systems: {', '.join(info['systems'])}")
    print(f"measures: {', '.join(info['measures'])}")
    return 0


def _print_listing() -> None:
    print("systems:")
    for name in zoo_names():
        print(f"  {name}")
    print("measures:")
    for name in measure_names():
        print(f"  {name}")
    print("battery cases:")
    for cid in CASE_IDS:
        print(f"  {cid}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynball",
        description="Monte-Carlo expansiveness and entropy estimates for "
                    "the built-in system zoo.")
    parser.add_argument("--list", action="store_true",
                        help="list systems, measures, and battery case ids")
    sub = parser.add_subparsers(dest="command")
    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        for key, default in spec.flags.items():
            p.add_argument("--" + key.replace("_", "-"), help=_HELP.get(key),
                           type=str if default is None else type(default),
                           choices=_SIDED if key == "sided" else None)
        if "system" in spec.flags:
            p.add_argument("--param", action="append", metavar="KEY=VALUE")
        p.add_argument("--seed", type=int)
        p.add_argument("--config")
        p.add_argument("--out", default=".")
    p = sub.add_parser("explain", help="describe one battery case")
    p.add_argument("case_id")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        _print_listing()
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.command == "explain":
        return _explain(args)
    try:
        cfg = _load_config(args.config)
        if args.command == "battery":
            return _battery(args, cfg)
        return _run(args.command, args, cfg)
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except (KeyError, ValueError, DynballError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"usage error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
