"""Command-line runner writing reproducible CSV/JSON artifacts.

Every data command writes three files into ``--out``: ``<cmd>.csv`` with
a commented metadata header (version, config echo, seed) and a plain
header row, ``<cmd>.json`` with the structured result and the same
config echo, and ``<cmd>.meta.json`` carrying the wall-clock runtime.
The csv and json files are byte-stable for a fixed config and seed; the
meta sidecar is the only file whose bytes vary run to run.

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

_HARD_DEFAULTS = {
    "decay": {"system": "rotation", "measure": "lebesgue", "delta": 0.05,
              "nmax": 20, "samples": 100_000, "sided": None, "x": None},
    "verdict": {"system": "rotation", "measure": "lebesgue", "delta": 0.05,
                "nmax": 30, "samples": 100_000, "x_probes": 20,
                "threshold": 0.01, "sided": None},
    "entropy": {"system": "doubling", "measure": "lebesgue",
                "delta_grid": "0.1,0.05,0.02", "n_lo": 1, "n_hi": 14,
                "x_probes": 30, "samples": 100_000},
    "generator": {"system": "doubling", "measure": "lebesgue", "radius": 0.1,
                  "step": 0.05, "nmax": 10, "sequences": 32,
                  "mc_samples": 100_000, "threshold": 0.01, "sided": None},
    "battery": {"cases": None, "workers": 1},
}


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


def _effective(args: argparse.Namespace, cfg: dict, command: str) -> dict:
    """Flag > config file > hard default, per option."""
    out = {}
    for key, hard in _HARD_DEFAULTS[command].items():
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in cfg:
            out[key] = _parse_value(cfg[key]) if not isinstance(hard, str) else cfg[key]
        else:
            out[key] = hard
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


def _write_outputs(out_dir: str, command: str, config_echo: dict, seed: int,
                   result: dict, csv_header: str, csv_rows: list[tuple],
                   runtime: float) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = json.dumps(config_echo, sort_keys=True, separators=(",", ":"))
    lines = [f"# dynball {__version__}",
             f"# command: {command}",
             f"# config: {echo}",
             f"# seed: {seed}",
             csv_header]
    for row in csv_rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    (out / f"{command}.csv").write_text("\n".join(lines) + "\n")
    payload = {"version": __version__, "command": command,
               "config": config_echo, "seed": seed, "result": result}
    (out / f"{command}.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n")
    meta = {"version": __version__, "command": command, "seed": seed,
            "runtime_seconds": runtime}
    (out / f"{command}.meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _cmd_decay(args, cfg) -> int:
    settings = _effective(args, cfg, "decay")
    _check_lengths(settings, "delta")
    seed = _resolve_seed(args, cfg)
    params = _parse_params(args.param)
    f, mu = _build_pair(settings, params)
    if settings["x"] is not None:
        x = geo.Point(f.space, tuple(float(v) for v in str(settings["x"]).split(",")))
    else:
        x = geo.Point(f.space, tuple(mu.sample_coords(derive_seed(seed, "x"), 1)[0]))
    t0 = time.perf_counter()
    series = decay_series(f, mu, x, float(settings["delta"]),
                          sided=settings["sided"], n_max=int(settings["nmax"]),
                          samples=int(settings["samples"]), seed=seed)
    runtime = time.perf_counter() - t0
    echo = {"system": {"name": f.name, "params": params},
            "measure": {"name": mu.name},
            "delta": float(settings["delta"]), "nmax": int(settings["nmax"]),
            "samples": int(settings["samples"]), "sided": series.sided,
            "x": list(series.x), "seed": seed}
    rows = list(zip(series.n_values, series.estimates, series.ci_low, series.ci_high))
    _write_outputs(args.out, "decay", echo, seed, series.to_dict(),
                   "n,estimate,ci_low,ci_high", rows, runtime)
    print(f"decay: {len(rows)} rows -> {args.out}/decay.csv "
          f"(terminal estimate {series.terminal!r})")
    return 0


def _cmd_verdict(args, cfg) -> int:
    settings = _effective(args, cfg, "verdict")
    _check_lengths(settings, "delta")
    seed = _resolve_seed(args, cfg)
    params = _parse_params(args.param)
    f, mu = _build_pair(settings, params)
    t0 = time.perf_counter()
    v = expansiveness_verdict(f, mu, float(settings["delta"]),
                              n_max=int(settings["nmax"]),
                              samples=int(settings["samples"]),
                              x_probes=int(settings["x_probes"]),
                              threshold=float(settings["threshold"]),
                              seed=seed, sided=settings["sided"])
    runtime = time.perf_counter() - t0
    echo = {"system": {"name": f.name, "params": params},
            "measure": {"name": mu.name},
            "delta": float(settings["delta"]), "nmax": int(settings["nmax"]),
            "samples": int(settings["samples"]),
            "x_probes": int(settings["x_probes"]),
            "threshold": float(settings["threshold"]),
            "sided": v.sided, "seed": seed}
    rows = [(i + 1, est, lo, hi) for i, (est, lo, hi) in
            enumerate(zip(v.per_probe_terminal, v.per_probe_lower, v.per_probe_upper))]
    _write_outputs(args.out, "verdict", echo, seed, v.to_dict(),
                   "n,estimate,ci_low,ci_high", rows, runtime)
    print(f"verdict: {v.verdict} (delta={v.delta}, worst upper "
          f"{v.worst_upper_bound!r}) -> {args.out}/verdict.json")
    return 0


def _cmd_entropy(args, cfg) -> int:
    settings = _effective(args, cfg, "entropy")
    _check_lengths(settings, "delta_grid")
    seed = _resolve_seed(args, cfg)
    params = _parse_params(args.param)
    f, mu = _build_pair(settings, params)
    grid = _grid(settings["delta_grid"])
    t0 = time.perf_counter()
    est = bk_entropy(f, mu, grid, n_range=(int(settings["n_lo"]), int(settings["n_hi"])),
                     x_probes=int(settings["x_probes"]),
                     samples=int(settings["samples"]), seed=seed)
    runtime = time.perf_counter() - t0
    echo = {"system": {"name": f.name, "params": params},
            "measure": {"name": mu.name},
            "delta_grid": list(grid),
            "n_range": [int(settings["n_lo"]), int(settings["n_hi"])],
            "x_probes": int(settings["x_probes"]),
            "samples": int(settings["samples"]), "seed": seed}
    rows = [(d, e, e - 2 * s, e + 2 * s) for d, e, s in
            zip(est.delta_grid, est.e_of_delta, est.se_of_delta)]
    _write_outputs(args.out, "entropy", echo, seed, est.to_dict(),
                   "delta,estimate,ci_low,ci_high", rows, runtime)
    print(f"entropy: extrapolated {est.extrapolated_e!r} +- "
          f"{est.extrapolated_se!r} (converged={est.converged}) -> "
          f"{args.out}/entropy.json")
    return 0


def _cmd_generator(args, cfg) -> int:
    settings = _effective(args, cfg, "generator")
    _check_lengths(settings, "radius", "step")
    seed = _resolve_seed(args, cfg)
    params = _parse_params(args.param)
    f, mu = _build_pair(settings, params)
    cover = geo.make_ball_cover(f.space, radius=float(settings["radius"]),
                                step=float(settings["step"]))
    t0 = time.perf_counter()
    rep = generator_check(f, mu, cover, n_max=int(settings["nmax"]),
                          sequence_samples=int(settings["sequences"]),
                          mc_samples=int(settings["mc_samples"]),
                          threshold=float(settings["threshold"]),
                          seed=seed, sided=settings["sided"])
    runtime = time.perf_counter() - t0
    echo = {"system": {"name": f.name, "params": params},
            "measure": {"name": mu.name},
            "radius": float(settings["radius"]), "step": float(settings["step"]),
            "nmax": int(settings["nmax"]),
            "sequences": int(settings["sequences"]),
            "mc_samples": int(settings["mc_samples"]),
            "threshold": float(settings["threshold"]),
            "sided": rep.sided, "seed": seed}
    rows = [(i + 1, v, v, v) for i, v in enumerate(rep.per_sequence)]
    _write_outputs(args.out, "generator", echo, seed, rep.to_dict(),
                   "n,estimate,ci_low,ci_high", rows, runtime)
    print(f"generator: evidence={rep.is_generator_evidence} (max estimate "
          f"{rep.max_intersection_estimate!r}) -> {args.out}/generator.json")
    return 0


def _cmd_battery(args, cfg) -> int:
    settings = _effective(args, cfg, "battery")
    seed = _resolve_seed(args, cfg)
    case_filter = None
    if settings["cases"]:
        case_filter = [c.strip() for c in str(settings["cases"]).split(",")]
    t0 = time.perf_counter()
    report = run_battery(case_filter=case_filter, seed=seed,
                         workers=int(settings["workers"]))
    runtime = time.perf_counter() - t0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "battery.json").write_text(report.to_json())
    (out / "battery.md").write_text(report.to_markdown())
    meta = {"version": __version__, "command": "battery", "seed": seed,
            "runtime_seconds": runtime,
            "workers": int(settings["workers"])}
    (out / "battery.meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n")
    print(f"battery: {report.passed} pass, {report.failed} fail, "
          f"{report.vacuous} vacuous, {report.inconclusive} inconclusive "
          f"-> {args.out}/battery.md")
    if not report.all_clear:
        print("failing cases: " + ", ".join(report.failing_ids()), file=sys.stderr)
        return 1
    return 0


def _cmd_explain(args, cfg) -> int:
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

    def common(p, with_measure=True):
        p.add_argument("--system")
        if with_measure:
            p.add_argument("--measure")
        p.add_argument("--param", action="append", metavar="KEY=VALUE")
        p.add_argument("--seed", type=int)
        p.add_argument("--config")
        p.add_argument("--out", default=".")

    p = sub.add_parser("decay", help="window-mass decay curve at one center")
    common(p)
    p.add_argument("--delta", type=float)
    p.add_argument("--nmax", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--sided", choices=["one", "two", "one_sided", "two_sided"])
    p.add_argument("--x", help="comma-separated center coordinates")

    p = sub.add_parser("verdict", help="three-valued expansiveness verdict")
    common(p)
    p.add_argument("--delta", type=float)
    p.add_argument("--nmax", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--x-probes", dest="x_probes", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--sided", choices=["one", "two", "one_sided", "two_sided"])

    p = sub.add_parser("entropy", help="local entropy rate over a radius grid")
    common(p)
    p.add_argument("--delta-grid", dest="delta_grid")
    p.add_argument("--n-lo", dest="n_lo", type=int)
    p.add_argument("--n-hi", dest="n_hi", type=int)
    p.add_argument("--x-probes", dest="x_probes", type=int)
    p.add_argument("--samples", type=int)

    p = sub.add_parser("generator", help="cover-sequence intersection check")
    common(p)
    p.add_argument("--radius", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--nmax", type=int)
    p.add_argument("--sequences", type=int)
    p.add_argument("--mc-samples", dest="mc_samples", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--sided", choices=["one", "two", "one_sided", "two_sided"])

    p = sub.add_parser("battery", help="run the theorem battery")
    p.add_argument("--cases", help="comma-separated case ids (default: all)")
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--out", default=".")
    p.add_argument("--workers", type=int)

    p = sub.add_parser("explain", help="describe one battery case")
    p.add_argument("case_id")

    return parser


_DISPATCH = {"decay": _cmd_decay, "verdict": _cmd_verdict,
             "entropy": _cmd_entropy, "generator": _cmd_generator,
             "battery": _cmd_battery, "explain": _cmd_explain}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        _print_listing()
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _load_config(getattr(args, "config", None))
        return _DISPATCH[args.command](args, cfg)
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except (KeyError, ValueError, DynballError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"usage error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
