import hashlib
import json

import pytest

from dynball.cli import main


def run(argv):
    return main(argv)


def test_list_flag(capsys):
    assert run(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("doubling", "denjoy", "lebesgue", "dirac:<coords>", "thD"):
        assert name in out


def test_no_command_is_usage_error(capsys):
    assert run([]) == 2


def test_decay_writes_three_files(tmp_path, capsys):
    code = run(["decay", "--system", "rotation", "--measure", "lebesgue",
                "--delta", "0.05", "--nmax", "12", "--samples", "20000",
                "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    csv = (tmp_path / "decay.csv").read_text()
    lines = csv.splitlines()
    assert lines[0].startswith("# dynball ")
    assert lines[4] == "n,estimate,ci_low,ci_high"
    assert len(lines) == 5 + 12
    meta = json.loads((tmp_path / "decay.meta.json").read_text())
    assert meta["runtime_seconds"] > 0
    payload = json.loads((tmp_path / "decay.json").read_text())
    assert payload["seed"] == 7
    assert payload["config"]["system"]["name"] == "rotation"
    # isometry: flat at 2*delta
    for est in payload["result"]["estimate"]:
        assert 0.08 <= est <= 0.12


def test_decay_golden_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["decay", "--system", "doubling", "--delta", "0.02", "--nmax", "10",
            "--samples", "20000", "--seed", "3"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert (a / "decay.csv").read_bytes() == (b / "decay.csv").read_bytes()
    assert (a / "decay.json").read_bytes() == (b / "decay.json").read_bytes()


@pytest.mark.parametrize("argv, csv_sha, json_sha", [
    (["decay", "--samples", "20000"],
     "612d318bf119a0b940e2c03eeca556c28f0ab2fe4e3d833b19ef2da9231da5e6",
     "98f7f82bb34508454bbc81e59e3ada01a69842a9c29d35eeb363127dfc890277"),
    (["decay", "--system", "cat", "--samples", "20000"],
     "2377fe0d0cff2369bdf98cee2aaee71ecb8be5d36b6d4596e0d3a7883cc56131",
     "3557e5efa0505dfda2ca566fd1ae9d54e224285779ed336559b21f2f745f8bb7"),
    (["verdict", "--samples", "20000"],
     "47c8bca1c83cc89c9f419625d6970eabe0e98550a74b7e90103da177a544fe27",
     "fa036c7831e2706646fd80ef29082fb0614a1672bf292afbafd0b8ca0dfac100"),
    (["entropy", "--samples", "20000"],
     "970801aa95d16efe78939400e5cf999464837eb8dd8fc0f8eb18f6ec4c467b75",
     "040662dd242af3e05f508bdebffe158c3996936141df45904a44c606358eebfd"),
    (["generator", "--mc-samples", "20000"],
     "d465598a92d4c86a7fda911ae6bb4d9acdb4fe615d6ecc1e8087ec1584617e1b",
     "9d58cd988cf7be33b68cf6f6ffb3b7255607b880f87fb84f03ce0f1fa18983f7"),
    (["generator", "--system", "rotation", "--mc-samples", "20000"],
     "099a11327d83e8887cae9c1eec9187a19483f6138287f9936a7dfddc8cf08af2",
     "4af742b4b01bd47c18ebc9869826d8cd88f207ee5b7964cb25c733c90f061b17"),
    (["decay", "--system", "denjoy", "--measure", "denjoy-minimal", "--samples", "20000"],
     "6455420c0d07d7d12af60fe5240c54e13def34044c0f1ff3cf8ab782c591deb4",
     "9f876d7e1fcecc9ecf97e827d386a3b4001e5330a72861730e4444a9e78bb064"),
    (["verdict", "--system", "denjoy", "--measure", "denjoy-minimal", "--samples", "20000"],
     "c77db51e1899e5b2ed6cd20450eb63cf57a4b0fd7bf12719675a6677fdc66cbc",
     "fcb514a65495cffc24309cc8836eb8abf1c02ee6080f389125eaa5ef076e8170"),
    # the battery writes no csv
    (["battery", "--cases", "circle1,reddy", "--workers", "1"],
     None,
     "f400a0baf6e034721ec1f2afc1ce27a4f65cd275ad7495e48133ccd730d4f2f5"),
    # the power, diagonal, generator, fraction, entropy-expansive and volume
    # records, recorded while each result type still had a hand-written
    # to_dict: a field's name is its json key
    (["battery", "--cases", "pp2,diagonal,pp0,thA,emu-positive,exxx1", "--workers", "1"],
     None,
     "ce53d134bd889acd678bc18762edea7d1c7836d399023fd67055225f4be93497"),
])
def test_artifact_bytes_pinned(tmp_path, argv, csv_sha, json_sha):
    # digests recorded from the dense survival kernel and the dense generator
    # mask, the denjoy and battery rows before the spec types were trimmed:
    # speed and simplicity work must leave every csv/json byte as it was
    assert run(argv + ["--seed", "7", "--out", str(tmp_path)]) == 0
    cmd = argv[0]
    if csv_sha is not None:
        assert hashlib.sha256((tmp_path / f"{cmd}.csv").read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256((tmp_path / f"{cmd}.json").read_bytes()).hexdigest() == json_sha


def test_capability_exit_code(tmp_path, capsys):
    code = run(["decay", "--system", "doubling", "--sided", "two",
                "--out", str(tmp_path)])
    assert code == 3
    assert "capability" in capsys.readouterr().err


def test_unknown_names_exit_code(tmp_path, capsys):
    assert run(["verdict", "--system", "nosuch", "--out", str(tmp_path)]) == 2
    assert run(["verdict", "--system", "rotation", "--measure", "nosuch",
                "--out", str(tmp_path)]) == 2


def test_verdict_command(tmp_path, capsys):
    code = run(["verdict", "--system", "interval-square", "--measure", "lebesgue",
                "--delta", "0.1", "--nmax", "12", "--samples", "10000",
                "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "verdict.json").read_text())
    assert payload["result"]["verdict"] == "evidence_not_expansive"
    assert "evidence_not_expansive" in capsys.readouterr().out


def test_entropy_command(tmp_path):
    code = run(["entropy", "--system", "doubling", "--delta-grid", "0.1,0.05",
                "--n-hi", "12", "--x-probes", "20", "--samples", "30000",
                "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "entropy.json").read_text())
    assert 0.5 <= payload["result"]["extrapolated_e"] <= 0.8
    header = (tmp_path / "entropy.csv").read_text().splitlines()[4]
    assert header == "delta,estimate,ci_low,ci_high"


def test_generator_command(tmp_path):
    code = run(["generator", "--system", "doubling", "--radius", "0.1",
                "--step", "0.05", "--nmax", "8", "--sequences", "8",
                "--mc-samples", "20000", "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "generator.json").read_text())
    assert payload["result"]["is_generator_evidence"] is True


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system = rotation\ndelta = 0.05\nnmax = 10\n"
                   "samples = 5000\n# comment line\n")
    code = run(["verdict", "--config", str(cfg), "--delta", "0.2",
                "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "verdict.json").read_text())
    assert payload["config"]["delta"] == 0.2  # flag wins
    assert payload["config"]["nmax"] == 10    # config fills the rest


def test_env_seed_echoed(tmp_path, monkeypatch):
    monkeypatch.setenv("DYNBALL_SEED", "99")
    code = run(["decay", "--system", "identity", "--delta", "0.05",
                "--nmax", "5", "--samples", "5000", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "decay.json").read_text())
    assert payload["seed"] == 99
    csv = (tmp_path / "decay.csv").read_text()
    assert "# seed: 99" in csv


def test_param_flag(tmp_path):
    code = run(["decay", "--system", "rotation", "--param", "alpha=0.25",
                "--delta", "0.05", "--nmax", "5", "--samples", "5000",
                "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "decay.json").read_text())
    assert payload["config"]["system"]["params"]["alpha"] == 0.25


def test_explain(capsys):
    assert run(["explain", "thD"]) == 0
    out = capsys.readouterr().out
    assert "interval" in out and "evidence_not_expansive" in out
    assert run(["explain", "circle1"]) == 0
    out = capsys.readouterr().out
    assert "Denjoy" in out
    assert run(["explain", "nosuch"]) == 2


def test_battery_subset_cli(tmp_path, capsys):
    code = run(["battery", "--cases", "isometry,thA", "--seed", "7",
                "--workers", "2", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "battery.json").read_text())
    assert [c["id"] for c in rep["cases"]] == ["isometry", "thA"]
    assert rep["summary"]["fail"] == 0
    md = (tmp_path / "battery.md").read_text()
    assert "| isometry | pass |" in md
    meta = json.loads((tmp_path / "battery.meta.json").read_text())
    assert meta["workers"] == 2


def test_battery_json_stable_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["battery", "--cases", "isometry", "--seed", "5",
                    "--out", str(out)]) == 0
    assert (a / "battery.json").read_bytes() == (b / "battery.json").read_bytes()
    assert (a / "battery.md").read_bytes() == (b / "battery.md").read_bytes()


@pytest.mark.parametrize("argv, known", [
    (["decay", "--system", "doubling", "--param", "foo=1"], "known: none"),
    (["decay", "--system", "identity", "--param", "alpha=0.1"], "known: none"),
    (["decay", "--system", "rotation", "--param", "N=16"], "known: alpha"),
    (["decay", "--system", "denjoy", "--measure", "denjoy-minimal",
      "--param", "foo=1"], "known: alpha, N"),
])
def test_unknown_param_key_exit_code(tmp_path, capsys, argv, known):
    assert run(argv + ["--samples", "1000", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown parameter" in err and known in err
    assert not (tmp_path / "decay.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["decay", "--delta", "nan"], "delta must be finite and positive"),
    (["decay", "--delta", "inf"], "delta must be finite and positive"),
    (["verdict", "--delta", "0"], "delta must be finite and positive"),
    (["entropy", "--delta-grid", "0.1,nan"], "delta-grid must be finite and positive"),
    (["generator", "--step", "0"], "step must be finite and positive"),
    (["generator", "--step", "-0.05"], "step must be finite and positive"),
    (["generator", "--step", "inf"], "step must be finite and positive"),
    (["generator", "--radius", "0"], "radius must be finite and positive"),
    (["generator", "--radius", "-0.1"], "radius must be finite and positive"),
    (["generator", "--radius", "nan"], "radius must be finite and positive"),
    (["decay", "--seed", "-1"], "seed must be an integer in [0, 2**64)"),
    (["decay", "--seed", str(2 ** 64)], "seed must be an integer in [0, 2**64)"),
    (["battery", "--workers", "0"], "workers must be >= 1"),
    (["battery", "--workers", "-3"], "workers must be >= 1"),
    (["generator", "--step", "1e-9"], "above the limit of 100000"),
    (["generator", "--system", "cat", "--step", "0.001"], "above the limit of 100000"),
    (["generator", "--step", "5e-324"], "above the limit of 100000"),
    (["decay", "--config", "samples = 1e400\n"],
     "config value samples = '1e400' is not a valid int"),
    (["decay", "--config", "nmax = 2.5\n"],
     "config value nmax = '2.5' is not a valid int"),
    (["generator", "--nmax", "-1"], "need n_max >= 0"),
    (["generator", "--sequences", "0"], "need n_max >= 0"),
    (["generator", "--mc-samples", "0"], "need n_max >= 0"),
    (["generator", "--threshold", "0"], "need n_max >= 0"),
    (["decay", "--system", "interval-square", "--x", "1.5"],
     "coords (1.5,) outside interval bounds"),
    (["decay", "--system", "rotation", "--x", "nan"], "coords (nan,) must be finite"),
    (["decay", "--system", "rotation", "--x", "inf"], "coords (inf,) must be finite"),
    (["verdict", "--system", "rotation", "--measure", "dirac:nan"],
     "coords (nan,) must be finite"),
    (["generator", "--system", "identity", "--threshold", "inf"], "need n_max >= 0"),
    (["verdict", "--threshold", "1.5"], "threshold must lie in (0, 1), got 1.5"),
    (["verdict", "--threshold", "nan"], "threshold must lie in (0, 1), got nan"),
    (["decay", "--param", "alpha=nan"],
     "parameter alpha = nan for system 'rotation' is not a finite float"),
    (["verdict", "--param", "alpha=inf"],
     "parameter alpha = inf for system 'rotation' is not a finite float"),
    (["decay", "--system", "denjoy", "--param", "N=8.5"],
     "parameter N = 8.5 for system 'denjoy' is not a finite int"),
])
def test_invalid_input_exit_code(tmp_path, tmp_path_factory, capsys, argv, message):
    if "--config" in argv:  # the item after it is the config file's text
        cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
        i = argv.index("--config") + 1
        cfg.write_text(argv[i])
        argv = [*argv[:i], str(cfg), *argv[i + 1:]]
    assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_battery_workers_from_config(tmp_path, capsys):
    (tmp_path / "run.cfg").write_text("workers = 0\n")
    out = tmp_path / "out"
    assert run(["battery", "--cases", "isometry", "--config", str(tmp_path / "run.cfg"),
                "--out", str(out)]) == 2
    assert "usage error: workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, cfg, echo", [
    (["decay", "--nmax", "3", "--samples", "2000", "--x", "0.3", "--seed", "1"], None,
     ('{"delta": 0.05, "measure": {"name": "lebesgue"}, "nmax": 3, "samples": 2000, '
      '"seed": 1, "sided": "two_sided", "system": {"name": "rotation", "params": {}}, '
      '"x": [0.3]}')),
    (["verdict", "--system", "doubling", "--nmax", "3", "--samples", "2000",
      "--x-probes", "20", "--seed", "1"], None,
     ('{"delta": 0.05, "measure": {"name": "lebesgue"}, "nmax": 3, "samples": 2000, '
      '"seed": 1, "sided": "one_sided", "system": {"name": "doubling", "params": {}}, '
      '"threshold": 0.01, "x_probes": 20}')),
    (["entropy", "--delta-grid", "0.1,0.05", "--n-hi", "4", "--x-probes", "20",
      "--samples", "2000", "--seed", "1"], None,
     ('{"delta_grid": [0.1, 0.05], "measure": {"name": "lebesgue"}, "n_range": [1, 4], '
      '"samples": 2000, "seed": 1, "system": {"name": "doubling", "params": {}}, '
      '"x_probes": 20}')),
    (["generator", "--nmax", "3", "--sequences", "2", "--mc-samples", "2000",
      "--seed", "1"], None,
     ('{"mc_samples": 2000, "measure": {"name": "lebesgue"}, "nmax": 3, "radius": 0.1, '
      '"seed": 1, "sequences": 2, "sided": "one_sided", "step": 0.05, '
      '"system": {"name": "doubling", "params": {}}, "threshold": 0.01}')),
    (["decay", "--param", "alpha=0.25", "--seed", "1"],
     "samples = 2e4\nnmax = 3\ndelta = 1e-1\nx = 0.5\n",
     ('{"delta": 0.1, "measure": {"name": "lebesgue"}, "nmax": 3, "samples": 20000, '
      '"seed": 1, "sided": "two_sided", "system": {"name": "rotation", '
      '"params": {"alpha": 0.25}}, "x": [0.5]}')),
])
def test_config_echo_keys_and_types(tmp_path, argv, cfg, echo):
    if cfg is not None:
        (tmp_path / "run.cfg").write_text(cfg)
        argv = argv + ["--config", str(tmp_path / "run.cfg")]
    assert run(argv + ["--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / f"{argv[0]}.json").read_text())
    assert json.dumps(payload["config"], sort_keys=True) == echo


def _subcommand_options():
    from dynball.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if a.__class__.__name__ == "_SubParsersAction")
    return {name: {s for a in p._actions for s in a.option_strings}
            for name, p in sub.choices.items()}


def test_subcommand_flag_sets():
    common = {"-h", "--help", "--system", "--measure", "--param", "--seed",
              "--config", "--out"}
    assert _subcommand_options() == {
        "decay": common | {"--delta", "--nmax", "--samples", "--sided", "--x"},
        "verdict": common | {"--delta", "--nmax", "--samples", "--x-probes",
                             "--threshold", "--sided"},
        "entropy": common | {"--delta-grid", "--n-lo", "--n-hi", "--x-probes",
                             "--samples"},
        "generator": common | {"--radius", "--step", "--nmax", "--sequences",
                               "--mc-samples", "--threshold", "--sided"},
        "battery": {"-h", "--help", "--cases", "--seed", "--config", "--out",
                    "--workers"},
        "explain": {"-h", "--help"},
    }
