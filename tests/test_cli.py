import hashlib
import json
import os
import tracemalloc

import pytest

from dynball import circle, decay_series, expansiveness, make_lebesgue, make_rotation
from dynball.cli import main
from dynball.expansiveness import _PAIR_BLOCK, usable_cpus


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


def _one_center_split(meta, rows):
    # two shares, the second forked, when there is a second CPU, and draws
    # merged into kernel blocks of at least 2^13 pairs
    return (meta["kernel_shares"] == min(2, meta["nproc"])
            and meta["kernel_block_pairs"] >= 2 ** 13)


def _share_per_cpu(meta, rows):
    return min(2, meta["nproc"]) <= meta["kernel_shares"] <= meta["nproc"]


def _width(rows, delta):
    row = next(r for r in rows if float(r["delta"]) == delta)
    return float(row["ci_high"]) - float(row["ci_low"])


# The determinism table: each row is a command, the sha256 of the csv and
# json it writes at seed 7, and an optional expectation on its meta and csv
# rows.  Meta expectations are written against the run's own "nproc", so
# a row holds on any CPU count; CI runs the table again under
# `taskset -c 0` and with numpy's SIMD kernels switched off, so every
# digest is checked on all CPUs, on one CPU and on baseline kernels.  To
# add a row, append (argv, csv digest, json digest, expectation or None)
# and an id for it below.
#
# Each case keeps the id it was first collected under, made of the digests
# recorded when it was added (before sample rows became lane-dense, for
# the first sixteen): a deliberate byte move re-pins the digests below
# without renaming the case.
_PINNED_IDS = [
    "argv0-"
    "612d318bf119a0b940e2c03eeca556c28f0ab2fe4e3d833b19ef2da9231da5e6-98f7f82bb34508454bbc81e59e3ada01a69842a9c29d35eeb363127dfc890277",
    "argv1-"
    "2377fe0d0cff2369bdf98cee2aaee71ecb8be5d36b6d4596e0d3a7883cc56131-3557e5efa0505dfda2ca566fd1ae9d54e224285779ed336559b21f2f745f8bb7",
    "argv2-"
    "47c8bca1c83cc89c9f419625d6970eabe0e98550a74b7e90103da177a544fe27-fa036c7831e2706646fd80ef29082fb0614a1672bf292afbafd0b8ca0dfac100",
    "argv3-"
    "970801aa95d16efe78939400e5cf999464837eb8dd8fc0f8eb18f6ec4c467b75-040662dd242af3e05f508bdebffe158c3996936141df45904a44c606358eebfd",
    "argv4-"
    "d465598a92d4c86a7fda911ae6bb4d9acdb4fe615d6ecc1e8087ec1584617e1b-9d58cd988cf7be33b68cf6f6ffb3b7255607b880f87fb84f03ce0f1fa18983f7",
    "argv5-"
    "099a11327d83e8887cae9c1eec9187a19483f6138287f9936a7dfddc8cf08af2-4af742b4b01bd47c18ebc9869826d8cd88f207ee5b7964cb25c733c90f061b17",
    "argv6-"
    "6455420c0d07d7d12af60fe5240c54e13def34044c0f1ff3cf8ab782c591deb4-9f876d7e1fcecc9ecf97e827d386a3b4001e5330a72861730e4444a9e78bb064",
    "argv7-"
    "c77db51e1899e5b2ed6cd20450eb63cf57a4b0fd7bf12719675a6677fdc66cbc-fcb514a65495cffc24309cc8836eb8abf1c02ee6080f389125eaa5ef076e8170",
    "argv8-"
    "None-f400a0baf6e034721ec1f2afc1ce27a4f65cd275ad7495e48133ccd730d4f2f5",
    "argv9-"
    "None-ce53d134bd889acd678bc18762edea7d1c7836d399023fd67055225f4be93497",
    "argv10-"
    "3c3ec60afdb0862ce1c4c779d7d4a3c7a52348546b4b896e3758672908606c95-89cca7583cdd76ea4cbc5af472faf433a88be5e0ac943b28a3710117b83f733d",
    "argv11-"
    "da24e65aabb65eb8545889ca54c15afdb12e05390cda9ab6f2a35a92e2e7ed9c-c24295f25d58647ef89da98ed68a113c3a48ad675cc0a202f527818bae5ce14a",
    "argv12-"
    "None-15502579d1ccdafcccd5c36b4282d14d1dbfbcb9de85d6cd0eb0ece732c7b0e7",
    "argv13-"
    "56e9e3cb71c41c6878c62027cca2c5ead4398a9338fffc292310bf51debbf0f2-135ff4efeb0f6032de70b40982a4e3e55b3b82b51f2af2e78b5bf2dab8a5174f",
    "argv14-"
    "93e54485bc57ef4d2ba2b652d8a15d5c053036bc0aa7f7c4c3860bee7c3b90a1-2220194494d6eaa916d92bd821c72713382437123b1520130b8c1fb94cc3ec91",
    "argv15-"
    "36eeb97ad7fc7d529dcad0d372d281a6e3f8a4a07862a86a564615dcffe3a4f4-ebda4a3bada4a72b9a32b025d7f5f7152a62440f1096358bd56fee1f173f1c72",
    "argv16-"
    "9ab2c9eee8bc9e276192cc36c35be0ee54914b2e7c9768bbf1c9675a1dd9f4cd-41296c7b709dce43c83e3786182c24a3f4f570096b0cc821619f5e59f82c7700",
    "argv17-"
    "bddc23b57e313fe88835158050fea46098f7216ee9817093eb582ebd74402e21-42cfa404784e306acd6e8cad8258202b1533d947e724e1e8e330505ed768046d",
    "argv18-"
    "e84449e07225e14cd1a07ff4657fb90086350522c14cc0daa6277417b95d02f4-480fe1f9b429ab79f9f5e7b6eef441f54cde7687ddab9b4f2ac0dda51b9918dd",
    "argv19-"
    "3c56bd6eee01bbf2402be4442845b0bcc0af05d9eca040c6588d2bcc44974629-354bed0e9b3d9999a1629ab3be7010cf44dc5ee32a8f75248c3654fe3a1458ee",
    "argv20-"
    "089d6926ad2649f507797fce977c29a5852b4aa93747046c4abaddca57017b5a-1072e9cbc8a06df6e83a6bb9a9e6a6ce690c0497fab6ff936de769b1b0a7ae2b",
    "argv21-"
    "3da8ad5e32d6efe398724393e0b27344f9214828431c26fef8d97a5d37a3241b-ae5264fb6b6f0429fb482738541b70f6b98f6a6136b5b05c53ba0d502d63e031",
    "argv22-"
    "e332a5882e36de7579dacc4076a96661c7053efef67fd716888828ddd2e63412-cb45ba2dd8c4a1e5fec313a62994ee1c72b7cd8b58f01c8b4e13e95189c57b1c",
    "argv23-"
    "8607adf2d0a9e5b3617e6b25506579d72d4bac6814ddaf6c77e5693a42476aa6-32d8eaaa269c486d40e198ea30b8d9eec7b0b55bdd636f21dcd7df8a2ad17ce5",
    "argv24-"
    "c0fe535fdb85e5d329b9b4a36daf1cfa4fdee67476805e9f30945309e1fefd3e-51b1ed97d2ec837f9a144872a35fb406dfa25015723064dc33725f357172623d",
]


@pytest.mark.parametrize("argv, csv_sha, json_sha, expect", [
    (["decay", "--samples", "20000"],
     "d8a9a18ebb3d9f2990b59e002ff6d66b6f426ba33afa2ce67d6e072fa420d409",
     "b8254e4238b4ab9a5bc1a80c358a9e9b938fbaaefcda24ccb7748703eba650bb", None),
    (["decay", "--system", "cat", "--samples", "20000"],
     "4ef3fc4258067ec247e16a60970b8ce5fd5f94251216916431ab74403595661c",
     "ea918077a45ca370d41a448ddce9c1f5339c34c6e50ee65fe2d4a2f7e8f611ab", None),
    (["verdict", "--samples", "20000"],
     "0fced341c856684bf46e259602524b1fa061d7aeaf68fd5a75323a053b441cd7",
     "b1d83f996517e33aae267d349930fb5ba1c570266c48747baa8ae1ce43fc4bea", None),
    (["entropy", "--samples", "20000"],
     "e3b96039083390f4535c8106094a9dc1a3533bcb18dda8d692569d3686ec2791",
     "bfd3a686b9d35db8b8e0ac48052caa1048d9b634ae69c8514a99dedb0c380c37", None),
    (["generator", "--mc-samples", "20000"],
     "a43954b6d1072fe64ba8d79dabd5c544b90ceb66b41da120baeac25d628a84f0",
     "fe947c91c159f395e0ae5a9bf56012aa2a27deb34411032a3fb3bf5713984390", None),
    # two-sided: the window is iterates -(nmax+1)..nmax, the survival
    # kernel's window nmax + 1
    (["generator", "--system", "rotation", "--mc-samples", "20000"],
     "664df8d49c08806affafd9a39700b5eb08f980529aee0e4b6ef514f464d4ec19",
     "fc5a818b1895ea03d49f03000dde6af16ba137e25fa04ca7ae7b84866791fd9f", None),
    (["decay", "--system", "denjoy", "--measure", "denjoy-minimal", "--samples", "20000"],
     "1bb85f853f128270477cc30e8b4850d51db2d892dda0681afe461e7d3f1cd5be",
     "1ca8cbb33188d6a8b63c26de7f395dc16158dc165c7c2f2d31d312e4a2aab5bb", None),
    (["verdict", "--system", "denjoy", "--measure", "denjoy-minimal", "--samples", "20000"],
     "177da7a2736088c78f51e8af4430b25faaf1177ede60ced5f8f7fd5c08465ece",
     "76d812c5936b137e4c3057975832ecf3dabf17353e4fc7e3ca167ec25d13bc11", None),
    # the battery writes no csv
    (["battery", "--cases", "circle1,reddy", "--workers", "1"],
     None,
     "9de14184b57f394c3e5a48ba1a93c859b029521224dbb0f4f88b4d841dc79406", None),
    # the power, diagonal, generator, fraction, entropy-expansive and volume
    # records: a field's name is its json key
    (["battery", "--cases", "pp2,diagonal,pp0,thA,emu-positive,exxx1", "--workers", "1"],
     None,
     "822f914e66b79692324644abef6c27656153aec45b7bbb6d5c45fa01b883d887", None),
    # interval spaces
    (["decay", "--system", "tent", "--samples", "20000"],
     "3abd71c5849d616445cde990472da245d33a4f081c41055ac743b16bd3100cdf",
     "a5da25b3104e11611892d13c1ad6c1367eb33cf5c537af9ea0884e13b0a7f33a", None),
    (["verdict", "--system", "interval-square", "--measure", "pushforward:sqrt",
      "--samples", "20000"],
     "7fd04651fdad58cdc4618979cec42ccb49e2952d21011eaf606bb44031f8223b",
     "f827192cea3a043b4440278a3356287191a0ffb665f80d001feaee678979bcaf", None),
    (["battery", "--cases", "isometry,thD", "--workers", "1"],
     None,
     "194c552f78f085008565e78c5ce2687bbded6ef8621703f724de66f211c73c67", None),
    # --param with the gapped circle: the minimal measure is built
    # with the system's alpha, and with its N when the system is denjoy
    (["decay", "--system", "rotation", "--param", "alpha=0.4142135623730951",
      "--measure", "denjoy-minimal", "--samples", "20000"],
     "a1eef212cd6d9b696affa3c8d1e36a29fabc5b711833168a92279f24fff9b4b2",
     "dc568753c102d91faa20da51ee2486e79103a613752cf095681b5ad0dd3fc45d", None),
    (["verdict", "--system", "denjoy", "--measure", "denjoy-minimal", "--param", "N=16",
      "--param", "alpha=0.7182818284590451", "--samples", "20000"],
     "56048ce87d2e2c72c9c365ba6619bb1bd43b52aa04ef325c9e36bdd0eb74aa92",
     "0feb1f5c5d546afe90ceded6db5fef9df4ab3e4bc2648db0e82cf24a6f7a9b1a", None),
    # a center 0.001 below the end of the circle: its strip wraps, so a
    # one-center draw keeps rows from both ends of axis 0
    (["decay", "--x", "0.999", "--samples", "20000"],
     "36eeb97ad7fc7d529dcad0d372d281a6e3f8a4a07862a86a564615dcffe3a4f4",
     "ebda4a3bada4a72b9a32b025d7f5f7152a62440f1096358bd56fee1f173f1c72", None),
    # budgets that fill many draws or several shares: each one-center
    # decay below forks a second share when there is a second CPU, and its
    # draws merge into kernel blocks of at least 2^13 pairs
    (["decay", "--samples", "2000000"],
     "9ab2c9eee8bc9e276192cc36c35be0ee54914b2e7c9768bbf1c9675a1dd9f4cd",
     "41296c7b709dce43c83e3786182c24a3f4f570096b0cc821619f5e59f82c7700",
     _one_center_split),
    # its strip wraps, so the draws are cut by two ranges
    (["decay", "--x", "0.999", "--samples", "2000000"],
     "bddc23b57e313fe88835158050fea46098f7216ee9817093eb582ebd74402e21",
     "42cfa404784e306acd6e8cad8258202b1533d947e724e1e8e330505ed768046d",
     _one_center_split),
    # on the torus the strip's rows are cut again in the full metric
    (["decay", "--system", "cat", "--samples", "500000"],
     "e84449e07225e14cd1a07ff4657fb90086350522c14cc0daa6277417b95d02f4",
     "480fe1f9b429ab79f9f5e7b6eef441f54cde7687ddab9b4f2ac0dda51b9918dd",
     None),
    # a default generator and a cat-map verdict split their samples into a
    # share per CPU, two at least when there are two
    (["generator"],
     "3c56bd6eee01bbf2402be4442845b0bcc0af05d9eca040c6588d2bcc44974629",
     "354bed0e9b3d9999a1629ab3be7010cf44dc5ee32a8f75248c3654fe3a1458ee",
     _share_per_cpu),
    (["verdict", "--system", "cat"],
     "089d6926ad2649f507797fce977c29a5852b4aa93747046c4abaddca57017b5a",
     "1072e9cbc8a06df6e83a6bb9a9e6a6ce690c0497fab6ff936de769b1b0a7ae2b",
     _share_per_cpu),
    (["entropy", "--system", "cat", "--delta-grid", "0.2,0.1,0.05"],
     "3da8ad5e32d6efe398724393e0b27344f9214828431c26fef8d97a5d37a3241b",
     "ae5264fb6b6f0429fb482738541b70f6b98f6a6136b5b05c53ba0d502d63e031",
     None),
    # a default entropy's blocks are sized for about _PAIR_BLOCK window-1
    # pairs each, whatever the CPU count
    (["entropy"],
     "e332a5882e36de7579dacc4076a96661c7053efef67fd716888828ddd2e63412",
     "cb45ba2dd8c4a1e5fec313a62994ee1c72b7cd8b58f01c8b4e13e95189c57b1c",
     lambda meta, rows: 0 < meta["kernel_block_pairs"] <= 2 * _PAIR_BLOCK),
    # the cat map at the default grid: its delta 0.02 probes starve after a
    # window or two, and the slope fit must then stay wide rather than fit
    # the starved tail's equal counts to a 4e-6 band
    (["entropy", "--system", "cat"],
     "8607adf2d0a9e5b3617e6b25506579d72d4bac6814ddaf6c77e5693a42476aa6",
     "32d8eaaa269c486d40e198ea30b8d9eec7b0b55bdd636f21dcd7df8a2ad17ce5",
     lambda meta, rows: _width(rows, 0.02) > 0.05),
    # a one-sided decay whose counts halve each window
    (["decay", "--system", "doubling", "--delta", "0.02", "--nmax", "10", "--samples", "20000"],
     "c0fe535fdb85e5d329b9b4a36daf1cfa4fdee67476805e9f30945309e1fefd3e",
     "51b1ed97d2ec837f9a144872a35fb406dfa25015723064dc33725f357172623d",
     None),
], ids=_PINNED_IDS)
def test_artifact_bytes_pinned(tmp_path, argv, csv_sha, json_sha, expect):
    # digests re-recorded when a sample row became `dims` consecutive
    # doubles of the keyed stream and every estimator's batch took a
    # derived key, and the generator rows and the battery row holding pp0
    # when generator reports gained per-sequence Wilson bounds: speed and
    # simplicity work must leave every csv/json byte as it was
    assert run(argv + ["--seed", "7", "--out", str(tmp_path)]) == 0
    cmd = argv[0]
    if csv_sha is not None:
        assert hashlib.sha256((tmp_path / f"{cmd}.csv").read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256((tmp_path / f"{cmd}.json").read_bytes()).hexdigest() == json_sha
    if expect is not None:
        meta = json.loads((tmp_path / f"{cmd}.meta.json").read_text())
        # the expectations read "nproc", so it must be the affinity mask's
        # count: under `taskset -c 0` it is 1
        if hasattr(os, "sched_getaffinity"):
            assert meta["nproc"] == len(os.sched_getaffinity(0)), meta
        lines = (tmp_path / f"{cmd}.csv").read_text().splitlines()
        header, *body = (line.split(",") for line in lines if not line.startswith("#"))
        assert expect(meta, [dict(zip(header, row)) for row in body]), meta


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
    # each row carries its sequence's Wilson interval, not the estimate thrice
    lines = (tmp_path / "generator.csv").read_text().splitlines()
    assert lines[4] == "n,estimate,ci_low,ci_high"
    rows = [[float(v) for v in line.split(",")] for line in lines[5:]]
    assert len(rows) == 8
    assert all(lo <= est <= hi and lo < hi for _, est, lo, hi in rows)
    assert max(hi for *_, hi in rows) == payload["result"]["max_upper_ci"]


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
    # the echo holds the values the system was built with
    for argv, params in ((["--param", "alpha=1"], '{"alpha": 1.0}'),
                         (["--system", "denjoy", "--measure", "denjoy-minimal",
                           "--param", "N=1e2"], '{"N": 100}')):
        assert run(["decay", *argv, "--nmax", "2", "--samples", "200",
                    "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "decay.json").read_text())
        assert json.dumps(payload["config"]["system"]["params"]) == params


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


@pytest.mark.parametrize("argv", [["decay", "--samples", "1000", "--nmax", "2"],
                                  ["battery", "--cases", "thA"],
                                  ["generator", "--mc-samples", "1000", "--nmax", "2"],
                                  ["entropy", "--samples", "20000"]])
def test_meta_records_peak_rss_and_faults(tmp_path, argv):
    assert run(argv + ["--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / f"{argv[0]}.meta.json").read_text())
    assert meta["peak_rss_mb"] > 0
    assert isinstance(meta["minor_faults"], int) and meta["minor_faults"] > 0
    # a one-center decay and a 1000-sample generator take one share, and
    # the battery's consistency matrix runs verdicts on this thread
    assert meta["nproc"] == usable_cpus() >= 1
    shares = {"decay": {1}, "generator": {1}}.get(argv[0], range(1, meta["nproc"] + 1))
    assert meta["kernel_shares"] in shares
    assert "kernel_threads" not in meta
    # forked shares are children, whose peak is read apart
    assert meta["peak_rss_children_mb"] >= 0
    # 1000 samples near one center are ~100 pairs, and near 32 sequences'
    # first cover balls of radius 0.1 ~6400; an entropy block is sized for
    # about _PAIR_BLOCK of them whatever the CPU count
    pairs = meta["kernel_block_pairs"]
    assert isinstance(pairs, int)
    assert {"decay": 50 <= pairs <= 150, "generator": 4000 <= pairs <= 9000,
            "entropy": _PAIR_BLOCK / 2 <= pairs <= 2 * _PAIR_BLOCK,
            }.get(argv[0], pairs > 0), pairs


def test_usable_cpus_reads_affinity_mask(monkeypatch):
    # the affinity mask, not the machine's count, where the platform has one
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert usable_cpus() == 64


def test_meta_records_children_peak_rss(tmp_path, monkeypatch):
    # a verdict on two CPUs forks its second share, whose peak RSS is its
    # own and is read from the reaped children: a forked child's resident
    # set starts with the pages it shares with the caller, over 10 MiB with
    # numpy loaded; the bytes are the one share's
    argv = ["verdict", "--samples", "100000", "--nmax", "5"]
    for cpus in (2, 1):
        monkeypatch.setattr(expansiveness, "usable_cpus", lambda: cpus)
        assert run(argv + ["--out", str(tmp_path / str(cpus))]) == 0
        meta = json.loads((tmp_path / str(cpus) / "verdict.meta.json").read_text())
        assert meta["kernel_shares"] == cpus
        assert meta["peak_rss_children_mb"] > 10
    for name in ("verdict.csv", "verdict.json"):
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


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
    (["entropy", "--delta-grid", "0.1,nan"], "delta must be finite and positive, got nan"),
    (["generator", "--step", "0"], "step must be finite and positive"),
    (["generator", "--step", "-0.05"], "step must be finite and positive"),
    (["generator", "--step", "inf"], "step must be finite and positive"),
    (["generator", "--radius", "0"], "radius must be finite and positive"),
    (["generator", "--radius", "-0.1"], "radius must be finite and positive"),
    (["generator", "--radius", "nan"], "radius must be finite and positive"),
    (["decay", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["decay", "--seed", str(2 ** 64)], f"seed must be <= {2 ** 64 - 1}, got {2 ** 64}"),
    (["battery", "--workers", "0"], "workers must be >= 1"),
    (["battery", "--workers", "-3"], "workers must be >= 1"),
    (["generator", "--step", "1e-9"], "above the limit of 100000"),
    (["generator", "--system", "cat", "--step", "0.001"], "above the limit of 100000"),
    (["generator", "--step", "5e-324"], "above the limit of 100000"),
    (["decay", "--config", "samples = 1e400\n"],
     "samples must be an integer, got '1e400'"),
    (["decay", "--config", "nmax = 2.5\n"],
     "nmax must be an integer, got '2.5'"),
    (["generator", "--nmax", "-1"], "n_max must be >= 0, got -1"),
    (["generator", "--sequences", "0"], "sequence_samples must be >= 1, got 0"),
    (["generator", "--mc-samples", "0"], "need at least 100 samples, got 0"),
    (["generator", "--threshold", "0"], "threshold must lie in (0, 1), got 0.0"),
    (["decay", "--system", "interval-square", "--x", "1.5"],
     "coords (1.5,) outside interval bounds"),
    (["decay", "--system", "rotation", "--x", "nan"], "coords (nan,) must be finite"),
    (["decay", "--system", "rotation", "--x", "inf"], "coords (inf,) must be finite"),
    (["verdict", "--system", "rotation", "--measure", "dirac:nan"],
     "coords (nan,) must be finite"),
    (["generator", "--system", "identity", "--threshold", "inf"],
     "threshold must lie in (0, 1), got inf"),
    (["verdict", "--threshold", "1.5"], "threshold must lie in (0, 1), got 1.5"),
    (["verdict", "--threshold", "nan"], "threshold must lie in (0, 1), got nan"),
    (["decay", "--param", "alpha=nan"],
     "parameter alpha = nan for system 'rotation' is not a finite float"),
    (["verdict", "--param", "alpha=inf"],
     "parameter alpha = inf for system 'rotation' is not a finite float"),
    (["decay", "--system", "denjoy", "--param", "N=8.5"],
     "parameter N = 8.5 for system 'denjoy' is not a finite int"),
    (["decay", "--system", "denjoy", "--param", "N=100000000"],
     "N=100000000 too large; need N <= 10000"),
    # one sample floor for every data command
    (["decay", "--samples", "1"], "need at least 100 samples, got 1"),
    (["verdict", "--samples", "1"], "need at least 100 samples, got 1"),
    (["entropy", "--samples", "1"], "need at least 100 samples, got 1"),
    (["generator", "--mc-samples", "1"], "need at least 100 samples, got 1"),
    # a bad setting is named with its text, whatever its source
    (["decay", "--x", "0.3,abc"], "x must be comma-separated numbers, got '0.3,abc'"),
    (["entropy", "--delta-grid", "0.1,abc"],
     "argument --delta-grid: delta-grid must be comma-separated numbers, got '0.1,abc'"),
    (["verdict", "--measure", "dirac:0.2,abc"], "measure 'dirac:0.2,abc' needs"),
    (["decay", "--param", "alpha"], "param must be key=value, got 'alpha'"),
    (["decay", "--config", "x = 0.3,abc\n"], "x must be comma-separated numbers"),
    # one sample ceiling: a budget this large would only start an endless loop
    (["decay", "--samples", "1e30", "--nmax", "2"], "need at most 1000000000 samples"),
    (["verdict", "--samples", "1e30"], "need at most 1000000000 samples"),
    (["entropy", "--samples", "1e30"], "need at most 1000000000 samples"),
    (["generator", "--mc-samples", "1e30"], "need at most 1000000000 samples"),
    # window lengths and probe or sequence counts have ceilings too: each
    # of these used to allocate terabytes and exit 1 with a traceback
    (["decay", "--nmax", "1e12"], "n_max must be <= 1000, got 1000000000000"),
    (["verdict", "--nmax", "1001"], "n_max must be <= 1000, got 1001"),
    (["entropy", "--n-hi", "1e12"], "n_hi must be <= 1000, got 1000000000000"),
    (["verdict", "--x-probes", "1e12"], "x_probes must be <= 10000, got 1000000000000"),
    (["entropy", "--x-probes", "10001"], "x_probes must be <= 10000, got 10001"),
    (["generator", "--sequences", "1e12"],
     "sequence_samples must be <= 10000, got 1000000000000"),
    (["generator", "--nmax", "1e12"], "n_max must be <= 1000, got 1000000000000"),
    # integer settings are read exactly: no digit is rounded away
    (["decay", "--nmax", "2.0000000000000001"],
     "nmax must be an integer, got '2.0000000000000001'"),
    (["decay", "--samples", "1e30", "--nmax", "2"],
     "need at most 1000000000 samples, got 1000000000000000000000000000000"),
    (["decay", "--samples", "1e999999999"], "samples must be an integer, got '1e999999999'"),
    # the decay center used to be drawn on the circle and placed on the torus
    (["decay", "--system", "cat", "--measure", "denjoy-minimal"],
     "measure 'denjoy-minimal' lives on the circle, not on the torus2"),
    # a repeated radius used to pass the plateau check against itself
    (["entropy", "--delta-grid", "0.1,0.1"],
     "distinct radii in delta_grid must be >= 2, got 1"),
    (["entropy", "--delta-grid", "0.1,0.05,0.05"],
     "distinct radii in delta_grid must be >= 3, got 2"),
    # an empty case id used to give "unknown case ids: " and name nothing
    (["battery", "--cases", ","], "cases must be comma-separated case ids, got ','"),
    (["battery", "--cases", "thA,"], "cases must be comma-separated case ids, got 'thA,'"),
    # an int parameter is read exactly: this one used to run as N = 16
    (["decay", "--system", "denjoy", "--param", "N=16.0000000000000001"],
     "parameter N = 16.0000000000000001 for system 'denjoy' is not a finite int"),
    (["decay", "--seed", "2.5"], "seed must be an integer, got '2.5'"),
    # a probe empty at the first fitted window is named with its window
    (["entropy", "--n-lo", "11", "--n-hi", "14"],
     "no sample survived window 11 at delta=0.02 for 1 of 30 probes"),
    # a config line with no "=" is named as it was written
    (["decay", "--config", "nmax = 3\nsamples\n"], "config line needs key=value: 'samples'"),
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


def test_value_refused_in_the_library_words(tmp_path, capsys):
    # the CLI used to refuse nan as text, in words of its own
    with pytest.raises(ValueError) as exc:
        decay_series(make_rotation(), make_lebesgue(circle()), (0.3,), float("nan"))
    assert run(["decay", "--delta", "nan", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"usage error: {exc.value}\n"


def test_count_array_ceiling_from_cli(tmp_path, capsys):
    # a (1000, 10000, 1000) int64 count array is 74.5 GiB: it used to exit 1
    # with numpy's _ArrayMemoryError
    grid = ",".join(repr(0.1 + i * 1e-4) for i in range(1000))
    tracemalloc.start()
    try:
        code = run(["entropy", "--samples", "100", "--x-probes", "10000", "--n-hi", "1000",
                    "--delta-grid", grid, "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 8 * 2**20
    assert capsys.readouterr().err == ("usage error: cells in a (1000, 10000, 1000) count "
                                       "array must be <= 10000000, got 10000000000\n")
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


def test_int_setting_read_alike_from_flag_and_config(tmp_path):
    (tmp_path / "run.cfg").write_text("samples = 2e4\n")
    cfg = ["--config", str(tmp_path / "run.cfg")]
    outs = []
    for i, argv in enumerate((["--samples", "20000"], ["--samples", "2e4"], cfg,
                              cfg + ["--samples", "2e4"])):
        outs.append(tmp_path / str(i))
        assert run(["decay", "--nmax", "3", *argv, "--out", str(outs[-1])]) == 0
    for name in ("decay.csv", "decay.json"):
        assert len({(out / name).read_bytes() for out in outs}) == 1


def test_seed_precedence(tmp_path, monkeypatch, capsys):
    def seed(*argv, cfg=None):
        if cfg is not None:
            (tmp_path / "run.cfg").write_text(cfg)
            argv += ("--config", str(tmp_path / "run.cfg"))
        code = run(["decay", "--nmax", "2", "--samples", "200", *argv,
                    "--out", str(tmp_path)])
        if code != 0:
            return code, capsys.readouterr().err
        return code, json.loads((tmp_path / "decay.json").read_text())["seed"]

    assert seed() == (0, 7)
    monkeypatch.setenv("DYNBALL_SEED", "5")
    assert seed() == (0, 5)
    assert seed(cfg="seed = 4\n") == (0, 4)
    assert seed("--seed", "3", cfg="seed = 4\n") == (0, 3)
    bad = "seed must be an integer, got 'abc'"
    assert bad in seed(cfg="seed = abc\n")[1]
    monkeypatch.setenv("DYNBALL_SEED", "abc")
    code, err = seed()
    assert code == 2 and err.startswith("usage error: ") and bad in err
    assert seed("--seed", "3") == (0, 3)
    # a seed that parses meets the library's one seed rule, from any source
    monkeypatch.setenv("DYNBALL_SEED", "-1")
    assert seed() == (2, "usage error: seed must be >= 0, got -1\n")


def test_int_setting_read_exactly(tmp_path):
    # 2**53 + 1 is odd; read through float it became 2**53
    assert run(["decay", "--seed", "9007199254740993e0", "--samples", "1000",
                "--nmax", "2", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "decay.json").read_text())["seed"] == 9007199254740993
    assert "# seed: 9007199254740993\n" in (tmp_path / "decay.csv").read_text()


def test_config_key_not_taken_is_ignored(tmp_path):
    (tmp_path / "run.cfg").write_text("x = 0.5\nnmax = 3\n")
    assert run(["verdict", "--samples", "2000", "--config", str(tmp_path / "run.cfg"),
                "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "verdict.json").read_text())["config"]["nmax"] == 3


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
def test_unreadable_config_exit_code(tmp_path, capsys, kind):
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf-8":
        path.write_bytes(b"nmax = 3\nsystem = \xff\n")
    out = tmp_path / "out"
    assert run(["decay", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["decay", "--sided", "sideways"],
                                  ["decay", "--bogus", "1"],
                                  ["verdict", "--nmax"]])
def test_argparse_error_is_usage_error(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [["decay", "--nmax", "2", "--samples", "200"],
                                  ["battery", "--cases", "isometry"]])
def test_out_naming_a_file_exit_code(tmp_path, capsys, argv):
    out = tmp_path / "file"
    out.write_text("")
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and str(out) in err
