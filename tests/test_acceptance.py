"""Acceptance battery: one test per numbered criterion.

Each test prints one line with the measured values, the tolerance it was
held to, and its wall-clock runtime; pytest -v adds the pass/fail word.
Budgets are fixed; a failure here means the estimators drifted, not that
the claim is negotiable.
"""
import math
import time

import numpy as np
import pytest

import dynball as db
from dynball.cli import main as cli_main
from dynball.rng import derive_seed

LOG2 = math.log(2.0)
CAT_RATE = math.log((3.0 + math.sqrt(5.0)) / 2.0)  # ~0.9624


def _report(n, detail, tol, t0):
    print(f"criterion {n}: PASS - {detail}; tolerance {tol}; "
          f"runtime {time.perf_counter() - t0:.1f}s")


@pytest.fixture(scope="module")
def entropy_doubling():
    f = db.make_doubling()
    return db.bk_entropy(f, db.make_lebesgue(f.space), (0.1, 0.05, 0.02),
                         n_range=(1, 14), x_probes=30, samples=100_000, seed=7)


@pytest.fixture(scope="module")
def entropy_cat():
    f = db.make_cat()
    return db.bk_entropy(f, db.make_lebesgue(f.space), (0.2, 0.1, 0.05),
                         n_range=(1, 14), x_probes=30, samples=100_000, seed=7)


def test_criterion_01_isometry_flat_decay():
    t0 = time.perf_counter()
    f = db.make_rotation()
    mu = db.make_lebesgue(f.space)
    s = db.decay_series(f, mu, (0.123456789,), 0.05, n_max=20,
                        samples=100_000, seed=7)
    assert all(0.09 <= e <= 0.11 for e in s.estimate)
    v = db.expansiveness_verdict(f, mu, 0.05, n_max=20, samples=100_000,
                                 x_probes=20, seed=7)
    assert v.verdict == "evidence_not_expansive"
    _report(1, f"rotation estimates in [{min(s.estimate):.4f}, "
               f"{max(s.estimate):.4f}], verdict {v.verdict}",
            "all estimates in [0.09, 0.11] (analytic 0.10)", t0)


def test_criterion_02_doubling_decay_law():
    t0 = time.perf_counter()
    f = db.make_doubling()
    mu = db.make_lebesgue(f.space)
    worst = 0.0
    for x in (1.0 / 3.0, 0.1):
        s = db.decay_series(f, mu, (x,), 0.01, n_max=8, samples=100_000, seed=7)
        for n, est, lo, hi in zip(s.n, s.estimate, s.ci_low, s.ci_high):
            law = 0.02 * 2.0 ** (-(n - 1))
            hw = (hi - lo) / 2.0
            assert abs(est - law) <= 3 * hw + 1e-12
            worst = max(worst, abs(est - law) / max(hw, 1e-12))
    _report(2, f"max |estimate-law| = {worst:.2f} CI half-widths at x in "
               "{1/3, 0.1}, n <= 8",
            "3 Wilson half-widths around 0.02*2^-(n-1)", t0)


def test_criterion_03_entropy_benchmarks(entropy_doubling, entropy_cat):
    t0 = time.perf_counter()
    ed, ec = entropy_doubling, entropy_cat
    assert 0.64 <= ed.extrapolated_e <= 0.75
    assert 0.86 <= ec.extrapolated_e <= 1.06
    f = db.make_identity()
    ei = db.bk_entropy(f, db.make_lebesgue(f.space), (0.1, 0.05),
                       n_range=(1, 10), x_probes=20, samples=20_000, seed=7)
    assert ei.extrapolated_e == 0.0
    _report(3, f"doubling {ed.extrapolated_e:.4f}, cat {ec.extrapolated_e:.4f}, "
               "identity 0.0 exactly",
            "doubling in [0.64, 0.75], cat in [0.86, 1.06], identity == 0", t0)


def test_criterion_04_variational_upper_bound(entropy_doubling, entropy_cat):
    t0 = time.perf_counter()
    assert entropy_doubling.extrapolated_e <= LOG2 + 0.05
    assert entropy_cat.extrapolated_e <= CAT_RATE + 0.10
    _report(4, f"doubling {entropy_doubling.extrapolated_e:.4f} <= "
               f"{LOG2 + 0.05:.4f}, cat {entropy_cat.extrapolated_e:.4f} <= "
               f"{CAT_RATE + 0.10:.4f}",
            "rate bounded by the map's growth exponent plus margin", t0)


def test_criterion_05_power_laws():
    t0 = time.perf_counter()
    f = db.make_doubling()
    mu = db.make_lebesgue(f.space)
    rep = db.power_law_check(f, mu, 2, (0.1, 0.05), n_range=(1, 10),
                             x_probes=20, samples=50_000, seed=7)
    assert rep.holds
    residual = abs(rep.e_power - 2 * rep.e_base)
    for g in db.make_zoo():
        nu = db.make_lebesgue(g.space)
        agree = db.power_consistency_check(g, nu, 2, (0.1, 0.05), n_max=12,
                                           samples=20_000,
                                           seed=derive_seed(7, "acc5", g.name))
        assert agree.consistent, g.name
    _report(5, f"|e(f^2) - 2 e(f)| = {residual:.4f} <= {rep.tolerance:.4f}; "
               "f vs f^2 verdicts agree on all 7 zoo systems",
            "2 fitted SEs + 0.05; no verdict contradiction", t0)


def test_criterion_06_interval_impossibility():
    t0 = time.perf_counter()
    f = db.make_interval_square()
    leb = db.make_lebesgue(f.space)
    measures = [leb, db.pushforward(leb, np.square, name="pushforward:square"),
                db.pushforward(leb, np.sqrt, name="pushforward:sqrt")]
    for mu in measures:
        for delta in (0.2, 0.1, 0.05):
            v = db.expansiveness_verdict(f, mu, delta, n_max=20, samples=30_000,
                                         x_probes=20,
                                         seed=derive_seed(7, mu.name, repr(delta)))
            assert v.verdict == "evidence_not_expansive", (mu.name, delta)
    _report(6, "x->x^2 evidence_not_expansive for 3 measures x 3 radii",
            "witness lower CI >= 0.01 in every cell", t0)


def test_criterion_07_circle_classification(denjoy_c):
    t0 = time.perf_counter()
    f = db.make_denjoy()
    nu = db.make_denjoy_minimal()
    delta = denjoy_c.smallest_gap / 2.0
    # the eighth gap endpoint in circle order
    x = np.sort(np.concatenate([denjoy_c.left_endpoints, denjoy_c.right_endpoints]))[7]
    s = db.decay_series(f, nu, (float(x),), delta,
                        n_max=30, samples=100_000, seed=7)
    assert s.terminal < 0.05
    v = db.expansiveness_verdict(f, nu, delta, n_max=30, samples=100_000,
                                 x_probes=20, seed=7)
    assert v.verdict == "evidence_expansive"
    rot = db.make_rotation()
    for mu in (db.make_lebesgue(rot.space), nu):
        w = db.expansiveness_verdict(rot, mu, 0.05, n_max=30, samples=100_000,
                                     x_probes=20, seed=derive_seed(7, mu.name))
        assert w.verdict == "evidence_not_expansive", mu.name
    _report(7, f"gapped map terminal {s.terminal:.4f} < 0.05 at delta="
               f"{delta:.2e}, verdict evidence_expansive; rotation "
               "evidence_not_expansive under both measures",
            "decay < 0.05 by n=30; witness CIs for the rotation", t0)


def test_criterion_08_diagonal_fubini():
    t0 = time.perf_counter()
    names = []
    for make in (db.make_doubling, db.make_rotation, db.make_cat):
        f = make()
        rep = db.product_diagonal_test(f, db.make_lebesgue(f.space), 0.05,
                                       n_max=12, pair_samples=100_000,
                                       seed=derive_seed(7, "acc8", f.name))
        assert rep.agree, f.name
        names.append(f.name)
    _report(8, f"pair-sample terminal inside the probe-averaged 95% band "
               f"for {', '.join(names)}",
            "joined Wilson CIs overlap at n_max=12", t0)


def test_criterion_09_generator_equivalence():
    t0 = time.perf_counter()
    sp = db.circle()
    mu = db.make_lebesgue(sp)
    cover = db.make_ball_cover(sp, radius=0.1, step=0.05)
    g = db.generator_check(db.make_doubling(), mu, cover, n_max=10,
                           sequence_samples=32, mc_samples=100_000,
                           seed=derive_seed(7, "acc9", "doubling"))
    assert g.is_generator_evidence
    assert g.max_intersection_estimate <= 0.01
    h = db.generator_check(db.make_identity(sp), mu, cover, n_max=10,
                           sequence_samples=32, mc_samples=100_000,
                           seed=derive_seed(7, "acc9", "identity"))
    assert not h.is_generator_evidence
    assert h.max_intersection_estimate >= 0.2 - 0.01  # ball mass minus CI slack
    _report(9, f"doubling max intersection {g.max_intersection_estimate:.5f} "
               f"<= 0.01; identity keeps {h.max_intersection_estimate:.4f} "
               ">= 0.19",
            "adversarial + random sequences, radius-0.1 cover", t0)


def test_criterion_10_periodic_mass():
    t0 = time.perf_counter()
    cat = db.periodic_fraction(db.make_cat(), db.make_lebesgue(db.torus2()),
                               max_period=6, eps=1e-4, samples=100_000, seed=7)
    assert cat.fraction <= 1e-3
    ident = db.periodic_fraction(db.make_identity(), db.make_lebesgue(db.circle()),
                                 max_period=6, eps=1e-4, samples=20_000, seed=7)
    assert ident.fraction == 1.0
    _report(10, f"cat near-periodic fraction {cat.fraction:.2e} <= 1e-3; "
                "identity fraction 1.0",
            "period <= 6, eps = 1e-4", t0)


def test_criterion_11_converging_semiorbits():
    t0 = time.perf_counter()
    sq = db.converging_semiorbit_fraction(db.make_interval_square(),
                                          db.make_lebesgue(db.interval()),
                                          w=8, tol=1e-6, n_max=40,
                                          samples=20_000, seed=7)
    assert sq.fraction >= 0.99
    rot = db.converging_semiorbit_fraction(db.make_rotation(),
                                           db.make_lebesgue(db.circle()),
                                           w=8, tol=1e-6, n_max=40,
                                           samples=20_000, seed=7)
    assert rot.fraction == 0.0
    # no system with expansive evidence may carry real mass here
    cat = db.converging_semiorbit_fraction(db.make_cat(),
                                           db.make_lebesgue(db.torus2()),
                                           w=8, tol=1e-6, n_max=40,
                                           samples=20_000, seed=7)
    den = db.converging_semiorbit_fraction(db.make_denjoy(),
                                           db.make_denjoy_minimal(),
                                           w=8, tol=1e-6, n_max=40,
                                           samples=20_000, seed=7)
    assert cat.ci_low <= 0.01 and den.ci_low <= 0.01
    _report(11, f"x->x^2 fraction {sq.fraction:.4f} >= 0.99; rotation 0.0; "
                f"expansive systems bounded (cat lower CI {cat.ci_low:.4f}, "
                f"gapped map lower CI {den.ci_low:.4f})",
            "two-sided tails within 1e-6 over an 8-step tail window", t0)


def test_criterion_12_entropy_implies_expansive():
    t0 = time.perf_counter()
    grids = {"doubling": (0.1, 0.05, 0.02), "tent": (0.1, 0.05, 0.02),
             "cat": (0.2, 0.1, 0.05), "rotation": (0.1, 0.05),
             "identity": (0.1, 0.05)}
    positive, vacuous = [], []
    for make in (db.make_doubling, db.make_tent, db.make_cat,
                 db.make_rotation, db.make_identity):
        f = make()
        rep = db.entropy_implies_expansive_check(
            f, db.make_lebesgue(f.space), grids[f.name], n_range=(1, 12),
            x_probes=20, samples=30_000, seed=derive_seed(7, "acc12", f.name))
        assert rep.holds, f.name
        (vacuous if rep.vacuous else positive).append(f.name)
    assert set(positive) == {"doubling", "tent", "cat"}
    _report(12, f"positive-rate systems {positive} never read "
                f"evidence_not_expansive; zero-rate systems {vacuous} vacuous",
            "rate lower CI > 0 forces a non-witness verdict at that radius", t0)


def test_criterion_13_volume_expanding():
    t0 = time.perf_counter()
    lam = {}
    for make in (db.make_doubling, db.make_tent, db.make_rotation):
        f = make()
        rep = db.volume_expanding_check(f, horizon=10, probes=100,
                                        seed=derive_seed(7, "acc13", f.name))
        lam[f.name] = (rep.detected, rep.lambda_est)
        if rep.detected:
            v = db.expansiveness_verdict(f, db.make_lebesgue(f.space), 0.02,
                                         n_max=20, samples=30_000, x_probes=20,
                                         seed=derive_seed(7, "acc13v", f.name),
                                         sided="one_sided")
            assert v.verdict != "evidence_not_expansive", f.name
    assert lam["doubling"][0] and lam["doubling"][1] >= 1.9
    assert lam["tent"][0] and lam["tent"][1] >= 1.9
    assert not lam["rotation"][0]
    _report(13, f"doubling lambda {lam['doubling'][1]:.2f}, tent "
                f"{lam['tent'][1]:.2f} detected; rotation not; detected maps "
                "not evidence_not_expansive",
            "lambda_est >= 1.9 with detection margin 1.05", t0)


def test_criterion_14_reproducibility(tmp_path):
    t0 = time.perf_counter()
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert cli_main(["battery", "--seed", "7", "--workers", "1",
                     "--out", str(out1)]) == 0
    assert cli_main(["battery", "--seed", "7", "--workers", "8",
                     "--out", str(out8)]) == 0
    assert (out1 / "battery.json").read_bytes() == (out8 / "battery.json").read_bytes()
    assert (out1 / "battery.md").read_bytes() == (out8 / "battery.md").read_bytes()
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0  # both full runs inside the 10-minute budget
    _report(14, "battery reports byte-identical for 1 and 8 workers, "
                f"two full runs in {elapsed:.0f}s",
            "byte equality; < 600 s", t0)
