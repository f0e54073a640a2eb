import math
import re

import numpy as np
import pytest

from dynball import (CapabilityError, InsufficientSamplesError, bk_entropy,
                     entropy_implies_expansive_check, make_cat, make_denjoy,
                     make_doubling, make_identity, make_lebesgue, make_rotation,
                     make_tent, power_law_check, volume_expanding_check)
from dynball import measures
from dynball.entropy import fit_decay_slope


def test_fit_decay_slope_exact_halving():
    counts = np.array([64000, 32000, 16000, 8000, 4000, 2000, 1000])
    fit = fit_decay_slope(counts)
    assert fit.slope == pytest.approx(math.log(2.0), abs=1e-9)
    assert not fit.censored
    assert fit.n_used == 7  # all cells usable


def test_fit_decay_slope_constant_counts():
    fit = fit_decay_slope(np.array([500, 500, 500, 500]))
    assert fit.slope == 0.0
    assert fit.se >= 0.0


def test_fit_decay_slope_degenerate_inputs():
    with pytest.raises(InsufficientSamplesError):
        fit_decay_slope(np.array([0, 0, 0]))
    # a series dying immediately only supports a lower bound
    fit = fit_decay_slope(np.array([50, 0, 0, 0]))
    assert fit.censored
    assert fit.slope == pytest.approx(math.log(50.0))
    assert math.isnan(fit.se)
    # too few cells reach the count floor: the first increment alone is
    # fitted, not the starved tail's (1, 1), whose variance floor swamped
    # the fit (a cat-map probe at delta 0.02, seed 7)
    fit = fit_decay_slope(np.array([59, 18, 4, 1, 1, 0, 0, 0]))
    assert fit.censored and fit.n_used == 2
    assert fit.slope == pytest.approx(math.log(59 / 18))
    assert fit.se > 0.1


def test_fit_ignores_starved_tail():
    # the plateau at count 1 would otherwise flatten the fitted slope
    healthy = np.array([40000, 20000, 10000, 5000, 2500, 1, 1, 1])
    fit = fit_decay_slope(healthy)
    assert fit.slope == pytest.approx(math.log(2.0), abs=0.05)


def test_bk_entropy_identity_exact_zero():
    f = make_identity()
    est = bk_entropy(f, make_lebesgue(f.space), (0.1, 0.05), n_range=(1, 10),
                     x_probes=20, samples=10_000, seed=4)
    assert est.extrapolated_e == 0.0
    assert est.e_of_delta == (0.0, 0.0)


def test_bk_entropy_requires_enough_probes_and_radii():
    f = make_doubling()
    mu = make_lebesgue(f.space)
    with pytest.raises(ValueError):
        bk_entropy(f, mu, (0.1, 0.05), x_probes=5, samples=5_000)
    with pytest.raises(ValueError):
        bk_entropy(f, mu, (0.1,), x_probes=20, samples=5_000)


def test_bk_entropy_refuses_repeated_radii(monkeypatch):
    # the plateau check used to compare a radius with itself: converged=True
    def no_draws(*args, **kwargs):
        raise AssertionError("drew samples")
    monkeypatch.setattr(measures, "uniform_block", no_draws)
    f = make_doubling()
    mu = make_lebesgue(f.space)
    for grid, want, got in (((0.1, 0.1), 2, 1), ((0.1, 0.05, 0.05), 3, 2),
                            ((0.05, 0.1, 0.05), 3, 2)):
        with pytest.raises(ValueError,
                           match=f"^distinct radii in delta_grid must be >= {want}, got {got}$"):
            bk_entropy(f, mu, grid, x_probes=20, samples=5_000)


def test_bk_entropy_names_the_empty_window():
    # a probe with no survivors at window n_lo used to be reported as "no
    # sample survived the first window"; dropping it instead fits flat
    # tails of a few survivors and reads a rate near 0 for the doubling map
    f = make_doubling()
    message = ("no sample survived window 14 at delta=0.1 for 5 of 30 probes; "
               "radius too small or n_lo too large for the budget")
    with pytest.raises(InsufficientSamplesError, match=f"^{re.escape(message)}$"):
        bk_entropy(f, make_lebesgue(f.space), (0.1, 0.05, 0.02), n_range=(14, 20), seed=7)


def test_bk_entropy_seed_stability():
    f = make_doubling()
    mu = make_lebesgue(f.space)
    a = bk_entropy(f, mu, (0.1, 0.05), n_range=(1, 12), x_probes=20,
                   samples=30_000, seed=1)
    b = bk_entropy(f, mu, (0.1, 0.05), n_range=(1, 12), x_probes=20,
                   samples=30_000, seed=2)
    tol = 2 * (a.extrapolated_se + b.extrapolated_se) + 0.02
    assert abs(a.extrapolated_e - b.extrapolated_e) <= tol
    # rerun with the same seed reproduces bytes
    a2 = bk_entropy(f, mu, (0.1, 0.05), n_range=(1, 12), x_probes=20,
                    samples=30_000, seed=1)
    assert a.e_of_delta == a2.e_of_delta


def test_bk_entropy_rate_grows_as_radius_shrinks():
    f = make_doubling()
    mu = make_lebesgue(f.space)
    est = bk_entropy(f, mu, (0.2, 0.05), n_range=(1, 12), x_probes=20,
                     samples=50_000, seed=6)
    big, small = est.e_of_delta  # grid is stored largest radius first
    slack = 2 * (est.se_of_delta[0] + est.se_of_delta[1])
    assert small >= big - slack


def test_power_law_scaling():
    f = make_doubling()
    mu = make_lebesgue(f.space)
    rep = power_law_check(f, mu, 2, (0.1, 0.05), n_range=(1, 10), x_probes=20,
                          samples=50_000, seed=8)
    assert rep.holds
    assert abs(rep.e_power - 2 * rep.e_base) <= rep.tolerance
    with pytest.raises(ValueError):
        power_law_check(f, mu, 5, (0.1, 0.05), n_range=(1, 10), x_probes=20,
                        samples=5_000, seed=8)


def test_entropy_implies_expansive_rows():
    f = make_doubling()
    mu = make_lebesgue(f.space)
    rep = entropy_implies_expansive_check(f, mu, (0.1, 0.05), n_range=(1, 12),
                                          x_probes=20, samples=30_000, seed=9)
    assert rep.holds and not rep.vacuous
    r = make_rotation()
    rep0 = entropy_implies_expansive_check(r, make_lebesgue(r.space), (0.1, 0.05),
                                           n_range=(1, 12), x_probes=20,
                                           samples=30_000, seed=9)
    assert rep0.holds and rep0.vacuous  # zero rate everywhere: nothing to check


def test_volume_expanding_detection():
    assert volume_expanding_check(make_doubling(), seed=1).detected
    assert volume_expanding_check(make_tent(), seed=1).detected
    assert not volume_expanding_check(make_rotation(), seed=1).detected
    assert not volume_expanding_check(make_cat(), seed=1).detected  # det 1
    rep = volume_expanding_check(make_doubling(), horizon=8, probes=50, seed=1)
    assert rep.lambda_est == pytest.approx(2.0)
    with pytest.raises(CapabilityError):
        volume_expanding_check(make_denjoy(), seed=1)  # no derivative data
