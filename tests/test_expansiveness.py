import tracemalloc

import numpy as np
import pytest

from dynball import (CapabilityError, Point, SpaceMismatchError, circle,
                     converging_semiorbit_fraction, decay_series, distance,
                     dyn_ball_contains, expansiveness_verdict, generator_check,
                     interval, make_ball_cover, make_cat, make_denjoy,
                     make_denjoy_minimal, make_dirac, make_doubling, make_identity,
                     make_interval_square, make_lebesgue, make_rotation, make_tent,
                     periodic_fraction, power_consistency_check,
                     product_diagonal_test, torus2)
from dynball import expansiveness
from dynball.expansiveness import resolve_sided, survival_counts


def test_resolve_sided():
    assert resolve_sided(make_doubling(), None) == "one_sided"
    assert resolve_sided(make_cat(), None) == "two_sided"
    assert resolve_sided(make_cat(), "one") == "one_sided"
    assert resolve_sided(make_cat(), "two_sided") == "two_sided"
    with pytest.raises(CapabilityError):
        resolve_sided(make_doubling(), "two")
    with pytest.raises(ValueError):
        resolve_sided(make_cat(), "diagonal")


def test_counts_nonincreasing_in_n():
    # windows nest, so survivor counts from a fixed batch never increase
    for f, sided in ((make_doubling(), "one_sided"), (make_cat(), "two_sided"),
                     (make_rotation(), "two_sided")):
        mu = make_lebesgue(f.space)
        centers = mu.sample_coords(seed=32, count=5)
        counts = survival_counts(f, mu, 31, 4000, centers, [0.1, 0.05], sided, 12)
        assert counts.shape == (2, 5, 12)
        assert np.all(np.diff(counts, axis=2) <= 0)
        # smaller radius means fewer survivors at every n
        assert np.all(counts[1] <= counts[0])


def _dense_counts(f, batch, centers, deltas, sided, n_max):
    """Reference kernel: a full (D, P, S) alive mask, every pair at every step."""
    deltas = np.asarray(deltas, dtype=float)[:, None, None]
    alive = np.ones((len(deltas), len(centers), len(batch)), dtype=bool)
    counts = np.empty(alive.shape[:2] + (n_max,), dtype=np.int64)
    xf = xb = centers
    yf = yb = batch
    for n in range(n_max):
        alive &= distance(f.space, xf[:, None], yf[None]) <= deltas
        if sided == "two_sided":
            xb, yb = f.inverse(xb), f.inverse(yb)
            alive &= distance(f.space, xb[:, None], yb[None]) <= deltas
        counts[:, :, n] = alive.sum(axis=2)
        xf, yf = f.forward(xf), f.forward(yf)
    return counts


_KERNEL_CASES = [
    (make_rotation, None, "one_sided"), (make_rotation, None, "two_sided"),
    (make_doubling, None, "one_sided"),
    (make_cat, None, "one_sided"), (make_cat, None, "two_sided"),
    (make_tent, None, "one_sided"),
    (make_denjoy, make_denjoy_minimal, "one_sided"),
    (make_denjoy, make_denjoy_minimal, "two_sided"),
]


@pytest.mark.parametrize("make_f, make_mu, sided", _KERNEL_CASES)
def test_kernel_matches_dense_reference(denjoy_c, make_f, make_mu, sided):
    f = make_f(denjoy_c) if make_mu else make_f()
    mu = make_mu(denjoy_c) if make_mu else make_lebesgue(f.space)
    centers = mu.sample_coords(seed=42, count=6)
    deltas = [0.1, 0.02, 0.3, 0.05]  # unsorted on purpose
    want = _dense_counts(f, mu.sample_coords(41, 3000), centers, deltas, sided, 15)
    assert want[:, :, 0].any()
    assert np.array_equal(survival_counts(f, mu, 41, 3000, centers, deltas, sided, 15),
                          want)
    for samples, c in ((1, centers), (3000, centers[:1]), (0, centers)):
        got = survival_counts(f, mu, 41, samples, c, deltas, sided, 15)
        batch = mu.sample_coords(41, samples)
        assert np.array_equal(got, _dense_counts(f, batch, c, deltas, sided, 15))


def test_kernel_counts_independent_of_block_size(monkeypatch):
    rng = np.random.default_rng(43)
    for f, sided in ((make_rotation(), "two_sided"), (make_doubling(), "one_sided"),
                     (make_cat(), "two_sided")):
        mu = make_lebesgue(f.space)
        centers = mu.sample_coords(seed=45, count=4)
        monkeypatch.undo()  # the reference runs at the module's own block size
        want = survival_counts(f, mu, 44, 2000, centers, [0.05, 0.2], sided, 12)
        for block in (1, 7, 1999, 2000, 2001, *rng.integers(2, 1000, size=3)):
            monkeypatch.setattr(expansiveness, "_BLOCK", int(block))
            got = survival_counts(f, mu, 44, 2000, centers, [0.05, 0.2], sided, 12)
            assert np.array_equal(got, want), (f.name, block)


def _traced_peak(call):
    """(result, tracemalloc peak in bytes) of call()."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_memory_bounded_in_batch_size():
    # one center, 2M samples drawn inside the call: the batch alone would be
    # 16 MB, and a dense step's distance row and inverse image another 32 MB
    f, mu = make_rotation(), make_lebesgue(circle())
    counts, peak = _traced_peak(lambda: survival_counts(
        f, mu, 46, 2_000_000, np.array([[0.3]]), [0.05], "two_sided", 20))
    assert 0.09 <= counts[0, 0, -1] / 2_000_000 <= 0.11
    assert peak < 32 * 2 ** 20


def test_decay_series_memory_bounded_in_samples():
    # the whole estimator at 2M samples: a whole-batch draw alone is 16 MB
    f, mu = make_rotation(), make_lebesgue(circle())
    s, peak = _traced_peak(lambda: decay_series(f, mu, (0.3,), 0.05, n_max=20,
                                                samples=2_000_000, seed=46))
    assert 0.09 <= s.terminal <= 0.11
    assert peak < 8 * 2 ** 20


def test_isometry_series_is_flat():
    for f in (make_rotation(), make_identity()):
        mu = make_lebesgue(f.space)
        s = decay_series(f, mu, (0.37,), 0.05, n_max=15, samples=20_000, seed=5)
        assert len(set(s.counts)) == 1  # same survivors at every window length
        assert 0.08 <= s.terminal <= 0.12


def test_doubling_halving_law():
    f = make_doubling()
    mu = make_lebesgue(f.space)
    s = decay_series(f, mu, (0.1,), 0.01, n_max=8, samples=100_000, seed=2)
    for n, est, lo, hi in zip(s.n, s.estimate, s.ci_low, s.ci_high):
        law = 0.02 * 2.0 ** (-(n - 1))
        assert abs(est - law) <= 3 * (hi - lo) / 2 + 1e-9


def test_decay_series_seed_behavior():
    f = make_cat()
    mu = make_lebesgue(f.space)
    a = decay_series(f, mu, (0.2, 0.7), 0.1, n_max=10, samples=10_000, seed=1)
    b = decay_series(f, mu, (0.2, 0.7), 0.1, n_max=10, samples=10_000, seed=1)
    assert a.counts == b.counts
    c = decay_series(f, mu, (0.2, 0.7), 0.1, n_max=10, samples=10_000, seed=2)
    assert a.counts != c.counts  # different stream, same law
    assert abs(a.estimate[0] - c.estimate[0]) < 0.02


def test_dyn_ball_contains_hand_example():
    f = make_doubling()
    y = np.array([[0.304]])
    assert dyn_ball_contains(f, (0.3,), y, 0.01, 2, sided="one_sided")[0]
    # 8*0.004 > 0.01 at i=2
    assert not dyn_ball_contains(f, (0.3,), y, 0.01, 3, sided="one_sided")[0]
    # separation doubles past delta already at i=1
    third = (1.0 / 3.0,)
    assert not dyn_ball_contains(f, third, (1.0 / 3.0 + 0.04,), 0.05, 2,
                                 sided="one_sided")
    assert dyn_ball_contains(f, third, third, 0.05, 2, sided="one_sided")
    # an isometry never separates points that start together
    assert dyn_ball_contains(make_rotation(), (0.2,), (0.24,), 0.05, 40)


def test_dyn_ball_contains_default_sided():
    # a non-invertible map gets one-sided windows by default, as in every
    # other estimator; two-sided ones must be asked for and are refused
    f = make_doubling()
    assert dyn_ball_contains(f, (0.2,), (0.21,), 0.05, 3)
    assert not dyn_ball_contains(f, (0.2,), (0.21,), 0.05, 4)  # 8*0.01 > 0.05
    with pytest.raises(CapabilityError):
        dyn_ball_contains(f, (0.2,), (0.21,), 0.05, 3, sided="two")
    for delta, n in ((0.0, 2), (-0.1, 2), (0.05, 0)):
        with pytest.raises(ValueError, match="need delta > 0 and n >= 1"):
            dyn_ball_contains(make_rotation(), (0.2,), (0.21,), delta, n)


def test_dyn_ball_contains_rejects_raw_center_off_space():
    f = make_interval_square()
    for x in ((1.5,), (0.2, 0.3)):
        with pytest.raises(SpaceMismatchError):
            dyn_ball_contains(f, x, (0.5,), 0.05, 2, sided="one_sided")


def test_verdict_trichotomy():
    mu = make_lebesgue(circle())
    v = expansiveness_verdict(make_doubling(), mu, 0.05, n_max=20,
                              samples=20_000, x_probes=20, seed=3)
    assert v.verdict == "evidence_expansive"
    assert v.worst_upper_bound <= 0.01
    w = expansiveness_verdict(make_rotation(), mu, 0.05, n_max=20,
                              samples=20_000, x_probes=20, seed=3)
    assert w.verdict == "evidence_not_expansive"
    assert w.witness is not None and w.witness_lower_bound >= 0.01
    # atom: the window keeps full mass at the atom itself
    d = make_dirac(Point(circle(), (0.25,)))
    u = expansiveness_verdict(make_rotation(), d, 0.05, n_max=10,
                              samples=1_000, x_probes=20, seed=3)
    assert u.verdict == "evidence_not_expansive"
    assert u.witness_lower_bound > 0.9


def test_verdict_inconclusive_when_threshold_unreachable():
    # with a tiny window budget the doubling map cannot decay below the
    # threshold, and the per-probe mass stays above it: witness found
    mu = make_lebesgue(circle())
    v = expansiveness_verdict(make_doubling(), mu, 0.3, n_max=2,
                              samples=5_000, x_probes=20, seed=4)
    assert v.verdict in ("evidence_not_expansive", "inconclusive")


def test_verdict_threshold_monotone():
    mu = make_lebesgue(circle())
    lo = expansiveness_verdict(make_doubling(), mu, 0.05, n_max=20,
                               samples=20_000, x_probes=20, seed=6, threshold=0.005)
    hi = expansiveness_verdict(make_doubling(), mu, 0.05, n_max=20,
                               samples=20_000, x_probes=20, seed=6, threshold=0.05)
    if lo.verdict == "evidence_expansive":
        assert hi.verdict == "evidence_expansive"


def test_verdict_monotone_in_delta():
    # shrinking delta can only move a verdict toward expansive, never away
    mu = make_lebesgue(circle())
    wide = expansiveness_verdict(make_doubling(), mu, 0.05, n_max=25,
                                 samples=20_000, x_probes=20, seed=5)
    narrow = expansiveness_verdict(make_doubling(), mu, 0.02, n_max=25,
                                   samples=20_000, x_probes=20, seed=5)
    assert wide.verdict == "evidence_expansive"
    assert narrow.verdict != "evidence_not_expansive"


def test_isometry_ball_identity_random_trials():
    # for an isometry, window membership at any n reduces to the plain ball test
    rot = make_rotation()
    ys = make_lebesgue(circle()).sample_coords(seed=31, count=1000)
    x = Point(circle(), (0.37,))
    plain = distance(circle(), ys, x.array) <= 0.08
    assert plain.any() and not plain.all()
    for n in (1, 6, 25):
        assert np.array_equal(dyn_ball_contains(rot, x, ys, 0.08, n), plain)


def test_power_consistency():
    mu = make_lebesgue(circle())
    rep = power_consistency_check(make_doubling(), mu, 2, (0.1, 0.05),
                                  n_max=14, samples=15_000, seed=9)
    assert rep.consistent
    assert rep.verdicts_base == rep.verdicts_power
    rep3 = power_consistency_check(make_rotation(), mu, 3, (0.1, 0.05),
                                   n_max=14, samples=15_000, seed=9)
    assert rep3.consistent


def test_diagonal_fubini_agreement():
    for f in (make_doubling(), make_rotation(), make_cat()):
        mu = make_lebesgue(f.space)
        rep = product_diagonal_test(f, mu, 0.05, n_max=10, pair_samples=40_000,
                                    seed=12)
        assert rep.agree
    r = product_diagonal_test(make_rotation(), make_lebesgue(circle()), 0.05,
                              n_max=10, pair_samples=40_000, seed=12)
    assert 0.08 <= r.pair_series.terminal <= 0.12  # pair distance <= delta has mass 2*delta


def test_generator_check_positive_and_negative():
    sp = circle()
    mu = make_lebesgue(sp)
    cover = make_ball_cover(sp, radius=0.1, step=0.05)
    g = generator_check(make_doubling(), mu, cover, n_max=10,
                        sequence_samples=16, mc_samples=30_000, seed=14)
    assert g.is_generator_evidence
    assert g.max_upper_ci <= 0.01
    h = generator_check(make_identity(sp), mu, cover, n_max=10,
                        sequence_samples=16, mc_samples=30_000, seed=14)
    assert not h.is_generator_evidence
    assert h.max_intersection_estimate >= 0.15  # a repeated element keeps its mass


def test_generator_check_rejects_measure_or_cover_off_space():
    with pytest.raises(SpaceMismatchError):
        generator_check(make_cat(), make_lebesgue(circle()),
                        make_ball_cover(torus2(), radius=0.3, step=0.2))
    with pytest.raises(SpaceMismatchError):
        generator_check(make_cat(), make_lebesgue(torus2()),
                        make_ball_cover(circle(), radius=0.3, step=0.2))


def test_generator_counts_independent_of_block_size(denjoy_c, monkeypatch):
    for f, mu, sided in ((make_doubling(), make_lebesgue(circle()), None),
                         (make_rotation(), make_lebesgue(circle()), "two_sided"),
                         (make_cat(), make_lebesgue(torus2()), None),
                         (make_denjoy(denjoy_c), make_denjoy_minimal(denjoy_c), None)):
        monkeypatch.undo()  # the reference runs at the module's own block size
        cover = make_ball_cover(f.space, radius=0.3, step=0.2)
        kw = dict(n_max=2, sequence_samples=6, mc_samples=2000, seed=47, sided=sided)
        want = generator_check(f, mu, cover, **kw)
        assert max(want.per_sequence) > 0
        for block in (1, 7, 1999, 2000, 2001):
            monkeypatch.setattr(expansiveness, "_BLOCK", block)
            assert generator_check(f, mu, cover, **kw) == want, (f.name, block)


def test_generator_memory_bounded_in_batch_size():
    # 1M samples: a dense (sequences, mc_samples) mask with whole-batch
    # (cover elements, mc_samples) distances would peak near 550 MiB
    f, mu = make_rotation(), make_lebesgue(circle())
    cover = make_ball_cover(circle(), radius=0.1, step=0.05)
    g, peak = _traced_peak(lambda: generator_check(f, mu, cover, n_max=3,
                                                   mc_samples=1_000_000, seed=48))
    assert g.max_intersection_estimate >= 0.15  # an isometry keeps its mass
    assert peak < 64 * 2 ** 20


def test_converging_semiorbit_fractions():
    sq = converging_semiorbit_fraction(make_interval_square(), make_lebesgue(interval()),
                                       w=8, tol=1e-6, n_max=40, samples=5_000, seed=15)
    assert sq.fraction >= 0.99
    rot = converging_semiorbit_fraction(make_rotation(), make_lebesgue(circle()),
                                        w=8, tol=1e-6, n_max=40, samples=5_000, seed=15)
    assert rot.fraction == 0.0
    ident = converging_semiorbit_fraction(make_identity(), make_lebesgue(circle()),
                                          w=8, tol=1e-6, n_max=40, samples=5_000, seed=15)
    assert ident.fraction == 1.0
    with pytest.raises(CapabilityError):
        converging_semiorbit_fraction(make_doubling(), make_lebesgue(circle()),
                                      samples=1_000)


def test_periodic_fractions():
    mu = make_lebesgue(circle())
    p3 = periodic_fraction(make_rotation(alpha=1.0 / 3.0), mu, max_period=3,
                           eps=1e-4, samples=5_000, seed=16)
    assert p3.fraction == 1.0
    gold = periodic_fraction(make_rotation(), mu, max_period=6,
                             eps=1e-4, samples=5_000, seed=16)
    assert gold.fraction == 0.0
    cat = periodic_fraction(make_cat(), make_lebesgue(torus2()), max_period=6,
                            eps=1e-4, samples=20_000, seed=16)
    assert cat.fraction <= 1e-3


def test_denjoy_expansive_at_gap_scale(denjoy_c):
    f = make_denjoy(denjoy_c)
    nu = make_denjoy_minimal(denjoy_c)
    v = expansiveness_verdict(f, nu, denjoy_c.smallest_gap / 2.0, n_max=25,
                              samples=30_000, x_probes=20, seed=18)
    assert v.verdict == "evidence_expansive"


def test_conjugacy_sensitivity_of_verdicts():
    # doubling is expansive for Lebesgue; its conjugate under a
    # non-bi-Lipschitz change of coordinates can hide the evidence at a
    # fixed radius, so verdicts are radius- and coordinate-specific
    mu = make_lebesgue(circle())
    v = expansiveness_verdict(make_doubling(), mu, 0.05, n_max=16,
                              samples=20_000, x_probes=20, seed=19)
    assert v.verdict == "evidence_expansive"
