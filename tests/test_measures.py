import numpy as np
import pytest
from numpy.random import Generator, Philox

from dynball import (Ball, Point, circle, interval, make_denjoy,
                     make_denjoy_minimal, make_dirac, make_lebesgue,
                     make_measure, measure_names, pushforward, torus2)
from dynball import rng
from dynball.stats import wilson_interval


def test_sampling_deterministic_and_splittable():
    mu = make_lebesgue(torus2())
    a = mu.sample_coords(seed=9, count=2000)
    b = mu.sample_coords(seed=9, count=2000)
    assert np.array_equal(a, b)
    head = mu.sample_coords(seed=9, count=700)
    tail = mu.sample_coords(seed=9, count=1300, start=700)
    assert np.array_equal(a, np.concatenate([head, tail]))
    assert not np.array_equal(a, mu.sample_coords(seed=10, count=2000))
    assert np.all((a >= 0) & (a < 1))


def _stream_rows(seed, start, count, dims):
    # reference: the keyed stream drawn whole in one Generator call, cut
    # into dims-wide rows and sliced
    n = start + count
    return Generator(Philox(key=seed)).random(n * dims).reshape(n, dims)[start:n]


def test_uniform_block_fill_matches_one_draw():
    # row i is doubles dims*i .. dims*i + dims - 1 of the keyed stream, so a
    # counter block of 4 doubles holds 4 // dims rows; starts and counts off
    # that grid, empty ranges and ranges across 65,536 rows all cut the same
    for dims in (1, 2, 4):
        per = 4 // dims
        for start, count in ((0, 0), (per + 1, 0), (0, 1), (1, 1), (3, 2 * per + 1),
                             (5, 7), (65_533, 10), (3, 70_000)):
            got = rng.uniform_block(6, start, count, dims)
            assert got.shape == (count, dims) and got.flags.c_contiguous
            assert np.array_equal(got, _stream_rows(6, start, count, dims)), (dims, start)
        whole = rng.uniform_block(7, 0, 1001, dims)
        for cut in (1, 2, 3, 501):
            assert np.array_equal(np.concatenate([rng.uniform_block(7, 0, cut, dims),
                                                  rng.uniform_block(7, cut, 1001 - cut, dims)]),
                                  whole)
    with pytest.raises(ValueError, match="dims must divide 4, got 3"):
        rng.uniform_block(6, 0, 10, 3)


def test_lebesgue_ball_oracles_exact():
    mu_c = make_lebesgue(circle())
    assert mu_c.ball_oracle(Ball(Point(circle(), (0.3,)), 0.07)) == pytest.approx(0.14)
    mu_i = make_lebesgue(interval())
    # clipped at the left endpoint
    assert mu_i.ball_oracle(Ball(Point(interval(), (0.02,)), 0.05)) == pytest.approx(0.07)
    mu_t = make_lebesgue(torus2())
    for r, area in ((0.3, 0.18), (0.7, 1.0 - 2.0 * 0.09), (1.1, 1.0)):
        assert mu_t.ball_oracle(Ball(Point(torus2(), (0.5, 0.5)), r)) == pytest.approx(area)


def test_lebesgue_oracles_match_monte_carlo():
    rng = np.random.default_rng(21)
    for sp in (circle(), torus2()):
        mu = make_lebesgue(sp)
        for trial in range(5):
            center = Point(sp, tuple(rng.random(sp.dim)))
            r = 0.05 + 0.3 * rng.random()
            ball = Ball(center, r)
            exact = mu.ball_oracle(ball)
            pts = mu.sample_coords(seed=100 + trial, count=40_000)
            d = np.zeros(len(pts))
            from dynball import distance
            d = distance(sp, pts, np.tile(center.array, (len(pts), 1)))
            hits = int(np.sum(d <= r))
            lo, hi = wilson_interval(np.array([hits]), 40_000)
            slack = 4 * (hi[0] - lo[0])
            assert abs(hits / 40_000 - exact) <= slack + 1e-9


def test_dirac_measure():
    mu = make_dirac(Point(circle(), (0.25,)))
    pts = mu.sample_coords(seed=0, count=50)
    assert np.all(pts == 0.25)
    assert mu.ball_oracle(Ball(Point(circle(), (0.3,)), 0.1)) == 1.0
    assert mu.ball_oracle(Ball(Point(circle(), (0.75,)), 0.1)) == 0.0


def test_minimal_measure_lives_on_orbit_closure(denjoy_c):
    nu = make_denjoy_minimal()
    pts = nu.sample_coords(seed=4, count=5000)[:, 0]
    # sampled points are gap endpoints, so never interior to any gap
    lefts = denjoy_c.left_endpoints
    rights = denjoy_c.right_endpoints
    for v in pts[:200]:
        inside = (v > lefts + 1e-12) & (v < rights - 1e-12)
        assert not inside.any()


def test_minimal_measure_arc_oracle_matches_empirical(denjoy_c):
    nu = make_denjoy_minimal()
    rng = np.random.default_rng(17)
    pts = nu.sample_coords(seed=8, count=30_000)[:, 0]
    for _ in range(20):
        lo_a = rng.random()
        width = 0.02 + 0.4 * rng.random()
        mass = denjoy_c.arc_mass(lo_a, (lo_a + width) % 1.0)
        if lo_a + width <= 1.0:
            emp = np.mean((pts >= lo_a) & (pts <= lo_a + width))
        else:
            emp = np.mean((pts >= lo_a) | (pts <= (lo_a + width) % 1.0))
        w_lo, w_hi = wilson_interval(np.array([int(emp * 30_000)]), 30_000)
        assert abs(emp - mass) <= 4 * (w_hi[0] - w_lo[0]) + 1e-6


def test_minimal_measure_invariance(denjoy_c):
    # pushing samples through the map leaves arc masses unchanged
    nu = make_denjoy_minimal()
    f = make_denjoy()
    pts = nu.sample_coords(seed=13, count=30_000)
    moved = f.forward(pts)[:, 0]
    for lo_a, hi_a in ((0.1, 0.4), (0.5, 0.9), (0.8, 0.2)):
        mass = denjoy_c.arc_mass(lo_a, hi_a)
        if lo_a <= hi_a:
            emp = np.mean((moved >= lo_a) & (moved <= hi_a))
        else:
            emp = np.mean((moved >= lo_a) | (moved <= hi_a))
        assert abs(emp - mass) < 0.01


def test_pushforward_square_cdf():
    mu = make_lebesgue(interval())
    nu = pushforward(mu, np.square, name="pushforward:square")
    pts = nu.sample_coords(seed=2, count=50_000)[:, 0]
    for t in (0.1, 0.25, 0.5, 0.9):
        emp = np.mean(pts <= t)
        assert abs(emp - np.sqrt(t)) < 0.01
    assert nu.ball_oracle is None  # a general image has no exact ball mass


def test_uniform_quarter_arc_fraction():
    mu = make_lebesgue(circle())
    pts = mu.sample_coords(seed=7, count=100_000)[:, 0]
    frac = np.mean(pts < 0.25)
    assert abs(frac - 0.25) <= 0.006  # binomial 4 sigma


def test_staircase_pushforward_is_uniform(denjoy_c):
    # collapsing the gaps sends the minimal measure to the uniform one
    nu = make_denjoy_minimal()
    pts = nu.sample_coords(seed=7, count=100_000)[:, 0]
    collapsed = denjoy_c.staircase(pts)
    for t in (0.25, 0.5, 0.75):
        assert abs(np.mean(collapsed <= t) - t) <= 0.007


def test_nonatomic_measures_have_no_atoms():
    for mu in (make_lebesgue(circle()), make_lebesgue(torus2()),
               make_denjoy_minimal()):
        pts = mu.sample_coords(seed=3, count=100_000)
        _, counts = np.unique(pts[:, 0], return_counts=True)
        assert counts.max() <= 3  # duplicates only from float coincidence


def test_oracle_consistency_twenty_random_balls():
    from dynball import distance
    rng = np.random.default_rng(29)
    measures = [make_lebesgue(circle()), make_lebesgue(interval()),
                make_lebesgue(torus2()), make_denjoy_minimal()]
    for mu in measures:
        pts = mu.sample_coords(seed=41, count=100_000)
        for _ in range(20):
            center = rng.random(mu.space.dim)
            r = 0.02 + 0.4 * rng.random()
            ball = Ball(Point(mu.space, tuple(center)), r)
            exact = mu.ball_oracle(ball)
            d = distance(mu.space, pts, np.tile(center, (len(pts), 1)))
            hits = int(np.sum(d <= r))
            lo, hi = wilson_interval(np.array([hits]), 100_000)
            assert abs(hits / 100_000 - exact) <= 4 * (hi[0] - lo[0]) / 2 + 1e-4, \
                (mu.name, r)


def test_make_measure_parsing():
    sp = circle()
    assert make_measure("lebesgue", sp).name == "lebesgue"
    d = make_measure("dirac:0.5", sp)
    assert np.all(d.sample_coords(0, 10) == 0.5)
    d2 = make_measure("dirac:0.25,0.75", torus2())
    assert np.allclose(d2.sample_coords(0, 4), [0.25, 0.75])
    nu = make_measure("denjoy-minimal", sp)
    assert not np.array_equal(nu.sample_coords(0, 8), make_measure("lebesgue", sp).sample_coords(0, 8))
    # the gapped circle's parameters pick the measure, as the system's do
    nu16 = make_measure("denjoy-minimal", sp, {"alpha": 0.4142135623730951, "N": 16})
    assert np.array_equal(nu16.sample_coords(0, 8),
                          make_denjoy_minimal(0.4142135623730951, 16).sample_coords(0, 8))
    assert not np.array_equal(nu16.sample_coords(0, 8), nu.sample_coords(0, 8))
    ps = make_measure("pushforward:sqrt", interval())
    assert np.array_equal(ps.sample_coords(0, 8),
                          np.sqrt(make_lebesgue(interval()).sample_coords(0, 8)))
    with pytest.raises(KeyError):
        make_measure("nosuch", sp)
    with pytest.raises(KeyError, match="unknown pushforward map 'cube'; known: square, sqrt"):
        make_measure("pushforward:cube", interval())
    assert any(n.startswith("dirac") for n in measure_names())
