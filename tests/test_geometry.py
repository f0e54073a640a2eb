import numpy as np
import pytest

from dynball import (Ball, NotACoverError, Point, SpaceDescriptor,
                     SpaceMismatchError, circle, distance, interval,
                     lebesgue_number, make_ball_cover, make_lebesgue, torus2)
from dynball import geometry as geo


def test_circle_distance_wraps():
    sp = circle()
    assert distance(sp, [0.1], [0.9]) == pytest.approx(0.2)
    assert distance(sp, [0.0], [0.5]) == pytest.approx(0.5)
    assert distance(sp, [0.25], [0.25]) == 0.0


def test_distance_metric_axioms_random():
    rng = np.random.default_rng(42)
    for sp in (circle(), interval(), torus2()):
        pts = rng.random((50, 3, sp.dim))
        a, b, c = pts[:, 0], pts[:, 1], pts[:, 2]
        dab = distance(sp, a, b)
        dba = distance(sp, b, a)
        dac = distance(sp, a, c)
        dcb = distance(sp, c, b)
        assert np.allclose(dab, dba)
        assert np.all(dab >= 0)
        assert np.all(dab <= dac + dcb + 1e-12)
        assert np.allclose(distance(sp, a, a), 0.0)


def test_torus_metric_is_sum_of_circle_metrics():
    sp = torus2()
    c = circle()
    rng = np.random.default_rng(3)
    a = rng.random((20, 2))
    b = rng.random((20, 2))
    expect = distance(c, a[:, :1], b[:, :1]) + distance(c, a[:, 1:], b[:, 1:])
    assert np.allclose(distance(sp, a, b), expect)


def test_point_canonicalization_and_validation():
    p = Point(circle(), (1.25,))
    assert p.coords == (0.25,)
    q = Point(circle(), (-0.25,))
    assert q.coords == (0.75,)
    with pytest.raises(SpaceMismatchError):
        Point(circle(), (0.1, 0.2))
    with pytest.raises(SpaceMismatchError, match="outside interval bounds"):
        Point(interval(), (1.5,))
    with pytest.raises(SpaceMismatchError, match="outside interval bounds"):
        Point(interval(), (-0.25,))
    assert Point(interval(), (0.0,)).coords == (0.0,)
    assert Point(interval(), (1.0,)).coords == (1.0,)


def test_space_is_its_kind():
    assert [(sp.dim, sp.periodic) for sp in (circle(), interval(), torus2())] == \
        [(1, True), (1, False), (2, True)]
    assert SpaceDescriptor("circle") == circle()
    with pytest.raises(ValueError, match="unknown space kind"):
        SpaceDescriptor("box")


def test_point_leaves_caller_array_unfolded():
    coords = np.array([1.25, -0.25])
    p = Point(torus2(), coords)
    assert p.coords == (0.25, 0.75)
    assert list(coords) == [1.25, -0.25]


def test_probe_grid_periodic_drops_right_endpoint():
    g = geo.probe_grid(circle(), 8)
    assert g.shape == (8, 1)
    assert g.max() < 1.0
    spacing = np.diff(np.sort(g[:, 0]))
    assert np.allclose(spacing, spacing[0])
    g2 = geo.probe_grid(torus2(), 9)
    assert g2.shape[0] >= 9
    gi = geo.probe_grid(interval(), 5)
    assert gi.min() == 0.0 and gi.max() == 1.0


def test_ball_contains_closed():
    sp = circle()
    ball = Ball(Point(sp, (0.0,)), 0.25)
    inside = geo.ball_contains(ball, np.array([[0.25], [0.75], [0.5]]))
    assert list(inside) == [True, True, False]
    # same boundary point on the interval (dyadic values, exact in binary)
    b_i = Ball(Point(interval(), (0.5,)), 0.125)
    assert geo.ball_contains(b_i, np.array([[0.625]]))[0]
    # wrap-around membership
    b_w = Ball(Point(sp, (0.95,)), 0.1)
    assert geo.ball_contains(b_w, np.array([[0.02]]))[0]


def test_cover_and_lebesgue_number():
    sp = circle()
    cover = make_ball_cover(sp, radius=0.1, step=0.05)
    # every random point sits strictly inside some element
    pts = make_lebesgue(sp).sample_coords(seed=5, count=2000)
    dmin = np.min(
        [distance(sp, pts, np.tile(b.center.array, (len(pts), 1))) for b in cover],
        axis=0)
    assert np.all(dmin <= 0.1)
    num = lebesgue_number(cover, sp)
    assert 0 < num <= 0.1
    # any ball of radius num fits inside one element: spot check at
    # midpoints between adjacent centers, the worst case on a grid
    mids = make_lebesgue(sp).sample_coords(seed=6, count=500)
    for b in cover[:3]:
        assert b.radius == 0.1


def test_lebesgue_number_rejects_non_cover():
    sp = circle()
    sparse = [Ball(Point(sp, (0.0,)), 0.1), Ball(Point(sp, (0.5,)), 0.1)]
    with pytest.raises(NotACoverError):
        lebesgue_number(sparse, sp)
    with pytest.raises(NotACoverError, match="^empty cover$"):
        lebesgue_number([], sp)


def test_interval_cover_keeps_endpoints():
    sp = interval()
    cover = make_ball_cover(sp, radius=0.15, step=0.1)
    num = lebesgue_number(cover, sp)
    assert num > 0


def test_wrap01_matches_remainder_bit_for_bit():
    rng = np.random.default_rng(20)
    edges = np.array([-0.0, 0.0, 5e-324, -5e-324, -1e-20, 1.0, -1.0, 2.0,
                      1.0 - 2.0 ** -53, 2.0 ** 53 + 1, -2.0 ** 60,
                      np.inf, -np.inf, np.nan])
    for x in (rng.uniform(-3.0, 3.0, 5_000_000),
              rng.uniform(-1e-12, 1e-12, 1_000_000), edges):
        with np.errstate(invalid="ignore"):  # inf folds to NaN in both
            want = x % 1.0
            got = geo.wrap01(x.copy())
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
    # a tiny negative rounds up to 1.0 in both, and zeros come out +0.0
    assert geo.wrap01(np.array([-1e-20]))[0] == 1.0
    assert not np.signbit(geo.wrap01(np.array([-0.0, -2.0]))).any()
    # the fold is in place
    x = np.array([2.25, -0.25])
    assert geo.wrap01(x) is x and list(x) == [0.25, 0.75]


@pytest.mark.parametrize("space", [circle(), interval(), torus2()])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_rejects_non_finite_coords(space, bad):
    coords = (bad,) + (0.5,) * (space.dim - 1)
    with pytest.raises(SpaceMismatchError, match="must be finite"):
        Point(space, coords)


@pytest.mark.parametrize("space", [circle(), torus2()])
def test_coords_folds_like_point_and_leaves_caller_array(space):
    rng = np.random.default_rng(16)
    raw = rng.uniform(-3.0, 3.0, (500, space.dim))
    raw[:4] = np.array([-0.0, -1e-20, 3.0, -3.0])[:, None]  # edges of the fold
    before = raw.copy()
    got = geo.coords(space, raw)
    want = np.array([Point(space, row).coords for row in raw])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert np.array_equal(raw.view(np.int64), before.view(np.int64))
    assert not np.shares_memory(got, raw)
    # one point, a Point and a batch all come back as (count, dim)
    assert geo.coords(space, raw[0]).shape == (1, space.dim)
    assert np.array_equal(geo.coords(space, Point(space, raw[0])), got[:1])


def test_coords_refuses_in_the_package_terms():
    with pytest.raises(SpaceMismatchError, match="point on torus2"):
        geo.coords(circle(), Point(torus2(), (0.1, 0.2)))
    for space, bad in ((circle(), [0.3, 0.9]), (torus2(), [[[0.1, 0.2]]]),
                       (torus2(), [[0.1], [0.2]])):
        with pytest.raises(SpaceMismatchError, match="dimensional space"):
            geo.coords(space, bad)
    with pytest.raises(SpaceMismatchError, match=r"coords \(1.5,\) outside interval bounds"):
        geo.coords(interval(), [[0.5], [1.5], [np.nan]])
    with pytest.raises(SpaceMismatchError, match=r"coords \(nan,\) must be finite"):
        geo.coords(interval(), [[0.5], [np.nan], [1.5]])
    with pytest.raises(SpaceMismatchError, match=r"coords \(0.5, inf\) must be finite"):
        geo.coords(torus2(), [[0.1, 0.2], [0.5, np.inf]])
    with pytest.raises(SpaceMismatchError, match="expected one point, got 2"):
        Point(circle(), [[0.1], [0.2]])
    ok = np.array([[0.0], [1.0]])
    assert not np.shares_memory(geo.coords(interval(), ok), ok)


def test_ball_contains_folds_raw_coords():
    ball = Ball(Point(circle(), (0.3,)), 0.05)
    assert geo.ball_contains(ball, [[2.9]]).tolist() == [False]
    assert geo.ball_contains(ball, [[0.9], [2.32], [-0.72]]).tolist() == [False, True, True]
    with pytest.raises(SpaceMismatchError, match="must be finite"):
        geo.ball_contains(ball, [[np.nan]])
    # distance itself takes in-space coordinates only, and stays as fast as that
    assert distance(circle(), [[0.3]], [[2.9]])[0] == pytest.approx(-1.6)
