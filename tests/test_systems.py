import numpy as np
import pytest

from dynball import (CapabilityError, ConstructionError, Point, SpaceMismatchError,
                     SystemSpec, build_denjoy, circle, decay_series, distance,
                     expansiveness_verdict, get_system, make_cat, make_denjoy,
                     make_doubling, make_identity, make_interval_square, make_lebesgue,
                     make_rotation, make_tent, make_zoo, torus2, zoo_names)
from dynball.denjoy import SQUEEZE
from dynball.expansiveness import ONE_SIDED, TWO_SIDED, resolve_sided
from dynball.systems import CAT_INVERSE, CAT_MATRIX, compose_power, iterate


def test_doubling_formula():
    f = make_doubling()
    x = np.array([[0.3], [0.75], [0.5]])
    assert np.allclose(f.forward(x), [[0.6], [0.5], [0.0]])
    assert not f.invertible
    with pytest.raises(CapabilityError):
        iterate(f, x, -1)


def test_tent_formula():
    f = make_tent()
    x = np.array([[0.25], [0.5], [0.75]])
    assert np.allclose(f.forward(x), [[0.5], [1.0 - 1e-300], [0.5]], atol=1e-12)


def test_cat_forward_inverse_roundtrip():
    f = make_cat()
    rng = np.random.default_rng(0)
    x = rng.random((500, 2))
    y = f.forward(x)
    back = f.inverse(y)
    assert np.max(distance(f.space, x, back)) < 1e-9
    assert np.allclose(CAT_MATRIX @ CAT_INVERSE, np.eye(2))


def test_cat_matches_matrix_action():
    f = make_cat()
    x = np.array([[0.1, 0.2]])
    expect = (CAT_MATRIX @ x[0]) % 1.0
    assert np.allclose(f.forward(x)[0], expect)


def test_iterate_periodic_rational_point():
    f = make_doubling()
    x = np.array([[1.0 / 3.0]])
    # 1/3 -> 2/3 -> 1/3 under doubling
    assert np.allclose(iterate(f, x, 2), x)


def test_rotation_isometry_metadata():
    f = make_rotation()
    assert f.invertible
    g = make_rotation(alpha=0.25)
    x = np.array([[0.9]])
    assert np.allclose(g.forward(x), [[0.15]])
    assert np.allclose(g.inverse(g.forward(x)), x)


def test_interval_square_endpoints_fixed():
    f = make_interval_square()
    x = np.array([[0.0], [1.0], [0.5]])
    y = f.forward(x)
    assert np.allclose(y, [[0.0], [1.0], [0.25]])
    assert np.allclose(f.inverse(y), x)


def test_compose_power_matches_repeated_application():
    for base in (make_doubling(), make_cat(), make_denjoy(N=8)):
        assert compose_power(base, 1) is base
        f2 = compose_power(base, 3)
        rng = np.random.default_rng(7)
        x = rng.random((100, base.space.dim))
        assert np.array_equal(f2.forward(x), iterate(base, x, 3))  # bit for bit
        if base.invertible:
            assert np.array_equal(f2.inverse(x), iterate(base, x, -3))
    c = make_cat()
    c2 = compose_power(c, 2)
    x = np.random.default_rng(8).random((50, 2))
    assert np.max(distance(c.space, c2.inverse(c2.forward(x)), x)) < 1e-9
    # chain rule: determinant of the power is the power of the determinant
    j = compose_power(make_doubling(), 4).jacobian(x[:, :1])
    assert np.allclose(np.linalg.det(j), 16.0)


def test_invertible_means_an_inverse_is_given():
    # invertibility is read off the inverse: a spec without one gets
    # forward-only windows and a CapabilityError, never a call to None
    def fwd(c):
        return (np.asarray(c, dtype=float) + 0.25) % 1.0

    def inv(c):
        return (np.asarray(c, dtype=float) - 0.25) % 1.0

    mu = make_lebesgue(circle())
    one = SystemSpec("one", circle(), fwd)
    two = SystemSpec("two", circle(), fwd, inverse=inv)
    for f in (one, compose_power(one, 2)):
        assert not f.invertible
        assert resolve_sided(f, None) == ONE_SIDED
        assert decay_series(f, mu, (0.2,), 0.05, n_max=3, samples=1000).sided == ONE_SIDED
        for run in (lambda: resolve_sided(f, TWO_SIDED),
                    lambda: decay_series(f, mu, (0.2,), 0.05, sided=TWO_SIDED,
                                         n_max=3, samples=1000),
                    lambda: expansiveness_verdict(f, mu, 0.05, sided=TWO_SIDED,
                                                  n_max=3, samples=1000),
                    lambda: iterate(f, np.array([[0.2]]), -1)):
            with pytest.raises(CapabilityError):
                run()
    for f in (two, compose_power(two, 2)):
        assert f.invertible
        assert resolve_sided(f, None) == TWO_SIDED
        s = decay_series(f, mu, (0.2,), 0.05, n_max=3, samples=1000)
        assert s.sided == TWO_SIDED
        assert np.allclose(iterate(f, iterate(f, np.array([[0.2]]), -1), 1), 0.2)


def test_zoo_registry():
    zoo = make_zoo()
    assert [f.name for f in zoo] == zoo_names()
    assert len(set(zoo_names())) == len(zoo_names())
    with pytest.raises(KeyError):
        get_system("nosuch")
    r = get_system("rotation", {"alpha": 0.125})
    assert np.allclose(r.forward(np.array([[0.0]])), [[0.125]])


def test_rotation_preserves_pairwise_distances():
    f = make_rotation()
    rng = np.random.default_rng(23)
    a = rng.random((200, 1))
    b = rng.random((200, 1))
    before = distance(f.space, a, b)
    after = distance(f.space, iterate(f, a, 7), iterate(f, b, 7))
    assert np.max(np.abs(after - before)) < 1e-12


def test_cat_origin_is_fixed():
    f = make_cat()
    z = np.zeros((1, 2))
    assert np.allclose(iterate(f, z, 5), z)


# gapped circle construction

def test_denjoy_breakpoints_increasing(denjoy_c):
    bp = np.sort(np.concatenate([denjoy_c.left_endpoints, denjoy_c.right_endpoints]))
    assert len(bp) == 2 * (2 * denjoy_c.N + 1)
    assert np.all(np.diff(bp) > 0)
    assert bp[0] >= 0.0 and bp[-1] < 1.0
    assert denjoy_c.smallest_gap == pytest.approx(np.min(denjoy_c.gap_lengths), rel=1e-12)


def _check_monotone_homeomorphism(c):
    f = make_denjoy(c.alpha, c.N)
    t = np.linspace(0.0, 1.0, 4001, endpoint=False).reshape(-1, 1)
    y = f.forward(t)[:, 0]
    # a circle homeomorphism lifts to an increasing map: the image sequence
    # wraps past 1 exactly once
    drops = np.sum(np.diff(y) < 0)
    assert drops == 1
    err = distance(f.space, t, f.inverse(f.forward(t)))
    # the squeezed gap I_N lands on an interval of width 2 * SQUEEZE, where
    # one rounding step of the image is stretched back by l_N / (2 * SQUEEZE);
    # that is 1.4e7 at N = 8 and 2.8e5 at N = 64
    last = (t[:, 0] >= c.left_endpoints[-1]) & (t[:, 0] <= c.right_endpoints[-1])
    resolution = np.finfo(float).eps * c.gap_lengths[-1] / (2 * SQUEEZE)
    assert np.max(err[~last]) < 1e-9
    assert np.max(err[last], initial=0.0) < max(1e-9, resolution)


def _check_gaps_to_gaps(c):
    f = make_denjoy(c.alpha, c.N)
    # arrays are stored in orbit-index order k = -N..N at slot k+N: the
    # gap at index k maps onto the gap at index k+1, endpoint to endpoint
    k_slice = slice(0, 2 * c.N)  # k = -N .. N-1
    img_l = f.forward(c.left_endpoints[k_slice].reshape(-1, 1))[:, 0]
    img_r = f.forward(c.right_endpoints[k_slice].reshape(-1, 1))[:, 0]
    assert np.max(np.abs(img_l - c.left_endpoints[1:2 * c.N + 1])) < 1e-12
    assert np.max(np.abs(img_r - c.right_endpoints[1:2 * c.N + 1])) < 1e-12
    # interior maps affinely: the midpoint of gap k lands on the midpoint
    # of gap k+1
    mid = (c.left_endpoints[k_slice] + c.right_endpoints[k_slice]) / 2.0
    img_m = f.forward(mid.reshape(-1, 1))[:, 0]
    target = (c.left_endpoints[1:2 * c.N + 1] + c.right_endpoints[1:2 * c.N + 1]) / 2.0
    assert np.max(np.abs(img_m - target)) < 1e-9


def _check_semiconjugate_to_rotation(c):
    f = make_denjoy(c.alpha, c.N)
    t = np.linspace(0.0, 1.0, 2000, endpoint=False).reshape(-1, 1)
    before = c.staircase(t[:, 0])
    after = c.staircase(f.forward(t)[:, 0])
    defect = np.abs((after - before - c.alpha) % 1.0)
    defect = np.minimum(defect, 1.0 - defect)
    assert np.max(defect) < 1e-6


def test_denjoy_monotone_circle_homeomorphism(denjoy_c):
    _check_monotone_homeomorphism(denjoy_c)


def test_denjoy_maps_gaps_to_gaps(denjoy_c):
    _check_gaps_to_gaps(denjoy_c)


def test_denjoy_semiconjugate_to_rotation(denjoy_c):
    _check_semiconjugate_to_rotation(denjoy_c)


@pytest.mark.parametrize("alpha", [np.sqrt(2.0) - 1.0, np.e - 2.0])
@pytest.mark.parametrize("N", [8, 200])
def test_denjoy_other_rotations(alpha, N):
    c = build_denjoy(alpha=alpha, N=N)
    _check_monotone_homeomorphism(c)
    _check_gaps_to_gaps(c)
    _check_semiconjugate_to_rotation(c)


def test_denjoy_knots_are_the_affine_pieces(denjoy_c):
    c = denjoy_c
    # gap endpoints, at most four bracket pins and the wrap knot: no
    # dense grid
    assert len(c.map_x) <= 2 * (2 * c.N + 1) + 6
    # off the cells around the two breaks, theta_N and theta_{-N-1}, the
    # map is the translation psi(t) -> psi(t + alpha) of the remainder
    t = np.random.default_rng(11).random(12_000)
    breaks = np.array([(c.N * c.alpha) % 1.0, ((-c.N - 1) * c.alpha) % 1.0])
    d = np.abs(t[:, None] - breaks[None, :])
    t = t[np.all(np.minimum(d, 1.0 - d) > 2.0 / 2 ** 21, axis=1)][:10_000]
    assert len(t) == 10_000
    img = make_denjoy(c.alpha, c.N).forward(c.insertion(t).reshape(-1, 1))[:, 0]
    err = np.abs(img - c.insertion((t + c.alpha) % 1.0))
    assert np.max(np.minimum(err, 1.0 - err)) < 1e-14


def test_denjoy_construction_rejects_bad_input():
    with pytest.raises(ConstructionError):
        build_denjoy(N=4)
    with pytest.raises(ConstructionError):
        build_denjoy(N=10_001)
    with pytest.raises(ConstructionError):
        build_denjoy(alpha=0.5, N=16)
    with pytest.raises(ConstructionError):
        build_denjoy(alpha=1.5, N=16)


def test_identity_map_trivial_dynamics():
    f = make_identity(circle())
    x = np.array([[0.3]])
    assert np.allclose(iterate(f, x, 17), x)


def test_circle_and_torus_maps_match_remainder_formulas_bit_for_bit(denjoy_c):
    # each map's output equals, bit for bit, the ``% 1.0`` formula its fold
    # replaced, on inputs both inside and outside [0, 1)
    rng = np.random.default_rng(31)
    edges = [-0.0, 0.0, -1e-20, 1e-20, 1.0 - 2.0 ** -53, -1.0, 1.0, 2.0,
             -2.0 ** 40 - 0.5, 1e6 + 0.1]
    x1 = np.concatenate([rng.uniform(-3.0, 3.0, 200_000), rng.random(200_000),
                         edges]).reshape(-1, 1)
    x2 = np.concatenate([rng.uniform(-3.0, 3.0, (200_000, 2)),
                         np.array(edges).reshape(-1, 2)])
    rot = make_rotation(alpha=0.3)
    a = 0.3
    c = denjoy_c

    def denjoy_inverse(y):
        y = y % 1.0
        return np.interp(y + (y < c.map_y[0]), c.map_y, c.map_x) % 1.0

    cases = [
        (rot.forward, x1, lambda x: (x + a) % 1.0),
        (rot.inverse, x1, lambda x: (x - a) % 1.0),
        (make_doubling().forward, x1, lambda x: (2.0 * x) % 1.0),
        (make_cat().forward, x2, lambda x: (x @ CAT_MATRIX.T) % 1.0),
        (make_cat().inverse, x2, lambda x: (x @ CAT_INVERSE.T) % 1.0),
        (c.forward, x1, lambda x: np.interp(x % 1.0, c.map_x, c.map_y) % 1.0),
        (c.inverse, x1, denjoy_inverse),
        (c.staircase, x1,
         lambda x: np.interp(x % 1.0, c.staircase_x, c.staircase_y) % 1.0),
        (c.insertion, x1, lambda x: (x % 1.0) / 2.0
         + c.gap_cumsum[np.searchsorted(c.orbit_sorted, x % 1.0)]),
    ]
    for fn, x, formula in cases:
        before = x.copy()
        got, want = fn(x), formula(x)
        assert np.array_equal(x, before)  # the caller's array is not folded
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_iterate_reads_coords():
    with pytest.raises(SpaceMismatchError, match=r"coords \(1.5,\) outside interval bounds"):
        iterate(make_tent(), [[1.5]], 1)
    f = make_rotation()
    raw = np.array([[2.3], [-0.7]])
    out = iterate(f, raw, 3)
    assert np.array_equal(out, iterate(f, raw % 1.0, 3))
    assert raw.tolist() == [[2.3], [-0.7]]  # the caller's array is not folded
    assert iterate(f, [0.3], 0).shape == (1, 1)
    p = iterate(f, Point(circle(), (2.3,)), 2)
    assert isinstance(p, Point) and p.coords == tuple(iterate(f, [[2.3]], 2)[0])
    with pytest.raises(SpaceMismatchError, match="point on torus2"):
        iterate(f, Point(torus2(), (0.1, 0.2)), 1)

