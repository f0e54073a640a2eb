import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox

from dynball import (Ball, CapabilityError, Point, SpaceMismatchError, bk_entropy,
                     build_denjoy, circle,
                     converging_semiorbit_fraction, decay_series, distance,
                     expansiveness_verdict, generator_check, interval, make_ball_cover,
                     make_cat, make_denjoy, make_denjoy_minimal, make_dirac, make_doubling,
                     make_identity, make_interval_square, make_lebesgue,
                     make_rotation, make_tent, periodic_fraction,
                     power_consistency_check, product_diagonal_test, SystemSpec,
                     torus2, volume_expanding_check)
from dynball import cli, expansiveness, measures
from dynball.expansiveness import _near_pairs, resolve_sided, survival_counts
from dynball.rng import BLOCK_DOUBLES, derive_seed, uniform_block
from dynball.stats import MAX_CELLS, MAX_PROBES, MAX_WINDOW, check_cells, wilson_interval
from dynball.systems import iterate


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


def _dirac_near_the_wrap():
    """Every sample at one point, 0.02 below the end of the circle."""
    return make_dirac(Point(circle(), (0.98,)))


_KERNEL_CASES = [
    (make_rotation, None, "one_sided"), (make_rotation, None, "two_sided"),
    (make_doubling, None, "one_sided"),
    (make_cat, None, "one_sided"), (make_cat, None, "two_sided"),
    (make_tent, None, "one_sided"),
    (make_denjoy, make_denjoy_minimal, "one_sided"),
    (make_denjoy, make_denjoy_minimal, "two_sided"),
    (make_rotation, _dirac_near_the_wrap, "two_sided"),
]

# axis-0 coordinates of one-center calls whose strip ranges wrap around
# the circle or are clipped by the end of the interval
_EDGE_CENTERS = {"circle": (0.0, 1 - 1e-12), "interval": (0.0, 1.0),
                 "torus2": (0.0, 1 - 1e-12)}


@pytest.mark.parametrize("make_f, make_mu, sided", _KERNEL_CASES)
def test_kernel_matches_dense_reference(make_f, make_mu, sided):
    f = make_f()
    mu = make_mu() if make_mu else make_lebesgue(f.space)
    # a center at 0.0 has its window-1 range cut by the end of axis 0
    centers = np.vstack([mu.sample_coords(seed=42, count=6), np.zeros(f.space.dim)])
    ones = [centers[:1]] + [np.array([[e] + [0.5] * (f.space.dim - 1)])
                            for e in _EDGE_CENTERS[f.space.kind]]
    # unsorted on purpose; at a largest radius >= 1/2 every pair is a candidate
    for deltas in ([0.1, 0.02, 0.3, 0.05], [0.05, 0.6]):
        want = _dense_counts(f, mu.sample_coords(41, 3000), centers, deltas, sided, 15)
        assert want[:, :, 0].any()
        assert np.array_equal(
            survival_counts(f, mu, 41, 3000, centers, deltas, sided, 15), want)
        for samples, c in ((1, centers), (0, centers), *((3000, c) for c in ones)):
            got = survival_counts(f, mu, 41, samples, c, deltas, sided, 15)
            batch = mu.sample_coords(41, samples)
            assert np.array_equal(got, _dense_counts(f, batch, c, deltas, sided, 15))
    if make_mu is make_denjoy_minimal:
        # a center mid-gap I_0, at a radius below half the gap: no sample
        # lies in its strip, so no draw keeps a row
        d = build_denjoy()
        c = np.array([[d.left_endpoints[d.N] + d.gap_lengths[d.N] / 2]])
        deltas = [0.4 * d.gap_lengths[d.N]]
        got = survival_counts(f, mu, 41, 3000, c, deltas, sided, 15)
        assert not got.any()
        assert np.array_equal(
            got, _dense_counts(f, mu.sample_coords(41, 3000), c, deltas, sided, 15))


def _sorted_block(space, rng, centers, r):
    """Random points plus every point the axis-0 range of a center can end
    on (c +- r, wrapped on a periodic axis, and both ends of the axis),
    and on the torus points at metric distance r split over both axes,
    sorted on axis 0."""
    ends = np.concatenate([centers[:, 0] - r, centers[:, 0] + r, [0.0, 1.0]])
    ends = ends % 1.0 if space.periodic else ends[(ends >= 0) & (ends <= 1)]
    ends = np.concatenate([ends, np.nextafter(ends, 0.0), np.nextafter(ends, 1.0)])
    ys = rng.random((400 + len(ends), space.dim))
    ys[:len(ends), 0] = ends % 1.0 if space.periodic else ends
    if space.dim > 1:
        split = [(t * r, s * (1 - t) * r) for t in (0.25, 0.5) for s in (-1, 1)]
        ys = np.concatenate([ys, (centers[:, None] + split).reshape(-1, 2) % 1.0])
    return ys[np.argsort(ys[:, 0])]


@pytest.mark.parametrize("space, axis0", [
    (circle(), [0.0, 0.5, 1 - 1e-12, 0.3]),
    (interval(), [0.0, 1.0, 0.5]),
    (torus2(), [0.0, 0.5, 1 - 1e-12]),
])
@pytest.mark.parametrize("r", [1e-9, 0.05, 0.49, 0.5, 0.6])
def test_near_pairs_hold_every_pair_within_r_once(space, axis0, r):
    rng = np.random.default_rng(60)
    centers = rng.random((len(axis0), space.dim))
    centers[:, 0] = axis0
    for ys in (_sorted_block(space, rng, centers, r), np.empty((0, space.dim))):
        xi, yi = _near_pairs(space, centers, ys, r)
        found = set(zip(xi.tolist(), yi.tolist()))
        assert len(found) == len(xi)  # no pair twice
        close = distance(space, centers[:, None], ys[None]) <= r
        assert set(zip(*(i.tolist() for i in np.nonzero(close)))) <= found
        # the superset is only the padding wide, on the torus too
        assert np.all(distance(space, centers[xi], ys[yi]) <= r + 2e-9)


def test_kernel_counts_independent_of_block_size(monkeypatch):
    rng = np.random.default_rng(43)
    for f, sided in ((make_rotation(), "two_sided"), (make_doubling(), "one_sided"),
                     (make_cat(), "two_sided")):
        mu = make_lebesgue(f.space)
        centers = mu.sample_coords(seed=45, count=4)
        monkeypatch.undo()  # the reference runs at the module's own block size
        want = survival_counts(f, mu, 44, 2000, centers, [0.05, 0.2], sided, 12)
        for block in (1, 7, 1999, 2000, 2001, *rng.integers(2, 1000, size=3)):
            monkeypatch.setattr(measures, "_BLOCK", int(block))
            got = survival_counts(f, mu, 44, 2000, centers, [0.05, 0.2], sided, 12)
            assert np.array_equal(got, want), (f.name, block)
        # a merge target of one pair makes every draw its own kernel block
        monkeypatch.setattr(expansiveness, "_MERGE_PAIRS", 1)
        for block in (7, 2001):
            monkeypatch.setattr(measures, "_BLOCK", block)
            got = survival_counts(f, mu, 44, 2000, centers, [0.05, 0.2], sided, 12)
            assert np.array_equal(got, want), (f.name, block, "unmerged")


_SPACE_CASES = {
    "circle-two": (make_rotation, "two_sided"), "circle-one": (make_doubling, "one_sided"),
    "interval-one": (make_interval_square, "one_sided"),
    "interval-two": (make_interval_square, "two_sided"),
    "torus-one": (make_cat, "one_sided"), "torus-two": (make_cat, "two_sided"),
}


@pytest.mark.parametrize("count, deltas", [(1, [0.05, 0.02]), (6, [0.1, 0.03])],
                         ids=["one-center", "six-centers"])
@pytest.mark.parametrize("case", _SPACE_CASES)
def test_merged_blocks_give_the_dense_counts(case, count, deltas, monkeypatch):
    # draws of 1000 rows, merged into kernel blocks at a target of one
    # pair (every draw a block), the module's, and above the batch's pairs
    # (one block); merged draws of six centers interleave their labels,
    # which the merge sorts back to ascending
    make_f, sided = _SPACE_CASES[case]
    f = make_f()
    mu = make_lebesgue(f.space)
    samples, n_max = 20_000, 8
    centers = mu.sample_coords(seed=80, count=count)
    want = _dense_counts(f, mu.sample_coords(81, samples), centers, deltas, sided, n_max)
    assert want[:, :, 0].all()
    advance, merged = expansiveness._advance_pairs, expansiveness._merged
    sizes, interleaved = [], []

    def spy_advance(f, deltas, counts, orbit, yf, xi, yi, label):
        assert np.all(np.diff(label) >= 0)
        sizes.append(len(xi))
        return advance(f, deltas, counts, orbit, yf, xi, yi, label)

    def spy_merged(parts):
        xi = np.concatenate([p[1] for p in parts])
        interleaved.append(bool(np.any(xi[1:] < xi[:-1])))
        return merged(parts)

    monkeypatch.setattr(expansiveness, "_advance_pairs", spy_advance)
    monkeypatch.setattr(expansiveness, "_merged", spy_merged)
    monkeypatch.setattr(expansiveness, "usable_cpus", lambda: 1)
    monkeypatch.setattr(measures, "_BLOCK", 1000)
    default = expansiveness._MERGE_PAIRS
    for target in (1, default, samples * count):
        monkeypatch.setattr(expansiveness, "_MERGE_PAIRS", target)
        sizes.clear()
        interleaved.clear()
        got = survival_counts(f, mu, 81, samples, centers, deltas, sided, n_max)
        assert np.array_equal(got, want), target
        # every block but the last reaches the target, and none holds
        # more than the target plus one draw's pairs
        assert all(n >= target for n in sizes[:-1]), (target, sizes)
        assert max(sizes) < target + 1000 * count
        if target == 1:
            assert len(sizes) == samples // 1000 and not any(interleaved)
        elif target > default:
            assert len(sizes) == 1
        if target > 1 and count > 1:
            assert any(interleaved)


@pytest.mark.parametrize("make_f, make_mu, sided, most", [
    (make_denjoy, make_denjoy_minimal, "two_sided", 2),
    (make_doubling, None, "one_sided", 8),
], ids=["denjoy-slow", "doubling-fast"])
def test_rows_compacted_once_half_the_pairs_died(make_f, make_mu, sided, most, monkeypatch):
    # the kernel drops pairs every window but compacts its rows only once
    # fewer than half of the pairs alive at the last compaction remain:
    # fewer times than pairs die, and on the gapped circle's slow decay
    # once or twice in 15 windows
    f = make_f()
    mu = make_mu() if make_mu else make_lebesgue(f.space)
    centers, deltas, n_max = mu.sample_coords(seed=83, count=3), [0.05, 0.02], 15
    want = _dense_counts(f, mu.sample_coords(84, 5000), centers, deltas, sided, n_max)
    advance, compact = expansiveness._advance_pairs, expansiveness._compact
    since, compactions = [], []  # pairs alive at a call's start or last compaction

    def spy_advance(f, deltas, counts, orbit, yf, xi, yi, label):
        since.append(len(xi))
        return advance(f, deltas, counts, orbit, yf, xi, yi, label)

    def spy_compact(idx, *rows):  # counts the kernel's calls, not the draw cut's
        if sys._getframe(1).f_code is not advance.__code__:
            return compact(idx, *rows)
        assert 2 * len(idx) < since[-1]
        since.append(len(idx))
        compactions.append(len(idx))
        return compact(idx, *rows)

    monkeypatch.setattr(expansiveness, "_advance_pairs", spy_advance)
    monkeypatch.setattr(expansiveness, "_compact", spy_compact)
    got = survival_counts(f, mu, 84, 5000, centers, deltas, sided, n_max)
    assert np.array_equal(got, want)
    alive = got[0].sum(axis=0)  # pairs left after each window, one block
    assert alive[-1] < alive[0] / 2
    assert 0 < len(compactions) <= most, compactions
    assert len(compactions) < np.count_nonzero(np.diff(alive)), (compactions, alive)


def _force_shares(monkeypatch, cpus):
    """Make survival_counts split its samples over ``cpus`` threads on the
    main thread, however few pairs its blocks hold."""
    monkeypatch.setattr(expansiveness, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(expansiveness, "_PAIR_FLOOR", 0)


@pytest.mark.parametrize("make_f, make_mu, sided, deltas", [
    (make_rotation, None, "two_sided", [0.05]),
    (make_denjoy, make_denjoy_minimal, "two_sided", [0.05]),
    (make_tent, None, "one_sided", [0.05]),
    (make_cat, None, "two_sided", [0.1]),
    (make_doubling, None, "one_sided", [0.1, 0.05, 0.02]),
], ids=["rotation", "denjoy", "tent", "cat", "radius-grid"])
def test_shares_give_the_same_counts(make_f, make_mu, sided, deltas, monkeypatch):
    # 100,003 is no multiple of a block, and splits unevenly in two and
    # three; some share starts inside a counter block: 33,334 is 2 mod 4
    # rows on one axis, 50,001 is odd with two rows a counter on the torus
    f = make_f()
    mu = make_mu() if make_mu else make_lebesgue(f.space)
    dims, samples = f.space.dim, 100_003
    per = BLOCK_DOUBLES // dims
    assert any(samples * w // cpus % per for cpus in (2, 3) for w in range(1, cpus))
    stream = Generator(Philox(key=62)).random(samples * dims).reshape(samples, dims)
    centers = mu.sample_coords(seed=61, count=5)
    drawn = []

    def spy(key, start, count, width):
        u = uniform_block(key, start, count, width)
        drawn.append((start, u.copy()))  # the kernel sorts its block in place
        return u

    monkeypatch.setattr(measures, "uniform_block", spy)
    got = {}
    # the default pair budget, blocks of a few hundred expected pairs (a
    # few dozen to a few thousand rows), and a budget far above the row
    # cap, which leaves every block at measures.block_rows
    default = expansiveness._PAIR_BLOCK
    for budget in (default, 300, 1 << 40):
        monkeypatch.setattr(expansiveness, "_PAIR_BLOCK", budget)
        for cpus in (1, 2, 3):
            _force_shares(monkeypatch, cpus)
            drawn.clear()
            with expansiveness.recording_kernel() as seen:
                got[budget, cpus] = survival_counts(f, mu, 62, samples, centers, deltas,
                                                    sided, 12)
            assert seen["kernel_shares"] == cpus
            pairs = seen["kernel_block_pairs"]
            assert 0 < pairs <= min(3 * budget, 5 * measures._BLOCK), (budget, pairs)
            # every share's rows, in index order, are the keyed stream's rows
            assert np.array_equal(
                np.concatenate([u for _, u in sorted(drawn, key=lambda d: d[0])]), stream)
    want = got[default, 1]
    assert want[:, :, 0].any()
    for key, counts in got.items():
        assert np.array_equal(counts, want), key


def test_share_error_reaches_the_caller(monkeypatch, tmp_path, capsys):
    # a share on a pool thread raises; its exception is the caller's, with
    # its type, and the CLI exits 3 for a capability error as it always has
    rot = make_rotation()

    def forward(x):
        if threading.current_thread() is not threading.main_thread():
            raise CapabilityError("no forward map off the main thread")
        return rot.forward(x)

    spy = SystemSpec(rot.name, rot.space, forward, rot.inverse)
    _force_shares(monkeypatch, 2)
    mu = make_lebesgue(circle())
    with pytest.raises(CapabilityError, match="off the main thread"):
        survival_counts(spy, mu, 1, 10_000, mu.sample_coords(2, 5), [0.05], "two_sided", 3)
    monkeypatch.setattr(cli, "get_system", lambda name, params: spy)
    assert cli.main(["verdict", "--samples", "10000", "--out", str(tmp_path)]) == 3
    assert "capability error: no forward map off the main thread" in capsys.readouterr().err


def test_shares_chosen_from_the_input(monkeypatch):
    # a one-center decay's blocks are too narrow for threads, a default
    # verdict's are wide enough
    f, mu = make_rotation(), make_lebesgue(circle())
    monkeypatch.setattr(expansiveness, "usable_cpus", lambda: 2)
    with expansiveness.recording_kernel() as seen:
        decay_series(f, mu, (0.3,), 0.05, samples=100_000)
    assert seen["kernel_shares"] == 1
    with expansiveness.recording_kernel() as seen:
        expansiveness_verdict(f, mu, 0.05, n_max=3)
    assert seen["kernel_shares"] == 2


# (samples, centers, largest radius, count-array cells) of the kernel
# calls the benchmark makes, and the plan _plan gives them, (shares, rows
# per block, read-ahead), on 1, 2 and 4 usable CPUs.  W count arrays must
# fit under MAX_CELLS: a verdict with that many cells reads ahead instead
_PLANS = [
    ("decay", (100_000, 1, 0.05, 20),
     {1: (1, 65536, False), 2: (1, 65536, False), 4: (1, 65536, False)}),
    ("decay-5m", (5_000_000, 1, 0.05, 20),
     {1: (1, 65536, False), 2: (1, 65536, True), 4: (1, 65536, True)}),
    ("verdict", (100_000, 20, 0.05, 20 * 30),
     {1: (1, 16384, False), 2: (2, 16384, False), 4: (4, 16384, False)}),
    ("verdict-halfgap", (100_000, 20, build_denjoy().smallest_gap / 2, 20 * 30),
     {1: (1, 65536, False), 2: (1, 65536, False), 4: (1, 65536, False)}),
    ("entropy", (100_000, 30, 0.1, 3 * 30 * 14),
     {1: (1, 5462, False), 2: (2, 5462, False), 4: (4, 5462, False)}),
    ("verdict-max-cells", (100_000, 20, 0.05, MAX_CELLS),
     {1: (1, 16384, False), 2: (1, 16384, True), 4: (1, 16384, True)}),
]


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_plan_on_the_benchmark_shapes(cpus, monkeypatch):
    monkeypatch.setattr(expansiveness, "usable_cpus", lambda: cpus)
    for name, shape, plans in _PLANS:
        assert expansiveness._plan(*shape) == plans[cpus], name
    # off the main thread: one share and no read-ahead, so pools never nest
    out = []
    worker = threading.Thread(
        target=lambda: out.append(expansiveness._plan(5_000_000, 1, 0.05, 20)))
    worker.start()
    worker.join(timeout=60)
    assert out == [(1, 65536, False)]


def test_thread_caller_takes_one_share(monkeypatch):
    # no pool inside a pool: the battery's workers run their kernels serially
    _force_shares(monkeypatch, 2)
    f, mu = make_rotation(), make_lebesgue(circle())
    out = {}

    def call():
        with expansiveness.recording_kernel() as seen:
            out["counts"] = survival_counts(f, mu, 3, 20_000, mu.sample_coords(4, 5),
                                            [0.05], "two_sided", 3)
        out["seen"] = seen["kernel_shares"]

    worker = threading.Thread(target=call)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert out["seen"] == 1
    assert np.array_equal(out["counts"], survival_counts(f, mu, 3, 20_000,
                                                         mu.sample_coords(4, 5),
                                                         [0.05], "two_sided", 3))


def _one_share(monkeypatch, cpus, blocks, samples):
    """Make survival_counts take one share on ``cpus`` usable CPUs and walk
    its ``samples`` in ``blocks`` blocks: the row cap ``measures.block_rows``
    is set to a ``blocks``-th of the samples, no pair budget narrows it,
    and the merge target of one pair makes every draw its own block."""
    monkeypatch.setattr(expansiveness, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(expansiveness, "_PAIR_FLOOR", 1 << 62)
    monkeypatch.setattr(expansiveness, "_PAIR_BLOCK", 1 << 62)
    monkeypatch.setattr(expansiveness, "_MERGE_PAIRS", 1)
    monkeypatch.setattr(measures, "_BLOCK", -(-samples // blocks))


@pytest.mark.parametrize("case", _SPACE_CASES)
def test_read_ahead_gives_the_serial_counts(case, monkeypatch):
    # with a spare CPU, one share over enough blocks prepares each next
    # block on a pool thread
    make_f, sided = _SPACE_CASES[case]
    f = make_f()
    mu = make_lebesgue(f.space)
    centers = mu.sample_coords(seed=71, count=3)
    samples = 5003
    prepared_on = []
    near_pairs = expansiveness._near_pairs

    def spy(*args):
        prepared_on.append(threading.current_thread() is threading.main_thread())
        return near_pairs(*args)

    monkeypatch.setattr(expansiveness, "_near_pairs", spy)
    for blocks in (1, 2, 3, 5):
        _one_share(monkeypatch, 1, blocks, samples)
        want = survival_counts(f, mu, 72, samples, centers, [0.1, 0.03], sided, 12)
        assert want[:, :, 0].any()
        _one_share(monkeypatch, 2, blocks, samples)
        prepared_on.clear()
        with expansiveness.recording_kernel() as seen:
            got = survival_counts(f, mu, 72, samples, centers, [0.1, 0.03], sided, 12)
        assert np.array_equal(got, want), blocks
        # the first block is prepared on the caller's thread, and two
        # blocks are too few to read ahead
        ahead = blocks >= expansiveness._AHEAD_BLOCKS
        assert seen["kernel_shares"] == 1 and seen["kernel_threads"] == (2 if ahead else 1)
        assert prepared_on == [True] + [not ahead] * (blocks - 1)


def test_read_ahead_error_reaches_the_caller(monkeypatch):
    # block 2 fails while it is drawn on the pool thread: the caller gets
    # that exception object, and the pool's thread is gone after
    f, lebesgue = make_rotation(), make_lebesgue(circle())
    _one_share(monkeypatch, 2, 5, 10_000)
    calls = []
    error = RuntimeError("block 2 cannot be prepared")

    def transform(u):
        calls.append(threading.current_thread() is threading.main_thread())
        if len(calls) == 2:
            raise error
        return lebesgue.transform(u)

    mu = measures.MeasureSpec(lebesgue.name, lebesgue.space, transform)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        survival_counts(f, mu, 73, 10_000, np.array([[0.3]]), [0.05], "two_sided", 4)
    assert raised.value is error and calls == [True, False]
    assert threading.active_count() == before

    # so is the thread when the caller's kernel fails on block 1 while
    # block 2 is prepared; the one-row forward steps are the center's orbit
    def forward(x):
        if len(x) > 1:
            raise CapabilityError("no forward map")
        return f.forward(x)

    spy_f = SystemSpec(f.name, f.space, forward, f.inverse)
    with pytest.raises(CapabilityError, match="no forward map"):
        survival_counts(spy_f, lebesgue, 73, 10_000, np.array([[0.3]]), [0.05], "two_sided",
                        4)
    assert threading.active_count() == before


def test_read_ahead_only_on_the_main_thread_over_blocks(monkeypatch):
    # a call from a worker thread, or with one block or two, starts no thread
    f, mu = make_rotation(), make_lebesgue(circle())
    centers = np.array([[0.3]])

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    want = survival_counts(f, mu, 74, 10_000, centers, [0.05], "two_sided", 6)
    monkeypatch.setattr(expansiveness, "ThreadPoolExecutor", no_pool)
    for blocks in (1, 2):
        _one_share(monkeypatch, 2, blocks, 10_000)
        with expansiveness.recording_kernel() as seen:
            assert np.array_equal(
                survival_counts(f, mu, 74, 10_000, centers, [0.05], "two_sided", 6), want)
        assert seen["kernel_threads"] == 1

    _one_share(monkeypatch, 2, 5, 10_000)
    out = {}

    def call():
        with expansiveness.recording_kernel() as seen:
            out["counts"] = survival_counts(f, mu, 74, 10_000, centers, [0.05],
                                            "two_sided", 6)
        out["seen"] = seen["kernel_threads"]

    worker = threading.Thread(target=call)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert out["seen"] == 1 and np.array_equal(out["counts"], want)


@pytest.mark.parametrize("blocks", [1, 5])
def test_centers_stepped_once_per_call(blocks, monkeypatch):
    # the centers' orbit is stepped once per call, not once per block:
    # forward sees each center n_max - 1 times and, two-sided, inverse
    # n_max times, whatever the number of blocks
    rot, mu, n_max = make_rotation(), make_lebesgue(circle()), 8
    centers = np.array([[0.3], [0.71]])
    fwd = [centers]
    for _ in range(n_max - 1):
        fwd.append(rot.forward(fwd[-1]))
    bwd = [rot.inverse(centers)]
    for _ in range(n_max - 1):
        bwd.append(rot.inverse(bwd[-1]))
    seen = {"forward": 0, "inverse": 0}

    def counting(name, step, orbit):
        points = np.concatenate(orbit)[:, 0]

        def counted(x):
            seen[name] += int(np.isin(x[:, 0], points).sum())
            return step(x)
        return counted

    spy = SystemSpec(rot.name, rot.space, counting("forward", rot.forward, fwd[:-1]),
                     counting("inverse", rot.inverse, [centers] + bwd[:-1]))
    _one_share(monkeypatch, 1, blocks, 20_000)
    got = survival_counts(spy, mu, 75, 20_000, centers, [0.05], "two_sided", n_max)
    assert got[0, :, -1].all()  # the sample side is stepped to the last window
    assert seen == {"forward": 2 * (n_max - 1), "inverse": 2 * n_max}


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


@pytest.mark.parametrize("f, mu", [(make_rotation(), make_lebesgue(circle())),
                                   (make_denjoy(), make_denjoy_minimal())])
def test_default_verdict_memory_bounded(f, mu):
    # 20 probes, 100k samples, 30 two-sided windows: 30.5 MiB while a
    # (center, block) distance matrix picked the window-1 pairs
    v, peak = _traced_peak(lambda: expansiveness_verdict(f, mu, 0.05))
    assert v.samples == 100_000 and v.sided == "two_sided"
    assert peak < 20 * 2 ** 20


def test_default_entropy_memory_bounded(monkeypatch):
    # 30 probes at radius 0.1 expect 6 window-1 pairs a row: 25.4 MiB while
    # each of two shares' blocks held 32,768 rows, about 197k pairs.  The
    # cat map at radius 0.2 read 24.2 MiB while its draws were sized by the
    # 2r^2 ball, not the 2r axis-0 strip _near_pairs builds before its cut
    monkeypatch.setattr(expansiveness, "usable_cpus", lambda: 2)
    for f, grid, lo, hi in ((make_doubling(), [0.1, 0.05, 0.02], 0.6, 0.8),
                            (make_cat(), [0.2, 0.1, 0.05], 0.86, 1.06)):  # criterion 3
        with expansiveness.recording_kernel() as seen:
            est, peak = _traced_peak(lambda: bk_entropy(f, make_lebesgue(f.space), grid,
                                                        seed=7))
        assert seen["kernel_shares"] == 2 and lo <= est.extrapolated_e <= hi, f.name
        assert peak < 8 * 2 ** 20, f.name


def test_decay_series_memory_bounded_in_samples():
    # the whole estimator at 2M samples: a whole-batch draw alone is 16 MB
    f, mu = make_rotation(), make_lebesgue(circle())
    s, peak = _traced_peak(lambda: decay_series(f, mu, (0.3,), 0.05, n_max=20,
                                                samples=2_000_000, seed=46))
    assert 0.09 <= s.terminal <= 0.11
    assert peak < 8 * 2 ** 20


def test_two_sided_decay_inverts_only_forward_candidates():
    # window 1 needs d(x, y) <= delta, so only the ~10% of samples near the
    # center may reach the inverse; a whole-block inverse sees all 100,001
    rot = make_rotation()
    seen = []

    def counted_inverse(c):
        seen.append(len(c))
        return rot.inverse(c)

    spy = SystemSpec(rot.name, rot.space, rot.forward, counted_inverse)
    mu = make_lebesgue(circle())
    s = decay_series(spy, mu, (0.3,), 0.05, sided="two_sided", n_max=1,
                     samples=100_000, seed=51)
    assert sum(seen) <= 0.2 * 100_000
    assert s.counts == decay_series(rot, mu, (0.3,), 0.05, sided="two_sided",
                                    n_max=1, samples=100_000, seed=51).counts


def test_kernel_memory_bounded_in_center_count():
    # 256 centers: 65,536-sample blocks would give each block 1.7M window-1
    # candidate pairs and a 107 MiB peak of pair indices and kernel buffers;
    # blocks of 32 * _BLOCK / 256 rows keep it at 13 MiB
    f, mu = make_rotation(), make_lebesgue(circle())
    centers = mu.sample_coords(seed=49, count=256)
    counts, peak = _traced_peak(lambda: survival_counts(
        f, mu, 50, 200_000, centers, [0.05], "two_sided", 3))
    assert 0.09 <= counts[0, :, -1].sum() / (256 * 200_000) <= 0.11
    assert peak < 96 * 2 ** 20


# estimators that count hits over one sample budget, as functions of the
# sample count; at 300 samples each has both hits and misses
_BATCH_ESTIMATORS = {
    "converging": lambda n: converging_semiorbit_fraction(
        make_interval_square(), make_lebesgue(interval()), w=3, tol=1e-3, n_max=10,
        samples=n, seed=51),
    "periodic": lambda n: periodic_fraction(
        make_cat(), make_lebesgue(torus2()), max_period=3, eps=0.1, samples=n, seed=52),
    "diagonal": lambda n: product_diagonal_test(
        make_doubling(), make_lebesgue(circle()), 0.1, n_max=4, pair_samples=n,
        seed=53, fubini_probes=2),
}


@pytest.mark.parametrize("name", _BATCH_ESTIMATORS)
def test_batch_estimators_independent_of_block_size(monkeypatch, name):
    estimate, n = _BATCH_ESTIMATORS[name], 300
    want = estimate(n)  # at the module's own block size
    for block in (1, 7, n - 1, n, n + 1):
        monkeypatch.setattr(measures, "_BLOCK", block)
        assert estimate(n) == want, block


@pytest.mark.parametrize("name", _BATCH_ESTIMATORS)
def test_batch_estimators_memory_bounded_in_samples(name):
    # a whole 2M-sample draw and its per-sample temporaries peak at 45 to
    # 155 MiB
    _, peak = _traced_peak(lambda: _BATCH_ESTIMATORS[name](2_000_000))
    assert peak < 16 * 2 ** 20


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


def _dirac_counts(f, x, y, delta, n_max, sided=None):
    # every sample of a Dirac measure is y, so each count is 100 or 0: the
    # exact membership of y in the window-n set around x
    mu = make_dirac(Point(f.space, y))
    return decay_series(f, mu, x, delta, sided=sided, n_max=n_max, samples=100).counts


def test_decay_series_hand_example():
    f = make_doubling()
    # 8*0.004 > 0.01 at i=2
    assert _dirac_counts(f, (0.3,), (0.304,), 0.01, 3, "one_sided") == (100, 100, 0)
    # separation doubles past delta already at i=1
    third = 1.0 / 3.0
    assert _dirac_counts(f, (third,), (third + 0.04,), 0.05, 2, "one_sided") == (100, 0)
    assert _dirac_counts(f, (third,), (third,), 0.05, 2, "one_sided") == (100, 100)
    # an isometry never separates points that start together; two-sided
    # by default, since the rotation is invertible
    rot = decay_series(make_rotation(), make_dirac(Point(circle(), (0.24,))), (0.2,), 0.05,
                       n_max=40, samples=100)
    assert rot.sided == "two_sided" and rot.counts[39] == 100


def test_decay_series_default_sided():
    # a non-invertible map gets one-sided windows by default, as in every
    # other estimator; two-sided ones must be asked for and are refused
    f = make_doubling()
    s = decay_series(f, make_dirac(Point(circle(), (0.21,))), (0.2,), 0.05, n_max=4,
                     samples=100)
    assert s.sided == "one_sided"
    assert s.counts == (100, 100, 100, 0)  # 8*0.01 > 0.05 at window 4
    with pytest.raises(CapabilityError):
        _dirac_counts(f, (0.2,), (0.21,), 0.05, 3, sided="two")


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
    # the rotation keeps mass 2 delta = 0.01 at every center and window.
    # The threshold is the Wilson upper bound of a count at exactly that
    # mass: any probe above the mass has a higher upper bound, and a lower
    # bound reaches it only about 3.9 standard errors above the mass.  So
    # some of 20 probes lies above it (each about half the time) and none
    # has its lower bound there (each about 5e-5): inconclusive
    samples, mass = 20_000, 0.01
    threshold = float(wilson_interval(round(mass * samples), samples)[1])
    v = expansiveness_verdict(make_rotation(), make_lebesgue(circle()), mass / 2, n_max=3,
                              samples=samples, x_probes=20, threshold=threshold, seed=4)
    assert v.verdict == "inconclusive" and v.witness is None
    assert v.witness_lower_bound < threshold < v.worst_upper_bound


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
    # for an isometry, window membership at any n reduces to the plain ball
    # test, so every window keeps the plain ball's hits
    rot, mu = make_rotation(), make_lebesgue(circle())
    x = Point(circle(), (0.37,))
    ys = mu.sample_coords(derive_seed(31, "batch"), 1000)
    plain = int(np.count_nonzero(distance(circle(), ys, x.array) <= 0.08))
    assert 0 < plain < 1000
    s = decay_series(rot, mu, x, 0.08, n_max=25, samples=1000, seed=31)
    assert s.counts == (plain,) * 25


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


def test_generator_counts_independent_of_block_size(monkeypatch):
    for f, mu, sided in ((make_doubling(), make_lebesgue(circle()), None),
                         (make_rotation(), make_lebesgue(circle()), "two_sided"),
                         (make_cat(), make_lebesgue(torus2()), None),
                         (make_denjoy(), make_denjoy_minimal(), None)):
        monkeypatch.undo()  # the reference runs at the module's own block size
        cover = make_ball_cover(f.space, radius=0.3, step=0.2)
        kw = dict(n_max=2, sequence_samples=6, mc_samples=2000, seed=47, sided=sided)
        want = generator_check(f, mu, cover, **kw)
        assert max(want.per_sequence) > 0
        for block in (1, 7, 1999, 2000, 2001):
            monkeypatch.setattr(measures, "_BLOCK", block)
            assert generator_check(f, mu, cover, **kw) == want, (f.name, block)
        # a merge target of one pair makes every draw its own kernel block
        monkeypatch.setattr(expansiveness, "_MERGE_PAIRS", 1)
        for block in (7, 2001):
            monkeypatch.setattr(measures, "_BLOCK", block)
            assert generator_check(f, mu, cover, **kw) == want, (f.name, block, "unmerged")


def _generator_reference(f, mu, cover, n_max, sequence_samples, mc_samples, seed, sided):
    """per_sequence by brute force: every sequence's element at every
    iterate of the window (0..n_max, and -(n_max+1)..-1 two-sided)
    checked on every sample, each sequence rebuilt from its own streams."""
    window = range(-(n_max + 1) if sided == "two_sided" else 0, n_max + 1)
    centers = np.stack([b.center.array for b in cover])
    r = cover[0].radius

    def orbit(x):  # {i: f^i(x) for i in the window}
        out = {0: x}
        for i in range(1, n_max + 1):
            out[i] = f.forward(out[i - 1])
        for i in range(-1, window.start - 1, -1):
            out[i] = f.inverse(out[i + 1])
        return out

    n_adv = sequence_samples // 2
    pilots = orbit(mu.sample_coords(derive_seed(seed, "pilots"), n_adv))
    adversarial = [[int(np.argmax(r - distance(f.space, pilots[i][k], centers)))
                    for i in window] for k in range(n_adv)]
    rand = Generator(Philox(key=derive_seed(seed, "random-sequences"))).integers(
        0, len(cover), size=(sequence_samples - n_adv, len(window)))
    ys = orbit(mu.sample_coords(derive_seed(seed, "batch"), mc_samples))
    per_sequence = []
    for seq in [*adversarial, *rand.tolist()]:
        alive = np.ones(mc_samples, dtype=bool)
        for i, e in zip(window, seq):
            alive &= distance(f.space, ys[i], centers[e]) <= r
        per_sequence.append(np.count_nonzero(alive) / mc_samples)
    return tuple(per_sequence)


@pytest.mark.parametrize("n_max", [0, 3])
@pytest.mark.parametrize("make_f, make_mu, sided, step", [
    (make_doubling, None, "one_sided", 0.05),
    (make_rotation, None, "two_sided", 0.05),
    (make_cat, None, "two_sided", 0.2),
    (make_denjoy, make_denjoy_minimal, "two_sided", 0.05),
    (make_tent, None, "one_sided", 0.05),
], ids=["doubling", "rotation", "cat", "denjoy", "tent"])
def test_generator_matches_brute_force_reference(make_f, make_mu, sided, step, n_max):
    f = make_f()
    mu = make_mu() if make_mu else make_lebesgue(f.space)
    cover = make_ball_cover(f.space, radius=0.3, step=step)
    kw = dict(n_max=n_max, sequence_samples=7, mc_samples=3000, seed=49)
    rep = generator_check(f, mu, cover, sided=sided, **kw)
    assert rep.sided == sided and max(rep.per_sequence) > 0
    assert rep.per_sequence == _generator_reference(f, mu, cover, sided=sided, **kw)


@pytest.mark.parametrize("make_f, sided", [(make_doubling, "one_sided"),
                                           (make_rotation, "two_sided"),
                                           (make_cat, "two_sided")])
def test_generator_shares_give_the_same_report(make_f, sided, monkeypatch):
    f = make_f()
    mu = make_lebesgue(f.space)
    cover = make_ball_cover(f.space, radius=0.3, step=0.2)
    reports = []
    for cpus in (1, 2):
        _force_shares(monkeypatch, cpus)
        with expansiveness.recording_kernel() as seen:
            reports.append(generator_check(f, mu, cover, n_max=4, sequence_samples=6,
                                           mc_samples=20_001, seed=50, sided=sided))
        assert seen["kernel_shares"] == cpus and seen["kernel_block_pairs"] > 0
    assert max(reports[0].per_sequence) > 0
    assert reports[1] == reports[0]


def test_generator_refuses_unequal_radii(monkeypatch):
    # the kernel reads one radius; refused before any sample is drawn
    cover = make_ball_cover(circle(), radius=0.1, step=0.05)
    cover[3] = Ball(cover[3].center, 0.2)

    def draw(*args):
        raise AssertionError("sampled before the cover was checked")

    monkeypatch.setattr(measures, "uniform_block", draw)
    with pytest.raises(ValueError,
                       match=r"^cover balls must share one radius, got radii from 0\.1 to 0\.2$"):
        generator_check(make_doubling(), make_lebesgue(circle()), cover, mc_samples=1000)


def test_generator_memory_bounded_in_batch_size(monkeypatch):
    # 1M samples: a dense (sequences, mc_samples) mask with whole-batch
    # (cover elements, mc_samples) distances would peak near 550 MiB
    f, mu = make_rotation(), make_lebesgue(circle())
    cover = make_ball_cover(circle(), radius=0.1, step=0.05)
    g, peak = _traced_peak(lambda: generator_check(f, mu, cover, n_max=3,
                                                   mc_samples=1_000_000, seed=48))
    assert g.max_intersection_estimate >= 0.15  # an isometry keeps its mass
    assert peak < 64 * 2 ** 20
    # the cat map at the CLI's default cover and budget: 33.1 MiB on two
    # shares while draws were sized by the pairs within the radius, not by
    # the 1/r times larger axis-0 strip _near_pairs builds first
    monkeypatch.setattr(expansiveness, "usable_cpus", lambda: 2)
    cat = make_cat()
    cover = make_ball_cover(cat.space, radius=0.1, step=0.05)
    g, peak = _traced_peak(lambda: generator_check(cat, make_lebesgue(cat.space), cover,
                                                   seed=48))
    assert g.is_generator_evidence
    assert peak < 8 * 2 ** 20


def test_generator_memory_bounded_in_sequence_count():
    # 8192 sequences over a 2000-ball cover: one (pilot, element) slack
    # table for all 4096 pilots would peak near 250 MiB
    f, mu = make_rotation(), make_lebesgue(circle())
    cover = make_ball_cover(circle(), radius=0.001, step=0.0005)
    g, peak = _traced_peak(lambda: generator_check(f, mu, cover, n_max=2,
                                                   sequence_samples=8192,
                                                   mc_samples=1000, seed=48))
    assert len(cover) == 2000 and g.sequences_tested == 8192
    assert peak < 96 * 2 ** 20


def test_diagonal_rejects_single_fubini_probe():
    # one probe has no spread, so the Fubini interval would be NaN
    with pytest.raises(ValueError, match="fubini_probes must be >= 2, got 1"):
        product_diagonal_test(make_doubling(), make_lebesgue(circle()), 0.1, n_max=4,
                              pair_samples=1000, seed=53, fubini_probes=1)


@pytest.mark.parametrize("estimate", [
    lambda mu, n: decay_series(make_rotation(), mu, (0.3,), 0.05, n_max=3, samples=n),
    lambda mu, n: expansiveness_verdict(make_rotation(), mu, 0.05, n_max=3, samples=n),
    lambda mu, n: bk_entropy(make_doubling(), mu, (0.1, 0.05), n_range=(1, 4),
                             samples=n),
    lambda mu, n: generator_check(make_doubling(), mu,
                                  make_ball_cover(circle(), radius=0.3, step=0.2),
                                  n_max=2, sequence_samples=2, mc_samples=n),
    lambda mu, n: product_diagonal_test(make_doubling(), mu, 0.1, n_max=3,
                                        pair_samples=n, fubini_probes=2),
    lambda mu, n: converging_semiorbit_fraction(make_rotation(), mu, samples=n),
    lambda mu, n: periodic_fraction(make_rotation(), mu, samples=n),
], ids=["decay_series", "expansiveness_verdict", "bk_entropy", "generator_check",
        "product_diagonal_test", "converging_semiorbit_fraction", "periodic_fraction"])
def test_sample_floor(estimate):
    mu = make_lebesgue(circle())
    for n in (0, 1, 99):
        with pytest.raises(ValueError, match=f"^need at least 100 samples, got {n}$"):
            estimate(mu, n)
    estimate(mu, 100)


@pytest.mark.parametrize("estimate, name, ceiling", [
    (lambda mu, k: decay_series(make_rotation(), mu, (0.3,), 0.05, n_max=k, samples=100),
     "n_max", MAX_WINDOW),
    (lambda mu, k: expansiveness_verdict(make_rotation(), mu, 0.05, n_max=k, samples=100),
     "n_max", MAX_WINDOW),
    (lambda mu, k: expansiveness_verdict(make_rotation(), mu, 0.05, n_max=3, samples=100,
                                         x_probes=k),
     "x_probes", MAX_PROBES),
    (lambda mu, k: bk_entropy(make_doubling(), mu, (0.1, 0.05), n_range=(1, k),
                              samples=100),
     "n_hi", MAX_WINDOW),
    (lambda mu, k: bk_entropy(make_doubling(), mu, (0.1, 0.05), n_range=(1, 4),
                              samples=100, x_probes=k),
     "x_probes", MAX_PROBES),
    (lambda mu, k: generator_check(make_doubling(), mu,
                                   make_ball_cover(circle(), radius=0.3, step=0.2),
                                   n_max=k, sequence_samples=2, mc_samples=100),
     "n_max", MAX_WINDOW),
    (lambda mu, k: generator_check(make_doubling(), mu,
                                   make_ball_cover(circle(), radius=0.3, step=0.2),
                                   n_max=2, sequence_samples=k, mc_samples=100),
     "sequence_samples", MAX_PROBES),
    (lambda mu, k: product_diagonal_test(make_doubling(), mu, 0.1, n_max=k,
                                         pair_samples=100),
     "n_max", MAX_WINDOW),
    (lambda mu, k: product_diagonal_test(make_doubling(), mu, 0.1, n_max=3,
                                         pair_samples=100, fubini_probes=k),
     "fubini_probes", MAX_PROBES),
])
def test_window_and_probe_ceilings(estimate, name, ceiling):
    # refused before an array of that length is allocated; 2.5 used to end
    # in numpy's TypeError
    for k, rule in ((ceiling + 1, f"<= {ceiling}"), (10**12, f"<= {ceiling}"),
                    (2.5, "an integer")):
        with pytest.raises(ValueError, match=rf"^{name} must be {rule}, got {k}$"):
            estimate(make_lebesgue(circle()), k)


def test_fractions_reject_measure_off_space():
    with pytest.raises(SpaceMismatchError):
        periodic_fraction(make_identity(), make_lebesgue(torus2()), max_period=1,
                          samples=1_000)
    with pytest.raises(SpaceMismatchError):
        converging_semiorbit_fraction(make_rotation(), make_lebesgue(torus2()),
                                      samples=1_000)


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
    f = make_denjoy()
    nu = make_denjoy_minimal()
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


@pytest.mark.parametrize("call", [
    lambda f, mu, p: decay_series(f, mu, p, 0.05, n_max=2, samples=1000),
    lambda f, mu, p: iterate(f, p, 1),
], ids=["decay_series", "iterate"])
def test_point_on_another_space_refused(call):
    with pytest.raises(SpaceMismatchError, match="point on torus2, expected circle"):
        call(make_doubling(), make_lebesgue(circle()), Point(torus2(), (0.3, 0.1)))


def test_decay_series_same_for_point_and_raw_coords():
    f, mu = make_rotation(), make_lebesgue(circle())
    for raw in ((0.3,), (2.3,), np.array([-0.7])):
        a = decay_series(f, mu, Point(circle(), raw), 0.05, n_max=6, samples=5000, seed=3)
        b = decay_series(f, mu, raw, 0.05, n_max=6, samples=5000, seed=3)
        assert a == b and type(b.x[0]) is float


def test_decay_series_rejects_raw_center_off_space():
    f, mu = make_interval_square(), make_lebesgue(interval())
    for x, message in (((1.5,), "outside interval bounds"), ((0.2, 0.3), "1-dimensional"),
                       ([[0.3], [0.5]], "expected one point")):
        with pytest.raises(SpaceMismatchError, match=message):
            decay_series(f, mu, x, 0.05, n_max=2, samples=1000)


@pytest.mark.parametrize("n_max", [0, -1])
def test_diagonal_refuses_empty_window_before_drawing(n_max, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew samples")
    monkeypatch.setattr(expansiveness, "sample_blocks", no_draws)
    with pytest.raises(ValueError, match=f"^n_max must be >= 1, got {n_max}$"):
        product_diagonal_test(make_doubling(), make_lebesgue(circle()), 0.1,
                              n_max=n_max, pair_samples=1000)


@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test if anything draws a sample."""
    def refuse(*args, **kwargs):
        raise AssertionError("drew samples")
    monkeypatch.setattr(measures, "uniform_block", refuse)


@pytest.mark.parametrize("call, name", [
    (lambda f, mu, v: decay_series(f, mu, (0.3,), v, n_max=3, samples=1000), "delta"),
    (lambda f, mu, v: expansiveness_verdict(f, mu, v, n_max=3, samples=1000), "delta"),
    (lambda f, mu, v: power_consistency_check(f, mu, 2, (0.1, v), n_max=3, samples=1000),
     "delta"),
    (lambda f, mu, v: product_diagonal_test(f, mu, v, n_max=3, pair_samples=1000), "delta"),
    (lambda f, mu, v: converging_semiorbit_fraction(f, mu, tol=v, samples=1000), "tol"),
    (lambda f, mu, v: periodic_fraction(f, mu, eps=v, samples=1000), "eps"),
    (lambda f, mu, v: bk_entropy(f, mu, (0.1, v), n_range=(1, 3), samples=1000), "delta"),
    (lambda f, mu, v: Ball(Point(circle(), (0.3,)), v), "radius"),
    (lambda f, mu, v: make_ball_cover(circle(), 0.1, v), "step"),
], ids=["decay_series", "expansiveness_verdict", "power_consistency_check",
        "product_diagonal_test", "converging_semiorbit_fraction", "periodic_fraction",
        "bk_entropy", "Ball", "make_ball_cover"])
def test_lengths_finite_and_positive(call, name, no_draws):
    # a NaN radius used to give an isometry evidence_expansive
    for v in (float("nan"), float("inf"), 0, -1):
        message = f"^{name} must be finite and positive, got {re.escape(repr(v))}$"
        with pytest.raises(ValueError, match=message):
            call(make_rotation(), make_lebesgue(circle()), v)


@pytest.mark.parametrize("call, name, ceiling", [
    (lambda k: converging_semiorbit_fraction(make_rotation(), make_lebesgue(circle()),
                                             n_max=k, samples=1000),
     "n_max", MAX_WINDOW),
    (lambda k: periodic_fraction(make_rotation(), make_lebesgue(circle()), max_period=k,
                                 samples=1000),
     "max_period", MAX_WINDOW),
    (lambda k: volume_expanding_check(make_doubling(), horizon=k), "horizon", MAX_WINDOW),
    (lambda k: volume_expanding_check(make_doubling(), probes=k), "probes", MAX_PROBES),
    (lambda k: power_consistency_check(make_rotation(), make_lebesgue(circle()), k,
                                       (0.1,), n_max=3, samples=1000),
     "k", MAX_WINDOW),
], ids=["converging_semiorbit_fraction", "periodic_fraction", "volume_expanding_check-horizon",
        "volume_expanding_check-probes", "power_consistency_check"])
def test_api_counts_have_ceilings(call, name, ceiling, no_draws):
    # these windows and counts were unbounded: max_period=10**12 looped 10**12 times
    for k, rule in ((ceiling + 1, f"<= {ceiling}"), (10**12, f"<= {ceiling}"),
                    (2.5, "an integer")):
        with pytest.raises(ValueError, match=rf"^{name} must be {rule}, got {k}$"):
            call(k)


@pytest.mark.parametrize("call", [
    lambda f, mu, s: decay_series(f, mu, (0.3,), 0.05, n_max=3, samples=1000, seed=s),
    lambda f, mu, s: expansiveness_verdict(f, mu, 0.05, n_max=3, samples=1000, seed=s),
    lambda f, mu, s: bk_entropy(f, mu, (0.1, 0.05), n_range=(1, 3), samples=1000, seed=s),
    lambda f, mu, s: generator_check(f, mu, make_ball_cover(circle(), 0.3, 0.2), n_max=2,
                                     sequence_samples=2, mc_samples=1000, seed=s),
    lambda f, mu, s: periodic_fraction(f, mu, samples=1000, seed=s),
], ids=["decay_series", "expansiveness_verdict", "bk_entropy", "generator_check",
        "periodic_fraction"])
def test_one_seed_rule(call):
    # decay_series used to fail in numpy's words and the others to hash -1
    for seed, message in ((-1, "seed must be >= 0, got -1"),
                          (2**64, f"seed must be <= {2**64 - 1}, got {2**64}"),
                          (1.5, "seed must be an integer, got 1.5")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(make_rotation(), make_lebesgue(circle()), seed)


@pytest.mark.parametrize("call", [
    lambda f, mu, grid: power_consistency_check(f, mu, 2, grid, n_max=3, samples=1000),
], ids=["power_consistency_check"])
def test_grid_needs_distinct_radii(call, no_draws):
    # power_consistency_check used to report consistent=False from no radii
    for grid, want, got in (((), 1, 0), ((0.1, 0.1), 2, 1), ((0.1, 0.05, 0.1), 3, 2)):
        with pytest.raises(ValueError,
                           match=f"^distinct radii in delta_grid must be >= {want}, got {got}$"):
            call(make_rotation(), make_lebesgue(circle()), grid)


@pytest.mark.parametrize("call, message", [
    (lambda mu: expansiveness_verdict(make_rotation(), mu, 0.05, n_max=2.5, samples=1000),
     "n_max must be an integer, got 2.5"),
    (lambda mu: expansiveness_verdict(make_rotation(), mu, 0.05, n_max=3, samples=1e4),
     "samples must be an integer, got 10000.0"),
    (lambda mu: expansiveness_verdict(make_rotation(), mu, 0.05, n_max=3, samples=1000,
                                      x_probes=20.5),
     "x_probes must be an integer, got 20.5"),
    (lambda mu: decay_series(make_rotation(), mu, (0.3,), 0.05, n_max=True, samples=1000),
     "n_max must be an integer, got True"),
    (lambda mu: generator_check(make_doubling(), mu, make_ball_cover(circle(), 0.3, 0.2),
                                n_max=2.5, mc_samples=1000),
     "n_max must be an integer, got 2.5"),
    (lambda mu: expansiveness_verdict(make_rotation(), mu, np.float64("nan")),
     "delta must be finite and positive, got nan"),
    (lambda mu: bk_entropy(make_doubling(), mu, np.array([0.1, 0.0]), samples=1000),
     "delta must be finite and positive, got 0.0"),
    (lambda mu: decay_series(make_rotation(), mu, (0.3,), 0.05, samples=np.int64(10)),
     "need at least 100 samples, got 10"),
    (lambda mu: expansiveness_verdict(make_rotation(), mu, '0.1'),
     "delta must be a number, got '0.1'"),
    (lambda mu: expansiveness_verdict(make_rotation(), mu, 0.1, threshold='x'),
     "threshold must be a number, got 'x'"),
    (lambda mu: bk_entropy(make_doubling(), mu, 0.1),
     "delta_grid must be a sequence of radii, got 0.1"),
], ids=["verdict-n_max", "verdict-samples", "verdict-x_probes", "decay-n_max-bool",
        "generator-n_max", "verdict-numpy-nan", "entropy-numpy-grid",
        "decay-numpy-samples", "verdict-text-delta", "verdict-text-threshold",
        "entropy-one-radius"])
def test_counts_are_integers_and_echoed_as_python(call, message, no_draws):
    # a float count used to end in numpy's TypeError, a bool ran as 1, and
    # a numpy scalar was echoed as np.float64(nan); a radius or threshold
    # that is no number, or a grid that is one radius, also ended in a TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(make_lebesgue(circle()))


def test_count_arrays_refused_before_allocation():
    # a (1, 10**6, 1000) int64 array is 7.45 GiB: numpy's MemoryError
    ys = np.zeros((10**6, 1))
    f, mu = make_rotation(), make_lebesgue(circle())
    for call, shape in (
            (lambda: survival_counts(f, mu, 1, 100, ys, [0.05], "one_sided", 1000),
             (1, 10**6, 1000)),
            (lambda: survival_counts(f, mu, 1, 100, np.zeros((10_000, 1)),
                                     np.linspace(0.1, 0.2, 11), "one_sided", 1000),
             (11, 10_000, 1000))):
        message = (f"cells in a {shape} count array must be <= {MAX_PROBES * MAX_WINDOW}, "
                   f"got {np.prod(shape)}")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
            assert tracemalloc.get_traced_memory()[1] < 8 * 2**20
        finally:
            tracemalloc.stop()
    # the largest array allowed is what a verdict at both ceilings holds
    check_cells(1, MAX_PROBES, MAX_WINDOW)
