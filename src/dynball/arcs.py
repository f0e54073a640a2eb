"""The survival kernel's arc walk, for maps that keep the order of a 1-D space.

A homeomorphism of the circle keeps the cyclic order of its points, and
one of the interval their plain order, so the rows of a sorted sample
block that lie within a radius of a point stay one cyclic run of the
block after every step.  ``advance`` holds each (radius, path) survivor
set as such a run, a start and a length, and counts a window's survivors
as the runs' lengths: each window costs O(rows + radii x paths x log
rows), where the pair walk of ``expansiveness._advance_pairs`` costs
O(pairs).  ``expansiveness._path_counts`` chooses the walk per call
(``keeps_order`` and ``expansiveness._ARC_FLOOR``), and a block whose
images break either condition that makes the runs exact is walked again
with pairs.  Counts equal the pair walk's bit for bit.
"""
from __future__ import annotations

import numpy as np

from . import geometry as geo
from .measures import MeasureSpec, block_rows, sample_blocks
from .systems import SystemSpec

# _runs moves a run's ends at most this many times before it gives the
# block to the pair walk: searchsorted of the folded radius bounds misses
# an end only by rows within a few ulps of a bound
_SETTLE_STEPS = 8


def keeps_order(f: SystemSpec) -> bool:
    """Whether one step of f keeps the order of a fixed sorted grid of 64
    points: the cyclic order on the circle, the plain order on the
    interval (``_cyclic_start``).  The rotation, the gapped circle, the
    identity and the interval square pass; doubling and the tent do not."""
    img = f.forward((np.arange(64.0) + 0.5)[:, None] / 64)[:, 0]
    return _cyclic_start(img, f.space.periodic, np.empty(len(img), dtype=bool)) is not None


def _cyclic_start(col: np.ndarray, periodic: bool, buf: np.ndarray):
    """k such that col[k:] followed by col[:k] is ascending, or None.

    On the interval col itself must ascend (k = 0).  On the circle it may
    descend once, and then its last value must not exceed its first; its
    values must also lie in [0, 1).  A circle value of 1.0, which
    ``geometry.wrap01`` gives for a tiny negative input, is the point 0.0,
    but its computed distance from a center c below 1/2, 1 - fl(1 - c),
    can fall below c, so rows near 0.0 would no longer get nearer to c in
    order.  A NaN counts as a descent.  buf is a bool scratch array of at
    least len(col) - 1 entries."""
    rise = np.less_equal(col[:-1], col[1:], out=buf[:len(col) - 1])
    drops = len(rise) - np.count_nonzero(rise)
    if not drops:
        k = 0
    elif drops == 1 and periodic and col[-1] <= col[0]:
        k = int(rise.argmin()) + 1
    else:
        return None
    if periodic and not (col[k] >= 0.0 and col[k - 1] < 1.0):  # the least and largest values
        return None
    return k


def blocks(mu: MeasureSpec, key: int, start: int, stop: int, rows: int):
    """Yield (first sample index, rows) for rows start..stop of mu's batch
    under key, one share's range (``expansiveness._path_counts``):
    consecutive draws of ``rows`` rows merged into blocks of up to
    ``measures.block_rows()`` rows, each sorted.  The draws are written
    into one block array, so no more than it and one draw are held."""
    step = max(1, block_rows() // rows) * rows
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        ys, at = np.empty((hi - lo, mu.space.dim)), 0
        for draw in sample_blocks(mu, key, hi, rows, start=lo):
            ys[at:at + len(draw)] = draw
            at += len(draw)
        del draw
        ys.sort(axis=0)
        yield lo, ys


def advance(f: SystemSpec, deltas: np.ndarray, path, ys: np.ndarray):
    """counts[d, p, n-1] of the rows ys, sorted, within deltas[d] of path p
    through window n, as ``expansiveness._advance_pairs`` counts them; None
    if the block must be walked with pairs instead.

    The survivors of each (radius, path) are one cyclic run of the rows,
    held as its start and length.  Each window steps the rows as the pair
    walk does, finds on each side the run of rows whose images lie within
    the radius of the path's point (``_runs``) and intersects it with
    the last run (``_meet``, skipped when every new run holds its last
    one); a count is a run's length.  Two conditions make that exact, and
    are checked on every side: the images lie in cyclic order
    (``_cyclic_start``), so the rows within a radius of a point form one
    cyclic run; and two runs meet in one piece.  If either fails the call
    returns None.

    The rows are cut to those some run at the largest radius, which holds
    the smaller radii's runs of its path, still covers (``_union``),
    once fewer than half the rows of the last cut remain, as the pair walk
    compacts its rows; two-sided, window 1's forward runs may cut them
    before the first inverse.  A lower bound on that union, kept as runs
    shrink, spares finding it where it cannot have halved."""
    fwd, bwd = path
    sides = (fwd,) if bwd is None else (fwd, bwd)
    counts = np.zeros((len(deltas), fwd.shape[1], len(fwd)), dtype=np.int64)
    # each window's, side's and run's radius bounds, folded onto the circle
    pts = np.stack([p[:, None, :, 0] for p in sides], axis=1)  # (window, side, 1, path)
    lo, hi = pts - deltas[:, None], pts + deltas[:, None]
    wraps = np.zeros(lo.shape, dtype=np.intp)
    if f.space.periodic:
        wraps += (lo < 0.0) | (hi > 1.0)
        lo, hi = np.where(lo < 0.0, lo + 1.0, lo), np.where(hi > 1.0, hi - 1.0, hi)
    bounds = np.stack([lo, hi], axis=2)  # (window, side, 2, radius, path)
    rows = len(ys)
    start = np.zeros(counts.shape[:2], dtype=np.intp)
    length = np.full(counts.shape[:2], rows, dtype=np.intp)
    buf = np.empty(rows, dtype=bool)
    top = int(np.argmax(deltas))  # its runs hold every other radius's
    imgs = [ys] * len(sides)
    compacted = covered = rows  # rows at the last cut, and a lower bound on the union
    total = rows * counts.shape[1]  # the top runs' lengths when covered was found
    for n in range(1, counts.shape[2] + 1):
        # window 1's forward side steps nothing, and its runs cut the rows
        # before the first inverse, as the pair walk's draws are cut
        for group in ([0], [1]) if n == 1 and bwd is not None else (list(range(len(sides))),):
            held = int(length[top].sum())
            if not held:  # no run left: every later count is 0
                break
            if 2 * (covered - (total - held)) < compacted:
                first, end = _union(start[top], length[top], rows)
                covered, total = int((end - first).sum()), held
                if 2 * covered < compacted:
                    keep = np.zeros(rows + 1, dtype=np.int8)
                    keep[first], keep[end] = 1, -1
                    live = np.flatnonzero(np.cumsum(keep[:rows]))
                    imgs = [np.take(y, live, axis=0) for y in imgs]  # see expansiveness._compact
                    start = np.where(length > 0, np.searchsorted(live, start), 0)
                    rows = compacted = len(live)
            for side in group:
                if side:
                    imgs[1] = f.inverse(imgs[1])
                elif n > 1:
                    imgs[0] = f.forward(imgs[0])
            runs = _runs(f.space, [imgs[side][:, 0] for side in group], pts[n - 1, group],
                         bounds[n - 1, group], wraps[n - 1, group], deltas, buf)
            if runs is None:
                return None
            s, m = runs
            if not np.all((start - s) % rows + length <= m):  # some new run cuts its last one
                for side in range(len(group)):
                    met = _meet(start, length, s[side], m[side], rows)
                    if met is None:
                        return None
                    start, length = met
        counts[:, :, n - 1] = length
    return counts


def _union(start: np.ndarray, length: np.ndarray, rows: int):
    """(lo, hi): the disjoint ascending ranges [lo[j], hi[j]) of the row
    indices 0..rows-1 that the cyclic runs (start, length) cover, each
    apart from the next."""
    s = start[length > 0]
    e = s + length[length > 0]
    wraps = e > rows
    lo = np.concatenate([s, np.zeros(np.count_nonzero(wraps), dtype=np.intp)])
    hi = np.concatenate([np.minimum(e, rows), e[wraps] - rows])
    order = np.argsort(lo)
    lo, hi = lo[order], np.maximum.accumulate(hi[order])
    first = np.flatnonzero(np.r_[True, lo[1:] > hi[:-1]])
    return lo[first], hi[np.r_[first[1:] - 1, len(lo) - 1]]


def _runs(space: geo.SpaceDescriptor, cols, c: np.ndarray, bounds: np.ndarray,
          wraps: np.ndarray, deltas: np.ndarray, buf: np.ndarray):
    """(start, length)[side, d, p]: the cyclic run of the rows whose image
    cols[side] lies within deltas[d] of c[side, 0, p], or None
    (``advance``).  bounds[side] holds the folded [c - delta, c +
    delta] and wraps[side] whether they wrap round the circle.

    Along cols[side] in cyclic order from k (``_cyclic_start``) the
    values ascend, and fl(c - y), its absolute value and 1 - that are each
    monotone in y, so d(c, y) falls to its least value and rises again
    once round the circle: the rows within a radius are one cyclic run.
    Its ends are found by ``searchsorted`` of the bounds in the two
    ascending pieces (``_rank``), then moved, with ``geometry.distance``
    as the pair walk evaluates it, until the distance is within the radius
    at both ends and beyond it just outside them: the run is then exactly
    the rows within the radius.  Rows of equal value lie at equal
    distance, so an end moves past all the rows that share its boundary
    row's value at once, and a measure with atoms settles as fast as one
    without."""
    rows = len(cols[0])
    pieces, shift = [], np.empty((len(cols), 1, 1, 1), dtype=np.intp)
    s, e = np.empty((2,) + wraps.shape, dtype=np.intp)  # positions in each side's order
    for side, col in enumerate(cols):
        k = _cyclic_start(col, space.periodic, buf)
        if k is None:
            return None
        pieces.append((col[k:], col[:k]) if k else (col,))
        s[side], e[side] = _rank(pieces[side], bounds[side], "left")
        shift[side] = k  # position p is row (p + k) % rows
    e += wraps * rows
    np.minimum(e, s + rows, out=e)
    c = c[:, :, None, :, None]  # against the four rows at each run's ends
    at = np.empty((len(cols), 4) + s.shape[1:], dtype=np.intp)
    vals = np.empty(at.shape)
    for _ in range(_SETTLE_STEPS):
        # the first and last rows of each run, and the rows just outside it
        at[:, 0], at[:, 3] = s, e
        np.subtract(e, 1, out=at[:, 1])
        np.subtract(s, 1, out=at[:, 2])
        rows_at = (at + shift) % rows
        for side, col in enumerate(cols):
            col.take(rows_at[side], out=vals[side], mode="clip")  # "raise" would buffer
        near = geo.distance(space, c, vals[..., None]) <= deltas[:, None]
        m = e - s
        if near[:, :2].all() and not near[:, 2:].any() and m.min() > 0 and m.max() < rows:
            break
        empty, full = m == 0, m == rows
        cut_lo, cut_hi = ~near[:, 0] & ~empty, ~near[:, 1] & ~empty
        grow_lo, grow_hi = near[:, 2] & ~full & ~cut_lo, near[:, 3] & ~full & ~cut_hi
        if not (cut_lo | cut_hi | grow_lo | grow_hi).any():
            break
        lap = at - at % rows  # the turn of the circle each of the four rows is on
        for side, order in enumerate(pieces):
            left = lap[side] + _rank(order, vals[side], "left")
            right = lap[side] + _rank(order, vals[side], "right")
            s[side] = np.where(cut_lo[side], right[0], np.where(grow_lo[side], left[2], s[side]))
            e[side] = np.where(cut_hi[side], left[1], np.where(grow_hi[side], right[3], e[side]))
        turn = s - s % rows
        s -= turn
        e -= turn
        e = np.clip(e, s, s + rows)
    else:
        return None
    return (s + shift[..., 0]) % rows, e - s


def _rank(pieces, values: np.ndarray, side: str) -> np.ndarray:
    """Where values fall in the ascending concatenation of pieces, each
    ascending: ``searchsorted`` summed over the pieces."""
    rank = pieces[0].searchsorted(values, side)
    for piece in pieces[1:]:
        rank += piece.searchsorted(values, side)
    return rank


def _meet(s0, n0, s1, n1, rows: int):
    """The cyclic run where the runs (s0, n0) and (s1, n1) of ``rows`` rows
    meet, or None if some pair of them meets in two pieces."""
    o = (s1 - s0) % rows  # run 1 from run 0's start
    a = np.maximum(np.minimum(o + n1, n0) - o, 0)  # the piece [o, o + a) of run 0
    b = np.maximum(np.minimum(o + n1 - rows, n0), 0)  # and the piece [0, b) it wraps onto
    whole = n0 == rows
    if np.any((a > 0) & (b > 0) & (b < o) & ~whole):
        return None
    return np.where(whole | (b == 0), s1, s0), np.where(whole, n1, a + b)
