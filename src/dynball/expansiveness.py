"""Dynamical-ball survival estimators and expansiveness verdicts.

A point y survives window n around a center x when every orbit
comparison d(f^i(x), f^i(y)) <= delta holds for i in the window:
one_sided uses 0 <= i < n, two_sided uses -n <= i < n.  Windows are
nested, so survival counts from a single sample batch are exactly
nonincreasing in n, and the terminal count estimates the measure of the
infinite-window set (the liminf of the window measures).

``survival_counts``, ``generator_check`` and ``product_diagonal_test``
hand their candidate pairs to one pair kernel, ``_advance_pairs``, whose
single loop walks every window, window 1 included.  It keeps only the
pairs still alive, each with its running maximum distance, so all radii
are read from one array and a pair is dropped once it exceeds the
largest radius.  The center side of every pair is gathered from a path
given per window: the centers' orbit, stepped once per call
(``_orbit``), or the cover centers a generator sequence prescribes.  On
the sample side only the points some pair referenced at the last row
compaction are stepped forward or, two-sided, inverted.  No step is
dense: every window needs d(x, y) within the largest radius, so
``_path_counts`` sorts each sample draw on axis 0 and ``_near_pairs``
finds the candidates by binary search in the centers' axis-0 strips (on
the torus, cut to the pairs within that radius); with one center the
draw is first cut to that center's strip, and only those rows are
sorted.  For a measure-expansive map the alive set shrinks
geometrically, and even for an isometry it is about 2*delta of the pairs
from window 1 on.

Every estimator here draws its sample budget through the block generator
``measures.sample_blocks`` and sums its counts block by block, so working
memory does not grow with the budget and the counts equal a whole-batch
draw's exactly.  How many sample shares ``_path_counts`` splits a call
into, each after the first in a forked process (``_forked``), and how
many rows its draws hold is decided in one place, ``_plan``, from the
axis-0 strip ``_near_pairs`` searches, never from a measure's oracle; no
count depends on it.
A kernel block is consecutive draws merged until it holds
``_MERGE_PAIRS`` window-1 pairs (``_pair_blocks``), so a narrow call,
such as a one-center decay, pays the kernel's per-window cost once per
merged block rather than once per draw.

A verdict at radius delta is Monte-Carlo evidence, never proof:
``evidence_expansive`` when even the worst probe's terminal upper
confidence bound is at or below the threshold, ``evidence_not_expansive``
when some probe's lower bound stays at or above it (that probe is the
witness), ``inconclusive`` otherwise.
"""
from __future__ import annotations

import math
import os
import pickle
import sys
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox

from . import geometry as geo
from .errors import CapabilityError, DynballError, SpaceMismatchError
from .measures import MeasureSpec, block_rows, sample_blocks
from .rng import derive_seed
from .stats import (MAX_CELLS, MAX_PROBES, MAX_WINDOW, check_cells, check_count, check_grid,
                    check_length, check_samples, check_threshold, wilson_interval)
from .systems import SystemSpec, compose_power

ONE_SIDED = "one_sided"
TWO_SIDED = "two_sided"
# every spelling of a window's sides that resolve_sided takes
SIDED = {"one": ONE_SIDED, "two": TWO_SIDED, ONE_SIDED: ONE_SIDED, TWO_SIDED: TWO_SIDED}

# a draw of _path_counts holds about this many window-1 candidate
# pairs in _near_pairs' axis-0 strip, unless measures.block_rows caps
# it lower.  The pairs, not the rows, set the kernel's working memory: a
# default entropy (30 probes, radius 0.1) capped only by rows kept 393k
# pairs in flight.  Draws the row cap leaves narrower are merged into
# kernel blocks of _MERGE_PAIRS pairs (_pair_blocks).
_PAIR_BLOCK = 1 << 15

# _pair_blocks merges consecutive draws into one kernel block until it
# holds at least this many window-1 pairs (at most _PAIR_BLOCK).  The
# kernel makes some 25 numpy calls per window whatever the block's size,
# and a one-center draw (65,536 rows at radius 0.05) holds only 6.7k
# pairs, so a block of two such draws pays that cost half as often.  On
# one-center rotation counts this target was faster than every draw its
# own block, and 1 << 15 (39k pairs) held more memory for a gain inside
# the runs' spread (CHANGES.md, "One-center kernel calls fill their pair
# budget" and "One-center draws cut to the center's strip";
# BENCH_27.json).
_MERGE_PAIRS = 1 << 13

# _path_counts forks a process for each sample share after the first
# only when every share's samples should hold at least this many window-1
# candidate pairs in all, expected over the share's whole sample range,
# not per block.  On one-center decays two shares did not repay the fork
# and the wait for the child reliably below this, and did above it
# (CHANGES.md, "Sample shares in forked processes").  A share forks
# rather than runs on a thread because the kernel's many short numpy
# calls hand the interpreter lock back and forth: a second thread gained
# nothing, and a forked share holds a lock of its own (BENCH_32.json).
_PAIR_FLOOR = 1 << 16

# the open record of recording_kernel, per thread and context
_record: ContextVar[Optional[dict]] = ContextVar("kernel_record", default=None)


def resolve_sided(f: SystemSpec, sided: str | None) -> str:
    """Default: bi-infinite windows for invertible systems, forward otherwise."""
    if sided is None:
        return TWO_SIDED if f.invertible else ONE_SIDED
    if sided not in SIDED:
        raise ValueError(f"sided must be one_sided or two_sided, got {sided!r}")
    sided = SIDED[sided]
    if sided == TWO_SIDED and not f.invertible:
        raise CapabilityError(f"{f.name} has no inverse; two_sided windows unavailable")
    return sided


def sided_for(f: SystemSpec, mu: MeasureSpec, sided: str | None = None) -> str:
    """``resolve_sided``, after refusing a measure mu that is not on f's space."""
    if mu.space != f.space:
        raise SpaceMismatchError("system and measure must share a space")
    return resolve_sided(f, sided)


def survival_counts(f: SystemSpec, mu: MeasureSpec, key: int, samples: int,
                    centers: np.ndarray, deltas: Sequence[float], sided: str,
                    n_max: int) -> np.ndarray:
    """counts[d, p, n-1] = samples within deltas[d] of center p's orbit
    through window n, from ``_path_counts`` along the orbit ``_orbit``
    steps once per call (f^(n-1) for n = 1..n_max, and f^-n two-sided).
    The orbit holds at most 2 * dim floats per count-array cell, and
    neither is allocated if the array exceeds ``stats.MAX_CELLS``.
    Callers check n_max >= 1 and the radii.
    """
    deltas = np.asarray(list(deltas), dtype=float)
    two = resolve_sided(f, sided) == TWO_SIDED
    check_cells(len(deltas), len(centers), n_max)
    return _path_counts(f, mu, key, samples, _orbit(f, centers, n_max, two), deltas)


def _path_counts(f: SystemSpec, mu: MeasureSpec, key: int, samples: int, path,
                 deltas: np.ndarray) -> np.ndarray:
    """counts[d, p, n-1] = samples y within deltas[d] of path p through
    window n: d(fwd[i, p], f^i(y)) <= deltas[d] for 0 <= i < n and,
    two-sided, d(bwd[i, p], f^-(i+1)(y)) <= deltas[d] too.  path is
    (fwd, bwd) as ``_orbit`` returns it, bwd None one-sided, but need not
    be an orbit.  One batch, mu.sample_coords(key, samples), serves every
    cell; the caller checks the cells against ``stats.MAX_CELLS``.

    Each draw of the batch is sorted on axis 0 and ``_near_pairs`` finds,
    by binary search, the (path, sample) pairs with d(fwd[0], y) near
    enough the largest radius, which every window requires (a one-path
    call's draw is first cut to that path's axis-0 strip, and only the
    rows kept are sorted); ``_pair_blocks`` merges consecutive draws into
    kernel blocks and ``_advance_pairs`` walks each block's pairs through
    every window, window 1 included.  Counts are sums over samples, so the
    order of a block's rows cannot change them.  Sorting pays twice: no
    (path, draw) distance matrix is built, and a circle homeomorphism
    keeps each draw's rows in cyclic order, which the kernel's row
    compaction preserves, so every later map evaluation on them (the
    gapped circle's ``np.interp``) finds each point's knot next to the
    last one's.

    ``_plan`` picks the shares and the rows per draw.  Each share's
    sample indices are walked block by block into its own count array,
    share 0 in the caller and shares 1.. each in a child process forked
    for it (``_forked``), and the arrays are summed.  An exception raised
    in any share reaches the caller with its type and message.  The
    shares and the most pairs any block held go to ``recording_kernel``.
    """
    fwd, bwd = path
    shape = (len(deltas), fwd.shape[1], len(fwd))
    dmax = deltas.max(initial=0.0)
    shares, rows = _plan(samples, shape[1], dmax, math.prod(shape))

    def share(w):  # (counts, most pairs in a block) of share w's samples
        counts, most = np.zeros(shape, dtype=np.int64), 0
        for yf, xi, yi in _pair_blocks(mu, key, samples * w // shares,
                                       samples * (w + 1) // shares, rows, fwd[0], dmax):
            most = max(most, len(xi))
            _advance_pairs(f, deltas, counts, path, yf, xi, yi, xi)
        return counts, most

    with _forked(share, range(1, shares)) as rest:
        counts, most = share(0)
        for c, m in rest:
            counts += c
            most = max(most, m)
    _note(kernel_shares=shares, kernel_block_pairs=most)
    return counts


@contextmanager
def _forked(work, args):
    """Run work(a) for each a in args, each in a child process forked for
    it, and yield a generator of their values in the order of args
    (``_reap``).  A child not yet reaped when the block ends, because
    the block or a child raised, is killed and reaped then: no child
    outlives the block.  Forking is the caller's decision (``_plan``)."""
    live = []  # (pid, read end of its pipe) of the children not yet reaped

    def values():
        while live:
            yield _reap(*live.pop(0))

    try:
        for a in args:
            live.append(_fork(work, a))
        yield values()
    finally:
        if live:
            import signal  # only on this failure path: the package never loads it otherwise
            for pid, fd in live:
                os.kill(pid, signal.SIGKILL)
                os.close(fd)
                os.waitpid(pid, 0)


def _fork(work, arg):
    """(pid, fd): a child forked to run work(arg), and the read end of the
    pipe to which it writes the pickled (True, value) or, if work raised,
    (False, exception).  The child leaves only by ``os._exit``, so it never
    returns into the caller's frames, runs no exit handler and flushes no
    buffer it shares with the parent."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    status = 1
    try:
        os.close(r)
        try:
            out = True, work(arg)
        except BaseException as exc:
            out = False, exc
        try:
            data = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
        except Exception:  # an exception pickle cannot carry: keep its type's name and message
            data = pickle.dumps((False, DynballError(f"{type(out[1]).__name__}: {out[1]}")))
        with open(w, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, fd: int):
    """The value a child of ``_fork`` sent, read from fd to its end once the
    child has been reaped.  The exception it sent is raised again, with its
    type and message, and a child that sent nothing, as one killed by a
    signal, raises a DynballError."""
    try:
        with open(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code or not data:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise DynballError(f"the sample share in process {pid} {how} before it sent its counts")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _pair_blocks(mu: MeasureSpec, key: int, start: int, stop: int, rows: int,
                 centers: np.ndarray, dmax: float):
    """Yield kernel blocks (ys, xi, yi) for rows start..stop of mu's batch
    under key, one share's range (``_path_counts``): yi indexes ys, and
    xi, ascending, the centers.

    The rows are drawn ``rows`` at a time.  Each draw is sorted on axis 0
    and cut to the rows a candidate pair within dmax of the centers
    (``_near_pairs``) references (``_compact``).  With one center only the
    rows in its axis-0 strip (``_strip``) can pair, about 2 dmax of the
    draw, so the draw is cut to them, by comparison on the unsorted rows,
    before it is sorted.  Only the ranges that reach [0, 1], where the
    rows lie, are compared: one unless the strip wraps, a few times faster
    than all three (CHANGES.md, "One-center draws cut to the center's
    strip").
    Consecutive draws are then merged into one block until it holds
    ``_MERGE_PAIRS`` pairs, or ``_PAIR_BLOCK`` if that is lower
    (``_merged``), so a block holds less than that target plus one draw's
    pairs.  A draw at or above the target, as a verdict's or an entropy's
    are, is a block of its own, and a draw with no pair is in no block.

    The whole draw and the old yi are let go before the yield, not held
    while the kernel walks the pairs, so they add nothing to its peak: a
    held old yi raised a one-share denjoy verdict's ``tracemalloc`` peak
    (CHANGES.md, "One determinism table").
    """
    target, parts, held = min(_MERGE_PAIRS, _PAIR_BLOCK), [], 0
    strip = None
    if len(centers) == 1:  # its ranges that reach [0, 1], where the rows lie
        lo, hi, _ = _strip(mu.space, centers[:, 0], dmax)
        strip = [(a, b) for a, b in zip(lo[0], hi[0]) if a <= 1.0 and b > 0.0]
    for ys in sample_blocks(mu, key, stop, rows, start=start):
        if strip is not None:  # keep the rows in the center's strip
            y, (a, b), *more = ys[:, 0], *strip
            keep = (y >= a) & (y < b)
            for a, b in more:
                keep |= (y >= a) & (y < b)
            ys = np.compress(keep, ys, axis=0)
            del y, keep
        if ys.shape[1] == 1:
            ys.sort(axis=0)  # a fresh array, so sorted in place
        else:
            ys = np.take(ys, np.argsort(ys[:, 0]), axis=0)  # see _compact
        xi, yi = _near_pairs(mu.space, centers, ys, dmax)
        yi, (ys,) = _compact(yi, ys)
        if len(xi):
            parts.append((ys, xi, yi))
            held += len(xi)
        del ys, xi, yi
        if held >= target:
            block, parts, held = _merged(parts), [], 0
            yield block
            del block
    if parts:
        yield _merged(parts)


def _merged(parts):
    """One kernel block (ys, xi, yi) of the draws' blocks in parts: their
    rows concatenated, each yi offset by the rows before its draw, and the
    pairs stably sorted by xi when the draws' center labels interleave
    (``_advance_pairs`` needs them ascending)."""
    if len(parts) == 1:
        return parts[0]
    ys, xi, yi = (np.concatenate(p) for p in zip(*parts))
    starts = np.cumsum([0] + [len(p[0]) for p in parts[:-1]])
    yi += np.repeat(starts, [len(p[1]) for p in parts])
    if np.any(xi[1:] < xi[:-1]):
        order = np.argsort(xi, kind="stable")
        xi, yi = xi[order], yi[order]
    return ys, xi, yi


def _orbit(f: SystemSpec, x: np.ndarray, n_max: int, two: bool):
    """(fwd, bwd) with fwd[n-1] = f^(n-1)(x) and, two-sided, bwd[n-1] =
    f^-n(x) for n = 1..n_max; bwd is None one-sided."""
    fwd = np.empty((n_max,) + x.shape)
    if n_max:
        fwd[0] = x
    for n in range(1, n_max):
        fwd[n] = f.forward(fwd[n - 1])
    if not two:
        return fwd, None
    bwd = np.empty_like(fwd)
    for n in range(n_max):
        bwd[n] = f.inverse(bwd[n - 1] if n else x)
    return fwd, bwd


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _may_fork() -> bool:
    """Whether ``_path_counts`` may fork its shares: only on Linux, from the
    main thread, with no other Python thread alive.  A forked child holds
    only the thread that forked it, so a lock another thread held at the
    fork, such as a battery worker's, would stay held in the child."""
    return (sys.platform.startswith("linux") and threading.active_count() == 1
            and threading.current_thread() is threading.main_thread())


def _plan(samples: int, width: int, dmax: float, cells: int) -> tuple[int, int]:
    """(shares, rows): how ``_path_counts`` spends processes and memory on
    ``samples`` samples, ``width`` paths, largest radius dmax and a count
    array of ``cells`` cells.  The one statement of its share policy:

    - rows: a draw holds about ``_PAIR_BLOCK`` window-1 pairs, estimated
      before drawing as rows x width x min(1, 2 dmax), the axis-0 strip
      ``_near_pairs`` searches on every space (no oracle is read), and
      never more than ``measures.block_rows(width)``, the bound when the
      measure is concentrated near the centers.  A kernel block is
      consecutive draws merged until it holds ``_MERGE_PAIRS`` pairs
      (``_pair_blocks``), so it holds less than ``_MERGE_PAIRS`` more
      than its largest draw.  The pairs in flight in each share's process
      are then about ``_PAIR_BLOCK`` whatever the centers and radius;
    - shares: the samples split into up to ``usable_cpus()`` contiguous
      shares, share 0 in the caller and each other in a forked process,
      as long as every share's samples should hold ``_PAIR_FLOOR``
      window-1 pairs in all and the shares' count arrays together stay
      within ``stats.MAX_CELLS``.  Below that floor a fork costs more
      than it saves, so a default one-center decay keeps one share;
    - where ``_may_fork`` says no (off Linux, off the main thread, or
      with another thread alive, as in a battery worker), one share.

    Integer sums do not depend on the split, and each share's blocks and
    their order are the serial ones, so no count depends on the plan."""
    per_row = width * min(1.0, 2.0 * dmax)  # the axis-0 strip of _near_pairs
    rows = block_rows(width)
    if rows * per_row > _PAIR_BLOCK:
        rows = max(1, math.ceil(_PAIR_BLOCK / per_row))
    w = usable_cpus() if dmax > 0 and _may_fork() else 1
    while w > 1 and (w * cells > MAX_CELLS or samples // w * per_row < _PAIR_FLOOR):
        w -= 1
    return w, rows


def _note(**values: int) -> None:
    """Raise each key of the open record of this thread and context to its value."""
    seen = _record.get()
    if seen is not None:
        for key, value in values.items():
            seen[key] = max(seen[key], value)


@contextmanager
def recording_kernel():
    """Yield a dict that ends holding, over the ``_path_counts`` calls
    (``survival_counts`` and ``generator_check``) made on this thread
    inside the block used, the most shares one call used
    (``kernel_shares``: processes, the caller's and the forked ones) and
    the most window-1 candidate pairs one block handed to the pair kernel
    (``kernel_block_pairs``, each share's blocks and
    ``product_diagonal_test``'s included); each 0 when there was none."""
    seen = dict.fromkeys(("kernel_shares", "kernel_block_pairs"), 0)
    token = _record.set(seen)
    try:
        yield seen
    finally:
        _record.reset(token)


def _strip(space: geo.SpaceDescriptor, c: np.ndarray, r: float):
    """(lo, hi, r): the axis-0 strip around the centers at axis-0
    coordinates c, the half-open ranges [lo[p, s], hi[p, s]) = [c[p] + s -
    r, c[p] + s + r) for s in -1, 0, +1 on a periodic axis (s = 0 only
    otherwise), and r, padded by 1e-9 of the unit axis (see
    ``_near_pairs``).  Every sample within r of center p lies in one of
    its ranges; ``_near_pairs`` searches them and ``_pair_blocks`` cuts a
    one-center draw to them, so the two read the same bounds."""
    r = r + 1e-9
    mid = c[:, None] + (np.array([-1.0, 0.0, 1.0]) if space.periodic else 0.0)
    return mid - r, mid + r, r


def _near_pairs(space: geo.SpaceDescriptor, centers: np.ndarray, ys: np.ndarray,
                r: float) -> tuple[np.ndarray, np.ndarray]:
    """(xi, yi): every pair with distance(centers[xi], ys[yi]) <= r, each
    once, and possibly pairs a little farther; ys must be sorted on axis 0.

    Every metric here is at least its axis-0 distance, so the pairs are
    the ys whose axis-0 coordinate lies in a range of ``_strip``, found by
    ``searchsorted``.  r is first padded by 1e-9 of the unit axis, far
    above the few ulps by which the rounded bounds and the rounded metric
    can disagree.  A periodic axis searches that range shifted by -1, 0
    and +1, and each range is cut to start where the one before it ends:
    the ranges then never share a sample, even at r >= 1/2, where they
    would overlap and together hold every sample.  On the torus that
    axis-0 strip holds about 2r of the block, against the 2r^2 within r,
    so it is cut to the pairs within r in the full metric: the kernel
    would otherwise invert every strip row at window 1.  ``_plan``
    budgets the strip, so it and its cut stay within ``_PAIR_BLOCK``.
    """
    lo, hi, r = _strip(space, centers[:, 0], r)
    lo, hi = np.searchsorted(ys[:, 0], [lo, hi])
    lo[:, 1:] = np.maximum(lo[:, 1:], hi[:, :-1])
    lens = np.maximum(hi - lo, 0).ravel()
    xi = np.repeat(np.arange(len(centers)).repeat(lo.shape[1]), lens)
    first = np.cumsum(lens) - lens  # where each range starts among the pairs
    yi = np.arange(len(xi)) + np.repeat(lo.ravel() - first, lens)
    if space.dim > 1:  # an axis-0 strip: keep its pairs within r in the metric
        a, b = np.take(centers, xi, axis=0), np.take(ys, yi, axis=0)  # see _compact
        near = geo.distance(space, a, b) <= r
        xi, yi = xi[near], yi[near]
    return xi, yi


def _advance_pairs(f: SystemSpec, deltas: np.ndarray, counts: np.ndarray, orbit, yf,
                   xi, yi, label) -> None:
    """Add the survivors of the pairs (x[xi], yf[yi]) to counts.

    orbit is the left points' path over counts.shape[2] windows, as
    ``_path_counts`` takes it (``_orbit(f, x, counts.shape[2], two)`` for
    an orbit; two-sided when its bwd is not None), and yf holds the raw
    right points, each referenced by some pair (a row no pair references
    is stepped until the first compaction).  The pairs may be any superset
    of the survivors.  One loop walks every window, window 1 included: it
    gathers each pair's left side at iterate n-1 (and, two-sided, at -n)
    from the path and steps the right side's rows (no forward step at
    n = 1; the inverse starts from the raw points).  m keeps each pair's
    largest distance so far: counts[d, label, n-1] counts the pairs with
    m <= deltas[d], and a pair is dropped once m exceeds every radius.

    Pairs are dropped every window, but the right side is compacted to the
    rows a pair still references (``_compact``) only once fewer than half
    of the pairs alive at the last compaction, or at the start, remain.
    Until then dead rows are stepped with the live ones (with one pair a
    row, at most as many again), which costs less than a rank table and
    two gathers every window when pairs die slowly, as on the gapped
    circle: on a default denjoy verdict on denjoy-minimal this 1/2 was
    faster than compacting after every drop, at 3/4 or at 1/4 (CHANGES.md,
    "One-center kernel calls fill their pair budget").

    label must be ascending, as the callers' pairs are (grouped by center,
    or all one label), and filtering keeps it so: a label's count is then
    the length of its run, found by ``searchsorted``.  At the largest
    radius every pair left counts, as the drop has already removed the
    rest, so no mask is built: on a one-center block that is an eighth of
    the time of ``np.bincount(label[m <= delta])`` (CHANGES.md,
    "Survival-kernel blocks sized by their expected window-1 pairs").
    Those counts change only when a window drops a pair, so they are found
    again only then: on the rotation no window after the first drops one.

    The gathered points and their distances go to buffers allocated once
    per call, whose prefixes are reused as pairs die.  Fresh temporaries
    of a megabyte or so per window are each mapped and faulted in anew by
    glibc's allocator, which gave a default rotation verdict many times
    the minor page faults and over twice the time (CHANGES.md, "Sorted
    sample blocks").

    A gather that would copy its source is skipped.  A path of one point,
    a one-center call's, is broadcast against every pair.  When pair j's
    right point is row j of yf, as in a one-center block or the diagonal
    test's pairs, the rows are read as they are; filtering keeps yi
    ascending and compaction then renumbers it to 0, 1, ..., so that
    holds again after every compaction.  Each skip made a one-center
    rotation count faster (CHANGES.md, "One-center kernel calls fill their
    pair budget").
    """
    dmax = deltas.max(initial=0.0)
    edges = np.arange(counts.shape[1] + 1)  # label p's run is [edges[p], edges[p+1])
    fwd, bwd = orbit
    two = bwd is not None
    yb = yf if two else None
    gx = np.empty((len(xi), f.space.dim)) if fwd.shape[1] > 1 else None
    gy = np.empty((len(yi), f.space.dim))
    in_order = len(yi) == len(yf) and np.array_equal(yi, np.arange(len(yi)))
    dist = np.empty(len(xi))
    m = np.zeros(len(xi))

    def widen(xs, ys):  # m = max(m, d(xs[xi], ys[yi])) for the current xi, yi, m
        k = len(m)
        a = xs if gx is None else np.take(xs, xi, axis=0, out=gx[:k], mode="clip")
        if in_order and k == len(ys):  # yi is 0, 1, ..., k - 1
            b = ys
        else:
            b = np.take(ys, yi, axis=0, out=gy[:k], mode="clip")  # "raise" would buffer
        np.maximum(m, geo.distance(f.space, a, b, out=dist[:k]), out=m)

    compacted = len(m)  # pairs alive at the last compaction: every row starts referenced
    alive = None  # pairs alive per label, counted again only after a drop
    for n in range(1, counts.shape[2] + 1):
        if not len(m):
            break
        if 2 * len(m) < compacted:
            yi, (yf, yb) = _compact(yi, yf, yb)
            compacted = len(m)
        if n > 1:
            yf = f.forward(yf)
        widen(fwd[n - 1], yf)
        if two:
            yb = f.inverse(yb)
            widen(bwd[n - 1], yb)
        keep = m <= dmax
        if not keep.all():
            same = label is xi  # as _path_counts passes them: compress once
            xi, yi, m = xi[keep], yi[keep], m[keep]
            label = xi if same else label[keep]
            alive = None
        if alive is None:
            alive = np.diff(np.searchsorted(label, edges))
        for d, delta in enumerate(deltas):
            counts[d, :, n - 1] += alive if delta == dmax else np.diff(
                np.searchsorted(label[m <= delta], edges))


def _compact(idx: np.ndarray, *rows):
    """Keep only the rows idx references; return idx renumbered to them:
    the one row cut, of each draw (``_pair_blocks``) and of the kernel's
    rows (``_advance_pairs``).  Rows are gathered with ``np.take``:
    indexing a (count, 2) array with an index array is several times
    slower (CHANGES.md, "Follow-up to the sorted-block change").  idx is
    renumbered through a rank table written at the live rows only.
    ``np.cumsum(mark)`` writes all of a 65,536-row draw's 512 KiB table,
    which glibc maps and faults afresh, and binary search costs more on a
    default entropy, which cuts 175 times a call: a one-center decay and
    that entropy were each slower than with the rank table (CHANGES.md,
    "Lane-dense Philox draws" and "One row cut for the survival
    kernel")."""
    mark = np.zeros(len(rows[0]), dtype=bool)
    mark[idx] = True
    live = np.flatnonzero(mark)  # np.unique(idx) sorts and is far slower
    if len(live) == len(mark):
        return idx, rows
    rank = np.empty(len(mark), dtype=np.intp)
    rank[live] = np.arange(len(live))
    return (rank[idx],
            tuple(None if r is None else np.take(r, live, axis=0) for r in rows))


def _window(f: SystemSpec, coords: np.ndarray, n_max: int, two: bool):
    """Yield (n, f^n(coords)) for n = 0, 1, -1, 2, -2, ... up to |n| = n_max;
    negative n only when the window is two-sided."""
    fwd = bwd = coords
    yield 0, coords
    for n in range(1, n_max + 1):
        fwd = f.forward(fwd)
        yield n, fwd
        if two:
            bwd = f.inverse(bwd)
            yield -n, bwd


@dataclass(frozen=True)
class DecaySeries:
    x: Optional[tuple]
    delta: float
    sided: str
    n: tuple[int, ...]
    counts: tuple[int, ...]
    estimate: tuple[float, ...]
    ci_low: tuple[float, ...]
    ci_high: tuple[float, ...]
    samples: int
    seed: int

    @property
    def terminal(self) -> float:
        return self.estimate[-1]


def _series_from_counts(x, delta, sided, counts_1d, samples, seed) -> DecaySeries:
    est = counts_1d / samples
    lo, hi = wilson_interval(counts_1d, samples)
    return DecaySeries(
        x=tuple(x) if x is not None else None, delta=float(delta), sided=sided,
        n=tuple(range(1, len(counts_1d) + 1)),
        counts=tuple(int(c) for c in counts_1d),
        estimate=tuple(float(v) for v in est),
        ci_low=tuple(float(v) for v in lo), ci_high=tuple(float(v) for v in hi),
        samples=int(samples), seed=int(seed))


def decay_series(f: SystemSpec, mu: MeasureSpec, x, delta: float,
                 sided: str | None = None, n_max: int = 30,
                 samples: int = 100_000, seed: int = 0) -> DecaySeries:
    """Window-measure estimates at a single center from one sample batch."""
    check_samples(samples)
    check_length("delta", delta)
    check_count("n_max", n_max, 1, MAX_WINDOW)
    sided = sided_for(f, mu, sided)
    xs = geo.point_coords(f.space, x)
    counts = survival_counts(f, mu, derive_seed(seed, "batch"), samples, xs, [delta],
                             sided, n_max)
    return _series_from_counts(xs[0].tolist(), delta, sided, counts[0, 0], samples, seed)


@dataclass(frozen=True)
class ExpansivenessVerdict:
    verdict: str
    delta: float
    threshold: float
    sided: str
    x_probes: int
    worst_upper_bound: float
    witness: Optional[tuple]
    witness_lower_bound: float
    n_max: int
    samples: int
    seed: int
    per_probe_terminal: tuple[float, ...] = field(repr=False, default=())
    per_probe_upper: tuple[float, ...] = field(repr=False, default=())
    per_probe_lower: tuple[float, ...] = field(repr=False, default=())


def expansiveness_verdict(f: SystemSpec, mu: MeasureSpec, delta: float,
                          n_max: int = 30, samples: int = 100_000,
                          x_probes: int = 20, threshold: float = 0.01,
                          seed: int = 0, sided: str | None = None) -> ExpansivenessVerdict:
    """Three-valued verdict from terminal window masses at measure-sampled probes.

    Designed error rates, at radius delta and window ``n_max`` and only
    for the probed centers: ``evidence_expansive`` is wrong only if a
    probe whose true terminal mass exceeds the threshold gets a 95% Wilson
    upper bound below that mass, about 2.5%.  ``evidence_not_expansive``
    takes the largest of ``x_probes`` lower bounds with no multiplicity
    correction, so its union bound is ``x_probes * 2.5%``: 50% at the
    default 20 probes when every probe mass sits just under the threshold.
    """
    check_samples(samples)
    check_length("delta", delta)
    check_count("n_max", n_max, 1, MAX_WINDOW)
    check_count("x_probes", x_probes, 20, MAX_PROBES)
    check_threshold(threshold)
    sided = sided_for(f, mu, sided)
    probes = mu.sample_coords(derive_seed(seed, "probes"), x_probes)
    counts = survival_counts(f, mu, derive_seed(seed, "batch"), samples, probes,
                             [delta], sided, n_max)
    terminal = counts[0, :, -1]
    lo, hi = wilson_interval(terminal, samples)
    worst_upper = float(hi.max())
    wit_idx = int(np.argmax(lo))
    witness_lower = float(lo[wit_idx])
    if worst_upper <= threshold:
        verdict, witness = "evidence_expansive", None
    elif witness_lower >= threshold:
        verdict, witness = "evidence_not_expansive", tuple(probes[wit_idx])
    else:
        verdict, witness = "inconclusive", None
    return ExpansivenessVerdict(
        verdict=verdict, delta=float(delta), threshold=float(threshold),
        sided=sided, x_probes=int(x_probes), worst_upper_bound=worst_upper,
        witness=witness, witness_lower_bound=witness_lower,
        n_max=int(n_max), samples=int(samples), seed=int(seed),
        per_probe_terminal=tuple(float(v) for v in terminal / samples),
        per_probe_upper=tuple(float(v) for v in hi),
        per_probe_lower=tuple(float(v) for v in lo))


@dataclass(frozen=True)
class PowerConsistencyReport:
    k: int
    delta_grid: tuple[float, ...]
    verdicts_base: tuple[str, ...]
    verdicts_power: tuple[str, ...]
    matched_pairs: tuple[tuple[float, float], ...]
    consistent: bool


def power_consistency_check(f: SystemSpec, mu: MeasureSpec, k: int,
                            delta_grid: Sequence[float], n_max: int = 20,
                            samples: int = 30_000,
                            seed: int = 0) -> PowerConsistencyReport:
    """Same-verdict evidence for f and f^k over a radius grid.

    A contradiction means one map looks expansive at every tested radius
    while the other looks non-expansive at every tested radius; anything
    short of that is consistent with expansiveness transferring between
    f and its powers at adjusted radii.
    """
    check_count("k", k, 2, MAX_WINDOW)
    check_grid(delta_grid)

    def verdicts(g, tag):
        return [expansiveness_verdict(g, mu, d, n_max=n_max, samples=samples,
                                      seed=derive_seed(seed, tag, repr(d))).verdict
                for d in delta_grid]

    vb, vp = verdicts(f, "base"), verdicts(compose_power(f, k), "power")
    matched = tuple(
        (db, dp)
        for db, b in zip(delta_grid, vb) if b == "evidence_expansive"
        for dp, p in zip(delta_grid, vp) if p == "evidence_expansive")
    exp, not_exp = "evidence_expansive", "evidence_not_expansive"
    contradiction = (all(v == exp for v in vb) and all(v == not_exp for v in vp)) or \
                    (all(v == not_exp for v in vb) and all(v == exp for v in vp))
    return PowerConsistencyReport(
        k=int(k), delta_grid=tuple(float(d) for d in delta_grid),
        verdicts_base=tuple(vb), verdicts_power=tuple(vp),
        matched_pairs=matched, consistent=not contradiction)


@dataclass(frozen=True)
class DiagonalReport:
    pair_series: DecaySeries
    fubini_mean: float
    fubini_ci: tuple[float, float]
    fubini_probes: int
    agree: bool


def product_diagonal_test(f: SystemSpec, mu: MeasureSpec, delta: float,
                          n_max: int = 12, pair_samples: int = 100_000,
                          seed: int = 0, fubini_probes: int = 40) -> DiagonalReport:
    """Mass of pairs staying within delta of the diagonal along the window.

    Independent pairs (x, y) ~ mu x mu survive window n when every orbit
    comparison stays within delta; this equals the product-measure mass
    of the diagonal tube intersected over iterates.  Cross-check: by
    Fubini the same number is the mu-average over centers x of the
    window mass at x, estimated from probe-averaged decay terminals.
    Windows are two-sided for an invertible f, one-sided otherwise.
    """
    check_samples(pair_samples)
    check_length("delta", delta)
    check_count("n_max", n_max, 1, MAX_WINDOW)
    check_count("fubini_probes", fubini_probes, 2, MAX_PROBES)  # a spread needs two
    sided = sided_for(f, mu)
    two = sided == TWO_SIDED
    counts = np.zeros((1, 1, n_max), dtype=np.int64)
    # the pairs are one-to-one, so the left side's orbit holds a row per
    # pair and window (two per window two-sided): the block is sized so
    # that orbit stays within 32 x 65,536 floats
    rows = block_rows((2 if two else 1) * f.space.dim * n_max)
    for xs, ys in zip(sample_blocks(mu, derive_seed(seed, "pair-left"), pair_samples, rows),
                      sample_blocks(mu, derive_seed(seed, "pair-right"), pair_samples, rows)):
        i = np.flatnonzero(geo.distance(f.space, xs, ys) <= delta)
        _note(kernel_block_pairs=len(i))
        xs, ys = np.take(xs, i, axis=0), np.take(ys, i, axis=0)  # see _compact
        pairs = np.arange(len(i))
        _advance_pairs(f, np.array([delta]), counts, _orbit(f, xs, n_max, two), ys, pairs,
                       pairs, np.zeros_like(i))
    series = _series_from_counts(None, delta, sided, counts[0, 0], pair_samples, seed)

    probes = mu.sample_coords(derive_seed(seed, "fubini-probes"), fubini_probes)
    pc = survival_counts(f, mu, derive_seed(seed, "fubini-batch"), pair_samples,
                         probes, [delta], sided, n_max)
    terminals = pc[0, :, -1] / pair_samples
    mean = float(terminals.mean())
    se = float(terminals.std(ddof=1) / np.sqrt(fubini_probes))
    lo, hi = mean - 1.96 * se, mean + 1.96 * se
    agree = (series.ci_low[-1] <= hi) and (lo <= series.ci_high[-1])
    return DiagonalReport(pair_series=series, fubini_mean=mean, fubini_ci=(lo, hi),
                          fubini_probes=int(fubini_probes), agree=agree)


@dataclass(frozen=True)
class GeneratorReport:
    cover_size: int
    lebesgue_delta: float
    sequences_tested: int
    max_intersection_estimate: float
    max_upper_ci: float
    is_generator_evidence: bool
    threshold: float
    sided: str
    n_max: int
    per_sequence: tuple[float, ...] = field(repr=False, default=())
    per_sequence_lower: tuple[float, ...] = field(repr=False, default=())
    per_sequence_upper: tuple[float, ...] = field(repr=False, default=())


def generator_check(f: SystemSpec, mu: MeasureSpec, cover: list[geo.Ball],
                    n_max: int = 10, sequence_samples: int = 32,
                    mc_samples: int = 100_000, seed: int = 0,
                    threshold: float = 0.01, sided: str | None = None) -> GeneratorReport:
    """Worst-case mass of orbit-constrained intersections over a ball cover.

    For each tested sequence (A_n) of cover elements the estimator
    measures the set of y whose iterate f^n(y) lies in Cl(A_n) for every
    n in the window: 0..n_max one-sided, -(n_max+1)..n_max two-sided,
    which is the survival kernel's window n_max + 1 (``_path_counts``,
    with each sequence's cover centers as its path and the cover's one
    radius).  Sequences come in two flavors: uniformly random indices, and
    adversarial sequences that follow a measure-sampled pilot orbit,
    always picking the element holding that iterate deepest.  Evidence
    for a generator means even the worst sequence's upper CI stays at or
    below the threshold.  A cover whose balls differ in radius is refused.
    """
    check_samples(mc_samples)
    check_count("n_max", n_max, 0, MAX_WINDOW)
    check_count("sequence_samples", sequence_samples, 1, MAX_PROBES)
    check_threshold(threshold)
    sided = sided_for(f, mu, sided)
    two = sided == TWO_SIDED
    leb_delta = geo.lebesgue_number(cover, f.space)  # checks cover and space
    radii = sorted({float(b.radius) for b in cover})
    if len(radii) > 1:
        raise ValueError(f"cover balls must share one radius, got radii from "
                         f"{radii[0]!r} to {radii[-1]!r}")
    check_cells(1, sequence_samples, n_max + 1)
    r = cover[0].radius
    centers = np.stack([b.center.array for b in cover])
    col = n_max + 1 if two else 0  # seq[:, col + n] is the element for iterate n

    n_adv = sequence_samples // 2
    n_rand = sequence_samples - n_adv
    rng = Generator(Philox(key=derive_seed(seed, "random-sequences")))
    seq = np.empty((sequence_samples, col + n_max + 1), dtype=np.int64)
    seq[n_adv:] = rng.integers(0, len(cover), size=(n_rand, seq.shape[1]))
    # adversarial: deepest-containment element along each pilot orbit, the
    # pilots walked in blocks so the (pilot, element) slack stays bounded
    start = 0
    for pilots in sample_blocks(mu, derive_seed(seed, "pilots"), n_adv,
                                block_rows(len(cover))):
        rows = slice(start, start + len(pilots))
        for n, cur in _window(f, pilots, n_max + 1, two):
            if n <= n_max:
                slack = r - geo.distance(f.space, cur[:, None], centers[None])
                seq[rows, col + n] = np.argmax(slack, axis=1)
        start = rows.stop

    path = (np.take(centers, seq[:, col:].T, axis=0),
            np.take(centers, seq[:, col - 1::-1].T, axis=0) if two else None)
    per_seq = _path_counts(f, mu, derive_seed(seed, "batch"), mc_samples, path,
                           np.array([r], dtype=float))[0, :, -1]
    est = per_seq / mc_samples
    lo, hi = wilson_interval(per_seq, mc_samples)
    max_upper = float(np.max(hi))
    return GeneratorReport(
        cover_size=len(cover), lebesgue_delta=float(leb_delta),
        sequences_tested=int(sequence_samples),
        max_intersection_estimate=float(est.max()),
        max_upper_ci=max_upper,
        is_generator_evidence=bool(max_upper <= threshold),
        threshold=float(threshold), sided=sided, n_max=int(n_max),
        per_sequence=tuple(float(v) for v in est),
        per_sequence_lower=tuple(float(v) for v in lo),
        per_sequence_upper=tuple(float(v) for v in hi))


@dataclass(frozen=True)
class FractionEstimate:
    fraction: float
    ci_low: float
    ci_high: float
    hits: int
    samples: int
    seed: int


def _fraction(mu: MeasureSpec, samples: int, seed: int, hit) -> FractionEstimate:
    """Fraction of mu's samples where the row mask hit(block) holds."""
    hits = sum(int(np.count_nonzero(hit(b)))
               for b in sample_blocks(mu, derive_seed(seed, "batch"), samples))
    lo, hi = wilson_interval(hits, samples)
    return FractionEstimate(fraction=hits / samples, ci_low=lo, ci_high=hi,
                            hits=hits, samples=int(samples), seed=int(seed))


def converging_semiorbit_fraction(f: SystemSpec, mu: MeasureSpec, w: int = 8,
                                  tol: float = 1e-6, n_max: int = 40,
                                  samples: int = 100_000, seed: int = 0) -> FractionEstimate:
    """Fraction of samples whose forward AND backward orbits look Cauchy
    over the final w iterates (tail spread <= tol).

    Finite-horizon convergence is necessary, not sufficient, so the
    estimate is biased toward detection; it is used as a one-sided
    consistency check.
    """
    check_samples(samples)
    check_count("w", w, 2)
    check_count("n_max", n_max, w + 1, MAX_WINDOW)
    check_length("tol", tol)
    sided_for(f, mu, TWO_SIDED)  # backward orbits need an inverse

    def converged(batch):  # every pair of same-side tail iterates within tol
        tail = [(n > 0, cur) for n, cur in _window(f, batch, n_max, True)
                if abs(n) > n_max - w]
        ok = np.ones(len(batch), dtype=bool)
        for (side_a, a), (side_b, b) in combinations(tail, 2):
            if side_a == side_b:
                ok &= geo.distance(f.space, a, b) <= tol
        return ok

    return _fraction(mu, samples, seed, converged)


def periodic_fraction(f: SystemSpec, mu: MeasureSpec, max_period: int = 6,
                      eps: float = 1e-4, samples: int = 100_000,
                      seed: int = 0) -> FractionEstimate:
    """Fraction of samples within eps of closing up at some period <= max_period."""
    check_samples(samples)
    check_count("max_period", max_period, 1, MAX_WINDOW)
    check_length("eps", eps)
    sided_for(f, mu, ONE_SIDED)

    def near(batch):
        cur, close = batch, np.zeros(len(batch), dtype=bool)
        for _ in range(max_period):
            cur = f.forward(cur)
            close |= geo.distance(f.space, cur, batch) <= eps
        return close

    return _fraction(mu, samples, seed, near)
