"""Counter-based randomness with per-sample-index addressing.

Every Monte-Carlo routine in this package draws its randomness through
:func:`uniform_block`.  The row of sample index ``i`` in a ``dims``-wide
space is doubles ``dims*i .. dims*i + dims - 1`` of the Philox stream
keyed by the seed, so one counter block of four doubles serves
``4 // dims`` samples and the row depends only on ``(seed, i)``.  Philox
jumps to any counter, so a worker that owns indices ``[lo, hi)`` can
generate exactly the bytes a serial run would produce for that range,
which is what makes parallel batches order-independent.
"""
from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import Generator, Philox

from .stats import check_count

# Philox-4x64 emits 4 uint64 words per counter increment, and
# Generator.random consumes one word per float64, so a dims-wide row i is
# doubles dims*i .. dims*i + dims - 1 and a counter holds 4 // dims rows.
BLOCK_DOUBLES = 4


def derive_seed(root: int, *tags) -> int:
    """Derive a child seed from a root seed and a tag path.

    Hashing keeps child streams statistically unrelated even for
    adjacent roots, and the tag path makes seeds stable under
    reordering of the calling code.
    """
    check_count("seed", root, 0, 2**64 - 1)
    h = hashlib.sha256(str(int(root)).encode())
    for tag in tags:
        h.update(b"\x1f")
        h.update(str(tag).encode())
    return int.from_bytes(h.digest()[:8], "little")


def uniform_block(seed: int, start: int, count: int, dims: int) -> np.ndarray:
    """Uniform draws on [0, 1) for sample indices start..start+count.

    Returns shape (count, dims), dims 1, 2 or 4: the rows start..start+count
    of ``Generator(Philox(key=seed)).random(n * dims).reshape(n, dims)``
    for any n past them, so the row for absolute index ``i`` is identical
    no matter how the index range is partitioned.
    """
    check_count("seed", seed, 0, 2**64 - 1)
    check_count("dims", dims, 1, BLOCK_DOUBLES)
    if BLOCK_DOUBLES % dims:
        raise ValueError(f"dims must divide {BLOCK_DOUBLES}, got {dims}")
    check_count("start", start, 0)
    check_count("count", count, 0)
    per = BLOCK_DOUBLES // dims
    first, skip = divmod(start, per)
    bg = Philox(key=seed)
    bg.advance(first)
    words = np.empty((-(-(skip + count) // per), BLOCK_DOUBLES))
    Generator(bg).random(out=words)
    return words.reshape(-1, dims)[skip:skip + count]
