"""Counter-based randomness with per-sample-index addressing.

Every Monte-Carlo routine in this package draws its randomness through
:func:`uniform_block`, which hands sample index ``i`` its own Philox
counter block.  One block yields four float64 draws, enough for any
space dimension used here, so the value of sample ``i`` depends only on
``(seed, i)``.  A worker that owns indices ``[lo, hi)`` can generate
exactly the bytes a serial run would produce for that range, which is
what makes parallel batches order-independent.
"""
from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import Generator, Philox

from .stats import check_count

# Philox-4x64 emits 4 uint64 words per counter increment, and
# Generator.random consumes one word per float64.
BLOCK_DOUBLES = 4

# Sample rows drawn per Generator call in uniform_block; bounds its
# temporary at _ROWS * BLOCK_DOUBLES doubles whatever the count.
_ROWS = 1 << 16


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

    Returns shape (count, dims), dims <= 4.  The row for absolute index
    ``i`` is identical no matter how the index range is partitioned.
    """
    check_count("seed", seed, 0, 2**64 - 1)
    check_count("dims", dims, 1, BLOCK_DOUBLES)
    check_count("start", start, 0)
    check_count("count", count, 0)
    out = np.empty((count, dims))
    bg = Philox(key=seed)
    bg.advance(start)
    gen = Generator(bg)
    buf = np.empty((min(count, _ROWS), BLOCK_DOUBLES))
    # each call consumes whole counter blocks, so consecutive calls continue
    # the single-call stream exactly
    for lo in range(0, count, _ROWS):
        rows = buf[:count - lo]
        gen.random(out=rows)
        out[lo:lo + len(rows)] = rows[:, :dims]
    return out
