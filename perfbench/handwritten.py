"""Hand-written generators for the shapes the workloads' predicates accept.

These are the baseline the paper compares Luck against: plain `random`
code a programmer would write for each predicate.  Trees are tuples
``(x, left, right)`` with ``None`` for an empty tree; red-black nodes are
``(color, x, left, right)``.  Each generator yields only values its
workload's predicate accepts.
"""

from __future__ import annotations

import random

RED, BLACK = "Red", "Black"


def gen_bst(rng: random.Random, size: int, low: int, high: int):
    """A search tree over keys in (low, high), as `bst size low high t`."""
    if size == 0 or high - low < 2 or rng.randrange(size + 1) == 0:
        return None
    x = rng.randint(low + 1, high - 1)
    return (x, gen_bst(rng, size // 2, low, x),
            gen_bst(rng, size // 2, x, high))


class _NoRoom(Exception):
    pass


def _rbt(rng: random.Random, h: int, low: int, high: int, parent: str):
    if h == 0:
        arms = [None]
        if parent == BLACK and high - low >= 2:
            arms.append("red-leaf")
        arm = rng.choice(arms)
        if arm is None:
            return None
        return (RED, rng.randint(low + 1, high - 1), None, None)
    if high - low < 2:
        raise _NoRoom
    color = BLACK if parent == RED else rng.choice((RED, BLACK))
    x = rng.randint(low + 1, high - 1)
    child_h = h if color == RED else h - 1
    return (color, x, _rbt(rng, child_h, low, x, color),
            _rbt(rng, child_h, x, high, color))


def gen_rbt(rng: random.Random, h: int, low: int, high: int, parent: str):
    """A red-black tree of black height h, as `isRBT h low high c t`.

    A draw that leaves an interval too narrow for the black height is
    thrown away and redrawn.
    """
    while True:
        try:
            return _rbt(rng, h, low, high, parent)
        except _NoRoom:
            continue


def gen_member(rng: random.Random, x: int, lo: int, hi: int, max_len: int):
    """A list over [lo, hi] of at most max_len elements that contains x."""
    n = rng.randint(1, max_len)
    out = [rng.randint(lo, hi) for _ in range(n)]
    out[rng.randrange(n)] = x
    return out


def gen_sorted(rng: random.Random, lo: int, hi: int, max_len: int):
    """A strictly increasing list over [lo, hi] of at most max_len items."""
    n = rng.randint(0, min(max_len, hi - lo + 1))
    return sorted(rng.sample(range(lo, hi + 1), n))
