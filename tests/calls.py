"""Counting the store work an evaluation does, for tests that pin that a
value is used as it is and not walked again."""

from contextlib import contextmanager

import pytest

from luck import matching, narrow
from luck.constraints import ConstraintSet


@contextmanager
def counted():
    """Yields a dict that counts, inside the block, the unifications
    started from outside the store ("unify"; the store's own nested calls
    are not counted) and the calls of ``narrow.open_value`` ("open_value")
    by narrowing and matching."""
    counts = {"unify": 0, "open_value": 0}
    unify, open_value = ConstraintSet.unify, narrow.open_value
    depth = 0

    def counted_unify(self, a, b):
        nonlocal depth
        counts["unify"] += depth == 0
        depth += 1
        try:
            return unify(self, a, b)
        finally:
            depth -= 1

    def counted_open_value(*args):
        counts["open_value"] += 1
        return open_value(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ConstraintSet, "unify", counted_unify)
        mp.setattr(narrow, "open_value", counted_open_value)
        mp.setattr(matching, "open_value", counted_open_value)
        yield counts
