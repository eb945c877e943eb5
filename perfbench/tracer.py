"""In-memory spans around the pipeline's public names.

The tracer patches the names one pipeline module looks up in another
(``driver.match_eval``, ``matching.subst``, ``ConstraintSet.unify``, ...)
with wrappers that open a span on entry and close it on exit.  Nothing in
``src/`` is edited.  A span records its name, start, end and parent; self
time is a span's duration minus the durations of its direct children.

A wrapper only opens a span when the call crosses into its family from
another one.  ``ConstraintSet.find`` called from ``ConstraintSet.unify``
is store work inside a store span, not a new boundary, so it costs a
branch and records nothing.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class LayerTotals:
    """What the spans of one name add up to."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Spans and counts recorded at layer boundaries of one process."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._open_family: list[str] = []
        self.counts: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _push(self, name: str, family: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(i)
        self._open_family.append(family)
        self.start.append(time.perf_counter())
        return i

    def _pop(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open.pop()
        self._open_family.pop()

    @contextmanager
    def span(self, name: str):
        i = self._push(name, name)
        try:
            yield
        finally:
            self._pop(i)

    def totals(self) -> dict[str, LayerTotals]:
        """Calls, total time and self time per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, LayerTotals] = {}
        for i in range(n):
            t = out.setdefault(self._names[self.name_of[i]], LayerTotals())
            dur = self.end[i] - self.start[i]
            t.calls += 1
            t.total_s += dur
            t.self_s += dur - child[i]
        return out

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, family: str | None = None,
             on_result=None) -> None:
        """Open a span `name` around calls to `owner.attr`.

        Calls made while the innermost open span belongs to the same
        `family` (default: the name itself) run unrecorded.  `on_result`
        sees each recorded call's return value after its span closed.
        """
        fn = owner.__dict__[attr]
        family = family or name
        open_family = self._open_family
        push, pop = self._push, self._pop

        def traced(*args, **kwargs):
            if open_family and open_family[-1] == family:
                return fn(*args, **kwargs)
            i = push(name, family)
            try:
                out = fn(*args, **kwargs)
            finally:
                pop(i)
            if on_result is not None:
                on_result(out)
            return out

        self._patch(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls to `owner.attr` without opening a span."""
        fn = owner.__dict__[attr]
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, counted)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
