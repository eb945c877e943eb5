"""Finite integer domains as sorted disjoint intervals, with AC-3 revision.

A domain is a tuple of inclusive (lo, hi) intervals, sorted and
non-overlapping.  Binary constraints have the shape  a OP b + c  for two
unknowns a, b and a constant offset c; revision narrows one side's domain
against the other's.  Equality revision is exact arc consistency;
inequalities use bounds consistency; disequality prunes only against
singleton neighbours.  None of these ever removes a supported value.
"""

from __future__ import annotations

from dataclasses import dataclass

MIN_INT = -(2**62)
MAX_INT = 2**62 - 1

Interval = tuple[int, int]


def normalize(pairs: list[Interval]) -> tuple[Interval, ...]:
    """Sort, drop empties, and merge touching intervals."""
    pairs = sorted((lo, hi) for lo, hi in pairs if lo <= hi)
    out: list[Interval] = []
    for lo, hi in pairs:
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


@dataclass(frozen=True)
class IntDomain:
    """An integer domain; immutable."""

    intervals: tuple[Interval, ...]

    @staticmethod
    def bounded(lo: int = MIN_INT, hi: int = MAX_INT) -> "IntDomain":
        return IntDomain(normalize([(lo, hi)]))

    @staticmethod
    def of_values(values) -> "IntDomain":
        return IntDomain(normalize([(v, v) for v in values]))

    def is_empty(self) -> bool:
        return not self.intervals

    def size(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.intervals)

    def min(self) -> int:
        return self.intervals[0][0]

    def max(self) -> int:
        return self.intervals[-1][1]

    def contains(self, v: int) -> bool:
        return any(lo <= v <= hi for lo, hi in self.intervals)

    def is_singleton(self) -> bool:
        return (len(self.intervals) == 1
                and self.intervals[0][0] == self.intervals[0][1])

    def nth(self, i: int) -> int:
        """The i-th value in ascending order."""
        if i < 0:
            raise IndexError(i)
        for lo, hi in self.intervals:
            width = hi - lo + 1
            if i < width:
                return lo + i
            i -= width
        raise IndexError(i)

    def values(self):
        for lo, hi in self.intervals:
            yield from range(lo, hi + 1)

    def intersect(self, other: "IntDomain") -> "IntDomain":
        out: list[Interval] = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntDomain(tuple(out))

    def union(self, other: "IntDomain") -> "IntDomain":
        return IntDomain(normalize(list(self.intervals) + list(other.intervals)))

    def remove(self, v: int) -> "IntDomain":
        out: list[Interval] = []
        for lo, hi in self.intervals:
            if lo <= v <= hi:
                if lo <= v - 1:
                    out.append((lo, v - 1))
                if v + 1 <= hi:
                    out.append((v + 1, hi))
            else:
                out.append((lo, hi))
        return IntDomain(tuple(out))

    def restrict_le(self, k: int) -> "IntDomain":
        out = [(lo, min(hi, k)) for lo, hi in self.intervals if lo <= k]
        return IntDomain(normalize(out))

    def restrict_ge(self, k: int) -> "IntDomain":
        out = [(max(lo, k), hi) for lo, hi in self.intervals if hi >= k]
        return IntDomain(normalize(out))

    def shift(self, c: int) -> "IntDomain":
        return IntDomain(tuple((lo + c, hi + c) for lo, hi in self.intervals))

    def restrict_op_const(self, op: str, k: int) -> "IntDomain":
        """Absorb the unary constraint  self OP k  into the domain."""
        if op == "==":
            return self.intersect(IntDomain.of_values([k]))
        if op == "/=":
            return self.remove(k)
        if op == "<":
            return self.restrict_le(k - 1)
        if op == "<=":
            return self.restrict_le(k)
        if op == ">":
            return self.restrict_ge(k + 1)
        if op == ">=":
            return self.restrict_ge(k)
        raise ValueError(f"bad comparison {op}")

    def __str__(self) -> str:
        return "{" + ", ".join(
            f"{lo}" if lo == hi else f"{lo}..{hi}" for lo, hi in self.intervals
        ) + "}"


def negate_op(op: str) -> str:
    """The complement comparison: not (a OP b) == a negate_op(OP) b."""
    return {"==": "/=", "/=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}[op]


def flip_op(op: str) -> str:
    """Swap sides:  a OP b  ==  b flip_op(OP) a."""
    return {"==": "==", "/=": "/=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]


def eval_op(op: str, a: int, b: int) -> bool:
    if op == "==":
        return a == b
    if op == "/=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise ValueError(f"bad comparison {op}")


def revise(target: IntDomain, op: str, other: IntDomain) -> IntDomain:
    """Narrow `target` so each value can satisfy  x OP y  for some y in other.

    The caller folds the +c offset into `other` (by shifting) beforehand.
    """
    if other.is_empty():
        return IntDomain(())
    if op == "==":
        return target.intersect(other)
    if op == "/=":
        if other.is_singleton():
            return target.remove(other.min())
        return target
    if op == "<":
        return target.restrict_le(other.max() - 1)
    if op == "<=":
        return target.restrict_le(other.max())
    if op == ">":
        return target.restrict_ge(other.min() + 1)
    if op == ">=":
        return target.restrict_ge(other.min())
    raise ValueError(f"bad comparison {op}")
