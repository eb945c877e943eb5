"""Choice traces, rational probabilities, and replayable choice sources.

Every random decision a generator makes is recorded as a (index, arity)
pair, and beside it the integer weight of the branch taken and the total
weight it was drawn against.  The probability q of a run is the product of
these w/total factors; it is formed as one exact Fraction from the two
integer products when it is read, so a choice does no rational
arithmetic.  A recorded trace doubles as a script: replaying it through
ReplaySource reproduces the identical run, and the enumeration source
drives systematic exploration of every trace prefix.

A run context also holds the attempt's fuel, of which narrowing and
matching charge one unit per function application (``RunCtx.tick``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .predsem import DEFAULT_FUEL, EvalTimeout


@dataclass(unsafe_hash=True)
class Choice:
    """One random decision: which of `arity` branches was taken."""

    index: int
    arity: int

    def __str__(self) -> str:
        return f"({self.index},{self.arity})"


# Long integers are converted to and from decimal text in chunks of this
# many digits, below the smallest limit ``sys.set_int_max_str_digits``
# accepts (640), so a q of any length prints and parses under any limit.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def int_text(n: int) -> str:
    """The decimal text of n, however many digits it has."""
    if n < 0:
        return "-" + int_text(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(n))
    return "".join(reversed(chunks))


def parse_int(text: str) -> int:
    """The integer written by ``int_text``."""
    if text.startswith("-"):
        return -parse_int(text[1:])
    head = len(text) % _CHUNK_DIGITS or _CHUNK_DIGITS
    n = int(text[:head])
    for i in range(head, len(text), _CHUNK_DIGITS):
        n = n * _CHUNK + int(text[i:i + _CHUNK_DIGITS])
    return n


def fraction_text(q: Fraction) -> str:
    return f"{int_text(q.numerator)}/{int_text(q.denominator)}"


def format_trace(seed: Optional[int], choices: list[Choice], q: Fraction,
                 result: Optional[str] = None) -> str:
    body = "[" + ",".join(str(c) for c in choices) + "]"
    parts = []
    if seed is not None:
        parts.append(f"seed={seed}")
    parts.append(f"choices={body}")
    parts.append(f"q={fraction_text(q)}")
    if result is not None:
        parts.append(f"result={result}")
    return " ".join(parts)


_TRACE_RE = re.compile(
    r"(?:seed=(-?\d+)\s+)?choices=\[([^\]]*)\]\s+q=(-?\d+)/(\d+)"
    r"(?:\s+result=(.*))?$")


def parse_trace(line: str):
    """Parse a formatted trace line back into (seed, choices, q, result)."""
    m = _TRACE_RE.search(line.strip())
    if not m:
        raise ValueError(f"not a trace line: {line!r}")
    seed = int(m.group(1)) if m.group(1) else None
    choices = []
    body = m.group(2).strip()
    if body:
        for part in re.findall(r"\((-?\d+),(-?\d+)\)", body):
            choices.append(Choice(int(part[0]), int(part[1])))
    q = Fraction(parse_int(m.group(3)), parse_int(m.group(4)))
    return seed, choices, q, m.group(5)


def derive_seed(seed: int, index: int) -> int:
    """A well-mixed child seed for parallel or per-attempt streams."""
    x = (seed ^ (index * 0x9E3779B97F4A7C15)) & (2**64 - 1)
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return x ^ (x >> 31)


class ReplayExhausted(Exception):
    """The replay script ran out of recorded choices."""


class ReplayMismatch(Exception):
    """A replayed choice's arity differs from the recorded one."""


class RandomSource:
    """Draws from a seeded PRNG."""

    def __init__(self, seed: int) -> None:
        import random

        self.seed = seed
        self._rng = random.Random(seed)

    def pick(self, arity: int) -> int:
        return self._rng.randrange(arity)

    def pick_weighted(self, w_left: int, w_right: int) -> int:
        return 0 if self._rng.randrange(w_left + w_right) < w_left else 1


class ReplaySource:
    """Feeds back a recorded list of choices, checking arities."""

    def __init__(self, choices: list[Choice]) -> None:
        self._choices = list(choices)
        self._pos = 0

    def pick(self, arity: int) -> int:
        if self._pos >= len(self._choices):
            raise ReplayExhausted(
                f"the script ran out after {len(self._choices)} choices")
        c = self._choices[self._pos]
        self._pos += 1
        if c.arity != arity:
            raise ReplayMismatch(f"recorded arity {c.arity}, run wants {arity}")
        if not (0 <= c.index < arity):
            raise ReplayMismatch(f"index {c.index} out of range 0..{arity-1}")
        return c.index

    def pick_weighted(self, w_left: int, w_right: int) -> int:
        return self.pick(2)


class ScriptedSource(ReplaySource):
    """Replays a fixed prefix, then always takes branch 0.

    Used by the exhaustive enumerator: the choices made after the prefix
    are visible on the context's trace, which tells the enumerator where
    the next unexplored sibling lies.
    """

    def pick(self, arity: int) -> int:
        if self._pos < len(self._choices):
            return super().pick(arity)
        return 0


class RunCtx:
    """Mutable state threaded through one generation attempt."""

    def __init__(self, source, fuel: int = DEFAULT_FUEL,
                 local_backtracking: bool = True) -> None:
        self.source = source
        self.trace: list[Choice] = []
        self.weights: list[tuple[int, int]] = []  # (w, total) per choice
        self.fuel = fuel
        self.local_backtracking = local_backtracking
        self.local_backtracks = 0
        # draws from the source; unlike the trace, a rollback keeps them
        self.draws = 0

    def tick(self) -> None:
        self.fuel -= 1
        if self.fuel < 0:
            raise EvalTimeout()

    def record(self, index: int, arity: int, w: int, total: int) -> None:
        """Record taking branch `index` of `arity` with probability
        w/total."""
        self.trace.append(Choice(index, arity))
        self.weights.append((w, total))

    @property
    def q(self) -> Fraction:
        """The probability of the recorded choices."""
        num = den = 1
        for w, total in self.weights:
            num *= w
            den *= total
        return Fraction(num, den)

    def pick(self, arity: int) -> int:
        self.draws += 1
        return self.source.pick(arity)

    def pick_weighted(self, w_left: int, w_right: int) -> int:
        self.draws += 1
        return self.source.pick_weighted(w_left, w_right)

    def mark(self) -> int:
        """A rollback point: the number of choices recorded so far."""
        return len(self.trace)

    def rollback(self, mark: int) -> None:
        del self.trace[mark:]
        del self.weights[mark:]


def enumerate_traces(run):
    """Systematically explore every choice sequence of a randomized run.

    `run(source)` must execute one attempt drawing from `source` and return
    a pair (trace, payload), where the trace lists every recorded choice.
    Yields (trace, payload) for each distinct complete sequence, depth-first.
    The choice tree must be finite.
    """
    stack: list[list[Choice]] = [[]]
    while stack:
        prefix = stack.pop()
        trace, payload = run(ScriptedSource(prefix))
        yield trace, payload
        for i in range(len(trace) - 1, len(prefix) - 1, -1):
            c = trace[i]
            for idx in range(c.arity - 1, c.index, -1):
                stack.append(list(trace[:i]) + [Choice(idx, c.arity)])
