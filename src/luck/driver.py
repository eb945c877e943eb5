"""Query driver: prepare, generate with retries, replay, enumerate.

A query names a predicate call with free variables standing for values
to generate.  The driver freshens an unknown for each, gives it the range
of its type within the depth bound (a deferred range, unfolded only as far
as evaluation looks into it), matches the call against the queried truth
value, and samples the surviving unknowns.  Each attempt draws from its
own derived random stream so runs are reproducible from one seed, and
every recorded choice list can be replayed to the identical value.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .constraints import ConstraintSet
from .core import FALSE, TRUE, Expr, TInt, Type, Unknown
from .desugar import CompiledQuery, Program
from .matching import match_eval
from .narrow import GenFailure, sample_value
from .predsem import DEFAULT_FUEL, EvalFailure, EvalTimeout, pred_eval
from .trace import (
    Choice,
    RandomSource,
    ReplayExhausted,
    ReplayMismatch,
    ReplaySource,
    RunCtx,
    derive_seed,
    enumerate_traces,
    format_trace,
    fraction_text,
)

DEFAULT_DEPTH = 8
DEFAULT_RETRIES = 1000


class DriverError(Exception):
    """A query that cannot be run as requested."""


@dataclass
class PreparedQuery:
    """A compiled query with its unknowns freshened and given their
    depth-bounded ranges; `base` holds one unknown per queried name, and
    `target`, the compiled target, names them by their variables."""

    program: Program
    compiled: CompiledQuery
    base: ConstraintSet
    target: Expr
    pattern: Expr
    uids: dict[str, int]


@dataclass
class GenReport:
    """The outcome of one generation request.  A failed report is final
    when the failure does not depend on the seed; `to_json` leaves that
    out."""

    query: str
    ok: bool
    seed: Optional[int]
    values: Optional[dict[str, Expr]]
    shown: Optional[dict[str, str]]
    trace: list[Choice]
    q: Fraction
    attempts: int
    local_backtracks: int
    discards: int
    elapsed_s: float
    error: Optional[str] = None
    final: bool = False

    def result_text(self) -> Optional[str]:
        if self.shown is None:
            return None
        if len(self.shown) == 1:
            return next(iter(self.shown.values()))
        return ", ".join(f"{k}={v}" for k, v in self.shown.items())

    def trace_line(self) -> str:
        return format_trace(self.seed, self.trace, self.q,
                            self.result_text())

    def to_json(self) -> str:
        return json.dumps({
            "query": self.query,
            "ok": self.ok,
            "seed": self.seed,
            "values": self.shown,
            "choices": [[c.index, c.arity] for c in self.trace],
            "q": fraction_text(self.q),
            "attempts": self.attempts,
            "local_backtracks": self.local_backtracks,
            "discards": self.discards,
            "elapsed_s": round(self.elapsed_s, 6),
            "error": self.error,
        })


def _mentions_int(t: Type) -> bool:
    if isinstance(t, TInt):
        return True
    return any(_mentions_int(v)
               for f in t.__dataclass_fields__
               for v in [getattr(t, f)] if isinstance(v, Type))


def prepare(prog: Program, query: str, *,
            int_bound: Optional[tuple[int, int]] = None,
            depth: int = DEFAULT_DEPTH) -> PreparedQuery:
    """Compile a query and set up the store its attempts will start from."""
    if depth < 0:
        raise DriverError(f"the depth bound must be at least 0, got {depth}")
    q = prog.compile_query(query)
    if int_bound is None and any(_mentions_int(t)
                                 for t in q.unknowns.values()):
        raise DriverError("the queried unknowns contain integers; "
                          "explicit bounds are required (--int-bound LO..HI)")
    if int_bound is not None and int_bound[0] > int_bound[1]:
        raise DriverError(f"no value fits the empty integer bounds "
                          f"{int_bound[0]}..{int_bound[1]}")
    cs = ConstraintSet(int_bounds=int_bound) if int_bound else ConstraintSet()
    uids: dict[str, int] = {}
    for name, ty in q.unknowns.items():
        cs, (uid,) = cs.fresh([ty])
        uids[name] = uid
        cs, nonempty = cs.materialize(uid, depth)
        if not nonempty:
            raise DriverError(f"no value for {name} fits the depth bound "
                              f"{depth} and the integer bounds")
    pattern = TRUE if q.expect_true else FALSE
    return PreparedQuery(prog, q, cs, q.target, pattern, uids)


def attempt(prep: PreparedQuery, ctx: RunCtx) -> dict[str, Expr]:
    """One generation attempt, with each queried name bound to its
    unknown; raises GenFailure when no value comes out."""
    env = {name: Unknown(uid) for name, uid in prep.uids.items()}
    out = match_eval(prep.target, prep.pattern, prep.base, ctx, env)
    if out.failed:
        raise GenFailure("the query admits no refinement on this path")
    vals: dict[str, Expr] = {}
    for name, u in env.items():
        vals[name], out = sample_value(u, out, ctx)
    return vals


def recheck(prep: PreparedQuery, vals: dict[str, Expr],
            fuel: int = DEFAULT_FUEL) -> Optional[bool]:
    """Confirm a generated valuation by plain predicate evaluation within
    `fuel` function applications: False when that evaluation fails, None
    when it runs out of fuel."""
    try:
        return pred_eval(prep.target, fuel, vals) == prep.pattern
    except EvalFailure:
        return False
    except EvalTimeout:
        return None


def _too_deep() -> str:
    return (f"evaluation went deeper than the Python recursion limit "
            f"({sys.getrecursionlimit()} frames); lower --depth or the "
            f"sizes the query asks for")


def _show_all(prep: PreparedQuery, vals: dict[str, Expr]) -> dict[str, str]:
    return {name: prep.program.show_value(v,
                                          prep.compiled.surface_types[name])
            for name, v in vals.items()}


def run_query(prog: Program, query: str, *,
              seed: Optional[int] = None,
              int_bound: Optional[tuple[int, int]] = None,
              depth: int = DEFAULT_DEPTH,
              retries: int = DEFAULT_RETRIES,
              fuel: int = DEFAULT_FUEL,
              check: bool = False) -> GenReport:
    """Generate one valuation, retrying failed attempts up to `retries`."""
    prep = prepare(prog, query, int_bound=int_bound, depth=depth)
    return run_prepared(prep, seed=seed, retries=retries, fuel=fuel,
                        check=check)


def run_prepared(prep: PreparedQuery, *,
                 seed: Optional[int] = None,
                 retries: int = DEFAULT_RETRIES,
                 fuel: int = DEFAULT_FUEL,
                 check: bool = False) -> GenReport:
    """Generate one valuation from an already-prepared query."""
    query = prep.compiled.source
    if seed is None:
        seed = random.SystemRandom().getrandbits(63)
    t0 = time.perf_counter()
    backtracks = 0
    discards = 0
    attempts = 0
    timeouts = 0  # attempts and rechecks that ran out of fuel
    failure = ""  # the message of the last GenFailure
    final = False  # whether the last attempt failed without a draw
    error = None
    for i in range(retries + 1):
        ctx = RunCtx(RandomSource(derive_seed(seed, i)), fuel=fuel)
        attempts = i + 1
        try:
            vals = attempt(prep, ctx)
        except EvalTimeout:
            vals = None
            timeouts += 1
        except GenFailure as ex:
            vals = None
            failure = str(ex)  # not ex: its traceback holds this frame
        except RecursionError:
            # every retry would recurse as deep again
            backtracks += ctx.local_backtracks
            error = _too_deep()
            break
        backtracks += ctx.local_backtracks
        if vals is not None and check:
            confirmed = recheck(prep, vals, fuel)
            if not confirmed:
                discards += 1
                timeouts += confirmed is None
                vals = None
        if vals is not None:
            return GenReport(query, True, seed, vals, _show_all(prep, vals),
                             list(ctx.trace), ctx.q, attempts, backtracks,
                             discards, time.perf_counter() - t0)
        if not ctx.draws:
            # the source is the only randomness, so every retry would
            # fail the same way
            final = True
            break
    return GenReport(query, False, seed, None, None, [], Fraction(1),
                     attempts, backtracks, discards,
                     time.perf_counter() - t0,
                     error=error or _no_success(attempts, timeouts, fuel,
                                                failure, final),
                     final=final)


def _no_success(attempts: int, timeouts: int, fuel: int,
                failure: str, final: bool) -> str:
    text = f"no success in {attempts} attempts"
    if timeouts:
        text += (f" ({timeouts} ran out of fuel, {fuel} function "
                 "applications each)")
    if failure:
        text += f"; last failure: {failure}"
    if final:
        text += ("; the last attempt drew no random choice, so the failure "
                 "does not depend on the seed")
    return text


def replay_query(prog: Program, query: str, choices: list[Choice], *,
                 int_bound: Optional[tuple[int, int]] = None,
                 depth: int = DEFAULT_DEPTH,
                 fuel: int = DEFAULT_FUEL) -> GenReport:
    """Re-run one recorded attempt; every choice comes from the script."""
    prep = prepare(prog, query, int_bound=int_bound, depth=depth)
    t0 = time.perf_counter()
    ctx = RunCtx(ReplaySource(choices), fuel=fuel)
    try:
        vals = attempt(prep, ctx)
    except (GenFailure, EvalTimeout, ReplayExhausted, ReplayMismatch) as ex:
        error = str(ex) or type(ex).__name__
    except RecursionError:
        error = _too_deep()
    else:
        return GenReport(query, True, None, vals, _show_all(prep, vals),
                         list(ctx.trace), ctx.q, 1, ctx.local_backtracks, 0,
                         time.perf_counter() - t0)
    return GenReport(query, False, None, None, None, list(ctx.trace), ctx.q,
                     1, ctx.local_backtracks, 0, time.perf_counter() - t0,
                     error=error)


def enumerate_query(prog: Program, query: str, *,
                    int_bound: Optional[tuple[int, int]] = None,
                    depth: int = DEFAULT_DEPTH,
                    fuel: int = DEFAULT_FUEL
                    ) -> Iterator[tuple[list[Choice], Fraction,
                                        Optional[dict[str, str]]]]:
    """Walk every choice sequence of the query's generator, depth-first.

    Yields (trace, q, shown) triples; shown is None for failing traces,
    and a trace that runs out of fuel fails, so the q of all traces sums
    to one.  Local backtracking is disabled so the raw choice tree is
    exposed.  Raises DriverError when an attempt recurses past the Python
    limit.
    """
    prep = prepare(prog, query, int_bound=int_bound, depth=depth)

    def run(source):
        ctx = RunCtx(source, fuel=fuel, local_backtracking=False)
        try:
            vals = attempt(prep, ctx)
        except (GenFailure, EvalTimeout):
            return list(ctx.trace), (ctx.q, None)
        except RecursionError:
            raise DriverError(_too_deep()) from None
        return list(ctx.trace), (ctx.q, _show_all(prep, vals))

    for trace, (q, shown) in enumerate_traces(run):
        yield trace, q, shown
