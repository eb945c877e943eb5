"""Command-line front door: run queries from a .luck file and print results.

Usage:
    luck FILE "QUERY" [--count N] [--seed S] [--int-bound LO..HI] [--depth D]
                      [--retries R] [--fuel F] [--check]
                      [--output {terms,json,trace,histogram} | --histogram]
                      [--jobs J]

Exit status: 0 on success, 1 on file/parse/type/configuration errors
and on programs that use what the engine does not support, 2 when any
requested valuation exhausted its retry budget.  Results go to stdout,
diagnostics to stderr.  `LUCK_SEED` is used when --seed is absent.
"""

import argparse
import multiprocessing
import os
import re
import sys
from collections import Counter
from pathlib import Path
from random import SystemRandom

from .constraints import ContractViolation
from .core import TypeCheckError
from .desugar import LuckTypeError, Program
from .driver import (
    DEFAULT_DEPTH,
    DEFAULT_FUEL,
    DEFAULT_RETRIES,
    DriverError,
    GenReport,
    PreparedQuery,
    prepare,
    run_prepared,
)
from .patterns import ExpandError
from .surface import LuckSyntaxError
from .trace import derive_seed

_BOUND_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")

_CONFIG_ERRORS = (OSError, LuckSyntaxError, LuckTypeError, TypeCheckError,
                  ExpandError, DriverError, ContractViolation)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="luck",
        description="Generate values satisfying a predicate from a "
                    ".luck program.")
    p.add_argument("file", help="path to the .luck source file")
    p.add_argument("query",
                   help='query of the form "fun args... unknown = True"; '
                        "free identifiers become the generated unknowns")
    p.add_argument("--count", type=int, default=1, metavar="N",
                   help="number of valuations to generate (default 1)")
    p.add_argument("--seed", type=int, default=None, metavar="S",
                   help="base seed; falls back to $LUCK_SEED, then to "
                        "system entropy")
    p.add_argument("--int-bound", default=None, metavar="LO..HI",
                   help="integer domain for queried unknowns, e.g. 0..42 "
                        "(required when a queried unknown contains Int)")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH, metavar="D",
                   help="recursion depth bound for recursive unknowns "
                        f"(default {DEFAULT_DEPTH})")
    p.add_argument("--retries", type=int, default=DEFAULT_RETRIES,
                   metavar="R",
                   help="extra attempts per valuation before giving up "
                        f"(default {DEFAULT_RETRIES})")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL, metavar="F",
                   help="evaluation step budget per attempt "
                        f"(default {DEFAULT_FUEL})")
    p.add_argument("--check", action="store_true",
                   help="re-run the predicate on each result and discard "
                        "any that do not satisfy it")
    p.add_argument("--output", choices=("terms", "json", "trace",
                                        "histogram"),
                   default="terms",
                   help="output mode (default terms)")
    p.add_argument("--histogram", action="store_const", const="histogram",
                   dest="output",
                   help="shorthand for --output histogram")
    p.add_argument("--jobs", type=int, default=1, metavar="J",
                   help="generate valuations in parallel processes "
                        "(default 1)")
    return p


def parse_bound(text: str) -> tuple[int, int]:
    m = _BOUND_RE.match(text)
    if not m:
        raise DriverError(
            f"malformed --int-bound {text!r}; expected LO..HI, e.g. 0..42")
    return int(m.group(1)), int(m.group(2))


def pick_master_seed(flag: int | None) -> int:
    if flag is not None:
        return flag
    env = os.environ.get("LUCK_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DriverError(f"LUCK_SEED must be an integer, got {env!r}")
    return SystemRandom().getrandbits(63)


def valuation_seed(master: int, index: int) -> int:
    """Per-valuation seed: the first reuses the master, so every emitted
    report can be reproduced by passing its own seed back with --count 1."""
    return derive_seed(master, index) if index else master


_WORKER_PREP: PreparedQuery | None = None


def _worker_init(source: str, query: str,
                 int_bound: tuple[int, int] | None, depth: int) -> None:
    global _WORKER_PREP
    _WORKER_PREP = prepare(Program.from_source(source), query,
                           int_bound=int_bound, depth=depth)


def _worker_run(args: tuple[int, int, int, bool]) -> GenReport:
    seed, retries, fuel, check = args
    return run_prepared(_WORKER_PREP, seed=seed, retries=retries,
                        fuel=fuel, check=check)


def generate(source: str, query: str, *, count: int, master: int,
             int_bound: tuple[int, int] | None, depth: int, retries: int,
             fuel: int, check: bool, jobs: int):
    """Yield one GenReport per requested valuation, in index order.

    The query is prepared here before anything runs, so a configuration
    error comes before the first report; a pool's workers prepare their
    own copies.
    """
    prep = prepare(Program.from_source(source), query,
                   int_bound=int_bound, depth=depth)
    seeds = [valuation_seed(master, i) for i in range(count)]
    if jobs <= 1 or count <= 1:
        for s in seeds:
            yield run_prepared(prep, seed=s, retries=retries, fuel=fuel,
                               check=check)
        return
    tasks = [(s, retries, fuel, check) for s in seeds]
    with multiprocessing.Pool(
            min(jobs, count), initializer=_worker_init,
            initargs=(source, query, int_bound, depth)) as pool:
        chunk = max(1, count // (4 * jobs))
        yield from pool.imap(_worker_run, tasks, chunksize=chunk)


def _glue_bounds(argv: list[str]) -> list[str]:
    """argv with each negative bound (``-3..-1``) glued to the option before
    it, as ``--int-bound=-3..-1``: argparse reads a separate token that
    starts with a dash and is not a number as an option of its own."""
    out: list[str] = []
    for arg in argv:
        if (arg.startswith("-") and _BOUND_RE.match(arg) and out
                and out[-1].startswith("--") and "=" not in out[-1]):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ns = build_parser().parse_args(_glue_bounds(argv))
    try:
        if ns.count < 1:
            raise DriverError("--count must be at least 1")
        if ns.retries < 0:
            raise DriverError("--retries must be at least 0")
        if ns.depth < 0:
            raise DriverError("--depth must be at least 0")
        if ns.fuel < 1:
            raise DriverError("--fuel must be at least 1")
        if ns.jobs < 1:
            raise DriverError("--jobs must be at least 1")
        int_bound = parse_bound(ns.int_bound) if ns.int_bound else None
        master = pick_master_seed(ns.seed)
        source = Path(ns.file).read_text()
        reports = generate(source, ns.query, count=ns.count, master=master,
                           int_bound=int_bound, depth=ns.depth,
                           retries=ns.retries, fuel=ns.fuel, check=ns.check,
                           jobs=ns.jobs)
        failures = 0
        buckets: Counter[str] = Counter()
        for r in reports:
            if ns.output == "json":
                print(r.to_json())
            if not r.ok:
                failures += 1
                if ns.output != "json":
                    print(f"error: {r.error} (seed {r.seed})",
                          file=sys.stderr)
                continue
            if ns.output == "terms":
                print(r.result_text())
            elif ns.output == "trace":
                print(r.trace_line())
            elif ns.output == "histogram":
                buckets[r.result_text()] += 1
        if ns.output == "histogram":
            total = sum(buckets.values())
            for key, n in sorted(buckets.items(),
                                 key=lambda kv: (-kv[1], kv[0])):
                print(f"{n:8d}  {100 * n / total:6.2f}%  {key}")
        return 2 if failures else 0
    except _CONFIG_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
