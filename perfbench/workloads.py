"""The benchmark's workloads and the measurements taken on each.

A workload is one corpus query with its integer bound and depth.  A run
is a closed loop with one client: it calls ``driver.run_prepared(prep,
seed=s, check=True)`` on consecutive seeds ``s`` derived from the run's
seed until the run's generation time is up.  Every emitted valuation is
re-verified with ``predsem`` outside the timed region.

Between valuations the loop also runs the workload's hand-written
generator, and the gated timings are Luck's times as multiples of the
hand-written generator's time per value: the paper's slowdown.  On a
shared host the same fixed work runs up to 1.3x slower from one minute to
the next; both generators are pure Python timed under the same load, so
the ratio cancels that drift.  The wall-clock figures are recorded beside
it, ungated.

`measure` gives the end-to-end metrics with tracing off; `measure_traced`
gives the per-layer split from traced valuations, each paired with an
untraced one on the same seed, so the tracing overhead is the ratio of
their times.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from luck import cli, constraints, core, desugar, driver, matching, narrow
from luck import predsem, trace
from luck.desugar import Program

import handwritten
from tracer import Tracer

# Crashes a valuation can end in that are defects of the program; each is
# counted by name as a failed valuation instead of aborting the run.
KNOWN_CRASHES = (MemoryError, OverflowError, RecursionError)

# Valuation seeds of run `seed` start at seed * SEED_STRIDE, so runs with
# different seeds draw disjoint seed ranges.
SEED_STRIDE = 1_000_000

# The byte-identity pin covers this many leading valuations of a run.
DIGEST_VALUATIONS = 16

# Setup is repeated at least SETUP_MIN_REPEATS times and until
# SETUP_MIN_SECONDS have gone, at most SETUP_MAX_REPEATS times.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 101
SETUP_MIN_SECONDS = 1.0

# Valuations generated through `cli.generate` for the --jobs comparison.
JOBS_VALUATIONS = 8

# A run goes on past its seconds, up to MAX_OVERRUN times them, until it
# has MIN_EMITTED valid valuations, so that its p90 has ten samples above.
MIN_EMITTED = 100
MAX_OVERRUN = 1.2

# After each valuation the hand-written generator runs for this share of
# the valuation's time, in batches of HANDWRITTEN_BATCH values.
HANDWRITTEN_SHARE = 0.02
HANDWRITTEN_BATCH = 50


@dataclass(frozen=True)
class Workload:
    name: str
    file: str
    query: str
    int_bound: tuple[int, int]
    depth: int
    handwritten: Callable[[random.Random], object]


# BENCHMARK.json records why each gated workload was chosen.  Two more run
# here and in the all-workloads table but are not gated:
# - `member`: about 29% of its raw outputs fail recheck, the soundness
#   defect.  Each sample builds a list of all 335,922 candidate values.  A
#   third gated workload would cut every gated run to about 30 s, too few
#   valuations for rbt's p90 to have ten above it.
# - `sorted`: some valuations end in MemoryError, and about one in eight
#   takes 1-4 s in the eager filtered sample path, so its throughput over a
#   run of under a minute varies by about a fifth from seed to seed.
WORKLOADS = {w.name: w for w in [
    Workload("bst-deep", "bst.luck", "bst 3 0 10 t = True", (0, 10), 12,
             lambda rng: handwritten.gen_bst(rng, 3, 0, 10)),
    Workload("rbt", "rbt.luck", "isRBT 2 0 20 Black t = True", (0, 20), 8,
             lambda rng: handwritten.gen_rbt(rng, 2, 0, 20,
                                             handwritten.BLACK)),
    Workload("member", "member.luck", "member 3 l = True", (0, 5), 8,
             lambda rng: handwritten.gen_member(rng, 3, 0, 5, 8)),
    Workload("sorted", "sorted.luck", "sorted l = True", (0, 20), 8,
             lambda rng: handwritten.gen_sorted(rng, 0, 20, 8)),
]}


def src_root() -> Path:
    return Path(__file__).resolve().parent.parent


def source_of(w: Workload) -> str:
    return (src_root() / "corpus" / w.file).read_text()


def prepare(w: Workload, source: str) -> driver.PreparedQuery:
    return driver.prepare(Program.from_source(source), w.query,
                          int_bound=w.int_bound, depth=w.depth)


def measure_setup(w: Workload, source: str):
    """Median seconds of fresh parse + lower + prepare, and the last prep.

    An untimed first setup takes the process's memory from the system, so
    the repeats time the pipeline rather than page faults.  Each repeat
    starts from a collected heap without the previous prep; otherwise a
    collection of the previous repeat's garbage lands in some repeats and
    not others.
    """
    prep = prepare(w, source)
    times: list[float] = []
    began = time.perf_counter()
    while len(times) < SETUP_MAX_REPEATS and (
            len(times) < SETUP_MIN_REPEATS
            or time.perf_counter() - began < SETUP_MIN_SECONDS):
        prep = None
        gc.collect()
        t0 = time.perf_counter()
        prep = prepare(w, source)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), prep


@dataclass
class Valuation:
    """One `run_prepared` call, reduced to what the metrics need."""

    seed: int
    seconds: float
    ok: bool = False
    valid: bool = False
    discards: int = 0
    local_backtracks: int = 0
    crash: Optional[str] = None
    line: Optional[str] = None


def timed_run(prep: driver.PreparedQuery, seed: int):
    """(seed, seconds, report, crash) of one valuation.

    A known crash ends the valuation and is returned by name, so it is
    counted and does not abort the run.
    """
    t0 = time.perf_counter()
    try:
        report = driver.run_prepared(prep, seed=seed, check=True)
    except KNOWN_CRASHES as e:
        return seed, time.perf_counter() - t0, None, type(e).__name__
    return seed, time.perf_counter() - t0, report, None


def satisfies(prep: driver.PreparedQuery, values: dict) -> bool:
    """Whether the plain predicate semantics accepts a valuation."""
    concrete = prep.compiled.target
    for name, v in values.items():
        concrete = core.subst(concrete, name, v)
    try:
        return predsem.pred_eval(concrete) == prep.pattern
    except predsem.EvalFailure:
        return False


def check(prep: driver.PreparedQuery, raw, keep_line: bool) -> Valuation:
    """Re-verify an emitted valuation with predsem and drop the report.

    `keep_line` keeps the report's JSON line, without elapsed_s, for the
    output digest.
    """
    seed, seconds, report, crash = raw
    if report is None:
        line = json.dumps({"seed": seed, "crash": crash})
        return Valuation(seed, seconds, crash=crash,
                         line=line if keep_line else None)
    line = None
    if keep_line:
        record = json.loads(report.to_json())
        del record["elapsed_s"]
        line = json.dumps(record)
    return Valuation(seed, seconds, report.ok,
                     report.ok and satisfies(prep, report.values),
                     report.discards, report.local_backtracks, line=line)


class HandwrittenClock:
    """Time per value of a workload's hand-written generator, sampled in
    slices between valuations.

    Garbage collection is off during a slice, so its time does not depend
    on the size of Luck's heap; the hand-written values hold no cycles.
    """

    def __init__(self, w: Workload, seed: int):
        self.generate = w.handwritten
        self.rng = random.Random(seed)
        self.values = 0
        self.seconds = 0.0

    def run_for(self, seconds: float) -> float:
        """Generate in batches until `seconds` have gone; the time spent."""
        gc.disable()
        try:
            t0 = time.perf_counter()
            while True:
                for _ in range(HANDWRITTEN_BATCH):
                    self.generate(self.rng)
                self.values += HANDWRITTEN_BATCH
                spent = time.perf_counter() - t0
                if spent >= seconds:
                    break
        finally:
            gc.enable()
        self.seconds += spent
        return spent

    @property
    def seconds_per_value(self) -> float:
        return self.seconds / self.values


def run_loop(prep, clock: HandwrittenClock, first_seed: int,
             seconds: float) -> list[Valuation]:
    """Valuations on consecutive seeds until `seconds` of generation and
    MIN_EMITTED valid valuations, or MAX_OVERRUN times `seconds`.

    A slice of `clock` follows each valuation and counts in the time.
    Each valuation is checked as it comes, outside the timed region, so
    neither the check's time nor the reports' memory grows with the run.
    """
    vals: list[Valuation] = []
    timed = 0.0
    emitted = 0
    while not vals or timed < seconds or (
            emitted < MIN_EMITTED and timed < seconds * MAX_OVERRUN):
        raw = timed_run(prep, first_seed + len(vals))
        timed += raw[1] + clock.run_for(raw[1] * HANDWRITTEN_SHARE)
        vals.append(check(prep, raw, len(vals) < DIGEST_VALUATIONS))
        emitted += vals[-1].ok
    return vals


def output_digest(vals: list[Valuation]) -> str:
    """Hash of the leading valuations' JSON lines."""
    h = hashlib.sha256()
    for v in vals[:DIGEST_VALUATIONS]:
        h.update(v.line.encode() + b"\n")
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _quantiles_ms(xs: list[float]) -> tuple[float, float, float]:
    """Median, interquartile mean and 90th percentile of `xs`, in ms.

    The interquartile mean averages the middle half of the values.  It is
    gated instead of the median because valuation times can be multimodal:
    bst-deep's fall into three clusters and its median sits in the trough
    between two of them, so it moves by 10-20% from one run's seeds to the
    next while the interquartile mean moves by about 6%.
    """
    ms = sorted(x * 1e3 for x in xs)
    if len(ms) < 2:
        return ms[0], ms[0], ms[0]
    quarter = len(ms) // 4
    iqm = statistics.fmean(ms[quarter:len(ms) - quarter])
    return statistics.median(ms), iqm, statistics.quantiles(ms, n=10)[8]


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    detail: dict

    def to_json(self) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in self.metrics.items()}})


@dataclass
class Outcome:
    """Counts over the valuations of one loop."""

    valuations: int
    emitted: int
    discards: int
    gen_errors: int
    crashes: dict[str, int]
    invalid_seeds: list[int]
    seconds: float

    @classmethod
    def of(cls, vals: list[Valuation]) -> "Outcome":
        return cls(len(vals), sum(v.ok for v in vals),
                   sum(v.discards for v in vals),
                   sum(1 for v in vals if not v.ok and v.crash is None),
                   dict(Counter(v.crash for v in vals if v.crash)),
                   [v.seed for v in vals if v.ok and not v.valid],
                   sum(v.seconds for v in vals))

    @property
    def failed(self) -> int:
        return self.gen_errors + sum(self.crashes.values())

    def result(self, metrics: dict, detail: dict) -> Result:
        detail = {**detail, "invalid_seeds": self.invalid_seeds}
        return Result(not self.invalid_seeds, self.valuations, self.failed,
                      metrics, detail)


def measure(w: Workload, seed: int, seconds: float) -> Result:
    """End-to-end metrics of one untraced run."""
    source = source_of(w)
    setup_s, prep = measure_setup(w, source)
    clock = HandwrittenClock(w, seed)
    vals = run_loop(prep, clock, seed * SEED_STRIDE, seconds)
    o = Outcome.of(vals)
    times = [v.seconds for v in vals if v.ok]
    p50, iqm, p90 = _quantiles_ms(times) if times else (0.0, 0.0, 0.0)
    emitted, raw_outputs = o.emitted, o.emitted + o.discards
    handwritten_ms = clock.seconds_per_value * 1e3
    # time spent on failed valuations counts against the valid ones
    luck_ms = o.seconds / max(1, emitted) * 1e3
    metrics = {
        "slowdown_vs_handwritten": (luck_ms / handwritten_ms, "ratio"),
        "valuation_iqm_vs_handwritten": (iqm / handwritten_ms, "ratio"),
        "valuation_p90_vs_handwritten": (p90 / handwritten_ms, "ratio"),
        "sound_share": (emitted / max(1, raw_outputs), "ratio"),
        "completed_share": (emitted / o.valuations, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }
    return o.result(metrics, {
        "workload": w.name, "seed": seed,
        "valuations": o.valuations, "emitted": emitted,
        "valuations_per_s": emitted / o.seconds,
        "valuation_ms_p50": p50, "valuation_ms_iqm": iqm,
        "valuation_ms_p90": p90, "handwritten_ms": handwritten_ms,
        "samples_above_p90": sum(1 for t in times if t * 1e3 > p90),
        "unsound_share": o.discards / max(1, raw_outputs),
        "failed_share": o.failed / o.valuations,
        "failures": {"GenReport": o.gen_errors, **o.crashes},
        "output_digest": output_digest(vals),
    })


# -- traced run --------------------------------------------------------------

STORE_METHODS = ("fresh", "unify", "sat", "type_of", "post_cmp",
                 "fresh_shifted", "resolve", "find", "created_since",
                 "propagate", "index", "count_values", "fail",
                 "denote_restricted")


def count_nodes(e: core.Expr) -> int:
    n, todo = 0, [e]
    while todo:
        x = todo.pop()
        n += 1
        todo.extend(v for f in dataclasses.fields(x)
                    if isinstance(v := getattr(x, f.name), core.Expr))
    return n


def _install_setup_spans(t: Tracer) -> None:
    t.wrap(desugar, "parse_program", "surface.parse")
    t.wrap(desugar, "check_scopes", "surface.parse")
    t.wrap(Program, "__init__", "desugar.check")
    t.wrap(Program, "compile_query", "desugar.lower")
    t.wrap(constraints.ConstraintSet, "materialize",
           "constraints.materialize")


def _install_run_spans(t: Tracer, match_outcomes: list) -> None:
    """Spans for the generation loop.

    `match_outcomes` receives (dead, unknowns) for each match that
    returned; the store's own `sat` is looked up before it is wrapped, so
    the check adds no store span.
    """
    cs = constraints.ConstraintSet
    sat = cs.sat

    def on_match(out) -> None:
        match_outcomes.append((out is None or not sat(out),
                               None if out is None else out.next_fresh))

    for m in STORE_METHODS:
        t.wrap(cs, m, "constraints.store", family="constraints")
    t.wrap(matching, "union_sets", "constraints.store", family="constraints")
    t.wrap(matching, "rename_unknowns", "constraints.store",
           family="constraints")
    t.wrap(cs, "sample", "constraints.sample_space", family="constraints")
    t.wrap(constraints.SampleSpace, "at", "constraints.sample_space",
           family="constraints")
    for mod in (matching, narrow, predsem):
        t.wrap(mod, "subst", "core.subst")
    t.wrap(driver, "attempt", "driver.attempt")
    t.wrap(driver, "match_eval", "matching.match", on_result=on_match)
    for f in ("narrow", "narrow_weight"):
        t.wrap(matching, f, "narrow.narrow")
    for mod in (driver, matching, narrow):
        t.wrap(mod, "sample_value", "narrow.sample")
    t.wrap(driver, "recheck", "predsem.recheck")
    t.count(trace.RunCtx, "record", "trace.choices")


def jobs2_speedup(seed: int) -> float:
    """Wall of `cli.generate` with jobs=1 over jobs=2 on the rbt query."""
    w = WORKLOADS["rbt"]
    source = source_of(w)

    def wall(jobs: int) -> float:
        t0 = time.perf_counter()
        for _ in cli.generate(source, w.query, count=JOBS_VALUATIONS,
                              master=seed, int_bound=w.int_bound,
                              depth=w.depth, retries=driver.DEFAULT_RETRIES,
                              fuel=driver.DEFAULT_FUEL, check=True,
                              jobs=jobs):
            pass
        return time.perf_counter() - t0

    return wall(1) / wall(2)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in (src_root() / "src" / "luck").glob("*.py"))


def measure_traced(w: Workload, seed: int, seconds: float) -> Result:
    """Per-layer metrics from traced valuations, each paired with an
    untraced run of the same seed."""
    source = source_of(w)
    prep = prepare(w, source)
    setup_tracer = Tracer()
    _install_setup_spans(setup_tracer)
    try:
        traced_prep = prepare(w, source)
    finally:
        setup_tracer.uninstall()
    setup = setup_tracer.totals()

    t = Tracer()
    match_outcomes: list = []

    def traced_run(s: int):
        _install_run_spans(t, match_outcomes)
        try:
            with t.span("driver.valuation"):
                return timed_run(prep, s)
        finally:
            t.uninstall()

    # each seed runs untraced and traced back to back, in alternating
    # order, so drift in machine speed cancels out of the overhead ratio
    raws: list = []
    plain_s = 0.0
    while not raws or plain_s < seconds / 2:
        s = seed * SEED_STRIDE + len(raws)
        if len(raws) % 2:
            raws.append(traced_run(s))
            plain_s += timed_run(prep, s)[1]
        else:
            plain_s += timed_run(prep, s)[1]
            raws.append(traced_run(s))
    vals = [check(prep, raw, i < DIGEST_VALUATIONS)
            for i, raw in enumerate(raws)]
    o = Outcome.of(vals)
    layers = t.totals()
    n = o.valuations

    def ms(name: str, per: int, self_time: bool = True) -> float:
        lt = layers.get(name)
        if lt is None:
            return 0.0
        return (lt.self_s if self_time else lt.total_s) * 1e3 / per

    def calls(name: str) -> int:
        return layers[name].calls if name in layers else 0

    attempts = max(1, calls("driver.attempt"))
    # an attempt whose match raised left no outcome: it died there too
    dead = sum(d for d, _ in match_outcomes)
    dead += calls("driver.attempt") - len(match_outcomes)
    live = [u for _, u in match_outcomes if u is not None]
    metrics = {
        "surface.parse_ms": (setup["surface.parse"].total_s * 1e3, "ms"),
        "desugar.check_ms": (setup["desugar.check"].total_s * 1e3, "ms"),
        "desugar.lower_ms": (setup["desugar.lower"].total_s * 1e3, "ms"),
        "desugar.target_nodes": (count_nodes(traced_prep.target), "count"),
        "constraints.materialize_ms":
            (setup["constraints.materialize"].total_s * 1e3, "ms"),
        "constraints.prepared_unknowns":
            (traced_prep.base.next_fresh, "count"),
        "constraints.store_ms_per_attempt":
            (ms("constraints.store", attempts), "ms"),
        "constraints.store_calls_per_attempt":
            (calls("constraints.store") / attempts, "count"),
        "constraints.unknowns_per_attempt":
            (statistics.fmean(live) if live else 0.0, "count"),
        "constraints.sample_space_ms_per_valuation":
            (ms("constraints.sample_space", n), "ms"),
        "core.subst_ms_per_attempt": (ms("core.subst", attempts), "ms"),
        "core.subst_calls_per_attempt":
            (calls("core.subst") / attempts, "count"),
        "matching.match_ms_per_attempt":
            (ms("matching.match", attempts, self_time=False), "ms"),
        "matching.self_ms_per_attempt":
            (ms("matching.match", attempts), "ms"),
        "matching.dead_attempt_share": (dead / attempts, "ratio"),
        "matching.local_backtracks_per_valuation":
            (sum(v.local_backtracks for v in vals) / n, "count"),
        "narrow.narrow_ms_per_attempt": (ms("narrow.narrow", attempts), "ms"),
        "narrow.sample_ms_per_valuation": (ms("narrow.sample", n), "ms"),
        "predsem.recheck_ms_per_valuation":
            (ms("predsem.recheck", n, self_time=False), "ms"),
        "driver.attempts_per_valuation": (attempts / n, "count"),
        "driver.discards_per_valuation": (o.discards / n, "count"),
        "trace.choices_per_valuation":
            (t.counts["trace.choices"] / n, "count"),
        "trace.overhead": (o.seconds / plain_s, "ratio"),
        "src_lines": (src_lines(), "lines"),
        "cli.jobs2_speedup": (jobs2_speedup(seed), "ratio"),
    }
    return o.result(metrics, {"workload": w.name, "seed": seed,
                              "valuations": n, "spans": len(t.start),
                              "output_digest": output_digest(vals)})
