"""Driver: seeded generation, retries, replay, and exhaustive enumeration."""

import ast
import gc
import json
import pickle
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from luck import core, driver
from luck.constraints import RFold, RPair, RSum
from luck.core import BOOL
from luck.desugar import Program
from luck.driver import (
    DriverError,
    GenReport,
    attempt,
    enumerate_query,
    prepare,
    recheck,
    replay_query,
    run_prepared,
    run_query,
)
from luck.trace import Choice, RandomSource, RunCtx, parse_int

from .typecheck import type_eq, typecheck

CORPUS = Path(__file__).parent.parent / "corpus"


def load(name):
    return Program.from_source((CORPUS / name).read_text())


def test_generation_satisfies_the_predicate():
    prog = load("bst.luck")
    prep = prepare(prog, "bst 3 0 10 t = True", int_bound=(0, 10))
    for seed in range(50):
        r = run_prepared(prep, seed=seed, check=True)
        assert r.ok and r.discards == 0
        assert recheck(prep, r.values)


def benchmark_runs():
    """The benchmark's rbt and bst-deep queries, each with its seeds."""
    return [(prepare(load("rbt.luck"), "isRBT 2 0 20 Black t = True",
                     int_bound=(0, 20)), range(20)),
            (prepare(load("bst.luck"), "bst 3 0 10 t = True",
                     int_bound=(0, 10), depth=12), range(100))]


def test_the_package_ships_no_typechecker_and_imports_no_tests():
    # the typechecker is a test helper; a package module that imported it,
    # or anything else under tests/, would break the installed package
    for path in Path(driver.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            for mod in mods:
                assert mod.split(".")[0] != "tests", f"{path.name}: {mod}"
    assert not hasattr(core, "typecheck")


def test_a_compiled_target_equals_and_hashes_as_a_fresh_lowering():
    query = "isRBT 2 0 20 Black t = True"
    prep = prepare(load("rbt.luck"), query, int_bound=(0, 20))
    for seed in range(3):
        assert run_prepared(prep, seed=seed, check=True).ok
    target = prep.target
    assert target._match is not None and target._pred is not None
    fresh = load("rbt.luck").compile_query(query).target
    assert fresh._match is None and fresh is not target
    assert target == fresh and hash(target) == hash(fresh)


def matched_stores(monkeypatch):
    """The store each attempt's match returns over the benchmark runs."""
    match_eval = driver.match_eval
    stores = []

    def recording(*args):
        out = match_eval(*args)
        stores.append(out)
        return out

    monkeypatch.setattr(driver, "match_eval", recording)
    for prep, seeds in benchmark_runs():
        for seed in seeds:
            assert run_prepared(prep, seed=seed, check=True).ok
    assert stores
    return stores


def test_a_child_is_unbound_exactly_when_its_type_is_unit(monkeypatch):
    # a unit unknown's type gives its one value, so it is the only kind of
    # unknown without a binding; a node's type gives its children's types
    checked = 0
    for cs in matched_stores(monkeypatch):
        for b in cs.bindings.values():
            if isinstance(b, RFold):
                kids = [(b.child, core.unfold_mu(b.ty))]
            elif isinstance(b, RPair):
                kids = [(b.fst, b.ty.left), (b.snd, b.ty.right)]
            elif isinstance(b, RSum):
                kids = [(c, t) for c, t in ((b.left, b.ty.left),
                                            (b.right, b.ty.right))
                        if c is not None]
            else:
                continue
            for child, ty in kids:
                assert (child not in cs.bindings) == isinstance(ty, core.TUnit)
                checked += 1
    assert checked


def test_no_store_holds_a_binary_constraint(monkeypatch):
    # each comparison meets a bound that `!` has already pinned, and a
    # pinned unknown is read as its integer
    assert not [cs for cs in matched_stores(monkeypatch) if cs.cons]


def test_valuations_leave_no_cyclic_garbage():
    # reference counting frees every store a valuation makes: a cycle
    # through a store keeps all its dictionaries until a cyclic collection
    runs = benchmark_runs()
    gc.collect()
    gc.disable()
    try:
        for prep, seeds in runs:
            for seed in seeds:
                assert run_prepared(prep, seed=seed, check=True).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_compiled_code_is_freed_with_its_program():
    # no registry outlives a program's code; nothing compiled travels with
    # a report, which --jobs pickles
    prep = prepare(load("rbt.luck"), "isRBT 2 0 20 Black t = True",
                   int_bound=(0, 20))
    reports = [run_prepared(prep, seed=s, check=True) for s in range(3)]
    assert all(r.ok for r in reports)
    assert pickle.loads(pickle.dumps(reports)) == reports
    assert prep.target._match is not None and prep.target._pred is not None
    target = weakref.ref(prep.target)
    del prep, reports
    gc.collect()
    assert target() is None


def test_same_seed_reproduces_the_report():
    prog = load("bst.luck")
    a = run_query(prog, "bst 3 0 10 t = True", seed=7, int_bound=(0, 10))
    b = run_query(prog, "bst 3 0 10 t = True", seed=7, int_bound=(0, 10))
    assert a.ok and b.ok
    assert a.shown == b.shown and a.trace == b.trace and a.q == b.q


def test_recorded_trace_replays_to_the_identical_value():
    prog = load("bst.luck")
    for seed in range(20):
        r = run_query(prog, "bst 4 0 20 t = True", seed=seed,
                      int_bound=(0, 20))
        assert r.ok
        r2 = replay_query(prog, "bst 4 0 20 t = True", r.trace,
                          int_bound=(0, 20))
        assert r2.ok and r2.shown == r.shown and r2.q == r.q
        assert r2.trace == r.trace


def test_a_short_or_wrong_script_replays_to_a_failed_report():
    prog = load("bst.luck")
    short = replay_query(prog, "bst 3 0 10 t = True", [], int_bound=(0, 10))
    assert not short.ok and short.values is None
    assert "ran out after 0 choices" in short.error
    # the first choice of this query is a 1:2 pick
    wrong = replay_query(prog, "bst 3 0 10 t = True", [Choice(0, 3)],
                         int_bound=(0, 10))
    assert not wrong.ok and "recorded arity 3, run wants 2" in wrong.error


def test_enumeration_of_the_two_bound_forms():
    prog = load("ex35.luck")
    a_rows = list(enumerate_query(prog, "a u = True", int_bound=(0, 9)))
    assert [(t, q, s and s["u"]) for t, q, s in a_rows] == [
        ([Choice(i, 3)], Fraction(1, 3), str(i + 1)) for i in range(3)]
    b_rows = list(enumerate_query(prog, "b u = True", int_bound=(0, 9)))
    assert [(t, q, s and s["u"]) for t, q, s in b_rows] == [
        ([Choice(i, 9)], Fraction(1, 9), str(i + 1) if i < 3 else None)
        for i in range(9)]
    assert sum(q for _, q, _ in b_rows) == Fraction(1)


def test_missing_int_bound_is_rejected():
    with pytest.raises(DriverError, match="bounds are required"):
        run_query(load("ex35.luck"), "a u = True")


def test_empty_int_window_is_rejected():
    with pytest.raises(DriverError, match="no value"):
        run_query(load("ex35.luck"), "a u = True", int_bound=(5, 2))


def test_a_negative_depth_bound_is_rejected():
    with pytest.raises(DriverError, match="depth bound must be at least 0"):
        prepare(load("ex35.luck"), "b u = True", int_bound=(0, 9), depth=-1)


def test_empty_int_window_is_rejected_for_structured_queries():
    # the tree's integers have no value, although Empty would still fit
    with pytest.raises(DriverError, match="no value"):
        prepare(load("bst.luck"), "bst 3 0 10 t = True", int_bound=(5, 1))


def test_prepared_store_does_not_grow_with_the_depth_bound():
    prog = load("bst.luck")
    shallow = prepare(prog, "bst 3 0 10 t = True", int_bound=(0, 10),
                      depth=8)
    deep = prepare(prog, "bst 3 0 10 t = True", int_bound=(0, 10), depth=14)
    assert shallow.base.next_fresh == deep.base.next_fresh == 1


def test_depth_bound_limits_structure():
    prog = load("length.luck")
    shallow = run_query(prog, "length l 3 = True", seed=0, int_bound=(0, 3),
                        depth=3, retries=5)
    assert not shallow.ok and "attempts" in shallow.error
    assert shallow.attempts == 6
    deep = run_query(prog, "length l 3 = True", seed=0, int_bound=(0, 3),
                     depth=6)
    assert deep.ok and deep.shown["l"].count(",") == 2


def test_unsatisfiable_query_exhausts_its_retries():
    # b samples u before it checks u < 4, so every attempt draws
    prog = load("ex35.luck")
    r = run_query(prog, "b u = True", seed=1, int_bound=(5, 9), retries=3)
    assert not r.ok and r.attempts == 4 and r.values is None
    assert r.error == ("no success in 4 attempts; last failure: the query "
                       "admits no refinement on this path")


def test_a_failure_that_drew_nothing_is_final():
    # a's bounds empty the store before any draw, so no seed can succeed
    prog = load("ex35.luck")
    r = run_query(prog, "a u = True", seed=1, int_bound=(5, 9), retries=3)
    assert not r.ok and r.attempts == 1 and r.values is None
    assert r.error.endswith("; the last attempt drew no random choice, so "
                            "the failure does not depend on the seed")
    zero = Program.from_source("""
data T = A | B
sig f :: Int -> T -> Bool
fun f n t = case t of | n % A -> True | n % B -> False end
""")
    r = run_query(zero, "f 0 t = True", seed=1)
    assert r.attempts == 1
    assert r.error == (
        "no success in 1 attempts; last failure: no weight mass on the "
        "satisfiable branches; the last attempt drew no random choice, so "
        "the failure does not depend on the seed")


def test_an_attempt_counts_the_draws_a_rollback_removes():
    # local backtracking rolls failed sides out of the trace, not out of
    # the draw count
    prep = prepare(load("rbt.luck"), "isRBT 2 0 20 Black t = True",
                   int_bound=(0, 20))
    for seed in range(20):
        ctx = RunCtx(RandomSource(seed))
        attempt(prep, ctx)
        if ctx.local_backtracks:
            assert ctx.draws > len(ctx.trace)
            return
    raise AssertionError("no seed backtracked")


def test_multiple_unknowns_are_all_reported():
    prog = load("member.luck")
    r = run_query(prog, "member x l = True", seed=3, int_bound=(0, 3),
                  depth=5, check=True)
    assert r.ok and set(r.shown) == {"x", "l"}
    assert r.result_text() == f"x={r.shown['x']}, l={r.shown['l']}"
    assert r.shown["x"] in r.shown["l"].strip("[]").split(", ")


def test_json_report_round_trips():
    prog = load("ex35.luck")
    r = run_query(prog, "a u = True", seed=11, int_bound=(0, 9))
    d = json.loads(r.to_json())
    assert d["ok"] is True and d["seed"] == 11
    assert d["values"] == r.shown
    assert d["choices"] == [[c.index, c.arity] for c in r.trace]
    assert Fraction(*map(int, d["q"].split("/"))) == r.q


def test_json_report_with_a_q_past_the_integer_digit_limit():
    q = Fraction(1, 2**92934)
    r = GenReport("sorted l = True", True, 36, None, {"l": "[]"}, [], q,
                  1, 0, 0, 0.0)
    num, den = json.loads(r.to_json())["q"].split("/")
    assert Fraction(parse_int(num), parse_int(den)) == q


def test_generation_without_constraints_is_uniform_to_depth():
    # a predicate that never examines its argument leaves the whole
    # depth-bounded range; sampling must still work
    prog = Program.from_source("""
sig anyList :: [Bool] -> Bool
fun anyList l = True
""")
    seen = set()
    prep = prepare(prog, "anyList l = True", depth=3)
    for seed in range(200):
        r = run_prepared(prep, seed=seed)
        assert r.ok
        seen.add(r.shown["l"])
    # depth 3 admits lists of length 0, 1, 2 over booleans: 1+2+4 values
    assert seen == {"[]", "[True]", "[False]",
                    "[True, True]", "[True, False]",
                    "[False, True]", "[False, False]"}


DEEP = """
sig down :: Int -> Int -> Bool
fun down n u =
  if n == 0 then u == 0 else down (n - 1) u
"""


def test_recursion_past_the_python_limit_ends_the_valuation():
    prog = Program.from_source(DEEP)
    assert run_query(prog, "down 20 u = True", int_bound=(0, 1),
                     seed=1).ok
    query = "down 5000 u = True"
    report = run_query(prog, query, int_bound=(0, 1), seed=1)
    # every retry would recurse as deep, so there is no second attempt
    assert not report.ok and report.attempts == 1
    assert "recursion limit" in report.error
    report = replay_query(prog, query, [], int_bound=(0, 1))
    assert not report.ok and "recursion limit" in report.error
    with pytest.raises(DriverError, match="recursion limit"):
        list(enumerate_query(prog, query, int_bound=(0, 1)))


WIDE = """
sig f :: Int -> Bool
fun f n = if n == 0 then True else f (n - 1) && f (n - 1)

sig g :: Int -> Int -> Bool
fun g n x = f n && x == 1
"""


def test_the_recheck_runs_under_the_given_fuel():
    # the recheck of g 12 applies functions 8,193 times: g twice and f
    # 2^13 - 1 times; running out is not a confirmation
    prep = prepare(Program.from_source(WIDE), "g 12 x = True",
                   int_bound=(0, 3))
    assert recheck(prep, {"x": core.IntLit(1)}, fuel=8_192) is None
    assert recheck(prep, {"x": core.IntLit(1)}, fuel=8_193)


def test_a_recheck_out_of_fuel_is_counted_in_the_error(monkeypatch):
    # seed 1's first attempt at sorted and its recheck each apply functions
    # 5 times.  A recheck applies no function the attempt that made its
    # valuation did not, so under the same fuel only a recheck that
    # recurses past the Python limit runs out; a recheck that raises
    # EvalTimeout stands in for it
    prep = prepare(load("sorted.luck"), "sorted l = True", int_bound=(0, 20))
    vals = run_prepared(prep, seed=1, retries=0, fuel=5).values
    assert recheck(prep, vals, fuel=5)
    assert recheck(prep, vals, fuel=4) is None

    def out_of_fuel(*args):
        raise driver.EvalTimeout()

    monkeypatch.setattr(driver, "pred_eval", out_of_fuel)
    r = run_prepared(prep, seed=1, retries=0, fuel=5, check=True)
    assert not r.ok and r.discards == 1
    assert r.error == ("no success in 1 attempts (1 ran out of fuel, 5 "
                       "function applications each)")


def test_enumeration_counts_a_trace_out_of_fuel_as_failure():
    rows = list(enumerate_query(load("bst.luck"), "bst 1 0 3 t = True",
                                int_bound=(0, 3), depth=3, fuel=3))
    assert sum(q for _, q, _ in rows) == 1
    assert rows and all(shown is None for _, _, shown in rows)


# The paper's soundness and completeness theorems at small bounds: the
# successes of the exhaustive enumeration are exactly the valuations that
# satisfy the predicate within the bounds, and the probabilities of all
# traces sum to one.  The last four keep two live sides in matching, a
# plain case or a comparison against an open boolean, where a store that
# joined both sides let unsound valuations through.
THEOREM_QUERIES = [
    ("bst.luck", "bst 2 0 3 t = True", (0, 3), 3),
    ("distinct.luck", "distinct l = True", (0, 2), 3),
    ("sorted.luck", "sorted l = True", (0, 2), 3),
    ("rbt.luck", "isRBT 1 0 3 Black t = True", (0, 3), 3),
    ("member.luck", "member 1 l = True", (0, 2), 3),
    ("bst.luck", "bst 1 0 3 t = False", (0, 3), 3),
    ("distinct.luck", "distinct l = False", (0, 3), 4),
    pytest.param("rbt.luck", "isRBT 1 0 2 Black t = False", (0, 2), 3,
                 marks=pytest.mark.slow),  # enumerating takes about 9 s
]


def theorem_id(case):
    query = (case.values if hasattr(case, "values") else case)[1]
    return query.split()[0] + ("-False" if query.endswith("False") else "")


@pytest.mark.parametrize("file,query,bound,depth", THEOREM_QUERIES,
                         ids=[theorem_id(c) for c in THEOREM_QUERIES])
def test_enumeration_is_sound_complete_and_sums_to_one(file, query, bound,
                                                       depth):
    assert enumerated_successes_satisfy(load(file), query, bound, depth)


def enumerated_successes_satisfy(prog, query, bound, depth):
    """Check that the q of the enumeration sums to one and that its
    successes are exactly the valuations within the bounds that satisfy
    the predicate; return that set."""
    prep = prepare(prog, query, int_bound=bound, depth=depth)
    (name, uid), = prep.uids.items()
    ty = prep.compiled.surface_types[name]
    satisfying = {prog.show_value(v, ty)
                  for v, in prep.base.denote_restricted([uid])
                  if recheck(prep, {name: v})}
    rows = list(enumerate_query(prog, query, int_bound=bound, depth=depth))
    assert sum(q for _, q, _ in rows) == 1
    assert {shown[name] for _, _, shown in rows if shown} == satisfying
    return satisfying


# Structural equality against a constructor of one field, where lowering
# binds the field itself, not a tuple of fields: a first, a last and an
# only constructor, and a field of list type.
ONE_FIELD = {
    "first": ("data C = A Int | B | D Int", "c == A 2"),
    "last": ("data C = A Int | B | D Int", "c == D 1"),
    "only": ("data W = W Int", "w == W 3"),
    "list": ("data R = R (List Int)", "r == R [1, 2]"),
}


@pytest.mark.parametrize("source,query", [
    pytest.param(source, f"{eq} = {want}", id=f"{shape}-{want}")
    for shape, (source, eq) in ONE_FIELD.items()
    for want in ("True", "False")])
def test_equality_against_a_one_field_constructor(source, query):
    prog = Program.from_source(source)
    q = prog.compile_query(query)
    assert type_eq(typecheck(q.target, dict(q.unknowns)), BOOL)
    enumerated_successes_satisfy(prog, query, (0, 2), 3)


# Exact output distributions at small bounds: for each shown valuation, the
# sum of q over the enumerated traces that end in it.
F = Fraction
SORTED = ("sorted.luck", "sorted l = True", (0, 3), 4)
EXACT_DISTRIBUTIONS = [
    (SORTED, {
        "[]": F(1, 4),
        "[0]": F(1, 16), "[1]": F(1, 16), "[2]": F(1, 16), "[3]": F(1, 16),
        "[0, 1]": F(1, 36), "[0, 2]": F(1, 36), "[0, 3]": F(1, 36),
        "[1, 2]": F(1, 36), "[1, 3]": F(1, 36), "[2, 3]": F(1, 36),
        "[0, 1, 2]": F(1, 12), "[0, 1, 3]": F(1, 12), "[0, 2, 3]": F(1, 12),
        "[1, 2, 3]": F(1, 12),
    }),
    (("distinct.luck", "distinct l = True", (0, 2), 3), {
        "[]": F(1, 2),
        "[0]": F(1, 12), "[1]": F(1, 12), "[2]": F(1, 12),
        "[0, 1]": F(1, 24), "[0, 2]": F(1, 24), "[1, 0]": F(1, 24),
        "[1, 2]": F(1, 24), "[2, 0]": F(1, 24), "[2, 1]": F(1, 24),
    }),
    (("bst.luck", "bst 2 0 3 t = True", (0, 3), 3), {
        "Empty": F(1, 3),
        "Node 1 Empty Empty": F(1, 12),
        "Node 2 Empty Empty": F(1, 12),
        "Node 1 Empty (Node 2 Empty Empty)": F(1, 12),
        "Node 2 (Node 1 Empty Empty) Empty": F(1, 12),
    }),
    # each `h == 1 || member 1 t` that can go both ways is a 1:1 choice;
    # the failure mass is 1/2
    (("member.luck", "member 1 l = True", (0, 2), 3), {
        "[0, 1]": F(1, 16), "[2, 1]": F(1, 16),
        "[1]": F(3, 32), "[1, 0]": F(3, 32), "[1, 1]": F(3, 32),
        "[1, 2]": F(3, 32),
    }),
]


def exact_distribution(file, query, bound, depth):
    dist = Counter()
    for _, q, shown in enumerate_query(load(file), query, int_bound=bound,
                                       depth=depth):
        if shown:
            (text,) = shown.values()
            dist[text] += q
    return dict(dist)


@pytest.mark.parametrize("case,expected", EXACT_DISTRIBUTIONS,
                         ids=[c[1].split()[0] for c, _ in EXACT_DISTRIBUTIONS])
def test_the_exact_distribution_is_pinned(case, expected):
    assert exact_distribution(*case) == expected


# chi-square with 14 degrees of freedom (15 outcomes) at p = 0.001
CHI2_CRITICAL_DF14 = 36.12


def test_seeded_runs_follow_the_exact_distribution():
    file, query, bound, depth = SORTED
    exact = exact_distribution(*SORTED)
    # run_prepared retries failed attempts: successes are conditioned
    total = sum(exact.values())
    prep = prepare(load(file), query, int_bound=bound, depth=depth)
    n = 2000
    seen = Counter(run_prepared(prep, seed=seed).shown["l"]
                   for seed in range(n))
    assert set(seen) <= set(exact)
    chi2 = sum((seen[k] - n * p / total) ** 2 / (n * p / total)
               for k, p in exact.items())
    assert chi2 < CHI2_CRITICAL_DF14


# One query per place a negative integer prints: a constructor argument,
# a list element and a whole value.
@pytest.mark.parametrize("file,query,bound", [
    ("bst.luck", "bst 2 (-2) 2 t = True", (-2, 2)),
    ("distinct.luck", "distinct l = True", (-2, -1)),
    ("ex35.luck", "a u = False", (-2, 0)),
])
def test_every_value_shown_under_negative_bounds_parses_back(file, query,
                                                             bound):
    prog = load(file)
    rows = [shown for _, _, shown in enumerate_query(
        prog, query, int_bound=bound, depth=3) if shown]
    assert any("-" in text for shown in rows for text in shown.values())
    for shown in rows:
        ((name, text),) = shown.items()
        again = run_query(prog, f"{name} == {text} = True",
                          int_bound=bound, depth=3)
        assert again.shown == {name: text}
