"""Pinned generation output: fixed queries and seeds, byte-identical lines.

Each expected line is a ``GenReport.to_json()`` line from
``run_prepared(..., check=True)`` without ``elapsed_s``.  A change to the
engine that alters any random choice, count or value shows up here; one
that changes the stream on purpose must re-record these lines and say so.
"""

import json
from pathlib import Path

import pytest

from luck.desugar import Program
from luck.driver import prepare, run_prepared

CORPUS = Path(__file__).parent.parent / "corpus"

BST = [
    "{\"query\": \"bst 3 0 10 t = True\", \"ok\": true, \"seed\": 0, \"values\": {\"t\": \"Node 7 Empty (Node 9 Empty Empty)\"}, \"choices\": [[1, 2], [6, 9], [0, 2], [1, 2], [1, 2]], \"q\": \"1/96\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"bst 3 0 10 t = True\", \"ok\": true, \"seed\": 1, \"values\": {\"t\": \"Node 9 Empty Empty\"}, \"choices\": [[1, 2], [8, 9], [0, 2], [0, 2]], \"q\": \"1/48\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"bst 3 0 10 t = True\", \"ok\": true, \"seed\": 2, \"values\": {\"t\": \"Node 4 Empty (Node 7 Empty Empty)\"}, \"choices\": [[1, 2], [3, 9], [0, 2], [1, 2], [2, 5]], \"q\": \"1/240\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"bst 3 0 10 t = True\", \"ok\": true, \"seed\": 3, \"values\": {\"t\": \"Node 6 (Node 2 Empty Empty) Empty\"}, \"choices\": [[1, 2], [5, 9], [1, 2], [1, 5], [0, 2]], \"q\": \"1/240\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"bst 3 0 10 t = True\", \"ok\": true, \"seed\": 4, \"values\": {\"t\": \"Node 9 Empty Empty\"}, \"choices\": [[1, 2], [8, 9], [0, 2], [0, 2]], \"q\": \"1/48\", \"attempts\": 1, \"local_backtracks\": 1, \"discards\": 0, \"error\": null}",
    "{\"query\": \"bst 3 0 10 t = True\", \"ok\": true, \"seed\": 5, \"values\": {\"t\": \"Node 4 Empty Empty\"}, \"choices\": [[1, 2], [3, 9], [0, 2], [0, 2]], \"q\": \"1/48\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
]

RBT = [
    "{\"query\": \"isRBT 2 0 20 Black t = True\", \"ok\": true, \"seed\": 0, \"values\": {\"t\": \"Node Black 2 (Node Black 1 Leaf Leaf) (Node Red 11 (Node Black 5 (Node Red 4 Leaf Leaf) Leaf) (Node Black 17 (Node Red 16 Leaf Leaf) (Node Red 18 Leaf Leaf)))\"}, \"choices\": [[1, 2], [1, 2], [1, 19], [1, 2], [1, 2], [0, 2], [0, 2], [1, 2], [0, 2], [8, 17], [1, 2], [1, 2], [2, 8], [1, 2], [0, 2], [0, 2], [0, 2], [1, 2], [0, 2], [1, 2], [1, 2], [5, 8], [1, 2], [0, 2], [0, 2], [0, 2], [4, 5], [1, 2], [0, 2], [0, 2], [0, 2], [0, 2]], \"q\": \"1/7441920000\", \"attempts\": 1, \"local_backtracks\": 8, \"discards\": 0, \"error\": null}",
    "{\"query\": \"isRBT 2 0 20 Black t = True\", \"ok\": true, \"seed\": 1, \"values\": {\"t\": \"Node Black 7 (Node Black 6 (Node Red 1 Leaf Leaf) Leaf) (Node Black 8 Leaf (Node Red 14 Leaf Leaf))\"}, \"choices\": [[1, 2], [1, 2], [6, 19], [1, 2], [1, 2], [5, 6], [1, 2], [0, 2], [0, 2], [0, 2], [0, 5], [0, 2], [1, 2], [1, 2], [0, 12], [0, 2], [1, 2], [0, 2], [0, 2], [0, 2], [5, 11]], \"q\": \"1/75240000\", \"attempts\": 1, \"local_backtracks\": 32, \"discards\": 0, \"error\": null}",
    "{\"query\": \"isRBT 2 0 20 Black t = True\", \"ok\": true, \"seed\": 2, \"values\": {\"t\": \"Node Red 8 (Node Black 6 (Node Black 1 Leaf (Node Red 2 Leaf Leaf)) (Node Black 7 Leaf Leaf)) (Node Black 16 (Node Red 10 (Node Black 9 Leaf Leaf) (Node Black 11 Leaf (Node Red 15 Leaf Leaf))) (Node Black 19 (Node Red 18 Leaf Leaf) Leaf))\"}, \"choices\": [[1, 2], [0, 2], [7, 19], [1, 2], [1, 2], [5, 7], [1, 2], [1, 2], [0, 5], [0, 2], [1, 2], [0, 2], [0, 2], [0, 2], [0, 4], [1, 2], [1, 2], [0, 2], [0, 2], [1, 2], [1, 2], [7, 11], [1, 2], [0, 2], [1, 7], [1, 2], [1, 2], [0, 2], [0, 2], [1, 2], [1, 2], [0, 5], [0, 2], [1, 2], [0, 2], [0, 2], [0, 2], [3, 4], [1, 2], [1, 2], [2, 3], [1, 2], [0, 2], [0, 2], [0, 2], [1, 2], [0, 2]], \"q\": \"1/1592680320000000\", \"attempts\": 1, \"local_backtracks\": 20, \"discards\": 0, \"error\": null}",
]

DISTINCT = [
    "{\"query\": \"distinct l = True\", \"ok\": true, \"seed\": 0, \"values\": {\"l\": \"[6]\"}, \"choices\": [[1, 2], [6, 10], [0, 2]], \"q\": \"1/40\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"distinct l = True\", \"ok\": true, \"seed\": 1, \"values\": {\"l\": \"[9]\"}, \"choices\": [[1, 2], [9, 10], [0, 2]], \"q\": \"1/40\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"distinct l = True\", \"ok\": true, \"seed\": 2, \"values\": {\"l\": \"[]\"}, \"choices\": [[0, 2]], \"q\": \"1/2\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"distinct l = True\", \"ok\": true, \"seed\": 3, \"values\": {\"l\": \"[]\"}, \"choices\": [[0, 2]], \"q\": \"1/2\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"distinct l = True\", \"ok\": true, \"seed\": 4, \"values\": {\"l\": \"[]\"}, \"choices\": [[0, 2]], \"q\": \"1/2\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
]

EX35_A = [
    "{\"query\": \"a u = True\", \"ok\": true, \"seed\": 0, \"values\": {\"u\": \"2\"}, \"choices\": [[1, 3]], \"q\": \"1/3\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"a u = True\", \"ok\": true, \"seed\": 1, \"values\": {\"u\": \"2\"}, \"choices\": [[1, 3]], \"q\": \"1/3\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"a u = True\", \"ok\": true, \"seed\": 2, \"values\": {\"u\": \"1\"}, \"choices\": [[0, 3]], \"q\": \"1/3\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"a u = True\", \"ok\": true, \"seed\": 3, \"values\": {\"u\": \"1\"}, \"choices\": [[0, 3]], \"q\": \"1/3\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
]

EX35_B = [
    "{\"query\": \"b u = True\", \"ok\": true, \"seed\": 0, \"values\": {\"u\": \"1\"}, \"choices\": [[0, 9]], \"q\": \"1/9\", \"attempts\": 3, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"b u = True\", \"ok\": true, \"seed\": 1, \"values\": {\"u\": \"1\"}, \"choices\": [[0, 9]], \"q\": \"1/9\", \"attempts\": 5, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"b u = True\", \"ok\": true, \"seed\": 2, \"values\": {\"u\": \"3\"}, \"choices\": [[2, 9]], \"q\": \"1/9\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"b u = True\", \"ok\": true, \"seed\": 3, \"values\": {\"u\": \"1\"}, \"choices\": [[0, 9]], \"q\": \"1/9\", \"attempts\": 2, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
]

MEMBER = [
    "{\"query\": \"member 3 l = True\", \"ok\": true, \"seed\": 0, \"values\": {\"l\": \"[2, 1, 0, 2, 2, 0, 3]\"}, \"choices\": [[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [121918, 335922]], \"q\": \"1/42998016\", \"attempts\": 2, \"local_backtracks\": 4, \"discards\": 1, \"error\": null}",
    "{\"query\": \"member 3 l = True\", \"ok\": true, \"seed\": 1, \"values\": {\"l\": \"[0, 3, 5, 1, 3, 0]\"}, \"choices\": [[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [36161, 335922]], \"q\": \"1/42998016\", \"attempts\": 2, \"local_backtracks\": 7, \"discards\": 1, \"error\": null}",
    "{\"query\": \"member 3 l = True\", \"ok\": true, \"seed\": 2, \"values\": {\"l\": \"[4, 4, 1, 3, 5, 2, 3]\"}, \"choices\": [[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [263842, 335922]], \"q\": \"1/42998016\", \"attempts\": 2, \"local_backtracks\": 8, \"discards\": 1, \"error\": null}",
    "{\"query\": \"member 3 l = True\", \"ok\": true, \"seed\": 3, \"values\": {\"l\": \"[1, 3, 2, 5, 2, 3]\"}, \"choices\": [[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [88497, 335922]], \"q\": \"1/42998016\", \"attempts\": 1, \"local_backtracks\": 4, \"discards\": 0, \"error\": null}",
]

# (file, query, int bound, depth, expected lines for seeds 0, 1, ...)
CASES = [
    ("bst.luck", "bst 3 0 10 t = True", (0, 10), 8, BST),
    ("bst.luck", "bst 3 0 10 t = True", (0, 10), 14, BST),
    ("rbt.luck", "isRBT 2 0 20 Black t = True", (0, 20), 8, RBT),
    ("distinct.luck", "distinct l = True", (0, 9), 8, DISTINCT),
    ("ex35.luck", "a u = True", (0, 9), 8, EX35_A),
    ("ex35.luck", "b u = True", (0, 9), 8, EX35_B),
    ("member.luck", "member 3 l = True", (0, 5), 8, MEMBER),
]


def report_lines(file, query, int_bound, depth, seeds):
    prog = Program.from_source((CORPUS / file).read_text())
    prep = prepare(prog, query, int_bound=int_bound, depth=depth)
    lines = []
    for seed in seeds:
        record = json.loads(run_prepared(prep, seed=seed, check=True).to_json())
        del record["elapsed_s"]
        lines.append(json.dumps(record))
    return lines


@pytest.mark.parametrize("file,query,int_bound,depth,expected", CASES,
                         ids=[f"{q.split()[0]}-{q.split()[1]}-d{d}"
                              for _, q, _, d, _ in CASES])
def test_output_is_pinned(file, query, int_bound, depth, expected):
    assert report_lines(file, query, int_bound, depth,
                        range(len(expected))) == expected


def test_bst_output_does_not_depend_on_the_depth_bound():
    # bst 3 admits trees of at most 3 nodes, so a depth bound of 8 never
    # binds and raising it must not change a single choice
    shallow = report_lines("bst.luck", "bst 3 0 10 t = True", (0, 10), 8,
                           range(12))
    deep = report_lines("bst.luck", "bst 3 0 10 t = True", (0, 10), 14,
                        range(12))
    assert shallow == deep
