"""Pinned generation output: fixed queries and seeds, byte-identical lines.

Each expected line is a ``GenReport.to_json()`` line from
``run_prepared(..., check=True)`` without ``elapsed_s``.  A change to the
engine that alters any random choice, count or value shows up here; one
that changes the stream on purpose must re-record these lines and say so.
"""

import hashlib
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

SORTED = [
    "{\"query\": \"sorted l = True\", \"ok\": true, \"seed\": 0, \"values\": {\"l\": \"[6, 13]\"}, \"choices\": [[1, 2], [1, 2], [0, 2], [132, 400]], \"q\": \"1/2400\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"sorted l = True\", \"ok\": true, \"seed\": 1, \"values\": {\"l\": \"[2, 5, 6, 9, 10]\"}, \"choices\": [[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [0, 2], [374831, 1419857], [369160, 1419856], [273313, 1419855], [793146, 1419854], [957920, 1419853], [1208723, 1419852], [138200, 1419851], [65857, 1419850], [249718, 1419849], [1194700, 1419848], [1041437, 1419847], [1064277, 1419846], [1197546, 1419845], [994174, 1419844], [849346, 1419843], [823009, 1419842], [1280028, 1419841], [565126, 1419840], [781178, 1419839], [614209, 1419838], [1074762, 1419837], [1194548, 1419836], [61529, 1419835], [386141, 1419834], [1189354, 1419833], [565779, 1419832], [278056, 1419831], [713817, 1419830], [1014461, 1419829], [670688, 1419828], [786951, 1419827], [278890, 1419826], [668200, 1419825], [239330, 1419824], [383260, 1419823], [84715, 1419822], [1241784, 1419821], [926579, 1419820], [401433, 1419819], [1319705, 1419818], [765721, 1419817], [716045, 1419816], [1344392, 1419815], [664550, 1419814], [913178, 1419813], [341349, 1419812], [898565, 1419811], [139820, 1419810], [1004841, 1419809], [1381943, 1419808], [632238, 1419807], [1271593, 1419806], [651308, 1419805], [614467, 1419804], [908173, 1419803], [119309, 1419802], [672541, 1419801], [1400031, 1419800], [442346, 1419799], [519498, 1419798], [389296, 1419797], [1176275, 1419796], [487368, 1419795], [1390523, 1419794], [1414468, 1419793], [550091, 1419792], [668806, 1419791], [865457, 1419790], [240067, 1419789], [501765, 1419788], [147986, 1419787], [1417814, 1419786], [203746, 1419785], [323684, 1419784], [1177576, 1419783], [369282, 1419782], [1251078, 1419781], [1355469, 1419780], [19960, 1419779], [1164894, 1419778], [1058015, 1419777], [1012010, 1419776], [228868, 1419775], [594414, 1419774], [612127, 1419773], [1157923, 1419772], [1021243, 1419771], [708202, 1419770], [916002, 1419769], [348858, 1419768], [593659, 1419767], [966985, 1419766], [279638, 1419765], [589888, 1419764], [681879, 1419763], [500612, 1419762], [1292349, 1419761], [208562, 1419760], [896491, 1419759], [187950, 1419758]], \"q\": \"1/33835423367297298770096338842931606461016943122392758158609356294962717805629922530905102287962674267805595970168364871503396956398413108369259308323705750573808791325967191318878016467100569469577672410443752572214388240050890781032027321454307806076634402366256217783100749176174398905979608328031383492356564327119099071222371968232676660166808932317033533798945351796572587916415478983936445077678882449609096828809255210956345412329766553494500536577772027425463129942976927423342935390162223064513926674070286887977776096669481096237445951113125851547628189716702105900234876701498146816000000000000000000000000\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"sorted l = True\", \"ok\": true, \"seed\": 2, \"values\": {\"l\": \"[7]\"}, \"choices\": [[1, 2], [0, 2], [7, 21]], \"q\": \"1/84\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"sorted l = True\", \"ok\": true, \"seed\": 3, \"values\": {\"l\": \"[3, 8, 9, 13]\"}, \"choices\": [[1, 2], [1, 2], [1, 2], [1, 2], [0, 2], [73531, 104976], [17787, 104975], [100858, 104974], [87839, 104973], [20219, 104972], [33462, 104971], [22124, 104970], [27267, 104969], [1170, 104968], [19898, 104967]], \"q\": \"1/2193046287738337756955485788435189926081657165952000\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"sorted l = True\", \"ok\": true, \"seed\": 4, \"values\": {\"l\": \"[0, 12, 19]\"}, \"choices\": [[1, 2], [1, 2], [1, 2], [0, 2], [6438, 6859], [2480, 6858], [226, 6857]], \"q\": \"1/2902919164686\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"sorted l = True\", \"ok\": true, \"seed\": 5, \"values\": {\"l\": \"[3, 5]\"}, \"choices\": [[1, 2], [1, 2], [0, 2], [64, 400]], \"q\": \"1/2400\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"sorted l = True\", \"ok\": true, \"seed\": 6, \"values\": {\"l\": \"[3, 5, 14, 18]\"}, \"choices\": [[1, 2], [1, 2], [1, 2], [1, 2], [0, 2], [13186, 104976], [2563, 104975], [58864, 104974], [63110, 104973], [62650, 104972], [35812, 104971], [48715, 104970], [30789, 104969], [97592, 104968], [101314, 104967], [26459, 104966], [56855, 104965], [94209, 104964], [93751, 104963], [93688, 104962], [43894, 104961], [26579, 104960], [78162, 104959], [76027, 104958], [58872, 104957], [24246, 104956], [86127, 104955], [17524, 104954], [82237, 104953], [7074, 104952], [61379, 104951], [44914, 104950], [82273, 104949], [30533, 104948], [26893, 104947], [97283, 104946], [60128, 104945], [19019, 104944]], \"q\": \"1/66699078918141897227653329178738471696304403742566582843173998778245583833562787085380329005071911616808049000676560414072506684332549406326119329408550436864000000000\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
]

LENGTH = [
    "{\"query\": \"length l 3 = True\", \"ok\": true, \"seed\": 0, \"values\": {\"l\": \"[3, 3, 2]\"}, \"choices\": [[1, 2], [1, 2], [1, 2], [0, 2], [62, 64]], \"q\": \"1/1024\", \"attempts\": 1, \"local_backtracks\": 2, \"discards\": 0, \"error\": null}",
    "{\"query\": \"length l 3 = True\", \"ok\": true, \"seed\": 1, \"values\": {\"l\": \"[1, 0, 0]\"}, \"choices\": [[1, 2], [1, 2], [1, 2], [0, 2], [16, 64]], \"q\": \"1/1024\", \"attempts\": 1, \"local_backtracks\": 2, \"discards\": 0, \"error\": null}",
    "{\"query\": \"length l 3 = True\", \"ok\": true, \"seed\": 2, \"values\": {\"l\": \"[2, 0, 1]\"}, \"choices\": [[1, 2], [1, 2], [1, 2], [0, 2], [33, 64]], \"q\": \"1/1024\", \"attempts\": 1, \"local_backtracks\": 4, \"discards\": 0, \"error\": null}",
    "{\"query\": \"length l 3 = True\", \"ok\": true, \"seed\": 3, \"values\": {\"l\": \"[1, 0, 1]\"}, \"choices\": [[1, 2], [1, 2], [1, 2], [0, 2], [17, 64]], \"q\": \"1/1024\", \"attempts\": 1, \"local_backtracks\": 1, \"discards\": 0, \"error\": null}",
]

REDEX = [
    "{\"query\": \"isRedex t = True\", \"ok\": true, \"seed\": 0, \"values\": {\"t\": \"App (Lam 1 (App (Var 0) (Var 1))) (Lam 1 (App (Var 1) (Var 0)))\"}, \"choices\": [[1, 2], [1, 2], [1, 2], [0, 2], [2094, 2440]], \"q\": \"1/3660\", \"attempts\": 1, \"local_backtracks\": 1, \"discards\": 0, \"error\": null}",
    "{\"query\": \"isRedex t = True\", \"ok\": true, \"seed\": 1, \"values\": {\"t\": \"App (Lam 0 (Lam 1 (Var 1))) (App (App (Var 1) (Var 0)) (App (Var 1) (Var 1)))\"}, \"choices\": [[1, 2], [1, 2], [1, 2], [0, 2], [721, 2440]], \"q\": \"1/3660\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"isRedex t = True\", \"ok\": true, \"seed\": 2, \"values\": {\"t\": \"App (Lam 0 (App (Var 1) (Var 0))) (App (App (Var 0) (Var 0)) (Var 0))\"}, \"choices\": [[1, 2], [1, 2], [1, 2], [0, 2], [1058, 2440]], \"q\": \"1/3660\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
    "{\"query\": \"isRedex t = True\", \"ok\": true, \"seed\": 3, \"values\": {\"t\": \"App (Lam 0 (App (Var 0) (Var 1))) (App (App (Var 0) (Var 1)) (App (Var 1) (Var 0)))\"}, \"choices\": [[1, 2], [1, 2], [1, 2], [0, 2], [954, 2440]], \"q\": \"1/3660\", \"attempts\": 1, \"local_backtracks\": 0, \"discards\": 0, \"error\": null}",
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
    ("sorted.luck", "sorted l = True", (0, 20), 8, SORTED),
    ("length.luck", "length l 3 = True", (0, 3), 8, LENGTH),
    ("redex.luck", "isRedex t = True", (0, 1), 4, REDEX),
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


# (file, query, int bound, depth, seeds 0..n-1, sha256 of their lines, each
# ending in a newline): a wider net than the lines above, for refactors
# that must leave the output byte-identical
DIGESTS = [
    ("bst.luck", "bst 3 0 10 t = True", (0, 10), 8, 40,
     "bb4c1a4f4a1a608e82f37c1c0e85ce56f410150a2b6a3dd51375e512398b6a9f"),
    ("bst.luck", "bst 3 0 10 t = True", (0, 10), 12, 20,
     "07ec98cb20b0998a09296ad4cda8580c3a52258080ff477b130895961613a911"),
    ("bst.luck", "bst 6 0 40 t = True", (0, 40), 8, 20,
     "bf3b9554552465548324ca0b3914f78fe49f5a962989aecfc85170353c963d9d"),
    ("rbt.luck", "isRBT 2 0 20 Black t = True", (0, 20), 8, 20,
     "74f145ebec0d25f86ab516fbe21afbe583323f1381ba54a7c8f7c7cc846b4acf"),
    ("distinct.luck", "distinct l = True", (0, 9), 8, 60,
     "e81630c3cede5626594937fa3afc9f7aa35b227ebff17db2fedfac1e59c3c467"),
    ("ex35.luck", "a u = True", (0, 9), 8, 30,
     "11e593acb4efc3145f1b687dd85f222b6807c904e1dacd3469f14d9b89bcf371"),
    ("ex35.luck", "b u = True", (0, 9), 8, 30,
     "aa8a5a85402b7963d550496273985dfb7040063c2a6f04277fe81770382a1d3d"),
    ("member.luck", "member 3 l = True", (0, 5), 8, 20,
     "1700db4c5692d50834e52e77b71cc057b29da4652bae1e17719f27fa1a0959d5"),
    ("sorted.luck", "sorted l = True", (0, 20), 8, 30,
     "f7d5134798a4791a98eba1d118578a232d053cca34a69ae3a2d489af43143b66"),
    ("length.luck", "length l 3 = True", (0, 3), 8, 30,
     "a39f12ad0724d1d216d761e0d20cf64e0e6baa1a1a158183ccc396d3f0fcf2f3"),
    ("redex.luck", "isRedex t = True", (0, 1), 4, 30,
     "7a3fedf7a150f7a565a2a73555c05bec8b510860c57995e5791387fd518d853c"),
    # the queries where matching joins two refined stores with `union`; some
    # of these outputs are unsound (ROADMAP item 2), and the pins record the
    # current behaviour, not the intended one
    ("distinct.luck", "distinct l = False", (0, 3), 4, 60,
     "6d6537aad09ad639f4f8ca3acdc0ae53b8f09dc2a2bafe1f08e3a3feeedc0f07"),
    ("bst.luck", "bst 2 0 3 t = False", (0, 3), 3, 60,
     "61fd8f1445a99f24dd3f056684efc83508a92e24de8e599ba4c0632b008e2bd0"),
    ("rbt.luck", "isRBT 1 0 3 Black t = False", (0, 3), 3, 60,
     "2d7a09b7634b059bddc672df6f7128c4f408c34fcaa91fd29cf8e3a1815d87d4"),
    ("member.luck", "member 1 l = True", (0, 2), 3, 60,
     "a38c1511f1b61d065b4d1e6d0e5d37d8bc7ad7c9a8176792b2e31ea77bbb853e"),
]


@pytest.mark.parametrize("file,query,int_bound,depth,n,expected", DIGESTS,
                         ids=[f"{q.split()[0]}-{q.split()[1]}-d{d}"
                              for _, q, _, d, _, _ in DIGESTS])
def test_output_digest_is_pinned(file, query, int_bound, depth, n, expected):
    lines = report_lines(file, query, int_bound, depth, range(n))
    text = "".join(line + "\n" for line in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == expected
