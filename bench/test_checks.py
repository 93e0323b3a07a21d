"""Self-tests of the benchmark's checkers and reference values.

    python3 -m unittest discover -s bench -p 'test_*.py'

Each call of each workload is run in-process; its real output must pass its
checker, and every corruption below that applies to it must be rejected.
The reference rule itself is checked against the hook length formula and
the orthogonality relations.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import unittest
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles as O  # noqa: E402
from workloads import HELP, WORKLOADS  # noqa: E402

sys.path.insert(0, str(O.ROOT / "src"))


def run_in_process(argv) -> tuple:
    from almostchar.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def corruptions(doc):
    """(what, corrupted doc) for every corruption that applies to doc."""
    if isinstance(doc, list):
        if doc:
            yield "last entry dropped", doc[:-1]
        if doc and isinstance(doc[0], list):
            yield "first pair's sides swapped", [doc[0][::-1]] + doc[1:]
        if doc and isinstance(doc[0], dict) and "verdict" in doc[0]:
            bad = copy.deepcopy(doc)
            bad[0]["verdict"] = "fail" if bad[0]["verdict"] == "pass" else "pass"
            yield "first verdict flipped", bad
        return
    if "verdict" in doc:
        bad = dict(doc, verdict="fail" if doc["verdict"] == "pass" else "pass")
        yield "verdict flipped", bad
    for key in (None, "value", "base"):
        poly = doc if key is None else doc.get(key)
        if isinstance(poly, dict) and "terms" in poly:
            bad = copy.deepcopy(doc)
            target = bad if key is None else bad[key]
            if target["terms"]:
                target["terms"][0]["num"] += 1
            else:
                target["terms"].append({"halfexp": 0, "num": 1, "den": 1})
            yield f"{key or 'value'} perturbed", bad
    for key in ("classes", "pairs", "rank"):
        if key in doc:
            yield f"{key} off by one", dict(doc, **{key: doc[key] + 1})
    if "matrix" in doc:
        bad = copy.deepcopy(doc)
        entry = bad["matrix"][0][0]
        bad["matrix"][0][0] = entry[1:] if entry.startswith("-") else "-" + entry
        yield "matrix entry negated", bad


class CheckersRejectCorruptedOutput(unittest.TestCase):
    def test_every_call_of_every_workload(self):
        for name, make in WORKLOADS.items():
            for call in make(5).calls:
                with self.subTest(workload=name, argv=call.argv):
                    code, out = run_in_process(call.argv)
                    self.assertEqual(call.check(code, out), [], "the real output is rejected")
                    self.assertNotEqual(call.check(1 - code, out), [], "exit code flip accepted")
                    self.assertNotEqual(call.check(code, out[: len(out) // 2]), [],
                                        "truncated output accepted")
                    applied = 0
                    for what, bad in corruptions(json.loads(out)):
                        applied += 1
                        self.assertNotEqual(call.check(code, json.dumps(bad)), [],
                                            f"{what} accepted")
                    self.assertGreater(applied, 0, "no content corruption applies")

    def test_help(self):
        code, out = 0, "usage: almostchar [-h] {symbol,...}\n"
        self.assertEqual(HELP.check(code, out), [])
        self.assertNotEqual(HELP.check(2, out), [])
        self.assertNotEqual(HELP.check(0, ""), [])


def hook_dimension(p: tuple) -> int:
    """Standard tableaux of shape p, by the hook length formula."""
    hooks = 1
    conj = O.transpose(p)
    for i, row in enumerate(p):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(p)) // hooks


def centralizer_order(cycles: tuple) -> int:
    """prod over cycle lengths i of (2i)^m m!, plain and barred apart."""
    order = 1
    for length in set(cycles):
        m = cycles.count(length)
        order *= (2 * abs(length)) ** m * factorial(m)
    return order


class ReferenceRule(unittest.TestCase):
    def test_identity_gives_the_dimension(self):
        for n in range(1, 7):
            for a, b in O.bipartitions(n):
                want = comb(n, sum(a)) * hook_dimension(a) * hook_dimension(b)
                self.assertEqual(O.char_at_1(a, b, (1,) * n), want, (a, b))

    def test_column_orthogonality(self):
        n = 4
        classes = O.class_cycles_b(n)
        table = {c: [O.char_at_1(a, b, c) for a, b in O.bipartitions(n)] for c in classes}
        for c1 in classes:
            for c2 in classes:
                dot = sum(x * y for x, y in zip(table[c1], table[c2]))
                self.assertEqual(dot, centralizer_order(c1) if c1 == c2 else 0, (c1, c2))

    def test_counts(self):
        self.assertEqual([O.bipartition_count(n) for n in range(7)], [1, 2, 5, 10, 20, 36, 65])
        for a in range(5):
            for b in range(5):
                self.assertEqual(len(O.rectangle_pairs(a, b)), comb(a + b, a))

    def test_matrix_model_at_rank_one(self):
        # T_0 acts by u on ((1),()) and by -1 on ((),(1))
        usq = Fraction(3)
        self.assertEqual(O.matrix_trace("B", (1,), (), (-1,), usq), usq**2)
        self.assertEqual(O.matrix_trace("B", (), (1,), (-1,), usq), -1)


if __name__ == "__main__":
    unittest.main()
