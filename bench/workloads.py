"""The benchmark's workloads: CLI calls, each with a check of its output.

A workload is a fixed list of `python -m almostchar ...` calls (one round).
Inputs that vary come from the seed alone, drawn from sets whose members
cost about the same, so the seed changes what is checked and not how long
a round takes.  Every check compares the output with values computed apart
from the program (see oracles.py) or with a property the output must have;
none compares with a stored copy of an earlier output.

A checker takes (exit code, stdout) and returns a list of problems, empty
when the output is right.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, NamedTuple

import oracles as O


class Call(NamedTuple):
    argv: tuple
    check: Callable[[int, str], list]


class Workload(NamedTuple):
    name: str
    calls: tuple
    #: (kind, alpha, beta, cycles) traces the workload sums; a seeded
    #: sample of them is checked at u = 1 through the library
    traces: tuple


def _js(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _checked(body):
    """Wrap a checker body that may raise on malformed output."""

    def check(code: int, out: str) -> list:
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return [f"stdout is not JSON: {out[:120]!r}"]
        try:
            return body(code, doc)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError, ZeroDivisionError) as e:
            return [f"malformed output ({type(e).__name__}: {e}): {out[:120]!r}"]

    return check


def _expect(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _value_problems(value: dict, at_1: str | None, want_at_1, want_at_points=None) -> list:
    """A printed value against its u = 1 reference and, when given, against
    reference values at the points of O.USQ_POINTS."""
    problems = []
    if at_1 is not None:
        _expect(problems, _frac(at_1) == O.eval_terms(value, Fraction(1)),
                f"value_at_1 {at_1} is not the value's sum of coefficients")
    _expect(problems, O.eval_terms(value, Fraction(1)) == want_at_1,
            f"value at u=1 is {O.eval_terms(value, Fraction(1))}, reference {want_at_1}")
    if want_at_points is not None:
        for usq, want in zip(O.USQ_POINTS, want_at_points):
            got = O.eval_terms(value, usq)
            _expect(problems, got == want, f"value at u^(1/2)={usq} is {got}, matrix model {want}")
    return problems


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def check_orthogonality(n: int):
    def body(code, doc):
        p = []
        _expect(p, code == 0, f"exit code {code}, expected 0")
        _expect(p, doc["n"] == n and doc["kind"] == "B", "wrong n or kind echoed")
        _expect(p, doc["classes"] == O.bipartition_count(n),
                f"classes {doc['classes']} != bipartitions of {n} = {O.bipartition_count(n)}")
        _expect(p, doc["mismatches"] == [] and doc["verdict"] == "pass",
                "the orthogonality relations do not hold")
        return p

    return _checked(body)


@lru_cache(maxsize=None)
def _cuspidal_points(kind: str, d: int, cycles: tuple) -> tuple:
    return tuple(O.cuspidal_matrix_value(kind, d, cycles, usq) for usq in O.USQ_POINTS)


@lru_cache(maxsize=None)
def _rectangle_points(a: int, b: int, cycles: tuple) -> tuple:
    return tuple(O.rectangle_matrix_value(a, b, cycles, usq) for usq in O.USQ_POINTS)


def _cuspidal_value_problems(kind: str, d: int, cycles: tuple, value: dict, at_1: str) -> list:
    """f of the cuspidal symbol: zero when the last cycle is plain, the
    matrix model at rank <= 4, the u = 1 rule always."""
    if O.ends_plain(cycles) and value["terms"]:
        return [f"cycles {list(cycles)} end in a plain cycle, so the value must be exactly 0"]
    points = _cuspidal_points(kind, d, cycles) if d == 1 else None
    return _value_problems(value, at_1, O.cuspidal_at_1(kind, d, cycles), points)


def check_nonvanishing(kind: str, d: int):
    rank = d * d + d if kind == "B" else 4 * d * d

    def body(code, doc):
        p = []
        cycles = tuple(doc["cycles"])
        _expect(p, doc["kind"] == kind and doc["d"] == d, "wrong kind or d echoed")
        _expect(p, all(isinstance(c, int) and c != 0 for c in cycles)
                and sum(abs(c) for c in cycles) == rank,
                f"cycles {list(cycles)} do not have total {rank}")
        p += _cuspidal_value_problems(kind, d, cycles, doc["value"], doc["value_at_1"])
        nonzero = bool(doc["value"]["terms"])
        _expect(p, doc["verdict"] == ("pass" if nonzero else "fail"),
                f"verdict {doc['verdict']} for a {'nonzero' if nonzero else 'zero'} value")
        _expect(p, code == (0 if nonzero else 1), f"exit code {code} for verdict {doc['verdict']}")
        return p

    return _checked(body)


def check_recursion(a: int, b: int, cycles: tuple):
    head = cycles[:-2]

    def body(code, doc):
        p = []
        _expect(p, (doc["a"], doc["b"], tuple(doc["cycles"])) == (a, b, cycles),
                "wrong a, b or cycles echoed")
        # f_ab of the (d+1) x d box is the cuspidal sum up to a constant
        if a == b + 1 and O.ends_plain(cycles):
            _expect(p, doc["value"]["terms"] == [],
                    "the value must be exactly 0: the last cycle is plain")
        base = doc["base"]
        _expect(p, tuple(O.eval_terms(base, u) for u in O.USQ_POINTS)
                == _rectangle_points(a - 4, b - 4, head), "base differs from the matrix model")
        if base["terms"] and not doc["value"]["terms"]:
            _expect(p, doc["h"] == {"terms": []} and doc["h_at_1"] == "0/1",
                    "h must be exactly value / base = 0")
            _expect(p, doc["verdict"] == "fail" and code == 1,
                    "a zero quotient cannot pass the lemma's check")
        return p

    return _checked(body)


def check_reports(claim: str, kinds: tuple, n: int, count_key: str):
    """Reports that carry their own verdict, one per kind (a list for two)."""

    def body(code, doc):
        p = [] if code == 0 else [f"exit code {code}, expected 0"]
        docs = doc if len(kinds) > 1 else [doc]
        _expect(p, isinstance(docs, list) and len(docs) == len(kinds), "expected one report per kind")
        for kind, rep in zip(kinds, docs):
            _expect(p, rep["claim"] == claim and rep["kind"] == kind and rep["n"] == n,
                    f"wrong claim, kind or n in the {kind} report")
            _expect(p, rep["verdict"] == "pass" and rep["failures"] == [] and rep[count_key] > 0,
                    f"{claim} fails for kind {kind}")
        return p

    return _checked(body)


def check_d_swap(n: int):
    lists = len(O.cycles_d(n))
    ordered = sum(1 for a, b in O.bipartitions(n) if a > b)

    def body(code, doc):
        p = [] if code == 0 else [f"exit code {code}, expected 0"]
        _expect(p, doc["claim"] == "d-swap-diagnostic" and doc["n"] == n, "wrong claim or n")
        _expect(p, doc["pairs"] == lists * ordered,
                f"pairs {doc['pairs']} != {lists} cycle lists x {ordered} bipartitions")
        _expect(p, all(x["value"] != x["swapped"] for x in doc["asymmetries"]),
                "an asymmetry lists two equal values")
        _expect(p, doc["verdict"] == "pass", "the diagnostic never fails")
        return p

    return _checked(body)


def _symbol_rank(s: list, t: list) -> int:
    m = len(s) + len(t)
    return sum(s) + sum(t) - ((m - 1) ** 2 // 4 if m else 0)


def check_pairing_matrix(z1: tuple, z2: tuple):
    d1 = (len(z1) - 1) // 2

    def body(code, doc):
        p = [] if code == 0 else [f"exit code {code}, expected 0"]
        members = doc["members"]
        mat = [[_frac(x) for x in row] for row in doc["matrix"]]
        size = len(members)
        _expect(p, (tuple(doc["Z1"]), tuple(doc["Z2"])) == (z1, z2), "wrong Z1 or Z2 echoed")
        _expect(p, size == 4**d1, f"{size} members, a family of {len(z1)} singles has {4 ** d1}")
        for m in members:
            s, t = set(m["S"]), set(m["T"])
            _expect(p, s ^ t == set(z1) and s & t == set(z2), f"member {m} not in the family")
        _expect(p, len(mat) == size and all(len(r) == size for r in mat), "matrix is not square")
        _expect(p, all(abs(x) == Fraction(1, 2**d1) for r in mat for x in r),
                f"entries are not +-1/2^{d1}")
        for i in range(size):
            for j in range(size):
                got = sum(mat[i][k] * mat[k][j] for k in range(size))
                if got != (1 if i == j else 0):
                    p.append(f"matrix squared is not the identity at ({i},{j})")
                    return p
        return p

    return _checked(body)


def check_family_list(n: int):
    # symbols of rank n and odd defect d <-> bipartitions of n - (d^2-1)/4
    total = 0
    d = 1
    while (d * d - 1) // 4 <= n:
        total += O.bipartition_count(n - (d * d - 1) // 4)
        d += 2

    def body(code, doc):
        p = [] if code == 0 else [f"exit code {code}, expected 0"]
        members = [m for fam in doc for m in fam["members"]]
        _expect(p, len(members) == total, f"{len(members)} symbols, expected {total}")
        defect1 = sum(1 for m in members if m["defect"] == 1)
        _expect(p, defect1 == O.bipartition_count(n),
                f"{defect1} defect-1 symbols, expected {O.bipartition_count(n)} bipartitions")
        for m in members:
            s, t = m["symbol"]["S"], m["symbol"]["T"]
            _expect(p, _symbol_rank(s, t) == n and abs(len(s) - len(t)) == m["defect"]
                    and m["defect"] % 2 == 1, f"member {m} has the wrong rank or defect")
        return p

    return _checked(body)


def check_symbol_info(d: int):
    """The kind B cuspidal symbol {0..2d} / {}: rank d^2+d, defect 2d+1."""

    def body(code, doc):
        p = [] if code == 0 else [f"exit code {code}, expected 0"]
        _expect(p, doc["symbol"] == {"S": list(range(2 * d + 1)), "T": []}, "wrong symbol")
        _expect(p, doc["rank"] == d * d + d and doc["defect"] == 2 * d + 1,
                f"rank/defect {doc['rank']}/{doc['defect']}, expected {d * d + d}/{2 * d + 1}")
        fam = doc["family"]
        _expect(p, fam["Z1"] == list(range(2 * d + 1)) and fam["Z2"] == [] and fam["f"] == d,
                "wrong family data")
        _expect(p, doc["special"] is False, "a symbol of defect > 1 is never special")
        return p

    return _checked(body)


def check_pab(a: int, b: int):
    want = sorted(O.rectangle_pairs(a, b))

    def body(code, doc):
        p = [] if code == 0 else [f"exit code {code}, expected 0"]
        got = sorted((tuple(al), tuple(be)) for al, be in doc)
        _expect(p, len(doc) == comb(a + b, a), f"{len(doc)} pairs, expected C(a+b,a)")
        _expect(p, got == want, "pairs differ from P(a,b) by its definition")
        return p

    return _checked(body)


def check_fab(a: int, b: int, cycles: tuple):
    def body(code, doc):
        p = [] if code == 0 else [f"exit code {code}, expected 0"]
        _expect(p, (doc["a"], doc["b"], tuple(doc["cycles"])) == (a, b, cycles), "wrong echo")
        if a == b + 1 and O.ends_plain(cycles) and doc["value"]["terms"]:
            p.append("cuspidal box with a plain last cycle: the value must be exactly 0")
        points = _rectangle_points(a, b, cycles) if a * b <= 4 else None
        p += _value_problems(doc["value"], doc["value_at_1"],
                             O.rectangle_sum_at_1(a, b, cycles), points)
        return p

    return _checked(body)


def check_flambda(kind: str, d: int, cycles: tuple):
    def body(code, doc):
        p = [] if code == 0 else [f"exit code {code}, expected 0"]
        _expect(p, doc["kind"] == kind and tuple(doc["cycles"]) == cycles, "wrong echo")
        p += _cuspidal_value_problems(kind, d, cycles, doc["value"], doc["value_at_1"])
        return p

    return _checked(body)


def check_mn_eval(kind: str, alpha: tuple, beta: tuple, cycles: tuple):
    points = tuple(O.matrix_trace(kind, alpha, beta, cycles, u) for u in O.USQ_POINTS)

    def body(code, doc):
        p = [] if code == 0 else [f"exit code {code}, expected 0"]
        p += _value_problems(doc, None, O.char_at_1(alpha, beta, cycles), points)
        return p

    return _checked(body)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def orthogonality_b6(seed: int) -> Workload:
    n = 6
    traces = tuple(("B", a, b, c) for c in O.class_cycles_b(n) for a, b in O.bipartitions(n))
    calls = (Call(("verify", "orthogonality", "--n", str(n)), check_orthogonality(n)),)
    return Workload("orthogonality-b6", calls, traces)


def recursion_r30(seed: int) -> Workload:
    a, b, cycles = 6, 5, (-2, 12, 16)
    argv = ("verify", "recursion", "--a", str(a), "--b", str(b), "--cycles", _js(list(cycles)),
            "--max-rank", str(a * b))
    traces = tuple(("B", al, be, cycles) for al, be in O.rectangle_pairs(a, b))
    traces += tuple(("B", al, be, cycles[:-2]) for al, be in O.rectangle_pairs(a - 4, b - 4))
    return Workload("recursion-r30", (Call(argv, check_recursion(a, b, cycles)),), traces)


def claims_battery(seed: int) -> Workload:
    rng = random.Random(seed)
    fab_big = rng.choice(O.class_cycles_b(6))
    fab_small = rng.choice(O.class_cycles_b(2))
    fl_b = rng.choice(O.class_cycles_b(6))
    fl_d = rng.choice(O.cycles_d(4))
    mn_b = rng.choice(O.bipartitions(4)), rng.choice(O.class_cycles_b(4))
    mn_d = rng.choice([x for x in O.bipartitions(4) if x[0] != x[1]]), rng.choice(O.cycles_d(4))

    calls = [Call(("verify", "prop713", "--d", str(d)), check_nonvanishing("B", d))
             for d in (1, 2, 3, 4)]
    calls += [Call(("verify", "prop714", "--d", str(d)), check_nonvanishing("D", d))
              for d in (1, 2)]
    calls.append(Call(("verify", "recursion", "--a", "5", "--b", "4", "--cycles", "[8,12]"),
                      check_recursion(5, 4, (8, 12))))
    calls += [
        Call(("family", "involution-check", "--kind", "B", "--n", "8"),
             check_reports("fourier-involution", ("B",), 8, "families")),
        Call(("verify", "m2", "--n", "10"), check_reports("m2-sum", ("B", "D"), 10, "symbols")),
        Call(("family", "pairing-matrix", "--kind", "B", "--Z1", "0,1,2,3,4"),
             check_pairing_matrix((0, 1, 2, 3, 4), ())),
        Call(("family", "list", "--kind", "B", "--n", "6"), check_family_list(6)),
        Call(("symbol", "info", "--S", "0,1,2,3,4", "--T", "", "--kind", "B"),
             check_symbol_info(2)),
        Call(("enumerate", "pab", "4", "3"), check_pab(4, 3)),
        Call(("verify", "orthogonality", "--n", "4"), check_orthogonality(4)),
        Call(("diagnose", "d-swap", "--n", "4"), check_d_swap(4)),
        Call(("fab", "--a", "3", "--b", "2", "--cycles", _js(list(fab_big))),
             check_fab(3, 2, fab_big)),
        Call(("fab", "--a", "2", "--b", "1", "--cycles", _js(list(fab_small))),
             check_fab(2, 1, fab_small)),
        Call(("flambda", "--kind", "B", "--S", "0,1,2,3,4", "--T", "", "--cycles",
              _js(list(fl_b))), check_flambda("B", 2, fl_b)),
        Call(("flambda", "--kind", "D", "--S", "0,1,2,3", "--T", "", "--cycles",
              _js(list(fl_d))), check_flambda("D", 1, fl_d)),
    ]
    for kind, ((al, be), cyc) in (("B", mn_b), ("D", mn_d)):
        calls.append(Call(("mn", "eval", "--kind", kind, "--lambda", _js([list(al), list(be)]),
                           "--cycles", _js(list(cyc))), check_mn_eval(kind, al, be, cyc)))
    traces = tuple(("B", al, be, c) for c in (fab_big, fl_b) for al, be in O.rectangle_pairs(3, 2))
    traces += tuple(("D", al, be, fl_d) for al, be in O.square_pairs_unordered(2))
    traces += (("B", *mn_b[0], mn_b[1]), ("D", *mn_d[0], mn_d[1]))
    return Workload("claims-battery", tuple(calls), traces)


WORKLOADS = {
    "orthogonality-b6": orthogonality_b6,
    "recursion-r30": recursion_r30,
    "claims-battery": claims_battery,
}

HELP = Call(("--help",), lambda code, out: [] if code == 0 and out.startswith("usage: almostchar")
            else [f"--help exit code {code}, output {out[:60]!r}"])
