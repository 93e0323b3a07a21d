"""Reference values computed apart from the program.

Nothing here imports `almostchar`.  The u = 1 values come from the classical
Murnaghan-Nakayama rule for the hyperoctahedral group, worked on beta-sets
(abacus beads).  The u-dependent values at small rank come from the
seminormal matrix model in tests/seminormal.py, which builds explicit
generator matrices from the defining relations; it is imported read-only.
The rectangle index sets P(a, b) and the cuspidal constants are written
out from their definitions.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_seminormal():
    """The matrix model module from the checkout's tests/ directory."""
    tests_dir = ROOT / "tests"
    if not (tests_dir / "seminormal.py").is_file():
        raise FileNotFoundError(f"no seminormal model at {tests_dir / 'seminormal.py'}")
    if str(tests_dir) not in sys.path:
        sys.path.insert(0, str(tests_dir))
    import seminormal

    return seminormal


# ---------------------------------------------------------------------------
# partitions and counts
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def partition_count(n: int, largest: int | None = None) -> int:
    """Number of partitions of n with every part at most `largest`."""
    if largest is None:
        largest = n
    if n == 0:
        return 1
    return sum(partition_count(n - k, k) for k in range(1, min(n, largest) + 1))


def bipartition_count(n: int) -> int:
    """Number of ordered pairs of partitions of total size n."""
    return sum(partition_count(k) * partition_count(n - k) for k in range(n + 1))


def partitions(n: int, largest: int | None = None):
    """Partitions of n as weakly decreasing tuples."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def bipartitions(n: int) -> list:
    return [(a, b) for k in range(n + 1) for a in partitions(k) for b in partitions(n - k)]


def transpose(p: tuple) -> tuple:
    return tuple(sum(1 for x in p if x > j) for j in range(p[0])) if p else ()


def rectangle_pairs(a: int, b: int) -> list:
    """P(a, b): alpha inside the a x b box, beta the transpose of the box
    complement of alpha turned by 180 degrees.  C(a+b, a) pairs."""
    out = []
    for size in range(a * b + 1):
        for alpha in partitions(size, b):
            if len(alpha) > a:
                continue
            padded = alpha + (0,) * (a - len(alpha))
            complement = tuple(x for x in (b - y for y in reversed(padded)) if x)
            out.append((alpha, transpose(complement)))
    if len(out) != comb(a + b, a):
        raise AssertionError(f"P({a},{b}) has {len(out)} pairs, expected C(a+b,a)")
    return out


def square_pairs_unordered(m: int) -> list:
    """P(m, m) up to swapping the two sides, larger side first."""
    seen = set()
    out = []
    for pair in rectangle_pairs(m, m):
        key = max(pair, pair[::-1])
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def cuspidal_constant(kind: str, d: int) -> Fraction:
    """f of the cuspidal symbol = this constant times the signed P-sum:
    (-1)^(d(d+1)/2) / 2^d for kind B and (-1)^(d(2d-1)) / 2^(2d-1) for D."""
    if kind == "B":
        return Fraction((-1) ** (d * (d + 1) // 2), 2**d)
    return Fraction((-1) ** (d * (2 * d - 1)), 2 ** (2 * d - 1))


def cuspidal_pairs(kind: str, d: int) -> list:
    return rectangle_pairs(d + 1, d) if kind == "B" else square_pairs_unordered(2 * d)


# ---------------------------------------------------------------------------
# u = 1: the hyperoctahedral Murnaghan-Nakayama rule
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def rim_hooks(p: tuple, r: int) -> tuple:
    """(sign, p minus an r-rim hook) for every r-rim hook of p.

    On the beta-set of p a rim hook is a bead moved r places down into a
    free place; the sign is (-1) to the number of beads it jumps over.
    """
    length = len(p)
    beads = {p[i] + length - 1 - i for i in range(length)}
    out = []
    for bead in beads:
        low = bead - r
        if low < 0 or low in beads:
            continue
        jumped = sum(1 for x in beads if low < x < bead)
        moved = sorted((beads - {bead}) | {low}, reverse=True)
        smaller = tuple(x - (length - 1 - i) for i, x in enumerate(moved))
        out.append(((-1) ** jumped, tuple(x for x in smaller if x)))
    return tuple(out)


@lru_cache(maxsize=None)
def char_at_1(alpha: tuple, beta: tuple, cycles: tuple) -> int:
    """Irreducible character (alpha, beta) of the hyperoctahedral group at a
    signed cycle type: a cycle peels a rim hook off either side, and a
    barred (negative) cycle peeled off beta gets an extra sign."""
    if not cycles:
        return 1 if not alpha and not beta else 0
    c, rest = cycles[-1], cycles[:-1]
    r = abs(c)
    from_alpha = sum(s * char_at_1(a2, beta, rest) for s, a2 in rim_hooks(alpha, r))
    from_beta = sum(s * char_at_1(alpha, b2, rest) for s, b2 in rim_hooks(beta, r))
    return from_alpha + (-from_beta if c < 0 else from_beta)


def signed_sum(pairs, term):
    """sum over the (alpha, beta) pairs of (-1)^|alpha| term(alpha, beta)."""
    return sum((-1) ** sum(al) * term(al, be) for al, be in pairs)


def rectangle_sum_at_1(a: int, b: int, cycles: tuple) -> int:
    return signed_sum(rectangle_pairs(a, b), lambda al, be: char_at_1(al, be, cycles))


def cuspidal_at_1(kind: str, d: int, cycles: tuple) -> Fraction:
    terms = signed_sum(cuspidal_pairs(kind, d), lambda al, be: char_at_1(al, be, cycles))
    return cuspidal_constant(kind, d) * terms


# ---------------------------------------------------------------------------
# u-dependent values at small rank: the seminormal matrix model
# ---------------------------------------------------------------------------

#: exact evaluation points for u^(1/2)
USQ_POINTS = (Fraction(2), Fraction(1, 2), Fraction(3))


def eval_terms(doc: dict, usq: Fraction) -> Fraction:
    """A value as the CLI prints it ({"terms": [...]}) at u^(1/2) = usq."""
    return sum(
        (Fraction(t["num"], t["den"]) * usq ** t["halfexp"] for t in doc["terms"]),
        Fraction(0),
    )


def matrix_trace(kind: str, alpha: tuple, beta: tuple, cycles, usq: Fraction) -> Fraction:
    """Trace of the cycle type's word on the (alpha, beta) module.

    Kind D words with bars carry one more half power of u than the
    program's normalisation, so that factor is divided out.
    """
    sm = load_seminormal()
    n = sum(alpha) + sum(beta)
    if n == 0:
        return Fraction(1)
    if kind == "B":
        gens = sm.build_b_generators(alpha, beta, usq)
        return sm.trace_of_word(gens, sm.word_for_b_cycles(list(cycles), n))
    gens = sm.build_q1_generators(alpha, beta, usq)
    value = sm.trace_of_word(gens, sm.word_for_d_cycles(list(cycles), n))
    return value / usq if any(c < 0 for c in cycles) else value


def cuspidal_matrix_value(kind: str, d: int, cycles: tuple, usq: Fraction) -> Fraction:
    """f of the cuspidal symbol at u^(1/2) = usq from the matrix model."""
    terms = signed_sum(cuspidal_pairs(kind, d),
                       lambda al, be: matrix_trace(kind, al, be, cycles, usq))
    return cuspidal_constant(kind, d) * terms


def rectangle_matrix_value(a: int, b: int, cycles: tuple, usq: Fraction) -> Fraction:
    return signed_sum(rectangle_pairs(a, b), lambda al, be: matrix_trace("B", al, be, cycles, usq))


# ---------------------------------------------------------------------------
# cycle types
# ---------------------------------------------------------------------------


def class_cycles_b(n: int) -> list:
    """One signed cycle list per class of rank n: barred cycles first,
    then plain, each ascending (the order the matrix model's words use)."""
    out = []
    for k in range(n + 1):
        for barred in partitions(k):
            for plain in partitions(n - k):
                out.append(tuple(-x for x in reversed(barred)) + tuple(reversed(plain)))
    return out


def cycles_d(n: int) -> list:
    """Kind D cycle lists: no bars, or a leading [-1, -c] pair then plain."""
    out = [tuple(reversed(p)) for p in partitions(n)]
    for c in range(1, n):
        out.extend((-1, -c) + tuple(reversed(p)) for p in partitions(n - 1 - c))
    return out


def ends_plain(cycles) -> bool:
    """The parabolic-support property: a cuspidal sum whose last cycle is
    plain lies in a proper parabolic subalgebra and is exactly zero."""
    return bool(cycles) and cycles[-1] > 0
