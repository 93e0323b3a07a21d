"""Symbols for classical groups: rank, defect, families and the pairing.

A symbol is an unordered pair of finite subsets of the nonnegative
integers, taken modulo the simultaneous shift that prepends 0 to both
rows and adds 1 to every entry.  We store the canonical reduced
representative: the shift is undone until at most one row contains 0,
the longer row is stored first, and for equal lengths the
lexicographically smaller row comes first.

Kind "B" covers types B_n/C_n, whose symbols have odd defect; kind "D"
covers split type D_n, with defect divisible by 4 (including 0).  A kind
D symbol with equal rows is degenerate; family operations reject it.

A family collects all symbols sharing the same singles Z1 and doubles
Z2.  Members are labelled by subsets M of Z1 subject to a parity
constraint, and the rational pairing between two members is read off
from their labels relative to the distinguished label M0 of the unique
special member.  The resulting matrix is an exact involution, which the
test suite checks rank by rank.

Every non-degenerate family has exactly one special member, and that
member has defect 1 (kind B) or 0 (kind D), so it is the symbol of a
bipartition (Lusztig, *Characters of Reductive Groups over a Finite
Field*, 1984, ch. 4).  The families of a rank are therefore read off
the special symbols among the bipartitions of that rank.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterator, NamedTuple

from .config import check_int
from .shapes import (
    BiPartition,
    bipartitions_of,
    check_kind,
    conjugate,
    partition,
    partitions_in_box,
)

__all__ = [
    "Symbol",
    "FamilyDecomposition",
    "Family",
    "shift_canonicalize",
    "rank_defect",
    "is_degenerate",
    "is_special",
    "family_decompose",
    "family_members",
    "symbol_from_label",
    "fourier_sign",
    "pairing",
    "enumerate_symbols",
    "special_cuspidal",
    "symbol_from_bipartition",
    "bipartition_from_symbol",
    "enumerate_P_ab",
    "m2_unipotent",
    "check_kind",
]


class Symbol(NamedTuple):
    rowS: tuple
    rowT: tuple

    def to_json_obj(self) -> dict:
        return {"S": list(self.rowS), "T": list(self.rowT)}

    def __str__(self) -> str:
        fmt = lambda row: "{" + ",".join(map(str, row)) + "}"
        return f"({fmt(self.rowS)};{fmt(self.rowT)})"


def _order_rows(a: tuple, b: tuple) -> tuple:
    """Longer row first; lexicographic tiebreak for equal lengths."""
    if len(a) > len(b) or (len(a) == len(b) and a <= b):
        return a, b
    return b, a


def shift_canonicalize(rawS, rawT) -> Symbol:
    """Canonical reduced representative of the shift class of (rawS, rawT)."""
    rawS, rawT = tuple(rawS), tuple(rawT)
    if any(isinstance(x, bool) or not isinstance(x, int) for x in rawS + rawT):
        raise ValueError(f"symbol entries must be integers: {rawS!r}, {rawT!r}")
    s = tuple(sorted(set(rawS)))
    t = tuple(sorted(set(rawT)))
    if (s and s[0] < 0) or (t and t[0] < 0):
        raise ValueError("entries must be nonnegative")
    while s and t and s[0] == 0 and t[0] == 0:
        s = tuple(x - 1 for x in s[1:])
        t = tuple(x - 1 for x in t[1:])
    return Symbol(*_order_rows(s, t))


def rank_defect(s: Symbol) -> tuple:
    n = len(s.rowS) + len(s.rowT)
    rank = sum(s.rowS) + sum(s.rowT) - ((n - 1) ** 2 // 4 if n else 0)
    return rank, abs(len(s.rowS) - len(s.rowT))


def is_degenerate(s: Symbol) -> bool:
    return s.rowS == s.rowT


def is_special(s: Symbol) -> bool:
    """True when the two rows interleave weakly.

    Defect 1: a_0 <= b_1 <= a_1 <= ... <= b_m <= a_m.  Defect 0: the same
    alternating condition for one of the two row orders.  Symbols of any
    other defect are never special.
    """
    _, defect = rank_defect(s)
    if defect == 1:
        return _alternating(s.rowS, s.rowT)
    if defect == 0:
        return _alternating(s.rowS, s.rowT) or _alternating(s.rowT, s.rowS)
    return False


def _alternating(x: tuple, y: tuple) -> bool:
    merged = []
    for i, v in enumerate(y):
        merged.append(x[i])
        merged.append(v)
    merged.extend(x[len(y):])
    return all(merged[i] <= merged[i + 1] for i in range(len(merged) - 1))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class FamilyDecomposition(NamedTuple):
    kind: str
    Z1: tuple  # singles, sorted
    Z2: tuple  # doubles, sorted
    M: tuple  # canonical label of this symbol within its family
    M0: tuple  # label of the special member
    d1: int
    f: int  # exponent: pairings live in 2^(-f) * {+-1}
    msharp: frozenset  # M twisted by M0: the symmetric difference M ^ M0


def _canonical_label(kind: str, Z1: tuple, raw: frozenset, d1: int) -> tuple:
    """Pick between a label and its complement in Z1.

    Kind B keeps the choice with |M| ≡ d1 (mod 2); kind D the one not
    containing min(Z1).  Exactly one of the pair qualifies, and with this
    normalization the pairing matrix squares to the identity.
    """
    if kind == "B":
        if len(raw) % 2 != d1 % 2:
            raw = frozenset(Z1) - raw
    else:
        if Z1 and min(Z1) in raw:
            raw = frozenset(Z1) - raw
        if len(raw) % 2 != d1 % 2:
            raise ValueError(f"label parity broken for D family on Z1={Z1}")
    return tuple(sorted(raw))


def family_decompose(s: Symbol, kind: str) -> FamilyDecomposition:
    check_kind(kind)
    if kind == "D" and is_degenerate(s):
        raise ValueError(f"degenerate symbol {s} has no family decomposition")
    _, defect = rank_defect(s)
    ss, ts = set(s.rowS), set(s.rowT)
    Z2 = tuple(sorted(ss & ts))
    Z1 = tuple(sorted(ss ^ ts))
    if kind == "B":
        if defect % 2 != 1:
            raise ValueError(f"{s} is not a kind B symbol (defect must be odd)")
        d1 = (len(Z1) - 1) // 2
        f = d1
    else:
        if defect % 4 != 0:
            raise ValueError(f"{s} is not a kind D symbol (defect must be divisible by 4)")
        d1 = len(Z1) // 2
        f = d1 - 1
    M = _canonical_label(kind, Z1, ts & set(Z1), d1)
    M0 = Z1[1::2]  # every second single, smallest omitted
    return FamilyDecomposition(
        kind=kind, Z1=Z1, Z2=Z2, M=M, M0=M0, d1=d1, f=f, msharp=frozenset(M) ^ frozenset(M0)
    )


def symbol_from_label(Z1, Z2, M) -> Symbol:
    z1, z2, m = set(Z1), set(Z2), set(M)
    if not m <= z1:
        raise ValueError(f"label {M} not a subset of the singles {Z1}")
    if z1 & z2:
        raise ValueError("singles and doubles must be disjoint")
    if 0 in z2:
        raise ValueError("0 cannot be a double of a reduced symbol")
    return Symbol(*_order_rows(tuple(sorted(z2 | (z1 - m))), tuple(sorted(z2 | m))))


def _labels(kind: str, Z1: tuple) -> Iterator[tuple]:
    d1 = (len(Z1) - 1) // 2 if kind == "B" else len(Z1) // 2
    pool = Z1 if kind == "B" else Z1[1:]
    for size in range(d1 % 2, len(pool) + 1, 2):
        yield from combinations(pool, size)


def family_members(kind: str, Z1, Z2) -> tuple:
    """All symbols of the family with the given singles and doubles.

    Kind B: labels are the subsets of Z1 of size ≡ d1 (mod 2), giving
    2^(2 d1) members.  Kind D: additionally min(Z1) is excluded, giving
    2^(2 d1 - 2).  Listed by (|M|, M) lexicographically.
    """
    check_kind(kind)
    Z1, Z2 = tuple(sorted(Z1)), tuple(sorted(Z2))
    if kind == "B" and len(Z1) % 2 != 1:
        raise ValueError("kind B family needs an odd number of singles")
    if kind == "D" and (len(Z1) % 2 != 0 or not Z1):
        raise ValueError("kind D family needs a nonzero even number of singles")
    return tuple(symbol_from_label(Z1, Z2, M) for M in _labels(kind, Z1))


def fourier_sign(da: FamilyDecomposition, db: FamilyDecomposition) -> int:
    """The sign (-1)^|M#a & M#b| of the pairing of two members of one family,
    where M# is a member's label twisted by the special member's label."""
    return (-1) ** len(da.msharp & db.msharp)


def pairing(a: Symbol, b: Symbol, kind: str) -> Fraction:
    """Rational pairing of two symbols; zero across different families.

    Within a family: 2^(-f) times the fourier_sign of the two members.
    """
    da = family_decompose(a, kind)
    db = family_decompose(b, kind)
    if (da.Z1, da.Z2) != (db.Z1, db.Z2):
        return Fraction(0)
    return Fraction(fourier_sign(da, db), 2 ** da.f)


class Family(NamedTuple):
    kind: str
    Z1: tuple
    Z2: tuple
    degenerate: bool
    members: tuple  # of Symbol

    def to_json_obj(self) -> dict:
        return {
            "Z1": list(self.Z1),
            "Z2": list(self.Z2),
            "degenerate": self.degenerate,
            "members": [
                {
                    "symbol": m.to_json_obj(),
                    "defect": rank_defect(m)[1],
                    "special": is_special(m),
                }
                for m in self.members
            ],
        }


def _staircase(parts_ascending: tuple, length: int) -> tuple:
    padded = (0,) * (length - len(parts_ascending)) + parts_ascending
    return tuple(p + i for i, p in enumerate(padded))


def enumerate_symbols(n: int, kind: str) -> tuple:
    """All families at rank n, each carrying its full member list.

    Each non-degenerate family is read off its one special member, which
    is the defect-1 (kind B) or defect-0 (kind D) symbol of a bipartition
    of n.  Kind D takes each unordered pair {alpha, beta} once; alpha =
    beta gives a degenerate symbol, which comes back as a flagged
    singleton family.  Families are sorted by (Z1, Z2).
    """
    check_kind(kind)
    if check_int("n", n) < 0:
        raise ValueError("rank must be nonnegative")
    families = []
    for bp in bipartitions_of(n):
        if kind == "D" and bp.alpha < bp.beta:
            continue
        s = symbol_from_bipartition(kind, bp)
        if kind == "D" and bp.alpha == bp.beta:
            families.append(Family(kind=kind, Z1=(), Z2=s.rowS, degenerate=True, members=(s,)))
        elif is_special(s):
            z1, z2 = family_decompose(s, kind)[1:3]
            families.append(
                Family(kind=kind, Z1=z1, Z2=z2, degenerate=False, members=family_members(kind, z1, z2))
            )
    families.sort(key=lambda fam: (fam.Z1, fam.Z2))
    return tuple(families)


# ---------------------------------------------------------------------------
# special and cuspidal symbols
# ---------------------------------------------------------------------------


def special_cuspidal(kind: str, d: int) -> tuple:
    """The cuspidal symbol of parameter d and the special symbol of its
    family: rows {0..2d} / empty and evens / odds for kind B (rank d^2+d),
    rows {0..4d-1} / empty and evens / odds for kind D (rank 4d^2)."""
    check_kind(kind)
    if check_int("d", d) < 1:
        raise ValueError("d must be positive")
    top = 2 * d if kind == "B" else 4 * d - 1
    cuspidal = Symbol(tuple(range(top + 1)), ())
    special = Symbol(tuple(range(0, top + 1, 2)), tuple(range(1, top + 1, 2)))
    return cuspidal, special


# ---------------------------------------------------------------------------
# bijections with bipartitions
# ---------------------------------------------------------------------------


def symbol_from_bipartition(kind: str, bp: BiPartition) -> Symbol:
    """Defect-1 (kind B) or defect-0 (kind D) symbol of a bipartition.

    Entries are the parts, read increasingly, plus a staircase; alpha
    feeds the first row.  The rank of the result is |alpha| + |beta|.
    """
    check_kind(kind)
    alpha = tuple(reversed(bp.alpha))
    beta = tuple(reversed(bp.beta))
    if kind == "B":
        m = max(len(alpha) - 1, len(beta), 0)
        return shift_canonicalize(_staircase(alpha, m + 1), _staircase(beta, m))
    m = max(len(alpha), len(beta), 1)
    return shift_canonicalize(_staircase(alpha, m), _staircase(beta, m))


def bipartition_from_symbol(kind: str, s: Symbol) -> BiPartition:
    check_kind(kind)
    _, defect = rank_defect(s)
    want = 1 if kind == "B" else 0
    if defect != want:
        raise ValueError(f"kind {kind} bijection needs defect {want}, got {s} of defect {defect}")
    alpha = partition(reversed([v - i for i, v in enumerate(s.rowS)]))
    beta = partition(reversed([v - i for i, v in enumerate(s.rowT)]))
    return BiPartition(alpha, beta)


# ---------------------------------------------------------------------------
# rectangle pairs
# ---------------------------------------------------------------------------


def enumerate_P_ab(a: int, b: int, unordered: bool = False) -> list:
    """Bipartitions (alpha, beta) with alpha in an a x b box and beta the
    conjugate of the reversed complement of alpha in that box.

    There is exactly one pair per box partition, C(a+b, a) in all.  With
    unordered=True, (alpha, beta) and (beta, alpha) are identified and the
    lexicographically larger side is kept first.
    """
    if check_int("a", a) < 0 or check_int("b", b) < 0:
        raise ValueError("box dimensions must be nonnegative")
    out = []
    seen = set()
    # size ascending, then reverse-lexicographic within a size
    for alpha in sorted(partitions_in_box(a, b), key=lambda p: (-sum(p), p), reverse=True):
        padded = alpha + (0,) * (a - len(alpha))
        beta = conjugate(tuple(b - x for x in reversed(padded)))
        pair = BiPartition(alpha, beta)
        if unordered:
            key = frozenset((pair.alpha, pair.beta))
            if key in seen:
                continue
            seen.add(key)
            pair = BiPartition(*max(pair, tuple(reversed(pair))))
        out.append(pair)
    return out


# ---------------------------------------------------------------------------
# multiplicities
# ---------------------------------------------------------------------------


def m2_unipotent(s: Symbol, kind: str) -> int:
    """Number of Weyl group elements pairing the character to itself twice;
    what matters downstream: 2^d1 (B) or 2^(d1-1) (D) on special symbols,
    0 on the rest, and 1 on degenerate kind D symbols (the split form, the
    only one the package covers)."""
    check_kind(kind)
    if kind == "D" and is_degenerate(s):
        return 1
    if not is_special(s):
        return 0
    dec = family_decompose(s, kind)
    return 2 ** dec.d1 if kind == "B" else 2 ** (dec.d1 - 1)
