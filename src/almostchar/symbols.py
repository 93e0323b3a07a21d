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
test suite checks rank by rank.  _family_key checks a family key once,
where it enters; _family reads each member's decomposition off its label,
and _label_symbol builds its symbol unchecked.  symbol_from_label checks
a caller's own label.

Every non-degenerate family has exactly one special member, and that
member has defect 1 (kind B) or 0 (kind D), so it is the symbol of a
bipartition (Lusztig, *Characters of Reductive Groups over a Finite
Field*, 1984, ch. 4).  The families of a rank are therefore read off
the special symbols among the bipartitions of that rank (_family_keys).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .config import check_int
from .shapes import (
    BiPartition,
    _box_partitions,
    bipartitions_of,
    check_kind,
    conjugate,
    partition,
    partitions_of,
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


def _entries(row) -> tuple:
    """The entries of a symbol row, refusing any that is not a nonnegative
    int (a bool included)."""
    row = tuple(row)
    if any(isinstance(x, bool) or not isinstance(x, int) for x in row):
        raise ValueError(f"symbol entries must be integers: {row!r}")
    if any(x < 0 for x in row):
        raise ValueError(f"symbol entries must be nonnegative: {row!r}")
    return row


def shift_canonicalize(rawS, rawT) -> Symbol:
    """Canonical reduced representative of the shift class of (rawS, rawT)."""
    s = tuple(sorted(set(_entries(rawS))))
    t = tuple(sorted(set(_entries(rawT))))
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
    """x_0 <= y_0 <= x_1 <= y_1 <= ..., read pairwise, for |x| - |y| in {0, 1}."""
    return all(a <= b for a, b in zip(x, y)) and all(b <= a for b, a in zip(y, x[1:]))


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


def _member(kind: str, Z1: tuple, Z2: tuple, raw: frozenset) -> FamilyDecomposition:
    """The decomposition of the member of the family (Z1, Z2) whose label is
    raw or its complement in Z1.

    Kind B keeps the choice with |M| ≡ d1 (mod 2); kind D the one not
    containing min(Z1).  Exactly one of the pair qualifies, and with this
    normalization the pairing matrix squares to the identity.  Here d1 =
    |Z1| // 2, which is (|Z1| - 1) // 2 for the odd |Z1| of kind B.  A kind
    D label has |M| ≡ d1 (mod 2) too: _family builds only such labels,
    leaving out min(Z1), and family_decompose's defect ≡ 0 (mod 4) makes
    |T - S| ≡ d1, so complementing in the even-sized Z1 keeps the parity.
    """
    d1 = len(Z1) // 2
    if (kind == "B" and len(raw) % 2 != d1 % 2) or (kind == "D" and Z1[0] in raw):
        raw = frozenset(Z1) - raw
    M0 = Z1[1::2]  # every second single, smallest omitted
    f = d1 if kind == "B" else d1 - 1
    msharp = raw.symmetric_difference(M0)
    return FamilyDecomposition(kind, Z1, Z2, tuple(sorted(raw)), M0, d1, f, msharp)


def family_decompose(s: Symbol, kind: str) -> FamilyDecomposition:
    check_kind(kind)
    if kind == "D" and is_degenerate(s):
        raise ValueError(f"degenerate symbol {s} has no family decomposition")
    _, defect = rank_defect(s)
    ss, ts = set(s.rowS), set(s.rowT)
    if len(ss) != len(s.rowS) or len(ts) != len(s.rowT):
        raise ValueError(f"{s} has a repeated entry in a row")
    if kind == "B" and defect % 2 != 1:
        raise ValueError(f"{s} is not a kind B symbol (defect must be odd)")
    if kind == "D" and defect % 4 != 0:
        raise ValueError(f"{s} is not a kind D symbol (defect must be divisible by 4)")
    Z1 = tuple(sorted(ss ^ ts))
    return _member(kind, Z1, tuple(sorted(ss & ts)), frozenset(ts - ss))


def _check_label(Z1, Z2, M) -> None:
    """symbol_from_label's checks; with M empty, those of a family key's rows."""
    z1, z2, m = (set(_entries(row)) for row in (Z1, Z2, M))
    if len(z1) != len(Z1) or len(z2) != len(Z2):
        raise ValueError(f"a family key row repeats an entry: singles {Z1}, doubles {Z2}")
    if not m <= z1:
        raise ValueError(f"label {M} not a subset of the singles {Z1}")
    if z1 & z2:
        raise ValueError("singles and doubles must be disjoint")
    if 0 in z2:
        raise ValueError("0 cannot be a double of a reduced symbol")


def symbol_from_label(Z1, Z2, M) -> Symbol:
    """The symbol labelled M in the family (Z1, Z2), for a caller's own label."""
    _check_label(Z1, Z2, M)
    return _label_symbol(Z1, Z2, M)


def _label_symbol(Z1, Z2, M) -> Symbol:
    """symbol_from_label unchecked, for the labels of a checked key."""
    return Symbol(*_order_rows(tuple(sorted({*Z1, *Z2} - {*M})), tuple(sorted({*Z2, *M}))))


def _family(kind: str, Z1, Z2) -> tuple:
    """The decomposition of every member of the family with the given
    singles and doubles, read off its label.

    Kind B: labels are the subsets of Z1 of size ≡ d1 (mod 2), giving
    2^(2 d1) members.  Kind D: additionally min(Z1) is excluded, giving
    2^(2 d1 - 2).  Listed by (|M|, M) lexicographically.
    """
    Z1, Z2 = _family_key(kind, Z1, Z2)
    pool = Z1 if kind == "B" else Z1[1:]
    return tuple(
        _member(kind, Z1, Z2, frozenset(M))
        for size in range(len(Z1) // 2 % 2, len(pool) + 1, 2)
        for M in combinations(pool, size)
    )


def family_members(kind: str, Z1, Z2) -> tuple:
    """The symbols of the family (Z1, Z2), in _family's order."""
    return tuple(_label_symbol(m.Z1, m.Z2, m.M) for m in _family(kind, Z1, Z2))


def _family_key(kind: str, Z1, Z2) -> tuple:
    """(Z1, Z2) sorted: the one check of a family key, where it enters: the
    kind, the number of singles, then the rows as symbol_from_label's."""
    check_kind(kind)
    Z1, Z2 = tuple(sorted(Z1)), tuple(sorted(Z2))
    if kind == "B" and len(Z1) % 2 != 1:
        raise ValueError("kind B family needs an odd number of singles")
    if kind == "D" and (len(Z1) % 2 != 0 or not Z1):
        raise ValueError("kind D family needs a nonzero even number of singles")
    _check_label(Z1, Z2, ())
    return Z1, Z2


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


def _family_keys(n: int, kind: str):
    """(Z1, Z2) of each non-degenerate family of rank n, read off its
    special symbol; kind D takes each pair {alpha != beta} once."""
    for bp in bipartitions_of(n):
        if kind == "D" and bp.alpha <= bp.beta:
            continue
        s = symbol_from_bipartition(kind, bp)
        if is_special(s):
            yield family_decompose(s, kind)[1:3]


def enumerate_symbols(n: int, kind: str) -> tuple:
    """All families at rank n with their members, sorted by (Z1, Z2); kind
    D adds each pair (alpha, alpha)'s degenerate symbol as a singleton."""
    check_kind(kind)
    if check_int("n", n) < 0:
        raise ValueError("rank must be nonnegative")
    families = [Family(kind, z1, z2, degenerate=False, members=family_members(kind, z1, z2))
                for z1, z2 in _family_keys(n, kind)]
    if kind == "D" and n % 2 == 0:
        for alpha in partitions_of(n // 2):
            s = symbol_from_bipartition(kind, BiPartition(alpha, alpha))
            families.append(Family(kind, (), s.rowS, degenerate=True, members=(s,)))
    return tuple(sorted(families, key=lambda fam: (fam.Z1, fam.Z2)))


# ---------------------------------------------------------------------------
# special and cuspidal symbols
# ---------------------------------------------------------------------------


def special_cuspidal(kind: str, d: int) -> tuple:
    """The cuspidal symbol of parameter d and the special symbol of its
    family: rows {0..a+b-1} / empty and evens / odds, (a, b) the cuspidal
    box (top entry 2d for kind B, rank d^2+d; 4d-1 for kind D, rank 4d^2)."""
    top = sum(_cuspidal_box(kind, d)) - 1
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


def _cuspidal_box(kind: str, d: int) -> tuple:
    """The rectangle (a, b) of the cuspidal symbol at d: (d+1, d) for kind
    B, (2d, 2d) for D.  The one check of the cuspidal parameters: kind is
    B or D and d is a positive int."""
    check_kind(kind)
    if check_int("d", d) < 1:
        raise ValueError("d must be positive")
    return (d + 1, d) if kind == "B" else (2 * d, 2 * d)


def _box_sides(a: int, b: int) -> None:
    """The one check of box sides: both nonnegative ints."""
    if check_int("a", a) < 0 or check_int("b", b) < 0:
        raise ValueError("box dimensions must be nonnegative")


def _box_partner(alpha: tuple, a: int, b: int) -> tuple:
    """The partner of the partition alpha in the a x b box: the conjugate
    of alpha's reversed complement there.  In a square box the partner of
    the partner is alpha again."""
    padded = alpha + (0,) * (a - len(alpha))
    return conjugate(tuple(b - x for x in reversed(padded)))


def enumerate_P_ab(a: int, b: int, unordered: bool = False) -> list:
    """Bipartitions (alpha, beta) with alpha in an a x b box and beta its
    box partner, _box_partner(alpha, a, b).

    There is exactly one pair per box partition, C(a+b, a) in all, listed
    by |alpha| ascending and alpha in descending lexicographic order
    within a size.  unordered=True asks for a square box, where the swap
    of a pair is a pair too (ValueError otherwise): each pair is kept
    once, with its lexicographically larger side first, where the first
    of its two orders comes: |alpha| below half the box, or exactly half
    with alpha the larger side.
    """
    _box_sides(a, b)
    if unordered and a != b:
        raise ValueError(f"unordered pairs need a square box, not {a} x {b}")
    out = []
    for size in range(a * b + 1):
        for alpha in _box_partitions(size, a, b):
            pair = BiPartition(alpha, _box_partner(alpha, a, b))
            if unordered:
                if 2 * size > a * b or 2 * size == a * b and alpha < pair.beta:
                    continue
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
