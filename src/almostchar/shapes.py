"""Partitions, bipartitions, skew shapes and border-strip statistics.

Conventions used throughout the package:

* a partition is a tuple of weakly decreasing positive integers, the empty
  tuple being the empty partition;
* a bipartition is an ordered pair (alpha, beta) of partitions; its cells
  live in two separate diagrams, and cells of alpha are never adjacent to
  cells of beta;
* cells are (row, column) pairs, 1-indexed, in the outer diagram of the
  relevant side.

A border strip is a connected skew diagram containing no 2x2 block of
cells; a broken border strip is a disjoint union of border strips, which
for a skew diagram is the same as containing no 2x2 block at all.  The
statistics delta (broken strips) and delta_bar (single strips, decorated
with content factors at sharp and dull corners) are the building blocks of
the character recursions in the hecke module.

Both statistics are computed from the rows alone, by these rules:

* row criterion: rows i and i+1 of outer/inner hold a 2x2 block exactly
  when inner_i < outer_{i+1} - 1; without one, they are connected exactly
  when inner_i == outer_{i+1} - 1 (they then share one column);
* room bound: by the row criterion, rows i.. of outer can give up at most
  room_i = sum over k >= i of outer_k - max(outer_{k+1} - 1, 0) cells with
  no 2x2 block, and every size from 0 to room_0 occurs (checked for every
  partition of n <= 14);
* corner rule: in one border strip, the sharp corners (no cell above, none
  to the left) are the first cell of the top row and the first cell of
  every other row of length >= 2; the dull corners (a cell above and one to
  the left) are the last cell of every non-top row of length >= 2.

A slower, cell-based version of both statistics and of the removal
enumeration lives in tests/cells.py, as the tests' independent oracle for
these closed forms; nothing in the package calls it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .halflaurent import HalfLaurent, ONE, U, ZERO, _from_clean, half_power

__all__ = [
    "Partition",
    "BiPartition",
    "SkewBiShape",
    "partition",
    "bipartition",
    "skew",
    "conjugate",
    "partitions_of",
    "bipartitions_of",
    "partitions_in_box",
    "delta",
    "delta_bar",
    "broken_strip_removals",
    "single_strip_removals",
    "check_kind",
]

Partition = tuple  # tuple of weakly decreasing positive ints


def check_kind(kind: str) -> str:
    if kind not in ("B", "D"):
        raise ValueError(f"kind must be 'B' or 'D', got {kind!r}")
    return kind


class BiPartition(NamedTuple):
    alpha: Partition
    beta: Partition

    @property
    def size(self) -> int:
        return sum(self.alpha) + sum(self.beta)

    def to_json_obj(self) -> list:
        return [list(self.alpha), list(self.beta)]

    @classmethod
    def from_json_obj(cls, obj) -> "BiPartition":
        a, b = obj
        return cls(partition(a), partition(b))


class SkewBiShape(NamedTuple):
    outer: BiPartition
    inner: BiPartition

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size


def partition(parts) -> Partition:
    """Normalize an iterable of integers into a partition tuple, dropping
    trailing zeros.  The order is checked before the zeros go, so a zero
    ahead of a positive part is refused, not skipped."""
    parts = tuple(parts)
    if any(isinstance(x, bool) or not isinstance(x, int) for x in parts):
        raise ValueError(f"parts must be integers: {parts!r}")
    if any(x < 0 for x in parts):
        raise ValueError(f"negative part in {parts!r}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts not weakly decreasing: {parts!r}")
    return tuple(x for x in parts if x != 0)


def bipartition(alpha, beta) -> BiPartition:
    return BiPartition(partition(alpha), partition(beta))


def skew(outer: BiPartition, inner: BiPartition) -> SkewBiShape:
    if not (_contains(outer.alpha, inner.alpha) and _contains(outer.beta, inner.beta)):
        raise ValueError(f"inner {inner} not contained in outer {outer}")
    return SkewBiShape(outer, inner)


def _contains(outer: Partition, inner: Partition) -> bool:
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > j) for j in range(p[0]))


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n with parts at most max_part, largest part first."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def bipartitions_of(n: int) -> Iterator[BiPartition]:
    """All bipartitions of total size n, alpha-size ascending."""
    for k in range(n + 1):
        for a in partitions_of(k):
            for b in partitions_of(n - k):
                yield BiPartition(a, b)


@lru_cache(maxsize=None)
def partitions_in_box(rows: int, cols: int) -> tuple[Partition, ...]:
    """All partitions with at most `rows` parts, each at most `cols`.

    Ordered by (size, lexicographic).  The one user downstream is
    `symbols.enumerate_P_ab`, which walks this box to build the rectangle
    pairs P(a, b).  Filled row by row under the previous part, so only
    partitions that fit are ever built.
    """

    def fill(rows_left: int, bound: int) -> Iterator[Partition]:
        yield ()
        if rows_left:
            for first in range(1, bound + 1):
                for rest in fill(rows_left - 1, first):
                    yield (first,) + rest

    return tuple(sorted(fill(rows, cols), key=lambda p: (sum(p), p)))


# ---------------------------------------------------------------------------
# the delta statistics
# ---------------------------------------------------------------------------


def _side_stats(outer: Partition, inner: Partition) -> tuple[int, int, int] | None:
    """(m, sum of (r-1), sum of (cells - 2r + 1)) over the m components of
    one side outer/inner, each of r rows; None if the side has a 2x2 block.

    One pass over the rows by the row criterion.  A border strip of r rows
    spans c = cells - r + 1 columns, so the last entry is the sum of
    (c-1) - (r-1), the exponent of u^(1/2) in delta.  Not cached: the trace
    engine scores each removal once, while hecke builds its shared removal
    table, and on the rank-30 recursion a cache here raised peak memory by
    about 0.45 MB without a measurable saving in time.
    """
    rows = joins = cells = 0
    last = len(outer) - 1
    for i, o in enumerate(outer):
        left = inner[i] if i < len(inner) else 0
        if o > left:
            rows += 1
            cells += o - left
        if i < last:
            shared = outer[i + 1] - left  # columns that rows i and i+1 share
            if shared > 1:
                return None
            if shared == 1:
                joins += 1
    return rows - joins, joins, cells - rows - joins


@lru_cache(maxsize=None)
def _delta_value(m: int, odd: int, e: int) -> HalfLaurent:
    """(-1)^odd * u^(e/2) * U^(m-1), one shared value per key."""
    return half_power(e, -1 if odd else 1) * U ** (m - 1)


def delta(x: SkewBiShape) -> HalfLaurent:
    """U^(m-1) * prod over components of (u^(1/2))^(c-1) * (-u^(-1/2))^(r-1).

    That is (-1)^(sum of r-1) * u^(e/2) * U^(m-1) with e the sum of
    (c-1) - (r-1).  Zero unless the shape is a broken border strip, one on
    the empty shape.  m is the number of connected components.
    """
    a = _side_stats(x.outer.alpha, x.inner.alpha)
    b = _side_stats(x.outer.beta, x.inner.beta)
    if a is None or b is None:
        return ZERO
    m = a[0] + b[0]
    if m == 0:
        return ONE
    return _delta_value(m, (a[1] + b[1]) & 1, a[2] + b[2])


def delta_bar(x: SkewBiShape, kind: str) -> HalfLaurent:
    """Single-strip statistic with content factors at the corners.

    Nonzero only when the whole shape is one connected border strip:
    (u^(1/2))^(c-1) * (-u^(-1/2))^(r-1) * prod over dull corners of 1/ct
    * prod over sharp corners of ct, a single monomial.  The corners come
    from the corner rule; ct is the content monomial of the cell (i, j):
    u^(j-i+1) on alpha (u^(j-i) for kind D) and -u^(j-i) on beta.
    """
    check_kind(kind)
    a = _side_stats(x.outer.alpha, x.inner.alpha)
    b = _side_stats(x.outer.beta, x.inner.beta)
    if a is None or b is None or a[0] + b[0] != 1:
        return ZERO
    if a[0]:
        outer, inner, (_, joins, e) = x.outer.alpha, x.inner.alpha, a
        shift, coeff = (1 if kind == "B" else 0), 1
    else:
        outer, inner, (_, joins, e) = x.outer.beta, x.inner.beta, b
        shift, coeff = 0, -1
    sign = -1 if joins & 1 else 1
    top = True
    for i, o in enumerate(outer):  # row i + 1, cells in columns left + 1 .. o
        left = inner[i] if i < len(inner) else 0
        if o == left:
            continue
        if top or o - left >= 2:  # sharp corner (i+1, left+1): times u^(left-i+shift)
            e += 2 * (left - i + shift)
            sign *= coeff
        if not top and o - left >= 2:  # dull corner (i+1, o): over u^(o-i-1+shift)
            e -= 2 * (o - i - 1 + shift)
            sign *= coeff
        top = False
    return _delta_bar_value(e, sign)


@lru_cache(maxsize=None)
def _delta_bar_value(e: int, sign: int) -> HalfLaurent:
    """sign * u^(e/2), one shared value per key."""
    return _from_clean({e: sign})


# ---------------------------------------------------------------------------
# removal enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _room(outer: Partition) -> tuple[int, ...]:
    """room[i]: the most cells removable from rows i.. of outer without a 2x2
    block, by the row criterion; room[len(outer)] == 0."""
    room = [0] * (len(outer) + 1)
    for i in range(len(outer) - 1, -1, -1):
        below = outer[i + 1] if i + 1 < len(outer) else 0
        room[i] = room[i + 1] + outer[i] - max(below - 1, 0)
    return tuple(room)


@lru_cache(maxsize=None)
def _no_2x2_inners(outer: Partition, removed: int) -> tuple[Partition, ...]:
    """Sub-partitions inner with |outer/inner| = removed and no 2x2 block.

    Row i keeps v cells with max(outer_{i+1} - 1, 0) <= v (the row
    criterion) and leaves at most room[i+1] cells to the rows below, so the
    walk builds only inners of the requested size, in sorted order.
    """
    room = _room(outer)
    if removed > room[0]:
        return ()
    acc: list[Partition] = []
    n_rows = len(outer)

    def rows(i: int, prev: int, left: int, prefix: tuple):
        if i == n_rows:
            acc.append(prefix)
            return
        o = outer[i]
        floor_i = outer[i + 1] - 1 if i + 1 < n_rows else 0
        lo = max(floor_i, o - left)
        hi = min(o, prev, o - left + room[i + 1])
        for v in range(lo, hi + 1):
            rows(i + 1, v, left - o + v, prefix + ((v,) if v else ()))

    rows(0, outer[0] if outer else 0, removed, ())
    return tuple(acc)


def broken_strip_removals(outer: BiPartition, m: int) -> Iterator[tuple[BiPartition, SkewBiShape]]:
    """Inner bipartitions whose difference is a broken border strip of size m.

    Pruned equivalent of filtering every sub-bipartition by delta != 0; the
    two agree (tested against the unpruned enumeration in tests/cells.py)
    and this one stays usable at rank 30.  Alpha gives up j cells and beta
    m - j, each at most its room, so only sizes both sides can supply are
    built.
    """
    lo = max(0, m - _room(outer.beta)[0])
    for j in range(lo, min(m, _room(outer.alpha)[0]) + 1):
        inners_b = _no_2x2_inners(outer.beta, m - j)
        for ia in _no_2x2_inners(outer.alpha, j):
            for ib in inners_b:
                inner = BiPartition(ia, ib)
                yield inner, SkewBiShape(outer, inner)


def single_strip_removals(outer: BiPartition, m: int) -> Iterator[tuple[BiPartition, SkewBiShape]]:
    """Inner bipartitions whose difference is one connected border strip.

    The strip lives entirely in alpha or entirely in beta; these are the
    only removals with delta_bar != 0.  A side is walked only when m is
    within its room, so no walk comes back empty.
    """
    if m == 0:
        return
    alpha, beta = outer
    if m <= _room(alpha)[0]:
        for ia in _no_2x2_inners(alpha, m):
            if _side_stats(alpha, ia)[0] == 1:
                inner = BiPartition(ia, beta)
                yield inner, SkewBiShape(outer, inner)
    if m <= _room(beta)[0]:
        for ib in _no_2x2_inners(beta, m):
            if _side_stats(beta, ib)[0] == 1:
                inner = BiPartition(alpha, ib)
                yield inner, SkewBiShape(outer, inner)
