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
statistics delta (broken strips) and delta_bar (single strips, scored by
the content of the strip's head) are the building blocks of the character
recursions in the hecke module.

Both statistics are computed from the rows alone, by these rules (a
side's statistics are m, the number of components, joins, the number of
adjacent rows that share a column, and e, the exponent of u^(1/2)):

* row criterion: rows i and i+1 of outer/inner hold a 2x2 block exactly
  when inner_i < outer_{i+1} - 1; without one, they are connected exactly
  when inner_i == outer_{i+1} - 1 (they then share one column);
* rim bound: by the row criterion, rows i.. of outer can give up at most
  their rim, outer_i + (number of rows) - i - 1 cells (the hook length of
  the row's first cell), with no 2x2 block, and every size from 0 to the
  rim of outer occurs (checked for every partition of n <= 14);
* head rule: a border strip of m cells in r rows, whose head is the last
  cell of its top row, has delta_bar = (-1)^(r-1) u^(-(m-1)/2) ct(head).
  By definition delta_bar is delta, (-1)^(r-1) u^((m-2r+1)/2), times the
  content of each sharp corner (no cell above, none to the left) over
  that of each dull one (cells above and to the left).  The top row's
  first cell is its one corner, sharp, of content ct(head) u^(1-l) for a
  top row of length l; each other row of length l >= 2 has one sharp and
  one dull corner, whose contents differ by u^(l-1) and whose signs
  cancel; a row of length 1 has none.  So the corners give ct(head)
  u^(r-m), and one sign survives: sharp corners outnumber dull ones by one.

The strip enumerators are the one scorer, and delta and delta_bar read
their values off them.  The walk that finds a side's inners of one size
gathers each inner's statistics as it chooses the rows, and a removal is
scored from the triples of its two sides.  Every value comes from one
interning cache, _delta_value(m, parity, e); a single strip's monomial is
its m = 1 entry.

A scan of the rows by these rules, and a slower, cell-based version of
both statistics and of the removal enumeration, live in tests/cells.py as
the tests' independent oracles; nothing in the package calls them.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterator, NamedTuple

from .halflaurent import HalfLaurent, ONE, ZERO

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
    def from_json_obj(cls, obj, name: str = "a bipartition") -> "BiPartition":
        """The bipartition of a JSON pair of integer lists; else ValueError
        naming `name` (the CLI passes its flag) and that form."""
        if not (isinstance(obj, list) and len(obj) == 2 and all(
                isinstance(side, list) and all(type(x) is int for x in side) for side in obj)):
            raise ValueError(f"{name} must be a JSON pair of integer lists [[...],[...]], "
                             f"got {obj!r}")
        return cls(partition(obj[0]), partition(obj[1]))


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


def _is_partition(p) -> bool:
    """Whether p is already a partition tuple, as partition() returns one:
    a tuple of positive ints (no bool), weakly decreasing."""
    return (type(p) is tuple and all(type(x) is int for x in p)
            and all(x >= y for x, y in zip(p, p[1:])) and (not p or p[-1] > 0))


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
    """Transpose of the Young diagram, counting down the rows: the columns
    p_{i+1} + 1 .. p_i have exactly i cells."""
    out: list[int] = []
    below = 0
    for i in range(len(p), 0, -1):
        out += [i] * (p[i - 1] - below)
        below = p[i - 1]
    return tuple(out)


def _box_partitions(n: int, rows: int, cols: int) -> Iterator[Partition]:
    """Partitions of n with at most `rows` parts, each at most `cols`, in
    descending lexicographic order, one level of recursion per distinct
    part: k copies of the largest, most copies first, then smaller parts."""
    if n == 0:
        yield ()
    elif rows:
        # the first part is at least n / rows, or the rest cannot fit
        for first in range(min(n, cols), (n - 1) // rows, -1):
            for k in range(min(n // first, rows), 0, -1):
                if n - k * first > (rows - k) * (first - 1):
                    break  # the rest cannot fit, nor with fewer copies
                for rest in _box_partitions(n - k * first, rows - k, first - 1):
                    yield (first,) * k + rest


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, largest part first."""
    return _box_partitions(n, n, n)


def bipartitions_of(n: int) -> Iterator[BiPartition]:
    """All bipartitions of total size n, alpha-size ascending."""
    for k in range(n + 1):
        for a in partitions_of(k):
            for b in partitions_of(n - k):
                yield BiPartition(a, b)


# ---------------------------------------------------------------------------
# the delta statistics
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _delta_value(m: int, odd: int, e: int) -> HalfLaurent:
    """(-1)^odd * u^(e/2) * U^(m-1), one shared value per key, with U^(m-1)
    expanded as the sum over j of (-1)^j C(m-1, j) u^((m-1-2j)/2)."""
    return HalfLaurent({e + m - 1 - 2 * j: (-1) ** (odd + j) * comb(m - 1, j) for j in range(m)})


def delta(x: SkewBiShape) -> HalfLaurent:
    """U^(m-1) * prod over components of (u^(1/2))^(c-1) * (-u^(-1/2))^(r-1).

    That is (-1)^(sum of r-1) * u^(e/2) * U^(m-1) with e the sum of
    (c-1) - (r-1), m the number of components: zero unless a broken border
    strip, one on the empty shape.  One broken_strip_removals per call.
    """
    return dict(broken_strip_removals(x.outer, x.size)).get(x.inner, ZERO)


def delta_bar(x: SkewBiShape, kind: str) -> HalfLaurent:
    """Single-strip statistic, by the head rule.

    Nonzero only when the whole shape is one connected border strip, of m
    cells in r rows: (-1)^(r-1) * u^(-(m-1)/2) * ct(head), a single
    monomial, the head being the last cell of the top row.  ct is the
    content monomial of the cell (i, j): u^(j-i+1) on alpha (u^(j-i) for
    kind D) and -u^(j-i) on beta.  One single_strip_removals per call.
    """
    return dict(single_strip_removals(x.outer, x.size, kind)).get(x.inner, ZERO)


def _strip_value(
    outer: Partition, inner: Partition, stats: tuple, shift: int, coeff: int
) -> HalfLaurent:
    """delta_bar of the one border strip outer/inner on one side, whose
    walk statistics are stats, by the head rule; the side's content of cell
    (i, j) is coeff * u^(j-i+shift), coeff = +-1.  Row t + 1 is the top
    row, m - 1 is e + 2 * joins, and the monomial is _delta_value's at m = 1."""
    _, joins, e = stats
    t = 0
    while t < len(inner) and inner[t] == outer[t]:
        t += 1
    return _delta_value(1, (joins + (coeff < 0)) & 1, 2 * (outer[t] - t + shift - joins - 1) - e)


# ---------------------------------------------------------------------------
# removal enumeration
# ---------------------------------------------------------------------------


def _rim(outer: Partition) -> int:
    """The most cells outer can give up without a 2x2 block (the rim bound)."""
    return outer[0] + len(outer) - 1 if outer else 0


def _no_2x2_inners(outer: Partition, removed: int) -> list[tuple[Partition, tuple]]:
    """(inner, stats) for each sub-partition inner with |outer/inner| =
    removed and no 2x2 block, in sorted order, stats being (m, sum of r-1,
    sum of cells-2r+1) over its m components, each of r rows.

    Row i keeps v cells with max(outer_{i+1} - 1, 0) <= v (the row
    criterion) and leaves to the rows below at most their rim,
    outer_{i+1} + len(outer) - i - 2 cells (none past the last row), so the
    walk builds only inners of the requested size.  It is depth first and
    goes on in place with the smallest v, leaving the larger ones on the
    stack, so inners come out sorted and a row with one choice (most rows,
    for long strips) costs no push.  Once no cells are left to take, the
    rows below are kept whole, which the row above allows unless it joins
    them.  The statistics are gathered on the way: row i is in the strip
    when v < outer_i and joins row i+1 when v == outer_{i+1} - 1; the cells
    number `removed`.
    """
    if removed > _rim(outer):
        return []
    n_rows = len(outer)
    found = []
    # (row, v of the row above, cells left to take, inner so far, rows, joins)
    stack = [(0, outer[0] if outer else 0, removed, (), 0, 0)]
    while stack:
        i, prev, left, prefix, rows, joins = stack.pop()
        while left:  # left <= the rim of rows i.. and prev >= outer[i] - 1, so lo <= hi
            o = outer[i]
            lo = hi = o - left
            if i + 1 < n_rows:  # the rows below give up at most their rim
                join = outer[i + 1] - 1
                hi += join + n_rows - i - 1
            else:
                join = -1
            # bounds as conditionals: min and max cost a call per row
            if lo < join:  # the row criterion
                lo = join
            if lo < 0:
                lo = 0
            if hi > prev:
                hi = prev
            if hi > o:
                hi = o
            for v in range(hi, lo, -1):
                stack.append((i + 1, v, left - o + v, prefix + (v,) if v else prefix,
                              rows + (v < o), joins + (v == join)))
            i += 1
            prev = lo
            left -= o - lo
            if lo:
                prefix += (lo,)
            rows += lo < o
            joins += lo == join
        if i == n_rows or prev >= outer[i]:
            found.append((prefix + outer[i:], (rows - joins, joins, removed - rows - joins)))
    return found


def broken_strip_removals(
    outer: BiPartition, m: int
) -> Iterator[tuple[BiPartition, HalfLaurent]]:
    """(inner, delta) for every inner bipartition whose difference with
    outer is a broken border strip of size m.

    Pruned equivalent of filtering every sub-bipartition by delta != 0; the
    two agree (tested against the unpruned enumeration in tests/cells.py)
    and this one stays usable at rank 30.  Alpha gives up j cells and beta
    m - j, each at most its rim, so only sizes both sides can supply are
    built.  Each side's statistics come from its walk, so a pair is scored
    by adding two triples: delta is ONE on the empty strip and
    _delta_value(m, parity of joins, e) otherwise.
    """
    if m == 0:
        yield outer, ONE
        return
    lo = max(0, m - _rim(outer.beta))
    for j in range(lo, min(m, _rim(outer.alpha)) + 1):
        inners_b = _no_2x2_inners(outer.beta, m - j)
        for ia, (ma, ja, ea) in _no_2x2_inners(outer.alpha, j):
            for ib, (mb, jb, eb) in inners_b:
                yield BiPartition(ia, ib), _delta_value(ma + mb, (ja + jb) & 1, ea + eb)


def single_strip_removals(
    outer: BiPartition, m: int, kind: str
) -> Iterator[tuple[BiPartition, HalfLaurent]]:
    """(inner, delta_bar) for every inner bipartition whose difference with
    outer is one connected border strip of size m.

    The strip lives entirely in alpha or entirely in beta; these are the
    only removals with delta_bar != 0, and the broken strips whose delta
    does not vanish at u = 1 (a strip of one component has no factor U).
    A side is walked only when 0 < m <= its rim, so no walk comes back
    empty; its inners with one component are scored by the head rule.
    """
    check_kind(kind)
    if m <= 0:
        return
    alpha, beta = outer
    if m <= _rim(alpha):
        shift = 1 if kind == "B" else 0
        for ia, stats in _no_2x2_inners(alpha, m):
            if stats[0] == 1:
                yield BiPartition(ia, beta), _strip_value(alpha, ia, stats, shift, 1)
    if m <= _rim(beta):
        for ib, stats in _no_2x2_inners(beta, m):
            if stats[0] == 1:
                yield BiPartition(alpha, ib), _strip_value(beta, ib, stats, 0, -1)
