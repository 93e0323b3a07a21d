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
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .halflaurent import HalfLaurent, ONE, U, ZERO, half_power, u_power

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
    "StripComponent",
    "StripInfo",
    "strip_classify",
    "delta",
    "delta_bar",
    "remove_strips",
    "broken_strip_removals",
    "single_strip_removals",
]

Partition = tuple  # tuple of weakly decreasing positive ints


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
    """Normalize an iterable of integers into a partition tuple, dropping zeros."""
    parts = tuple(parts)
    if any(isinstance(x, bool) or not isinstance(x, int) for x in parts):
        raise ValueError(f"parts must be integers: {parts!r}")
    p = tuple(x for x in parts if x != 0)
    if any(x < 0 for x in p):
        raise ValueError(f"negative part in {parts!r}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"parts not weakly decreasing: {parts!r}")
    return p


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

    Ordered by (size, lexicographic), which fixes the enumeration order of
    the rectangle sets downstream.
    """
    acc: list[Partition] = []
    for n in range(rows * cols + 1):
        for p in partitions_of(n, cols):
            if len(p) <= rows:
                acc.append(p)
    acc.sort(key=lambda p: (sum(p), p))
    return tuple(acc)


# ---------------------------------------------------------------------------
# cells and strip classification
# ---------------------------------------------------------------------------


def skew_cells(outer: Partition, inner: Partition) -> list[tuple[int, int]]:
    """Cells of outer/inner as 1-indexed (row, col) pairs, row-major."""
    cells = []
    for i, op in enumerate(outer, start=1):
        ip = inner[i - 1] if i - 1 < len(inner) else 0
        cells.extend((i, j) for j in range(ip + 1, op + 1))
    return cells


class StripComponent(NamedTuple):
    side: str  # "alpha" or "beta"
    cells: frozenset
    rows: int
    cols: int
    is_border_strip: bool


class StripInfo(NamedTuple):
    components: tuple[StripComponent, ...]
    is_broken_border_strip: bool


def _connected_components(cells: list[tuple[int, int]]) -> list[frozenset]:
    remaining = set(cells)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        remaining.discard(seed)
        while frontier:
            i, j = frontier.pop()
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb in remaining:
                    remaining.discard(nb)
                    comp.add(nb)
                    frontier.append(nb)
        comps.append(frozenset(comp))
    comps.sort(key=min)
    return comps


def _has_2x2(cells: frozenset) -> bool:
    return any(
        (i, j + 1) in cells and (i + 1, j) in cells and (i + 1, j + 1) in cells
        for (i, j) in cells
    )


def strip_classify(x: SkewBiShape) -> StripInfo:
    """Connected components of the skew shape, each with its row/column span.

    Connectivity is horizontal/vertical adjacency within one side; a shape
    meeting both alpha and beta always has at least two components.
    """
    comps: list[StripComponent] = []
    for side in ("alpha", "beta"):
        outer = getattr(x.outer, side)
        inner = getattr(x.inner, side)
        for cells in _connected_components(skew_cells(outer, inner)):
            comps.append(
                StripComponent(
                    side=side,
                    cells=cells,
                    rows=len({i for i, _ in cells}),
                    cols=len({j for _, j in cells}),
                    is_border_strip=not _has_2x2(cells),
                )
            )
    return StripInfo(
        components=tuple(comps),
        is_broken_border_strip=all(c.is_border_strip for c in comps),
    )


# ---------------------------------------------------------------------------
# the delta statistics
# ---------------------------------------------------------------------------


def delta(x: SkewBiShape) -> HalfLaurent:
    """U^(m-1) * prod over components of (u^(1/2))^(c-1) * (-u^(-1/2))^(r-1).

    Zero unless the shape is a broken border strip.  m is the number of
    connected components.
    """
    info = strip_classify(x)
    if not info.components:
        return ONE
    if not info.is_broken_border_strip:
        return ZERO
    out = U ** (len(info.components) - 1)
    for comp in info.components:
        out = out * half_power(comp.cols - 1) * half_power(-(comp.rows - 1), (-1) ** (comp.rows - 1))
    return out


def content(side: str, cell: tuple[int, int], kind: str) -> HalfLaurent:
    """Content monomial of a cell: u^(j-i+1) on alpha, -u^(j-i) on beta for
    kind B; the D variant drops the +1 on the alpha side."""
    i, j = cell
    if side == "alpha":
        return u_power(j - i + (1 if kind == "B" else 0))
    return u_power(j - i, -1)


def delta_bar(x: SkewBiShape, kind: str) -> HalfLaurent:
    """Single-strip statistic with content factors at the corners.

    Nonzero only when the whole shape is one connected border strip:
    (u^(1/2))^(c-1) * (-u^(-1/2))^(r-1) * prod over dull corners of 1/ct
    * prod over sharp corners of ct.  A sharp corner has no cell above nor
    to its left; a dull corner has both.
    """
    if kind not in ("B", "D"):
        raise ValueError(f"kind must be 'B' or 'D', got {kind!r}")
    info = strip_classify(x)
    if len(info.components) != 1 or not info.components[0].is_border_strip:
        return ZERO
    comp = info.components[0]
    out = half_power(comp.cols - 1) * half_power(-(comp.rows - 1), (-1) ** (comp.rows - 1))
    for (i, j) in comp.cells:
        above = (i - 1, j) in comp.cells
        left = (i, j - 1) in comp.cells
        if not above and not left:  # sharp
            out = out * content(comp.side, (i, j), kind)
        elif above and left:  # dull: a content c * u^k with c = +-1 inverts to c * u^-k
            ((k, c),) = content(comp.side, (i, j), kind).terms.items()
            out = out * half_power(-k, c)
    return out


# ---------------------------------------------------------------------------
# removal enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sub_partitions(outer: Partition, removed: int) -> tuple[Partition, ...]:
    """All partitions inner with inner ⊆ outer and |outer| - |inner| = removed."""
    total = sum(outer)
    if removed > total:
        return ()

    acc: list[Partition] = []

    def rows(i: int, prev: int, left: int, prefix: tuple):
        if i == len(outer):
            if left == 0:
                acc.append(prefix)
            return
        # max removable from rows i.. is sum(outer[i:]); prune on that
        if left > sum(outer[i:]):
            return
        hi = min(outer[i], prev)
        for v in range(hi, -1, -1):
            take = outer[i] - v
            if take <= left:
                rows(i + 1, v, left - take, prefix + ((v,) if v else ()))

    rows(0, outer[0] if outer else 0, removed, ())
    return tuple(sorted(acc))


def remove_strips(outer: BiPartition, m: int) -> list[tuple[BiPartition, SkewBiShape]]:
    """Every inner bipartition with |outer/inner| = m, with its skew shape.

    All sub-bipartitions are produced; callers prune by delta or delta_bar
    being zero.  Output is sorted lexicographically on the inner
    bipartition.
    """
    if m > outer.size:
        raise ValueError(f"cannot remove {m} cells from {outer} of size {outer.size}")
    out = []
    for j in range(m + 1):
        for ia in _sub_partitions(outer.alpha, j):
            for ib in _sub_partitions(outer.beta, m - j):
                inner = BiPartition(ia, ib)
                out.append((inner, SkewBiShape(outer, inner)))
    out.sort(key=lambda pair: pair[0])
    return out


@lru_cache(maxsize=None)
def _no_2x2_inners(outer: Partition, removed: int) -> tuple[Partition, ...]:
    """Sub-partitions whose skew difference has no 2x2 block.

    The difference outer/inner avoids 2x2 blocks iff inner_i >= outer_{i+1} - 1
    for every row i, which cuts the search space down to the broken border
    strips the evaluator actually needs.
    """
    if removed > sum(outer):
        return ()

    acc: list[Partition] = []
    n_rows = len(outer)
    # trailing rows may also shrink arbitrarily below the last outer row,
    # but weak decrease caps them; handled by the same recursion with a
    # virtual outer part of 0 after the end.
    suffix_max = [0] * (n_rows + 1)
    for i in range(n_rows - 1, -1, -1):
        floor_i = max(outer[i + 1] - 1 if i + 1 < n_rows else 0, 0)
        suffix_max[i] = suffix_max[i + 1] + (outer[i] - floor_i)

    def rows(i: int, prev: int, left: int, prefix: tuple):
        if left > suffix_max[i]:
            return
        if i == n_rows:
            if left == 0:
                acc.append(prefix)
            return
        floor_i = max(outer[i + 1] - 1 if i + 1 < n_rows else 0, 0)
        hi = min(outer[i], prev)
        for v in range(hi, floor_i - 1, -1):
            take = outer[i] - v
            if take <= left:
                rows(i + 1, v, left - take, prefix + ((v,) if v else ()))

    rows(0, outer[0] if outer else 0, removed, ())
    return tuple(sorted(acc))


def broken_strip_removals(outer: BiPartition, m: int) -> Iterator[tuple[BiPartition, SkewBiShape]]:
    """Inner bipartitions whose difference is a broken border strip of size m.

    Pruned equivalent of filtering remove_strips by delta != 0; the two
    agree (tested) and this one stays usable at rank 30.
    """
    for j in range(m + 1):
        inners_a = _no_2x2_inners(outer.alpha, j)
        if not inners_a:
            continue
        inners_b = _no_2x2_inners(outer.beta, m - j)
        for ia in inners_a:
            for ib in inners_b:
                inner = BiPartition(ia, ib)
                yield inner, SkewBiShape(outer, inner)


@lru_cache(maxsize=None)
def _connected_strip_inners(outer: Partition, removed: int) -> tuple[Partition, ...]:
    return tuple(
        inner
        for inner in _no_2x2_inners(outer, removed)
        if len(_connected_components(skew_cells(outer, inner))) == 1
    )


def single_strip_removals(outer: BiPartition, m: int) -> Iterator[tuple[BiPartition, SkewBiShape]]:
    """Inner bipartitions whose difference is one connected border strip.

    The strip lives entirely in alpha or entirely in beta; these are the
    only removals with delta_bar != 0.
    """
    if m == 0:
        return
    for ia in _connected_strip_inners(outer.alpha, m):
        inner = BiPartition(ia, outer.beta)
        yield inner, SkewBiShape(outer, inner)
    for ib in _connected_strip_inners(outer.beta, m):
        inner = BiPartition(outer.alpha, ib)
        yield inner, SkewBiShape(outer, inner)
