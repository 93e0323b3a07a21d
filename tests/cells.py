"""The strip oracles: a row scan and a cell-based strip layer.

Two slow, independent versions of the strip layer in almostchar.shapes,
whose enumerators are the package's one scorer.  The row scan reads a
skew shape's statistics off one pass over its rows, apart from the
enumerators' walk, and scores them with the package's closed forms.  The
cell-based layer goes further: skew shapes as explicit cell sets, their
connected components found by search, 2x2 blocks found by looking,
contents read off single cells, and every sub-bipartition of a given size
enumerated without pruning.  The tests in test_shapes.py and test_hecke.py
check that the package agrees with both.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from almostchar.halflaurent import ONE, ZERO, HalfLaurent, u_power
from almostchar.shapes import (
    BiPartition,
    Partition,
    SkewBiShape,
    _delta_value,
    _strip_value,
    check_kind,
)

# ---------------------------------------------------------------------------
# the row scan
# ---------------------------------------------------------------------------


def side_stats(outer: Partition, inner: Partition) -> tuple[int, int, int] | None:
    """(m, sum of (r-1), sum of (cells - 2r + 1)) over the m components of
    one side outer/inner, each of r rows; None if the side has a 2x2 block.

    One pass over the rows by the row criterion.  A border strip of r rows
    spans c = cells - r + 1 columns, so the last entry is the sum of
    (c-1) - (r-1), the exponent of u^(1/2) in delta.  The strip enumerators'
    walk gathers the same triple row by row.
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


def delta_from_rows(x: SkewBiShape) -> HalfLaurent:
    """delta of any skew shape from the row scans of its two sides."""
    a = side_stats(x.outer.alpha, x.inner.alpha)
    b = side_stats(x.outer.beta, x.inner.beta)
    if a is None or b is None:
        return ZERO
    m = a[0] + b[0]
    if m == 0:
        return ONE
    return _delta_value(m, (a[1] + b[1]) & 1, a[2] + b[2])


def delta_bar_from_rows(x: SkewBiShape, kind: str) -> HalfLaurent:
    """delta_bar of any skew shape from the row scans of its two sides,
    scored by the head rule when the shape is one border strip."""
    check_kind(kind)
    a = side_stats(x.outer.alpha, x.inner.alpha)
    b = side_stats(x.outer.beta, x.inner.beta)
    if a is None or b is None or a[0] + b[0] != 1:
        return ZERO
    if a[0]:
        return _strip_value(x.outer.alpha, x.inner.alpha, a, 1 if kind == "B" else 0, 1)
    return _strip_value(x.outer.beta, x.inner.beta, b, 0, -1)


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


def content(side: str, cell: tuple[int, int], kind: str) -> HalfLaurent:
    """Content monomial of a cell: u^(j-i+1) on alpha, -u^(j-i) on beta for
    kind B; the D variant drops the +1 on the alpha side."""
    i, j = cell
    if side == "alpha":
        return u_power(j - i + (1 if kind == "B" else 0))
    return u_power(j - i, -1)


def hooks(p: Partition) -> tuple[int, ...]:
    """The diagonal hook lengths h_ii = p_i + p'_i - 2i + 1 of p, largest
    first, with the column lengths p' counted off the rows."""
    durfee = sum(1 for i, part in enumerate(p, start=1) if part >= i)
    cols = [sum(1 for part in p if part >= j) for j in range(1, durfee + 1)]
    return tuple(p[i - 1] + cols[i - 1] - 2 * i + 1 for i in range(1, durfee + 1))


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
