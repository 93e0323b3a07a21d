"""The cell-based strip oracle.

A slow, independent version of the strip layer in almostchar.shapes: skew
shapes as explicit cell sets, their connected components found by search,
2x2 blocks found by looking, contents read off single cells, and every
sub-bipartition of a given size enumerated without pruning.  The package
computes the same things from the rows alone; the tests in test_shapes.py
and test_hecke.py check that the two agree.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from almostchar.halflaurent import HalfLaurent, u_power
from almostchar.shapes import BiPartition, Partition, SkewBiShape

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
