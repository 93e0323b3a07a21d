"""Strip classification, the delta statistics and removal enumeration.

delta and delta_bar, which read the pruned enumerations, are checked
against the row scan and against cell-based versions built on
strip_classify, and the pruned enumerations against remove_strips scored
by the row scan; both oracles live in tests/cells.py.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almostchar.halflaurent import ONE, U, ZERO, half_power, u_power
from almostchar.shapes import (
    BiPartition,
    SkewBiShape,
    _box_partitions,
    _delta_value,
    _no_2x2_inners,
    _rim,
    bipartition,
    bipartitions_of,
    broken_strip_removals,
    conjugate,
    delta,
    delta_bar,
    partition,
    partitions_of,
    single_strip_removals,
    skew,
)

from cells import (
    _has_2x2,
    _sub_partitions,
    content,
    delta_bar_from_rows,
    delta_from_rows,
    remove_strips,
    side_stats,
    skew_cells,
    strip_classify,
)

partitions_strategy = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.sampled_from([()] if n == 0 else list(partitions_of(n)))
)


def bp(a, b):
    return bipartition(a, b)


def delta_from_cells(x):
    """The cell-based delta: U^(m-1) * prod over the m components of
    (u^(1/2))^(c-1) * (-u^(-1/2))^(r-1), zero unless a broken border strip."""
    info = strip_classify(x)
    if not info.components:
        return ONE
    if not info.is_broken_border_strip:
        return ZERO
    out = U ** (len(info.components) - 1)
    for comp in info.components:
        out = out * half_power(comp.cols - 1) * half_power(-(comp.rows - 1), (-1) ** (comp.rows - 1))
    return out


def delta_bar_from_cells(x, kind):
    """The cell-based delta_bar: on one border strip, the delta factor times
    the content of every sharp corner (no cell above nor to the left) and
    the inverse content of every dull corner (cells above and to the left)."""
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


@st.composite
def skew_bipartitions(draw):
    """A skew bipartition; half the draws are broken border strips, so that
    nonzero values are well represented."""
    outer = BiPartition(draw(partitions_strategy), draw(partitions_strategy))
    m = draw(st.integers(0, outer.size))
    strips = [SkewBiShape(outer, inner) for inner, _ in broken_strip_removals(outer, m)]
    if strips and draw(st.booleans()):
        return draw(st.sampled_from(strips))
    return draw(st.sampled_from([shape for _, shape in remove_strips(outer, m)]))


def test_partition_normalization():
    assert partition([3, 2, 0]) == (3, 2)
    assert partition(()) == ()
    with pytest.raises(ValueError):
        partition([1, 2])
    with pytest.raises(ValueError):
        partition([-1])
    # a zero ahead of a positive part is refused, not dropped
    with pytest.raises(ValueError):
        partition([1, 0, 1])
    with pytest.raises(ValueError):
        partition([0, 2])


def test_conjugate_examples():
    assert conjugate((3, 2)) == (2, 2, 1)
    assert conjugate(()) == ()
    assert conjugate((1, 1, 1)) == (3,)


@given(partitions_strategy)
def test_conjugate_is_an_involution(p):
    assert conjugate(conjugate(p)) == p


def test_conjugate_transposes_the_cells():
    for n in range(13):
        for p in partitions_of(n):
            cells = {(j, i) for i, part in enumerate(p) for j in range(part)}
            columns = p[0] if p else 0
            want = tuple(sum(1 for row, _ in cells if row == j) for j in range(columns))
            assert conjugate(p) == want, p
            assert conjugate(want) == p, p


def test_skew_containment_checked():
    with pytest.raises(ValueError):
        skew(bp((1,), ()), bp((2,), ()))


def test_strip_classify_single_box():
    info = strip_classify(skew(bp((1,), ()), bp((), ())))
    assert len(info.components) == 1
    comp = info.components[0]
    assert comp.rows == comp.cols == 1 and comp.is_border_strip
    assert info.is_broken_border_strip


def test_strip_classify_2x2_block_is_not_a_border_strip():
    info = strip_classify(skew(bp((2, 2), ()), bp((), ())))
    assert len(info.components) == 1
    assert not info.components[0].is_border_strip
    assert not info.is_broken_border_strip


def test_strip_classify_splits_across_the_two_diagrams():
    info = strip_classify(skew(bp((1,), (1,)), bp((), ())))
    assert len(info.components) == 2
    assert info.is_broken_border_strip


def test_delta_examples():
    assert delta(skew(bp((1,), ()), bp((), ()))) == ONE
    assert delta(skew(bp((1,), (1,)), bp((), ()))) == U
    assert delta(skew(bp((), (2,)), bp((), ()))) == half_power(1)
    assert delta(skew(bp((2, 2), ()), bp((), ()))) == ZERO


def test_delta_of_empty_shape_is_one():
    assert delta(skew(bp((2,), ()), bp((2,), ()))) == ONE


def test_delta_bar_examples():
    assert delta_bar(skew(bp((1, 1), ()), bp((), ())), "B") == half_power(1, -1)
    assert delta_bar(skew(bp((), (2,)), bp((), ())), "B") == half_power(1, -1)
    # two components never carry a delta_bar value
    assert delta_bar(skew(bp((1,), (1,)), bp((), ())), "B") == ZERO
    assert delta_bar(skew(bp((1,), ()), bp((), ())), "D") == ONE
    with pytest.raises(ValueError):
        delta_bar(skew(bp((1,), ()), bp((), ())), "A")
    # a shape built without skew's check, its inner past its outer, is no strip
    past = SkewBiShape(bp((1,), ()), bp((2,), ()))
    assert delta(past) == delta_bar(past, "B") == ZERO


@settings(max_examples=300)
@given(skew_bipartitions())
def test_closed_forms_match_cells(shape):
    assert delta(shape) == delta_from_rows(shape) == delta_from_cells(shape)
    for kind in ("B", "D"):
        want = delta_bar_from_cells(shape, kind)
        assert delta_bar(shape, kind) == delta_bar_from_rows(shape, kind) == want


def test_closed_forms_match_cells_up_to_rank_7():
    seen = 0
    for n in range(8):
        for outer in bipartitions_of(n):
            for m in range(n + 1):
                for _, shape in remove_strips(outer, m):
                    assert delta(shape) == delta_from_rows(shape) == delta_from_cells(shape), shape
                    for kind in ("B", "D"):
                        want = delta_bar_from_cells(shape, kind)
                        assert delta_bar(shape, kind) == delta_bar_from_rows(shape, kind) == want, (
                            shape, kind)
                    seen += 1
    assert seen == 4006


def test_head_rule_matches_cells_on_every_strip_up_to_rank_12():
    # every one-component strip of every partition of n <= 12, on alpha and
    # on beta, for both kinds: the head rule against the corner rule of the
    # cell oracle, through the row scan and through the enumerator's score
    seen = 0
    for n in range(1, 13):
        for p in partitions_of(n):
            for outer in (BiPartition(p, ()), BiPartition((), p)):
                for m in range(1, n + 1):
                    for kind in ("B", "D"):
                        for inner, value in single_strip_removals(outer, m, kind):
                            shape = SkewBiShape(outer, inner)
                            want = delta_bar_from_cells(shape, kind)
                            assert value == delta_bar_from_rows(shape, kind) == want, (shape, kind)
                            seen += 1
    assert seen == 10584


def test_no_2x2_inners_match_filtered_sub_partitions():
    # the walk's inners are the filtered sub-partitions in sorted order, and
    # the statistics it gathers on the way are those of the row scan
    for n in range(13):
        for outer in partitions_of(n):
            for r in range(n + 2):
                want = tuple(
                    p for p in _sub_partitions(outer, r)
                    if not _has_2x2(frozenset(skew_cells(outer, p)))
                )
                walked = _no_2x2_inners(outer, r)
                assert tuple(inner for inner, _ in walked) == want, (outer, r)
                assert all(stats == side_stats(outer, p) for p, stats in walked), (outer, r)


def test_every_size_up_to_the_room_occurs():
    # rows i.. give up at most sum over k >= i of outer_k - max(outer_{k+1} - 1, 0)
    # cells, and every size from 0 to that bound has a no-2x2 inner
    for n in range(15):
        for outer in partitions_of(n):
            below = outer[1:] + (0,)
            room = sum(o - max(b - 1, 0) for o, b in zip(outer, below))
            assert _rim(outer) == room, outer
            for r in range(room + 1):
                assert _no_2x2_inners(outer, r)[0], (outer, r)
            assert _no_2x2_inners(outer, room + 1) == [], outer


def test_the_room_of_rows_i_on_is_their_rim():
    # the walk bounds rows i.. by outer_i + len(outer) - i - 1, the hook
    # length of the row's first cell; the oracle is the row-criterion sum
    for n in range(15):
        for outer in partitions_of(n):
            below = outer[1:] + (0,)
            for i in range(len(outer)):
                room = sum(o - max(b - 1, 0) for o, b in zip(outer[i:], below[i:]))
                assert outer[i] + len(outer) - i - 1 == room, (outer, i)


def test_content_conventions():
    assert content("alpha", (1, 1), "B") == u_power(1)
    assert content("alpha", (1, 1), "D") == ONE
    assert content("beta", (1, 2), "B") == u_power(1, -1)
    assert content("beta", (1, 2), "D") == u_power(1, -1)


def test_remove_strips_examples():
    got = remove_strips(bp((1,), (1,)), 1)
    inners = [inner for inner, _ in got]
    assert inners == sorted(inners)
    assert set(inners) == {bp((), (1,)), bp((1,), ())}

    ((inner, shape),) = remove_strips(bp((1,), ()), 1)
    assert inner == bp((), ()) and shape.size == 1

    ((inner, _),) = remove_strips(bp((2,), (1,)), 3)
    assert inner == bp((), ())

    with pytest.raises(ValueError):
        remove_strips(bp((1,), ()), 2)


@st.composite
def outer_and_size(draw):
    """An outer bipartition and a removal size from 0 to all of it."""
    outer = BiPartition(draw(partitions_strategy), draw(partitions_strategy))
    return outer, draw(st.integers(0, outer.size))


@given(outer_and_size())
def test_pruned_broken_enumeration_matches_filtered_naive(case):
    # in enumeration order, so each memo entry sums as before: by the cells
    # alpha gives up, ascending, then by inner (remove_strips sorts by inner)
    outer, m = case
    naive = [(inner, delta_from_rows(shape)) for inner, shape in remove_strips(outer, m)]
    want = [(inner, factor) for inner, factor in naive if factor]
    want.sort(key=lambda pair: sum(outer.alpha) - sum(pair[0].alpha))
    assert list(broken_strip_removals(outer, m)) == want


@given(outer_and_size())
def test_pruned_single_strip_enumeration_matches_filtered_naive(case):
    # in enumeration order: strips in alpha before those in beta, then by inner
    outer, m = case
    for kind in ("B", "D"):
        naive = [(inner, delta_bar_from_rows(shape, kind))
                 for inner, shape in remove_strips(outer, m)]
        want = [(inner, factor) for inner, factor in naive if factor]
        want.sort(key=lambda pair: pair[0].alpha == outer.alpha)
        assert list(single_strip_removals(outer, m, kind)) == want, kind


@pytest.mark.parametrize("kind", [None, "C", ""])
def test_single_strip_enumeration_refuses_a_kind_that_is_not_b_or_d(kind):
    # single strips are scored by delta_bar, which needs a kind; a plain
    # step at u = 1 reads kind B's scores (hecke._removal_table_at_one)
    with pytest.raises(ValueError, match="kind must be"):
        next(single_strip_removals(bp((2, 1), (1,)), 1, kind))


@given(st.tuples(partitions_strategy, partitions_strategy))
def test_single_box_removals_count_corners(pair):
    outer = BiPartition(*pair)
    if outer.size == 0:
        return
    total = ZERO
    for _, shape in remove_strips(outer, 1):
        total = total + delta(shape)
    corners = sum(
        1
        for side in (outer.alpha, outer.beta)
        for i, part in enumerate(side)
        if i + 1 == len(side) or side[i + 1] < part
    )
    assert total == corners * ONE


def _corner_counts(cells):
    sharp = dull = 0
    for (i, j) in cells:
        above = (i - 1, j) in cells
        left = (i, j - 1) in cells
        if not above and not left:
            sharp += 1
        elif above and left:
            dull += 1
    return sharp, dull


def test_sharp_corners_outnumber_dull_by_one_on_every_strip():
    # all connected border strips arising inside partitions of size <= 8
    seen = 0
    for n in range(1, 9):
        for outer in partitions_of(n):
            for m in range(1, n + 1):
                outer_bp = BiPartition(outer, ())
                for inner, _ in single_strip_removals(outer_bp, m, "B"):
                    info = strip_classify(SkewBiShape(outer_bp, inner))
                    (comp,) = info.components
                    sharp, dull = _corner_counts(comp.cells)
                    assert sharp == dull + 1
                    seen += 1
    assert seen > 200


def test_delta_nonzero_iff_broken_border_strip():
    for outer in bipartitions_of(4):
        for m in range(1, 5):
            for _, shape in remove_strips(outer, m):
                info = strip_classify(shape)
                assert (not delta(shape).is_zero()) == info.is_broken_border_strip


def test_skew_cells_are_row_major():
    assert skew_cells((3, 1), (1,)) == [(1, 2), (1, 3), (2, 1)]


def test_bipartition_json_roundtrip():
    x = bp((2, 1), (1,))
    assert BiPartition.from_json_obj(x.to_json_obj()) == x
    assert x.to_json_obj() == [[2, 1], [1]]


@pytest.mark.parametrize("obj", [[1, 2], [[1], [2], [3]], {"a": 1}, [[1], [True]]])
def test_bipartition_from_json_refuses_a_value_that_is_not_a_pair_of_integer_lists(obj):
    # these used to fail inside the unpacking, with a TypeError or an
    # unpacking message that named neither the value nor the form
    with pytest.raises(ValueError, match=r"a bipartition must be a JSON pair of integer lists"):
        BiPartition.from_json_obj(obj)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=6))
def test_bipartitions_of_counts(n):
    count = sum(1 for _ in bipartitions_of(n))
    expect = sum(
        len(list(partitions_of(k))) * len(list(partitions_of(n - k)))
        for k in range(n + 1)
    )
    assert count == expect


def _box_partitions_part_by_part(n, rows, cols):
    """The box walk with one level of recursion per part, the oracle of
    _box_partitions."""
    if n == 0:
        yield ()
    elif rows:
        for first in range(min(n, cols), (n - 1) // rows, -1):
            for rest in _box_partitions_part_by_part(n - first, rows - 1, first):
                yield (first,) + rest


def test_box_partitions_match_the_part_by_part_walk():
    # the same partitions in the same order, for every n <= 18 and box up to 11 x 11
    for n in range(19):
        for rows in range(12):
            for cols in range(12):
                want = list(_box_partitions_part_by_part(n, rows, cols))
                assert list(_box_partitions(n, rows, cols)) == want, (n, rows, cols)


def test_delta_value_is_the_ring_product():
    # the binomial expansion of U^(m-1) against the ring's own power
    for m in range(1, 13):
        for e in range(-20, 21):
            for odd in (0, 1):
                want = half_power(e, -1 if odd else 1) * U ** (m - 1)
                assert _delta_value(m, odd, e) == want, (m, odd, e)
