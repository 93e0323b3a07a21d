"""Traces on the extended Hecke algebras, cross-checked against an
independently built seminormal matrix model (tests/seminormal.py)."""

import functools
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almostchar.halflaurent import ONE, ZERO, HalfLaurent
from almostchar import hecke as hecke_module
from almostchar.config import NO_LIMITS, Config
from almostchar.hecke import (
    MNContext,
    ResourceGuardError,
    TraceCache,
    _traces_at_one,
    br_from_cycles,
    centralizer_order_B,
    class_reps,
    identity_cycles,
    l_prime,
    mn_trace,
    st_bitableaux,
    valid_d_cycle_lists,
)
from almostchar.shapes import (
    BiPartition,
    bipartition,
    bipartitions_of,
    broken_strip_removals,
    partitions_of,
    single_strip_removals,
)

from cells import delta_bar_from_rows, delta_from_rows, remove_strips
from seminormal import (
    build_b_generators,
    build_q1_generators,
    eval_halflaurent,
    trace_of_word,
    verify_relations,
    word_for_b_cycles,
    word_for_b_cycles_in_order,
    word_for_d_cycles,
)

bp = bipartition


def hl(pairs):
    return HalfLaurent(pairs)


# -- elements -----------------------------------------------------------------


def test_br_from_cycles_keeps_the_signed_cycles():
    br = br_from_cycles("B", [-1, -3, 3, 5])
    assert br.cycles == (-1, -3, 3, 5)
    assert br.n == 12

    assert br_from_cycles("B", [-2]).cycles == (-2,)
    assert br_from_cycles("B", [6, 10]) == ("B", (6, 10))
    assert br_from_cycles("B", []).n == 0


def test_br_from_cycles_rejects():
    with pytest.raises(ValueError):
        br_from_cycles("B", [0])
    with pytest.raises(ValueError):
        br_from_cycles("D", [-2, 2])
    with pytest.raises(ValueError):
        br_from_cycles("D", [2, -2])
    for bad in ([1.5], [True], (-2.0, 12, 16)):
        with pytest.raises(ValueError):
            br_from_cycles("B", bad)


@given(
    st.lists(st.integers(min_value=1, max_value=5), max_size=3),
    st.lists(st.integers(min_value=1, max_value=5), max_size=3),
)
def test_br_roundtrip(neg_mags, pos_mags):
    cycles = tuple(-m for m in sorted(neg_mags)) + tuple(sorted(pos_mags))
    br = br_from_cycles("B", list(cycles))
    assert br.cycles == cycles
    assert br.n == sum(neg_mags) + sum(pos_mags)


def test_l_prime_examples():
    assert l_prime(br_from_cycles("B", [-2])) == 1
    assert l_prime(br_from_cycles("B", [3])) == 2
    assert l_prime(br_from_cycles("B", [-1])) == 0
    assert l_prime(br_from_cycles("D", [-1, -3])) == 3
    assert l_prime(br_from_cycles("B", [-1, -3, 3, 5])) == 10


def _signed_compositions(n):
    """Every signed cycle list of total n: 2 * 3^(n-1) of them."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _signed_compositions(n - first):
            yield (first,) + rest
            yield (-first,) + rest


def test_l_prime_counts_the_letters_of_the_seminormal_word():
    # the seminormal model spells the same word with t as letter 0
    checked = 0
    for n in range(1, 8):
        for cycles in _signed_compositions(n):
            word = word_for_b_cycles_in_order(cycles, n)
            assert l_prime(br_from_cycles("B", cycles)) == sum(1 for g in word if g), cycles
            checked += 1
    assert checked == 2186


# -- class representatives ----------------------------------------------------


def test_class_reps_small():
    assert class_reps(1) == [(1,), (-1,)]
    assert class_reps(2) == [(2,), (1, 1), (-1, 1), (-2,), (-1, -1)]
    assert len(class_reps(3)) == 10


def test_class_reps_counts_match_pair_partitions():
    # one class per pair (plain partition, barred partition)
    for n in range(1, 7):
        counts = [sum(1 for _ in partitions_of(k)) for k in range(n + 1)]
        want = sum(counts[k] * counts[n - k] for k in range(n + 1))
        assert len(class_reps(n)) == want


def test_class_reps_are_canonically_ordered():
    for n in range(1, 6):
        for rep in class_reps(n):
            neg = [c for c in rep if c < 0]
            pos = [c for c in rep if c > 0]
            assert tuple(neg) + tuple(pos) == rep
            assert sorted(neg, reverse=True) == neg  # magnitudes ascending
            assert sorted(pos) == pos


def test_class_reps_rejects():
    with pytest.raises(ValueError):
        class_reps(0)


def test_valid_d_cycle_lists_4():
    assert valid_d_cycle_lists(4) == [
        (4,),
        (1, 3),
        (2, 2),
        (1, 1, 2),
        (1, 1, 1, 1),
        (-1, -1, 2),
        (-1, -1, 1, 1),
        (-1, -2, 1),
        (-1, -3),
    ]


def test_centralizer_order_examples():
    assert centralizer_order_B([1, 1]) == 8
    assert centralizer_order_B([-2]) == 4
    assert centralizer_order_B([1]) == 2


def test_valid_d_cycle_lists_refuses_a_rank_that_is_not_a_count():
    assert valid_d_cycle_lists(0) == [()]
    for n in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="n must be an integer"):
            valid_d_cycle_lists(n)
    with pytest.raises(ValueError, match="n must be >= 0"):
        valid_d_cycle_lists(-1)


def test_centralizer_order_refuses_a_cycle_length_br_from_cycles_refuses():
    for cycles in ([0, 2], [0]):
        with pytest.raises(ValueError, match="cycle lengths must be nonzero"):
            centralizer_order_B(cycles)
    for cycles in ([True], [1, 2.0], ["1"]):
        with pytest.raises(ValueError, match="cycle lengths must be integers"):
            centralizer_order_B(cycles)


def test_centralizer_orders_satisfy_class_equation():
    # class sizes (group order / centralizer order) must sum to the group order
    from math import factorial

    for n in range(1, 6):
        group = 2**n * factorial(n)
        sizes = [group // centralizer_order_B(rep) for rep in class_reps(n)]
        assert all(group % centralizer_order_B(rep) == 0 for rep in class_reps(n))
        assert sum(sizes) == group


# -- bitableaux counts and the identity element -------------------------------


@functools.cache
def peeled_bitableaux(lam):
    """Standard bitableaux count by peeling single boxes, the oracle for
    st_bitableaux's hook length closed form."""
    if lam.size == 0:
        return 1
    return sum(peeled_bitableaux(inner) for inner, _ in single_strip_removals(lam, 1, "B"))


def test_st_bitableaux_counts():
    assert st_bitableaux(bp([], [])) == 1
    assert st_bitableaux(bp([1], [1])) == 2
    assert st_bitableaux(bp([1], [1, 1])) == 3
    assert st_bitableaux(bp([2, 1], [1])) == 8
    lams = [lam for n in range(11) for lam in bipartitions_of(n)]
    assert len(lams) == 1_215
    assert all(st_bitableaux(lam) == peeled_bitableaux(lam) for lam in lams)


def test_identity_trace_is_bitableaux_count():
    for n in range(0, 6):
        br = br_from_cycles("B", identity_cycles(n)) if n else None
        for lam in bipartitions_of(n):
            if n == 0:
                continue
            got = mn_trace("B", lam, br)
            assert got == hl([(0, st_bitableaux(lam))])


# -- frozen trace values -------------------------------------------------------


FROZEN_B_TRACES = [
    (([1], []), [-1], [(2, 1)]),
    (([], [1]), [-1], [(0, -1)]),
    (([1, 1], []), [-2], [(2, -1)]),
    (([1], [1]), [1, 1], [(0, 2)]),
    (([2], [1]), [-3], []),
    (([1, 1], [1]), [-1, 2], [(0, 1), (2, -1), (4, 1)]),
    (([3], []), [3], [(4, 1)]),
    (([1], [2]), [-1, -1, 1], [(4, -1)]),
    (([1, 1, 1], []), [-1, -2], [(4, -1)]),
]


def test_mn_trace_frozen_values():
    for (a, b), cycles, terms in FROZEN_B_TRACES:
        got = mn_trace("B", bp(a, b), br_from_cycles("B", cycles))
        assert got == hl(terms), (a, b, cycles)


def test_mn_trace_errors():
    with pytest.raises(ValueError):
        mn_trace("B", bp([1], [1]), br_from_cycles("D", [-1, -1]))
    with pytest.raises(ValueError):
        mn_trace("B", bp([1], [1]), br_from_cycles("B", [3]))
    with pytest.raises(ValueError):
        mn_trace("D", bp([1], [1]), br_from_cycles("D", [2]))


def test_mn_trace_rejects_a_bipartition_that_is_not_a_pair_of_partitions():
    br = br_from_cycles("B", (-2, 12, 16))
    for lam, bad in (
        (BiPartition((2,), (12, 16)), r"\(12, 16\)"),  # unsorted: was a silent 0
        (BiPartition((2, 0), (16, 12)), r"\(2, 0\)"),  # a zero part
        (BiPartition([2], (16, 12)), r"\[2\]"),  # not a tuple
        (BiPartition((2,), (16, True)), r"\(16, True\)"),  # not an int
    ):
        with pytest.raises(ValueError, match=bad + " in .* is not a partition"):
            mn_trace("B", lam, br)
    # a bipartition built directly from partitions keeps its value
    assert mn_trace("B", BiPartition((2,), (16, 12)), br) == hl(
        [(56, 1), (54, -7), (52, 22), (50, -30), (48, 20), (46, -6), (44, 1)]
    )
    assert mn_trace("B", BiPartition((3, 1), ()), br_from_cycles("B", [4])) == mn_trace(
        "B", bp([3, 1], []), br_from_cycles("B", [4])
    )


def test_mn_trace_rejects_a_context_built_for_another_element():
    lam, br = bp([3], [1]), br_from_cycles("B", [-1, 3])
    with pytest.raises(ValueError, match="context"):
        mn_trace("B", lam, br, context=MNContext(br_from_cycles("B", [2, 2])))
    # an equal element built apart is the same element
    assert mn_trace("B", lam, br, context=MNContext(br_from_cycles("B", [-1, 3]))) == hl(
        [(6, 1), (4, -2)]
    )


class Unread:
    """A cache_store that must not be read."""

    def get(self, *args):
        raise AssertionError("the cache was read before the checks")


def test_a_trace_checks_kind_element_context_bipartition_rank_then_cache():
    br, lam = br_from_cycles("B", [1, 1]), bp([1], [1])
    other = MNContext(br_from_cycles("B", [2]))
    tight = Config(max_rank=1)
    for call in (
        mn_trace,
        lambda kind, lam, br, **kw: mn_trace(kind, lam, br, cache_store=Unread(), **kw),
    ):
        with pytest.raises(ValueError, match="kind must be"):
            call("C", bp([9], []), br_from_cycles("D", [2]), context=other, config=tight)
        with pytest.raises(ValueError, match="element is kind B"):
            call("D", bp([9], []), br, context=other, config=tight)
        # the rank is over max_rank too, but the context is checked first
        with pytest.raises(ValueError, match=r"context is for \(2,\), not \(1, 1\)"):
            call("B", lam, br, context=other, config=tight)
        with pytest.raises(ValueError, match=r"\|lambda\| = 1"):
            call("B", bp([1], []), br, config=tight)
        with pytest.raises(ResourceGuardError, match="max_rank"):
            call("B", lam, br, config=tight)


@pytest.mark.parametrize(
    "kind, lam, cycles",
    [
        ("B", bp([1], [1]), [-1, 2]),  # wrong size
        ("B", BiPartition((1, 2), ()), [3]),  # not a partition
        ("B", BiPartition((2, 0), (1,)), [3]),  # a zero part
        ("B", BiPartition([2], (1,)), [3]),  # not a tuple
        ("D", bp([1], [1]), [-1, -1]),  # equal components
    ],
)
def test_mn_trace_refuses_a_bipartition_from_outside(kind, lam, cycles):
    # mn_trace is where a caller's bipartition enters, so it is the one
    # place that refuses one, with or without a cache
    br = br_from_cycles(kind, cycles)
    with pytest.raises(ValueError) as plain:
        mn_trace(kind, lam, br)
    with pytest.raises(ValueError) as cached:
        mn_trace(kind, lam, br, cache_store=Unread())
    assert str(cached.value) == str(plain.value)


def test_mn_trace_checks_each_side_once_with_or_without_a_cache(monkeypatch):
    class Store(dict):
        def get(self, *key):
            return super().get(key)

        def put(self, *args):
            self[args[:3]] = args[3]

    checked = []

    def counted(side):
        checked.append(side)
        return is_partition(side)

    is_partition = hecke_module._is_partition
    monkeypatch.setattr(hecke_module, "_is_partition", counted)
    br, lam = br_from_cycles("B", [-1, 3]), bp([3], [1])
    store = Store()
    for cache_store in (None, store, store):  # no cache, a miss, a hit
        checked.clear()
        assert mn_trace("B", lam, br, cache_store=cache_store) == hl([(6, 1), (4, -2)])
        assert checked == [(3,), (1,)]


def test_memo_budget_guard():
    br = br_from_cycles("B", [-2, 3])
    ctx = MNContext(br, Config(memo_budget=1))
    with pytest.raises(ResourceGuardError):
        mn_trace("B", bp([3, 1], [1]), br, context=ctx)
    # the u = 1 recursion keeps its own memo under the same budget, which
    # also counts the tables it builds: two memo entries and two tables
    with pytest.raises(ResourceGuardError, match="memo budget 1"):
        _traces_at_one(br, [bp([3], [2])], {}, Config(memo_budget=1))
    with pytest.raises(ResourceGuardError, match="memo budget 3"):
        _traces_at_one(br, [bp([3], [2])], {}, Config(memo_budget=3))
    got = _traces_at_one(br, [bp([3], [2])], {}, Config(memo_budget=4))
    assert got == [mn_trace("B", bp([3], [2]), br).eval_one()] != [0]


def test_repeat_and_shared_context_agree():
    br = br_from_cycles("B", [-1, -2, 2])
    fresh_a = mn_trace("B", bp([3], [2]), br)
    fresh_b = mn_trace("B", bp([3], [2]), br)
    assert fresh_a == fresh_b

    ctx = MNContext(br, Config())
    first = mn_trace("B", bp([3], [2]), br, context=ctx)
    second = mn_trace("B", bp([2, 1], [1, 1]), br, context=ctx)
    assert first == fresh_a
    assert second == mn_trace("B", bp([2, 1], [1, 1]), br)


def test_trace_cache_roundtrip(tmp_path):
    cache = TraceCache(str(tmp_path))
    br = br_from_cycles("B", [-1, -2])
    lam = bp([2, 1], [])
    first = mn_trace("B", lam, br, cache_store=cache)
    files = list(tmp_path.iterdir())
    assert files, "cache directory stayed empty"
    second = mn_trace("B", lam, br, cache_store=cache)
    assert first == second == mn_trace("B", lam, br)


@pytest.mark.parametrize(
    "text",
    [
        "",
        '{"key":',
        "[]",
        '{"value":{"terms":[]}}',
        '{"key":{"kind":"B","lambda":[[2,1],[]],"cycles":[-1,-2]}}',
        '{"key":{"kind":"B","lambda":[[2,1],[]],"cycles":[-1,-2]},'
        '"value":{"terms":[{"halfexp":2,"num":1.5,"den":1}]}}',
        '{"key":{"kind":"B","lambda":[[2,1],[]],"cycles":[-1,-2]},'
        '"value":{"terms":[{"halfexp":2,"num":1,"den":0}]}}',
        '{"key":{"kind":"B","lambda":[[2,1],[]],"cycles":[-1,-2]},'
        '"value":{"terms":[{"halfexp":"2","num":1,"den":1}]}}',
    ],
)
def test_trace_cache_undecodable_entry_is_a_miss(tmp_path, text):
    cache = TraceCache(str(tmp_path))
    br = br_from_cycles("B", [-1, -2])
    lam = bp([2, 1], [])
    want = mn_trace("B", lam, br, cache_store=cache)
    (entry,) = tmp_path.iterdir()
    entry.write_text(text)
    assert cache.get("B", lam, br) is None
    assert mn_trace("B", lam, br, cache_store=cache) == want
    assert cache.get("B", lam, br) == want


def test_traces_have_int_coefficients(tmp_path):
    # traces lie in Z[u^(1/2), u^(-1/2)]: no coefficient may be a Fraction,
    # neither when computed nor when read back from the disk cache
    elements = [("B", c) for n in range(1, 6) for c in _signed_compositions(n)]
    elements += [("D", c) for n in range(1, 5) for c in valid_d_cycle_lists(n)]
    cache = TraceCache(str(tmp_path))
    for i, (kind, cycles) in enumerate(elements):
        br = br_from_cycles(kind, cycles)
        context = MNContext(br)
        for lam in bipartitions_of(br.n):
            if kind == "D" and lam.alpha == lam.beta:
                continue
            value = mn_trace(kind, lam, br, context=context)
            assert all(type(c) is int for c in value.terms.values()), (kind, cycles, lam)
            if i % 10 == 0:
                cache.put(kind, lam, br, value)
                cached = cache.get(kind, lam, br)
                assert cached == value
                assert all(type(c) is int for c in cached.terms.values()), (kind, cycles, lam)


def _durfee(p):
    """The side of the largest square in the diagram of p."""
    return sum(1 for i, part in enumerate(p) if part > i)


@functools.cache
def _unpruned_chain_sums():
    """(br, k, outer, value) for every chain_sum of the unpruned
    SummingContext at every k and every outer of the prefix size, for every
    kind B class and D list up to rank 7."""
    elements = [("B", c) for n in range(1, 8) for c in class_reps(n)]
    elements += [("D", c) for n in range(1, 8) for c in valid_d_cycle_lists(n)]
    out = []
    for kind, cycles in elements:
        br = br_from_cycles(kind, cycles)
        context = SummingContext(br)
        for k in range(len(context.steps) + 1):
            for outer in bipartitions_of(context.prefix_sizes[k]):
                out.append((br, k, outer, context.chain_sum(outer, k)))
    return len(elements), out


def test_chain_sum_is_zero_where_the_durfee_sizes_outrun_the_steps():
    # a 2x2-free strip holds at most one cell per diagonal, so a step lowers
    # a component's Durfee size by at most 1: a barred step touches one
    # component and a plain one at most both.  With p plain and q barred
    # steps among the first k, chain_sum(outer, k) is therefore 0 when
    # durfee(alpha) + durfee(beta) > 2p + q or either Durfee size exceeds k.
    # Checked on the unpruned recursion, since MNContext applies the bound
    count, values = _unpruned_chain_sums()
    fired = 0
    for br, k, outer, value in values:
        head = hecke_module._steps(br)[:k]
        plain = sum(1 for _, bar_kind in head if bar_kind is None)
        da, db = _durfee(outer.alpha), _durfee(outer.beta)
        if da + db > 2 * plain + (k - plain) or max(da, db) > k:
            fired += 1
            assert value.is_zero(), (br, outer, k)
    assert (count, len(values), fired) == (337, 35886, 802)


def test_pruned_chain_sum_equals_the_unpruned_one():
    # every (outer, k) up to rank 7, the element's own level included
    contexts = {}
    for br, k, outer, value in _unpruned_chain_sums()[1]:
        if br not in contexts:
            contexts[br] = MNContext(br)
        assert contexts[br].chain_sum(outer, k) == value, (br, outer, k)
    for br, context in contexts.items():
        assert all(k < len(context.steps) for _, k in context._memo), br
    assert MNContext(br_from_cycles("B", [-1, 2, 3])).durfee_caps == (0, 1, 3, 5)


# -- the summing engine as the oracle of the fused one ---------------------------


class SummingContext(MNContext):
    """The chain sum as a plain sum of delta * sub through the public ring
    operations, with the size test up front, over the unpruned removals of
    tests/cells.py scored by its row scan: the engine before the memo
    entries were accumulated in place, apart from the strip enumerators,
    with no Durfee bound, and storing every level."""

    def __init__(self, br):
        super().__init__(br)
        self.prefix_sizes = [0]
        for size, _ in self.steps:
            self.prefix_sizes.append(self.prefix_sizes[-1] + size)

    def chain_sum(self, outer, k):
        if outer.size != self.prefix_sizes[k]:
            return ZERO
        if k == 0:
            return ONE
        key = (outer, k)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        size, bar_kind = self.steps[k - 1]
        total = ZERO
        for inner, shape in remove_strips(outer, size):
            factor = delta_bar_from_rows(shape, bar_kind) if bar_kind else delta_from_rows(shape)
            if factor:
                total = total + factor * self.chain_sum(inner, k - 1)
        self._memo[key] = total
        return total


@st.composite
def compositions(draw, n):
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    return [b - a for a, b in zip([0] + cuts, cuts + [n])] if n else []


@st.composite
def b_cycle_lists(draw):
    parts = draw(compositions(draw(st.integers(1, 6))))
    return tuple(-c if draw(st.booleans()) else c for c in parts)


@st.composite
def d_cycle_lists(draw):
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        return tuple(draw(compositions(n)))
    c = draw(st.integers(1, n - 1))
    return (-1, -c) + tuple(draw(compositions(n - 1 - c)))


def _fused_equals_summing(kind, cycles):
    br = br_from_cycles(kind, cycles)
    fused, summing = MNContext(br), SummingContext(br)
    for lam in bipartitions_of(br.n):
        if kind == "D" and lam.alpha == lam.beta:
            continue
        got = mn_trace(kind, lam, br, context=fused)
        assert got == mn_trace(kind, lam, br, context=summing), (cycles, lam)


@settings(max_examples=40, deadline=None)
@given(b_cycle_lists())
def test_fused_chain_sum_matches_summing_engine_b(cycles):
    _fused_equals_summing("B", cycles)


@settings(max_examples=40, deadline=None)
@given(d_cycle_lists())
def test_fused_chain_sum_matches_summing_engine_d(cycles):
    _fused_equals_summing("D", cycles)


def test_chain_sum_is_zero_off_the_prefix_size():
    br = br_from_cycles("B", [-1, 2])
    context = MNContext(br)
    assert context.chain_sum(bp([2, 1], [1]), 2) == ZERO  # |outer| = 4, not 3
    assert context.chain_sum(bp([1], []), 2) == ZERO  # |outer| = 1
    assert context.chain_sum(bp([1], []), 0) == ZERO
    assert context.chain_sum(bp([], []), 0) == ONE
    assert context.chain_sum(bp([2, 1], []), 2) == SummingContext(br).chain_sum(
        bp([2, 1], []), 2
    )
    assert _traces_at_one(br, [bp([2, 1], [1]), bp([1], [])], {}, NO_LIMITS) == [0, 0]
    no_cycles = br_from_cycles("B", [])
    assert _traces_at_one(no_cycles, [bp([1], []), bp([], [])], {}, NO_LIMITS) == [0, 1]


def test_trace_context_and_u_one_recursion_share_the_steps(monkeypatch):
    br = br_from_cycles("B", [-2, 3, -1])
    assert hecke_module._steps(br) == ((2, "B"), (3, None), (1, "B"))
    assert MNContext(br).steps == hecke_module._steps(br)
    # the u = 1 recursion reads the steps without building a trace context
    lams = list(bipartitions_of(6))
    want = _traces_at_one(br, lams, {}, NO_LIMITS)

    def no_context(*args, **kwargs):
        raise AssertionError("_traces_at_one built an MNContext")

    monkeypatch.setattr(hecke_module, "MNContext", no_context)
    assert _traces_at_one(br, lams, {}, NO_LIMITS) == want


# -- the u = 1 path against the polynomial engine -------------------------------


def test_removal_table_at_one_is_the_nonzero_part_of_the_table_at_one():
    # every outer of rank <= 8, every strip size up to rank + 1, plain and
    # barred: the u = 1 table holds the removals whose factor does not
    # vanish at u = 1, each once and valued +-1 by that factor
    tables = 0
    for n in range(9):
        for outer in bipartitions_of(n):
            for size in range(1, n + 2):
                for bar_kind in (None, "B", "D"):
                    at_one = hecke_module._removal_table_at_one(outer, size, bar_kind)
                    if bar_kind is None:
                        removals = broken_strip_removals(outer, size)
                    else:
                        removals = single_strip_removals(outer, size, bar_kind)
                    want = {i: f.eval_one() for i, f in removals if f.eval_one()}
                    assert dict(at_one) == want, (outer, size, bar_kind)
                    assert len(at_one) == len(want)
                    assert all(type(v) is int and abs(v) == 1 for _, v in at_one)
                    tables += 1
    assert tables == 10_128


@st.composite
def outers_past_rank_8(draw):
    """An outer bipartition of rank 9 to 14, split at random between its
    sides."""
    n = draw(st.integers(9, 14))
    k = draw(st.integers(0, n))
    return BiPartition(draw(st.sampled_from(list(partitions_of(k)))),
                       draw(st.sampled_from(list(partitions_of(n - k)))))


@settings(max_examples=100, deadline=None)
@given(outers_past_rank_8())
def test_removal_table_at_one_past_rank_8(outer):
    # plain tables read the barred scores with beta negated, so hold them
    # to the step's exact enumerator past the exhaustive test's rank 8
    for size in range(1, outer.size + 2):
        for bar_kind in (None, "B", "D"):
            if bar_kind is None:
                removals = broken_strip_removals(outer, size)
            else:
                removals = single_strip_removals(outer, size, bar_kind)
            want = {i: f.eval_one() for i, f in removals if f.eval_one()}
            at_one = hecke_module._removal_table_at_one(outer, size, bar_kind)
            assert dict(at_one) == want, (outer, size, bar_kind)
            assert len(at_one) == len(want)
            assert all(abs(v) == 1 for _, v in at_one)


def test_chain_at_one_is_the_trace_at_one():
    # every B class and every admissible D list against every bipartition
    # of rank <= 6 that mn_trace accepts, through one context per element
    # and one u = 1 table store per rank, as the orthogonality report keeps
    traces = 0
    for n in range(1, 7):
        elements = [br_from_cycles("B", cycles) for cycles in class_reps(n)]
        elements += [br_from_cycles("D", cycles) for cycles in valid_d_cycle_lists(n)]
        tables = {}
        for br in elements:
            context = MNContext(br)
            lams = [lam for lam in bipartitions_of(n) if br.kind == "B" or lam.alpha != lam.beta]
            for lam, got in zip(lams, _traces_at_one(br, lams, tables, NO_LIMITS)):
                assert type(got) is int
                assert got == mn_trace(br.kind, lam, br, context=context).eval_one(), (br, lam)
                traces += 1
    assert traces == 8_206


def test_traces_at_one_match_the_beta_set_rule():
    # the hyperoctahedral Murnaghan-Nakayama rule on beta-sets in
    # bench/oracles.py, which imports nothing from almostchar; loaded from
    # its file, so sys.path is left as it was
    path = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    traces = 0
    for n in range(1, 7):
        lams = list(bipartitions_of(n))
        tables = {}
        for cycles in class_reps(n):
            got = _traces_at_one(br_from_cycles("B", cycles), lams, tables, NO_LIMITS)
            for lam, value in zip(lams, got, strict=True):
                assert value == oracles.char_at_1(lam.alpha, lam.beta, cycles), (cycles, lam)
                traces += 1
    assert traces == 6_050


# -- certification against the seminormal matrix model -------------------------
#
# The matrix model is built from scratch in tests/seminormal.py: explicit
# generator matrices on standard bitableaux, with all defining relations
# verified.  Traces of products of those matrices give an oracle that shares
# no code with mn_trace.

USQ_POINTS = (Fraction(2), Fraction(1, 2))


def test_matrix_model_relations_hold():
    for usq in USQ_POINTS:
        verify_relations(build_b_generators((2, 1), (1,), usq), usq)
        verify_relations(
            build_q1_generators((2,), (1, 1), usq), usq, t0_squares_to_one=True
        )


def test_mn_matches_matrix_model_b():
    for n in range(1, 4):
        reps = class_reps(n)
        for lam in bipartitions_of(n):
            value_cache = {
                cycles: mn_trace("B", lam, br_from_cycles("B", cycles))
                for cycles in reps
            }
            for usq in USQ_POINTS:
                gens = build_b_generators(lam.alpha, lam.beta, usq)
                for cycles in reps:
                    word = word_for_b_cycles(cycles, n)
                    got = trace_of_word(gens, word)
                    want = eval_halflaurent(value_cache[cycles], usq)
                    assert got == want, (lam, cycles, usq)


def _matrix_vs_mn_d(lam, cycles, n, usq):
    gens = build_q1_generators(lam.alpha, lam.beta, usq)
    matrix = trace_of_word(gens, word_for_d_cycles(cycles, n))
    mn = eval_halflaurent(mn_trace("D", lam, br_from_cycles("D", cycles)), usq)
    barred = any(c < 0 for c in cycles)
    # Barred words carry one extra half-power of u relative to the
    # normalization used by mn_trace; see notes in l_prime.
    return matrix == (usq * mn if barred else mn)


def test_mn_matches_matrix_model_d_rank3():
    for usq in USQ_POINTS:
        for lam in bipartitions_of(3):
            for cycles in valid_d_cycle_lists(3):
                assert _matrix_vs_mn_d(lam, cycles, 3, usq), (lam, cycles, usq)


def test_mn_matches_matrix_model_d_rank4_subset():
    shapes = [bp([2, 2], []), bp([3], [1]), bp([1, 1], [2])]
    lists = [(2, 2), (-1, -1, 2), (-1, -1, 1, 1), (-1, -2, 1), (-1, -3)]
    for lam in shapes:
        for cycles in lists:
            assert _matrix_vs_mn_d(lam, cycles, 4, Fraction(2)), (lam, cycles)


@pytest.mark.parametrize("cycles", [(1, -3), (2, -2), (1, 1, -2), (1, -1, 2)])
def test_mn_matches_matrix_model_b_in_engine_order(cycles):
    # cycles in the order given, not sorted barred-first: for these lists
    # the sorted word is another element, with other traces
    br = br_from_cycles("B", cycles)
    word = word_for_b_cycles_in_order(cycles, 4)
    assert word != word_for_b_cycles(cycles, 4)
    context = MNContext(br)
    for lam in bipartitions_of(4):
        value = mn_trace("B", lam, br, context=context)
        for usq in USQ_POINTS + (Fraction(3),):
            gens = build_b_generators(lam.alpha, lam.beta, usq)
            assert trace_of_word(gens, word) == eval_halflaurent(value, usq), (lam, usq)


def test_word_builders_reject_bad_patterns():
    with pytest.raises(ValueError):
        word_for_d_cycles((-2, 2), 4)
