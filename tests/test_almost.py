"""Family-averaged trace sums, the rectangle route, and the verification
reports built on top of them."""

import ast
import inspect
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from almostchar import almost as almost_module
from almostchar import hecke as hecke_module
from almostchar import shapes as shapes_module
from almostchar import symbols as symbols_module
from almostchar.almost import (
    VerificationReport,
    cuspidal_index_set,
    cuspidal_pair_sign,
    d_swap_diagnostic,
    delta_const,
    f_ab,
    f_cuspidal_via_rectangles,
    f_lambda,
    involution_check,
    m2_check,
    orthogonality_check,
    _terminal_pair,
    prop_cycles,
    recursion_check,
    verify_nonvanishing,
)
from almostchar.config import Config, ResourceGuardError
from almostchar.halflaurent import HalfLaurent, ZERO
from almostchar.hecke import (
    MNContext,
    br_from_cycles,
    class_reps,
    mn_trace,
    valid_d_cycle_lists,
)
from almostchar.shapes import bipartition, bipartitions_of
from almostchar.symbols import (
    _cuspidal_box,
    enumerate_P_ab,
    enumerate_symbols,
    pairing,
    shift_canonicalize,
    special_cuspidal,
    symbol_from_bipartition,
)

import cells
from seminormal import (
    build_b_generators,
    eval_halflaurent,
    trace_of_word,
    word_for_b_cycles_in_order,
)
from test_hecke import SummingContext

bp = bipartition


def hl(pairs):
    return HalfLaurent(pairs)


def trace_table(n):
    """Every kind B trace of rank n, class by class, each class through one
    shared context: the polynomial sweep that orthogonality_check made
    before it summed the table at u = 1 in integers."""
    table = []
    for cycles in class_reps(n):
        br = br_from_cycles("B", cycles)
        context = MNContext(br)
        table.append([mn_trace("B", lam, br, context=context) for lam in bipartitions_of(n)])
    return table


# -- scalar ingredients --------------------------------------------------------


def test_delta_const_values():
    assert delta_const("B", 1) == Fraction(-1, 2)
    assert delta_const("B", 2) == Fraction(-1, 4)
    assert delta_const("D", 1) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        delta_const("B", 0)


def test_cuspidal_index_set_contents():
    assert cuspidal_index_set("B", 1) == [bp([], [2]), bp([1], [1]), bp([1, 1], [])]
    assert len(cuspidal_index_set("B", 2)) == 10
    assert cuspidal_index_set("D", 1) == [
        bp([2, 2], []),
        bp([2, 1], [1]),
        bp([2], [1, 1]),
    ]


@pytest.mark.parametrize("d", [0, -1, True])
@pytest.mark.parametrize("kind", ["B", "D"])
@pytest.mark.parametrize(
    "call",
    [cuspidal_index_set, lambda kind, d: f_cuspidal_via_rectangles(kind, d, [2])],
    ids=["cuspidal_index_set", "f_cuspidal_via_rectangles"],
)
def test_cuspidal_parameters_are_checked_in_one_place(call, kind, d):
    # cuspidal_index_set used to return [((), ())] at d = 0 and blame the
    # box side b (or its sign) at d = True or -1
    with pytest.raises(ValueError, match="d must be"):
        call(kind, d)


def test_cuspidal_pair_sign_examples():
    assert cuspidal_pair_sign("B", 1, bp([1], [1])) == Fraction(1, 2)
    assert cuspidal_pair_sign("B", 1, bp([1, 1], [])) == Fraction(-1, 2)
    assert cuspidal_pair_sign("B", 1, bp([], [2])) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        cuspidal_pair_sign("B", 1, bp([2], []))


@pytest.mark.parametrize("kind, d", [("B", 1), ("B", 2), ("B", 3), ("D", 1), ("D", 2)])
def test_cuspidal_pair_sign_tests_membership_as_the_index_set_does(kind, d):
    # the closed-form membership test against a search of the index set,
    # on every bipartition of the box's rank, in both component orders
    members = cuspidal_index_set(kind, d)
    a, b = _cuspidal_box(kind, d)
    found = 0
    for lam in bipartitions_of(a * b):
        if kind == "B":
            listed = lam in members
        else:
            listed = shapes_module.BiPartition(*max(tuple(lam), tuple(reversed(lam)))) in members
        if listed:
            found += 1
            assert cuspidal_pair_sign(kind, d, lam) == (-1) ** sum(lam.alpha) * delta_const(kind, d)
        else:
            with pytest.raises(ValueError, match="not in the cuspidal index set"):
                cuspidal_pair_sign(kind, d, lam)
    assert found == (1 if kind == "B" else 2) * len(members)


def test_cuspidal_pair_sign_equals_direct_pairing():
    # closed form vs. actually pairing the cuspidal symbol with each member
    for kind, ds in (("B", (1, 2)), ("D", (1,))):
        for d in ds:
            lam_c, _ = special_cuspidal(kind, d)
            for pair in cuspidal_index_set(kind, d):
                direct = pairing(lam_c, symbol_from_bipartition(kind, pair), kind)
                assert cuspidal_pair_sign(kind, d, pair) == direct, (kind, d, pair)


# -- f_lambda: frozen values certified against the matrix model -----------------

FL_B1 = {
    (2,): [],
    (1, 1): [],
    (-1, 1): [],
    (-2,): [(2, 1)],
    (-1, -1): [(4, -2)],
}

FL_B2_NONZERO = {
    (-2, -4): [(10, 1)],
    (-1, -1, -4): [(12, -2)],
    (-3, -3): [(12, -2)],
    (-1, -2, -3): [(14, 2)],
    (-1, -1, -1, -3): [(16, 2), (20, 2)],
    (-2, -2, -2): [(18, -6)],
    (-1, -1, -2, -2): [(18, -2), (22, -2)],
    (-1, -1, -1, -1, -2): [(24, 4), (28, 4)],
    (-1, -1, -1, -1, -1, -1): [(36, -80)],
}

FL_D1 = {cycles: [] for cycles in valid_d_cycle_lists(4)}
FL_D1[(-1, -3)] = [(3, 1)]


def test_f_lambda_b_d1_table():
    lam_c, _ = special_cuspidal("B", 1)
    assert set(FL_B1) == set(class_reps(2))
    for cycles, terms in FL_B1.items():
        assert f_lambda("B", lam_c, cycles) == hl(terms), cycles


def test_f_lambda_b_d2_table():
    lam_c, _ = special_cuspidal("B", 2)
    for cycles, terms in FL_B2_NONZERO.items():
        assert f_lambda("B", lam_c, cycles) == hl(terms), cycles
    # every nonzero class above uses only barred cycles; two all-plain probes
    assert f_lambda("B", lam_c, (6,)).is_zero()
    assert f_lambda("B", lam_c, (2, 4)).is_zero()


def test_f_lambda_d_d1_table():
    lam_c, _ = special_cuspidal("D", 1)
    assert set(FL_D1) == set(valid_d_cycle_lists(4))
    for cycles, terms in FL_D1.items():
        assert f_lambda("D", lam_c, cycles) == hl(terms), cycles


def test_f_lambda_singleton_family_is_plain_trace():
    one_box = shift_canonicalize([1], [])
    assert f_lambda("B", one_box, [1]) == hl([(0, 1)])
    assert f_lambda("B", one_box, [-1]) == hl([(2, 1)])
    assert f_lambda("B", one_box, [-1]) == mn_trace(
        "B", bp([1], []), br_from_cycles("B", [-1])
    )


def test_f_lambda_rank_mismatch():
    lam_c, _ = special_cuspidal("B", 1)
    with pytest.raises(ValueError):
        f_lambda("B", lam_c, [1])


def test_f_lambda_refuses_a_row_with_a_repeated_entry():
    # rank 9 by rank_defect, but the family {1,3,5} has rank-8 members:
    # summing them would give 0 rather than a refusal
    with pytest.raises(ValueError, match="repeated entry"):
        f_lambda("B", symbols_module.Symbol((1, 1, 3, 3, 5), ()), [9])


# -- the rectangle route ---------------------------------------------------------


def test_f_ab_examples():
    assert f_ab(2, 1, [-2]) == hl([(2, -2)])
    assert f_ab(2, 1, [2]) == ZERO
    assert f_ab(0, 0, []) == hl([(0, 1)])
    assert f_ab(2, 2, [-1, -3]) == hl([(3, -2)])  # square box goes through kind D


def test_f_ab_is_the_signed_sum_of_its_traces():
    # the one-pass sum against the per-trace sums of the unpruned summing
    # engine, on every box of rank <= 12, each with about ten of its classes
    # (B) or admissible lists (D) at an even stride
    elements = 0
    for a in range(13):
        for b in range(13):
            n = a * b
            if n > 12:
                continue
            kind = "D" if a == b and a > 0 else "B"
            lists = (class_reps(n) if kind == "B" else valid_d_cycle_lists(n)) if n else [()]
            pairs = enumerate_P_ab(a, b, unordered=kind == "D")
            for cycles in lists[:: max(1, len(lists) // 10)]:
                br = br_from_cycles(kind, cycles)
                context = SummingContext(br)
                want = ZERO
                for pair in pairs:
                    want = want + (-1) ** sum(pair.alpha) * mn_trace(kind, pair, br, context=context)
                assert f_ab(a, b, cycles) == want, (a, b, cycles)
                elements += 1
    assert elements == 380


def test_f_lambda_is_the_weighted_sum_of_its_traces():
    # every B class up to rank 6 against one member of every family, each
    # trace by the unpruned summing engine
    sums = 0
    for n in range(1, 7):
        for fam in enumerate_symbols(n, "B"):
            s = fam.members[0]
            dec = symbols_module.family_decompose(s, "B")
            terms = [
                (symbols_module.fourier_sign(dec, symbols_module.family_decompose(m, "B")),
                 symbols_module.bipartition_from_symbol("B", m))
                for m in symbols_module.family_members("B", dec.Z1, dec.Z2)
                if symbols_module.rank_defect(m)[1] == 1
            ]
            for cycles in class_reps(n):
                br = br_from_cycles("B", cycles)
                context = SummingContext(br)
                want = ZERO
                for sign, lam in terms:
                    want = want + sign * mn_trace("B", lam, br, context=context)
                assert f_lambda("B", s, cycles) == Fraction(1, 2 ** dec.f) * want, (s, cycles)
                sums += 1
    assert sums == 2545


def test_f_lambda_builds_only_the_members_it_sums(monkeypatch):
    # of the 2^(2d) members of the cuspidal B family at d, f_lambda builds
    # the symbols of the C(2d + 1, d) of defect 1 only
    built = []
    real = symbols_module._label_symbol

    def counted(*args):
        built.append(args)
        return real(*args)

    for module in (almost_module, symbols_module):
        monkeypatch.setattr(module, "_label_symbol", counted, raising=False)
    for d, want in ((2, 10), (3, 35)):
        built.clear()
        cuspidal, _ = special_cuspidal("B", d)
        f_lambda("B", cuspidal, prop_cycles("B", d))
        assert len(built) == want, d


def test_family_sums_hand_over_only_valid_bipartitions(monkeypatch):
    # hecke._trace_sum checks no term, so every term that f_ab or f_lambda
    # builds must be valid by construction: a pair of partition tuples of
    # the element's size, with two different sides for kind D
    def is_partition(side):
        return (type(side) is tuple and all(type(x) is int and x > 0 for x in side)
                and list(side) == sorted(side, reverse=True))

    handed = []

    def record(terms, br, context=None, config=None):
        handed.append((br, list(terms)))
        return ZERO

    monkeypatch.setattr(almost_module, "_trace_sum", record)
    for a in range(8):
        for b in range(8):
            f_ab(a, b, [1] * (a * b))
    for kind in ("B", "D"):
        for n in range(1, 7):
            for fam in enumerate_symbols(n, kind):
                if not fam.degenerate:
                    f_lambda(kind, fam.members[0], [1] * n)
    terms = 0
    for br, handed_terms in handed:
        assert handed_terms, br
        for coeff, lam in handed_terms:
            assert coeff in (1, -1)
            assert isinstance(lam, shapes_module.BiPartition)
            assert all(map(is_partition, lam)), lam
            assert sum(map(sum, lam)) == br.n, (lam, br)
            assert br.kind == "B" or lam.alpha != lam.beta, lam
            terms += 1
    # 64 boxes with 10,516 pairs, then 63 B and 50 D families with 204 members
    assert (len(handed), terms) == (64 + 63 + 50, 10516 + 204)
    # in a square box the partner's boundary path is alpha's with its
    # steps swapped, so no pair is a self-partner, in either order
    assert not [pair for a in range(1, 9) for pair in enumerate_P_ab(a, a) if pair.alpha == pair.beta]


def test_fused_sum_turns_deep_recursion_into_a_resource_guard():
    # one chain level per cycle, as in mn_trace: past the interpreter's
    # recursion limit (lowered here, so that the chains stay short) both
    # raise the same ResourceGuardError
    n = 300
    cycles = [1] * n
    config = Config(max_rank=n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + n // 2)
    try:
        with pytest.raises(ResourceGuardError) as per_trace:
            mn_trace("B", bp([], [1] * n), br_from_cycles("B", cycles), config=config)
        with pytest.raises(ResourceGuardError) as fused:
            f_ab(1, n, cycles, config)
    finally:
        sys.setrecursionlimit(limit)
    assert str(fused.value) == str(per_trace.value) == f"{n} cycles exceed the interpreter's recursion limit"


def test_r30_memo_holds_the_inner_entries_only(monkeypatch):
    # f_ab over P(6, 5) through one context; the element's own level is
    # never stored, and the Durfee bound keeps the pruned entries out too
    contexts = []

    class Recorded(MNContext):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(self)

    monkeypatch.setattr(hecke_module, "MNContext", Recorded)
    f_ab(6, 5, [-2, 12, 16], Config(max_rank=30))
    (context,) = contexts
    assert len(context._memo) == 148
    assert all(k < 3 for _, k in context._memo)
    assert sum(1 for pair in enumerate_P_ab(6, 5) if context.chain_sum(pair, 3)) == 72
    assert len(context._memo) == 148


def test_family_sums_start_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("a family sum started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    lam_c, _ = special_cuspidal("B", 2)
    cycles = (-2, -4)
    rect = f_ab(3, 2, cycles, Config())
    assert rect != ZERO
    assert f_lambda("B", lam_c, cycles, Config()) == delta_const("B", 2) * rect


def test_trace_engine_runs_without_the_cell_oracle():
    # the row scan and the cell-based strip layer are the tests' oracles
    # (tests/cells.py); the package defines none of them, imports none of
    # them, and computes the same reports from cold caches as from warm ones
    oracle = ("skew_cells", "StripComponent", "StripInfo", "_connected_components",
              "_has_2x2", "strip_classify", "content", "_sub_partitions", "remove_strips",
              "side_stats", "delta_from_rows", "delta_bar_from_rows")
    assert all(hasattr(cells, name) for name in oracle)
    assert [name for name in oracle + ("_side_stats",) if hasattr(shapes_module, name)] == []

    for path in Path(shapes_module.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            assert not any(m.split(".")[-1] == "cells" for m in modules), (path.name, modules)

    def reports():
        return [trace_table(4), orthogonality_check(4), recursion_check(5, 4, [8, 12])]

    want = reports()
    shapes_module._delta_value.cache_clear()
    assert reports() == want


def test_strip_enumeration_asks_only_for_sizes_a_side_can_supply(monkeypatch):
    # each side gives up at most its rim, so no walk comes back empty; and
    # one enumeration walks each side and size at most once, which is why
    # the walk needs no cache of its own
    walked = []  # the (side, size) of each walk of the enumeration under way
    empty = []
    walk = shapes_module._no_2x2_inners

    def recorded_walk(outer, removed):
        found = walk(outer, removed)
        if not found:
            empty.append((outer, removed))
        walked.append((outer, removed))
        return found

    monkeypatch.setattr(shapes_module, "_no_2x2_inners", recorded_walk)
    walks = enumerations = 0
    for n in range(9):
        for outer in bipartitions_of(n):
            for size in range(1, n + 2):
                for removals in (
                    shapes_module.broken_strip_removals(outer, size),
                    *(shapes_module.single_strip_removals(outer, size, kind)
                      for kind in ("B", "D")),
                ):
                    walked.clear()
                    for _ in removals:
                        pass
                    # a side equal to the other may be walked for each
                    assert all(walked.count(w) <= outer.count(w[0]) for w in walked), (
                        outer, size, walked)
                    walks += len(walked)
                    enumerations += 1
    assert walks > enumerations > 0
    assert empty == []


def test_each_report_builds_each_u1_table_once(monkeypatch):
    # the classes of one orthogonality report share one u = 1 table per
    # (outer, size, bar_kind), and the report keeps none of them: the next
    # report builds every table again, once
    built = []
    build = hecke_module._removal_table_at_one

    def recorded(outer, size, bar_kind):
        built.append((outer, size, bar_kind))
        return build(outer, size, bar_kind)

    monkeypatch.setattr(hecke_module, "_removal_table_at_one", recorded)
    want = orthogonality_check(4).fields
    first = list(built)
    assert orthogonality_check(4).fields == want
    assert len(set(first)) == len(first) == 224
    assert built == first + first


def test_chain_sum_builds_one_value_per_memo_entry(monkeypatch):
    # each memo entry is accumulated in one dict: no ring addition at all,
    # and one product per trace, its prefactor
    want = trace_table(4)
    products = []
    plain_mul = HalfLaurent.__mul__

    def counted_mul(self, other):
        products.append(other)
        return plain_mul(self, other)

    def refuse(self, other):
        raise AssertionError("the trace engine added two polynomials")

    monkeypatch.setattr(HalfLaurent, "__add__", refuse)
    monkeypatch.setattr(HalfLaurent, "__mul__", counted_mul)
    monkeypatch.setattr(HalfLaurent, "__rmul__", counted_mul)
    assert trace_table(4) == want
    assert 0 < len(products) <= len(class_reps(4)) * len(list(bipartitions_of(4)))


def test_routes_agree():
    lam_c, _ = special_cuspidal("B", 1)
    for cycles in class_reps(2):
        assert f_lambda("B", lam_c, cycles) == f_cuspidal_via_rectangles(
            "B", 1, cycles
        )
    lam_c2, _ = special_cuspidal("B", 2)
    for cycles in [(-2, -4), (-1, -1, -1, -1, -1, -1), (6,), (2, 4), (-1, 1, 4)]:
        assert f_lambda("B", lam_c2, cycles) == f_cuspidal_via_rectangles(
            "B", 2, cycles
        ), cycles
    lam_cd, _ = special_cuspidal("D", 1)
    for cycles in valid_d_cycle_lists(4):
        assert f_lambda("D", lam_cd, cycles) == f_cuspidal_via_rectangles(
            "D", 1, cycles
        ), cycles


def test_b_staircase_is_one_monomial_on_both_routes():
    # the all-barred class [-2, -4, ..., -2d] gives u^(d(d+1)(2d+1)/6)
    for d in range(1, 6):
        cycles = [-2 * i for i in range(1, d + 1)]
        value = f_cuspidal_via_rectangles("B", d, cycles)
        assert value == hl([(d * (d + 1) * (2 * d + 1) // 3, 1)]), d
        if d <= 4:
            assert f_lambda("B", special_cuspidal("B", d)[0], cycles) == value, d


def test_b_d2_cuspidal_sums_at_rank_6_match_the_seminormal_model():
    # the family sum of the B cuspidal symbol at d = 2 over its 10 members,
    # each trace taken in the matrix model on the word the engine reads,
    # at u^(1/2) = 2; the engine's f_lambda gives the same values
    usq = Fraction(2)
    members = cuspidal_index_set("B", 2)
    assert len(members) == 10
    cuspidal = special_cuspidal("B", 2)[0]
    for cycles, want in (([6], 0), ([-6], 0), ([-2, 4], 0), ([2, 4], 0),
                         ([-3, -3], -8192), ([-2, -4], 1024)):
        word = word_for_b_cycles_in_order(cycles, 6)
        got = sum(
            cuspidal_pair_sign("B", 2, member)
            * trace_of_word(build_b_generators(member.alpha, member.beta, usq), word)
            for member in members
        )
        assert got == want, cycles
        assert eval_halflaurent(f_lambda("B", cuspidal, cycles), usq) == want, cycles


def _signed_cycle_lists(n):
    """Every signed cycle list of total n, a negative length being barred."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _signed_cycle_lists(n - first):
            yield (first,) + rest
            yield (-first,) + rest


@pytest.mark.parametrize("d, lists, nonzero", [(1, 6, 3), (2, 486, 176)])
def test_b_cuspidal_sum_is_zero_on_every_list_that_ends_in_a_plain_cycle(d, lists, nonzero):
    # a plain last cycle leaves one generator out of the word of T_Br, so
    # T_Br lies in a proper parabolic subalgebra, where a cuspidal family
    # sum restricts to zero; a barred last cycle proves nothing either way
    cuspidal = special_cuspidal("B", d)[0]
    ends_plain = ends_barred = barred_nonzero = 0
    for cycles in _signed_cycle_lists(d * d + d):
        value = f_lambda("B", cuspidal, cycles)
        assert f_cuspidal_via_rectangles("B", d, cycles) == value, cycles
        if cycles[-1] > 0:
            ends_plain += 1
            assert value.is_zero(), cycles
        else:
            ends_barred += 1
            barred_nonzero += not value.is_zero()
    assert (ends_plain, ends_barred, barred_nonzero) == (lists // 2, lists // 2, nonzero)


# -- claim-specific cycle lists ---------------------------------------------------


def test_prop_cycles_values():
    assert prop_cycles("B", 1) == (-2,)
    assert prop_cycles("B", 2) == (6,)
    assert prop_cycles("B", 3) == (4, 8)
    assert prop_cycles("B", 6) == (6, 16, 20)
    assert prop_cycles("D", 2) == (6, 10)
    assert prop_cycles("D", 3) == (-1, -3, 14, 18)
    with pytest.raises(ValueError):
        prop_cycles("B", 0)


def test_prop_cycles_totals():
    for d in range(1, 9):
        assert sum(abs(c) for c in prop_cycles("B", d)) == d * d + d
        assert sum(abs(c) for c in prop_cycles("D", d)) == 4 * d * d


def _residue_prop_cycles(kind, d):
    """The recipes as first written, one branch per residue of d: kind B
    seeds [-2] / [6] / [4,8] / [8,12] by d mod 4 and kind D seeds [-1,-3]
    / [6,10] by d mod 2, each extended by pairs 16 apart."""
    if kind == "B":
        r = d % 4
        if r == 1:
            k = (d - 1) // 4
            out = [-2] + [x for j in range(k) for x in (12 + 16 * j, 16 + 16 * j)]
        elif r == 2:
            k = (d - 2) // 4
            out = [6] + [x for j in range(k) for x in (16 + 16 * j, 20 + 16 * j)]
        elif r == 3:
            k = (d - 3) // 4
            out = [x for j in range(k + 1) for x in (4 + 16 * j, 8 + 16 * j)]
        else:
            k = d // 4 - 1
            out = [x for j in range(k + 1) for x in (8 + 16 * j, 12 + 16 * j)]
    elif d % 2 == 1:
        k = (d - 1) // 2
        out = [-1, -3] + [x for j in range(k) for x in (14 + 16 * j, 18 + 16 * j)]
    else:
        k = d // 2
        out = [x for j in range(k) for x in (6 + 16 * j, 10 + 16 * j)]
    return tuple(out)


def test_prop_cycles_match_the_per_residue_recipes():
    for d in range(1, 201):
        assert prop_cycles("B", d) == _residue_prop_cycles("B", d), d
        assert prop_cycles("D", d) == _residue_prop_cycles("D", d), d


def test_every_recipe_past_its_seed_ends_in_the_terminal_pair_of_its_box():
    for kind, first in (("B", 3), ("D", 2)):
        for d in range(first, 41):
            terminal = prop_cycles(kind, d)[-2:]
            assert terminal == _terminal_pair(*_cuspidal_box(kind, d)), (kind, d)
            assert min(terminal) > 0, (kind, d)


# -- verification reports ----------------------------------------------------------


def test_verify_nonvanishing_b1():
    report = verify_nonvanishing("B", 1)
    obj = report.to_json_obj()
    assert obj["claim"] == "prop-7.13"
    assert obj["cycles"] == [-2]
    assert obj["value"] == {"terms": [{"halfexp": 2, "num": 1, "den": 1}]}
    assert obj["value_at_1"] == "1/1"
    assert obj["verdict"] == "pass"
    assert report.passed


def test_verify_nonvanishing_d1():
    report = verify_nonvanishing("D", 1)
    obj = report.to_json_obj()
    assert obj["claim"] == "prop-7.14"
    assert obj["cycles"] == [-1, -3]
    assert obj["value"] == {"terms": [{"halfexp": 3, "num": 1, "den": 1}]}
    assert obj["verdict"] == "pass"
    assert obj["notes"]  # records the terminal-length reading that was used


def test_verify_nonvanishing_verdict_tracks_value():
    for kind, d in (("B", 1), ("B", 2), ("D", 1)):
        report = verify_nonvanishing(kind, d)
        value = HalfLaurent(
            [(t["halfexp"], Fraction(t["num"], t["den"])) for t in report.fields["value"]["terms"]]
        )
        assert report.passed == (not value.is_zero())


def test_verify_nonvanishing_checks_the_rank_before_the_recipe(monkeypatch):
    # the witness cycles grow with d, so a d past max_rank is refused before
    # they are built; a bad d is still a ValueError first
    def fail(kind, d):
        raise AssertionError("the recipe was built")

    monkeypatch.setattr(almost_module, "prop_cycles", fail)
    for kind, d, rank in (("B", 10**6, 10**12 + 10**6), ("D", 10**6, 4 * 10**12)):
        with pytest.raises(ResourceGuardError, match=f"rank {rank} exceeds"):
            verify_nonvanishing(kind, d, Config())
    for bad in (0, True):
        with pytest.raises(ValueError, match="d must be"):
            verify_nonvanishing("B", bad, Config())


def test_recursion_check_5_4():
    report = recursion_check(5, 4, [8, 12])
    assert report.claim == "lemma-7.12"
    assert report.fields["base"] == hl([(0, 1)]).to_json_obj()
    # the quotient is the full rectangle value here, and that value is zero,
    # so the nonvanishing verdict comes out false
    assert report.fields["h"] == f_ab(5, 4, [8, 12]).to_json_obj()
    assert report.verdict == "fail"


def test_recursion_check_preconditions():
    with pytest.raises(ValueError):
        recursion_check(6, 5, [3, 12, 16])
    with pytest.raises(ValueError):
        recursion_check(3, 4, [8, 12])
    with pytest.raises(ValueError):
        recursion_check(5, 4, [8])
    with pytest.raises(ValueError):
        recursion_check(5, 4, [8, 13])
    for bad in ([1.5], [True], (-2.0, 12, 16)):
        with pytest.raises(ValueError):
            recursion_check(6, 5, bad)


def test_recursion_check_inconclusive_on_zero_base():
    report = recursion_check(6, 5, [2, 12, 16])
    assert report.verdict == "inconclusive"
    assert report.fields["h"] is None
    assert report.notes


def test_orthogonality_check_passes():
    for n in (2, 3):
        report = orthogonality_check(n)
        assert report.verdict == "pass"
        assert report.fields["mismatches"] == []


def test_orthogonality_memo_budget_counts_the_report_tables():
    # the largest class memo at n = 4 has 37 entries, so a budget of 38
    # holds only if the report's 224 u = 1 tables are left uncounted
    with pytest.raises(ResourceGuardError, match="memo budget 38"):
        orthogonality_check(4, Config(memo_budget=38))
    assert orthogonality_check(4, Config(memo_budget=38 + 224)).passed


def test_orthogonality_check_detects_corruption(monkeypatch):
    # negative control: poison a single u = 1 sign (the 2-strip off the row
    # (2), which the trace of [2] at the class (2,) reads) and the check
    # must fail; the u = 1 sums are integers, so each mismatch prints its
    # sum and its centralizer order as plain integers
    table = hecke_module._removal_table_at_one

    def crooked(outer, size, bar_kind):
        pairs = table(outer, size, bar_kind)
        if (outer, size, bar_kind) == (bp([2], []), 2, None):
            assert pairs == ((bp([], []), 1),)
            return ((bp([], []), -1),)
        return pairs

    monkeypatch.setattr(hecke_module, "_removal_table_at_one", crooked)
    report = orthogonality_check(2)
    assert report.verdict == "fail"
    assert report.fields["mismatches"]
    for m in report.fields["mismatches"]:
        assert str(int(m["got"])) == m["got"] and str(int(m["expected"])) == m["expected"], m


def test_involution_and_m2_checks(monkeypatch):
    assert involution_check(4, "B").passed
    assert involution_check(4, "D").passed
    assert m2_check(4, "B").passed
    assert m2_check(4, "D").passed

    # a pairing exponent one too large must fail both integer checks
    real = symbols_module._member

    def bumped(*args):
        dec = real(*args)
        return dec._replace(f=dec.f + 1)

    monkeypatch.setattr(symbols_module, "_member", bumped)
    for kind in ("B", "D"):
        assert involution_check(4, kind).verdict == "fail"
        assert m2_check(4, kind).verdict == "fail"


def test_the_family_checks_build_each_family_once(monkeypatch):
    # the sweeps walk the family keys and read each family off _family once;
    # the involution check builds no member symbol, and no member symbol
    # goes back through symbol_from_label's checks
    calls = {"_family": 0, "_label_symbol": 0, "symbol_from_label": 0}

    def counted(name):
        real = getattr(symbols_module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        wrapper = counted(name)
        for module in (almost_module, symbols_module):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    assert involution_check(8, "B").passed
    # 164 families of rank <= 8 with 581 members
    assert calls == {"_family": 164, "_label_symbol": 0, "symbol_from_label": 0}
    calls.update(dict.fromkeys(calls, 0))
    assert m2_check(10, "B").passed
    assert calls["_family"] == 385 and calls["symbol_from_label"] == 0


def test_d_swap_diagnostic():
    report = d_swap_diagnostic(3)
    assert report.verdict == "pass"
    assert report.fields["pairs"] > 0
    assert report.fields["asymmetries"] == []


def test_config_record():
    assert (Config().max_rank, Config().memo_budget) == (20, 5_000_000)
    config = Config(memo_budget=7, max_rank=30)
    assert (config.max_rank, config.memo_budget) == (30, 7)
    config.check_rank(30)
    with pytest.raises(ResourceGuardError, match="max_rank 30"):
        config.check_rank(31)
    for bad in ({"max_rank": 0}, {"memo_budget": 0}):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be >= 1"):
            Config(**bad)
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be >= 1"):
            config._replace(**bad)
    with pytest.raises(ValueError, match="max_rank must be >= 1"):
        Config._make((0, -5))
    with pytest.raises(ValueError, match="memo_budget must be >= 1"):
        Config._make((3, -5))
    assert config._replace(max_rank=31) == Config(31, 7)
    assert type(config._replace(max_rank=31)) is Config
    assert Config._make((4, 9)) == Config(max_rank=4, memo_budget=9)
    for name in ("max_rank", "memo_budget"):
        with pytest.raises(AttributeError):
            setattr(config, name, 5)
    assert (config.max_rank, config.memo_budget) == (30, 7)


@pytest.mark.parametrize("bad", [True, False, 1.5, 30.0, Fraction(30), "30", None])
def test_config_refuses_a_limit_that_is_not_an_int(bad):
    # a bool or a float is not a count, whichever way the Config is built
    config = Config(30, 7)
    for name in ("max_rank", "memo_budget"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            Config(**{name: bad})
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            config._replace(**{name: bad})
    with pytest.raises(ValueError, match="max_rank must be an integer"):
        Config._make((bad, 7))
    with pytest.raises(ValueError, match="memo_budget must be an integer"):
        Config(5, bad)


@pytest.mark.parametrize("bad", [True, 2.0])
@pytest.mark.parametrize(
    "name, call",
    [
        ("n", lambda x: orthogonality_check(x)),
        ("n", lambda x: class_reps(x)),
        ("a", lambda x: enumerate_P_ab(x, 2)),
        ("b", lambda x: enumerate_P_ab(2, x)),
        ("n", lambda x: enumerate_symbols(x, "B")),
        ("d", lambda x: verify_nonvanishing("B", x)),
        ("d", lambda x: prop_cycles("D", x)),
        ("d", lambda x: delta_const("B", x)),
        ("d", lambda x: special_cuspidal("D", x)),
        ("n", lambda x: involution_check(x, "B")),
        ("n", lambda x: m2_check(x, "D")),
        ("n", lambda x: d_swap_diagnostic(x)),
        ("a", lambda x: f_ab(x, 1, [2])),
        ("b", lambda x: f_ab(2, x, [2])),
        ("a", lambda x: recursion_check(x, 4, [8, 12])),
    ],
    ids=["orthogonality_check", "class_reps", "enumerate_P_ab-a", "enumerate_P_ab-b",
         "enumerate_symbols", "verify_nonvanishing", "prop_cycles", "delta_const",
         "special_cuspidal", "involution_check", "m2_check",
         "d_swap_diagnostic", "f_ab-a", "f_ab-b", "recursion_check"],
)
def test_a_count_refuses_a_bool_or_a_float(name, call, bad):
    # True and 2.0 compare like the counts 1 and 2, but are not counts
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
        call(bad)


def test_report_record():
    # a report is a value: no clock, so its fields are all it carries
    assert VerificationReport._fields == ("claim", "verdict", "fields", "notes")
    fields = {"kind": "B", "n": 2}
    report = VerificationReport(claim="c", verdict="pass", fields=fields)
    assert report.passed and report.notes == ()
    assert report.to_json_obj() == {"claim": "c", "kind": "B", "n": 2, "verdict": "pass"}
    assert list(report.to_json_obj()) == ["claim", "kind", "n", "verdict"]
    noted = VerificationReport(claim="c", verdict="fail", fields=fields, notes=("x",))
    assert not noted.passed
    assert list(noted.to_json_obj()) == ["claim", "kind", "n", "verdict", "notes"]
    assert noted.to_json_obj() == {
        "claim": "c", "kind": "B", "n": 2, "verdict": "fail", "notes": ["x"]}
    assert not VerificationReport(claim="c", verdict="inconclusive", fields={}).passed


def test_report_json_shape():
    # two runs of one check give equal records and equal documents
    report = verify_nonvanishing("B", 1)
    assert report == verify_nonvanishing("B", 1)
    doc = report.to_json_obj()
    assert "ms" not in doc
    assert list(doc)[0] == "claim"
    assert doc["verdict"] in ("pass", "fail", "inconclusive")
