"""Symbols: canonical form, families, the pairing, bijections, P_ab, m2."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from almostchar.shapes import bipartition, bipartitions_of, partitions_of
from almostchar.symbols import (
    Family,
    Symbol,
    bipartition_from_symbol,
    enumerate_P_ab,
    enumerate_symbols,
    family_decompose,
    family_members,
    is_degenerate,
    is_special,
    m2_unipotent,
    pairing,
    rank_defect,
    shift_canonicalize,
    special_cuspidal,
    symbol_from_bipartition,
    symbol_from_label,
)


def sym(s, t):
    return shift_canonicalize(s, t)


# -- canonical form ---------------------------------------------------------


def test_shift_canonicalize_examples():
    assert sym([0, 2, 3], [0, 1]) == Symbol((1, 2), (0,))
    assert sym([1, 2], [0]) == Symbol((1, 2), (0,))
    assert sym([0], []) == Symbol((0,), ())


def test_canonicalize_orders_rows():
    # longer row first, then lexicographic
    assert sym([1], [0, 2]) == Symbol((0, 2), (1,))
    assert sym([2], [1]) == Symbol((1,), (2,))


def test_canonicalize_rows_are_sets():
    # duplicate entries collapse; rows are sets of nonnegative integers
    assert sym([1, 1], []) == Symbol((1,), ())
    with pytest.raises(ValueError):
        sym([-1], [])


@given(
    st.sets(st.integers(min_value=0, max_value=12), max_size=5),
    st.sets(st.integers(min_value=0, max_value=12), max_size=5),
)
def test_canonicalize_is_idempotent_on_random_rows(s, t):
    first = shift_canonicalize(s, t)
    again = shift_canonicalize(first.rowS, first.rowT)
    assert first == again


# -- rank and defect --------------------------------------------------------


def test_rank_defect_examples():
    assert rank_defect(sym([0, 1, 2], [])) == (2, 3)
    assert rank_defect(sym([0, 2], [1])) == (2, 1)
    assert rank_defect(sym([], [])) == (0, 0)
    assert rank_defect(sym([0, 1, 2, 3], [])) == (4, 4)


def test_rank_defect_shift_invariant():
    for s, t in [((0, 2), (1,)), ((1, 3, 4), ()), ((0, 1, 5), (2, 4))]:
        base = Symbol(s, t)
        shifted = shift_canonicalize((0,) + tuple(x + 1 for x in s), (0,) + tuple(x + 1 for x in t))
        assert rank_defect(shifted) == rank_defect(base)
        assert shifted == base


# -- families ---------------------------------------------------------------


def test_family_decompose_example():
    dec = family_decompose(sym([0, 2], [1]), "B")
    assert dec.Z1 == (0, 1, 2)
    assert dec.Z2 == ()
    assert dec.M == (1,)
    assert dec.M0 == (1,)
    assert dec.d1 == 1 and dec.f == 1


def test_family_decompose_cuspidal_label_is_parity_canonical():
    # The raw label of ({0,1,2};{}) would be the empty set, but labels are
    # normalized so that |M| has the same parity as d1.  Without that
    # normalization the pairing matrix does not square to the identity.
    dec = family_decompose(sym([0, 1, 2], []), "B")
    assert dec.M == (0, 1, 2)
    assert dec.msharp == frozenset({0, 2})


def test_family_decompose_rejects_degenerate_d():
    with pytest.raises(ValueError):
        family_decompose(Symbol((1,), (1,)), "D")
    assert is_degenerate(Symbol((1,), (1,)))


def test_family_decompose_rejects_wrong_defect():
    with pytest.raises(ValueError):
        family_decompose(sym([0, 1], []), "B")  # defect 2
    with pytest.raises(ValueError):
        family_decompose(sym([0, 1, 2], []), "D")  # defect 3


def test_pairing_examples():
    lam_c, lam_0 = special_cuspidal("B", 1)
    assert pairing(lam_c, lam_c, "B") == Fraction(1, 2)
    assert pairing(lam_0, lam_0, "B") == Fraction(1, 2)
    assert pairing(lam_c, lam_0, "B") == Fraction(1, 2)
    assert pairing(lam_c, sym([1], []), "B") == 0


def test_family_members_counts():
    for d1, z1 in [(1, (0, 1, 2)), (2, (0, 1, 2, 3, 4))]:
        members = family_members("B", z1, ())
        assert len(members) == 2 ** (2 * d1)
        defect1 = [m for m in members if rank_defect(m)[1] == 1]
        assert len(defect1) == comb(2 * d1 + 1, d1)


def test_family_members_d_counts():
    members = family_members("D", (0, 1, 2, 3), ())
    assert len(members) == 4  # 2^(2*2-2)
    assert all(rank_defect(m)[1] in (0, 4) for m in members)


def test_family_members_validates_singles():
    with pytest.raises(ValueError):
        family_members("B", (0, 1), ())
    with pytest.raises(ValueError):
        family_members("D", (0, 1, 2), ())


def test_symbol_from_label_roundtrip():
    dec = family_decompose(sym([0, 2], [1]), "B")
    rebuilt = symbol_from_label(dec.Z1, dec.Z2, dec.M)
    assert rebuilt == sym([0, 2], [1])
    with pytest.raises(ValueError):
        symbol_from_label((0, 1, 2), (), (3,))


def test_involution_on_small_families():
    for kind, n_max in (("B", 6), ("D", 6)):
        for n in range(n_max + 1):
            for fam in enumerate_symbols(n, kind):
                if fam.degenerate:
                    continue
                ms = fam.members
                mat = [[pairing(a, b, kind) for b in ms] for a in ms]
                for i in range(len(ms)):
                    for j in range(len(ms)):
                        got = sum(mat[i][k] * mat[k][j] for k in range(len(ms)))
                        assert got == (1 if i == j else 0), (kind, n, fam.Z1)


# -- enumeration ------------------------------------------------------------


def test_enumerate_symbols_rank2_kind_b():
    fams = enumerate_symbols(2, "B")
    all_symbols = [m for fam in fams for m in fam.members]
    defect1 = [s for s in all_symbols if rank_defect(s)[1] == 1]
    defect3 = [s for s in all_symbols if rank_defect(s)[1] == 3]
    assert len(defect1) == 5
    assert defect3 == [Symbol((0, 1, 2), ())]
    assert all(rank_defect(s)[0] == 2 for s in all_symbols)


def test_enumerate_symbols_rank0():
    fams = enumerate_symbols(0, "B")
    assert [m for fam in fams for m in fam.members] == [Symbol((0,), ())]


def test_enumerate_symbols_defect1_matches_bipartitions():
    for n in range(7):
        count = sum(
            1
            for fam in enumerate_symbols(n, "B")
            for m in fam.members
            if rank_defect(m)[1] == 1
        )
        assert count == sum(1 for _ in bipartitions_of(n))


def _staircase(parts_ascending, length):
    padded = (0,) * (length - len(parts_ascending)) + parts_ascending
    return tuple(p + i for i, p in enumerate(padded))


def _defect_symbols(n, d):
    """Canonical symbols of rank n and defect d, with repeats for d = 0."""
    for t in range(n + 1):
        s = t + d
        if s == 0:
            if n == 0:
                yield Symbol((), ())
            continue
        base = s * (s - 1) // 2 + t * (t - 1) // 2 - (s + t - 1) ** 2 // 4
        budget = n - base
        if budget < 0:
            continue
        for k in range(budget + 1):
            lams = [p for p in partitions_of(k) if len(p) <= s]
            mus = [p for p in partitions_of(budget - k) if len(p) <= t]
            for lam in lams:
                rs = _staircase(tuple(reversed(lam)), s)
                for mu in mus:
                    rt = _staircase(tuple(reversed(mu)), t)
                    if rs and rt and rs[0] == 0 and rt[0] == 0:
                        continue  # not reduced; counted in a smaller size
                    yield shift_canonicalize(rs, rt)


def enumerate_symbols_from_partitions(n, kind):
    """Oracle: build every symbol of every defect allowed at rank n from
    partitions, then collapse them into families."""
    seen = set()
    if kind == "B":
        defects = []
        d = 1
        while (d * d - 1) // 4 <= n:
            defects.append(d)
            d += 2
    else:
        defects = [0]
        d = 4
        while d * d // 4 <= n:
            defects.append(d)
            d += 4
    for d in defects:
        seen.update(_defect_symbols(n, d))
    degenerate = sorted(s for s in seen if kind == "D" and is_degenerate(s))
    keys = sorted(
        {
            family_decompose(s, kind)[1:3]
            for s in seen
            if not (kind == "D" and is_degenerate(s))
        }
    )
    families = [
        Family(kind=kind, Z1=z1, Z2=z2, degenerate=False, members=family_members(kind, z1, z2))
        for (z1, z2) in keys
    ]
    families.extend(
        Family(kind=kind, Z1=(), Z2=s.rowS, degenerate=True, members=(s,)) for s in degenerate
    )
    families.sort(key=lambda fam: (fam.Z1, fam.Z2))
    return tuple(families)


@pytest.mark.parametrize("kind", ["B", "D"])
def test_enumerate_symbols_matches_partition_oracle(kind):
    for n in range(13):
        assert enumerate_symbols(n, kind) == enumerate_symbols_from_partitions(n, kind), n


@pytest.mark.parametrize("kind", ["B", "D"])
def test_each_family_has_one_special_member(kind):
    # enumerate_symbols reads each family off this member
    for n in range(11):
        for fam in enumerate_symbols_from_partitions(n, kind):
            if fam.degenerate:
                continue
            special = [m for m in fam.members if is_special(m)]
            assert len(special) == 1, (kind, n, fam.Z1, fam.Z2)
            assert rank_defect(special[0])[1] == (1 if kind == "B" else 0)


def test_degenerate_d_families_are_flagged_singletons():
    fams = enumerate_symbols(2, "D")
    degenerate = [f for f in fams if f.degenerate]
    assert degenerate and all(len(f.members) == 1 for f in degenerate)
    assert all(is_degenerate(f.members[0]) for f in degenerate)


# -- special and cuspidal ---------------------------------------------------


def test_special_cuspidal_examples():
    lam_c, lam_0 = special_cuspidal("B", 1)
    assert lam_c == Symbol((0, 1, 2), ())
    assert lam_0 == Symbol((0, 2), (1,))
    assert is_special(lam_0) and not is_special(lam_c)

    lam_c2, _ = special_cuspidal("B", 2)
    assert lam_c2 == Symbol((0, 1, 2, 3, 4), ())
    assert rank_defect(lam_c2) == (6, 5)

    lam_cd, lam_0d = special_cuspidal("D", 1)
    assert lam_cd == Symbol((0, 1, 2, 3), ())
    assert rank_defect(lam_cd) == (4, 4)
    assert is_special(lam_0d)

    with pytest.raises(ValueError):
        special_cuspidal("B", 0)


def test_cuspidal_family_is_one_family():
    for kind, d in (("B", 1), ("B", 2), ("D", 1)):
        lam_c, lam_0 = special_cuspidal(kind, d)
        dc = family_decompose(lam_c, kind)
        d0 = family_decompose(lam_0, kind)
        assert (dc.Z1, dc.Z2) == (d0.Z1, d0.Z2)
        assert d0.M == d0.M0


# -- bijections -------------------------------------------------------------


def test_bipartition_symbol_examples():
    assert symbol_from_bipartition("B", bipartition((1, 1), ())) == Symbol((1, 2), (0,))
    assert symbol_from_bipartition("B", bipartition((1,), (1,))) == Symbol((0, 2), (1,))
    assert symbol_from_bipartition("B", bipartition((), (2,))) == Symbol((0, 1), (2,))
    assert symbol_from_bipartition("D", bipartition((2,), (1, 1))) == Symbol((0, 3), (1, 2))


def test_bijection_roundtrip():
    for n in range(7):
        for bp in bipartitions_of(n):
            s = symbol_from_bipartition("B", bp)
            assert rank_defect(s) == (n, 1)
            assert bipartition_from_symbol("B", s) == bp
    for n in range(7):
        for bp in bipartitions_of(n):
            s = symbol_from_bipartition("D", bp)
            back = bipartition_from_symbol("D", s)
            # the D map works on unordered pairs: canonical row order may swap
            assert {back.alpha, back.beta} == {bp.alpha, bp.beta}


def test_bipartition_from_symbol_requires_right_defect():
    with pytest.raises(ValueError):
        bipartition_from_symbol("B", Symbol((0, 1, 2), ()))
    with pytest.raises(ValueError):
        bipartition_from_symbol("D", Symbol((0, 2), (1,)))


# -- rectangle pairs --------------------------------------------------------


def test_enumerate_p_32_exact_set():
    got = {(bp.alpha, bp.beta) for bp in enumerate_P_ab(3, 2)}
    assert got == {
        ((2, 1), (2, 1)),
        ((2, 2), (1, 1)),
        ((1, 1), (3, 1)),
        ((2, 2, 2), ()),
        ((2, 2, 1), (1,)),
        ((2, 1, 1), (2,)),
        ((1, 1, 1), (3,)),
        ((2,), (2, 2)),
        ((1,), (3, 2)),
        ((), (3, 3)),
    }
    assert len(enumerate_P_ab(3, 2)) == comb(5, 2)


def test_enumerate_p_22_unordered_exact_set():
    got = {(bp.alpha, bp.beta) for bp in enumerate_P_ab(2, 2, unordered=True)}
    assert got == {((2, 2), ()), ((2, 1), (1,)), ((2,), (1, 1))}


def test_enumerate_p_edge_cases():
    assert enumerate_P_ab(0, 0) == [bipartition((), ())]
    got = {(bp.alpha, bp.beta) for bp in enumerate_P_ab(2, 1)}
    assert got == {((), (2,)), ((1,), (1,)), ((1, 1), ())}
    with pytest.raises(ValueError):
        enumerate_P_ab(-1, 2)


def test_enumerate_p_counts():
    for a in range(6):
        for b in range(6):
            assert len(enumerate_P_ab(a, b)) == comb(a + b, a)


def test_p_ab_members_have_the_right_total():
    for a, b in ((3, 2), (2, 2), (4, 3)):
        for bp in enumerate_P_ab(a, b):
            assert bp.size == a * b


def test_p_ab_alpha_fits_in_the_box():
    for bp in enumerate_P_ab(4, 3):
        assert len(bp.alpha) <= 4
        assert all(part <= 3 for part in bp.alpha)


# -- multiplicities ---------------------------------------------------------


def test_m2_values():
    lam_c, lam_0 = special_cuspidal("B", 1)
    assert m2_unipotent(lam_0, "B") == 2
    assert m2_unipotent(lam_c, "B") == 0
    assert m2_unipotent(Symbol((1,), (1,)), "D") == 1
    _, lam_0d = special_cuspidal("D", 1)
    assert m2_unipotent(lam_0d, "D") == 2  # 2^(d1-1) with d1 = 2


def test_m2_pairing_sums_to_one_small():
    for kind in ("B", "D"):
        for n in range(5):
            for fam in enumerate_symbols(n, kind):
                if fam.degenerate:
                    continue
                for s in fam.members:
                    total = sum(
                        pairing(s, m, kind) * m2_unipotent(m, kind) for m in fam.members
                    )
                    assert total == 1, (kind, n, s)
