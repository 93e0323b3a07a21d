"""Family-averaged trace coefficients and the machine-checkable claims.

For a symbol L of rank n and a signed cycle type w, the coefficient f_L(w)
is the pairing-weighted sum of Hecke traces over the defect-1 (kind B) or
defect-0 (kind D) members of L's family, read off their labels by
symbols._family from a checked key: only those members are built as
symbols, unchecked.  For the cuspidal symbol this sum collapses, up to the
constant delta_const, to the signed sum f_ab over one rectangle's worth of
bipartitions; both routes are implemented and compared in the tests.  Each
checks its arguments, then the rank, and streams its (coeff, bipartition)
terms, valid by construction, to hecke._trace_sum, which only sums them.

The checks each return a VerificationReport (defined in hecke), a value
with no clock (the command line times each call) that a caller can audit:

* verify_nonvanishing: f of the cuspidal symbol at the recipe cycle type
  prop_cycles(kind, d) is a nonzero polynomial ("prop-7.13" for kind B,
  "prop-7.14" for kind D);
* recursion_check: f_ab factors exactly through the two-strip truncation
  with a quotient vanishing at u = 1 ("lemma-7.12");
* orthogonality_check: traces specialized at u = 1 satisfy second
  orthogonality against centralizer orders (defined in hecke, which sums
  the table in integers, and imported here too; `verify orthogonality`
  loads neither this module nor symbols);
* involution_check / m2_check: the family pairing matrix squares to the
  identity, and pairing against the m2 multiplicities sums to 1, each
  over one symbols._family per family key (only m2_check builds members);
* d_swap_diagnostic: reports (without asserting) whether kind D traces
  depend on the component order of the bipartition.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .config import NO_LIMITS, Config, check_int
from .halflaurent import HalfLaurent, frac_str, hl_exact_div
from .hecke import (
    MNContext,
    VerificationReport,
    _trace_sum,
    br_from_cycles,
    mn_trace,
    orthogonality_check,
    valid_d_cycle_lists,
)
from .shapes import BiPartition, _is_partition, bipartitions_of
from .symbols import (
    Symbol,
    _box_partner,
    _box_sides,
    _cuspidal_box,
    _family,
    _family_keys,
    _label_symbol,
    bipartition_from_symbol,
    check_kind,
    enumerate_P_ab,
    family_decompose,
    fourier_sign,
    m2_unipotent,
    rank_defect,
    special_cuspidal,
)

__all__ = [
    "VerificationReport",
    "delta_const",
    "cuspidal_index_set",
    "cuspidal_pair_sign",
    "f_lambda",
    "f_ab",
    "f_cuspidal_via_rectangles",
    "prop_cycles",
    "verify_nonvanishing",
    "recursion_check",
    "orthogonality_check",
    "involution_check",
    "m2_check",
    "d_swap_diagnostic",
]


# ---------------------------------------------------------------------------
# coefficient sums
# ---------------------------------------------------------------------------


def f_lambda(kind: str, s: Symbol, cycles, config: Config = NO_LIMITS) -> HalfLaurent:
    """2^(-f) times the signed trace sum over the defect-1/0 members of s's family."""
    br = br_from_cycles(kind, cycles)
    rank, _ = rank_defect(s)
    if rank != br.n:
        raise ValueError(f"symbol rank {rank} != cycle total {br.n}")
    dec = family_decompose(s, kind)
    config.check_rank(rank)
    # a member's rows differ in length by |Z1| - 2|M|: the defect-1 (B) or
    # defect-0 (D) members are those with |M| = d1
    terms = (
        (fourier_sign(dec, m), bipartition_from_symbol(kind, _label_symbol(m.Z1, m.Z2, m.M)))
        for m in _family(kind, dec.Z1, dec.Z2)
        if len(m.M) == dec.d1
    )
    return Fraction(1, 2 ** dec.f) * _trace_sum(terms, br, config=config)


def f_ab(a: int, b: int, cycles, config: Config = NO_LIMITS) -> HalfLaurent:
    """Signed trace sum over the rectangle index set of the a x b box.

    Square boxes are the kind D case and run over unordered pairs; their
    sign (-1)^|alpha| is orientation-independent because the two sides
    have equal size parity.  Everything else is kind B.
    """
    _box_sides(a, b)
    kind = "D" if a == b and a > 0 else "B"
    br = br_from_cycles(kind, cycles)
    if br.n != a * b:
        raise ValueError(f"cycle total {br.n} != box size {a * b}")
    config.check_rank(a * b)
    terms = (((-1) ** sum(bp.alpha), bp) for bp in enumerate_P_ab(a, b, unordered=(kind == "D")))
    return _trace_sum(terms, br, config=config)


def delta_const(kind: str, d: int) -> Fraction:
    """The constant relating f of the cuspidal symbol to the rectangle sum."""
    _cuspidal_box(kind, d)
    if kind == "B":
        return Fraction((-1) ** (d * (d + 1) // 2), 2 ** d)
    return Fraction((-1) ** (d * (2 * d - 1)), 2 ** (2 * d - 1))


def cuspidal_index_set(kind: str, d: int) -> list:
    a, b = _cuspidal_box(kind, d)
    return enumerate_P_ab(a, b, unordered=kind == "D")


def cuspidal_pair_sign(kind: str, d: int, bp: BiPartition) -> Fraction:
    """Closed-form pairing of the cuspidal symbol with the member at bp.

    Validates first that bp belongs to the rectangle index set (for the
    square box, up to component order): alpha is a partition that fits
    the box and beta is its box partner.  In the square box the partner
    of beta is alpha, so either component order passes.
    """
    a, b = _cuspidal_box(kind, d)
    alpha, beta = bp
    fits = _is_partition(alpha) and len(alpha) <= a and (not alpha or alpha[0] <= b)
    if not (fits and beta == _box_partner(alpha, a, b)):
        raise ValueError(f"{bp} is not in the cuspidal index set for kind {kind}, d={d}")
    return (-1) ** sum(alpha) * delta_const(kind, d)


def f_cuspidal_via_rectangles(
    kind: str, d: int, cycles, config: Config = NO_LIMITS
) -> HalfLaurent:
    """Second route to f of the cuspidal symbol: delta_const times f_ab."""
    a, b = _cuspidal_box(kind, d)
    return delta_const(kind, d) * f_ab(a, b, cycles, config)


# ---------------------------------------------------------------------------
# cycle recipes
# ---------------------------------------------------------------------------


def _terminal_pair(a: int, b: int) -> tuple:
    """Lemma 7.12's two plain strip lengths that take the a x b box to the
    (a-4) x (b-4) one."""
    return (2 * a + 2 * b - 10, 2 * a + 2 * b - 6)


# the recipes that no terminal pair extends: of rank 0, and B d = 1, 2 /
# D d = 1; indexed by d mod 4 (B) or d mod 2 (D)
_RECIPE_SEEDS = {"B": ((), (-2,), (6,), ()), "D": ((), (-1, -3))}


def prop_cycles(kind: str, d: int) -> tuple:
    """The nonvanishing witness cycle type for the cuspidal symbol at d,
    built by lemma 7.12's recursion: a seed, then the terminal pair of
    each cuspidal box from the smallest past the seed up to d's.

    A step shrinks the box (a, b) to (a-4, b-4), so d steps by 4 for kind
    B (box (d+1, d)) and by 2 for kind D (box (2d, 2d)); a box with b <= 2
    is a seed's.  For example B d = 7 is [4,8,20,24], D d = 3 [-1,-3,14,18].
    """
    a, b = _cuspidal_box(kind, d)
    pairs = ()
    while b > 2:
        pairs = _terminal_pair(a, b) + pairs
        a, b = a - 4, b - 4
    seeds = _RECIPE_SEEDS[kind]
    return seeds[d % len(seeds)] + pairs


_D_TERMINAL_NOTE = (
    "terminal cycle lengths taken as (8d-10, 8d-6); "
    "the alternative reading (4d-10, 4d-6) fails the required total 4d^2"
)


# ---------------------------------------------------------------------------
# verification entry points
# ---------------------------------------------------------------------------


def verify_nonvanishing(kind: str, d: int, config: Config = NO_LIMITS) -> VerificationReport:
    a, b = _cuspidal_box(kind, d)
    config.check_rank(a * b)  # before the recipe, which grows with d
    cycles = prop_cycles(kind, d)
    cuspidal, _ = special_cuspidal(kind, d)
    value = f_lambda(kind, cuspidal, cycles, config)
    return VerificationReport(
        claim="prop-7.13" if kind == "B" else "prop-7.14",
        verdict="pass" if not value.is_zero() else "fail",
        fields={
            "kind": kind,
            "d": d,
            "cycles": list(cycles),
            "value": value.to_json_obj(),
            "value_at_1": frac_str(value.eval_one()),
        },
        notes=(_D_TERMINAL_NOTE,) if kind == "D" else (),
    )


def recursion_check(a: int, b: int, cycles, config: Config = NO_LIMITS) -> VerificationReport:
    """Exact-division check of the two-strip recursion for f_ab.

    The last two cycles must be plain strips of lengths 2a+2b-10 and
    2a+2b-6; the remaining cycles must total (a-4)(b-4) and are the
    element for the shrunken box.  Verdict "inconclusive" when the
    shrunken-box value is identically zero (nothing to divide by).
    """
    if check_int("a", a) < 4 or check_int("b", b) < 4:
        raise ValueError("recursion needs a, b >= 4")
    cyc = br_from_cycles("B", cycles).cycles
    if len(cyc) < 2:
        raise ValueError("need at least the two terminal strip cycles")
    want = _terminal_pair(a, b)
    if cyc[-2:] != want:
        raise ValueError(f"terminal cycles must be {list(want)}, got {list(cyc[-2:])}")
    head = cyc[:-2]
    if sum(abs(c) for c in head) != (a - 4) * (b - 4):
        raise ValueError(
            f"leading cycles must total (a-4)(b-4) = {(a - 4) * (b - 4)}"
        )
    value = f_ab(a, b, cyc, config)
    base = f_ab(a - 4, b - 4, head, config)
    fields = {
        "a": a,
        "b": b,
        "cycles": list(cyc),
        "value": value.to_json_obj(),
        "base": base.to_json_obj(),
        "h": None,
        "h_at_1": None,
    }
    notes = ()
    if base.is_zero():
        verdict = "inconclusive"
        notes = ("shrunken-box value is zero; the quotient is undetermined",)
    else:
        try:
            h = hl_exact_div(value, base)
        except ValueError:
            verdict = "fail"
            notes = ("division left a nonzero remainder",)
        else:
            fields["h"] = h.to_json_obj()
            fields["h_at_1"] = frac_str(h.eval_one())
            verdict = "pass" if (not h.is_zero() and h.eval_one() == 0) else "fail"
    return VerificationReport("lemma-7.12", verdict, fields, notes)


def _family_decompositions(n: int, kind: str, config: Config = NO_LIMITS):
    """(rank, member decompositions) for every non-degenerate family of
    rank at most n, rank by rank in (Z1, Z2) order: one _family each."""
    check_kind(kind)
    if check_int("n", n) < 0:
        raise ValueError("rank must be nonnegative")
    config.check_rank(n)
    for r in range(n + 1):
        for z1, z2 in sorted(_family_keys(r, kind)):
            yield r, _family(kind, z1, z2)


def involution_check(n: int, kind: str, config: Config = NO_LIMITS) -> VerificationReport:
    """Squares every non-degenerate family's pairing matrix 2^(-f) S up to
    rank n, as the integer identity S^2 = 4^f I on the symmetric sign matrix S."""
    checked = 0
    failures = []
    for r, decs in _family_decompositions(n, kind, config):
        signs = [[fourier_sign(di, dj) for dj in decs] for di in decs]
        scale = 4 ** decs[0].f
        if any(
            sum(map(mul, signs[i], signs[j])) != (scale if i == j else 0)
            for i in range(len(signs))
            for j in range(i, len(signs))
        ):
            failures.append({"rank": r, "Z1": list(decs[0].Z1), "Z2": list(decs[0].Z2)})
        checked += 1
    return VerificationReport(
        claim="fourier-involution",
        verdict="pass" if not failures else "fail",
        fields={"kind": kind, "n": n, "families": checked, "failures": failures},
    )


def m2_check(n: int, kind: str, config: Config = NO_LIMITS) -> VerificationReport:
    """Pairing against m2 multiplicities sums to 1, family by family, up to
    rank n: the integer sum of sign * m2 over the family equals 2^f."""
    checked = 0
    failures = []
    for r, decs in _family_decompositions(n, kind, config):
        members = [_label_symbol(d.Z1, d.Z2, d.M) for d in decs]
        m2 = [m2_unipotent(m, kind) for m in members]
        scale = 2 ** decs[0].f
        for s, ds in zip(members, decs):
            total = sum(fourier_sign(ds, dm) * w for dm, w in zip(decs, m2) if w)
            checked += 1
            if total != scale:
                failures.append(
                    {"rank": r, "symbol": s.to_json_obj(), "sum": frac_str(Fraction(total, scale))}
                )
    return VerificationReport(
        claim="m2-sum",
        verdict="pass" if not failures else "fail",
        fields={"kind": kind, "n": n, "symbols": checked, "failures": failures},
    )


def d_swap_diagnostic(n: int, config: Config = NO_LIMITS) -> VerificationReport:
    """Compares kind D traces for the two component orders of each
    bipartition over every admissible cycle list of total n.  Reports
    asymmetries without treating them as failures."""
    if check_int("n", n) < 0:
        raise ValueError("rank must be nonnegative")
    config.check_rank(n)
    asymmetries = []
    pairs = 0
    for cycles in valid_d_cycle_lists(n):
        br = br_from_cycles("D", cycles)
        context = MNContext(br, config)
        for bp in bipartitions_of(n):
            if not bp.alpha > bp.beta:
                continue
            flipped = BiPartition(bp.beta, bp.alpha)
            v1 = mn_trace("D", bp, br, context=context)
            v2 = mn_trace("D", flipped, br, context=context)
            pairs += 1
            if v1 != v2:
                asymmetries.append(
                    {
                        "cycles": list(cycles),
                        "lambda": bp.to_json_obj(),
                        "value": v1.to_json_obj(),
                        "swapped": v2.to_json_obj(),
                    }
                )
    notes = ()
    if asymmetries:
        notes = ("component order changes some kind D traces; see asymmetries",)
    return VerificationReport(
        claim="d-swap-diagnostic",
        verdict="pass",
        fields={"kind": "D", "n": n, "pairs": pairs, "asymmetries": asymmetries},
        notes=notes,
    )
