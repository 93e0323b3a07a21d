"""Family-averaged trace coefficients and the machine-checkable claims.

For a symbol L of rank n and a signed cycle type w, the coefficient
f_L(w) is the pairing-weighted sum of Hecke traces over the defect-1
(kind B) or defect-0 (kind D) members of L's family.  For the cuspidal
symbol this sum collapses, up to the constant delta_const, to the signed
sum f_ab over one rectangle's worth of bipartitions; both routes are
implemented and compared in the tests.

The checks, each returning a VerificationReport that a caller can audit
from the emitted value alone:

* verify_nonvanishing: f of the cuspidal symbol at the recipe cycle type
  prop_cycles(kind, d) is a nonzero polynomial ("prop-7.13" for kind B,
  "prop-7.14" for kind D);
* recursion_check: f_ab factors exactly through the two-strip truncation
  with a quotient vanishing at u = 1 ("lemma-7.12");
* orthogonality_check: traces specialized at u = 1 satisfy second
  orthogonality against centralizer orders;
* involution_check / m2_check: the family pairing matrix squares to the
  identity, and pairing against the m2 multiplicities sums to 1;
* d_swap_diagnostic: reports (without asserting) whether kind D traces
  depend on the component order of the bipartition.
"""

from __future__ import annotations

import time
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .config import NO_LIMITS, Config
from .halflaurent import ZERO, HalfLaurent, frac_str, hl_exact_div
from .hecke import (
    BrSequence,
    MNContext,
    br_from_cycles,
    centralizer_order_B,
    class_reps,
    mn_trace,
    valid_d_cycle_lists,
)
from .shapes import BiPartition, bipartitions_of
from .symbols import (
    Symbol,
    bipartition_from_symbol,
    check_kind,
    enumerate_P_ab,
    enumerate_symbols,
    family_decompose,
    family_members,
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


class VerificationReport(NamedTuple):
    claim: str
    verdict: str  # pass | fail | inconclusive
    fields: dict
    notes: tuple = ()
    ms: int = 0

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_obj(self, include_timing: bool = True) -> dict:
        doc = {"claim": self.claim}
        doc.update(self.fields)
        doc["verdict"] = self.verdict
        if self.notes:
            doc["notes"] = list(self.notes)
        if include_timing:
            doc["ms"] = self.ms
        return doc


def _elapsed_ms(t0: float) -> int:
    return int((time.monotonic() - t0) * 1000)


# ---------------------------------------------------------------------------
# coefficient sums
# ---------------------------------------------------------------------------


def _weighted_trace_sum(kind, terms, br: BrSequence, config) -> HalfLaurent:
    """Sum of coeff * trace over (coeff, bipartition) terms, in list order,
    with every trace drawn through one shared memo context."""
    context = MNContext(br, config)
    total = ZERO
    for coeff, bp in terms:
        trace = mn_trace(kind, bp, br, context=context)
        total = total + coeff * trace
    return total


def f_lambda(kind: str, s: Symbol, cycles, config: Config = NO_LIMITS) -> HalfLaurent:
    """2^(-f) times the signed trace sum over the defect-1/0 members of s's family."""
    check_kind(kind)
    br = br_from_cycles(kind, cycles)
    rank, _ = rank_defect(s)
    if rank != br.n:
        raise ValueError(f"symbol rank {rank} != cycle total {br.n}")
    config.check_rank(rank)
    dec = family_decompose(s, kind)
    want = 1 if kind == "B" else 0
    terms = []
    for member in family_members(kind, dec.Z1, dec.Z2):
        if rank_defect(member)[1] != want:
            continue
        sign = fourier_sign(dec, family_decompose(member, kind))
        terms.append((sign, bipartition_from_symbol(kind, member)))
    return Fraction(1, 2 ** dec.f) * _weighted_trace_sum(kind, terms, br, config)


def f_ab(a: int, b: int, cycles, config: Config = NO_LIMITS) -> HalfLaurent:
    """Signed trace sum over the rectangle index set of the a x b box.

    Square boxes are the kind D case and run over unordered pairs; their
    sign (-1)^|alpha| is orientation-independent because the two sides
    have equal size parity.  Everything else is kind B.
    """
    kind = "D" if a == b and a > 0 else "B"
    br = br_from_cycles(kind, cycles)
    if br.n != a * b:
        raise ValueError(f"cycle total {br.n} != box size {a * b}")
    if a < 0 or b < 0:
        raise ValueError("box dimensions must be nonnegative")
    config.check_rank(a * b)
    terms = []
    for bp in enumerate_P_ab(a, b, unordered=(kind == "D")):
        if kind == "D" and bp.alpha == bp.beta:
            raise ValueError(f"square-box index set produced equal components {bp}")
        terms.append(((-1) ** sum(bp.alpha), bp))
    return _weighted_trace_sum(kind, terms, br, config)


def delta_const(kind: str, d: int) -> Fraction:
    """The constant relating f of the cuspidal symbol to the rectangle sum."""
    check_kind(kind)
    if d < 1:
        raise ValueError("d must be positive")
    if kind == "B":
        return Fraction((-1) ** (d * (d + 1) // 2), 2 ** d)
    return Fraction((-1) ** (d * (2 * d - 1)), 2 ** (2 * d - 1))


def cuspidal_index_set(kind: str, d: int) -> list:
    check_kind(kind)
    if kind == "B":
        return enumerate_P_ab(d + 1, d)
    return enumerate_P_ab(2 * d, 2 * d, unordered=True)


def cuspidal_pair_sign(kind: str, d: int, bp: BiPartition) -> Fraction:
    """Closed-form pairing of the cuspidal symbol with the member at bp.

    Validates that bp belongs to the rectangle index set first (for the
    square box, up to component order).
    """
    members = cuspidal_index_set(kind, d)
    if kind == "B":
        ok = bp in members
    else:
        ok = BiPartition(*max(tuple(bp), tuple(reversed(bp)))) in members
    if not ok:
        raise ValueError(f"{bp} is not in the cuspidal index set for kind {kind}, d={d}")
    return (-1) ** sum(bp.alpha) * delta_const(kind, d)


def f_cuspidal_via_rectangles(
    kind: str, d: int, cycles, config: Config = NO_LIMITS
) -> HalfLaurent:
    """Second route to f of the cuspidal symbol: delta_const times f_ab."""
    check_kind(kind)
    if kind == "B":
        value = f_ab(d + 1, d, cycles, config)
    else:
        value = f_ab(2 * d, 2 * d, cycles, config)
    return delta_const(kind, d) * value


# ---------------------------------------------------------------------------
# cycle recipes
# ---------------------------------------------------------------------------


def prop_cycles(kind: str, d: int) -> tuple:
    """The nonvanishing witness cycle type for the cuspidal symbol at d.

    Kind B (rank d^2+d): seeds [-2] / [6] / [4,8] / [8,12] by d mod 4,
    extended by pairs 16 apart, terminal length 4d-4.  Kind D (rank
    4d^2): seeds [-1,-3] (d odd) / [6,10] (d even) extended the same way,
    terminal lengths 8d-10, 8d-6.
    """
    check_kind(kind)
    if d < 1:
        raise ValueError("d must be positive")
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
        n = d * d + d
    else:
        if d % 2 == 1:
            k = (d - 1) // 2
            out = [-1, -3] + [x for j in range(k) for x in (14 + 16 * j, 18 + 16 * j)]
        else:
            k = d // 2
            out = [x for j in range(k) for x in (6 + 16 * j, 10 + 16 * j)]
        n = 4 * d * d
    assert sum(abs(c) for c in out) == n, (kind, d, out)
    return tuple(out)


_D_TERMINAL_NOTE = (
    "terminal cycle lengths taken as (8d-10, 8d-6); "
    "the alternative reading (4d-10, 4d-6) fails the required total 4d^2"
)


# ---------------------------------------------------------------------------
# verification entry points
# ---------------------------------------------------------------------------


def verify_nonvanishing(kind: str, d: int, config: Config = NO_LIMITS) -> VerificationReport:
    t0 = time.monotonic()
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
        ms=_elapsed_ms(t0),
    )


def recursion_check(a: int, b: int, cycles, config: Config = NO_LIMITS) -> VerificationReport:
    """Exact-division check of the two-strip recursion for f_ab.

    The last two cycles must be plain strips of lengths 2a+2b-10 and
    2a+2b-6; the remaining cycles must total (a-4)(b-4) and are the
    element for the shrunken box.  Verdict "inconclusive" when the
    shrunken-box value is identically zero (nothing to divide by).
    """
    t0 = time.monotonic()
    if a < 4 or b < 4:
        raise ValueError("recursion needs a, b >= 4")
    cyc = br_from_cycles("B", cycles).cycles
    if len(cyc) < 2:
        raise ValueError("need at least the two terminal strip cycles")
    want = (2 * a + 2 * b - 10, 2 * a + 2 * b - 6)
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
    return VerificationReport("lemma-7.12", verdict, fields, notes, ms=_elapsed_ms(t0))


def orthogonality_check(
    n: int,
    config: Config = NO_LIMITS,
    trace_fn=None,
) -> VerificationReport:
    """Second orthogonality of the u = 1 trace table against centralizers.

    trace_fn(bp, cycles) -> HalfLaurent is injectable so a corrupted
    table can be shown to fail; the default is the real mn_trace with a
    shared context per class.
    """
    t0 = time.monotonic()
    config.check_rank(n)
    reps = class_reps(n)
    bps = list(bipartitions_of(n))
    vectors = []
    for cycles in reps:
        if trace_fn is None:
            br = br_from_cycles("B", cycles)
            context = MNContext(br, config)
            vec = [mn_trace("B", bp, br, context=context).eval_one() for bp in bps]
        else:
            vec = [trace_fn(bp, cycles).eval_one() for bp in bps]
        vectors.append(vec)
    mismatches = []
    for i, wi in enumerate(reps):
        for j in range(i, len(reps)):
            got = sum(map(mul, vectors[i], vectors[j]))
            expect = centralizer_order_B(wi) if i == j else 0
            if got != expect:
                mismatches.append(
                    {
                        "w": list(wi),
                        "w2": list(reps[j]),
                        "got": frac_str(Fraction(got)),
                        "expected": str(expect),
                    }
                )
    return VerificationReport(
        claim="mn-orthogonality",
        verdict="pass" if not mismatches else "fail",
        fields={
            "kind": "B",
            "n": n,
            "classes": len(reps),
            "mismatches": mismatches,
        },
        ms=_elapsed_ms(t0),
    )


def _family_decompositions(n: int, kind: str, config: Config = NO_LIMITS):
    """(rank, family, member decompositions) for every non-degenerate
    family of rank at most n."""
    check_kind(kind)
    if n < 0:
        raise ValueError("rank must be nonnegative")
    config.check_rank(n)
    for r in range(n + 1):
        for fam in enumerate_symbols(r, kind):
            if not fam.degenerate:
                yield r, fam, [family_decompose(m, kind) for m in fam.members]


def involution_check(n: int, kind: str, config: Config = NO_LIMITS) -> VerificationReport:
    """Squares every non-degenerate family's pairing matrix 2^(-f) S up to
    rank n, as the integer identity S^2 = 4^f I on the symmetric sign matrix S."""
    t0 = time.monotonic()
    checked = 0
    failures = []
    for r, fam, decs in _family_decompositions(n, kind, config):
        signs = [[fourier_sign(di, dj) for dj in decs] for di in decs]
        scale = 4 ** decs[0].f
        if any(
            sum(map(mul, signs[i], signs[j])) != (scale if i == j else 0)
            for i in range(len(signs))
            for j in range(i, len(signs))
        ):
            failures.append({"rank": r, "Z1": list(fam.Z1), "Z2": list(fam.Z2)})
        checked += 1
    return VerificationReport(
        claim="fourier-involution",
        verdict="pass" if not failures else "fail",
        fields={"kind": kind, "n": n, "families": checked, "failures": failures},
        ms=_elapsed_ms(t0),
    )


def m2_check(n: int, kind: str, config: Config = NO_LIMITS) -> VerificationReport:
    """Pairing against m2 multiplicities sums to 1, family by family, up to
    rank n: the integer sum of sign * m2 over the family equals 2^f."""
    t0 = time.monotonic()
    checked = 0
    failures = []
    for r, fam, decs in _family_decompositions(n, kind, config):
        m2 = [m2_unipotent(m, kind) for m in fam.members]
        scale = 2 ** decs[0].f
        for s, ds in zip(fam.members, decs):
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
        ms=_elapsed_ms(t0),
    )


def d_swap_diagnostic(n: int, config: Config = NO_LIMITS) -> VerificationReport:
    """Compares kind D traces for the two component orders of each
    bipartition over every admissible cycle list of total n.  Reports
    asymmetries without treating them as failures."""
    t0 = time.monotonic()
    if n < 0:
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
        ms=_elapsed_ms(t0),
    )
