"""Hecke algebra character values for types B and D via strip removal.

An element is addressed by its signed cycle type, a list of nonzero
integers whose absolute values sum to n and whose negative entries mark
barred cycles ([-2] is one barred 2-cycle, [6,10] two plain cycles).
br_from_cycles validates such a list into a BrSequence: the kind and the
signed cycle tuple itself.  A cycle c covers the points k..l with
l - k + 1 = |c|, where k - 1 is the total of the cycles before it.

The trace of the corresponding standard basis element on the irreducible
module labelled by a bipartition is computed by peeling strips off the
bipartition from the last cycle inward: plain segments contribute the
broken-strip statistic delta, barred segments the decorated single-strip
statistic delta_bar, and the whole sum carries a prefactor u^(l'/2) with
l' counting the non-distinguished letters of the defining word.  Partial
sums are memoized on (remaining bipartition, number of remaining
segments), so sweeps over many bipartitions of the same rank share work
through a common context.  Every sum of traces of one element, a single
trace (mn_trace) or a family's weighted sum (f_lambda, f_ab), goes through
_trace_sum, which only sums and applies the prefactor once (mn_trace
checks its bipartition; the family sums build theirs valid).  Each memo
entry sums straight over the scored strip removals of its step, as the
strip enumerators of the shapes module yield them.  No factor is zero:
the enumerators yield only shapes with no 2x2 block, whose delta is
+-u^(e/2) * U^(m-1) with U = u^(1/2) - u^(-1/2), and for a barred step
only connected strips, whose delta_bar is one +-monomial.

Such a strip holds at most one cell per diagonal, so a step lowers a
component's Durfee size (the side of its largest square) by at most 1: a
barred step touches one component, a plain one at most both.  With p
plain steps among the first k, a partial sum is therefore zero when the
two Durfee sizes add up to more than k + p or either exceeds k, and the
context returns it as zero before enumerating a strip.  The entries of
the whole element (all segments remaining) are not stored: a sweep asks
for each bipartition once.

Kind D accepts only two barred patterns: no bars at all, or a leading
[-1, -c, ...] pair followed by plain cycles; and its traces are defined
here only for bipartitions with distinct components.

At u = 1 (u^(1/2) = 1, so U = 0) a trace specializes to a character
value of the Weyl group (Tits deformation), and _traces_at_one computes
it in integers, over a table per step that keeps only the removals whose
factor is nonzero at u = 1 (for a plain step, the strips of one
component), each valued +-1.  Both kinds of step read the barred scores:
a plain strip's sign is the barred one, negated in beta.  The
orthogonality report is the one caller that reads these tables many
times, so it keeps them for its own run, and the memo budget counts them.

The module also carries the small self-check oracles: class
representatives and centralizer orders for the signed permutation group,
the standard bitableaux count, and orthogonality_check, the second
orthogonality of the u = 1 trace table, with the VerificationReport
record that every check returns.  So `verify orthogonality` loads this
module (with shapes, halflaurent and config) and neither symbols nor
almost.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from math import factorial, prod
from operator import mul
from pathlib import Path
from typing import NamedTuple

from .config import NO_LIMITS, Config, ResourceGuardError, check_int
from .halflaurent import ONE, ZERO, HalfLaurent, _from_clean, frac_str, half_power
from .shapes import (
    BiPartition,
    _is_partition,
    bipartitions_of,
    broken_strip_removals,
    check_kind,
    conjugate,
    partitions_of,
    single_strip_removals,
)

__all__ = [
    "BrSequence",
    "br_from_cycles",
    "l_prime",
    "MNContext",
    "mn_trace",
    "TraceCache",
    "VerificationReport",
    "class_reps",
    "valid_d_cycle_lists",
    "centralizer_order_B",
    "st_bitableaux",
    "identity_cycles",
    "orthogonality_check",
]


class BrSequence(NamedTuple):
    kind: str
    cycles: tuple  # nonzero ints, negative where the cycle is barred

    @property
    def n(self) -> int:
        return sum(map(abs, self.cycles))


def br_from_cycles(kind: str, cycles) -> BrSequence:
    """The element of a signed cycle list, validating kind D patterns."""
    check_kind(kind)
    cyc = tuple(cycles)
    if any(isinstance(c, bool) or not isinstance(c, int) for c in cyc):
        raise ValueError(f"cycle lengths must be integers: {list(cyc)!r}")
    if any(c == 0 for c in cyc):
        raise ValueError("cycle lengths must be nonzero")
    if kind == "D":
        bars = [i for i, c in enumerate(cyc) if c < 0]
        if bars and (bars != [0, 1] or cyc[0] != -1):
            raise ValueError(
                f"cycles {list(cyc)} invalid for kind D: bars must be absent "
                "or exactly [-1, -c, ...] in front"
            )
    return BrSequence(kind, cyc)


def l_prime(br: BrSequence) -> int:
    """Letters other than the distinguished generator in the word for T_Br.

    The cycle c covers the segment from k to l = k + |c| - 1, k - 1 being
    the total of the cycles before it.  A plain segment spells l - k
    transpositions; a barred one additionally walks down and back,
    k + l - 2 letters for kind B and k + l - 3 for kind D (whose leading
    barred [.]-1 segment spells no letters at all).
    """
    total = 0
    l = 0
    for c in br.cycles:
        k, l = l + 1, l + abs(c)
        if c > 0:
            total += l - k
        elif br.kind == "B":
            total += k + l - 2
        else:
            total += k + l - 3 if k >= 2 else 0
    return total


# ---------------------------------------------------------------------------
# trace evaluation
# ---------------------------------------------------------------------------


def _removal_table_at_one(outer: BiPartition, size: int, bar_kind: str | None) -> tuple:
    """((inner, value), ...): the removals of the step (outer, size,
    bar_kind) whose factor is nonzero at u = 1, each with that value, +-1.

    U vanishes at u = 1, so a plain step keeps only the strips of one
    component: the strips a barred step keeps, all of which
    MNContext.chain_sum sums.  Both read single_strip_removals (kind B for
    a plain step): at u = 1 a strip of r rows has delta_bar (-1)^(r-1) on
    alpha and -(-1)^(r-1) on beta, for kinds B and D alike, and delta
    (-1)^(r-1) on either side, so a plain step negates the strips in beta.
    """
    beta_sign = -1 if bar_kind is None else 1
    return tuple(
        (inner, factor.eval_one() * (beta_sign if inner.beta != outer.beta else 1))
        for inner, factor in single_strip_removals(outer, size, bar_kind or "B")
    )


def _steps(br: BrSequence) -> tuple:
    """(size, bar_kind) per cycle of br.cycles: bar_kind is br.kind for a
    barred cycle and None for a plain one."""
    return tuple((abs(c), br.kind if c < 0 else None) for c in br.cycles)


def _durfee(p: tuple) -> int:
    """The side of the largest square in the diagram of the partition p."""
    d = 0
    for part in p:
        if part <= d:
            break
        d += 1
    return d


class MNContext:
    """Memoized chain summation for one element br.

    Share one context across the bipartitions of a sweep, evaluated one
    after another, so that they reuse each other's partial sums.  The
    config's memo_budget (none by default) is a loose cap on the entries
    its memo stores; going past it raises ResourceGuardError instead of
    thrashing.  steps holds _steps(br), the (size, bar_kind) of each cycle.
    durfee_caps[k] is k plus the number of plain steps among the first k:
    chain_sum(outer, k) is zero, by the Durfee bound of the module
    docstring, when the Durfee sizes of outer's components add up to more,
    or either exceeds k.  The memo never holds an entry at k = len(steps).
    """

    def __init__(self, br: BrSequence, config: Config = NO_LIMITS):
        self.br = br
        self.steps = _steps(br)
        self.prefactor = half_power(l_prime(br))
        self.memo_budget = config.memo_budget
        self._memo: dict = {}
        caps = [0]
        for _, bar_kind in self.steps:
            caps.append(caps[-1] + (2 if bar_kind is None else 1))
        self.durfee_caps = tuple(caps)

    def chain_sum(self, outer: BiPartition, k: int) -> HalfLaurent:
        """Sum over the strip removals of the first k segments from outer,
        zero unless |outer| is their size, and zero at once where the
        Durfee caps rule it out.  Each memo entry accumulates factor * sub
        over its step's enumerator (broken strips when plain, single strips
        when barred) in one dict and becomes one HalfLaurent."""
        if k == 0:
            return ZERO if outer.alpha or outer.beta else ONE
        key = (outer, k)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        da, db = _durfee(outer.alpha), _durfee(outer.beta)
        if da > k or db > k or da + db > self.durfee_caps[k]:
            return ZERO
        size, bar_kind = self.steps[k - 1]
        if bar_kind is None:
            removals = broken_strip_removals(outer, size)
        else:
            removals = single_strip_removals(outer, size, bar_kind)
        acc: dict = {}
        for inner, factor in removals:
            for k2, c2 in self.chain_sum(inner, k - 1)._terms.items():
                for k1, c1 in factor._terms.items():
                    acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2
        total = _from_clean({e: c for e, c in acc.items() if c})
        if k == len(self.steps):
            return total
        if len(self._memo) >= self.memo_budget:
            raise ResourceGuardError(
                f"memo budget {self.memo_budget} exhausted at rank {self.br.n}"
            )
        self._memo[key] = total
        return total


def _traces_at_one(br: BrSequence, bps, tables: dict, config: Config) -> list:
    """The trace of br at u = 1 on each bipartition of bps, in integers:
    MNContext's recursion over the removals whose factor is nonzero there.
    tables maps (outer, size, bar_kind) to its _removal_table_at_one table,
    and a sweep passes one dict to every call, so that it builds each table
    once; config's memo_budget caps this call's memo plus the tables."""
    steps = _steps(br)
    memo: dict = {}

    def chain(outer: BiPartition, k: int) -> int:
        if k == 0:
            return 0 if outer.alpha or outer.beta else 1
        key = (outer, k)
        hit = memo.get(key)
        if hit is not None:
            return hit
        step = (outer, *steps[k - 1])
        if step not in tables:
            tables[step] = _removal_table_at_one(*step)
        total = 0
        for inner, value in tables[step]:
            total += value * chain(inner, k - 1)
        if len(memo) + len(tables) >= config.memo_budget:
            raise ResourceGuardError(
                f"memo budget {config.memo_budget} exhausted at rank {br.n}"
            )
        memo[key] = total
        return total

    return [chain(bp, len(steps)) for bp in bps]


def _trace_sum(terms, br: BrSequence, context: MNContext | None = None,
               config: Config = NO_LIMITS) -> HalfLaurent:
    """Sum of coeff * trace of br over the (coeff, bipartition) pairs of
    terms, walked once through one context (by default a new one for br
    under config) into one dict, which takes the prefactor once.  It checks
    nothing: mn_trace and the family sums check their input.  A chain
    recurses once per cycle: past the recursion limit, ResourceGuardError."""
    context = MNContext(br, config) if context is None else context
    k = len(context.steps)
    acc: dict = {}
    try:
        for coeff, lam in terms:
            for e, c in context.chain_sum(lam, k)._terms.items():
                acc[e] = acc.get(e, 0) + coeff * c
    except RecursionError:
        raise ResourceGuardError(f"{k} cycles exceed the interpreter's recursion limit") from None
    return context.prefactor * _from_clean({e: c for e, c in acc.items() if c})


def mn_trace(
    kind: str,
    lam: BiPartition,
    br: BrSequence,
    context: MNContext | None = None,
    config: Config = NO_LIMITS,
    cache_store: "TraceCache | None" = None,
) -> HalfLaurent:
    """Trace of T_Br on the module of the bipartition lam, exactly: the
    one-term _trace_sum, once the kind, the element, the context, lam
    (partition tuples of size br.n, distinct for kind D: those modules
    split) and config's max_rank pass, in that order; only then is a
    cache_store read.  A shared context (for sweeps over one element) sets
    the memo's limits, and config's max_rank the call's."""
    check_kind(kind)
    if br.kind != kind:
        raise ValueError(f"element is kind {br.kind}, asked for {kind}")
    if context is not None and context.br is not br and context.br != br:
        raise ValueError(f"context is for {context.br.cycles}, not {br.cycles}")
    for side in lam:
        if not _is_partition(side):
            raise ValueError(f"{side!r} in {lam} is not a partition")
    if lam.size != br.n:
        raise ValueError(f"|lambda| = {lam.size} but the element moves {br.n} points")
    if kind == "D" and lam.alpha == lam.beta:
        raise ValueError(f"kind D trace undefined for equal components {lam}")
    config.check_rank(br.n)
    value = None if cache_store is None else cache_store.get(kind, lam, br)
    if value is None:
        value = _trace_sum(((1, lam),), br, context, config)
        if cache_store is not None:
            cache_store.put(kind, lam, br, value)
    return value


class TraceCache:
    """Optional on-disk store of finished traces, one JSON file per key,
    used only through mn_trace(..., cache_store=...).

    A directory that cannot be created raises ValueError.  An entry that
    does not decode (truncated, corrupt, or not integer-valued) reads as a
    miss, so the trace is recomputed and the entry rewritten.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as e:  # e.g. the path names an existing file
            raise ValueError(f"cannot use {directory} as a cache directory: {e.strerror}") from None

    @staticmethod
    def _key(kind: str, lam: BiPartition, br: BrSequence) -> tuple:
        payload = json.dumps(
            {
                "kind": kind,
                "lambda": lam.to_json_obj(),
                "cycles": list(br.cycles),
            },
            separators=(",", ":"),
        )
        import hashlib  # loaded only when a cache directory is in use
        return payload, hashlib.sha256(payload.encode()).hexdigest()

    def get(self, kind: str, lam: BiPartition, br: BrSequence) -> HalfLaurent | None:
        payload, digest = self._key(kind, lam, br)
        path = self.directory / f"{digest}.json"
        if not path.exists():
            return None
        try:  # an entry that does not decode is a miss, and put overwrites it
            doc = json.loads(path.read_text())
            terms = doc["value"]["terms"]
            if doc["key"] != json.loads(payload) or not all(
                type(t[f]) is int for t in terms for f in ("halfexp", "num", "den")
            ):
                return None
            return HalfLaurent.from_json_obj(doc["value"])
        except (ValueError, KeyError, TypeError, ZeroDivisionError):
            return None

    def put(self, kind: str, lam: BiPartition, br: BrSequence, value: HalfLaurent) -> None:
        payload, digest = self._key(kind, lam, br)
        doc = {"key": json.loads(payload), "value": value.to_json_obj()}
        # written whole under a temporary name, then renamed: an interrupted
        # run leaves no half-written entry behind
        path = self.directory / f"{digest}.json"
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(doc, separators=(",", ":")))
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def class_reps(n: int) -> list:
    """One signed cycle list per conjugacy class of the signed permutation
    group: a pair of partitions (plain lengths, barred lengths).  Barred
    cycles come first, shortest first."""
    if check_int("n", n) < 1:
        raise ValueError("n must be >= 1")
    reps = []
    for k in range(n + 1):
        for neg in partitions_of(k):
            for pos in partitions_of(n - k):
                reps.append(
                    tuple(-x for x in reversed(neg)) + tuple(reversed(pos))
                )
    return reps


def valid_d_cycle_lists(n: int) -> list:
    """Every kind D admissible signed cycle list of total n: the plain
    partitions, plus [-1, -c, plain...] for each 1 <= c <= n-1."""
    out = [tuple(reversed(p)) for p in partitions_of(n)]
    for c in range(1, n):
        for rest in partitions_of(n - 1 - c):
            out.append((-1, -c) + tuple(reversed(rest)))
    return out


def centralizer_order_B(cycles) -> int:
    """Centralizer order of a signed cycle type in the signed permutation
    group: prod over lengths i of (2i)^m * m! separately for plain and
    barred multiplicities m."""
    order = 1
    for counter in (Counter(c for c in cycles if c > 0), Counter(-c for c in cycles if c < 0)):
        for length, mult in counter.items():
            order *= (2 * length) ** mult * factorial(mult)
    return order


def st_bitableaux(lam: BiPartition) -> int:
    """Standard bitableaux count, C(n, |alpha|) f^alpha f^beta = n! / (the
    product of the hook lengths of alpha and of beta)."""
    hooks = 1
    for mu in lam:
        cols = conjugate(mu)
        hooks *= prod(row - j + cols[j] - i - 1 for i, row in enumerate(mu) for j in range(row))
    return factorial(lam.size) // hooks


def identity_cycles(n: int) -> tuple:
    return (1,) * n


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


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


def orthogonality_check(n: int, config: Config = NO_LIMITS) -> VerificationReport:
    """Second orthogonality of the u = 1 trace table against centralizers,
    summed in integers by _traces_at_one, one memo per class; the classes
    share the u = 1 tables, which last this one report."""
    t0 = time.monotonic()
    config.check_rank(check_int("n", n))
    reps = class_reps(n)
    bps = list(bipartitions_of(n))
    tables: dict = {}
    vectors = [_traces_at_one(br_from_cycles("B", cycles), bps, tables, config) for cycles in reps]
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
                        "got": frac_str(got),
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
