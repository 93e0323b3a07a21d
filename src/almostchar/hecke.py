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
through a common context.  Beneath the memo, the scored strip removals of
one step form a table that depends only on (outer bipartition, strip size,
step kind); each table is built once per process and shared by every
context, so the contexts of a sweep over many elements do not enumerate
the same strips again.  No factor in a table is zero: the enumerators
yield only shapes with no 2x2 block, whose delta is +-u^(e/2) * U^(m-1)
with U = u^(1/2) - u^(-1/2), and for a barred step only connected strips,
whose delta_bar is one +-monomial.

Kind D accepts only two barred patterns: no bars at all, or a leading
[-1, -c, ...] pair followed by plain cycles; and its traces are defined
here only for bipartitions with distinct components.

The module also carries the small self-check oracles: class
representatives and centralizer orders for the signed permutation group,
and the standard bitableaux count.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from functools import cache
from math import factorial
from pathlib import Path
from typing import NamedTuple

from .config import NO_LIMITS, Config, ResourceGuardError
from .halflaurent import ONE, ZERO, HalfLaurent, _from_clean, half_power
from .shapes import (
    BiPartition,
    broken_strip_removals,
    check_kind,
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
    "class_reps",
    "valid_d_cycle_lists",
    "centralizer_order_B",
    "st_bitableaux",
    "identity_cycles",
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


@cache
def _removal_table(outer: BiPartition, size: int, bar_kind: str | None) -> tuple[tuple, tuple]:
    """(inners, factors): every strip of `size` cells off outer, as parallel
    tuples in the order the enumerator yields them.

    A plain step (bar_kind None) takes the broken strips scored by delta,
    which does not depend on the kind; a barred step takes the single
    strips scored by delta_bar, whose content factors do, so bar_kind is
    "B" or "D".  The enumerators score each strip from the statistics the
    shapes walk gathered for its sides, and every factor is nonzero, so
    none is filtered out: a shape with no 2x2 block has delta =
    +-u^(e/2) * U^(m-1), and a connected strip has a delta_bar equal to one
    +-monomial.  Each factor is a shared value, not a copy.  One table per
    key for the life of the process, with no limit, like the walk cache
    beneath it.
    """
    if bar_kind is None:
        pairs = broken_strip_removals(outer, size)
    else:
        pairs = single_strip_removals(outer, size, bar_kind)
    return tuple(zip(*pairs)) or ((), ())


class MNContext:
    """Memoized chain summation for one element br.

    Share one context across the bipartitions of a sweep, evaluated one
    after another, so that they reuse each other's partial sums.  The
    config's memo_budget (none by default) is a loose cap on stored
    entries; going past it raises ResourceGuardError instead of thrashing.
    The memo is the context's own, and the budget bounds nothing else: the
    strip-removal tables it reads, and the walk caches in shapes beneath
    them (each walk's inners with their strip statistics), are shared by
    every context in the process, last as long as it and have no limit.
    steps holds (size, bar_kind) per cycle of br.cycles, bar_kind being
    None for a plain cycle and the kind for a barred one.
    """

    def __init__(self, br: BrSequence, config: Config = NO_LIMITS):
        self.br = br
        self.steps = tuple((abs(c), br.kind if c < 0 else None) for c in br.cycles)
        self.prefactor = half_power(l_prime(br))
        self.memo_budget = config.memo_budget
        self._memo: dict = {}

    def chain_sum(self, outer: BiPartition, k: int) -> HalfLaurent:
        """Sum over the strip removals of the first k segments from outer,
        zero unless |outer| is their size.  Each memo entry accumulates
        factor * sub over the step's removal table in one dict and becomes
        one HalfLaurent."""
        if k == 0:
            return ZERO if outer.alpha or outer.beta else ONE
        key = (outer, k)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        acc: dict = {}
        for inner, factor in zip(*_removal_table(outer, *self.steps[k - 1])):
            for k2, c2 in self.chain_sum(inner, k - 1)._terms.items():
                for k1, c1 in factor._terms.items():
                    acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2
        total = _from_clean({e: c for e, c in acc.items() if c})
        if len(self._memo) >= self.memo_budget:
            raise ResourceGuardError(
                f"memo budget {self.memo_budget} exhausted at rank {self.br.n}"
            )
        self._memo[key] = total
        return total


def mn_trace(
    kind: str,
    lam: BiPartition,
    br: BrSequence,
    context: MNContext | None = None,
    config: Config = NO_LIMITS,
    cache_store: "TraceCache | None" = None,
) -> HalfLaurent:
    """Trace of T_Br on the module of the bipartition lam, exactly.

    Pass a shared context when sweeping many bipartitions against the
    same element; its own limits then apply to the memo, and config's
    max_rank to the call.  Omitting config sets no limits.  kind D
    refuses lam.alpha == lam.beta: those modules split and are out of
    scope here.  The chain sum recurses once per cycle, so more cycles
    than the interpreter's recursion limit allows raise
    ResourceGuardError.
    """
    check_kind(kind)
    if br.kind != kind:
        raise ValueError(f"element is kind {br.kind}, asked for {kind}")
    if lam.size != br.n:
        raise ValueError(f"|lambda| = {lam.size} but the element moves {br.n} points")
    if kind == "D" and lam.alpha == lam.beta:
        raise ValueError(f"kind D trace undefined for equal components {lam}")
    config.check_rank(br.n)
    if context is not None and context.br is not br and context.br != br:
        raise ValueError(f"context is for {context.br.cycles}, not {br.cycles}")
    if cache_store is not None:
        cached = cache_store.get(kind, lam, br)
        if cached is not None:
            return cached
    if context is None:
        context = MNContext(br, config)
    try:
        chain = context.chain_sum(lam, len(context.steps))
    except RecursionError:
        raise ResourceGuardError(
            f"{len(context.steps)} cycles exceed the interpreter's recursion limit"
        ) from None
    value = context.prefactor * chain
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
    if n < 1:
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


@cache
def st_bitableaux(lam: BiPartition) -> int:
    """Standard bitableaux count, by peeling single boxes."""
    if lam.size == 0:
        return 1
    return sum(st_bitableaux(inner) for inner, _ in single_strip_removals(lam, 1, "B"))


def identity_cycles(n: int) -> tuple:
    return (1,) * n
