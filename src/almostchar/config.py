"""Runtime limits shared by the library and the CLI."""

from __future__ import annotations

import sys
from typing import NamedTuple

__all__ = ["Config", "NO_LIMITS", "ResourceGuardError", "check_int"]


def check_int(name: str, value) -> int:
    """value, if it is an int and not a bool; else ValueError naming it.

    The one check for a count (a limit, a rank, d, a box side): a bool or
    a float is not a count, even where it would compare like one.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


class ResourceGuardError(RuntimeError):
    """A configured resource limit (rank bound or memo budget) was hit.

    The CLI maps this to exit code 3 so callers can tell "refused to try"
    apart from "tried and the claim failed".
    """


class Config(NamedTuple("Limits", [("max_rank", int), ("memo_budget", int)])):
    """Limits on evaluation size: the largest rank a call may start and
    the number of memo entries one trace context may store.

    Every library entry point takes its limits as a Config, and each
    defaults to NO_LIMITS; there is no None form.  The CLI builds one from
    --max-rank and --memo-budget, whose defaults are this class's.  The
    memo budget caps a trace context's memo, and in the orthogonality
    report each class's u = 1 memo plus the report's removal tables, which
    last that one report; nothing else is kept.  Each limit must be an int
    (not a bool; check_int is the shared check).
    """

    __slots__ = ()

    def __new__(cls, max_rank: int = 20, memo_budget: int = 5_000_000):
        for name, limit in (("max_rank", max_rank), ("memo_budget", memo_budget)):
            if check_int(name, limit) < 1:
                raise ValueError(f"{name} must be >= 1")
        return super().__new__(cls, max_rank, memo_budget)

    @classmethod
    def _make(cls, iterable) -> "Config":  # _replace builds through it too
        return cls(*super()._make(iterable))

    def check_rank(self, n: int) -> None:
        if n > self.max_rank:
            raise ResourceGuardError(
                f"rank {n} exceeds the configured max_rank {self.max_rank}; "
                "raise --max-rank to proceed"
            )


#: The library default: no rank bound and no memo budget.
NO_LIMITS = Config(max_rank=sys.maxsize, memo_budget=sys.maxsize)
