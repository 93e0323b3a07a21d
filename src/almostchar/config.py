"""Runtime limits shared by the library and the CLI."""

from __future__ import annotations

import sys
from typing import NamedTuple

__all__ = ["Config", "NO_LIMITS", "ResourceGuardError"]


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
    memo budget caps each trace context's memo only.  The strip-removal
    tables (hecke._removal_table) and the walk cache beneath them
    (shapes._no_2x2_inners, each inner with its strip statistics) last as
    long as the process and have no limit.
    """

    __slots__ = ()

    def __new__(cls, max_rank: int = 20, memo_budget: int = 5_000_000):
        if max_rank < 1:
            raise ValueError("max_rank must be >= 1")
        if memo_budget < 1:
            raise ValueError("memo_budget must be >= 1")
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
