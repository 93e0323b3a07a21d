"""Runtime limits shared by the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Config", "ResourceGuardError"]


class ResourceGuardError(RuntimeError):
    """A configured resource limit (rank bound or memo budget) was hit.

    The CLI maps this to exit code 3 so callers can tell "refused to try"
    apart from "tried and the claim failed".
    """


@dataclass(frozen=True)
class Config:
    """Limits on evaluation size: the largest rank a call may start and
    the number of memo entries one trace context may store."""

    max_rank: int = 20
    memo_budget: int = 5_000_000

    def __post_init__(self):
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")
        if self.memo_budget < 1:
            raise ValueError("memo_budget must be >= 1")

    def check_rank(self, n: int) -> None:
        if n > self.max_rank:
            raise ResourceGuardError(
                f"rank {n} exceeds the configured max_rank {self.max_rank}; "
                "raise --max-rank to proceed"
            )
