"""Small wall-clock budget shared by the exhaustive searches.

A search that runs out of budget must say so rather than return a silent
"not found": callers distinguish ``None`` (exhaustive, no witness) from
:class:`BudgetExceededError` (search truncated).
"""

from __future__ import annotations

import time


class BudgetExceededError(RuntimeError):
    """Raised when a search runs past its deadline."""


class Budget:
    """An optional deadline, checked cheaply in inner loops; ``nodes`` counts the ticks."""

    __slots__ = ("deadline", "nodes")

    def __init__(self, seconds=None):
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.nodes = 0

    def tick(self, what="search"):
        self.nodes += 1
        # Consult the clock every 1024 ticks.
        if self.deadline is not None and self.nodes & 0x3FF == 0:
            if time.monotonic() > self.deadline:
                raise BudgetExceededError(f"{what}: time budget exceeded")

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline
