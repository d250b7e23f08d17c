"""Virtual time.

Every component that needs "now" takes a :class:`SimClock`.  Time is a
float number of seconds starting at zero; it only moves when something
advances it (the network does so as messages traverse links).  Nothing in
the library reads the wall clock, which keeps every experiment
deterministic and instant.
"""

from __future__ import annotations


class SimClock:
    """A monotonically non-decreasing virtual clock.

    ``now`` is a plain attribute: reading it is the hottest operation in
    the simulator.  Move it with :meth:`advance` and :meth:`advance_to`,
    which reject going backwards.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def advance(self, seconds: float) -> float:
        """Move time forward; negative advances are rejected."""
        if seconds < 0:
            raise ValueError(f"cannot advance time by {seconds}")
        self.now += seconds
        return self.now

    def advance_to(self, timestamp: float) -> float:
        """Jump to an absolute time, which must not be in the past."""
        if timestamp < self.now:
            raise ValueError(f"cannot rewind clock from {self.now} to {timestamp}")
        self.now = timestamp
        return self.now

    def __repr__(self) -> str:
        return f"SimClock(now={self.now:.6f})"
