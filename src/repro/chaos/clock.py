"""Injectable monotonic clock: real time by default, fakeable in tests.

The executor's retry backoff sleeps through a :class:`Clock`, so tests
(and the chaos suite) can substitute a :class:`FakeClock` whose sleeps
*advance* time instead of blocking — a backoff test completes in
microseconds and never flakes on a slow CI machine.

``Clock`` is the real implementation; the module-level :data:`CLOCK`
instance is the default everywhere a clock parameter is optional.
"""

from __future__ import annotations

import time


class Clock:
    """Real time: thin veneer over ``time``."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep_sync(self, seconds: float) -> None:
        """Blocking sleep."""
        if seconds > 0:
            time.sleep(seconds)


#: Shared default clock.
CLOCK = Clock()


class FakeClock(Clock):
    """Manually advanced clock for deterministic backoff tests.

    ``monotonic()`` returns the fake time; :meth:`advance` and
    :meth:`sleep_sync` move it forward without blocking.
    """

    def __init__(self, start: float = 1000.0):
        self._now = start

    def monotonic(self) -> float:
        return self._now

    def sleep_sync(self, seconds: float) -> None:
        """A thread "sleeping" on fake time just observes the jump."""
        self._now += max(0.0, seconds)

    def advance(self, seconds: float) -> None:
        self._now += seconds
