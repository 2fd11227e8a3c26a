"""Injectable monotonic clock: real time by default, fakeable in tests.

The cache-tier server's read timeouts and the executor's retry
backoff read time through a :class:`Clock`, so tests (and the chaos
suite) can substitute a :class:`FakeClock` and drive timeouts by *advancing* time
instead of sleeping — a read-timeout test completes in microseconds and
never flakes on a slow CI machine.

``Clock`` is the real implementation; the module-level :data:`CLOCK`
instance is the default everywhere a clock parameter is optional.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import Any, Awaitable


class Clock:
    """Real time: thin veneer over ``time`` and ``asyncio``."""

    def monotonic(self) -> float:
        return time.monotonic()

    def wall(self) -> float:
        return time.time()

    def sleep_sync(self, seconds: float) -> None:
        """Blocking sleep (executor threads; never the event loop)."""
        if seconds > 0:
            time.sleep(seconds)

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(seconds)

    async def wait_for(self, awaitable: Awaitable, timeout: float) -> Any:
        """``asyncio.wait_for`` against this clock."""
        return await asyncio.wait_for(awaitable, timeout)


#: Shared default clock.
CLOCK = Clock()


class FakeClock(Clock):
    """Manually advanced clock for deterministic timeout tests.

    ``monotonic()``/``wall()`` return the fake time; :meth:`advance`
    moves it forward and wakes every :meth:`sleep`/:meth:`wait_for`
    waiter whose deadline has passed.  ``advance`` must be called from
    the event-loop thread (tests drive it from the test coroutine).
    """

    def __init__(self, start: float = 1000.0):
        self._now = start
        self._waiters: list[tuple[float, asyncio.Future]] = []

    def monotonic(self) -> float:
        return self._now

    def wall(self) -> float:
        return self._now

    def sleep_sync(self, seconds: float) -> None:
        """A thread "sleeping" on fake time just observes the jump."""
        self._now += max(0.0, seconds)

    @property
    def pending(self) -> int:
        """Waiters currently parked on this clock (tests poll this to
        know the code under test has reached its timeout wait)."""
        return sum(1 for _, fut in self._waiters if not fut.done())

    def advance(self, seconds: float) -> None:
        self._now += seconds
        due = [fut for deadline, fut in self._waiters
               if deadline <= self._now and not fut.done()]
        self._waiters = [(deadline, fut) for deadline, fut in self._waiters
                         if deadline > self._now and not fut.done()]
        for fut in due:
            fut.set_result(None)

    def _park(self, deadline: float) -> asyncio.Future:
        fut = asyncio.get_running_loop().create_future()
        self._waiters.append((deadline, fut))
        return fut

    async def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            await asyncio.sleep(0)
            return
        await self._park(self._now + seconds)

    async def wait_for(self, awaitable: Awaitable, timeout: float) -> Any:
        task = asyncio.ensure_future(awaitable)
        timer = self._park(self._now + timeout)
        try:
            done, _ = await asyncio.wait(
                {task, timer}, return_when=asyncio.FIRST_COMPLETED
            )
            if task in done:
                return task.result()
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
            raise asyncio.TimeoutError(
                f"fake clock timeout after {timeout}s"
            )
        finally:
            if not timer.done():
                timer.cancel()
