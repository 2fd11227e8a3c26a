"""Deterministic fault injection and the injectable clock.

A test seam, not a user-facing mode: tests hand a
:class:`FaultInjector` to the run cache or executor and check that
every fault is recovered with byte-identical results.  See
``docs/robustness.md`` for the site/recovery contract and
``tests/chaos/`` for the proofs.
"""

from repro.chaos.clock import CLOCK, Clock, FakeClock
from repro.chaos.faults import SITES, FaultInjector, FaultPlan, FaultRecord

__all__ = [
    "CLOCK",
    "Clock",
    "FakeClock",
    "SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultRecord",
]
