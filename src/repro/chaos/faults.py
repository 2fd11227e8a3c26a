"""Deterministic, seeded fault injection for the distributed pieces.

A :class:`FaultPlan` names **injection sites** — fixed points in the
cache, executor and serve layers where a failure can be simulated —
with a per-site firing probability and a seed.  A :class:`FaultInjector`
evaluates the plan at runtime and keeps a trace of every fired fault
plus the recovery action the hardened code took.

Decisions are **hash-based, not sequential**: whether a fault fires at
``(site, token)`` is a pure function of ``(seed, site, token)``, so the
outcome does not depend on thread scheduling, pool harvest order or how
many other sites fired first.  Same seed and same work ⇒ same faults,
which is what makes ``repro chaos-soak`` reproducible and lets the
differential tests assert byte-identical results under fault load.

Sites (see ``docs/robustness.md`` for the recovery contract of each):

==============  =====================================================
``cache.read``  the entry being read is corrupted on disk first, so
                the real quarantine path runs (evict + miss + recount)
``cache.write`` the store is dropped as if the disk write failed
``pool.submit`` the whole worker pool "breaks" at submit time
                (BrokenProcessPool analogue) — batch retried serially
``pool.worker`` one worker "crashes" before delivering its cell —
                bounded retry with exponential backoff
``serve.accept`` the server drops the connection before reading —
                the tier client reads a miss (or a failed PUT)
``serve.body``  the request body "stalls" — the server answers 408
                instead of hanging
``clock``       the backoff clock "jumps" past its deadline — the
                retry proceeds without the real wait
==============  =====================================================

Every injector method is thread-safe; callers guard hooks with
``if injector is not None`` so the disabled path costs one attribute
load and a branch.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

from repro.errors import ConfigError

#: Every valid injection site, in canonical order.
SITES: tuple[str, ...] = (
    "cache.read",
    "cache.write",
    "pool.submit",
    "pool.worker",
    "serve.accept",
    "serve.body",
    "clock",
)


def _hash01(seed: int, site: str, token: str) -> float:
    """Uniform [0, 1) value, a pure function of (seed, site, token)."""
    digest = hashlib.sha256(f"{seed}|{site}|{token}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """Per-site firing probabilities plus the seed that drives them."""

    probabilities: tuple[tuple[str, float], ...] = ()
    seed: int = 0

    def __post_init__(self):
        for site, p in self.probabilities:
            if site not in SITES:
                raise ConfigError(
                    f"unknown fault site {site!r}; choose from {SITES}"
                )
            if not 0.0 <= p <= 1.0:
                raise ConfigError(
                    f"fault probability for {site!r} must be in [0, 1], "
                    f"got {p}"
                )

    @classmethod
    def uniform(cls, p: float, seed: int = 0,
                sites: tuple[str, ...] = SITES) -> "FaultPlan":
        """One probability applied to every (listed) site."""
        return cls(tuple((site, p) for site in sites), seed=seed)

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a CLI plan spec.

        Either a bare probability applied to all sites (``"0.2"``) or a
        comma list of ``site=p`` entries
        (``"cache.read=0.1,pool.worker=0.3"``).
        """
        spec = str(spec).strip()
        if not spec:
            raise ConfigError("empty fault plan spec")
        if "=" not in spec:
            try:
                p = float(spec)
            except ValueError:
                raise ConfigError(
                    f"fault plan must be a probability or site=p list, "
                    f"got {spec!r}"
                ) from None
            return cls.uniform(p, seed=seed)
        entries = []
        for item in spec.split(","):
            site, sep, value = item.partition("=")
            site = site.strip()
            if not sep:
                raise ConfigError(f"bad fault plan entry {item!r}")
            try:
                p = float(value)
            except ValueError:
                raise ConfigError(
                    f"bad probability in fault plan entry {item!r}"
                ) from None
            entries.append((site, p))
        return cls(tuple(entries), seed=seed)

    def p(self, site: str) -> float:
        """The firing probability configured for ``site`` (0 if unset)."""
        for name, p in self.probabilities:
            if name == site:
                return p
        return 0.0

    def as_dict(self) -> dict:
        return {"seed": self.seed, "probabilities": dict(self.probabilities)}


@dataclass
class FaultRecord:
    """One fired fault and (eventually) the recovery that answered it."""

    seq: int
    site: str
    token: str
    recovered: str | None = None

    def as_dict(self) -> dict:
        return {"seq": self.seq, "site": self.site, "token": self.token,
                "recovered": self.recovered}


class FaultInjector:
    """Evaluates a :class:`FaultPlan` and keeps the fault trace.

    One injector is shared by every instrumented layer of a run (cache,
    executor, server), so the trace is the single source of
    truth for "what failed and how it was handled".
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._records: list[FaultRecord] = []

    # -- decisions ----------------------------------------------------

    def decide(self, site: str, token: str) -> bool:
        """Would a fault fire at ``(site, token)``?  No side effects."""
        p = self.plan.p(site)
        if p <= 0.0:
            return False
        return _hash01(self.plan.seed, site, token) < p

    def fire(self, site: str, token: str) -> FaultRecord | None:
        """Evaluate the site; record and return a fault if it fires."""
        if not self.decide(site, token):
            return None
        with self._lock:
            record = FaultRecord(seq=len(self._records), site=site,
                                 token=token)
            self._records.append(record)
        return record

    def recover(self, record: FaultRecord, action: str) -> None:
        """Mark the recovery action the hardened code took."""
        record.recovered = action

    # -- reporting ----------------------------------------------------

    @property
    def records(self) -> list[FaultRecord]:
        with self._lock:
            return list(self._records)

    def fired_by_site(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.site] = counts.get(record.site, 0) + 1
        return counts

    def recovered_by_site(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.records:
            if record.recovered is not None:
                counts[record.site] = counts.get(record.site, 0) + 1
        return counts

    def unrecovered(self) -> list[FaultRecord]:
        """Fired faults no recovery path has claimed — each one a bug."""
        return [r for r in self.records if r.recovered is None]

    def trace(self) -> list[dict]:
        """Canonical trace: records sorted by (site, token), so two
        runs with the same seed compare equal even when concurrency
        reordered the firing sequence."""
        return [r.as_dict() for r in
                sorted(self.records, key=lambda r: (r.site, r.token))]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultInjector(seed={self.plan.seed}, "
                f"fired={len(self.records)}, "
                f"unrecovered={len(self.unrecovered())})")
