"""A native machine: physical memory + one kernel + one policy."""

from __future__ import annotations

import random

from repro.mm.physmem import PhysicalMemory
from repro.policies import make_policy
from repro.policies.base import PlacementPolicy
from repro.sim.config import SystemConfig
from repro.sim.kernel import Kernel


class Machine:
    """One simulated machine, ready to run workloads.

    Parameters
    ----------
    config:
        Machine shape.  Use ``config.for_policy(name)`` to apply the
        per-baseline kernel knobs (raised MAX_ORDER for eager paging,
        sorted free list for CA, THP off for Ingens).
    policy:
        A policy instance or short name (``"ca"``, ``"thp"``, ...).
    aged:
        Churn the allocator at boot so free lists lose their address
        ordering (the realistic aged-machine condition the paper's
        motivation relies on).
    """

    def __init__(
        self,
        config: SystemConfig,
        policy: PlacementPolicy | str,
        aged: bool = True,
    ):
        if isinstance(policy, str):
            config = config.for_policy(policy)
            policy = make_policy(policy)
        self.config = config
        self.policy = policy
        self.rng = random.Random(config.seed)
        self.mem = PhysicalMemory(
            list(config.node_pages),
            max_order=config.max_order,
            sorted_max_order=config.sorted_max_order,
        )
        if aged:
            self._apply_system_reserve()
            if config.churn_ops:
                self.mem.churn(config.churn_ops, self.rng)
        self.kernel = Kernel(
            self.mem,
            self.policy,
            thp=config.thp,
            contig_threshold=config.contig_threshold,
            tick_every_faults=config.tick_every_faults,
        )
        self._hog_blocks: list[tuple[int, int]] = []

    def _apply_system_reserve(self) -> None:
        """Pin boot-time kernel memory (text, initrd, daemons).

        The pins stay for the machine's lifetime: mostly contiguous at
        the bottom of each node plus a few scattered blocks, so each
        node keeps a small number of large free clusters — the boot
        state CA paging's placement works against.
        """
        if self.config.reserve_fraction <= 0:
            return
        self.mem.boot_reserve(self.config.reserve_fraction, self.rng)

    # -- fragmentation control ------------------------------------------------

    def hog(self, fraction: float, block_order: int | None = None) -> None:
        """Pin a fraction of memory to model external fragmentation.

        Pins at the paper's >2 MiB granularity by default even when the
        machine runs a raised MAX_ORDER (eager paging), so fragmentation
        conditions are identical across baselines.
        """
        from repro.units import DEFAULT_MAX_ORDER

        if block_order is None:
            block_order = min(DEFAULT_MAX_ORDER, self.config.max_order)
        self._hog_blocks.extend(
            self.mem.hog(fraction, self.rng, block_order=block_order)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine(policy={self.policy.name}, pages={self.mem.n_pages})"


def build_machine(policy_name: str, config: SystemConfig | None = None,
                  aged: bool = True, **policy_kwargs) -> Machine:
    """Convenience constructor used by experiments and examples."""
    cfg = (config or SystemConfig()).for_policy(policy_name)
    policy = make_policy(policy_name, **policy_kwargs)
    return Machine(cfg, policy, aged=aged)
