"""A native machine: physical memory + one kernel + one policy."""

from __future__ import annotations

import random

import numpy as np

from repro.mm.frame import FrameTable
from repro.mm.physmem import PhysicalMemory
from repro.policies import make_policy
from repro.policies.base import PlacementPolicy
from repro.sim import transport
from repro.sim.config import SystemConfig
from repro.sim.kernel import Kernel

#: Aged boot images by boot inputs.  A key's first boot only registers
#: it (``None``); its second stores the booted ``(mem, rng state)`` as a
#: compressed transport image, which every later boot of the key
#: restores into fresh objects.  A machine booted once costs nothing
#: extra, and the memo grows by one image per distinct key booted twice
#: (~8 KB at quick scale).
_BOOT_IMAGES: dict[tuple, bytes | None] = {}


def boot_memory(
    node_pages: tuple[int, ...],
    max_order: int,
    sorted_max_order: bool,
    reserve_fraction: float,
    churn_ops: int,
    seed: int,
) -> tuple[random.Random, PhysicalMemory]:
    """An aged machine's memory and RNG right after boot.

    Boot is ``PhysicalMemory`` construction,
    :meth:`~PhysicalMemory.boot_reserve` (when ``reserve_fraction > 0``),
    then :meth:`~PhysicalMemory.churn` of ``churn_ops`` operations, all
    drawing on ``Random(seed)`` — a pure function of the arguments, so repeat boots restore an image
    (see ``_BOOT_IMAGES``).  Returns ``(rng, mem)`` in the attribute
    order :class:`Machine` assigns them.
    """
    key = (tuple(node_pages), max_order, sorted_max_order,
           reserve_fraction, churn_ops, seed)
    image = _BOOT_IMAGES.get(key)
    if image is not None:
        return _restore_boot(image)
    rng = random.Random(seed)
    mem = PhysicalMemory(
        list(node_pages), max_order=max_order, sorted_max_order=sorted_max_order
    )
    if reserve_fraction > 0:
        mem.boot_reserve(reserve_fraction, rng)
    if churn_ops:
        mem.churn(churn_ops, rng)
    _BOOT_IMAGES[key] = (
        transport.dumps((mem, rng.getstate())) if key in _BOOT_IMAGES else None
    )
    return rng, mem


def _restore_boot(image: bytes) -> tuple[random.Random, PhysicalMemory]:
    """Fresh ``(rng, mem)`` objects from a boot image.

    Unpickled arrays carry their own (equal, not identical) dtype
    objects, which would change the pickle memo — and so the bytes — of
    every later checkpoint holding this memory; each frame column gets
    the canonical dtype back.
    """
    mem, state = transport.loads(image)
    for zone in mem.zones:
        frames = zone.frames
        for name in FrameTable.__slots__:
            column = getattr(frames, name)
            if isinstance(column, np.ndarray):
                setattr(frames, name, column.view(np.dtype(column.dtype.str)))
    rng = random.Random()
    rng.setstate(state)
    return rng, mem


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
        if aged:
            # Pins boot-time kernel memory (text, initrd, daemons) —
            # mostly contiguous at the bottom of each node plus a few
            # scattered blocks, kept for the machine's lifetime — then
            # churns the free lists.
            self.rng, self.mem = boot_memory(
                config.node_pages, config.max_order, config.sorted_max_order,
                config.reserve_fraction, config.churn_ops, config.seed,
            )
        else:
            self.rng = random.Random(config.seed)
            self.mem = PhysicalMemory(
                list(config.node_pages),
                max_order=config.max_order,
                sorted_max_order=config.sorted_max_order,
            )
        self.kernel = Kernel(
            self.mem,
            self.policy,
            thp=config.thp,
            contig_threshold=config.contig_threshold,
            tick_every_faults=config.tick_every_faults,
        )
        self._hog_blocks: list[tuple[int, int]] = []

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
