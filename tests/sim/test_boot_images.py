"""Aged boots restored from the per-process boot image memo.

``boot_memory`` boots a key fresh twice (storing an image on the second
boot) and restores every later boot from that image.  A restored boot
must be indistinguishable from a fresh one: the same pickled memory,
the same RNG state, canonical column dtypes (a checkpoint of a VM on a
restored boot must not move), and no state shared between restores.
"""

import pickle

import numpy as np
import pytest

from repro.experiments import common
from repro.sim import machine as machine_mod
from repro.sim.config import QUICK_SCALE, TEST_SCALE, SystemConfig
from repro.sim.machine import Machine

POLICIES = ("default", "thp", "ca", "eager", "ingens", "ranger", "ideal")
SCALES = (TEST_SCALE, QUICK_SCALE)
COLUMNS = ("free_order", "refcount", "mapcount", "owner", "alloc_order")


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    """Each test starts with no boot registered."""
    monkeypatch.setattr(machine_mod, "_BOOT_IMAGES", {})


def boot(policy, scale, aged=True):
    return Machine(SystemConfig.from_scale(scale), policy, aged=aged)


def images():
    return {k: v for k, v in machine_mod._BOOT_IMAGES.items() if v is not None}


def boot_state(machine):
    return pickle.dumps(machine.mem), machine.rng.getstate()


@pytest.mark.parametrize("aged", [True, False])
@pytest.mark.parametrize("scale", SCALES, ids=lambda s: s.name)
@pytest.mark.parametrize("policy", POLICIES)
def test_restored_boot_equals_fresh_boot(policy, scale, aged):
    fresh = boot(policy, scale, aged)
    stored = boot(policy, scale, aged)  # the second boot stores the image
    assert len(images()) == (1 if aged else 0)
    restored = boot(policy, scale, aged)
    assert boot_state(stored) == boot_state(fresh)
    assert boot_state(restored) == boot_state(fresh)
    assert restored.mem is not fresh.mem
    for zone in restored.mem.zones:
        for name in COLUMNS:
            column = getattr(zone.frames, name)
            assert column.dtype is np.dtype(column.dtype.str), name
            assert column.flags.writeable


@pytest.mark.parametrize("policies", [("ca", "ca"), ("thp", "thp")])
def test_vm_on_restored_boots_checkpoints_like_fresh(policies):
    # The host and the guest boot are both restored by the third VM; a
    # restored column with a non-canonical dtype changes the pickle
    # memo of the whole-VM checkpoint.
    digests = [
        common.checkpoint_vm(common.virtual_machine(*policies, TEST_SCALE))[1]
        for _ in range(3)
    ]
    assert len(images()) == 2
    assert digests[2] == digests[1] == digests[0]


@pytest.mark.parametrize("scale", SCALES, ids=lambda s: s.name)
def test_mutating_a_restored_machine_leaves_the_image_intact(scale):
    fresh_state = boot_state(boot("ca", scale))
    boot("ca", scale)
    victim = boot("ca", scale)
    victim.hog(0.3)
    victim.mem.alloc_block(0)
    for zone in victim.mem.zones:
        zone.frames.mapcount += 7
    victim.rng.random()
    assert boot_state(victim) != fresh_state
    assert boot_state(boot("ca", scale)) == fresh_state


def test_a_key_booted_once_stores_no_image():
    boot("thp", QUICK_SCALE)
    boot("ca", QUICK_SCALE)
    assert len(machine_mod._BOOT_IMAGES) == 2
    assert images() == {}


def test_thp_and_ingens_share_one_boot_image():
    # Their post-``for_policy`` configs differ only in ``thp``, which
    # boot does not read.
    first = boot_state(boot("thp", QUICK_SCALE))
    boot("ingens", QUICK_SCALE)
    assert len(images()) == 1
    assert boot_state(boot("ingens", QUICK_SCALE)) == first
