"""Declarative sweep grids over policy × scheme × workload.

A :class:`SweepSpec` names axis *values* — placement policies, hardware
translation schemes, workloads — plus the shared knobs (scale profile,
trace length, seed, memory-hog pressure) and optional include/exclude
filters.  It expands into :class:`GridPoint`\\ s, and each point maps
onto the **existing** content-addressed run cells
(:func:`repro.experiments.common.run_cell_native` for
bloat/contiguity, :func:`~repro.experiments.common.run_cell_native_sim`
for the TLB/scheme simulation), so:

- all schemes of one (policy, workload) pair share the *same* two
  cells — the MMU simulator runs every scheme machine in one pass,
  exactly like fig 13 reads SpOT/vRMM/DS off one simulation;
- sweep cells are shared verbatim with the figure experiments (the
  native grid of fig 11 / Table V / Table VI) and with every other
  sweep through the run cache, keyed by the same spec digests;
- a repeated or overlapping sweep recomputes nothing.

Axis values are validated eagerly against the simulator's registries
(:func:`repro.policies.make_policy` names, the workload suite, the CLI
scale table, :data:`SCHEMES`), so a bad request fails before any work
is admitted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import ConfigError
from repro.sim.cache import encode_spec
from repro.sim.config import HardwareConfig
from repro.sim.jobs import Cell, cell
from repro.sim.runner import RunOptions

#: Hardware translation schemes a sweep can place on the frontier.
#: ``paging`` is the baseline radix walk (THP-grained nested/native
#: paging); spot/vrmm/ds are the paper's L2-miss-path schemes, and
#: ctlb/utopia/seg the related-work extensions (run-coalescing TLB,
#: Utopia hybrid mappings, segmentation baseline).
SCHEMES = ("paging", "spot", "vrmm", "ds", "ctlb", "utopia", "seg")

#: Default scheme axis: the paper's own comparison.  The related-work
#: schemes are default-off on the axis — requests opt in explicitly —
#: so the stock grid (and its cache digests/CI gates) keeps its size;
#: either way every scheme reads its column off the same shared
#: simulation cells.
BASE_SCHEMES = ("paging", "spot", "vrmm", "ds")

#: Software placement policies accepted on the policy axis (the
#: :func:`repro.policies.make_policy` registry, minus the ``default``
#: alias so one spelling has one digest).
POLICIES = ("thp", "ca", "eager", "ingens", "ranger", "ideal")

#: Workloads accepted on the workload axis (Table III suite + extras).
WORKLOADS = ("svm", "pagerank", "hashjoin", "xsbench", "bt",
             "tlbfriendly", "gups")

#: Default trace length per simulated point (shorter than fig 13's
#: 200k: sweeps trade per-point resolution for grid breadth).
DEFAULT_TRACE_LEN = 50_000

#: Hard cap on expanded grid points per sweep, so a typo in an axis
#: list cannot queue an unbounded amount of work.
MAX_POINTS = 512


class SweepValidationError(ConfigError):
    """The sweep spec names an axis value the registries don't have."""


@dataclass(frozen=True)
class GridPoint:
    """One (policy, scheme, workload) coordinate of an expanded grid."""

    policy: str
    scheme: str
    workload: str

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.policy}/{self.scheme}"

    def as_dict(self) -> dict:
        return {"policy": self.policy, "scheme": self.scheme,
                "workload": self.workload}

    def matches(self, clause: tuple[tuple[str, str], ...]) -> bool:
        """True when every (axis, value) pair of a filter clause holds."""
        return all(getattr(self, axis) == value for axis, value in clause)


def _clauses(raw: Any, what: str) -> tuple[tuple[tuple[str, str], ...], ...]:
    """Normalize filter clauses: a list of {axis: value} mappings.

    Each clause is stored as a sorted tuple of (axis, value) pairs so
    the spec stays hashable and digests canonically.
    """
    if raw is None:
        return ()
    if not isinstance(raw, (list, tuple)):
        raise SweepValidationError(
            f"{what} must be a list of axis filters, got {type(raw).__name__}"
        )
    out = []
    for entry in raw:
        if isinstance(entry, dict):
            pairs = entry.items()
        elif isinstance(entry, (list, tuple)):
            pairs = entry
        else:
            raise SweepValidationError(
                f"each {what} filter must be an object like "
                f'{{"policy": "ca"}}, got {entry!r}'
            )
        clause = []
        for axis, value in pairs:
            if axis not in ("policy", "scheme", "workload"):
                raise SweepValidationError(
                    f"{what} filter axis must be policy/scheme/workload, "
                    f"got {axis!r}"
                )
            clause.append((str(axis), str(value)))
        if not clause:
            raise SweepValidationError(f"empty {what} filter clause")
        out.append(tuple(sorted(clause)))
    return tuple(out)


def _axis(values: Any, allowed: Sequence[str], what: str) -> tuple[str, ...]:
    """Validate one axis: known values, no duplicates, non-empty."""
    if isinstance(values, str):
        values = [v for v in values.replace(",", " ").split() if v]
    if not isinstance(values, (list, tuple)) or not values:
        raise SweepValidationError(
            f"{what} must be a non-empty list, got {values!r}"
        )
    seen: list[str] = []
    for value in values:
        name = str(value).lower()
        if name not in allowed:
            singular = {"policies": "policy", "schemes": "scheme",
                        "workloads": "workload"}.get(what, what)
            raise SweepValidationError(
                f"unknown {singular} {value!r}; "
                f"choose from {sorted(allowed)}"
            )
        if name not in seen:
            seen.append(name)
    return tuple(seen)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep over the policy × scheme × workload grid.

    ``include`` (when non-empty) keeps only points matching at least
    one clause; ``exclude`` then drops points matching any clause.
    Each clause is a conjunction of (axis, value) pairs.
    """

    policies: tuple[str, ...]
    schemes: tuple[str, ...] = BASE_SCHEMES
    workloads: tuple[str, ...] = ("svm", "pagerank", "hashjoin")
    scale: str = "quick"
    trace_len: int = DEFAULT_TRACE_LEN
    seed: int = 0
    hog: float = 0.0
    include: tuple[tuple[tuple[str, str], ...], ...] = ()
    exclude: tuple[tuple[tuple[str, str], ...], ...] = ()
    hw: HardwareConfig = field(default_factory=HardwareConfig)

    @classmethod
    def from_request(cls, data: Any) -> "SweepSpec":
        """Build and validate a spec from a JSON request body."""
        if not isinstance(data, dict):
            raise SweepValidationError(
                'sweep body must be an object like {"policies": [...], '
                '"schemes": [...], "workloads": [...]}'
            )
        from repro.cli import SCALES

        known = {
            "policies", "schemes", "workloads", "scale", "trace_len",
            "seed", "hog", "include", "exclude",
        }
        unknown = set(data) - known
        if unknown:
            raise SweepValidationError(
                f"unknown sweep field(s) {sorted(unknown)}; "
                f"allowed: {sorted(known)}"
            )
        scale = str(data.get("scale", "quick"))
        if scale not in SCALES:
            raise SweepValidationError(
                f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
            )
        try:
            trace_len = int(data.get("trace_len", DEFAULT_TRACE_LEN))
            seed = int(data.get("seed", 0))
            hog = float(data.get("hog", 0.0))
        except (TypeError, ValueError) as exc:
            raise SweepValidationError(
                f"trace_len/seed must be integers and hog a number: {exc}"
            ) from None
        if not 0 < trace_len <= 5_000_000:
            raise SweepValidationError(
                f"trace_len must be in (0, 5000000], got {trace_len}"
            )
        if not 0.0 <= hog < 1.0:
            raise SweepValidationError(f"hog must be in [0, 1), got {hog}")
        spec = cls(
            policies=_axis(data.get("policies", ("thp", "ca")),
                           POLICIES, "policies"),
            schemes=_axis(data.get("schemes", BASE_SCHEMES), SCHEMES,
                          "schemes"),
            workloads=_axis(data.get("workloads", ("svm", "pagerank",
                                                   "hashjoin")),
                            WORKLOADS, "workloads"),
            scale=scale,
            trace_len=trace_len,
            seed=seed,
            hog=hog,
            include=_clauses(data.get("include"), "include"),
            exclude=_clauses(data.get("exclude"), "exclude"),
        )
        points = spec.points()
        if not points:
            raise SweepValidationError(
                "sweep filters exclude every grid point"
            )
        if len(points) > MAX_POINTS:
            raise SweepValidationError(
                f"sweep expands to {len(points)} points, "
                f"above the {MAX_POINTS}-point cap"
            )
        return spec

    # -- expansion -----------------------------------------------------

    def points(self) -> list[GridPoint]:
        """Expand the axes through the filters, in canonical order."""
        out = []
        for workload in self.workloads:
            for policy in self.policies:
                for scheme in self.schemes:
                    p = GridPoint(policy=policy, scheme=scheme,
                                  workload=workload)
                    if self.include and not any(
                        p.matches(c) for c in self.include
                    ):
                        continue
                    if any(p.matches(c) for c in self.exclude):
                        continue
                    out.append(p)
        return out

    def _scale_profile(self):
        from repro.cli import SCALES

        return SCALES[self.scale]

    def cells_for(self, point: GridPoint) -> tuple[Cell, Cell]:
        """The (native run, MMU sim) cells one grid point needs.

        The scheme axis does not appear in either cell's spec: every
        scheme of a (policy, workload) pair reads a different counter
        off the same simulation, so the cells — and their cache
        entries — are shared across the whole scheme axis and with the
        figure experiments that sweep the same grid.
        """
        scale = self._scale_profile()
        native = cell(
            "repro.experiments.common:run_cell_native",
            workload=point.workload,
            policy=point.policy,
            scale=scale,
            seed=self.seed,
            options=RunOptions(sample_every=None),
            hog=self.hog,
        )
        sim = cell(
            "repro.experiments.common:run_cell_native_sim",
            workload=point.workload,
            policy=point.policy,
            scale=scale,
            hw=self.hw,
            trace_len=self.trace_len,
            seed=self.seed,
            hog=self.hog,
        )
        return native, sim

    def expand(self) -> tuple[list[GridPoint], list[Cell], list[tuple[int, int]]]:
        """``(points, unique_cells, per-point (native, sim) indices)``.

        ``unique_cells`` is deduplicated by content (scheme fan-out and
        repeated coordinates collapse), so ``len(unique_cells)`` is the
        number of distinct simulations the grid can ever cost.
        """
        points = self.points()
        cells: list[Cell] = []
        index: dict[str, int] = {}
        refs: list[tuple[int, int]] = []

        def intern(c: Cell) -> int:
            key = json.dumps(encode_spec(c.spec()), sort_keys=True,
                             separators=(",", ":"))
            i = index.get(key)
            if i is None:
                i = index[key] = len(cells)
                cells.append(c)
            return i

        for point in points:
            native, sim = self.cells_for(point)
            refs.append((intern(native), intern(sim)))
        return points, cells, refs

    # -- identity ------------------------------------------------------

    def as_dict(self) -> dict:
        """Plain-data form (the result echo)."""
        return {
            "policies": list(self.policies),
            "schemes": list(self.schemes),
            "workloads": list(self.workloads),
            "scale": self.scale,
            "trace_len": self.trace_len,
            "seed": self.seed,
            "hog": self.hog,
            "include": [[list(pair) for pair in clause]
                        for clause in self.include],
            "exclude": [[list(pair) for pair in clause]
                        for clause in self.exclude],
        }
