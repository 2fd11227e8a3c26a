"""Parameter sweeps over the policy × scheme × workload grid.

The paper's central trade-off — translation overhead vs. memory bloat
across the software policies (THP, Ingens, CA, eager, …) and the
hardware schemes (radix paging, SpOT, vRMM, DS) — is only visible when
many (policy, scheme, workload) points are measured together:

- :mod:`repro.sweep.grid` — a declarative :class:`SweepSpec` whose axes
  expand into deduplicated run cells keyed by the same content
  addresses the run cache already uses;
- :mod:`repro.sweep.runner` — runs a grid's cells through one
  :class:`~repro.sim.jobs.Executor` batch (sharing the process pool
  and any cache tier);
- :mod:`repro.sweep.frontier` — extracts overhead/bloat/contiguity
  metrics per grid point and computes exact Pareto frontiers plus
  contiguity-CDF and walk-cycle summaries as plain dicts.

The CLI entry is ``repro sweep``.
"""

from repro.sweep.frontier import pareto_frontier, point_metrics
from repro.sweep.grid import SCHEMES, GridPoint, SweepSpec, SweepValidationError
from repro.sweep.runner import run_sweep

__all__ = [
    "SCHEMES",
    "GridPoint",
    "SweepSpec",
    "SweepValidationError",
    "pareto_frontier",
    "point_metrics",
    "run_sweep",
]
