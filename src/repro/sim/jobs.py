"""Job-graph execution for experiments: run cells, DAG fan-out, memoize.

Every experiment decomposes into **run cells** — hashable units of
simulation work such as "run ``svm`` under ``ca`` at quick scale" or
"advance the aging CA+CA VM by one workload stage".  A cell names a
module-level function plus keyword arguments that are all simple
values (primitives, tuples, dataclasses), optionally **depending on
other cells** whose results are passed as leading positional
arguments.  That makes a cell:

- *executable anywhere* — a worker process imports the function and
  calls it with the dependency results plus the kwargs;
- *content-addressable* — the spec digests to a stable key (see
  :mod:`repro.sim.cache`) covering the whole dependency prefix, so
  identical cells from sibling experiments (fig 11 / table V / table
  VI sweep the same native grid; fig 13 / 14 / table VII share the
  CA+CA virtualized chain stages) are computed once;
- *deterministic* — cells build their machines from seeded configs and
  must not read process-global mutable state, so a cell's result is a
  pure function of its spec and results collect in input order
  regardless of scheduling.

The :class:`Executor` runs a batch of cells serially (``jobs=1``,
in-process) or through a **persistent** ``ProcessPoolExecutor``,
consulting an optional :class:`~repro.sim.cache.RunCache` before
computing and storing every fresh result the moment it lands (so an
interrupted run resumes from its last completed stage).  Scheduling is
dependency-aware: a topological ready-queue dispatches
critical-path-first (longest remaining chain wins), chain stages go
out solo so their successors unblock as early as possible, and
independent leaf cells are batched per submission to amortize
pickle/spawn overhead.  Worker crashes — real ``BrokenProcessPool``
breakage or faults injected through :mod:`repro.chaos` — are absorbed
by bounded retry-with-backoff; because cells are pure, the retried
results are byte-identical to an undisturbed run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import heapq
import importlib
import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.chaos.clock import CLOCK
from repro.errors import ConfigError
from repro.metrics.profiling import Histogram
from repro.sim import transport
from repro.sim.cache import MISS, RunCache, spec_digest

#: Compute-time / queue-wait buckets (seconds).  Cheap native cells sit
#: in the head, aging-VM chain stages in the 1–60 s tail.
CELL_SECONDS_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: Most leaf cells one pool submission carries (amortizes pickle/spawn
#: without starving other workers).
MAX_BATCH = 8


class WorkerCrashLoop(RuntimeError):
    """A cell's worker kept crashing past the retry budget."""


@dataclass(frozen=True)
class Cell:
    """One hashable unit of experiment work.

    ``fn`` is a ``"module.path:function"`` reference to a module-level
    callable; ``kwargs`` is a sorted tuple of keyword arguments;
    ``deps`` names cells whose results are passed as leading positional
    arguments (the stage-checkpoint chains).  Build cells with
    :func:`cell` rather than directly.
    """

    fn: str
    kwargs: tuple[tuple[str, Any], ...] = ()
    deps: tuple["Cell", ...] = ()

    def resolve(self) -> Callable[..., Any]:
        """Import and return the cell function."""
        module_name, _, attr = self.fn.partition(":")
        if not attr:
            raise ConfigError(f"cell fn must be 'module:function', got {self.fn!r}")
        return getattr(importlib.import_module(module_name), attr)

    def spec(self) -> dict:
        """The cell as plain data (input of the cache key).

        Dependencies encode recursively, so a stage's content address
        covers its whole chain prefix — any change to an earlier stage
        (or its kwargs) shifts every address downstream of it.
        """
        out: dict = {"fn": self.fn, "kwargs": dict(self.kwargs)}
        if self.deps:
            out["deps"] = [d.spec() for d in self.deps]
        return out

    def key(self, salt: str) -> str:
        """Content address of this cell under a code salt."""
        return spec_digest(self.spec(), salt)

    def label(self) -> str:
        """Human-readable call form for logs, events and reports.

        Every kwarg is shown (dataclass values with only their
        non-default fields), and dependencies as a leading ``<n deps>``,
        so cells that differ in any kwarg or chain position read
        differently.
        """
        args = [f"<{len(self.deps)} deps>"] if self.deps else []
        args += [f"{k}={_label_value(v)}" for k, v in self.kwargs]
        return f"{self.fn.rpartition(':')[2]}({', '.join(args)})"


def _label_value(value: Any) -> str:
    """``repr`` of a cell kwarg; a dataclass shows only the fields that
    differ from their declared defaults."""
    if not dataclasses.is_dataclass(value) or isinstance(value, type):
        return repr(value)
    fields = ", ".join(
        f"{f.name}={getattr(value, f.name)!r}"
        for f in dataclasses.fields(value)
        if getattr(value, f.name) != f.default
    )
    return f"{type(value).__name__}({fields})"


def cell(fn: str, deps: Sequence[Cell] = (), **kwargs) -> Cell:
    """Build a :class:`Cell` with canonically ordered kwargs."""
    return Cell(fn=fn, kwargs=tuple(sorted(kwargs.items())), deps=tuple(deps))


def execute_cell(c: Cell, dep_values: Sequence[Any] = ()) -> Any:
    """Run one cell in the current process (also the worker entry)."""
    return c.resolve()(*dep_values, **dict(c.kwargs))


def _pool_run_batch(
    items: list[tuple[Cell, tuple]]
) -> list[tuple[float, float, bytes]]:
    """Worker entry: run a batch of (cell, dep_values) sequentially.

    Returns ``(started_wall, compute_seconds, blob)`` per item so the
    submitting side can attribute queue wait (submit → start, wall
    clocks are comparable across processes) and compute time.  Results
    cross the process boundary as framed RPT1 blobs
    (:func:`repro.sim.transport.dumps`) rather than default futures
    pickles: numpy-heavy results (chain stages hauling VM checkpoints)
    shrink by orders of magnitude before they hit the pipe, and the
    submitting side reuses the exact worker-encoded bytes for the cache
    entry, so each result is framed once, ever.  Encoding happens
    outside the timed section — it is transport cost, not compute.
    """
    out = []
    for c, dep_values in items:
        started_wall = time.time()
        t0 = time.perf_counter()
        value = execute_cell(c, dep_values)
        seconds = time.perf_counter() - t0
        out.append((started_wall, seconds, transport.dumps(value)))
    return out


@functools.lru_cache(maxsize=None)
def _mp_context() -> multiprocessing.context.BaseContext:
    """The pinned start method for the persistent worker pool.

    The stdlib default drifts by platform and version (``fork`` on
    POSIX ≤3.13, ``spawn`` later) and ``fork`` is unsafe under the
    serve layer's threads.  Pinning ``forkserver`` keeps behaviour
    identical everywhere that has it, and preloading this module into
    the forkserver template imports numpy and the repro package once —
    every worker then forks from the warm template instead of paying
    the interpreter+numpy import on each spawn.
    """
    if "forkserver" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("forkserver")
        try:
            ctx.set_forkserver_preload(["repro.sim.jobs"])
        except (AttributeError, ValueError):  # pragma: no cover
            pass
        return ctx
    return multiprocessing.get_context("spawn")  # pragma: no cover


@dataclass
class Plan:
    """An experiment's declared cells plus the function assembling the
    cell results (in cell order) into the experiment's result object."""

    cells: list[Cell]
    assemble: Callable[[Sequence[Any]], Any]

    def run(self, executor: "Executor | None" = None) -> Any:
        """Execute the plan's cells and assemble the result."""
        return self.assemble(execute(self.cells, executor))


@dataclass
class ExecutorStats:
    """Per-executor counters (reported by the CLI and the benches).

    ``pool_failures`` counts batches whose worker pool broke (a worker
    crashed hard — OOM killer, segfault, ``os._exit``); the cells the
    pool never delivered are recomputed serially in-process and counted
    in ``retried_serial``, so one crashed worker degrades throughput
    instead of failing the batch.  ``worker_crashes`` counts individual
    lost-cell crashes (real or injected) and ``cell_retries`` the
    backed-off retries that answered them.
    """

    submitted: int = 0
    computed: int = 0
    cache_hits: int = 0
    deduped: int = 0
    pool_failures: int = 0
    retried_serial: int = 0
    worker_crashes: int = 0
    cell_retries: int = 0

    def merge(self, other: "ExecutorStats") -> None:
        self.submitted += other.submitted
        self.computed += other.computed
        self.cache_hits += other.cache_hits
        self.deduped += other.deduped
        self.pool_failures += other.pool_failures
        self.retried_serial += other.retried_serial
        self.worker_crashes += other.worker_crashes
        self.cell_retries += other.cell_retries


class Executor:
    """Runs cell DAGs with optional parallelism and memoization.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs cells inline in
        topological order — byte-identical behaviour, no fork cost.
    cache:
        A :class:`RunCache` consulted per cell; ``None`` disables
        memoization (the default, so library callers and tests are
        unaffected unless they opt in).
    progress:
        Optional ``callback(event, cell)`` fired as each unique cell
        resolves, with ``event`` one of ``"cache_hit"`` or
        ``"computed"``.  In the pool path it fires from the submitting
        thread as futures complete (not in cell-key order); the serving
        layer uses it to stream per-cell progress.  Deduplicated twin
        cells do not fire.
    injector:
        Optional :class:`~repro.chaos.FaultInjector` driving the
        ``pool.submit`` / ``pool.worker`` / ``clock`` fault sites.
        Decisions are keyed by cell content address, so the same seed
        crashes the same cells whatever the fan-out width or harvest
        order.
    clock:
        Time source for retry backoff (:data:`repro.chaos.CLOCK` by
        default; tests inject a fake).
    max_attempts:
        Retry budget per cell for worker crashes (first try included).
    backoff_base:
        First retry delay in seconds; doubles per further attempt.
    batch:
        Leaf cells per pool submission (``None`` sizes automatically
        from the ready-queue depth, capped at :data:`MAX_BATCH`).

    The worker pool is created lazily and **persists across**
    :meth:`run` calls, so repeated batches reuse warm workers; call
    :meth:`close` (or use the executor as a context manager) to shut
    it down.  ``compute_hist`` / ``queue_wait_hist`` collect per-cell
    compute seconds and submit-to-start queue wait, exported by the
    serve layer through ``/metrics``.
    """

    def __init__(self, jobs: int = 1, cache: RunCache | None = None,
                 progress: Callable[[str, Cell], None] | None = None,
                 injector=None, clock=None, max_attempts: int = 4,
                 backoff_base: float = 0.05, batch: int | None = None):
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.progress = progress
        self.injector = injector
        self.clock = clock if clock is not None else CLOCK
        self.max_attempts = max(1, int(max_attempts))
        self.backoff_base = backoff_base
        self.batch = batch
        self.stats = ExecutorStats()
        self.compute_hist = Histogram(CELL_SECONDS_BUCKETS)
        self.queue_wait_hist = Histogram(CELL_SECONDS_BUCKETS)
        self._salt = cache.salt if cache is not None else ""
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=_mp_context()
            )
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a broken pool; the next parallel run builds a fresh one."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _notify(self, event: str, c: Cell) -> None:
        if self.progress is not None:
            self.progress(event, c)

    # -- the run -------------------------------------------------------

    def run(self, cells: Sequence[Cell]) -> list[Any]:
        """Execute ``cells`` (and their dependencies); results return in
        input order.

        Duplicate cells (same content address) are computed once per
        batch; cache hits skip computation entirely — including the
        dependencies of a hit, which are never even looked up unless
        some other pending cell needs them.  Every fresh result is
        cached the moment it lands, so an interrupted run resumes from
        its last completed stage.
        """
        cells = list(cells)
        self.stats.submitted += len(cells)
        key_memo: dict[int, str] = {}

        def key_of(c: Cell) -> str:
            k = key_memo.get(id(c))
            if k is None:
                k = c.key(self._salt)
                key_memo[id(c)] = k
            return k

        requested = [(key_of(c), c) for c in cells]
        results: dict[str, Any] = {}
        seen: set[str] = set()
        frontier: list[tuple[str, Cell]] = []
        for k, c in requested:
            if k in seen:
                self.stats.deduped += 1
                continue
            seen.add(k)
            if not self._from_cache(k, c, results):
                frontier.append((k, c))

        # Expand the misses into the cell DAG they actually need: a
        # pending cell pulls in each dependency unless that dependency
        # is itself served from the cache (the resume path recomputes
        # only unfinished stages).  ``topo`` lists dependencies before
        # their dependents.
        univ: dict[str, Cell] = {}
        topo: list[str] = []

        def expand(k: str, c: Cell) -> None:
            if k in univ or k in results:
                return
            univ[k] = c
            for d in c.deps:
                dk = key_of(d)
                if dk in univ or dk in results:
                    continue
                if not self._from_cache(dk, d, results):
                    expand(dk, d)
            topo.append(k)

        for k, c in frontier:
            expand(k, c)

        if topo:
            dependents: dict[str, list[str]] = {k: [] for k in topo}
            waiting: dict[str, int] = {}
            for k in topo:
                n = 0
                for d in univ[k].deps:
                    dk = key_of(d)
                    if dk in dependents:
                        dependents[dk].append(k)
                        n += 1
                waiting[k] = n
            # Critical-path priority: longest remaining chain below a
            # cell (itself included).  Chains dispatch head-first.
            depth: dict[str, int] = {}
            for k in reversed(topo):
                depth[k] = 1 + max(
                    (depth[m] for m in dependents[k]), default=0
                )
            if self.jobs == 1 or len(topo) == 1:
                self._run_serial(topo, univ, results, key_of)
            else:
                self._run_pool(
                    topo, univ, dependents, waiting, depth, results, key_of
                )

        return [results[k] for k, _ in requested]

    def _from_cache(self, key: str, c: Cell, results: dict[str, Any]) -> bool:
        if self.cache is None:
            return False
        hit = self.cache.get(key)
        if hit is MISS:
            return False
        results[key] = hit
        self.stats.cache_hits += 1
        self._notify("cache_hit", c)
        return True

    def _dep_values(self, c: Cell, results: dict[str, Any],
                    key_of: Callable[[Cell], str]) -> tuple:
        return tuple(results[key_of(d)] for d in c.deps)

    def _store(self, key: str, c: Cell, value: Any,
               results: dict[str, Any],
               encoded: bytes | None = None) -> None:
        """Land one computed result: memoize immediately, then notify.

        ``encoded`` carries the worker's framed blob from the pool path
        so the cache stores those exact bytes instead of re-framing the
        value."""
        results[key] = value
        self.stats.computed += 1
        if self.cache is not None:
            if encoded is not None:
                self.cache.put_encoded(key, encoded)
            else:
                self.cache.put(key, value)
        self._notify("computed", c)

    def _run_serial(self, topo: list[str], univ: dict[str, Cell],
                    results: dict[str, Any],
                    key_of: Callable[[Cell], str],
                    count_retries: bool = False) -> None:
        for k in topo:
            if k in results:
                continue
            c = univ[k]
            deps = self._dep_values(c, results, key_of)
            t0 = time.perf_counter()
            value = self._attempt_cell(k, c, dep_values=deps)
            self.compute_hist.observe(time.perf_counter() - t0)
            self._store(k, c, value, results)
            if count_retries:
                self.stats.retried_serial += 1

    # -- crash recovery -----------------------------------------------

    def _backoff(self, attempt: int, token: str) -> None:
        """Exponential backoff before a retry (``clock`` fault site).

        An injected clock fault models the monotonic clock jumping past
        the backoff deadline (suspend/resume, NTP step): the retry must
        proceed correctly without the real wait.
        """
        delay = self.backoff_base * (2 ** (attempt - 1))
        if self.injector is not None:
            record = self.injector.fire("clock", token)
            if record is not None:
                self.injector.recover(record, "jump_absorbed")
                return
        self.clock.sleep_sync(delay)

    def _attempt_cell(self, key: str, c: Cell, value: Any = MISS,
                      dep_values: Sequence[Any] = ()) -> Any:
        """Obtain one cell's result, surviving (injected) worker crashes.

        ``value`` carries an already-computed result from the pool path;
        :data:`MISS` means "compute here".  Each attempt may be lost to
        a ``pool.worker`` fault — the attempt's result is discarded as
        if the worker died before delivering — and is retried after
        backoff, up to ``max_attempts``.  Cells are pure functions of
        their spec, so a retried attempt reproduces the identical
        result.
        """
        for attempt in range(self.max_attempts):
            record = (self.injector.fire("pool.worker", f"{key}#a{attempt}")
                      if self.injector is not None else None)
            if record is None:
                return execute_cell(c, dep_values) if value is MISS else value
            value = MISS  # the crashed worker's result is lost
            self.stats.worker_crashes += 1
            if attempt + 1 >= self.max_attempts:
                raise WorkerCrashLoop(
                    f"cell {c.label()} lost {self.max_attempts} worker "
                    f"attempt(s); giving up"
                )
            self.stats.cell_retries += 1
            self.injector.recover(record, f"retry_{attempt + 1}")
            self._backoff(attempt + 1, f"{key}#b{attempt}")
        raise AssertionError("unreachable")  # pragma: no cover

    # -- the pool path ------------------------------------------------

    def _take_batch(self, ready: list[tuple[int, int, str]]) -> list[str]:
        """Pop one submission's worth of ready cells (priority order).

        A chain stage — any cell something else is waiting on — goes
        out alone so its successor unblocks as early as possible.
        Leaves (nothing downstream) batch together to amortize the
        per-submission pickle/dispatch cost.
        """
        neg_depth, _, first = heapq.heappop(ready)
        if -neg_depth > 1:
            return [first]
        limit = self.batch or max(
            1, min(MAX_BATCH, (len(ready) + 1) // (self.jobs * 2))
        )
        batch = [first]
        while ready and len(batch) < limit and ready[0][0] == -1:
            batch.append(heapq.heappop(ready)[2])
        return batch

    def _run_pool(self, topo: list[str], univ: dict[str, Cell],
                  dependents: dict[str, list[str]],
                  waiting: dict[str, int], depth: dict[str, int],
                  results: dict[str, Any],
                  key_of: Callable[[Cell], str]) -> None:
        """Dependency-aware fan-out over the persistent worker pool.

        Ready cells dispatch longest-remaining-chain-first; workers
        that free up steal whatever is highest-priority next, so short
        cells fill the gaps while chains pipeline.  A worker dying hard
        (OOM kill, segfault) raises ``BrokenProcessPool`` for every
        undelivered future; unfinished cells are then retried serially
        in-process so the batch still completes.  An injected
        ``pool.submit`` fault breaks the whole dispatch the same way;
        injected ``pool.worker`` faults lose single cells at harvest
        time and go through the bounded backoff retry.  Cell exceptions
        (the function itself raising) propagate unchanged.
        """
        if self.injector is not None:
            batch_token = hashlib.sha256(
                "|".join(topo).encode()
            ).hexdigest()[:16]
            record = self.injector.fire("pool.submit", batch_token)
            if record is not None:
                self.stats.pool_failures += 1
                self._run_serial(topo, univ, results, key_of,
                                 count_retries=True)
                self.injector.recover(record, "serial_retry")
                return
        seq = {k: i for i, k in enumerate(topo)}
        ready: list[tuple[int, int, str]] = []
        for k in topo:
            if waiting[k] == 0:
                heapq.heappush(ready, (-depth[k], seq[k], k))
        inflight: dict = {}
        max_inflight = self.jobs * 2
        try:
            pool = self._ensure_pool()
            while ready or inflight:
                while ready and len(inflight) < max_inflight:
                    batch_keys = self._take_batch(ready)
                    items = [
                        (univ[k], self._dep_values(univ[k], results, key_of))
                        for k in batch_keys
                    ]
                    fut = pool.submit(_pool_run_batch, items)
                    inflight[fut] = (batch_keys, time.time())
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for fut in done:
                    batch_keys, submitted_wall = inflight.pop(fut)
                    for k, (started_wall, seconds, blob) in zip(
                        batch_keys, fut.result()
                    ):
                        self.queue_wait_hist.observe(
                            started_wall - submitted_wall
                        )
                        self.compute_hist.observe(seconds)
                        c = univ[k]
                        value = transport.loads(blob)
                        crashes = self.stats.worker_crashes
                        value = self._attempt_cell(
                            k, c, value,
                            dep_values=self._dep_values(c, results, key_of),
                        )
                        # Reuse the worker's bytes only if the result
                        # survived harvest untouched (no injected crash
                        # forced a local recompute).
                        encoded = (
                            blob if self.stats.worker_crashes == crashes
                            else None
                        )
                        self._store(k, c, value, results, encoded=encoded)
                        for m in dependents[k]:
                            waiting[m] -= 1
                            if waiting[m] == 0:
                                heapq.heappush(
                                    ready, (-depth[m], seq[m], m)
                                )
        except BrokenProcessPool:
            self.stats.pool_failures += 1
            self._discard_pool()
            self._run_serial(topo, univ, results, key_of, count_retries=True)


def execute(cells: Sequence[Cell], executor: Executor | None = None) -> list[Any]:
    """Run cells through ``executor`` (or a fresh serial one)."""
    return (executor or Executor()).run(cells)


def run_plans(
    plans: Sequence[Plan], executor: Executor | None = None
) -> list[Any]:
    """Execute several experiments' plans through one shared fan-out.

    All cells are concatenated into a single batch — so the pool stays
    saturated across experiment boundaries and cells shared *between*
    experiments (identical content address) are computed once — then
    each plan assembles from its own slice.
    """
    executor = executor or Executor()
    flat: list[Cell] = []
    for plan in plans:
        flat.extend(plan.cells)
    results = executor.run(flat)
    out = []
    offset = 0
    for plan in plans:
        n = len(plan.cells)
        out.append(plan.assemble(results[offset:offset + n]))
        offset += n
    return out
