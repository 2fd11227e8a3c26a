"""Nested-span tracing of the simulator's layers, installed from outside.

The traced run replaces the public entry point of each layer (a kernel
method, a hypervisor method, a scheme machine's batch call, ...) with a
wrapper that opens a span around the call.  Nothing under ``src/`` is
edited: :class:`Tracer` patches the attributes on install and puts the
originals back on uninstall, so the untraced timing runs the program
exactly as shipped.

Spans are kept in memory as ``[name, start, end, parent]`` lists (the
parent is the index of the enclosing span, ``-1`` at the root) and can
be written out once the run ends.  A span's *self time* is its duration
minus the durations of its direct children; summing self time per span
name gives the per-layer breakdown, and the self times of all spans add
up to the durations of the root spans, which the runner reconciles
against the traced wall time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

#: Attribute set on every wrapper, so installed hooks can be detected.
MARK = "_perfbench_span"


@dataclass(frozen=True)
class Hook:
    """One traced entry point: ``module[.owner].attr`` under span ``span``.

    ``count`` maps ``(args, result)`` to ``{counter: increment}``; it is
    evaluated after the call returns, outside the span.
    """

    module: str
    owner: str | None
    attr: str
    span: str
    count: Callable[[tuple, object], dict] | None = None

    def resolve(self):
        target = importlib.import_module(self.module)
        return getattr(target, self.owner) if self.owner else target


def _one(counter: str) -> Callable[[tuple, object], dict]:
    return lambda args, out: {counter: 1}


def _returned(counter: str) -> Callable[[tuple, object], dict]:
    return lambda args, out: {counter: out}


def _sim_counts(args, out) -> dict:
    return {"hw.walks": out.walks, "hw.accesses": out.accesses}


#: Every traced layer entry point.  Module-level functions are patched
#: in each module that looks them up by name at call time.
HOOKS: tuple[Hook, ...] = (
    Hook("repro.sim.machine", "Machine", "__init__", "mm.boot", _one("mm.boots")),
    Hook("repro.sim.kernel", "Kernel", "touch_range", "kernel.touch"),
    Hook("repro.sim.kernel", "Kernel", "fault_span", "kernel.touch",
         lambda args, out: {"kernel.major_faults": out[0]}),
    Hook("repro.sim.kernel", "Kernel", "run_daemons", "kernel.daemons"),
    Hook("repro.sim.kernel", "Kernel", "exit_process", "kernel.exit"),
    Hook("repro.sim.kernel", "Kernel", "file_read", "page_cache.read",
         _one("page_cache.reads")),
    Hook("repro.sim.kernel", "Kernel", "drop_caches", "page_cache.drop",
         _returned("page_cache.pages_dropped")),
    Hook("repro.virt.hypervisor", "VirtualMachine", "__init__", "virt.vm_boot"),
    Hook("repro.virt.hypervisor", "VirtualMachine", "guest_touch_range",
         "virt.guest_touch"),
    Hook("repro.virt.hypervisor", "VirtualMachine", "guest_file_read",
         "virt.guest_read"),
    Hook("repro.sim.runner", None, "two_d_runs", "virt.two_d_runs",
         _one("virt.two_d_runs_calls")),
    Hook("repro.hw.translation", None, "two_d_runs", "virt.two_d_runs",
         _one("virt.two_d_runs_calls")),
    Hook("repro.sim.runner", None, "sample_contiguity", "metrics.sample",
         _one("metrics.samples")),
    Hook("repro.workloads.base", "Workload", "trace", "workloads.trace",
         lambda args, out: {"workloads.accesses": len(out)}),
    Hook("repro.hw.translation", "TranslationView", "native", "hw.view"),
    Hook("repro.hw.translation", "TranslationView", "virtualized", "hw.view"),
    Hook("repro.hw.translation", "TranslationView", "resolve", "hw.resolve"),
    Hook("repro.hw.tlb", "TlbHierarchy", "simulate", "hw.tlb"),
    Hook("repro.hw.mmu_sim", "MmuSimulator", "run", "hw.mmu", _sim_counts),
    Hook("repro.hw.spot", "SpotPredictor", "on_walks_batch", "hw.spot"),
    Hook("repro.hw.rmm", "RangeTlb", "on_miss_batch", "hw.rmm"),
    Hook("repro.hw.direct_segment", "DirectSegment", "on_miss_batch", "hw.ds"),
    Hook("repro.hw.coalesced_tlb", "CoalescedTlb", "on_miss_batch", "hw.ctlb"),
    Hook("repro.hw.utopia", "UtopiaMapper", "on_miss_batch", "hw.utopia"),
    Hook("repro.hw.segmentation", "SegmentationUnit", "on_miss_batch", "hw.seg"),
    Hook("repro.experiments.common", None, "checkpoint_vm", "transport.checkpoint",
         lambda args, out: {"transport.checkpoint_bytes": len(out[0])}),
    Hook("repro.experiments.common", None, "resume_vm", "transport.resume"),
)

#: Span names, in report order (each becomes a ``<span>_s`` metric).
SPANS: tuple[str, ...] = tuple(dict.fromkeys(h.span for h in HOOKS))
#: Counters the hooks feed (``hw.accesses`` only feeds ``hw.miss_rate``).
COUNTERS: tuple[str, ...] = (
    "mm.boots", "kernel.major_faults", "page_cache.reads",
    "page_cache.pages_dropped", "virt.two_d_runs_calls", "metrics.samples",
    "workloads.accesses", "hw.walks", "transport.checkpoint_bytes",
)


def _unwrap(value):
    return value.__func__ if isinstance(value, classmethod) else value


def installed() -> list[str]:
    """Hooks whose wrapper is currently in place (empty when untraced)."""
    return [
        f"{h.module}.{h.owner or ''}.{h.attr}"
        for h in HOOKS
        if hasattr(_unwrap(vars(h.resolve())[h.attr]), MARK)
    ]


class Tracer:
    """Collects nested spans, per-span self time and layer counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, child seconds]
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, hook: Hook) -> Callable:
        spans, stack, self_s, counts = (
            self.spans, self._stack, self.self_s, self.counts,
        )
        name, count, clock = hook.span, hook.count, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1][0] if stack else -1]
            frame = [len(spans), 0.0]
            spans.append(record)
            stack.append(frame)
            record[1] = start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if count is not None:
                for key, value in count(args, out).items():
                    counts[key] += value
            return out

        setattr(traced, MARK, name)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Put a wrapper on every hook (undone by :meth:`uninstall`)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for hook in HOOKS:
            owner = hook.resolve()
            original = vars(owner)[hook.attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(original.__func__, hook))
            else:
                wrapped = self.wrap(original, hook)
            self._saved.append((owner, hook.attr, original))
            setattr(owner, hook.attr, wrapped)

    def uninstall(self) -> None:
        """Restore every original attribute, last patched first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def root_seconds(self) -> float:
        """Summed duration of the spans no other span encloses."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def layer_metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """The per-layer metric values (name -> number) for one traced pass."""
        out: dict[str, float] = {}
        for span in SPANS:
            out[f"{span}_s"] = self.self_s.get(span, 0.0)
        for counter in COUNTERS:
            out[counter] = self.counts.get(counter, 0)
        out["hw.miss_rate"] = self.counts.get("hw.walks", 0) / max(
            1, self.counts.get("hw.accesses", 0)
        )
        out["traced_wall_s"] = traced_wall_s
        out["other_s"] = traced_wall_s - sum(self.self_s.values())
        out["trace_overhead"] = (
            traced_wall_s / untraced_wall_s - 1.0 if untraced_wall_s > 0 else 0.0
        )
        return out

    def write(self, path) -> None:
        """Write the spans as ``{"names": [...], "spans": [[i, start,
        end, parent], ...]}`` with start/end in seconds."""
        names = list(dict.fromkeys(s[0] for s in self.spans))
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": names,
                    "spans": [
                        [index[n], round(a, 7), round(b, 7), p]
                        for n, a, b, p in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )
