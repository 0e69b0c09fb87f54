"""Host-clock span recorder and the wrappers that feed it.

The traced run replaces selected functions of the ``repro`` package with
thin wrappers that open one span per call.  Nothing under ``src/`` is
edited: every wrapper is installed on the module, class or dict entry
the caller looks the function up in, and :meth:`Patches.restore` puts
every original back.  Spans stay in memory; the benchmark writes them
out once the run has ended.

A layer's *self time* is the duration of its spans minus the part of
each span's interval that its child spans cover (overlapping children
are counted once).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Recorder",
    "Patches",
    "self_times",
    "layer_table",
    "install_layers",
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job_id: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """In-memory span store; spans nest by call order (one thread)."""

    clock: object = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    #: per-layer work counters (blocks, bytes, recoveries, ...)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: names of the distinct kernels ``CuCCRuntime.compile`` saw
    kernels: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)

    def enter(self, name: str, job_id: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if job_id is None and parent is not None:
            job_id = self.spans[parent].job_id
        self.spans.append(Span(name, self.clock(), 0.0, parent, job_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while {top} is open")
        self.spans[idx].end = self.clock()

    def span(self, name: str, job_id: str | None = None):
        return _SpanContext(self, name, job_id)

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "job_id": s.job_id}
            for s in self.spans
        ]


class _SpanContext:
    def __init__(self, rec: Recorder, name: str, job_id: str | None):
        self.rec, self.name, self.job_id = rec, name, job_id

    def __enter__(self):
        self.idx = self.rec.enter(self.name, self.job_id)
        return self

    def __exit__(self, *exc):
        self.rec.exit(self.idx)
        return False


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: duration minus the union of its
    children's intervals inside it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        s.duration - _covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """``layer -> {"self_s", "total_s", "calls"}`` aggregated by span name.

    ``total_s`` sums durations of the outermost spans of each name only,
    so a recursive layer is not counted twice."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        row["self_s"] += selfs[i]
        row["calls"] += 1
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            row["total_s"] += s.duration
    return out


# ---------------------------------------------------------------------------
# installing wrappers
# ---------------------------------------------------------------------------
def _repro_modules():
    """The loaded modules of the program, as ``(name, module)``."""
    return [
        (name, mod) for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


class Patches:
    """Wrappers installed on modules, classes and dicts; restorable."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object, bool]] = []
        #: layer name -> number of places its wrapper was installed
        self.sites: dict[str, int] = defaultdict(int)

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key], False))
            setattr(owner, key, value)

    def wrap(self, fn, layer, *, job_id=None, before=None, after=None):
        """A wrapper of ``fn`` that records one ``layer`` span per call.

        ``layer`` is a name or ``f(args) -> name``; ``job_id(args)``
        labels the span; ``after(rec, args, result, state)`` updates
        counters, where ``state = before(args)`` is taken at entry."""
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer(args) if callable(layer) else layer
            state = before(args) if before is not None else None
            idx = rec.enter(name, job_id(args) if job_id is not None else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit(idx)
            if after is not None:
                after(rec, args, result, state)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def method(self, cls, name: str, layer, **hooks) -> None:
        """Wrap ``cls.name`` (defined on ``cls`` itself)."""
        if name not in cls.__dict__:
            raise AttributeError(f"{cls.__qualname__} defines no {name!r}")
        self._set(cls, name, self.wrap(cls.__dict__[name], layer, **hooks))
        self.sites[layer if isinstance(layer, str) else
                   f"{cls.__name__}.{name}"] += 1

    def function(self, fn, layer: str, **hooks) -> None:
        """Wrap ``fn`` in every loaded ``repro`` module that binds it by
        name (callers that did ``from x import fn`` look it up there)."""
        wrapper = self.wrap(fn, layer, **hooks)
        found = 0
        for _, mod in _repro_modules():
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, wrapper)
                    found += 1
        if not found:
            raise AttributeError(f"{fn.__qualname__} is bound in no module")
        self.sites[layer] += found

    def dict_values(self, table: dict, layer: str, **hooks) -> None:
        for key, fn in list(table.items()):
            self._set(table, key, self.wrap(fn, layer, **hooks))
            self.sites[layer] += 1

    def restore(self) -> None:
        """Put every original back, newest first; then check that no
        wrapper is left anywhere it was installed."""
        for owner, key, original, is_dict in reversed(self._undo):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()
        for modname, mod in _repro_modules():
            for attr, val in vars(mod).items():
                if isinstance(val, dict):
                    val = next((v for v in val.values()
                                if hasattr(v, "__perfbench_original__")), None)
                if hasattr(val, "__perfbench_original__"):
                    raise RuntimeError(f"wrapper left on {modname}.{attr}")
                if isinstance(val, type):
                    for name, meth in vars(val).items():
                        if hasattr(meth, "__perfbench_original__"):
                            raise RuntimeError(
                                f"wrapper left on {modname}.{attr}.{name}"
                            )


def _blocks(rec, args, result, state, key):
    rec.counts[key] += len(args[1]) if hasattr(args[1], "__len__") else 1


def _executor_layer(args) -> str:
    from repro.baselines.pgas import _PGASBlockExecutor

    if isinstance(args[0], _PGASBlockExecutor):
        return "baselines.pgas_exec"
    return "interp.exec"


def _interp_blocks(rec, args, result, state):
    if _executor_layer(args) == "interp.exec":
        _blocks(rec, args, result, state, "interp.blocks")


def _nbytes_arg(rec, args, result, state):
    rec.counts["memory.bytes"] += args[2].nbytes


def _nbytes_result(rec, args, result, state):
    rec.counts["memory.bytes"] += result.nbytes


def _comm_bytes_before(args):
    return args[0].comm_bytes


def _comm_bytes_after(rec, args, result, state):
    rec.counts["cluster.allgather_bytes"] += args[0].comm_bytes - state


def _recoveries(rec, args, result, state):
    rec.counts["runtime.recoveries"] += result.recoveries


def _compiled_kernel(rec, args, result, state):
    rec.kernels.add(args[1].name)


def _job_id(args) -> str:
    return args[1].job_id


def install_layers(patches: Patches) -> None:
    """Install one wrapper per layer boundary of the program."""
    from repro.analysis.distributable import analyze_kernel, finalize_plan
    from repro.bench import profile as bench_profile
    from repro.cluster import collectives
    from repro.cluster.cluster import Cluster
    from repro.cluster.comm import Communicator
    from repro.frontend.parser import parse_kernel
    from repro.interp.jit import compiler as jit_compiler
    from repro.interp.jit.executor import JITBlockExecutor
    from repro.interp.machine import BlockExecutor
    from repro.runtime.cucc import CuCCRuntime
    from repro.runtime.memory_manager import ClusterMemory
    from repro.serve.server import CuCCServer
    from repro.transform.simplify import simplify_kernel
    from repro.workloads import PERF_WORKLOADS
    from repro.workloads.base import WorkloadSpec

    p = patches
    p.method(CuCCServer, "run", "serve.loop")
    p.method(CuCCServer, "_execute", "serve.job", job_id=_job_id)
    p.dict_values(PERF_WORKLOADS, "workloads.build")
    p.function(parse_kernel, "frontend.parse")
    p.method(CuCCRuntime, "compile", "runtime.compile", after=_compiled_kernel)
    p.function(simplify_kernel, "transform.simplify")
    p.function(analyze_kernel, "analysis.analyze")
    p.function(finalize_plan, "analysis.finalize_plan")
    p.method(CuCCRuntime, "launch", "runtime.launch", after=_recoveries)
    p.function(jit_compiler.program_key, "jit.key")
    p.function(jit_compiler.generate_source, "jit.codegen")
    p.function(jit_compiler.compile_closure, "jit.codegen")
    p.method(
        JITBlockExecutor, "run_span", "jit.exec",
        after=lambda rec, a, r, s: _blocks(rec, a, r, s, "jit.blocks"),
    )
    p.method(BlockExecutor, "run_span", _executor_layer, after=_interp_blocks)
    p.method(ClusterMemory, "memcpy_h2d", "memory.h2d", after=_nbytes_arg)
    p.method(ClusterMemory, "memcpy_d2h", "memory.d2h", after=_nbytes_result)
    p.method(
        Communicator, "allgather_in_place", "cluster.allgather",
        before=_comm_bytes_before, after=_comm_bytes_after,
    )
    p.function(collectives.priced_round, "collectives.priced_round")
    p.method(Cluster, "remove_dead", "cluster.recovery")
    p.method(ClusterMemory, "checkpoint", "cluster.recovery")
    p.method(ClusterMemory, "restore", "cluster.recovery")
    p.method(WorkloadSpec, "verify", "workloads.verify")
    for model in ("model_cucc_time", "model_pgas_time", "model_gpu_time"):
        p.function(getattr(bench_profile, model), "bench.model")
