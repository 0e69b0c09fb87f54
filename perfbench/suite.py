"""The benchmark's four workloads and their per-operation digests.

Each workload turns a seed into inputs (``setup``), names its timing
*units* and runs one unit at a time (``run_unit``).  A unit is the
smallest piece timed on its own: a whole ``CuCCServer.run`` for the
serving workloads, one kernel for the paper-size ones.  A unit yields
one :class:`Op` per checked operation (a job, a launch or a profile)
with the digest of its simulated outputs.

Every call into the program goes through a module attribute looked up
at call time (``harness.run_on_cucc``, ``PERF_WORKLOADS[name]``, ...),
so the traced run's wrappers see each call.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, replace

from repro.bench import figures, harness
from repro.bench import profile as bench_profile
from repro.cluster import collectives
from repro.cluster.cluster import make_cluster
from repro.interp.jit import clear_memo
from repro.obs.metrics import METRICS
from repro.serve import CuCCServer, ServeConfig, synth_requests
from repro.workloads import PERF_WORKLOADS

__all__ = ["Op", "WORKLOADS", "reset_caches", "digest"]

#: digests are compared by this many leading hex digits (32 bits)
DIGEST_HEX = 8


@dataclass
class Op:
    """One checked operation: ``error`` is None when it succeeded."""

    op_id: str
    error: str | None
    digest: str | None


def digest(payload) -> str:
    """sha256 of an exact, ordered rendering of simulated outputs.

    ``repr`` of a float round-trips, so equal digests mean bit-equal
    numbers."""
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:DIGEST_HEX]


def reset_caches() -> None:
    """Drop the program's in-process caches, as a fresh ``repro`` process
    starts without them."""
    clear_memo()
    collectives.allgather_schedule.cache_clear()
    METRICS.reset()


def _counters(c) -> tuple:
    return tuple(sorted(c.as_dict().items()))


def _phases(p) -> tuple:
    return (p.partial, p.allgather, p.callback, p.overhead, p.recovery,
            tuple(p.allgather_algos))


def _output_shas(outputs: dict) -> tuple:
    return tuple(
        (name, hashlib.sha256(arr.tobytes()).hexdigest())
        for name, arr in sorted(outputs.items())
    )


def _error(e: BaseException) -> str:
    return f"{type(e).__name__}: {e}"


def _root(rec, name: str, job_id: str | None):
    return rec.span(name, job_id) if rec is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------
class ServeWorkload:
    """One timing unit: a cold ``CuCCServer.run`` over the whole trace
    that ``requests(seed)`` synthesizes."""

    units = ("serve",)

    def __init__(self, name, why, requests, config):
        self.name, self.why = name, why
        self.requests, self.config = requests, config

    def setup(self, seed: int) -> dict:
        return {"requests": self.requests(seed)}

    def run_unit(self, state: dict, unit: str, rec=None):
        """Returns ``(wall seconds, ops)``; with a recorder, the timed
        region is one ``bench.serve_run`` span."""
        server = CuCCServer(ServeConfig(**self.config))
        t0 = time.perf_counter()
        try:
            with _root(rec, "bench.serve_run", None):
                report = server.run(state["requests"])
        except Exception as e:  # the whole unit failed: every job counts
            wall = time.perf_counter() - t0
            return wall, [Op(r.job_id, _error(e), None)
                          for r in state["requests"]]
        wall = time.perf_counter() - t0
        ops = []
        for res in report.results:
            error = None
            if res.status != "ok":
                error = f"job {res.status}: {res.error}"
            ops.append(Op(
                res.request.job_id, error,
                digest((res.identity(), res.timing.start_s,
                        res.timing.finish_s)),
            ))
        return wall, ops


def mix_requests(seed: int) -> list:
    """300 two-node jobs from the CLI's default mix."""
    return synth_requests("FIR:2,KMeans:1,Transpose:1", rate=1e6, jobs=300,
                          nodes=2, seed=seed)


def faulty_requests(seed: int, jobs_per_stream: int = 12) -> list:
    """12 jobs of every (kernel, width) pair, each pair its own Poisson
    stream at 1/16 of the rate, merged by arrival; every 5th job of a
    stream carries a rank-1 crash in the Allgather.

    Fixed counts per stream keep the seed from changing how much work
    the trace holds (an NBody job costs ~5x a Transpose job, so a free
    draw of 200 jobs moves the wall by ~20% between seeds); the seed
    still sets arrivals, job data and which jobs crash."""
    out = []
    for i, (kernel, width) in enumerate(
        (k, w) for k in PERF_WORKLOADS for w in (2, 4)
    ):
        stream = synth_requests(
            kernel, rate=1e6 / 16, jobs=jobs_per_stream, nodes=width,
            seed=seed * 16 + i, faults="crash:rank=1,phase=allgather",
            fault_every=5,
        )
        out += [replace(r, job_id=f"{kernel}-w{width}-{r.job_id}")
                for r in stream]
    return sorted(out, key=lambda r: (r.arrival_s, r.job_id))


# ---------------------------------------------------------------------------
# paper-size kernels
# ---------------------------------------------------------------------------
class PaperWorkload:
    """One timing unit per paper-size kernel; ``op`` runs it and returns
    a thunk building its simulated-output payload."""

    def __init__(self, name, why, units, op, span_kind):
        self.name, self.why, self.units = name, why, units
        self.op, self.span_kind = op, span_kind

    def setup(self, seed: int) -> dict:
        return {k: PERF_WORKLOADS[k]("paper", seed=seed) for k in self.units}

    def run_unit(self, state: dict, unit: str, rec=None):
        """Returns ``(wall seconds, ops)``; with a recorder, the timed
        region is one ``workload.<kernel>.<kind>`` span."""
        t0 = time.perf_counter()
        try:
            with _root(rec, f"workload.{unit}.{self.span_kind}", unit):
                payload = self.op(state[unit])
        except Exception as e:
            return time.perf_counter() - t0, [Op(unit, _error(e), None)]
        wall = time.perf_counter() - t0
        return wall, [Op(unit, None, digest(payload()))]


def launch_op(spec):
    """``repro run``: compile, launch, d2h and verify on 4 simd-focused
    nodes.  Returns a thunk building the payload outside the timing."""
    res = harness.run_on_cucc(
        spec, make_cluster("simd-focused", 4), backend="auto"
    )

    def payload():
        rec = res.record
        # rank 0's replica: run_on_cucc already checked all replicas agree
        node = res.runtime.cluster.nodes[0]
        outputs = {o: node.buffer(o) for o in spec.outputs}
        return (
            _output_shas(outputs), _phases(rec.phases),
            tuple(_counters(c) for c in rec.partial_counters),
            _counters(rec.callback_counters), rec.comm_bytes,
            rec.retries, rec.recoveries,
        )

    return payload


def profile_op(spec):
    """The figure path: one interpreter profile (with the PGAS locality
    pass) and the model sweeps the figure drivers run over it."""
    prof = bench_profile.profile_workload(spec)
    simd, thread, net = (figures.SIMD_FOCUSED_NODE,
                         figures.THREAD_FOCUSED_NODE, figures.NET)
    sweep = []
    for n in figures.SIMD_NODE_COUNTS:
        sweep.append(_phases(bench_profile.model_cucc_time(prof, simd, net, n)))
        sweep.append(bench_profile.model_pgas_time(prof, simd, net, n))
    for n in figures.THREAD_NODE_COUNTS:
        sweep.append(
            _phases(bench_profile.model_cucc_time(prof, thread, net, n))
        )
    for gpu in (figures.A100, figures.V100):
        sweep.append(bench_profile.model_gpu_time(prof, gpu))

    def payload():
        return (
            _counters(prof.total), _counters(prof.regular_block),
            tuple(_counters(c) for c in prof.tail),
            prof.pgas_global_ops, prof.pgas_global_bytes, tuple(sweep),
        )

    return payload


WORKLOADS = {
    w.name: w
    for w in (
        ServeWorkload(
            "serve-mix",
            "many short jobs re-parsing and re-compiling 3 kernels: "
            "shows a parse/compile memo",
            mix_requests, dict(nodes=8, pipeline=True, backend="jit"),
        ),
        ServeWorkload(
            "serve-faulty",
            "all 8 kernels, widths 2/4, fat-tree, a crash every 5th job: "
            "recovery, contended pricing, more memo misses",
            faulty_requests,
            dict(nodes=8, pipeline=True, backend="jit",
                 topology="fat-tree:2"),
        ),
        PaperWorkload(
            "paper-run",
            "repro run at paper size: JIT block execution and memory "
            "copies dominate, frontend and compile are negligible",
            # the kernels that fit three set-ups and four passes in a
            # run: Transpose is copy-bound, KMeans and GA compute-bound
            ("Transpose", "KMeans", "GA"), launch_op, "launch",
        ),
        PaperWorkload(
            "paper-figures",
            "figure path: interpreter profile, PGAS locality pass and "
            "model sweeps; the JIT is unused",
            # the two cheapest profiles to build and run (~6 s a pass)
            ("Transpose", "GA"), profile_op, "profile",
        ),
    )
}
