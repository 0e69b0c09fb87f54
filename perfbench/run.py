"""Host-clock benchmark of the CuCC reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-mix --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer table instead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import os

# one thread per process: pin the BLAS/OpenMP pools before NumPy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"

#: set-ups per run; ``setup_s`` reports their median
SETUP_REPS = 3

#: the calibration time that reference-speed seconds are scaled to (the
#: loop's typical time on the host the README's figures come from)
CALIB_REF_MS = 40.0


def _import_program() -> float:
    """Import the program from this checkout's ``src``; returns seconds.

    Refuses any other copy of ``repro`` (an installed one would measure
    the wrong code)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    import suite  # noqa: F401  (imports every layer the runs touch)

    # modules the program imports lazily: loaded here so that their cost
    # is set-up, and so that a traced run's wrappers reach every binding
    import repro.baselines.pgas  # noqa: F401
    import repro.cluster.faults  # noqa: F401
    import repro.cluster.topology  # noqa: F401
    import repro.interp.jit  # noqa: F401
    import repro.obs.netflow  # noqa: F401
    import repro.runtime.cucc  # noqa: F401

    return time.perf_counter() - t0


def fresh_import_s() -> float:
    """Median seconds of the program's import in SETUP_REPS fresh
    interpreters (one in-process import is too noisy to gate on)."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "print(run._import_program())")
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, "-c", code, str(HERE)], cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def calibrate(reps: int = 3) -> float:
    """Median milliseconds of a fixed pure-Python plus NumPy loop: the
    host-speed context for every figure this run reports."""
    import numpy as np

    a = np.arange(100_000, dtype=np.float64)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        s = 0
        for i in range(200_000):
            s += i * i
        for _ in range(20):
            s += float(np.sort(a[::-1])[7] + (a * 1.5 + 2.0).sum())
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def platform_id() -> str:
    """What a simulated-output digest depends on besides the code: the
    NumPy build and the SIMD paths it dispatches to on this CPU."""
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as umath
    feats = umath.__cpu_features__
    dispatch = [d for d in umath.__cpu_dispatch__ if feats.get(d)]
    return f"{platform.machine()}/numpy-{np.__version__}/{'+'.join(dispatch)}"


def load_digests(workload: str, seed: int) -> tuple[dict | None, str]:
    """The committed per-unit digests for ``(workload, seed)`` and a note
    saying which checks ran."""
    doc = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    here = platform_id()
    if doc.get("platform") != here:
        return None, (
            f"digest table recorded on {doc.get('platform')!r}, this is "
            f"{here!r}: only the NumPy-reference check ran"
        )
    table = doc.get("workloads", {}).get(workload, {}).get(str(seed))
    if table is None:
        return None, (
            f"seed {seed} has no committed digest: only the "
            "NumPy-reference check ran"
        )
    return table, f"digests checked against {DIGESTS.name} (seed {seed})"


def unit_digests(ops) -> str:
    """A unit's op digests concatenated (a failed op reads as dashes)."""
    from suite import DIGEST_HEX

    return "".join(op.digest or "-" * DIGEST_HEX for op in ops)


def check_ops(ops, expected: str | None, what: str) -> None:
    """Mark each op whose digest differs from ``expected`` (the unit's
    concatenated digests) as failed; an op already failed stays failed
    once."""
    from suite import DIGEST_HEX

    if expected is None:
        return
    for i, op in enumerate(ops):
        want = expected[i * DIGEST_HEX:(i + 1) * DIGEST_HEX] or None
        if op.error is None and op.digest != want:
            op.error = f"digest {op.digest} != {want} ({what})"


def tally(ops) -> tuple[int, int]:
    """``(attempted, failed)``: an op fails once, whatever went wrong."""
    return len(ops), sum(op.error is not None for op in ops)


def run_unit(w, state, unit, rec=None):
    """One cold unit: caches dropped, heap collected, then timed."""
    from suite import reset_caches

    reset_caches()
    gc.collect()
    return w.run_unit(state, unit, rec)


def timed_setup(w, seed):
    gc.collect()
    t0 = time.perf_counter()
    state = w.setup(seed)
    return state, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# untraced: end-to-end metrics
# ---------------------------------------------------------------------------
def measure(w, seed: int, seconds: float, table: dict | None):
    """Set up SETUP_REPS times, then run units round-robin for
    ``seconds`` (every unit at least once), timing the calibration loop
    before and after the set-ups and after every unit.  Returns a
    :class:`Measured` and every op run."""
    m = Measured(calib=[calibrate()], import_s=fresh_import_s())
    for _ in range(SETUP_REPS):
        state = None
        state, wall = timed_setup(w, seed)
        m.setup.append(wall)
    m.calib.append(calibrate())
    first: dict[str, str] = {}
    all_ops = []
    t_start = time.perf_counter()
    i = 0
    while True:
        unit = w.units[i % len(w.units)]
        if i >= len(w.units):
            elapsed = time.perf_counter() - t_start
            if elapsed + m.walls[unit][-1] > seconds:
                break
        wall, ops = run_unit(w, state, unit)
        m.calib.append(calibrate())
        m.walls.setdefault(unit, []).append(wall)
        # every repetition must reproduce the committed digests, or
        # without a table, the unit's first repetition
        expected = table.get(unit) if table is not None else first.get(unit)
        check_ops(ops, expected, "committed" if table else "first repetition")
        first.setdefault(unit, unit_digests(ops))
        all_ops.extend(ops)
        i += 1
    return m, all_ops


@dataclass
class Measured:
    """Raw set-up and unit walls, and the calibration loop times taken
    around them.

    A reference-speed figure is a raw one scaled by ``CALIB_REF_MS`` over
    the run's median calibration time, so a run on a host that executes
    the fixed loop slower is scaled back."""

    calib: list[float]
    import_s: float
    setup: list[float] = field(default_factory=list)
    walls: dict[str, list[float]] = field(default_factory=dict)

    @property
    def to_ref(self) -> float:
        return CALIB_REF_MS / statistics.median(self.calib)

    @property
    def pass_time(self) -> float:
        """One pass: the sum over units of the median unit wall."""
        return sum(statistics.median(v) for v in self.walls.values())

    @property
    def setup_time(self) -> float:
        return self.import_s + statistics.median(self.setup)


# ---------------------------------------------------------------------------
# traced: per-layer metrics
# ---------------------------------------------------------------------------
def run_pass(w, seed, rec=None):
    """Set-up plus every unit once; returns ``(wall, {unit: ops})``."""
    if rec is None:
        state, wall = timed_setup(w, seed)
    else:
        gc.collect()
        with rec.span("bench.setup") as sp:
            state = w.setup(seed)
        wall = rec.spans[sp.idx].duration
    ops = {}
    for unit in w.units:
        unit_wall, ops[unit] = run_unit(w, state, unit, rec)
        wall += unit_wall
    return wall, ops


def traced(w, seed: int, seconds: float, table: dict | None):
    """Run pairs of an untraced and a traced pass (at least one pair,
    more while ``seconds`` allows).  Each traced pass must reproduce its
    untraced twin's digests exactly."""
    from repro.interp.jit import compile_stats
    from spans import Patches, Recorder, install_layers

    rec = Recorder()
    walls = {"untraced": [], "traced": []}
    memo = {"hits": 0, "lookups": 0}
    all_ops = []
    t_start = time.perf_counter()
    while True:
        t_pair = time.perf_counter()
        # alternate which side runs first, so neither gains from a heap
        # the other one grew
        if len(walls["traced"]) % 2 == 0:
            u_wall, u_ops = run_pass(w, seed)
        patches = Patches(rec)
        install_layers(patches)
        before = dict(compile_stats)
        try:
            t_wall, t_ops = run_pass(w, seed, rec)
        finally:
            patches.restore()
        if len(walls["traced"]) % 2 == 1:
            u_wall, u_ops = run_pass(w, seed)
        memo["hits"] += compile_stats["memo_hits"] - before["memo_hits"]
        memo["lookups"] += sum(compile_stats[k] - before[k] for k in
                               ("memo_hits", "compiles", "cache_hits"))
        walls["untraced"].append(u_wall)
        walls["traced"].append(t_wall)
        for unit in w.units:
            expected = table.get(unit) if table is not None else None
            check_ops(u_ops[unit], expected, "committed")
            check_ops(t_ops[unit], unit_digests(u_ops[unit]), "untraced twin")
            all_ops += u_ops[unit] + t_ops[unit]
        elapsed = time.perf_counter() - t_start
        if elapsed + (time.perf_counter() - t_pair) > seconds:
            break
    return rec, walls, memo, all_ops, patches.sites


#: layer -> workloads on which it must record calls (the metric map in
#: README.md); a zero there means a wrapper missed its call site
REQUIRED = {
    "frontend.parse": ("serve-mix", "serve-faulty"),
    "runtime.compile": ("serve-mix", "serve-faulty", "paper-run"),
    "transform.simplify": ("serve-mix", "serve-faulty", "paper-run"),
    "analysis.analyze": ("serve-mix", "serve-faulty", "paper-run",
                         "paper-figures"),
    "analysis.finalize_plan": ("serve-mix", "serve-faulty", "paper-run",
                               "paper-figures"),
    "runtime.launch": ("serve-mix", "serve-faulty", "paper-run"),
    "jit.key": ("serve-mix", "serve-faulty", "paper-run"),
    "jit.codegen": ("serve-mix", "serve-faulty", "paper-run"),
    "jit.exec": ("serve-mix", "serve-faulty", "paper-run"),
    "interp.exec": ("paper-figures",),
    "baselines.pgas_exec": ("paper-figures",),
    "memory.h2d": ("serve-mix", "serve-faulty", "paper-run"),
    "memory.d2h": ("serve-mix", "serve-faulty", "paper-run"),
    "cluster.allgather": ("serve-mix", "serve-faulty", "paper-run"),
    "collectives.priced_round": ("serve-mix", "serve-faulty", "paper-run"),
    "cluster.recovery": ("serve-faulty",),
    "workloads.build": ("serve-mix", "serve-faulty", "paper-run",
                        "paper-figures"),
    "workloads.verify": ("serve-mix", "serve-faulty", "paper-run",
                         "paper-figures"),
    "serve.loop": ("serve-mix", "serve-faulty"),
    "serve.job": ("serve-mix", "serve-faulty"),
    "bench.model": ("paper-figures",),
}

#: per-layer metric -> (layer, field, unit); field "self_s" or "calls"
LAYER_METRICS = {
    "frontend.parse_calls": ("frontend.parse", "calls", "count"),
    "frontend.parse_s": ("frontend.parse", "self_s", "s"),
    "runtime.compile_calls": ("runtime.compile", "calls", "count"),
    "runtime.compile_self_s": ("runtime.compile", "self_s", "s"),
    "transform.simplify_s": ("transform.simplify", "self_s", "s"),
    "analysis.analyze_s": ("analysis.analyze", "self_s", "s"),
    "analysis.finalize_plan_s": ("analysis.finalize_plan", "self_s", "s"),
    "runtime.launch_self_s": ("runtime.launch", "self_s", "s"),
    "jit.key_s": ("jit.key", "self_s", "s"),
    "jit.codegen_s": ("jit.codegen", "self_s", "s"),
    "jit.exec_s": ("jit.exec", "self_s", "s"),
    "interp.exec_s": ("interp.exec", "self_s", "s"),
    "baselines.pgas_exec_s": ("baselines.pgas_exec", "self_s", "s"),
    "memory.h2d_s": ("memory.h2d", "self_s", "s"),
    "memory.d2h_s": ("memory.d2h", "self_s", "s"),
    "cluster.allgather_calls": ("cluster.allgather", "calls", "count"),
    "cluster.allgather_s": ("cluster.allgather", "self_s", "s"),
    "collectives.priced_round_calls":
        ("collectives.priced_round", "calls", "count"),
    "collectives.priced_round_s": ("collectives.priced_round", "self_s", "s"),
    "cluster.recovery_s": ("cluster.recovery", "self_s", "s"),
    "workloads.build_s": ("workloads.build", "self_s", "s"),
    "workloads.verify_s": ("workloads.verify", "self_s", "s"),
    "serve.loop_self_s": ("serve.loop", "self_s", "s"),
    "bench.model_s": ("bench.model", "self_s", "s"),
}

#: per-layer work counters -> unit
COUNT_METRICS = {
    "jit.blocks": "count",
    "interp.blocks": "count",
    "memory.bytes": "B",
    "cluster.allgather_bytes": "B",
    "runtime.recoveries": "count",
}


def kernel_rows() -> list[str]:
    """Per-kernel rows: the unit spans of the paper workloads."""
    from suite import WORKLOADS

    return [f"workload.{u}.{pw.span_kind}" for pw in WORKLOADS.values()
            if hasattr(pw, "span_kind") for u in pw.units]


def per_layer(w, rec, table, walls, memo, calib_ms) -> tuple[dict, list[str]]:
    """Per-layer metrics (per traced pass) and the missing-layer list."""
    n = len(walls["traced"])
    row = lambda name: table.get(name, {"self_s": 0.0, "calls": 0})  # noqa: E731
    m = {}
    for metric, (layer, fld, unit) in LAYER_METRICS.items():
        m[metric] = (row(layer)[fld] / n, unit)
    for metric, unit in COUNT_METRICS.items():
        m[metric] = (rec.counts.get(metric, 0.0) / n, unit)
    kernels = max(1, len(rec.kernels))
    m["runtime.compiles_per_kernel"] = (
        row("runtime.compile")["calls"] / n / kernels, "count")
    m["jit.memo_hit_ratio"] = (
        memo["hits"] / memo["lookups"] if memo["lookups"] else 0.0, "ratio")
    roots = [s for s in table if s.startswith("bench.")
             or s.startswith("workload.")]
    m["unattributed_s"] = (sum(table[r]["self_s"] for r in roots) / n, "s")
    m["trace.overhead_frac"] = (
        statistics.median(walls["traced"])
        / statistics.median(walls["untraced"]) - 1.0, "frac")
    m["host.calib_ms"] = (calib_ms, "ms")
    for name in kernel_rows():
        m[f"{name}_s"] = (table.get(name, {"total_s": 0.0})["total_s"] / n,
                          "s")
    missing = [
        layer for layer, on in REQUIRED.items()
        if w.name in on and row(layer)["calls"] == 0
    ]
    if w.name == "serve-faulty" and rec.counts.get("runtime.recoveries", 0) == 0:
        missing.append("runtime.recoveries")
    return m, missing


def print_layer_table(table, walls) -> None:
    n = len(walls["traced"])
    traced_wall = sum(walls["traced"])
    print(f"  per traced pass (n={n}; traced wall {traced_wall / n:.4f} s)")
    print(f"  {'layer':34s} {'self_s':>10s} {'share':>7s} {'calls':>10s}")
    for name, r in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:34s} {r['self_s'] / n:10.4f} "
              f"{r['self_s'] / traced_wall:7.1%} {r['calls'] / n:10.0f}")


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_s = _import_program()
    from suite import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"known: {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    digests, digest_note = load_digests(w.name, args.seed)
    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  workload: {w.why}")

    if args.trace:
        from spans import layer_table

        calib = [calibrate()]
        rec, walls, memo, ops, sites = traced(w, args.seed, args.seconds,
                                              digests)
        calib.append(calibrate())
        table = layer_table(rec.spans)
        metrics, missing = per_layer(w, rec, table, walls, memo,
                                     statistics.median(calib))
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{w.name}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(rec.to_json()))
        print_layer_table(table, walls)
        print(f"  host.calib_ms {metrics['host.calib_ms'][0]:.3f} ms, "
              f"unattributed_s {metrics['unattributed_s'][0]:.4f} s, "
              f"trace.overhead_frac {metrics['trace.overhead_frac'][0]:+.3f}")
        print(f"  wrapper sites: {dict(sites)}")
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        if missing:
            print(f"  FAIL: mapped layers recorded zero calls: {missing}",
                  file=sys.stderr)
    else:
        m, ops = measure(w, args.seed, args.seconds, digests)
        calib = m.calib
        wall = m.pass_time
        metrics = {
            "setup_s": (m.setup_time * m.to_ref, "s"),
            "wall_s": (wall * m.to_ref, "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        }
        missing = []
        reps = {u: len(v) for u, v in m.walls.items()}
        print(f"  host.calib_ms      {statistics.median(calib):10.3f} ms   "
              f"(median of {len(calib)}; reference {CALIB_REF_MS:g} ms)")
        print(f"  setup_s            {metrics['setup_s'][0]:10.4f} s   "
              f"reference speed; raw {m.setup_time:.4f} s = median of "
              f"{SETUP_REPS} fresh imports {m.import_s:.4f} s (this "
              f"process: {import_s:.4f} s) + median of {SETUP_REPS} "
              f"set-ups {statistics.median(m.setup):.4f} s")
        print(f"  wall_s             {metrics['wall_s'][0]:10.4f} s   "
              f"reference speed; raw {wall:.4f} s; repetitions {reps}")
        for unit, v in m.walls.items():
            print(f"    {unit:16s} median {statistics.median(v):.4f} s raw")
        if w.units == ("serve",):
            jobs = len(ops) / len(m.walls["serve"])
            print(f"  serve.jobs_per_s   {jobs / wall:10.2f} 1/s  raw")
        else:
            name = "run.wall_s" if w.name == "paper-run" else "figures.wall_s"
            print(f"  {name:18s} {wall:10.4f} s    raw")
        print(f"  peak_rss_mb        {metrics['peak_rss_mb'][0]:10.1f} MB")

    attempted, failed = tally(ops)
    print(f"  error_rate         {failed / attempted:10.4f} "
          f"({failed}/{attempted} operations failed)")
    for op in [op for op in ops if op.error is not None][:10]:
        print(f"    {op.op_id}: {op.error}")
    print(f"  {digest_note}")
    print(json.dumps({
        "correct": not failed and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
