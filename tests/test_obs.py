"""Observability: span tracing, metrics registry, Perfetto export.

Covers the repro.obs subsystem end to end — tracer semantics, the
metrics registry, Chrome-trace export + schema, the critical-path
report, bit-identical determinism of exported JSON, and the guarantee
that tracing/metrics never change modeled times or buffers.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import run_on_cucc
from repro.cli import main as cli_main
from repro.cluster import make_cluster
from repro.cluster.faults import FaultPlan, NodeCrash, StragglerFault, TransientFault
from repro.obs import METRICS, NULL_TRACER, MetricsRegistry, SpanKind, Tracer
from repro.obs.export import (
    CLUSTER_PID,
    TUNER_PID,
    chrome_trace,
    format_critical_report,
    phase_times_from_spans,
    write_chrome_trace,
)
from repro.runtime.trace import format_trace_report, summarize_launches
from repro.tuning import TuningCache, autotune
from repro.workloads import PERF_WORKLOADS
from trace_schema import validate_chrome_trace

NODES = 4


@pytest.fixture(autouse=True)
def fresh_metrics():
    """Isolate the process-wide registry per test."""
    METRICS.reset()
    yield
    METRICS.reset()


def _run(name="KMeans", nodes=NODES, trace=False, **kw):
    spec = PERF_WORKLOADS[name]("small", seed=0)
    return run_on_cucc(spec, make_cluster("simd-focused", nodes),
                       trace=trace, **kw)


# ---------------------------------------------------------------------------
# tracer semantics
# ---------------------------------------------------------------------------
def test_tracer_nesting_and_parenting():
    tr = Tracer()
    outer = tr.begin("launch k", SpanKind.LAUNCH, 0.0)
    child = tr.add("partial rank 0", SpanKind.EXEC, 0.0, 1.0, rank=0)
    inner = tr.begin("allgather", SpanKind.PHASE, 1.0)
    ev = tr.instant("crash", SpanKind.FAULT, 1.5, rank=2)
    tr.end(inner, 2.0)
    tr.end(outer, 2.5)
    assert child.parent == outer.id
    assert inner.parent == outer.id
    assert ev.parent == inner.id and ev.instant and ev.duration == 0.0
    assert outer.t1 == 2.5 and outer.duration == 2.5
    assert [s.id for s in tr.children(outer)] == [child.id, inner.id]


def test_tracer_end_unwinds_abandoned_children():
    tr = Tracer()
    outer = tr.begin("launch", SpanKind.LAUNCH, 0.0)
    inner = tr.begin("phase", SpanKind.PHASE, 1.0)
    tr.end(outer, 3.0)  # exception-style unwind past `inner`
    assert inner.t1 == 3.0
    assert tr._stack == []


def test_disabled_tracer_records_nothing():
    tr = Tracer(enabled=False)
    assert tr.begin("x", SpanKind.LAUNCH, 0.0) is None
    assert tr.add("x", SpanKind.EXEC, 0.0, 1.0) is None
    assert tr.instant("x", SpanKind.FAULT, 0.0) is None
    tr.end(None, 1.0)  # must not raise
    assert len(tr) == 0
    assert not NULL_TRACER.enabled and len(NULL_TRACER) == 0


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------
def test_metrics_counters_gauges_histograms():
    reg = MetricsRegistry()
    reg.inc("ops", 2, kind="a")
    reg.inc("ops", 3, kind="a")
    reg.inc("ops", kind="b")
    reg.set_gauge("depth", 7)
    reg.observe("size", 3.0)
    reg.observe("size", 1000.0)
    assert reg.value("ops", kind="a") == 5
    assert reg.total("ops") == 6
    assert reg.value("depth") == 7
    h = reg.histogram("size")
    assert h.count == 2 and h.min == 3.0 and h.max == 1000.0
    assert h.mean == pytest.approx(501.5)
    assert "ops{kind=a} 5" in reg.render()
    assert reg.names() == ["depth", "ops", "size"]


def test_metrics_type_conflict_and_negative_inc():
    reg = MetricsRegistry()
    reg.inc("x")
    with pytest.raises(TypeError):
        reg.set_gauge("x", 1.0)
    with pytest.raises(ValueError):
        reg.inc("y", -1)


def test_disabled_registry_is_inert():
    reg = MetricsRegistry(enabled=False)
    reg.inc("a")
    reg.set_gauge("b", 1)
    reg.observe("c", 1)
    assert reg.names() == []
    assert reg.render() == "(no metrics recorded)"


# ---------------------------------------------------------------------------
# traced runs: span structure + export schema
# ---------------------------------------------------------------------------
def test_traced_run_has_per_rank_phase_and_round_spans():
    res = _run(trace=True)
    tr = res.runtime.tracer
    launches = tr.by_kind(SpanKind.LAUNCH)
    assert len(launches) == 1
    phases = {s.name for s in tr.by_kind(SpanKind.PHASE)}
    assert {"partial", "allgather", "callback"} <= phases
    execs = tr.by_kind(SpanKind.EXEC)
    assert {s.rank for s in execs if s.args["phase"] == "partial"} == set(
        range(NODES)
    )
    colls = tr.by_kind(SpanKind.COLLECTIVE)
    assert colls, "allgather collective span missing"
    assert tr.by_kind(SpanKind.ROUND), "per-round collective spans missing"
    groups = _collective_rounds(tr)
    assert groups and all(rounds for _, rounds in groups)
    for c, rounds in groups:
        _assert_rounds_contiguous(c, rounds)
        assert rounds[-1].t1 == c.t1


def _collective_rounds(tr):
    """(collective span, its round spans) pairs.  Rounds are recorded
    right after their collective, as siblings under the same parent."""
    groups = []
    for s in tr.spans:
        if s.kind == SpanKind.COLLECTIVE:
            groups.append((s, []))
        elif s.kind == SpanKind.ROUND:
            groups[-1][1].append(s)
    return groups


def _assert_rounds_contiguous(c, rounds):
    assert rounds[0].t0 == c.t0
    for a, b in zip(rounds, rounds[1:]):
        assert b.t0 == a.t1


@pytest.mark.parametrize("variant", ["in-place", "out-of-place", "v"])
def test_round_spans_tile_every_allgather_variant(variant):
    """Round spans reuse the cost list that priced the collective: they
    start at its t0 and run back to back; in-place and v end exactly at
    its t1, out-of-place short of it by the local-copy term."""
    cl = make_cluster("simd-focused", NODES, topology="fat-tree:2")
    tr = Tracer()
    cl.comm.tracer = tr
    per_rank = 48
    for node in cl.nodes:
        node.alloc("src", per_rank, np.float32)
        node.alloc("d", per_rank * NODES, np.float32)
    cl.nodes[1].clock.advance(3.7e-6)  # a non-zero, uneven start
    copy_GBs = 10.0
    if variant == "in-place":
        dur = cl.comm.allgather_in_place("d", 0, per_rank)
    elif variant == "out-of-place":
        dur = cl.comm.allgather_out_of_place(
            "src", "d", per_rank, copy_GBs=copy_GBs
        )
    else:
        dur = cl.comm.allgatherv_in_place("d", 0, [5, 48, 0, 17])
    ((c, rounds),) = _collective_rounds(tr)
    assert rounds and c.t0 == 3.7e-6
    assert c.args["dur_s"] == dur
    _assert_rounds_contiguous(c, rounds)
    if variant == "out-of-place":
        copy_s = 2.0 * per_rank * 4 / (copy_GBs * 1e9)
        assert c.t1 - rounds[-1].t1 == pytest.approx(copy_s, rel=1e-9)
    else:
        assert rounds[-1].t1 == c.t1


def test_chrome_trace_schema_and_rank_timelines(tmp_path):
    res = _run(trace=True)
    path = write_chrome_trace(res.runtime.tracer, tmp_path / "t.json")
    obj = json.loads(path.read_text())
    assert validate_chrome_trace(obj) == []
    names = {
        ev["pid"]: ev["args"]["name"]
        for ev in obj["traceEvents"]
        if ev["ph"] == "M" and ev["name"] == "process_name"
    }
    assert names[CLUSTER_PID] == "cluster"
    rank_pids = [p for p, n in names.items() if n.startswith("rank ")]
    assert len(rank_pids) >= NODES


def test_fault_events_export_as_instants(tmp_path):
    res = _run(
        name="FIR",
        trace=True,
        fault_plan=FaultPlan((TransientFault(op=1),), seed=1),
    )
    obj = chrome_trace(res.runtime.tracer)
    instants = [e for e in obj["traceEvents"] if e["ph"] == "i"]
    assert instants and all(e["cat"] == "fault" for e in instants)
    assert validate_chrome_trace(obj) == []
    assert res.record.retries >= 1


def test_autotune_trials_get_their_own_timeline():
    cluster = make_cluster("simd-focused", NODES)
    tr = Tracer()
    cluster.comm.tracer = tr
    autotune(cluster, payloads=(4096,))
    trials = tr.by_kind(SpanKind.TUNE)
    assert trials, "autotune recorded no trial spans"
    # no collective spans leak from the sweep, and trials are laid out
    # sequentially on their own synthetic timeline
    assert tr.by_kind(SpanKind.COLLECTIVE) == []
    for a, b in zip(trials, trials[1:]):
        assert b.t0 >= a.t1
    obj = chrome_trace(tr)
    assert {e["pid"] for e in obj["traceEvents"] if e["ph"] == "X"} == {
        TUNER_PID
    }
    assert METRICS.total("tuning.autotune_trials") == len(trials)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
def test_same_seed_exports_byte_identical_json(tmp_path):
    a = write_chrome_trace(_run(trace=True).runtime.tracer, tmp_path / "a.json")
    b = write_chrome_trace(_run(trace=True).runtime.tracer, tmp_path / "b.json")
    assert a.read_bytes() == b.read_bytes()


@settings(max_examples=6, deadline=None)
@given(
    name=st.sampled_from(["FIR", "KMeans", "Transpose"]),
    nodes=st.integers(min_value=2, max_value=4),
)
def test_tracing_off_is_bit_identical(name, nodes):
    METRICS.reset()
    off = _run(name=name, nodes=nodes, trace=False)
    on = _run(name=name, nodes=nodes, trace=True)
    assert off.record.phases == on.record.phases
    assert off.runtime.sim_time == on.runtime.sim_time
    assert off.record.comm_bytes == on.record.comm_bytes
    assert len(off.runtime.tracer) == 0
    assert off.runtime.tracer is NULL_TRACER


def test_fault_tolerant_run_traced_vs_untraced_identical():
    plan = FaultPlan((NodeCrash(rank=3, phase="allgather"),), seed=1)
    off = _run(name="FIR", trace=False, fault_plan=plan)
    on = _run(name="FIR", trace=True, fault_plan=plan)
    assert off.record.phases == on.record.phases
    assert off.runtime.sim_time == on.runtime.sim_time
    assert on.record.recoveries == 1
    assert on.runtime.tracer.by_kind(SpanKind.FAULT)  # instants recorded
    assert any(
        s.name == "recovery" for s in on.runtime.tracer.by_kind(SpanKind.PHASE)
    )


# ---------------------------------------------------------------------------
# PhaseTimes as consumers of span data
# ---------------------------------------------------------------------------
def test_phase_times_from_spans_bit_identical(tmp_path):
    res = _run(trace=True)
    rebuilt = phase_times_from_spans(res.runtime.tracer)
    assert rebuilt == [(res.record.kernel_name, res.record.phases)]
    # and identically after a JSON round-trip through the export file
    path = write_chrome_trace(res.runtime.tracer, tmp_path / "t.json")
    assert phase_times_from_spans(path) == rebuilt


def test_phase_times_from_spans_with_recovery():
    plan = FaultPlan((NodeCrash(rank=3, phase="partial"),), seed=1)
    res = _run(name="FIR", trace=True, fault_plan=plan)
    (kernel, phases), = phase_times_from_spans(res.runtime.tracer)
    assert phases == res.record.phases
    assert phases.recovery > 0


# ---------------------------------------------------------------------------
# satellite: algorithm dedupe + recovery column
# ---------------------------------------------------------------------------
def test_allgather_algos_unique_first_use_order():
    res = _run()
    rec = res.record
    algos = rec.allgather_algos
    assert isinstance(algos, tuple)
    assert len(set(algos)) == len(algos)
    assert rec.allgather_algo == "+".join(algos)
    assert rec.allgather_algo in rec.describe()
    (stats,) = summarize_launches([rec])
    assert stats.algos == list(algos)
    # stats dedupe across repeated launches of the same kernel
    (stats2,) = summarize_launches([rec, rec, rec])
    assert stats2.algos == list(algos)


def test_recovery_column_only_under_faults():
    clean = format_trace_report([_run(name="FIR").record])
    assert "recovery" not in clean.splitlines()[0]
    plan = FaultPlan((NodeCrash(rank=3, phase="partial"),), seed=1)
    faulty = format_trace_report([_run(name="FIR", fault_plan=plan).record])
    assert "recovery" in faulty.splitlines()[0]
    assert "lost to recovery" in faulty


def test_trace_report_zero_total_guard():
    assert format_trace_report([]) is not None  # no ZeroDivisionError


# ---------------------------------------------------------------------------
# critical-path report
# ---------------------------------------------------------------------------
def test_critical_report_names_straggler_rank(tmp_path):
    plan = FaultPlan((StragglerFault(rank=1, compute=4.0),), seed=1)
    res = _run(name="FIR", trace=True, fault_plan=plan)
    report = format_critical_report(res.runtime.tracer)
    assert "straggler: rank 1 was slowest" in report
    # same verdict from the exported file
    path = write_chrome_trace(res.runtime.tracer, tmp_path / "t.json")
    assert "straggler: rank 1 was slowest" in format_critical_report(path)


def test_critical_report_without_launches():
    assert "no launch spans" in format_critical_report(Tracer())


# ---------------------------------------------------------------------------
# metrics fed by an autotuned run
# ---------------------------------------------------------------------------
def test_metrics_after_autotuned_run():
    cache = autotune(make_cluster("simd-focused", NODES), cache=TuningCache())
    METRICS.reset()  # count only the measured run
    res = _run(nodes=NODES, trace=False)
    # rebuild with the tuned cache attached
    spec = PERF_WORKLOADS["KMeans"]("small", seed=0)
    cluster = make_cluster("simd-focused", NODES, tuning=cache)
    res = run_on_cucc(spec, cluster)
    hits = METRICS.value("tuning.cache_hits")
    misses = METRICS.value("tuning.cache_misses")
    assert hits + misses >= 1
    assert METRICS.total("comm.gathers") >= 1
    for algo in res.record.allgather_algos:
        assert METRICS.value("comm.gathers", algo=algo) >= 1
    assert METRICS.total("comm.link_bytes") > 0
    assert METRICS.value("runtime.launches", kernel="kmeans_assign") >= 1


def test_fault_metrics_and_retry_counters():
    plan = FaultPlan((TransientFault(op=1),), seed=1)
    _run(name="FIR", fault_plan=plan)
    assert METRICS.total("faults.events") >= 1
    assert METRICS.total("runtime.retries") >= 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_run_trace_and_report(tmp_path, capsys):
    trace = tmp_path / "t.json"
    rc = cli_main(["run", "kmeans", "--nodes", "4", "--trace", str(trace),
                   "--metrics"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "wrote" in out and "comm.gathers" in out
    obj = json.loads(trace.read_text())
    assert validate_chrome_trace(obj) == []
    rc = cli_main(["report", str(trace)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "critical-path report" in out and "straggler" in out


def test_cli_report_rejects_missing_and_bogus_files(tmp_path, capsys):
    assert cli_main(["report", str(tmp_path / "nope.json")]) == 1
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{}")
    assert "no launch spans" not in capsys.readouterr().err
    rc = cli_main(["report", str(bogus)])
    assert rc == 0  # empty traceEvents: report degrades gracefully
    assert "no launch spans" in capsys.readouterr().out


def test_cli_trace_requires_cucc(capsys):
    rc = cli_main(["run", "FIR", "--platform", "pgas", "--trace", "x.json"])
    assert rc == 1
    assert "--trace requires" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# import hygiene
# ---------------------------------------------------------------------------
LAZY_OBS_MODULES = (
    "repro.obs.export",
    "repro.obs.profiler",
    "repro.obs.drift",
    "repro.obs.observatory",
    "repro.obs.slo",
    "repro.obs.explain",
)


def test_api_import_does_not_load_lazy_obs_modules():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "import sys; import repro.api; "
        f"loaded = [m for m in {LAZY_OBS_MODULES!r} if m in sys.modules]; "
        "print(','.join(loaded)); sys.exit(1 if loaded else 0)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, (
        f"repro.api eagerly imports {proc.stdout.strip()}"
    )


def test_plain_serve_does_not_load_observatory_modules():
    # a server without observatory/slo/postmortem pays nothing: the
    # modules are never even imported
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    lazy = ("repro.obs.observatory", "repro.obs.slo", "repro.obs.explain")
    code = (
        "import sys; "
        "from repro.serve import ServeConfig, serve_requests, "
        "synth_requests; "
        "reqs = synth_requests('FIR', rate=2e6, jobs=2, nodes=2, seed=0); "
        "serve_requests(reqs, ServeConfig(nodes=2)); "
        f"loaded = [m for m in {lazy!r} if m in sys.modules]; "
        "print(','.join(loaded)); sys.exit(1 if loaded else 0)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, (
        f"plain serving imported {proc.stdout.strip()}"
    )


def test_obs_getattr_resolves_export_names():
    import repro.obs as obs

    assert obs.chrome_trace is chrome_trace
    with pytest.raises(AttributeError):
        obs.definitely_not_a_name
