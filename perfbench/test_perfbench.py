"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import suite  # noqa: E402
from spans import Patches, Recorder, Span, install_layers, layer_table, self_times  # noqa: E402

from repro.runtime.cucc import CuCCRuntime  # noqa: E402
from repro.serve import synth_requests  # noqa: E402
from repro.workloads import PERF_WORKLOADS  # noqa: E402


# -- self time ---------------------------------------------------------------
def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, None, "j"),
        Span("a", 1.0, 4.0, 0, "j"),
        Span("b", 3.0, 6.0, 0, "j"),  # overlaps a on [3, 4]
        Span("c", 5.0, 12.0, 0, "j"),  # runs past the parent's end
        Span("d", 2.0, 3.0, 1, "j"),  # grandchild: not the root's child
    ]
    assert self_times(spans) == pytest.approx([1.0, 2.0, 3.0, 7.0, 1.0])
    table = layer_table(spans)
    assert table["root"] == {"self_s": pytest.approx(1.0), "total_s": 10.0,
                             "calls": 1}
    assert table["a"]["calls"] == 1


def test_recursive_layer_total_counts_outermost_only():
    spans = [Span("x", 0.0, 4.0, None, None), Span("x", 1.0, 2.0, 0, None)]
    assert layer_table(spans)["x"] == {"self_s": pytest.approx(4.0),
                                       "total_s": 4.0, "calls": 2}


def test_recorder_nests_and_inherits_job_id():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    with rec.span("outer", job_id="job-7"):
        with rec.span("inner"):
            pass
    outer, inner = rec.spans
    assert inner.parent == 0 and inner.job_id == "job-7"
    assert (outer.start, inner.start, inner.end, outer.end) == (0, 1, 2, 3)


def _serve(mix, **faults):
    """A two-job serving workload on a 4-node pool."""
    return suite.ServeWorkload(
        "t", "",
        lambda seed: synth_requests(mix, rate=1e6, jobs=2, nodes=2,
                                    seed=seed, **faults),
        dict(nodes=4, backend="jit"),
    )


# -- wrappers ------------------------------------------------------------------
def test_wrappers_record_layers_and_restore_every_original():
    compile_fn = CuCCRuntime.__dict__["compile"]
    builder = PERF_WORKLOADS["FIR"]
    rec = Recorder()
    patches = Patches(rec)
    install_layers(patches)
    try:
        w = _serve("FIR")
        _, ops = w.run_unit(w.setup(0), "serve", rec)
    finally:
        patches.restore()
    assert CuCCRuntime.__dict__["compile"] is compile_fn
    assert PERF_WORKLOADS["FIR"] is builder
    assert all(op.error is None for op in ops)
    calls = {k: v["calls"] for k, v in layer_table(rec.spans).items()}
    for layer in ("serve.loop", "serve.job", "workloads.build",
                  "frontend.parse", "runtime.compile", "jit.exec",
                  "memory.h2d", "workloads.verify"):
        assert calls.get(layer, 0) > 0, layer
    assert {s.job_id for s in rec.spans if s.name == "frontend.parse"} == {
        "job-0000", "job-0001"}


# -- failure accounting --------------------------------------------------------
def _failed(ops) -> int:
    return run.tally(ops)[1]


def test_raise_counts_once():
    def boom(spec):
        raise RuntimeError("boom")

    w = suite.PaperWorkload("t", "", ("FIR",), boom, "launch")
    _, ops = w.run_unit({"FIR": PERF_WORKLOADS["FIR"]("small", seed=0)},
                        "FIR")
    run.check_ops(ops, "00000000", "committed")
    assert run.tally(ops) == (1, 1)
    assert ops[0].error.startswith("RuntimeError")


def test_verify_mismatch_counts_once():
    spec = PERF_WORKLOADS["FIR"]("small", seed=0)
    spec.reference["output"] = spec.reference["output"] + 1.0
    w = suite.PaperWorkload("t", "", ("FIR",), suite.launch_op, "launch")
    _, ops = w.run_unit({"FIR": spec}, "FIR")
    run.check_ops(ops, "00000000", "committed")
    assert _failed(ops) == 1
    assert "mismatches reference" in ops[0].error


def test_terminal_job_failure_counts_once():
    w = _serve("FIR", faults="crash:rank=0,phase=partial;"
                             "crash:rank=1,phase=partial", fault_every=2)
    state = w.setup(0)
    _, ops = w.run_unit(state, "serve")
    expected = run.unit_digests(ops)
    run.check_ops(ops, expected, "committed")
    assert run.tally(ops) == (2, 1)
    assert ops[1].error.startswith("job failed")


def test_digest_mismatch_counts_once():
    w = suite.PaperWorkload("t", "", ("FIR",), suite.launch_op, "launch")
    _, ops = w.run_unit({"FIR": PERF_WORKLOADS["FIR"]("small", seed=0)},
                        "FIR")
    good = run.unit_digests(ops)
    run.check_ops(ops, good, "committed")
    assert _failed(ops) == 0
    run.check_ops(ops, "f" * len(good), "committed")
    run.check_ops(ops, "e" * len(good), "committed")
    assert _failed(ops) == 1


def test_no_table_checks_nothing():
    ops = [suite.Op("a", None, "12345678")]
    run.check_ops(ops, None, "committed")
    assert _failed(ops) == 0


# -- seeds -----------------------------------------------------------------
def test_seed_changes_inputs_and_same_seed_reproduces_them():
    for name in ("serve-mix", "serve-faulty"):
        serve = suite.WORKLOADS[name]
        assert serve.setup(3)["requests"] == serve.setup(3)["requests"]
        assert serve.setup(3)["requests"] != serve.setup(4)["requests"]
    paper = suite.PaperWorkload("t", "", ("GA",), suite.launch_op, "launch")
    a, b, c = paper.setup(3)["GA"], paper.setup(3)["GA"], paper.setup(4)["GA"]
    assert all((a.arrays[k] == b.arrays[k]).all() for k in a.arrays)
    assert any((a.arrays[k] != c.arrays[k]).any() for k in a.arrays)


def test_faulty_trace_fixes_work_per_kernel_and_width():
    a, b = suite.faulty_requests(3), suite.faulty_requests(4)
    mix = lambda reqs: sorted((r.workload, r.nodes, bool(r.faults))  # noqa: E731
                              for r in reqs)
    assert mix(a) == mix(b) and len(a) == 16 * 12
    assert len({r.job_id for r in a}) == len(a)
    assert [r.arrival_s for r in a] == sorted(r.arrival_s for r in a)


def test_digest_is_exact_on_floats():
    assert suite.digest((0.1 + 0.2,)) != suite.digest((0.3,))
    assert suite.digest((1.0, "x")) == suite.digest((1.0, "x"))
