"""Fault injection and fault-tolerant three-phase execution.

The contract under test: a seeded :class:`FaultPlan` is delivered
deterministically; transient collective failures are retried; stragglers
are detected; permanent node crashes trigger shrink-and-repartition
recovery that reproduces the fault-free result bit-for-bit at a strictly
higher modeled cost; and a runtime constructed *without* a plan behaves
exactly as if fault injection did not exist.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import run_on_cucc
from repro.cluster import Cluster, make_cluster
from repro.cluster.faults import (
    CorruptionFault,
    FaultPlan,
    NodeCrash,
    StragglerFault,
    TransientFault,
    parse_fault_spec,
)
from repro.errors import (
    ClusterError,
    CollectiveTimeout,
    DataCorruptionError,
    NodeFailure,
)
from repro.hw import SIMD_FOCUSED_NODE
from repro.obs.export import write_chrome_trace
from repro.runtime import CuCCRuntime, RecoveryPolicy
from repro.workloads import fir, vecadd

NODES = 4


def _cluster(n=NODES):
    return make_cluster("simd-focused", n)


@pytest.fixture(scope="module")
def spec():
    return vecadd.build("small")


@pytest.fixture(scope="module")
def reference(spec):
    """Fault-free run: time and output buffers."""
    res = run_on_cucc(spec, _cluster())
    out = {
        o: res.runtime.memory.memcpy_d2h(o, check_consistency=True)
        for o in spec.outputs
    }
    return res, out


def _outputs(spec, res):
    return {
        o: res.runtime.memory.memcpy_d2h(o, check_consistency=True)
        for o in spec.outputs
    }


# ---------------------------------------------------------------------------
# plan construction and parsing
# ---------------------------------------------------------------------------
def test_crash_needs_exactly_one_trigger():
    with pytest.raises(ClusterError):
        NodeCrash(rank=0)
    with pytest.raises(ClusterError):
        NodeCrash(rank=0, phase="partial", time=1.0)
    with pytest.raises(ClusterError):
        NodeCrash(rank=0, phase="warmup")


def test_straggler_multipliers_must_slow_down():
    with pytest.raises(ClusterError):
        StragglerFault(rank=0, compute=0.5)


def test_parse_fault_spec_grammar():
    faults = parse_fault_spec(
        "crash:rank=1,phase=allgather; transient:op=2,count=3;"
        "corrupt:op=1,rank=0; straggler:rank=3,compute=4.0,network=2.0;"
        "crash:rank=2,time=0.004"
    )
    assert faults == (
        NodeCrash(rank=1, phase="allgather"),
        TransientFault(op=2, count=3),
        CorruptionFault(op=1, rank=0),
        StragglerFault(rank=3, compute=4.0, network=2.0),
        NodeCrash(rank=2, time=0.004),
    )


@pytest.mark.parametrize(
    "bad",
    [
        "explode:rank=1",
        "crash:phase=partial",  # missing rank
        "crash:rank=1,phase=partial,color=red",  # unknown key
        "crash:rank=x,phase=partial",  # bad int
        "transient:op",  # not key=value
    ],
)
def test_parse_fault_spec_rejects(bad):
    with pytest.raises(ClusterError):
        parse_fault_spec(bad)


# ---------------------------------------------------------------------------
# transient + corruption: retried, then succeeds
# ---------------------------------------------------------------------------
def test_transient_collective_retried_then_succeeds(spec, reference):
    ref, ref_out = reference
    plan = FaultPlan((TransientFault(op=1),), seed=3)
    res = run_on_cucc(spec, _cluster(), fault_plan=plan)
    assert res.record.retries == 1
    assert res.record.recoveries == 0
    assert res.record.phases.recovery > 0
    assert res.time > ref.time
    out = _outputs(spec, res)
    for o in spec.outputs:
        assert np.array_equal(out[o], ref_out[o])
    kinds = [e.kind for e in res.record.fault_events]
    assert "transient" in kinds and "retry" in kinds


def test_multi_shot_transient_exhausts_retry_budget(spec):
    # 5 consecutive failures > max_retries=3: the launch must not succeed
    plan = FaultPlan((TransientFault(op=1, count=5),), seed=3)
    with pytest.raises(CollectiveTimeout):
        run_on_cucc(spec, _cluster(), fault_plan=plan, verify=False)


def test_corruption_detected_and_repaired_by_retry(spec, reference):
    ref, ref_out = reference
    plan = FaultPlan((CorruptionFault(op=1, rank=1),), seed=9)
    res = run_on_cucc(spec, _cluster(), fault_plan=plan)
    assert res.record.retries == 1
    assert res.time > ref.time
    out = _outputs(spec, res)
    for o in spec.outputs:
        assert np.array_equal(out[o], ref_out[o])
    assert "corruption" in [e.kind for e in res.record.fault_events]


def test_corruption_surfaces_without_retry_policy():
    """At the communicator level a corrupted Allgather raises, and the
    destination replicas really differ from the source payload."""
    cl = Cluster(SIMD_FOCUSED_NODE, 2)
    from repro.cluster.faults import FaultInjector

    cl.comm.injector = FaultInjector(FaultPlan((CorruptionFault(op=1, rank=0),)))
    for node in cl.nodes:
        buf = node.alloc("d", 8, np.int64)
        buf[node.rank * 4 : (node.rank + 1) * 4] = node.rank + 1
    with pytest.raises(DataCorruptionError):
        cl.comm.allgather_in_place("d", 0, 4)
    # rank 0's own copy of its chunk is intact; rank 1's received copy is not
    assert list(cl.nodes[0].buffer("d")[:4]) == [1, 1, 1, 1]
    assert list(cl.nodes[1].buffer("d")[:4]) != [1, 1, 1, 1]


# ---------------------------------------------------------------------------
# stragglers
# ---------------------------------------------------------------------------
def test_straggler_detected_by_timeout(spec, reference):
    ref, _ = reference
    plan = FaultPlan((StragglerFault(rank=1, compute=10.0),), seed=0)
    res = run_on_cucc(spec, _cluster(), fault_plan=plan)
    events = res.record.fault_events
    detected = [e for e in events if e.kind == "straggler-detected"]
    assert len(detected) == 1 and detected[0].rank == 1
    assert res.time > ref.time  # the slow node stretches the partial phase
    assert res.runtime.cluster.num_nodes == NODES  # detection only, no evict


def test_straggler_eviction_recovers_correct_result(spec, reference):
    _, ref_out = reference
    plan = FaultPlan((StragglerFault(rank=1, compute=10.0),), seed=0)
    res = run_on_cucc(
        spec, _cluster(), fault_plan=plan,
        recovery=RecoveryPolicy(evict_stragglers=True),
    )
    assert res.record.recoveries == 1
    assert res.runtime.cluster.num_nodes == NODES - 1
    out = _outputs(spec, res)
    for o in spec.outputs:
        assert np.array_equal(out[o], ref_out[o])


# ---------------------------------------------------------------------------
# permanent crashes: shrink-and-repartition recovery
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("phase", ["partial", "allgather", "callback"])
def test_crash_at_each_phase_boundary_recovers(spec, reference, phase):
    ref, ref_out = reference
    plan = FaultPlan((NodeCrash(rank=2, phase=phase),), seed=5)
    res = run_on_cucc(spec, _cluster(), fault_plan=plan)
    rec = res.record
    assert rec.recoveries == 1
    assert res.runtime.cluster.num_nodes == NODES - 1
    assert res.time > ref.time  # modeled recovery cost is never free
    out = _outputs(spec, res)
    for o in spec.outputs:
        assert np.array_equal(out[o], ref_out[o])
    kinds = [e.kind for e in rec.fault_events]
    assert kinds[0] == "crash" and "recover-shrink" in kinds
    # a crash before the invariant is restored must restore + re-plan;
    # after the Allgather only the callback work is replayed
    if phase in ("partial", "allgather"):
        assert "restore" in kinds and "replan" in kinds
    else:
        assert "restore" not in kinds and "replan" not in kinds


def test_time_triggered_crash_recovers(spec, reference):
    _, ref_out = reference
    plan = FaultPlan((NodeCrash(rank=0, time=0.0),), seed=5)
    res = run_on_cucc(spec, _cluster(), fault_plan=plan)
    assert res.record.recoveries == 1
    out = _outputs(spec, res)
    for o in spec.outputs:
        assert np.array_equal(out[o], ref_out[o])


def test_two_crashes_in_one_launch(spec, reference):
    _, ref_out = reference
    plan = FaultPlan(
        (NodeCrash(rank=1, phase="partial"), NodeCrash(rank=3, phase="allgather")),
        seed=5,
    )
    res = run_on_cucc(spec, _cluster(), fault_plan=plan)
    assert res.record.recoveries == 2
    assert res.runtime.cluster.num_nodes == NODES - 2
    out = _outputs(spec, res)
    for o in spec.outputs:
        assert np.array_equal(out[o], ref_out[o])


def test_tail_divergent_kernel_survives_crash():
    """FIR has callback blocks (tail divergence); recovery must keep them
    correct too."""
    spec_fir = fir.build("small")
    ref = run_on_cucc(spec_fir, _cluster())
    ref_out = {
        o: ref.runtime.memory.memcpy_d2h(o, check_consistency=True)
        for o in spec_fir.outputs
    }
    plan = FaultPlan((NodeCrash(rank=1, phase="allgather"),), seed=2)
    res = run_on_cucc(spec_fir, _cluster(), fault_plan=plan)
    assert res.record.recoveries == 1
    assert not res.record.plan.replicated  # re-planned, still distributed
    out = {
        o: res.runtime.memory.memcpy_d2h(o, check_consistency=True)
        for o in spec_fir.outputs
    }
    for o in spec_fir.outputs:
        assert np.array_equal(out[o], ref_out[o])


def test_unrecoverable_when_all_nodes_crash(spec):
    plan = FaultPlan(
        (NodeCrash(rank=0, phase="allgather"), NodeCrash(rank=1, phase="allgather")),
        seed=1,
    )
    with pytest.raises(ClusterError, match="unrecoverable"):
        run_on_cucc(spec, _cluster(2), fault_plan=plan, verify=False)


def test_min_nodes_policy_refuses_deep_shrink(spec):
    plan = FaultPlan((NodeCrash(rank=2, phase="partial"),), seed=1)
    with pytest.raises(ClusterError, match="unrecoverable"):
        run_on_cucc(
            spec, _cluster(), fault_plan=plan, verify=False,
            recovery=RecoveryPolicy(min_nodes=NODES),
        )


def test_dead_node_refuses_memory_access():
    cl = Cluster(SIMD_FOCUSED_NODE, 2)
    cl.nodes[1].alloc("d", 4, np.int32)
    cl.nodes[1].fail("test")
    with pytest.raises(NodeFailure) as ei:
        cl.nodes[1].buffer("d")
    assert ei.value.ranks == (1,)
    assert "DOWN" in repr(cl.nodes[1])


def test_remove_dead_reranks_survivors():
    cl = Cluster(SIMD_FOCUSED_NODE, 4)
    cl.nodes[1].fail("test")
    removed = cl.remove_dead()
    assert [n.born_rank for n in removed] == [1]
    assert cl.num_nodes == 3
    assert [n.rank for n in cl.nodes] == [0, 1, 2]  # contiguous again
    assert [n.born_rank for n in cl.nodes] == [0, 2, 3]  # identity kept
    assert cl.comm.size == 3


# ---------------------------------------------------------------------------
# determinism: same plan, same seed => identical everything
# ---------------------------------------------------------------------------
def test_deterministic_replay_explicit_plan(spec):
    plan = FaultPlan(
        (NodeCrash(rank=2, phase="allgather"), TransientFault(op=1),
         CorruptionFault(op=2, rank=0)),
        seed=11,
    )
    runs = []
    for _ in range(2):
        res = run_on_cucc(spec, _cluster(), fault_plan=plan, verify=False)
        runs.append(res)
    a, b = runs
    assert a.time == b.time  # identical modeled times, bit for bit
    assert [e.describe() for e in a.record.fault_events] == [
        e.describe() for e in b.record.fault_events
    ]
    for o in spec.outputs:
        assert np.array_equal(
            a.runtime.memory.memcpy_d2h(o), b.runtime.memory.memcpy_d2h(o)
        )


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_deterministic_replay_random_plans(seed):
    spec = vecadd.build("small")
    plan = FaultPlan.random(
        seed=seed, num_nodes=NODES, crashes=1, stragglers=1, transients=1
    )
    a = run_on_cucc(spec, _cluster(), fault_plan=plan, verify=False)
    b = run_on_cucc(spec, _cluster(), fault_plan=plan, verify=False)
    assert a.time == b.time
    assert a.record.retries == b.record.retries
    assert a.record.recoveries == b.record.recoveries
    assert [e.describe() for e in a.record.fault_events] == [
        e.describe() for e in b.record.fault_events
    ]
    for o in spec.outputs:
        assert np.array_equal(
            a.runtime.memory.memcpy_d2h(o), b.runtime.memory.memcpy_d2h(o)
        )


# ---------------------------------------------------------------------------
# zero overhead by default
# ---------------------------------------------------------------------------
def _traced_fat_tree_run(spec, fault_plan=None):
    cluster = make_cluster("simd-focused", NODES, topology="fat-tree:2")
    return run_on_cucc(spec, cluster, fault_plan=fault_plan, trace=True)


@pytest.fixture(scope="module")
def traced_reference(spec):
    """Fault-free traced run on a contended fabric."""
    return _traced_fat_tree_run(spec)


@pytest.mark.parametrize(
    "plan",
    ["", "transient:op=99", "crash:rank=1,time=1e9"],
    ids=["empty", "transient-never-due", "crash-never-due"],
)
def test_no_fault_plan_is_bit_identical_to_seed_behaviour(
    spec, traced_reference, plan, tmp_path
):
    """An empty plan and an armed injector whose faults never fire both
    reproduce the no-plan run exactly: the launch loop is one code path."""
    ref = traced_reference
    assert not ref.record.plan.replicated  # phase 2 really runs
    res = _traced_fat_tree_run(spec, FaultPlan.parse(plan))
    if not plan:
        assert res.runtime.injector is None
    else:
        assert res.runtime.injector is not None
    assert res.time == ref.time
    assert res.record.phases == ref.record.phases
    assert res.record.phases.recovery == 0.0
    assert res.record.fault_events == []
    assert res.record.retries == 0 and res.record.recoveries == 0
    assert [c.as_dict() for c in res.record.partial_counters] == [
        c.as_dict() for c in ref.record.partial_counters
    ]
    assert (
        res.record.callback_counters.as_dict()
        == ref.record.callback_counters.as_dict()
    )
    out = _outputs(spec, res)
    ref_out = _outputs(spec, ref)
    for o in spec.outputs:
        assert np.array_equal(out[o], ref_out[o])
    # trace reports render identically (no fault summary line)
    assert res.runtime.report() == ref.runtime.report()
    assert "faults" not in ref.runtime.report()
    a = write_chrome_trace(ref.runtime.tracer, tmp_path / "ref.json")
    b = write_chrome_trace(res.runtime.tracer, tmp_path / "res.json")
    assert a.read_bytes() == b.read_bytes()


def test_fault_free_describe_has_no_fault_suffix(reference):
    ref, _ = reference
    assert "recover" not in ref.record.describe()


# ---------------------------------------------------------------------------
# checkpoint/restore building blocks
# ---------------------------------------------------------------------------
def test_checkpoint_restore_roundtrip():
    cl = Cluster(SIMD_FOCUSED_NODE, 3)
    rt = CuCCRuntime(cl)
    rt.memory.alloc("x", 8, np.float32)
    rt.memory.memcpy_h2d("x", np.arange(8, dtype=np.float32))
    ckpt = rt.memory.checkpoint(["x"], label="t")
    for node in cl.nodes:
        node.buffer("x")[:] = -1.0
    t_before = cl.max_clock
    rt.memory.restore(ckpt)
    assert cl.max_clock == t_before  # restoring never rewinds clocks
    assert np.array_equal(
        rt.memory.memcpy_d2h("x", check_consistency=True),
        np.arange(8, dtype=np.float32),
    )
    assert ckpt.nbytes == 32


def test_checkpoint_restore_onto_shrunken_cluster():
    cl = Cluster(SIMD_FOCUSED_NODE, 3)
    rt = CuCCRuntime(cl)
    rt.memory.alloc("x", 4, np.int32)
    rt.memory.memcpy_h2d("x", np.array([1, 2, 3, 4], np.int32))
    ckpt = rt.memory.checkpoint()
    cl.nodes[2].fail("test")
    cl.remove_dead()
    for node in cl.nodes:
        node.buffer("x")[:] = 0
    rt.memory.restore(ckpt)
    assert np.array_equal(
        rt.memory.memcpy_d2h("x", check_consistency=True),
        np.array([1, 2, 3, 4], np.int32),
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_run_with_faults(capsys):
    from repro.cli import main

    rc = main([
        "run", "VecAdd", "--nodes", "4",
        "--faults", "crash:rank=1,phase=allgather",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "crash rank 1" in out
    assert "recover-shrink" in out
    assert "verified on all 3 node replicas" in out


def test_cli_rejects_bad_fault_spec(capsys):
    from repro.cli import main

    rc = main(["run", "VecAdd", "--faults", "explode:rank=1"])
    assert rc == 1
    assert "unknown fault kind" in capsys.readouterr().err


# -- RecoveryPolicy validation (elastic-ops satellite) -----------------------


@pytest.mark.parametrize(
    "kwargs, msg",
    [
        (dict(max_retries=-1), "max_retries"),
        (dict(backoff_base_s=-0.1), "backoff_base_s"),
        (dict(backoff_factor=0.0), "backoff_factor"),
        (dict(failure_detect_s=-1.0), "failure_detect_s"),
        (dict(straggler_factor=0.0), "straggler_factor"),
        (dict(min_nodes=0), "min_nodes"),
    ],
)
def test_recovery_policy_validates_fields(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        RecoveryPolicy(**kwargs)


def test_recovery_exhausted_diagnosis_names_cause(spec):
    """The surfaced error keeps its concrete class and carries a
    one-line diagnosis (what failed, which boundary, what survived)."""
    plan = FaultPlan((TransientFault(op=1, count=5),), seed=3)
    with pytest.raises(CollectiveTimeout) as ei:
        run_on_cucc(spec, _cluster(), fault_plan=plan, verify=False)
    msg = str(ei.value)
    assert "recovery exhausted" in msg
    assert "after 3 retries" in msg
