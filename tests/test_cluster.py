"""Simulated cluster: clocks, node isolation, collectives, communicator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, SimClock, collectives as coll, make_cluster
from repro.errors import ClusterError, DeviceMemoryError
from repro.hw import INFINIBAND_100G, SIMD_FOCUSED_NODE, THREAD_FOCUSED_NODE

NET = INFINIBAND_100G


# ---------------------------------------------------------------------------
# clocks
# ---------------------------------------------------------------------------
def test_simclock():
    c = SimClock()
    assert c.now == 0.0
    c.advance(1.5)
    c.wait_until(1.0)  # no-op backwards
    assert c.now == 1.5
    c.wait_until(2.0)
    assert c.now == 2.0
    with pytest.raises(ValueError):
        c.advance(-1)
    c.reset()
    assert c.now == 0.0


# ---------------------------------------------------------------------------
# node memory isolation
# ---------------------------------------------------------------------------
def test_nodes_have_private_memory():
    cl = Cluster(SIMD_FOCUSED_NODE, 3)
    for node in cl.nodes:
        node.alloc("buf", 16, np.float32)
    cl.nodes[0].buffer("buf")[:] = 7.0
    assert np.all(cl.nodes[1].buffer("buf") == 0.0)
    assert np.all(cl.nodes[2].buffer("buf") == 0.0)
    assert cl.nodes[0].buffer("buf").base is None  # no shared storage


def test_node_alloc_errors():
    cl = Cluster(SIMD_FOCUSED_NODE, 1)
    node = cl.nodes[0]
    node.alloc("x", 4, np.int32)
    with pytest.raises(DeviceMemoryError):
        node.alloc("x", 4, np.int32)
    with pytest.raises(DeviceMemoryError):
        node.buffer("nope")
    node.free("x")
    with pytest.raises(DeviceMemoryError):
        node.free("x")


def test_make_cluster():
    cl = make_cluster("simd-focused", 4)
    assert cl.num_nodes == 4 and cl.total_cores == 96
    assert abs(cl.peak_tflops - 4 * 4.15) < 0.1
    with pytest.raises(ClusterError):
        make_cluster("simd-focused", 33)  # only 32 physical nodes
    with pytest.raises(ClusterError):
        make_cluster("nonsense", 2)
    capped = make_cluster("thread-focused", 2, cores_per_node=64)
    assert capped.node_spec.cores == 64


# ---------------------------------------------------------------------------
# collective cost model properties
# ---------------------------------------------------------------------------
@given(
    n=st.integers(2, 64),
    mb=st.floats(0.001, 1000),
)
@settings(max_examples=60, deadline=None)
def test_balanced_inplace_is_cheapest(n, mb):
    payload = mb * 1e6
    t_in = coll.allgather_inplace_cost(NET, n, payload)
    t_out = coll.allgather_outofplace_cost(NET, n, payload, 100.0)
    shares = [payload / n] * n
    shares[0] = payload / 2
    rest = (payload - shares[0]) / (n - 1)
    shares[1:] = [rest] * (n - 1)
    t_imb = coll.allgather_imbalanced_cost(NET, shares)
    assert t_in <= t_out
    assert t_in <= t_imb + 1e-12


@given(n=st.integers(2, 64), mb1=st.floats(1, 100), mb2=st.floats(1, 100))
@settings(max_examples=40, deadline=None)
def test_allgather_cost_monotone_in_bytes(n, mb1, mb2):
    lo, hi = sorted([mb1, mb2])
    assert coll.allgather_inplace_cost(NET, n, lo * 1e6) <= (
        coll.allgather_inplace_cost(NET, n, hi * 1e6)
    )


def test_collective_edge_cases():
    assert coll.allgather_inplace_cost(NET, 1, 1e9) == 0.0
    assert coll.allgather_inplace_cost(NET, 8, 0) == 0.0
    assert coll.bcast_cost(NET, 1, 1e9) == 0.0
    assert coll.barrier_cost(NET, 1) == 0.0
    assert coll.rma_cost(NET, 0, 0) == 0.0
    assert coll.ptp_cost(NET, 1e6) > 1e6 / NET.beta_bytes_per_s


# ---------------------------------------------------------------------------
# communicator: functional data movement + clock advancement
# ---------------------------------------------------------------------------
@given(
    nodes=st.integers(2, 6),
    per_rank=st.integers(1, 50),
    base=st.integers(0, 10),
)
@settings(max_examples=30, deadline=None)
def test_allgather_in_place_reconstructs_concatenation(nodes, per_rank, base):
    cl = Cluster(SIMD_FOCUSED_NODE, nodes)
    total = base + per_rank * nodes + 3
    rng = np.random.default_rng(nodes * 100 + per_rank)
    slices = [rng.integers(0, 1000, per_rank).astype(np.int64)
              for _ in range(nodes)]
    for r, node in enumerate(cl.nodes):
        buf = node.alloc("d", total, np.int64)
        buf[base + r * per_rank : base + (r + 1) * per_rank] = slices[r]
    t0 = cl.max_clock
    cl.comm.allgather_in_place("d", base, per_rank)
    expected = np.concatenate(slices)
    for node in cl.nodes:
        got = node.buffer("d")[base : base + per_rank * nodes]
        assert np.array_equal(got, expected)
    assert cl.max_clock > t0  # time advanced
    assert all(n.clock.now == cl.max_clock for n in cl.nodes)  # synchronized


def test_allgather_preserves_data_outside_region():
    cl = Cluster(SIMD_FOCUSED_NODE, 2)
    for node in cl.nodes:
        buf = node.alloc("d", 10, np.int32)
        buf[:] = 99  # replicated pre-state
        buf[2 + node.rank * 3 : 2 + (node.rank + 1) * 3] = node.rank + 1
    cl.comm.allgather_in_place("d", 2, 3)
    for node in cl.nodes:
        b = node.buffer("d")
        assert list(b[:2]) == [99, 99] and list(b[8:]) == [99, 99]
        assert list(b[2:8]) == [1, 1, 1, 2, 2, 2]


def test_allgather_out_of_place():
    cl = Cluster(SIMD_FOCUSED_NODE, 3)
    for node in cl.nodes:
        src = node.alloc("src", 4, np.int32)
        node.alloc("dst", 12, np.int32)
        src[:] = node.rank
    cl.comm.allgather_out_of_place("src", "dst", 4, copy_GBs=100.0)
    for node in cl.nodes:
        assert list(node.buffer("dst")) == [0] * 4 + [1] * 4 + [2] * 4


def test_allgatherv_imbalanced():
    cl = Cluster(SIMD_FOCUSED_NODE, 2)
    counts = [3, 1]
    for node in cl.nodes:
        node.alloc("d", 4, np.int32)
    cl.nodes[0].buffer("d")[0:3] = [1, 2, 3]
    cl.nodes[1].buffer("d")[3:4] = [4]
    cl.comm.allgatherv_in_place("d", 0, counts)
    for node in cl.nodes:
        assert list(node.buffer("d")) == [1, 2, 3, 4]
    with pytest.raises(ClusterError):
        cl.comm.allgatherv_in_place("d", 0, [1])


def test_allgather_slice_out_of_range():
    cl = Cluster(SIMD_FOCUSED_NODE, 2)
    for node in cl.nodes:
        node.alloc("d", 4, np.int8)
    with pytest.raises(ClusterError, match="out of range"):
        cl.comm.allgather_in_place("d", 0, 3)  # 2 ranks x 3 > 4


def test_bcast():
    cl = Cluster(THREAD_FOCUSED_NODE, 3)
    for node in cl.nodes:
        node.alloc("d", 5, np.float64)
    cl.nodes[1].buffer("d")[:] = 3.14
    cl.comm.bcast("d", root=1)
    for node in cl.nodes:
        assert np.all(node.buffer("d") == 3.14)
    with pytest.raises(ClusterError):
        cl.comm.bcast("d", root=9)


def test_send_slice():
    cl = Cluster(SIMD_FOCUSED_NODE, 2)
    for node in cl.nodes:
        node.alloc("d", 8, np.int16)
    cl.nodes[0].buffer("d")[2:5] = [7, 8, 9]
    d = cl.comm.send_slice("d", 0, 1, 2, 5)
    assert d > 0
    assert list(cl.nodes[1].buffer("d")[2:5]) == [7, 8, 9]
    assert cl.comm.send_slice("d", 1, 1, 0, 4) == 0.0  # self-send free


def test_barrier_synchronizes_clocks():
    cl = Cluster(SIMD_FOCUSED_NODE, 3)
    cl.nodes[0].clock.advance(1.0)
    cl.nodes[2].clock.advance(5.0)
    cl.comm.barrier()
    assert all(n.clock.now >= 5.0 for n in cl.nodes)
    assert len({n.clock.now for n in cl.nodes}) == 1


def test_comm_accounting():
    cl = Cluster(SIMD_FOCUSED_NODE, 2)
    for node in cl.nodes:
        node.alloc("d", 8, np.int32)
    cl.comm.allgather_in_place("d", 0, 4)
    assert cl.comm.comm_bytes == 2 * 4 * 4  # each rank's 16B to 1 peer
    assert cl.comm.comm_seconds > 0
    cl.reset_clocks()
    assert cl.max_clock == 0.0 and cl.comm.comm_bytes == 0


def test_allreduce_sum():
    cl = Cluster(SIMD_FOCUSED_NODE, 3)
    for node in cl.nodes:
        buf = node.alloc("d", 4, np.float32)
        buf[:] = node.rank + 1  # 1, 2, 3
    d = cl.comm.allreduce_sum("d")
    assert d > 0
    for node in cl.nodes:
        assert np.all(node.buffer("d") == 6.0)


def test_allreduce_deterministic_float_order():
    cl1 = Cluster(SIMD_FOCUSED_NODE, 4)
    cl2 = Cluster(SIMD_FOCUSED_NODE, 4)
    rng = np.random.default_rng(0)
    vals = rng.random((4, 64)).astype(np.float32)
    for cl in (cl1, cl2):
        for node in cl.nodes:
            node.alloc("d", 64, np.float32)[:] = vals[node.rank]
        cl.comm.allreduce_sum("d")
    assert np.array_equal(cl1.nodes[0].buffer("d"), cl2.nodes[3].buffer("d"))


def test_allreduce_and_reduce_costs():
    assert coll.allreduce_cost(NET, 8, 1e6) > coll.allgather_inplace_cost(
        NET, 8, 1e6
    )
    assert coll.reduce_cost(NET, 8, 1e6) > 0
    assert coll.allreduce_cost(NET, 1, 1e6) == 0
    assert coll.reduce_cost(NET, 1, 1e6) == 0


def test_zero_byte_allgather_is_modeled_noop():
    """per_rank == 0 must be a true no-op: no data, no cost, no clock sync."""
    cl = Cluster(SIMD_FOCUSED_NODE, 3)
    for node in cl.nodes:
        node.alloc("d", 6, np.int32)
    cl.nodes[0].clock.advance(1.0)  # deliberately skew the clocks
    before = [n.clock.now for n in cl.nodes]
    d = cl.comm.allgather_in_place("d", 0, 0)
    assert d == 0.0
    assert [n.clock.now for n in cl.nodes] == before  # not even synchronized
    assert cl.comm.comm_bytes == 0 and cl.comm.comm_seconds == 0.0
