"""Run counters: per-packet delivery masks and the delay statistics."""
import statistics
from array import array

from hypothesis import given, strategies as st

from nobcr.metrics import Metrics
from nobcr.model import PacketId

from oracles import PerNodeDeliveries

N_NODES = 7
PIDS = [PacketId(s, sn) for s in range(3) for sn in range(1, 4)]

deliveries = st.lists(
    st.tuples(
        st.integers(0, N_NODES - 1),
        st.sampled_from(PIDS),
        st.floats(0.0, 5.0, allow_nan=False),
    ),
    max_size=80,
)


@given(deliveries)
def test_delivery_masks_match_per_node_sets(sequence):
    metrics, oracle = Metrics(N_NODES), PerNodeDeliveries(N_NODES)
    for node, pid, delay in sequence:
        metrics.on_delivery(node, pid, delay)
        oracle.on_delivery(node, pid, delay)
    assert metrics.deliveries == oracle.deliveries
    assert isinstance(metrics.delay_samples, array) and metrics.delay_samples.typecode == "d"
    assert list(metrics.delay_samples) == oracle.delay_samples
    for pid in PIDS:
        assert metrics.delivered_nodes(pid) == oracle.delivered_nodes(pid)
    assert metrics.delivered == oracle.delivered
    assert sorted(metrics.delivered_to) == sorted(set().union(*oracle.delivered))


@given(st.lists(st.floats(0.0, 1e3, allow_nan=False), max_size=300))
def test_delay_summary_matches_the_statistics_module(delays):
    metrics = Metrics(2)
    for i, delay in enumerate(delays):
        metrics.on_delivery(1, PacketId(0, i + 1), delay)
    s = metrics.summary()
    if not delays:
        assert (s["mean_delay"], s["median_delay"], s["p90_delay"]) == (0.0, 0.0, 0.0)
        return
    assert s["mean_delay"] == statistics.fmean(delays)
    assert s["median_delay"] == statistics.median(delays)
    p90 = delays[0] if len(delays) == 1 else statistics.quantiles(delays, n=100)[89]
    assert s["p90_delay"] == p90
