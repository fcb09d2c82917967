"""The per-layer wrappers sit where the program calls, and change nothing.

Each workload runs shortened, once untraced and once traced; the traced run
must reproduce the untraced digests, and each per-layer metric must read
zero or nonzero on the workloads the benchmark's notes say it should.
"""
import pytest

from nobcr import coding, engine, forwarding, harness, node
from rep import row_digest, run_pass
from tracer import Tracer
from workloads import WORKLOADS

SHORT_S = 10.0
SEED = 3


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """workload -> (per-layer metrics, traced digests, untraced digests)"""
    out = {}
    for name, workload in WORKLOADS.items():
        scratch = tmp_path_factory.mktemp(name)
        rows, _ = run_pass(workload, SEED, scratch, sim_duration=SHORT_S)
        plain = [row_digest(r) for r in rows]
        tracer = Tracer()
        with tracer.installed():
            rows, _ = run_pass(workload, SEED, scratch, sim_duration=SHORT_S)
        out[name] = (tracer.layer_metrics(), [row_digest(r) for r in rows], plain)
    return out


def test_wrappers_are_transparent(traced):
    for name, (_, with_trace, without) in traced.items():
        assert with_trace == without, name


def test_wrappers_are_removed_on_exit():
    originals = (node.Node.on_receive, coding.detect_coding, node.elect_forwarders,
                 forwarding.greedy_set_cover, engine.Simulation.run, harness.run_one)
    with Tracer().installed():
        assert node.Node.on_receive is not originals[0]
    assert (node.Node.on_receive, coding.detect_coding, node.elect_forwarders,
            forwarding.greedy_set_cover, engine.Simulation.run, harness.run_one) == originals


def test_coding_layer_idle_when_coding_is_off(traced):
    layers = traced["mobile-flood"][0]
    # every variant keeps a packet pool and builds packets through encode();
    # everything else in the coding layer belongs to coding proper
    shared = {"coding.record_copy.calls"}
    coding_calls = {k: v for k, v in layers.items() if k.startswith("coding.") and k.endswith(".calls")}
    assert coding_calls.keys() - shared
    for key in coding_calls.keys() - shared:
        assert coding_calls[key] == 0, key


def test_waypoints_only_on_the_mobile_workload(traced):
    assert traced["mobile-flood"][0]["engine.waypoint.position.calls"] > 0
    for name in ("static-lightweight", "sweep-table"):
        assert traced[name][0]["engine.waypoint.position.calls"] == 0, name


def test_reception_tables_only_on_the_sweep(traced):
    for name, (layers, _, _) in traced.items():
        assert (layers["coding.table.mark.calls"] > 0) == (name == "sweep-table"), name


# metric -> workloads on which it must be nonzero (NOTES.md, layer map)
ALL = tuple(WORKLOADS)
NONZERO = {
    "engine.events": ALL,
    "engine.events.rx": ALL,
    "engine.events.rad": ALL,
    "engine.events.hello": ALL,
    "engine.events.gen": ALL,
    "engine.events.evict": ALL,
    "engine.events.sample": ("sweep-table",),
    "engine.self_s": ALL,
    "engine.waypoint.position.s": ("mobile-flood",),
    "engine.rx_per_broadcast": ALL,
    "engine.collision_share": ALL,
    "engine.init_s": ALL,
    "node.on_receive.calls": ALL,
    "node.on_receive.s": ALL,
    "node.on_receive.p50_us": ALL,
    "node.on_receive.p99_us": ALL,
    "node.on_rad_expiry.s": ALL,
    "node.on_hello.s": ALL,
    "node.on_generate.s": ALL,
    "node.on_pool_evict.s": ALL,
    "node.periodic.s": ALL,
    "node.self_s": ALL,
    "coding.detect_coding.s": ("static-lightweight", "sweep-table"),
    "coding.plan_hit_ratio": ("static-lightweight", "sweep-table"),
    "coding.receivers_of.s": ("static-lightweight",),
    "coding.decode.s": ("static-lightweight", "sweep-table"),
    "coding.decode_ok_ratio": ("static-lightweight", "sweep-table"),
    "coding.encode.s": ALL,
    "coding.record_copy.s": ALL,
    "coding.table.mark.s": ("sweep-table",),
    "coding.table.holders.s": ("sweep-table",),
    "coding.table.prune.s": ("sweep-table",),
    "coding.encoded_share": ("static-lightweight", "sweep-table"),
    "coding.gratis_use_ratio": ("static-lightweight", "sweep-table"),
    "forwarding.elect.s": ALL,
    "forwarding.greedy_set_cover.s": ALL,
    "forwarding.forwarders_per_election": ALL,
    "termination.check.s": ALL,
    "termination.drop_ratio": ALL,
    "metrics.summary.s": ALL,
    "metrics.delivered_entries": ALL,
    "harness.run_one.s": ALL,
    "harness.parallel_efficiency": ("sweep-table",),
    "harness.aggregate.s": ("sweep-table",),
    "harness.write.s": ("sweep-table",),
    "harness.row_bytes": ("sweep-table",),
    "config.from_mapping.s": ALL,
}


@pytest.mark.parametrize("metric", sorted(NONZERO))
def test_metric_nonzero_where_named(traced, metric):
    for name in NONZERO[metric]:
        assert traced[name][0][metric] > 0, (metric, name)


def test_harness_layer_idle_outside_the_sweep(traced):
    for name in ("static-lightweight", "mobile-flood"):
        layers = traced[name][0]
        for key in ("harness.parallel_efficiency", "harness.aggregate.s", "harness.write.s", "harness.row_bytes"):
            assert layers[key] == 0, (name, key)
