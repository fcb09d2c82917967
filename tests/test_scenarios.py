"""Scripted scenario regressions and script loader validation.

The two shipped scripts are the executable versions of the worked examples:
a sequence-number gap that cumulative termination mistakes for a duplicate,
and a coded transmission whose gratis constituent would poison the bitmap
if it were allowed to touch termination state.
"""
import json

import pytest

from nobcr.config import ConfigError
from nobcr.model import ConstituentHeader, PacketId, bit
from nobcr.scenario import ScriptError, load_script, run_scenario, script_dir


def _script(name):
    return load_script(script_dir() / name)


def _write(tmp_path, body):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(body))
    return p


MINIMAL = {
    "config": {
        "n_nodes": 3,
        "area_side": 500,
        "sim_duration": 1.0,
        "n_sources": 1,
        "hello_enabled": False,
    },
    "positions": [[0, 0], [100, 0], [200, 0]],
    "injections": [{"time": 0.1, "source": 0, "sn": 1}],
}


def _assert_static_only(tmp_path, body):
    """A script's fixed topology with moving nodes is rejected when its run is
    built, whether the speeds come from the script or from the run's overrides."""
    static = load_script(_write(tmp_path, body))
    mobile = {"hello_enabled": True, "speed_min": 1.0, "speed_max": 5.0}  # moving nodes need hellos
    body["config"].update(mobile)
    moving = load_script(_write(tmp_path, body))
    for scenario, overrides in [(static, mobile), (moving, {})]:
        with pytest.raises(ConfigError, match="needs a static run, but speed_max = 5.0"):
            run_scenario(scenario, **overrides)


class TestSequenceGapScript:
    """Reordered packet crossing a newer one on a chain with two leaves.

    Node 1 holds p1 for half a second while p2 overtakes it, so the junction
    node 2 sees sn 2 before sn 1.
    """

    def test_cu_discards_reordered_packet_in_flight(self):
        metrics, log = run_scenario(_script("sequence_gap.json"))
        # single counter: once sn 2 lands, the buffered sn 1 looks stale
        assert metrics.delivered_nodes((0, 1)) == {1}
        assert metrics.delivered_nodes((0, 2)) == {1, 2, 3, 4}
        assert metrics.summary()["data_tx"] == 4.0
        p1 = PacketId(0, 1)
        late = [(t, n) for t, n, _, parts in log.filter(kind="drop-term-late") if parts == (p1,)]
        assert late == [(pytest.approx(1.001088, abs=1e-6), 1)]
        # past node 1 the packet never shows up in any event, as an id or in a header
        touched = {
            node for _, node, _, parts in log.entries
            if any(getattr(x, "pid", x) == p1 for x in parts)
        }
        assert touched == {0, 1}

    def test_mcu_relays_reordered_packet_everywhere(self):
        scenario = _script("sequence_gap.json")
        metrics, _ = run_scenario(scenario, termination="mcu")
        assert metrics.delivered_nodes((0, 1)) == {1, 2, 3, 4}
        assert metrics.delivered_nodes((0, 2)) == {1, 2, 3, 4}
        assert metrics.summary()["data_tx"] == 6.0

    def test_runs_are_deterministic(self):
        scenario = _script("sequence_gap.json")
        a, _ = run_scenario(scenario)
        b, _ = run_scenario(scenario)
        assert a.summary() == b.summary()
        assert a.delivered_nodes((0, 1)) == b.delivered_nodes((0, 1))


class TestGratisRuleScript:
    """Gratis constituent of a coded transmission must not feed termination."""

    def test_rule_on_delivers_everywhere(self):
        metrics, _ = run_scenario(_script("gratis_rule.json"))
        assert metrics.delivered_nodes((0, 1)) == set(range(1, 12))
        s = metrics.summary()
        assert s["encoded_tx"] >= 2
        assert s["encoded_tx_gratis"] >= 1

    def test_rule_off_starves_far_branch(self):
        metrics, _ = run_scenario(_script("gratis_rule.json"), gratis_rule_off=True)
        delivered = metrics.delivered_nodes((0, 1))
        assert set(range(1, 12)) - delivered == {8, 9, 10}

    def test_rule_off_is_deterministic(self):
        scenario = _script("gratis_rule.json")
        a, _ = run_scenario(scenario, gratis_rule_off=True)
        b, _ = run_scenario(scenario, gratis_rule_off=True)
        assert a.summary() == b.summary()


class TestLoadScript:
    def test_shipped_scripts_all_load(self):
        names = sorted(p.name for p in script_dir().glob("*.json"))
        assert names == ["gratis_rule.json", "sequence_gap.json"]
        for name in names:
            scenario = _script(name)
            assert scenario.injections

    def test_minimal_script_roundtrip(self, tmp_path):
        scenario = load_script(_write(tmp_path, MINIMAL))
        assert scenario.positions == [(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]
        assert scenario.adjacency is None
        assert scenario.injections == [(0.1, 0, 1)]
        metrics, _ = run_scenario(scenario)
        assert metrics.delivery_ratio() > 0

    def test_adjacency_builds_symmetric_bitmasks(self, tmp_path):
        body = json.loads(json.dumps(MINIMAL))
        body.pop("positions")
        body["adjacency"] = [[0, 1], [1, 2]]
        scenario = load_script(_write(tmp_path, body))
        assert scenario.adjacency == [0b010, 0b101, 0b010]

    def test_injections_sorted_by_time(self, tmp_path):
        body = json.loads(json.dumps(MINIMAL))
        body["injections"] = [
            {"time": 0.5, "source": 0, "sn": 2},
            {"time": 0.1, "source": 0, "sn": 1},
        ]
        scenario = load_script(_write(tmp_path, body))
        assert scenario.injections == [(0.1, 0, 1), (0.5, 0, 2)]

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda b: b.update(extra=1), "unknown script keys"),
            (lambda b: b.pop("config"), "needs a config section"),
            (lambda b: b.pop("positions"), "positions or adjacency"),
            (lambda b: b.update(adjacency=[[0, 1]]), "not both"),
            (lambda b: b.update(positions=[[0, 0]]), "expected 3 positions"),
            (lambda b: b.update(injections=[]), "at least one injection"),
            (
                lambda b: b.update(injections=[{"time": 0.1, "source": 9, "sn": 1}]),
                "node id in [0, 3)",
            ),
            (
                lambda b: b.update(injections=[{"time": 0.1, "source": 0, "sn": 0}]),
                "start at 1",
            ),
            (
                lambda b: b.update(injections=[{"time": -1, "source": 0, "sn": 1}]),
                ">= 0",
            ),
            (
                lambda b: b.update(injections=[{"time": 0.1, "sn": 1}]),
                "injection needs a 'source' field",
            ),
            (
                lambda b: b.update(rad_overrides=[{"node": 1, "source": 0, "sn": 1}]),
                "override needs a 'values' field",
            ),
            (
                lambda b: b.update(adjacency=[5]) or b.pop("positions"),
                "[a, b] pairs, got 5",
            ),
            (
                lambda b: b.update(rad_overrides=[{"node": 1, "source": 0, "sn": 1, "values": 5}]),
                "override 'values' must be a list, got 5",
            ),
            (
                lambda b: b.update(rad_overrides=[{"node": 1, "source": 0, "sn": "1", "values": [1]}]),
                "override 'sn' must be an integer",
            ),
            (
                lambda b: b.update(injections=[{"time": None, "source": 0, "sn": 1}]),
                "injection 'time' must be a number, got None",
            ),
            (lambda b: b.update(positions=[5, 5, 5]), "[x, y] pairs, got 5"),
            (lambda b: b.update(positions=5), "positions must be a list, got 5"),
            (lambda b: b.update(injections=5), "injections must be a list, got 5"),
            (
                lambda b: b.update(injections=[
                    {"time": 1.0, "source": 0, "sn": 1}, {"time": 2.5, "source": 0, "sn": 1},
                ]),
                "packet (source 0, sn 1) is injected twice",
            ),
        ],
    )
    def test_rejects_malformed_scripts(self, tmp_path, mutate, fragment):
        body = json.loads(json.dumps(MINIMAL))
        mutate(body)
        with pytest.raises(ScriptError) as err:
            load_script(_write(tmp_path, body))
        assert fragment in str(err.value)

    def test_rejects_self_edge(self, tmp_path):
        body = json.loads(json.dumps(MINIMAL))
        body.pop("positions")
        body["adjacency"] = [[1, 1]]
        with pytest.raises(ScriptError, match="self edge"):
            load_script(_write(tmp_path, body))

    def test_adjacency_requires_static_nodes(self, tmp_path):
        body = json.loads(json.dumps(MINIMAL))
        body.pop("positions")
        body["adjacency"] = [[0, 1], [1, 2]]
        _assert_static_only(tmp_path, body)

    def test_positions_require_static_nodes(self, tmp_path):
        # run, the positions would give way to random waypoints
        _assert_static_only(tmp_path, json.loads(json.dumps(MINIMAL)))

    def test_rejects_duplicate_rad_override(self, tmp_path):
        body = json.loads(json.dumps(MINIMAL))
        body["rad_overrides"] = [
            {"node": 1, "source": 0, "sn": 1, "values": [0.1]},
            {"node": 1, "source": 0, "sn": 1, "values": [0.2]},
        ]
        with pytest.raises(ScriptError, match="duplicate override"):
            load_script(_write(tmp_path, body))

    def test_rejects_negative_rad_value(self, tmp_path):
        body = json.loads(json.dumps(MINIMAL))
        body["rad_overrides"] = [{"node": 1, "source": 0, "sn": 1, "values": [-0.1]}]
        with pytest.raises(ScriptError, match=">= 0"):
            load_script(_write(tmp_path, body))

    def test_not_an_object(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text("[1, 2]")
        with pytest.raises(ScriptError, match="JSON object"):
            load_script(p)


class TestRadOverrideTable:
    def test_values_consumed_in_order_then_fall_back(self, tmp_path):
        # two forced draws for the same packet, third reception draws randomly
        from nobcr.model import PacketId
        from nobcr.scenario import _RadTable

        table = _RadTable({(1, 0, 1): [0.3, 0.7]})
        pid = PacketId(0, 1)
        assert table(1, pid) == 0.3
        assert table(1, pid) == 0.7
        assert table(1, pid) is None
        assert table(2, pid) is None


# Three events fall on t = 3.0 exactly: an injection at node 2 (queued at
# start-up), the pool eviction of node 1's copy of (0, 1), received at 1.0
# with a pool lifetime of 2.0, and node 1's RAD expiry for the same packet,
# forced to 2.0.  Every air time is 512 bytes at 65,536 bit/s, 0.0625 s, so
# the times are exact binary fractions.
TIE_SCRIPT = {
    "config": {
        "n_nodes": 3,
        "area_side": 500,
        "sim_duration": 4.0,
        "n_sources": 1,
        "tx_range": 250,
        "bandwidth_bps": 65536,
        "pkt_size": 496,
        "collisions": False,
        "mac_jitter": 0,
        "hello_enabled": False,
        "pool_lifetime": 2.0,
        "coding": "none",
        "coded_redundancy": False,
    },
    "positions": [[0, 0], [200, 0], [400, 0]],
    "injections": [
        {"time": 0.9375, "source": 0, "sn": 1},
        {"time": 3.0, "source": 2, "sn": 1},
    ],
    "rad_overrides": [{"node": 1, "source": 0, "sn": 1, "values": [2.0]}],
}


def test_tied_events_run_in_queueing_order(tmp_path):
    """Events at one time run in the order they were queued, evictions
    included: the injection queued at start-up first, then the eviction,
    queued when (0, 1) was pooled, which drops the buffered copy before its
    RAD expiry, queued just after it, can send it."""
    _, log = run_scenario(load_script(_write(tmp_path, TIE_SCRIPT)))
    p1, q1 = PacketId(0, 1), PacketId(2, 1)
    expiry = 3.069034971484865  # node 1's RAD expiry for q1
    assert log.entries == [
        (0.9375, 0, "gen", (p1,)),
        (0.9375, 0, "tx", (ConstituentHeader(p1, bit(1), False, 0.9375),)),
        (1.0, 1, "buffer", (p1, "until", 3.0)),
        (3.0, 2, "gen", (q1,)),
        (3.0, 2, "tx", (ConstituentHeader(q1, bit(1), False, 3.0),)),
        (3.0, 1, "evict-queued", (p1,)),
        (3.0625, 1, "buffer", (q1, "until", expiry)),
        (expiry, 1, "tx", (ConstituentHeader(q1, 0, False, 3.0),)),
        (3.131534971484865, 0, "drop-notfwd", (q1,)),
        (3.131534971484865, 2, "drop-term", (q1,)),
    ]
