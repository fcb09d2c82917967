"""Config parsing: every value is coerced by its field's annotated type."""
import dataclasses
import json
import math

import pytest

from nobcr.config import Coding, ConfigError, Pruning, ScenarioConfig, Termination
from nobcr.engine import Simulation, substream
from nobcr.presets import VARIANTS
from nobcr.scenario import ScriptError, load_script

REQUIRED = {"n_nodes": "30", "area_side": "500", "sim_duration": "20", "n_sources": "3"}


def test_text_values_take_their_annotated_types():
    cfg = ScenarioConfig.from_mapping(
        {**REQUIRED, "mcu_window": " 32 ", "collisions": "off", "sample_storage": "Yes",
         "rad_max": "0.25", "termination": "mcu", "coding": "TABLE", "pruning": "PDP"}
    )
    assert type(cfg.n_nodes) is int and cfg.n_nodes == 30
    assert type(cfg.mcu_window) is int and cfg.mcu_window == 32
    assert cfg.collisions is False and cfg.sample_storage is True
    assert type(cfg.area_side) is float and cfg.rad_max == 0.25
    assert (cfg.termination, cfg.coding, cfg.pruning) == (
        Termination.MCU, Coding.TABLE, Pruning.PDP
    )


def test_every_field_round_trips_through_to_mapping():
    cfg = ScenarioConfig.from_mapping({**REQUIRED, "termination": "ru", "gratis_rule_off": "1"})
    mapping = cfg.to_mapping()
    assert set(mapping) == {f.name for f in dataclasses.fields(ScenarioConfig)}
    assert mapping["termination"] == "RU" and mapping["coding"] == "lightweight"
    assert ScenarioConfig.from_mapping(mapping) == cfg
    assert ScenarioConfig.from_mapping({k: str(v) for k, v in mapping.items()}) == cfg


@pytest.mark.parametrize(
    "key, raw, message",
    [
        ("n_sources", "2.5", "expected an integer"),
        ("collisions", "maybe", "expected a boolean"),
        ("rad_max", "fast", "expected a number"),
        ("coding", "zip", "not one of"),
        ("log_events", "true", "unknown config keys"),  # a SimLog is passed in, not configured
        ("preconverged_views", "true", "unknown config keys"),  # follows from hello_enabled
    ],
)
def test_bad_values_and_keys_are_rejected(key, raw, message):
    with pytest.raises(ConfigError, match=message):
        ScenarioConfig.from_mapping({**REQUIRED, key: raw})


def test_hellos_off_requires_static_nodes():
    # views would keep the t=0 adjacency for the whole run while nodes move
    moving = {**REQUIRED, "speed_min": "1", "speed_max": "5"}
    with pytest.raises(ConfigError, match="hello_enabled"):
        ScenarioConfig.from_mapping({**moving, "hello_enabled": "off"})
    assert ScenarioConfig.from_mapping(moving).hello_enabled
    assert not ScenarioConfig.from_mapping({**REQUIRED, "hello_enabled": "off"}).hello_enabled


def test_views_start_from_the_true_adjacency_when_hellos_are_off():
    # without hellos nothing ever fills a view, so it starts converged
    cfg = ScenarioConfig.from_mapping({**REQUIRED, "hello_enabled": "off"})
    sim = Simulation(cfg)
    # static nodes are placed uniformly from each node's mobility substream
    rngs = [substream(cfg.seed, "mob", i) for i in range(cfg.n_nodes)]
    pos = [(rng.uniform(0, cfg.area_side), rng.uniform(0, cfg.area_side)) for rng in rngs]
    adj = [
        {j for j in range(cfg.n_nodes) if j != i and math.dist(pos[i], pos[j]) <= cfg.tx_range}
        for i in range(cfg.n_nodes)
    ]
    for node in sim.nodes:
        assert node.view.one_hop == sum(1 << j for j in adj[node.id])
        assert node.view.neigh_of == {u: sum(1 << j for j in adj[u]) for u in adj[node.id]}


def test_variants_fix_only_config_fields():
    base = ScenarioConfig.from_mapping(REQUIRED)
    for name, spec in VARIANTS.items():
        assert spec.name == name
        assert spec.settings.keys() <= ScenarioConfig.field_names(), name
        # apply() sets those fields and leaves every other one alone
        applied = spec.apply(base)
        assert applied.replace(**{k: getattr(base, k) for k in spec.settings}) == base, name


POSITIVE = ["area_side", "sim_duration", "tx_range", "bandwidth_bps", "pkt_rate", "pkt_size",
            "hello_interval", "hello_expiry_factor", "pool_lifetime", "mcu_window",
            "table_expiry"]
NON_NEGATIVE = ["rad_max", "mac_jitter", "speed_min", "pause_time", "mobility_warmup",
                "traffic_delay", "traffic_cutoff"]


REJECTED = [
    ({"n_nodes": "0"}, [], ConfigError, "n_nodes must be >= 1"),
    ({"n_sources": "-1"}, [], ConfigError, "n_sources must be in"),
    ({"n_sources": "31"}, [], ConfigError, "n_sources must be in"),
    *[({name: "0"}, [], ConfigError, f"{name} must be positive") for name in POSITIVE],
    *[({name: "-0.5"}, [], ConfigError, f"{name} must be >= 0") for name in NON_NEGATIVE],
    ({"speed_min": "2", "speed_max": "1"}, [], ConfigError, "speed_max must be >= speed_min"),
    ({"speed_max": "5"}, [], ConfigError, "speed_min must be positive"),
    ({"seed": "-1"}, [], ConfigError, "seed must be >= 0"),
    ({"area_side": None}, [], ConfigError, "area_side"),  # a required key left out
    ({}, [[0, 1, 2]], ScriptError, "edges are [a, b] pairs"),
    ({}, [[0]], ScriptError, "edges are [a, b] pairs"),
    ({}, [[0, 30]], ScriptError, "edge endpoint must be a node id in [0, 30)"),
    ({}, [[-1, 0]], ScriptError, "edge endpoint must be a node id"),
    ({}, [[0, "1"]], ScriptError, "edge endpoint must be a node id"),
    ({}, [[4, 4]], ScriptError, "self edge on node 4"),
]


@pytest.mark.parametrize(
    "config, edges, error, message",
    REJECTED,
    ids=[" ".join([*(f"{k}={v}" for k, v in c.items()), *map(str, e)]) for c, e, _, _ in REJECTED],
)
def test_meaningless_configs_and_edges_are_rejected(tmp_path, config, edges, error, message):
    mapping = {**REQUIRED, **config}
    script = {
        "config": {k: v for k, v in mapping.items() if v is not None},
        "adjacency": [[0, 1], *edges],
        "injections": [{"time": 0.1, "source": 0, "sn": 1}],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    with pytest.raises(error) as err:
        load_script(path)
    assert message in str(err.value)
