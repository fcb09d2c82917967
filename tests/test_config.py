"""Config parsing: every value is coerced by its field's annotated type."""
import dataclasses
import math

import pytest

from nobcr.config import Coding, ConfigError, Pruning, ScenarioConfig, Termination
from nobcr.engine import Simulation

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
    pos = sim.positions
    adj = [
        {j for j in range(cfg.n_nodes) if j != i and math.dist(pos[i], pos[j]) <= cfg.tx_range}
        for i in range(cfg.n_nodes)
    ]
    for node in sim.nodes:
        assert node.view.one_hop == sum(1 << j for j in adj[node.id])
        assert node.view.neigh_of == {u: sum(1 << j for j in adj[u]) for u in adj[node.id]}
