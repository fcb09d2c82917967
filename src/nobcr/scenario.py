"""Scripted scenarios: fixed topologies, injected packets, forced RAD draws.

A script is a JSON file pinning everything a regression assertion needs:
either explicit positions or an adjacency list, packet injections with their
times, and per-(node, packet) RAD values consumed in draw order.  Runs built
from a script return both metrics and the event log.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .config import ScenarioConfig
from .engine import Simulation
from .metrics import Metrics, SimLog
from .model import PacketId


class ScriptError(ValueError):
    pass


_TOP_KEYS = {"description", "config", "positions", "adjacency", "injections", "rad_overrides"}


@dataclass
class Scenario:
    config: ScenarioConfig
    positions: list[tuple[float, float]] | None
    adjacency: list[int] | None  # per-node neighbour bitmasks
    injections: list[tuple[float, int, int]]
    rad_values: dict[tuple[int, int, int], list[float]] = field(default_factory=dict)


def _check_node(value, n: int, what: str) -> int:
    if not isinstance(value, int) or not 0 <= value < n:
        raise ScriptError(f"{what} must be a node id in [0, {n}), got {value!r}")
    return value


def _field(item, key: str, what: str):
    if not isinstance(item, dict) or key not in item:
        raise ScriptError(f"each {what} needs a {key!r} field, got {item!r}")
    return item[key]


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ScriptError(f"{what} must be a list, got {value!r}")
    return value


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScriptError(f"{what} must be a number, got {value!r}")
    return float(value)


def _sn(item, what: str) -> int:
    sn = _field(item, "sn", what)
    if isinstance(sn, bool) or not isinstance(sn, int) or sn < 1:
        raise ScriptError(
            f"{what} 'sn' must be an integer: sequence numbers start at 1, got {sn!r}"
        )
    return sn


def load_script(path: str | Path) -> Scenario:
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ScriptError("script must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ScriptError(f"unknown script keys: {sorted(unknown)}")
    if "config" not in raw:
        raise ScriptError("script needs a config section")
    config = ScenarioConfig.from_mapping(raw["config"])
    n = config.n_nodes

    positions = None
    adjacency = None
    if "positions" in raw and "adjacency" in raw:
        raise ScriptError("give either positions or adjacency, not both")
    if "positions" in raw:
        pts = _list(raw["positions"], "positions")
        if len(pts) != n:
            raise ScriptError(f"expected {n} positions, got {len(pts)}")
        positions = []
        for pt in pts:
            if not isinstance(pt, list) or len(pt) != 2:
                raise ScriptError(f"positions are [x, y] pairs, got {pt!r}")
            positions.append((_number(pt[0], "position x"), _number(pt[1], "position y")))
    elif "adjacency" in raw:
        adjacency = [0] * n
        for edge in _list(raw["adjacency"], "adjacency"):
            if not isinstance(edge, list) or len(edge) != 2:
                raise ScriptError(f"edges are [a, b] pairs, got {edge!r}")
            a = _check_node(edge[0], n, "edge endpoint")
            b = _check_node(edge[1], n, "edge endpoint")
            if a == b:
                raise ScriptError(f"self edge on node {a}")
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a
    else:
        raise ScriptError("script needs positions or adjacency")

    injections = []
    injected = set()
    for item in _list(raw.get("injections", []), "injections"):
        source = _check_node(_field(item, "source", "injection"), n, "injection source")
        sn = _sn(item, "injection")
        t = _number(_field(item, "time", "injection"), "injection 'time'")
        if t < 0:
            raise ScriptError("injection time must be >= 0")
        if (source, sn) in injected:
            raise ScriptError(f"packet (source {source}, sn {sn}) is injected twice")
        injected.add((source, sn))
        injections.append((t, source, sn))
    if not injections:
        raise ScriptError("script needs at least one injection")
    injections.sort()

    rad_values: dict[tuple[int, int, int], list[float]] = {}
    for item in _list(raw.get("rad_overrides", []), "rad_overrides"):
        node = _check_node(_field(item, "node", "override"), n, "override node")
        source = _check_node(_field(item, "source", "override"), n, "override source")
        sn = _sn(item, "override")
        values = [
            _number(v, "override 'values' entry")
            for v in _list(_field(item, "values", "override"), "override 'values'")
        ]
        if any(v < 0 for v in values):
            raise ScriptError("RAD values must be >= 0")
        key = (node, source, sn)
        if key in rad_values:
            raise ScriptError(f"duplicate override for {key}")
        rad_values[key] = values
    return Scenario(config, positions, adjacency, injections, rad_values)


class _RadTable:
    """Forced RAD draws, consumed in order per (node, source, sn)."""

    def __init__(self, values: dict[tuple[int, int, int], list[float]]):
        self.values = values
        self.consumed: dict[tuple[int, int, int], int] = {}

    def __call__(self, node: int, pid: PacketId) -> float | None:
        key = (node, pid.source, pid.sn)
        seq = self.values.get(key)
        if seq is None:
            return None
        idx = self.consumed.get(key, 0)
        if idx >= len(seq):
            return None
        self.consumed[key] = idx + 1
        return seq[idx]


def run_scenario(scenario: Scenario, /, **overrides) -> tuple[Metrics, SimLog]:
    """Run ``scenario`` with ``overrides`` laid over its config by
    ``ScenarioConfig.replace``: the one override path for scripts.  Each value
    is parsed by its field's type, so ``collisions="false"`` and
    ``rad_max="0.1"`` read as ``False`` and ``0.1``; an unknown key or a value
    that does not parse is a ``ConfigError``."""
    log = SimLog()
    sim = Simulation(
        scenario.config.replace(**overrides),
        adjacency=scenario.adjacency,
        positions=scenario.positions,
        injections=scenario.injections,
        rad_override=_RadTable(scenario.rad_values),
        log=log,
    )
    return sim.run(), log


def script_dir() -> Path:
    return Path(__file__).parent / "scenarios"
