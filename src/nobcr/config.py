"""Scenario configuration: validated parameters plus variant switches.

Configs load from flat ``key = value`` text (``#`` comments allowed); config
files and ``--set`` pairs share that one parser, and a key given twice is an
error.  A value becomes a field in one place, ``ScenarioConfig.__post_init__``:
each is parsed by the type annotated on its field (enum, bool, int, else
float), so the constructor, ``replace``, ``from_mapping`` and every override
path built on them read ``"false"``, ``"0.1"`` or ``"mcu"`` alike, and a new
knob needs no parsing table.  Unknown keys and values that do not parse (a
float ``n_nodes``) are a ``ConfigError``, so typos fail fast.  A config is a
frozen value, validated once when built.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Mapping, get_type_hints


class ConfigError(ValueError):
    pass


class Termination(str, Enum):
    MU = "MU"  # the node's reception table, relay while some neighbour unmarked
    RU = "RU"  # single sequence number, updated on actual forwards only
    CU = "CU"  # single sequence number, updated on every larger reception
    MCU = "MCU"  # sliding window bitmap per source


class Coding(str, Enum):
    NONE = "none"
    LIGHTWEIGHT = "lightweight"  # previous-hop neighbourhoods estimate receivers
    TABLE = "table"  # per-neighbour reception tables from overheard traffic


class Pruning(str, Enum):
    PDP = "pdp"  # single previous hop
    MULTIPREV = "multiprev"  # all recorded previous hops


@dataclass(frozen=True)
class ScenarioConfig:
    # topology / radio
    n_nodes: int
    area_side: float  # square deployment area, metres
    sim_duration: float
    n_sources: int
    tx_range: float = 250.0
    bandwidth_bps: float = 2e6
    pkt_size: int = 256  # payload bytes per native packet
    collisions: bool = True
    mac_jitter: float = 0.02  # uniform channel-access delay per transmission

    # traffic
    pkt_rate: float = 1.0  # packets per second per source
    traffic_delay: float = 3.0  # quiet lead-in so hellos converge first
    traffic_cutoff: float = 5.0  # stop generating this long before the end

    # hello protocol
    hello_enabled: bool = True  # off: views are the true adjacency at t=0, never refreshed
    hello_interval: float = 1.0
    hello_expiry_factor: float = 2.0  # view entries expire after factor*interval

    # protocol timers / windows
    rad_max: float = 0.4  # relay assessment delay, uniform in [0, rad_max]
    pool_lifetime: float = 2.0  # packet pool retention (B_T)
    mcu_window: int = 64  # bitmap width k
    table_expiry: float = 5.0  # reception table retention (R_T), for table coding and M/U

    # mobility (random waypoint; zero speed means a static run)
    speed_min: float = 0.0
    speed_max: float = 0.0
    pause_time: float = 0.0
    mobility_warmup: float = 100.0

    # variant switches
    termination: Termination = Termination.MCU
    coding: Coding = Coding.LIGHTWEIGHT
    coded_redundancy: bool = True
    pruning: Pruning = Pruning.MULTIPREV
    gratis_rule_off: bool = False  # debug: let gratis arrivals touch termination state

    # bookkeeping
    seed: int = 1
    sample_storage: bool = False  # detector storage sampled every engine.SAMPLE_INTERVAL

    def __post_init__(self) -> None:
        for key, hint in _HINTS.items():
            value = getattr(self, key)
            if type(value) is not hint:  # a value of its annotated type is kept as is
                object.__setattr__(self, key, _coerce(key, value, hint))
        self.validate()

    def validate(self) -> None:
        if self.n_nodes < 1:
            raise ConfigError("n_nodes must be >= 1")
        if self.n_sources < 0 or self.n_sources > self.n_nodes:
            raise ConfigError("n_sources must be in [0, n_nodes]")
        for name in (
            "area_side",
            "sim_duration",
            "tx_range",
            "bandwidth_bps",
            "pkt_rate",
            "pkt_size",
            "hello_interval",
            "hello_expiry_factor",
            "pool_lifetime",
            "mcu_window",
            "table_expiry",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in (
            "rad_max",
            "mac_jitter",
            "speed_min",
            "pause_time",
            "mobility_warmup",
            "traffic_delay",
            "traffic_cutoff",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.speed_max < self.speed_min:
            raise ConfigError("speed_max must be >= speed_min")
        if self.speed_max > 0 and self.speed_min <= 0:
            raise ConfigError("speed_min must be positive when speed_max > 0")
        if self.speed_max > 0 and not self.hello_enabled:
            # views would keep the t=0 adjacency while the nodes move
            raise ConfigError("hello_enabled must be true when speed_max > 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def replace(self, /, **changes: Any) -> "ScenarioConfig":
        _check_keys(changes)
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ScenarioConfig":
        _check_keys(mapping)
        try:
            return cls(**mapping)
        except TypeError as exc:  # missing required keys
            raise ConfigError(str(exc)) from None


_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}

# field name -> annotated type, resolved once (annotations are strings here)
_HINTS: dict[str, type] = get_type_hints(ScenarioConfig)


def _check_keys(keys: Iterable[str]) -> None:
    unknown = set(keys) - _HINTS.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")


def _coerce(key: str, raw: Any, hint: type) -> Any:
    """``raw``, which is not of type ``hint``, parsed as that type."""
    if issubclass(hint, Enum):
        # values and names, case-insensitively ("MCU", "mcu", "Lightweight")
        text = str(raw).strip().lower()
        for member in hint:
            if text in (member.value.lower(), member.name.lower()):
                return member
        raise ConfigError(f"{key}: {raw!r} not one of {[m.value for m in hint]}")
    if hint is bool:
        word = str(raw).strip().lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[word]
    if hint is int:
        try:
            return int(str(raw).strip())
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    try:
        return float(str(raw).strip())
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def parse_pairs(items: Iterable[tuple[str, str]]) -> dict[str, str]:
    """``key = value`` text as a mapping of stripped strings: the one parser
    for config-file lines and ``--set`` pairs.  Each item is ``(where, text)``,
    ``where`` naming the text in errors.  ``#`` starts a comment, blank text
    is skipped, and a key given twice is an error."""
    mapping: dict[str, str] = {}
    for where, text in items:
        stripped = text.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected key=value, got {text!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in mapping:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def parse_kv_file(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return parse_pairs((f"{path}:{n}", line) for n, line in enumerate(lines, start=1))
