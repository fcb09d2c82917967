"""Protocol variants and canned experiment definitions.

Each experiment has a full profile and a cheaper desk profile; both sweep one
scenario knob across a set of protocol variants.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .config import ScenarioConfig


@dataclass(frozen=True)
class VariantSpec:
    """A protocol variant: a name and the config fields it fixes.  Fields it
    leaves out (``rad_max`` for the delay-tolerant baselines) keep the
    scenario's value.

    ``harness.build_tasks`` lays ``settings`` over the scenario's profile,
    sweep point and overrides, and rejects a scenario that sets a fixed
    field to another value, so a variant never silently overrules a value
    the user gave."""

    name: str
    settings: dict[str, Any]

    def apply(self, config: ScenarioConfig) -> ScenarioConfig:
        return config.replace(**self.settings)


# the protocol of the paper, whatever its coding: bitmap termination, pruning
# against every known previous hop, a RAD window to find coding chances in
_NOBCR = {"termination": "mcu", "pruning": "multiprev", "rad_max": 0.4}
# the plain baselines: no coding, no gratis packets, single-previous-hop pruning
_PLAIN = {"coding": "none", "coded_redundancy": False, "pruning": "pdp"}

VARIANTS: dict[str, VariantSpec] = {
    v.name: v
    for v in [
        # lightweight detection with and without gratis packets, then reception tables
        VariantSpec("nobcr", {**_NOBCR, "coding": "lightweight", "coded_redundancy": True}),
        VariantSpec("nobcr-nocr", {**_NOBCR, "coding": "lightweight", "coded_redundancy": False}),
        VariantSpec("nobcr-table", {**_NOBCR, "coding": "table", "coded_redundancy": True}),
        # coding with per-neighbour reception tables over classic pruning;
        # runs with the longer decode buffer usually paired with such tables
        VariantSpec("codeb", {"termination": "mu", "coding": "table", "coded_redundancy": False,
                              "pruning": "pdp", "rad_max": 0.4, "pool_lifetime": 5.0}),
        # plain pruned flooding baselines, no assessment delay
        VariantSpec("pdp-mu", {"termination": "mu", **_PLAIN, "rad_max": 0.0}),
        VariantSpec("pdp-cu", {"termination": "cu", **_PLAIN, "rad_max": 0.0}),
        VariantSpec("pdp-ru", {"termination": "ru", **_PLAIN, "rad_max": 0.0}),
        # delay-tolerant baselines whose RAD comes from the scenario sweep
        VariantSpec("pdp-cu-rad", {"termination": "cu", **_PLAIN}),
        VariantSpec("pdp-mcu", {"termination": "mcu", **_PLAIN}),
    ]
}


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    base: dict
    desk: dict  # overrides applied on top of base for desk runs
    sweep: tuple[tuple[str, dict], ...]  # (label, config overrides)
    desk_sweep: tuple[tuple[str, dict], ...]
    variants: tuple[str, ...]
    seeds: tuple[int, ...] = tuple(range(1, 21))
    desk_seeds: tuple[int, ...] = tuple(range(1, 11))

    def profile(self, desk: bool) -> tuple[dict, tuple[tuple[str, dict], ...], tuple[int, ...]]:
        if desk:
            return {**self.base, **self.desk}, self.desk_sweep, self.desk_seeds
        return self.base, self.sweep, self.seeds


def _sources_sweep(values) -> tuple[tuple[str, dict], ...]:
    return tuple((str(v), {"n_sources": v}) for v in values)


_FULL = {
    "n_nodes": 100,
    "area_side": 1000,
    "sim_duration": 300,
    "n_sources": 20,
    "pkt_rate": 1.0,
    "speed_max": 10.0,
    "speed_min": 0.1,
    "pause_time": 1.0,
}

_DESK = {
    "n_nodes": 60,
    "area_side": 886,
    "sim_duration": 120,
    "n_sources": 20,
    "pkt_rate": 2.0,
    "speed_max": 0.0,
    "speed_min": 0.0,
    "pause_time": 0.0,
}


PRESETS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in [
        ExperimentSpec(
            name="sparse-sources",
            base={**_FULL, "area_side": 1400},
            desk=dict(_DESK),
            sweep=_sources_sweep([10, 20, 30, 40, 50]),
            desk_sweep=_sources_sweep([10, 20, 30]),
            variants=("nobcr", "codeb", "pdp-cu", "pdp-mu"),
        ),
        ExperimentSpec(
            name="dense-sources",
            base={**_FULL, "area_side": 900},
            desk={**_DESK, "area_side": 750},
            sweep=_sources_sweep([10, 20, 30, 40, 50]),
            desk_sweep=_sources_sweep([10, 20, 30]),
            variants=("nobcr", "codeb", "pdp-cu", "pdp-mu"),
        ),
        ExperimentSpec(
            name="scalability",
            base={**_FULL, "n_sources": 20},
            desk={**_DESK, "n_sources": 15},
            sweep=(
                ("50", {"n_nodes": 50, "area_side": 990}),
                ("100", {"n_nodes": 100, "area_side": 1400}),
                ("150", {"n_nodes": 150, "area_side": 1715}),
                ("200", {"n_nodes": 200, "area_side": 1980}),
            ),
            desk_sweep=(
                ("40", {"n_nodes": 40, "area_side": 723}),
                ("60", {"n_nodes": 60, "area_side": 886}),
                ("80", {"n_nodes": 80, "area_side": 1023}),
            ),
            variants=("nobcr", "codeb", "pdp-cu"),
        ),
        ExperimentSpec(
            name="rad-sweep",
            base={**_FULL, "n_sources": 20},
            # reordering needs successive packets to land inside the assessment
            # window, so the desk profile runs hot: 4 pkt/s puts the 0.25 s
            # inter-packet gap under the default 0.4 s rad_max
            desk={**_DESK, "pkt_rate": 4.0},
            sweep=tuple((str(v), {"rad_max": v}) for v in [0.0, 0.1, 0.2, 0.4, 0.8]),
            desk_sweep=tuple((str(v), {"rad_max": v}) for v in [0.0, 0.4]),
            variants=("pdp-cu-rad", "pdp-mcu"),
        ),
        ExperimentSpec(
            name="mobility",
            base={**_FULL, "n_sources": 20},
            desk={**_DESK, "n_sources": 15, "mobility_warmup": 50},
            sweep=tuple(
                (str(v), {"speed_max": float(v), "speed_min": 0.1 if v else 0.0})
                for v in [0, 5, 10, 20]
            ),
            desk_sweep=tuple(
                (str(v), {"speed_max": float(v), "speed_min": 0.1 if v else 0.0})
                for v in [0, 10]
            ),
            variants=("nobcr", "pdp-cu"),
        ),
        ExperimentSpec(
            name="storage",
            base={**_FULL, "sample_storage": True},
            # denser static layout: detector state is the object of study here,
            # so give the reception table a realistic neighbourhood to track
            desk={**_DESK, "area_side": 650, "n_sources": 10, "sample_storage": True},
            sweep=_sources_sweep([20]),
            desk_sweep=_sources_sweep([10]),
            variants=("nobcr", "nobcr-table"),
        ),
        ExperimentSpec(
            name="coding-compare",
            base={**_FULL, "speed_max": 0.0, "speed_min": 0.0, "pause_time": 0.0},
            desk=dict(_DESK),
            sweep=_sources_sweep([20, 40]),
            desk_sweep=_sources_sweep([20]),
            variants=("nobcr", "nobcr-table", "nobcr-nocr"),
        ),
    ]
}
