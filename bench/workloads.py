"""The benchmark's workloads: closed batch jobs of the simulator.

Each workload is a desk profile from ``nobcr.presets`` at one sweep point,
shortened so that one pass fits the benchmark's time budget, and run over
several seeds so that one topology does not decide the simulated figures.
Why each workload exists is in NOTES.md.  This module imports nothing from
``nobcr``: run.py uses it without paying the program's import.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str  # experiment whose desk profile supplies the base config
    sweep: str  # sweep point of that profile
    variants: tuple[str, ...]
    seeds: int  # seeds per pass, numbered from seed * seeds
    overrides: dict = field(default_factory=dict)
    # 0: one harness.run_one call per task in this process; otherwise a
    # harness.run_tasks sweep over that many workers, then aggregate and CSVs
    jobs: int = 0

    def case_seeds(self, seed: int) -> range:
        """Simulator seeds for benchmark seed ``seed``; disjoint across seeds."""
        return range(seed * self.seeds, (seed + 1) * self.seeds)

    @property
    def runs_per_pass(self) -> int:
        return self.seeds * len(self.variants)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "static-lightweight",
            preset="dense-sources",
            sweep="20",
            variants=("nobcr",),
            seeds=5,
            overrides={"sim_duration": 15.0},
        ),
        Workload(
            "mobile-flood",
            preset="mobility",
            sweep="10",
            variants=("pdp-cu",),
            seeds=3,
            overrides={"sim_duration": 25.0},
        ),
        Workload(
            "sweep-table",
            preset="storage",
            sweep="10",
            variants=("nobcr-table", "codeb"),
            seeds=4,
            overrides={"sim_duration": 14.0},
            jobs=2,
        ),
    ]
}
