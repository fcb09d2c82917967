"""Run counters and derived summary statistics."""
from __future__ import annotations

import statistics
from .model import PacketId

# keys of Metrics.summary(), in the order the CSV writers emit them
SUMMARY_COLUMNS = [
    "generated",
    "deliveries",
    "delivery_ratio",
    "data_tx",
    "constituents_tx",
    "encoded_tx",
    "encoded_tx_gratis",
    "hello_tx",
    "decode_failures",
    "decode_late",
    "gratis_buffered",
    "gratis_dropped",
    "collision_losses",
    "mean_delay",
    "median_delay",
    "p90_delay",
    "stored_items_light",
    "stored_items_table",
    "pool_entries_avg",
]


class Metrics:
    """Mutable accumulator shared by all nodes of one run."""

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.generated = 0
        self.deliveries = 0
        self.delivered: list[set[PacketId]] = [set() for _ in range(n_nodes)]
        self.delay_samples: list[float] = []
        self.data_tx = 0
        self.constituents_tx = 0
        self.encoded_tx = 0
        self.encoded_tx_gratis = 0
        self.hello_tx = 0
        self.decode_failures = 0
        self.decode_late = 0
        self.gratis_buffered = 0
        self.gratis_dropped = 0
        self.collision_losses = 0
        self.storage_samples = 0
        self.sum_items_light = 0
        self.sum_items_table = 0
        self.sum_pool_entries = 0

    def on_delivery(self, node: int, pid: PacketId, delay: float) -> None:
        seen = self.delivered[node]
        if pid not in seen:
            seen.add(pid)
            self.deliveries += 1
            self.delay_samples.append(delay)

    def on_data_tx(self, n_constituents: int, with_gratis: bool) -> None:
        self.data_tx += 1
        self.constituents_tx += n_constituents
        if n_constituents > 1:
            self.encoded_tx += 1
            if with_gratis:
                self.encoded_tx_gratis += 1

    def on_storage_sample(self, items_light: int, items_table: int, pool_entries: int) -> None:
        self.storage_samples += 1
        self.sum_items_light += items_light
        self.sum_items_table += items_table
        self.sum_pool_entries += pool_entries

    # -- queries -------------------------------------------------------------

    def delivered_nodes(self, pid: PacketId) -> set[int]:
        return {v for v, seen in enumerate(self.delivered) if pid in seen}

    def delivery_ratio(self) -> float:
        possible = self.generated * (self.n_nodes - 1)
        return self.deliveries / possible if possible else 0.0

    def summary(self) -> dict[str, float]:
        """One value per ``SUMMARY_COLUMNS`` key; a key with no derived value
        is the counter attribute of the same name."""
        delays = self.delay_samples
        samples = self.storage_samples
        derived = {
            "delivery_ratio": self.delivery_ratio(),
            "mean_delay": statistics.fmean(delays) if delays else 0.0,
            "median_delay": statistics.median(delays) if delays else 0.0,
            "p90_delay": _quantile(delays, 0.9),
            "stored_items_light": self.sum_items_light / samples if samples else 0.0,
            "stored_items_table": self.sum_items_table / samples if samples else 0.0,
            "pool_entries_avg": self.sum_pool_entries / samples if samples else 0.0,
        }
        return {
            key: derived[key] if key in derived else float(getattr(self, key))
            for key in SUMMARY_COLUMNS
        }


def _quantile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(sorted(samples), n=100)[int(q * 100) - 1]


class SimLog:
    """Flat, ordered event trace used by scripted-scenario assertions."""

    def __init__(self):
        self.entries: list[tuple[float, int, str, str]] = []

    def add(self, t: float, node: int, kind: str, detail: str = "") -> None:
        self.entries.append((t, node, kind, detail))

    def filter(self, kind: str | None = None, node: int | None = None):
        return [
            e
            for e in self.entries
            if (kind is None or e[2] == kind) and (node is None or e[1] == node)
        ]

    def lines(self) -> list[str]:
        return [f"{t:10.4f}  n{node:<3d} {kind:<18s} {detail}" for t, node, kind, detail in self.entries]
