"""Run counters and derived summary statistics."""
from __future__ import annotations

import math
from array import array

from .model import NodeSet, PacketId, members

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
    """Mutable accumulator shared by all nodes of one run.

    Deliveries are kept per packet: ``delivered_to`` maps each delivered
    packet to the mask of the nodes it reached, one int per packet where a
    set per node would hold one entry per (node, packet).  ``delay_samples``
    holds one delay per delivery, in delivery order, as 8-byte doubles.
    ``delivered`` is a per-node view of the masks, built on each read, for
    readers that count entries per node.
    """

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.generated = 0
        self.deliveries = 0
        self.delivered_to: dict[PacketId, NodeSet] = {}
        self.delay_samples = array("d")
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
        reached = self.delivered_to.get(pid, 0)
        if not reached >> node & 1:
            self.delivered_to[pid] = reached | 1 << node
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

    @property
    def delivered(self) -> list[set[PacketId]]:
        """The packets delivered to each node, one new set per node."""
        seen: list[set[PacketId]] = [set() for _ in range(self.n_nodes)]
        for pid, reached in self.delivered_to.items():
            for v in members(reached):
                seen[v].add(pid)
        return seen

    def delivered_nodes(self, pid: PacketId) -> set[int]:
        return set(members(self.delivered_to.get(pid, 0)))

    def delivery_ratio(self) -> float:
        possible = self.generated * (self.n_nodes - 1)
        return self.deliveries / possible if possible else 0.0

    def summary(self) -> dict[str, float]:
        """One value per ``SUMMARY_COLUMNS`` key; a key with no derived value
        is the counter attribute of the same name."""
        delays = self.delay_samples
        ordered = sorted(delays)
        samples = self.storage_samples
        derived = {
            "delivery_ratio": self.delivery_ratio(),
            "mean_delay": math.fsum(delays) / len(delays) if delays else 0.0,
            "median_delay": _median(ordered),
            "p90_delay": _percentile(ordered, 90),
            "stored_items_light": self.sum_items_light / samples if samples else 0.0,
            "stored_items_table": self.sum_items_table / samples if samples else 0.0,
            "pool_entries_avg": self.sum_pool_entries / samples if samples else 0.0,
        }
        return {
            key: derived[key] if key in derived else float(getattr(self, key))
            for key in SUMMARY_COLUMNS
        }


def _median(ordered: list[float]) -> float:
    """``statistics.median`` of sorted samples, 0.0 for none.

    Written out because importing ``statistics`` pulls in ``fractions`` and
    ``decimal``: 0.4-0.45 MB of peak memory and 3-4 ms in a fresh Python
    3.11 process that has imported ``nobcr.harness`` (Xeon, 2 cores), in
    every worker, for a few lines of arithmetic.
    """
    n = len(ordered)
    if not n:
        return 0.0
    if n % 2:
        return ordered[n // 2]
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2


def _percentile(ordered: list[float], i: int) -> float:
    """Cut point ``i`` of ``statistics.quantiles(ordered, n=100)`` (its
    default 'exclusive' method, with the same integer arithmetic), read from
    sorted samples; a single sample is its own percentile, none gives 0.0.
    Written out for the reason :func:`_median` is."""
    ld = len(ordered)
    if ld < 2:
        return ordered[0] if ld else 0.0
    m = ld + 1
    j = min(max(i * m // 100, 1), ld - 1)
    delta = i * m - j * 100
    return (ordered[j - 1] * (100 - delta) + ordered[j] * delta) / 100


class SimLog:
    """Flat, ordered event trace used by scripted-scenario assertions.  Each
    entry is the record ``(t, node, kind, parts)``, ``parts`` unformatted as
    the caller passed them (packet ids, constituent headers, a buffer event's
    ``"until"`` and deadline).  :meth:`lines` is the only formatter: parts
    joined by spaces, floats to the millisecond, everything else by ``str``."""

    def __init__(self):
        self.entries: list[tuple[float, int, str, tuple]] = []

    def add(self, t: float, node: int, kind: str, *parts) -> None:
        self.entries.append((t, node, kind, parts))

    def filter(self, kind: str) -> list[tuple[float, int, str, tuple]]:
        return [e for e in self.entries if e[2] == kind]

    def lines(self) -> list[str]:
        return [
            f"{t:10.4f}  n{node:<3d} {kind:<18s} "
            + " ".join(f"{p:.3f}" if isinstance(p, float) else str(p) for p in parts)
            for t, node, kind, parts in self.entries
        ]
