"""Independent reference implementations used to check the package.

Everything here is written against the documented behaviour with plain
Python sets and unbounded memory, trading speed for obviousness.
"""
from __future__ import annotations

import csv
import math
import random
from itertools import combinations
from pathlib import Path
from typing import Iterable


def from_ids(ids: Iterable[int]) -> int:
    """The bitmask of a set of node ids, for writing node sets in tests."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


class FullHistoryDedup:
    """Per-source duplicate detector with unbounded memory.

    Remembers every sequence number ever accepted.  A reception relays when
    it is a new maximum or an unseen number still within the k-window below
    the maximum; anything at or below sn_max - k is dropped unconditionally.
    """

    def __init__(self, k: int):
        self.k = k
        self.received: set[int] = set()
        self.sn_max = 0

    def decide(self, sn: int) -> str:
        if sn > self.sn_max:
            self.sn_max = sn
            self.received.add(sn)
            return "relay"
        if sn <= self.sn_max - self.k:
            return "drop"
        if sn in self.received:
            return "drop"
        self.received.add(sn)
        return "relay"


def rebuild_window_bitmap(k: int, sn_max: int, received: set[int]) -> int:
    """Window bitmap built from scratch out of the full reception history:
    bit i is set when ``sn_max - i`` was received, for i < k."""
    bm = 0
    for s in received:
        if sn_max - k < s <= sn_max:
            bm |= 1 << (sn_max - s)
    return bm


def reordered_sn_stream(rng: random.Random, n: int, k: int, stale_frac: float = 0.02):
    """Yield ``n`` sequence numbers with reorder depth < k plus occasional
    stale values below the window and forward jumps large enough to roll the
    window over once or several times."""
    front = 1
    r = rng.random
    for _ in range(n):
        x = r()
        if x < 0.02:
            front += k + int(r() * 2 * k)  # multi-rollover jump
        elif x < 0.5:
            front += 1 + int(r() * 3)
        if r() < stale_frac:
            yield max(1, front - k - 1 - int(r() * 20))
        else:
            yield max(1, front - int(r() * k))


class PairMarks:
    """Reception-table marks as a plain ``(node, pid) -> deadline`` dict.

    A mark lasts until ``ttl`` seconds after it was last set: it counts while
    ``now <= deadline`` and pruning deletes it once ``deadline < now``.  Under
    M/U the nodes are neighbours heard sending, and a packet is relayed while
    some current neighbour has no mark that counts.
    """

    def __init__(self, ttl: float):
        self.ttl = ttl
        self.deadlines: dict[tuple[int, object], float] = {}

    def mark(self, node: int, pid, now: float) -> None:
        self.deadlines[(node, pid)] = now + self.ttl

    def holders(self, pid, now: float) -> set[int]:
        return {n for (n, q), d in self.deadlines.items() if q == pid and now <= d}

    def relay(self, neighbours: set[int], pid, now: float) -> bool:
        return bool(neighbours - self.holders(pid, now))

    def prune(self, now: float) -> None:
        for key in [k for k, d in self.deadlines.items() if d < now]:
            del self.deadlines[key]


def coding_plan_sets(seed, queue, one_hop: set[int], holders: dict, allow_gratis_pair: bool):
    """The coding plan grown from packet ``seed``, as a list of packet ids.

    ``queue`` lists ``(pid, deadline, gratis)`` in queue order and
    ``holders`` maps each pid to the set of nodes estimated to hold it.  A
    plan is decodable when every neighbour in ``one_hop`` misses at most one
    of its packets.  Natives are tried in (deadline, queue position) order,
    each admitted if the plan stays decodable.  Gratis packets are tried
    next in the same order, only once the plan has two packets or
    ``allow_gratis_pair`` holds; a gratis packet every neighbour holds is
    skipped.  Queue entries for the seed itself are ignored.
    """

    def decodable(plan):
        return all(sum(n not in holders[p] for p in plan) <= 1 for n in one_hop)

    ordered = [q for _, q in sorted(enumerate(queue), key=lambda iq: (iq[1][1], iq[0]))]
    plan = [seed]
    for pid, _, gratis in ordered:
        if not gratis and pid != seed and decodable(plan + [pid]):
            plan.append(pid)
    if len(plan) < 2 and not allow_gratis_pair:
        return plan
    for pid, _, gratis in ordered:
        if gratis and pid != seed and not one_hop <= holders[pid] and decodable(plan + [pid]):
            plan.append(pid)
    return plan


class PerNodeDeliveries:
    """Deliveries as one set of packet ids per node.

    A packet counts once per node: a repeat delivery to a node is ignored,
    and each first one adds its delay to ``delay_samples``.
    """

    def __init__(self, n_nodes: int):
        self.deliveries = 0
        self.delivered: list[set] = [set() for _ in range(n_nodes)]
        self.delay_samples: list[float] = []

    def on_delivery(self, node: int, pid, delay: float) -> None:
        if pid not in self.delivered[node]:
            self.delivered[node].add(pid)
            self.deliveries += 1
            self.delay_samples.append(delay)

    def delivered_nodes(self, pid) -> set[int]:
        return {v for v, seen in enumerate(self.delivered) if pid in seen}


def write_pooled_delay_cdfs(rows: list[dict], out_dir: Path) -> None:
    """Delay CDF files from one pooled, sorted list per (variant, sweep).

    Every row's ``_delays`` joins its group's list; a group with samples
    writes ``delay_cdf_<variant>_<sweep>.csv``: a schema line, a header, then
    ``(delays[i], (i + 1) / n)`` for every ``step``-th index from 0 with
    ``step = max(1, n // 500)``, and last the largest delay at ``1``; floats
    are written with ``.6g``.
    """
    pooled: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        pooled.setdefault((row["variant"], row["sweep"]), []).extend(row.get("_delays", ()))
    for (variant, sweep), delays in sorted(pooled.items()):
        if not delays:
            continue
        delays.sort()
        n = len(delays)
        step = max(1, n // 500)
        points = [(delays[i], (i + 1) / n) for i in range(0, n, step)]
        points.append((delays[-1], "1"))
        with (out_dir / f"delay_cdf_{variant}_{sweep}.csv").open("w", newline="") as fh:
            fh.write("#schema=nobcr-delay-cdf-1\n")
            writer = csv.writer(fh)
            writer.writerow(["delay", "cdf"])
            for point in points:
                writer.writerow([f"{v:.6g}" if isinstance(v, float) else str(v) for v in point])


def layered_config(base: dict, changes: dict, overrides: dict, variant: str, seed: int):
    """A run's config built layer by layer: the profile base, the sweep point
    and the overrides parsed as one mapping, then the variant's fields laid
    over it with ``VariantSpec.apply``, then the seed."""
    from nobcr.config import ScenarioConfig
    from nobcr.presets import VARIANTS

    config = ScenarioConfig.from_mapping({**base, **changes, **overrides})
    return VARIANTS[variant].apply(config).replace(seed=seed)


# --------------------------------------------------------------------------
# Cover targets and set cover, on plain sets
# --------------------------------------------------------------------------


def _adv(neigh_of: dict[int, set[int]], x: int) -> set[int]:
    return neigh_of.get(x, {x})


def union_sets(owner: int, one_hop: set[int], neigh_of: dict[int, set[int]], nodes) -> set[int]:
    """Union of the advertised neighbourhoods of ``nodes``; the owner's own
    neighbourhood is its 1-hop set and itself."""
    out = set()
    for x in nodes:
        out |= (one_hop | {owner}) if x == owner else _adv(neigh_of, x)
    return out


def two_hop_sets(owner: int, one_hop: set[int], neigh_of: dict[int, set[int]]) -> set[int]:
    out = set(one_hop)
    for adv in neigh_of.values():
        out |= adv
    out.discard(owner)
    return out


def pdp_target_sets(
    owner: int, one_hop: set[int], neigh_of: dict[int, set[int]], prev_hop: int
) -> set[int]:
    target = two_hop_sets(owner, one_hop, neigh_of) - one_hop - {owner, prev_hop}
    n_u = neigh_of.get(prev_hop)
    if n_u is None:
        return target
    target -= n_u
    for x in n_u & one_hop:
        target -= _adv(neigh_of, x)
    return target


def multiprev_target_sets(
    owner: int, one_hop: set[int], neigh_of: dict[int, set[int]], prev_hops: set[int]
) -> set[int]:
    target = two_hop_sets(owner, one_hop, neigh_of) - one_hop - {owner} - prev_hops
    for i in prev_hops:
        n_i = neigh_of.get(i)
        if n_i is None:
            continue
        target -= n_i
        for x in n_i & one_hop:
            target -= _adv(neigh_of, x)
    return target


def brute_min_cover(universe: set[int], candidates: dict[int, set[int]]):
    """Smallest covering subset by exhaustive enumeration, or None."""
    ids = sorted(candidates)
    for r in range(len(ids) + 1):
        for combo in combinations(ids, r):
            covered = set()
            for c in combo:
                covered |= candidates[c]
            if universe <= covered:
                return set(combo)
    return None


def greedy_cover_sets(universe: set[int], candidates: dict[int, set[int]]):
    """Greedy set cover: each round picks the candidate covering the most
    still-uncovered nodes, the lowest id among equals, until none covers
    anything more.  Returns (picked, uncovered)."""
    uncovered = set(universe)
    left = dict(candidates)
    picked = set()
    while uncovered and left:
        best = min(left, key=lambda c: (-len(left[c] & uncovered), c))
        if not left[best] & uncovered:
            break
        picked.add(best)
        uncovered -= left.pop(best)
    return picked, uncovered


def harmonic(n: int) -> float:
    return sum(1.0 / i for i in range(1, n + 1))


# --------------------------------------------------------------------------
# Topology helpers
# --------------------------------------------------------------------------


def random_geometric(rng: random.Random, n: int, side: float, radius: float):
    """Uniform points in a square; edge iff euclidean distance <= radius.

    Returns (positions, adjacency) with adjacency as a list of neighbour sets.
    """
    pos = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
    adj = [set() for _ in range(n)]
    r2 = radius * radius
    for a in range(n):
        xa, ya = pos[a]
        for b in range(a + 1, n):
            xb, yb = pos[b]
            if (xa - xb) ** 2 + (ya - yb) ** 2 <= r2:
                adj[a].add(b)
                adj[b].add(a)
    return pos, adj


def bfs_reachable(adj: list[set[int]], start: int) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def overlapping_pairs(intervals: list[tuple[float, float]]) -> set[int]:
    """Indices of intervals that strictly overlap some other interval."""
    hit = set()
    for i, (s1, e1) in enumerate(intervals):
        for j, (s2, e2) in enumerate(intervals):
            if i != j and s1 < e2 and s2 < e1:
                hit.add(i)
    return hit


class PerReceiverPruning:
    """The engine's current collision rule, one reception list per receiver.

    This documents what the engine does, not physics.  Each arrival at a
    receiver first prunes the receptions there that ended by the arrival's
    start, then flags itself and every remaining reception it strictly
    overlaps.  Pruning by the newcomer's start assumes broadcasts arrive in
    start order; one that arrives later but starts earlier misses the
    receptions already pruned (``overlapping_pairs`` is the physical rule).
    """

    def __init__(self, n_nodes: int):
        self.active: list[list[tuple[float, float, list[bool]]]] = [[] for _ in range(n_nodes)]

    def add(self, t0: float, t1: float, receivers: set[int]) -> dict[int, list[bool]]:
        """Register a broadcast; return each receiver's collision flag box."""
        boxes = {}
        for r in sorted(receivers):
            box = [False]
            live = [e for e in self.active[r] if e[1] > t0]
            for e in live:
                if e[0] < t1:
                    e[2][0] = True
                    box[0] = True
            live.append((t0, t1, box))
            self.active[r] = live
            boxes[r] = box
        return boxes


def uniform_speed_time_average(vmin: float, vmax: float) -> float:
    """Time-averaged speed of legs drawn uniformly from [vmin, vmax].

    Legs of equal length weight each speed by the time spent travelling at
    it, i.e. by 1/v, so the time average is the harmonic mean of the draw.
    Evaluated by quadrature rather than the closed form.
    """
    from scipy.integrate import quad

    inv_mean, _ = quad(lambda v: 1.0 / v, vmin, vmax)
    return (vmax - vmin) / inv_mean
