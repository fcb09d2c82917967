"""Deterministic discrete-event simulation driving Node instances.

Determinism: events run in (time, insertion seq) order, with one seq counter
for all of them; every random draw comes from a purpose-and-node keyed
substream derived from the run seed, so outcomes are reproducible bit for bit
regardless of host or process count.

Events live in two queues merged by (time, seq): a heap, and a FIFO of pool
evictions.  An eviction falls due the fixed pool lifetime after the event
that pooled the entry, and event times never decrease, so evictions fall due
in the order they are queued and need no heap.

The channel is :class:`Radio`; :class:`Simulation` holds the two queues, the
nodes and the event loop.
"""
from __future__ import annotations

import hashlib
import heapq
import math
import random
from collections import deque
from typing import Callable, Iterable, Sequence

from .coding import OutEntry, PoolEntry
from .config import ConfigError, ScenarioConfig
from .metrics import Metrics, SimLog
from .model import Packet, PacketId, members
from .node import Node

RX, RAD, HELLO, GEN, SAMPLE = range(5)
SAMPLE_INTERVAL = 1.0  # seconds between detector-storage samples


def substream(seed: int, name: str, index: int = 0) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{name}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class Waypoint:
    """Random-waypoint trajectory, evaluated analytically per movement leg.

    Legs are generated lazily from a warmup start so that position queries at
    t >= 0 see a process that has already been moving for a while.
    """

    __slots__ = ("rng", "side", "speed_min", "speed_max", "pause", "_legs", "_idx", "leg")

    def __init__(self, rng, side, speed_min, speed_max, pause, t0):
        self.rng = rng
        self.side = side
        self.speed_min = speed_min
        self.speed_max = speed_max
        self.pause = pause
        x = rng.uniform(0, side)
        y = rng.uniform(0, side)
        # legs: (t_start, t_end, x0, y0, vx, vy)
        self._legs = [(t0, t0, x, y, 0.0, 0.0)]
        self._idx = 0
        # the leg the last position query fell on
        self.leg = self._legs[0]

    def _extend(self) -> None:
        t_start, t_end, x0, y0, vx, vy = self._legs[-1]
        x = x0 + vx * (t_end - t_start)
        y = y0 + vy * (t_end - t_start)
        dest_x = self.rng.uniform(0, self.side)
        dest_y = self.rng.uniform(0, self.side)
        speed = self.rng.uniform(self.speed_min, self.speed_max)
        dist = math.hypot(dest_x - x, dest_y - y)
        travel = dist / speed if speed > 0 else 0.0
        if travel > 0:
            self._legs.append(
                (t_end, t_end + travel, x, y, (dest_x - x) / travel, (dest_y - y) / travel)
            )
        if self.pause > 0:
            t_arrive = t_end + travel
            self._legs.append((t_arrive, t_arrive + self.pause, dest_x, dest_y, 0.0, 0.0))

    def position(self, t: float) -> tuple[float, float]:
        """Where the walker is at ``t``: a pure function of ``t``.

        The answer is evaluated on the first leg that ends at or after ``t``,
        so a time exactly on a leg boundary reads the earlier leg.  The leg
        cursor only saves the search: a query at or before the start of the
        cursor's leg rewinds it to the first leg, so which earlier queries
        moved it never changes an answer.
        """
        while t > self._legs[-1][1]:
            self._extend()
        idx = self._idx
        legs = self._legs
        if t <= legs[idx][0]:
            idx = 0
        while idx + 1 < len(legs) and legs[idx][1] < t:
            idx += 1
        self._idx = idx
        t0, t1, x0, y0, vx, vy = self.leg = legs[idx]
        dt = min(t, t1) - t0
        return x0 + vx * dt, y0 + vy * dt


class Radio:
    """The channel: who hears a broadcast, when it is on the air, and which
    of its receptions collide.

    A broadcast starts at ``now`` plus a uniform MAC jitter and lasts its
    size over the bandwidth.  Its receiver set is fixed at start time: the
    sender's static neighbours, or every node within ``tx_range`` of the
    sender at the start instant under mobility.  With ``collisions`` on, a
    reception is lost when another broadcast heard by the same receiver
    strictly overlaps it in time.  A given ``adjacency`` or ``positions``
    is a static topology, so either one with ``speed_max > 0`` is a
    ``ConfigError``.

    Under mobility a broadcast pays for the nodes near its sender, not for
    every node.  The radio keeps an anchor: a time ``T_a`` and every
    walker's position then, taken afresh by any query more than ``S =
    tx_range / (20 speed_max)`` seconds away from ``T_a``, before or after.
    A walker moves at most ``speed_max S`` from its anchor position while
    the anchor holds, so the distance between two nodes changes by at most
    ``d = 2 speed_max S`` (a tenth of ``tx_range``).  Hence, by their
    distance from the sender at the anchor, once per sender and anchor:

    - nodes within ``tx_range - d`` are *sure* receivers, in range at any
      ``t`` the anchor serves;
    - nodes beyond ``tx_range + d`` are out of range then;
    - the rest are *candidates*: each gets the exact test, its position at
      ``t`` against ``tx_range``.

    Both bounds carry a margin far above the rounding of a position, so the
    receivers equal those of an exact test of every node.  Since
    ``Waypoint.position`` is a pure function of ``t``, skipping walkers
    changes no later answer either.

    Collisions are tracked per broadcast in ``on_air`` entries
    ``[t0, t1, tracking, collided]``: the broadcast's air time, the
    receivers at which it is still tracked, and those at which it collided.
    This reproduces a rule that prunes a receiver's finished receptions as
    if broadcasts were sent in start order.  They are not: relays triggered
    by one reception start at ``now`` plus their own jitter, so a later send
    can start before an earlier one.  An overlap with a reception already
    pruned at that receiver then goes unnoticed.  Nor does a sender wait for
    its own previous send to end.  ``tests/test_engine.py`` pins both as
    strict xfails.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        adjacency: Sequence[int] | None = None,
        positions: Sequence[tuple[float, float]] | None = None,
    ):
        if config.speed_max > 0 and (adjacency is not None or positions is not None):
            raise ConfigError(
                "a fixed topology (adjacency or positions) needs a static run, "
                f"but speed_max = {config.speed_max}"
            )
        self.config = config
        n = config.n_nodes
        seed = config.seed
        self.mac_rngs = [substream(seed, "mac", i) for i in range(n)]
        self.on_air: list[list] = []
        self.adjacency: list[int] | None = None
        self.trajectories: list[Waypoint] | None = None
        if adjacency is not None:
            self.adjacency = list(adjacency)
        elif config.speed_max > 0:
            self.trajectories = [
                Waypoint(
                    substream(seed, "mob", i),
                    config.area_side,
                    config.speed_min,
                    config.speed_max,
                    config.pause_time,
                    -config.mobility_warmup,
                )
                for i in range(n)
            ]
            # anchor: every walker's position at _anchor_t, and per sender
            # the receivers and candidates built from it, lazily
            self._span = config.tx_range / (20 * config.speed_max)
            drift = 2 * config.speed_max * self._span  # most two walkers close or part
            margin = 1e-6 * config.area_side  # far above any rounding of a position
            self._sure2 = (config.tx_range - drift - margin) ** 2
            self._reach2 = (config.tx_range + drift + margin) ** 2
            self._range2 = config.tx_range ** 2
            self._anchor_t = -math.inf
            self._anchor: list[tuple[float, float]] = []
            self._near: list[tuple[int, list[int], list[int]] | None] = []
        else:
            if positions is None:
                positions = []
                for i in range(n):
                    rng = substream(seed, "mob", i)
                    positions.append((rng.uniform(0, config.area_side), rng.uniform(0, config.area_side)))
            r2 = config.tx_range * config.tx_range
            adj = self.adjacency = [0] * n
            for i in range(n):
                xi, yi = positions[i]
                for j in range(i + 1, n):
                    xj, yj = positions[j]
                    dx, dy = xi - xj, yi - yj
                    if dx * dx + dy * dy <= r2:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
        # static runs: each sender's receivers as ids in ascending order
        if self.adjacency is not None:
            self._receiver_ids = [tuple(members(mask)) for mask in self.adjacency]

    def receivers(self, sender: int, t: float) -> tuple[int, Sequence[int]]:
        """Who hears a broadcast ``sender`` starts at ``t``: a mask, and the
        same nodes as ids in ascending order.

        Under mobility the sender's sure receivers need no test, and its
        candidates get the exact one, each at its position at ``t``.
        """
        if self.adjacency is not None:
            return self.adjacency[sender], self._receiver_ids[sender]
        if abs(t - self._anchor_t) > self._span:
            self._anchor_t = t
            self._anchor = [w.position(t) for w in self.trajectories]
            self._near = [None] * len(self._anchor)
        near = self._near[sender]
        if near is None:
            near = self._near[sender] = self._classify(sender)
        sure_mask, sure_ids, candidates = near
        if not candidates:
            return sure_mask, sure_ids
        trajectories = self.trajectories
        xs, ys = trajectories[sender].position(t)
        r2 = self._range2
        mask = 0
        ids = []
        for j in candidates:
            traj = trajectories[j]
            # inside the walker's current leg this is position(t)'s expression
            t0, t1, x0, y0, vx, vy = traj.leg
            if t0 < t <= t1:
                dt = t - t0
                xj, yj = x0 + vx * dt, y0 + vy * dt
            else:
                xj, yj = traj.position(t)
            dx, dy = xs - xj, ys - yj
            if dx * dx + dy * dy <= r2:
                mask |= 1 << j
                ids.append(j)
        if not mask:
            return sure_mask, sure_ids
        return sure_mask | mask, sorted(sure_ids + ids)

    def _classify(self, sender: int) -> tuple[int, list[int], list[int]]:
        """The sender's sure receivers, as a mask and as ids, and its
        candidates, by their distance at the anchor; ids ascending."""
        ax, ay = self._anchor[sender]
        sure_mask = 0
        sure_ids = []
        candidates = []
        reach2, sure2 = self._reach2, self._sure2
        for j, (x, y) in enumerate(self._anchor):
            dx, dy = ax - x, ay - y
            d2 = dx * dx + dy * dy
            if d2 > reach2 or j == sender:
                continue
            if d2 <= sure2:
                sure_mask |= 1 << j
                sure_ids.append(j)
            else:
                candidates.append(j)
        return sure_mask, sure_ids, candidates

    def send(self, sender: int, now: float, nbytes: int) -> tuple[float, Sequence[int], list] | None:
        """Put ``nbytes`` from ``sender`` on the air; return its end time
        ``t1``, its receiver ids in ascending order and its on-air entry, or
        None when no one hears it.

        With ``collisions`` on, the new broadcast B is compared with every
        entry A still on the air.  If A ended by B's start, A stops being
        tracked at B's receivers; otherwise, if they strictly overlap, both
        collide at the receivers that hear B and still track A.  The entry's
        collided mask (``entry[3]``) is final once ``now`` reaches ``t1``: a
        broadcast sent then cannot overlap it.  With ``collisions`` off it
        stays 0.
        """
        cfg = self.config
        jitter = self.mac_rngs[sender].uniform(0, cfg.mac_jitter) if cfg.mac_jitter > 0 else 0.0
        t0 = now + jitter
        t1 = t0 + nbytes * 8.0 / cfg.bandwidth_bps
        receivers, ids = self.receivers(sender, t0)
        if not receivers:
            return None
        entry = [t0, t1, receivers, 0]
        if cfg.collisions:
            live = []
            for a in self.on_air:
                if a[1] <= now:
                    continue  # ended: no later broadcast can overlap it
                live.append(a)
                if a[1] <= t0:
                    a[2] &= ~receivers
                elif a[0] < t1:  # strict interval overlap
                    hit = a[2] & receivers
                    a[3] |= hit
                    entry[3] |= hit
            live.append(entry)
            self.on_air = live
        return t1, ids, entry


class Simulation:
    def __init__(
        self,
        config: ScenarioConfig,
        adjacency: Sequence[int] | None = None,
        positions: Sequence[tuple[float, float]] | None = None,
        injections: Iterable[tuple[float, int, int]] | None = None,
        rad_override: Callable[[int, PacketId], float | None] | None = None,
        log: SimLog | None = None,
    ):
        self.config = config
        self.log = log
        self.metrics = Metrics(config.n_nodes)
        self._heap: list = []
        # (t, seq, node, pool entry), due in queue order
        self._evictions: deque[tuple[float, int, int, PoolEntry]] = deque()
        self._seq = 0
        self.radio = Radio(config, adjacency, positions)

        n = config.n_nodes
        seed = config.seed
        self._rad_rngs = [substream(seed, "rad", i) for i in range(n)]
        self._hello_rngs = [substream(seed, "hello", i) for i in range(n)]
        self._rad_override = rad_override

        self.nodes = [
            Node(i, config, self._make_rad_fn(i), self.metrics, self.log) for i in range(n)
        ]
        if not config.hello_enabled or adjacency is not None:
            self._preconverge()

        if injections is not None:
            for t, source, sn in injections:
                self._push(t, GEN, (source, sn, False))
        else:
            self._schedule_traffic()
        if config.hello_enabled:
            for i in range(n):
                self._push(self._hello_rngs[i].uniform(0, config.hello_interval), HELLO, i)
        if config.sample_storage:
            self._push(SAMPLE_INTERVAL, SAMPLE, None)

    # -- setup ---------------------------------------------------------------

    def _preconverge(self) -> None:
        adj = self.radio.adjacency
        for node in self.nodes:
            view = node.view
            view.one_hop = adj[node.id]
            for u in members(adj[node.id]):
                view.neigh_of[u] = adj[u]

    def _make_rad_fn(self, node_id: int):
        rng = self._rad_rngs[node_id]
        override = self._rad_override
        rad_max = self.config.rad_max

        def draw(pid: PacketId) -> float:
            if override is not None:
                forced = override(node_id, pid)
                if forced is not None:
                    return forced
            return rng.uniform(0, rad_max) if rad_max > 0 else 0.0

        return draw

    def _schedule_traffic(self) -> None:
        cfg = self.config
        rng = substream(cfg.seed, "traffic")
        sources = sorted(rng.sample(range(cfg.n_nodes), cfg.n_sources))
        period = 1.0 / cfg.pkt_rate
        for s in sources:
            start = cfg.traffic_delay + rng.uniform(0, period)
            self._push(start, GEN, (s, 1, True))

    # -- event plumbing --------------------------------------------------------

    def _push(self, t: float, kind: int, data) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, kind, data))

    def _apply(self, node_id: int, actions, now: float) -> None:
        """Send a created packet now, fire RAD at a buffered entry's deadline,
        and evict a new pool entry once the pool lifetime has passed."""
        for a in actions:
            if type(a) is Packet:
                self._broadcast(node_id, a, False, now)
            elif type(a) is OutEntry:
                self._push(a.deadline, RAD, (node_id, a))
            elif type(a) is PoolEntry:
                self._seq += 1
                self._evictions.append((now + self.config.pool_lifetime, self._seq, node_id, a))
            else:
                raise TypeError(f"unknown action {a!r}")

    def _broadcast(self, sender: int, payload, is_hello: bool, now: float) -> None:
        """Send a data packet, or a hello ``(sender, one_hop)``, at its wire
        size: 16 header bytes per constituent, 4 bytes per advertised id."""
        if is_hello:
            nbytes = 8 + 4 * (1 + payload[1].bit_count())
        else:
            nbytes = payload.payload_len + 16 * len(payload.constituents)
        sent = self.radio.send(sender, now, nbytes)
        if sent is not None:
            t1, ids, entry = sent
            self._push(t1, RX, (ids, payload, is_hello, entry))

    # -- main loop ---------------------------------------------------------------

    def run(self) -> Metrics:
        cfg = self.config
        duration = cfg.sim_duration
        heap = self._heap
        evictions = self._evictions
        nodes = self.nodes
        while heap or evictions:
            # seqs are unique, so the tuples compare by (time, seq) alone
            if evictions and (not heap or evictions[0] < heap[0]):
                t, _, node_id, entry = evictions.popleft()
                if t > duration:
                    break
                nodes[node_id].on_pool_evict(entry, t)
                continue
            t, _, kind, data = heapq.heappop(heap)
            if t > duration:
                break
            if kind == RX:
                ids, payload, is_hello, entry = data
                collided = entry[3]
                for r in ids:
                    if collided >> r & 1:
                        self.metrics.collision_losses += 1
                        if self.log is not None:
                            self.log.add(t, r, "rx-collision")
                        continue
                    node = nodes[r]
                    if is_hello:
                        sender, mask = payload
                        node.on_hello(sender, mask, t)
                    else:
                        actions = node.on_receive(payload, t)
                        if actions:
                            self._apply(r, actions, t)
            elif kind == RAD:
                node_id, entry = data
                self._apply(node_id, nodes[node_id].on_rad_expiry(entry, t), t)
            elif kind == GEN:
                source, sn, recurring = data
                self._apply(source, nodes[source].on_generate(sn, t), t)
                if recurring:
                    t_next = t + 1.0 / cfg.pkt_rate
                    if t_next <= duration - cfg.traffic_cutoff:
                        self._push(t_next, GEN, (source, sn + 1, True))
            elif kind == HELLO:
                node_id = data
                nodes[node_id].periodic(t)
                self.metrics.hello_tx += 1
                self._broadcast(node_id, (node_id, nodes[node_id].view.one_hop), True, t)
                self._push(
                    t + cfg.hello_interval * self._hello_rngs[node_id].uniform(0.9, 1.1),
                    HELLO,
                    node_id,
                )
            elif kind == SAMPLE:
                for node in nodes:
                    self.metrics.on_storage_sample(
                        node.pool.item_count(),
                        node.table.item_count(t) if node.table is not None else 0,
                        len(node.pool),
                    )
                self._push(t + SAMPLE_INTERVAL, SAMPLE, None)
        for node in self.nodes:
            node.flush_bank(duration)
        return self.metrics
