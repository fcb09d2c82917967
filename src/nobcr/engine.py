"""Deterministic discrete-event simulation driving Node instances.

Determinism: one event heap ordered by (time, insertion seq); every random
draw comes from a purpose-and-node keyed substream derived from the run seed,
so outcomes are reproducible bit for bit regardless of host or process count.

Radio model.  A broadcast starts at ``now`` plus a uniform MAC jitter and
lasts its size over the bandwidth.  Its receiver set is fixed at start time:
the sender's static neighbours, or every node within ``tx_range`` of the
sender at the start instant under mobility.  Each broadcast puts one RX event
on the heap, at its end time; that event hands the packet to its receivers
in ascending id order.  With ``collisions`` on, a reception is lost when
another broadcast heard by the same receiver strictly overlaps it in time.

Collisions are tracked per broadcast in ``OnAir``, which reproduces a rule
that prunes a receiver's finished receptions as if broadcasts were handled
in start order.  They are not: relays triggered by one reception start at
``now`` plus their own jitter, so a later-handled broadcast can start before
an earlier-handled one.  An overlap with a reception already pruned at that
receiver then goes unnoticed; ``tests/test_engine.py`` pins this as a strict
xfail.
"""
from __future__ import annotations

import hashlib
import heapq
import math
import random
from typing import Callable, Iterable, Sequence

from .config import ScenarioConfig
from .metrics import Metrics, SimLog
from .model import PacketId, members
from .node import Node, ScheduleRad, SchedulePoolEvict, Transmit

RX, RAD, HELLO, GEN, EVICT, SAMPLE = range(6)
SAMPLE_INTERVAL = 1.0  # seconds between detector-storage samples


def substream(seed: int, name: str, index: int = 0) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{name}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class Waypoint:
    """Random-waypoint trajectory, evaluated analytically per movement leg.

    Legs are generated lazily from a warmup start so that position queries at
    t >= 0 see a process that has already been moving for a while.
    """

    __slots__ = ("rng", "side", "speed_min", "speed_max", "pause", "_legs", "_idx")

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

    def leg(self) -> tuple[float, float, float, float, float, float]:
        """The leg the last ``position`` query fell on: (t_start, t_end, x0, y0, vx, vy)."""
        return self._legs[self._idx]

    def position(self, t: float) -> tuple[float, float]:
        while t > self._legs[-1][1]:
            self._extend()
        idx = self._idx
        legs = self._legs
        if t < legs[idx][0]:
            idx = 0
        while idx + 1 < len(legs) and legs[idx][1] < t:
            idx += 1
        self._idx = idx
        t0, t1, x0, y0, vx, vy = legs[idx]
        dt = min(t, t1) - t0
        return x0 + vx * dt, y0 + vy * dt


class OnAir:
    """Collision bookkeeping: the broadcasts that may still collide.

    Each entry is ``[t0, t1, tracking, collided]``: the broadcast's air time,
    the receivers at which it is still tracked, and those at which it
    collided.  A new broadcast B is compared with every entry A still on the
    air.  If A ended by B's start, A stops being tracked at B's receivers;
    otherwise, if they strictly overlap, both collide at the receivers that
    hear B and still track A.  That untracking is the per-receiver pruning
    whose missed overlaps the module docstring describes.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list[list] = []

    def start(self, now: float, t0: float, t1: float, receivers: int) -> list:
        """Register a broadcast on ``[t0, t1)`` heard by ``receivers``; return its entry.

        The entry's collided mask is final once ``now`` reaches ``t1``: a
        broadcast started then cannot overlap it.
        """
        entry = [t0, t1, receivers, 0]
        live = []
        for a in self.entries:
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
        self.entries = live
        return entry


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
        config.validate()
        self.config = config
        self.log = log
        self.metrics = Metrics(config.n_nodes)
        self._heap: list = []
        self._seq = 0
        self._on_air = OnAir()

        n = config.n_nodes
        seed = config.seed
        self._rad_rngs = [substream(seed, "rad", i) for i in range(n)]
        self._mac_rngs = [substream(seed, "mac", i) for i in range(n)]
        self._hello_rngs = [substream(seed, "hello", i) for i in range(n)]
        self._rad_override = rad_override

        self.adjacency: list[int] | None = None
        self.trajectories: list[Waypoint] | None = None
        self.positions: list[tuple[float, float]] | None = None
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
            # each trajectory's current leg, as Waypoint.leg() last reported it
            self._legs = [traj.leg() for traj in self.trajectories]
        else:
            if positions is not None:
                self.positions = [tuple(p) for p in positions]
            else:
                self.positions = []
                for i in range(n):
                    rng = substream(seed, "mob", i)
                    self.positions.append((rng.uniform(0, config.area_side), rng.uniform(0, config.area_side)))
            self.adjacency = self._static_adjacency(self.positions, config.tx_range)
        # static runs: each sender's receivers as ids in ascending order
        self._receiver_ids: list[tuple[int, ...]] | None = None
        if self.adjacency is not None:
            self._receiver_ids = [tuple(members(mask)) for mask in self.adjacency]

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

    @staticmethod
    def _static_adjacency(positions, tx_range) -> list[int]:
        n = len(positions)
        adj = [0] * n
        r2 = tx_range * tx_range
        for i in range(n):
            xi, yi = positions[i]
            for j in range(i + 1, n):
                xj, yj = positions[j]
                dx, dy = xi - xj, yi - yj
                if dx * dx + dy * dy <= r2:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        return adj

    def _preconverge(self) -> None:
        adj = self.adjacency
        if adj is None:
            adj = self._current_adjacency(0.0)
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
        for a in actions:
            if type(a) is Transmit:
                self._transmit_data(node_id, a.packet, now)
            elif type(a) is ScheduleRad:
                self._push(a.at, RAD, (node_id, a.pid, a.token))
            elif type(a) is SchedulePoolEvict:
                self._push(a.at, EVICT, (node_id, a.pid, a.token))
            else:
                raise TypeError(f"unknown action {a!r}")

    # -- radio -----------------------------------------------------------------

    def _positions(self, t: float) -> list[tuple[float, float]]:
        """Every node's position at ``t``, equal to ``Waypoint.position(t)``.

        Inside the cached leg (``t_start < t <= t_end``) this is the same
        float expression ``position`` evaluates there, and ``position`` would
        stay on that leg.  Any other ``t`` goes through ``position``, which
        extends, rewinds or advances the leg exactly as it always has.
        """
        legs = self._legs
        out = []
        for i, (t0, t1, x0, y0, vx, vy) in enumerate(legs):
            if t0 < t <= t1:
                dt = t - t0
                out.append((x0 + vx * dt, y0 + vy * dt))
            else:
                traj = self.trajectories[i]
                out.append(traj.position(t))
                legs[i] = traj.leg()
        return out

    def _current_adjacency(self, t: float) -> list[int]:
        assert self.trajectories is not None
        return self._static_adjacency(self._positions(t), self.config.tx_range)

    def _receivers(self, sender: int, t: float) -> tuple[int, Sequence[int]]:
        """Who hears a broadcast ``sender`` starts at ``t``: a mask, and the
        same nodes as ids in ascending order."""
        if self.adjacency is not None:
            return self.adjacency[sender], self._receiver_ids[sender]
        positions = self._positions(t)
        xs, ys = positions[sender]
        r2 = self.config.tx_range ** 2
        mask = 0
        ids = []
        for j, (xj, yj) in enumerate(positions):
            dx, dy = xs - xj, ys - yj
            if dx * dx + dy * dy <= r2 and j != sender:
                mask |= 1 << j
                ids.append(j)
        return mask, ids

    def _broadcast(self, sender: int, nbytes: int, payload, is_hello: bool, now: float) -> None:
        cfg = self.config
        jitter = self._mac_rngs[sender].uniform(0, cfg.mac_jitter) if cfg.mac_jitter > 0 else 0.0
        t0 = now + jitter
        t1 = t0 + nbytes * 8.0 / cfg.bandwidth_bps
        receivers, ids = self._receivers(sender, t0)
        if not receivers:
            return
        air = self._on_air.start(now, t0, t1, receivers) if cfg.collisions else None
        self._push(t1, RX, (ids, payload, is_hello, air))

    def _transmit_data(self, sender: int, packet, now: float) -> None:
        nbytes = packet.payload_len + 16 * len(packet.constituents)
        self._broadcast(sender, nbytes, packet, is_hello=False, now=now)

    def _transmit_hello(self, sender: int, now: float) -> None:
        node = self.nodes[sender]
        self.metrics.hello_tx += 1
        self._broadcast(sender, node.make_hello_size(), (sender, node.view.one_hop), True, now)

    # -- main loop ---------------------------------------------------------------

    def run(self) -> Metrics:
        cfg = self.config
        duration = cfg.sim_duration
        heap = self._heap
        nodes = self.nodes
        while heap:
            t, _, kind, data = heapq.heappop(heap)
            if t > duration:
                break
            if kind == RX:
                ids, payload, is_hello, air = data
                collided = air[3] if air is not None else 0
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
                node_id, pid, token = data
                self._apply(node_id, nodes[node_id].on_rad_expiry(pid, token, t), t)
            elif kind == GEN:
                source, sn, recurring = data
                self._apply(source, nodes[source].on_generate(sn, t), t)
                if recurring:
                    t_next = t + 1.0 / cfg.pkt_rate
                    if t_next <= duration - cfg.traffic_cutoff:
                        self._push(t_next, GEN, (source, sn + 1, True))
            elif kind == EVICT:
                node_id, pid, token = data
                nodes[node_id].on_pool_evict(pid, token, t)
            elif kind == HELLO:
                node_id = data
                nodes[node_id].periodic(t)
                self._transmit_hello(node_id, t)
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


def run_config(config: ScenarioConfig) -> Metrics:
    return Simulation(config).run()
