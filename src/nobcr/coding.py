"""XOR coding: packet pool, opportunity detection, encode/decode, gratis marks.

A coding plan is a set of buffered packets whose XOR every current neighbour
can decode, i.e. every neighbour already holds all constituents but at most
one.  The lightweight detector estimates who holds a packet from the
neighbourhoods of the hops heard transmitting it; the reception-table variant
tracks per-neighbour holdings explicitly from overheard traffic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .model import ConstituentHeader, NeighborView, NodeSet, Packet, PacketId, bit, members


@dataclass(slots=True)
class PoolEntry:
    pid: PacketId
    payload: int
    payload_len: int
    prev_hops: NodeSet  # every 1-hop node heard transmitting a copy
    first_hop: int | None  # hop of the first copy (None for own packets)
    received_at: float
    origin_time: float
    gratis: bool
    token: int


class PacketPool:
    """Recently received native payloads, kept ``lifetime`` seconds for
    decoding and duplicate-driven pruning."""

    __slots__ = ("lifetime", "entries", "items", "_next_token")

    def __init__(self, lifetime: float):
        self.lifetime = lifetime
        self.entries: dict[PacketId, PoolEntry] = {}
        self.items = 0  # running sum of |prev_hops|, sampled as detector storage
        self._next_token = 0

    def record_copy(
        self,
        pid: PacketId,
        prev_hop: int | None,
        now: float,
        payload: int | None = None,
        payload_len: int = 0,
        origin_time: float = 0.0,
        gratis: bool = False,
    ) -> tuple[PoolEntry, bool]:
        """Record a received copy; first copy must carry the payload.

        Returns (entry, was_new).  Duplicates only grow the previous-hop set.
        """
        entry = self.entries.get(pid)
        if entry is not None:
            if prev_hop is not None:
                hop_bit = bit(prev_hop)
                if not entry.prev_hops & hop_bit:
                    entry.prev_hops |= hop_bit
                    self.items += 1
            return entry, False
        if payload is None:
            raise ValueError("first copy of a packet must include its payload")
        self._next_token += 1
        hops = 0 if prev_hop is None else bit(prev_hop)
        entry = PoolEntry(
            pid=pid,
            payload=payload,
            payload_len=payload_len,
            prev_hops=hops,
            first_hop=prev_hop,
            received_at=now,
            origin_time=origin_time,
            gratis=gratis,
            token=self._next_token,
        )
        self.entries[pid] = entry
        self.items += hops.bit_count()
        return entry, True

    def evict(self, pid: PacketId, token: int) -> bool:
        entry = self.entries.get(pid)
        if entry is None or entry.token != token:
            return False
        self.items -= entry.prev_hops.bit_count()
        del self.entries[pid]
        return True

    def get(self, pid: PacketId) -> PoolEntry | None:
        return self.entries.get(pid)

    def __contains__(self, pid: PacketId) -> bool:
        return pid in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def receivers_of(entry: PoolEntry, view: NeighborView) -> NodeSet:
    """Estimated holders of the packet: union of the advertised neighbourhoods
    of every hop heard transmitting it (unknown hops stand in for themselves)."""
    z = 0
    for i in members(entry.prev_hops):
        z |= view.neighbors_of(i)
    return z


class ReceptionTable:
    """Per-neighbour sets of packets believed held, populated by overhearing.

    When a transmission by x is overheard, every constituent is marked as held
    by x and by the current neighbours known to be in x's range.  Entries
    expire ``ttl`` seconds after their last (re-)mark.
    """

    __slots__ = ("ttl", "_holders")

    def __init__(self, ttl: float):
        self.ttl = ttl
        self._holders: dict[PacketId, dict[int, float]] = {}

    def mark(self, pid: PacketId, holders: NodeSet, now: float) -> None:
        slot = self._holders.get(pid)
        if slot is None:
            slot = self._holders[pid] = {}
        deadline = now + self.ttl
        for u in members(holders):
            slot[u] = deadline

    def holders(self, pid: PacketId, now: float) -> NodeSet:
        slot = self._holders.get(pid)
        if not slot:
            return 0
        mask = 0
        for u, deadline in slot.items():
            if deadline >= now:
                mask |= 1 << u
        return mask

    def prune(self, now: float) -> None:
        dead_pids = []
        for pid, slot in self._holders.items():
            stale = [u for u, d in slot.items() if d < now]
            for u in stale:
                del slot[u]
            if not slot:
                dead_pids.append(pid)
        for pid in dead_pids:
            del self._holders[pid]

    def item_count(self, now: float) -> int:
        self.prune(now)
        return sum(len(slot) for slot in self._holders.values())


class PlanItem(NamedTuple):
    pid: PacketId
    gratis: bool


@dataclass(slots=True)
class OutEntry:
    """A buffered packet waiting out its relay assessment delay."""

    pid: PacketId
    deadline: float
    gratis: bool
    seq: int
    token: int


def detect_coding(
    seed: PlanItem,
    queue: Iterable[OutEntry],
    view: NeighborView,
    known_of: Callable[[PacketId], NodeSet],
    include_gratis: bool,
    allow_gratis_pair: bool = False,
) -> list[PlanItem]:
    """Greedy coding-plan growth seeded with one packet.

    A queued packet q is admitted when every neighbour currently missing some
    admitted constituent is estimated to hold q (so everyone stays at most one
    constituent short).  Native candidates are scanned first in ascending
    deadline order; gratis candidates join only afterwards and only once the
    plan already has two members, unless ``allow_gratis_pair`` permits pairing
    directly with an expiring native seed.
    """
    one_hop = view.one_hop
    s = known_of(seed.pid)  # neighbours holding everything admitted so far
    c = one_hop & ~s  # neighbours missing exactly one admitted constituent
    plan = [seed]
    ordered = sorted(queue, key=lambda q: (q.deadline, q.seq))

    for q in ordered:
        if q.gratis or q.pid == seed.pid:
            continue
        z = known_of(q.pid)
        if c & ~z == 0:
            new_s = s & z
            assert new_s & ~s == 0 and c & ~(one_hop & ~new_s) == 0
            s = new_s
            c = one_hop & ~s
            plan.append(PlanItem(q.pid, False))

    if include_gratis and (len(plan) >= 2 or allow_gratis_pair):
        for q in ordered:
            if not q.gratis or q.pid == seed.pid:
                continue
            z = known_of(q.pid)
            # A gratis constituent must still be useful: skip it once every
            # neighbour is estimated to hold it, as no delay gain is possible
            # and it would only put the encoding's decodability at risk.
            if one_hop & ~z == 0:
                continue
            if c & ~z == 0:
                s &= z
                c = one_hop & ~s
                plan.append(PlanItem(q.pid, True))
    return plan


@dataclass(slots=True)
class DecodeResult:
    ok: bool
    recovered_pid: PacketId | None  # the one unknown constituent, if any
    recovered_payload: int
    missing: tuple[PacketId, ...]  # unknown constituents (>=2 on failure)


def decode(pkt: Packet, pool: PacketPool) -> DecodeResult:
    """Resolve an encoded reception against the pool.

    Succeeds when at most one constituent payload is unknown; the unknown one
    is recovered by XOR-ing the rest out.
    """
    missing = [c.pid for c in pkt.constituents if c.pid not in pool]
    if len(missing) >= 2:
        return DecodeResult(False, None, 0, tuple(missing))
    if not missing:
        return DecodeResult(True, None, 0, ())
    payload = pkt.payload
    for c in pkt.constituents:
        if c.pid != missing[0]:
            entry = pool.get(c.pid)
            assert entry is not None
            payload ^= entry.payload
    return DecodeResult(True, missing[0], payload, ())


def encode(
    constituents: Sequence[ConstituentHeader],
    payloads: Sequence[int],
    payload_lens: Sequence[int],
    tx_node: int,
) -> Packet:
    """Build a (possibly single-constituent) transmission; payload sizes must
    agree so the XOR is well defined."""
    if not constituents:
        raise ValueError("cannot encode an empty plan")
    if len(set(payload_lens)) != 1:
        raise ValueError(f"payload length mismatch: {sorted(set(payload_lens))}")
    payload = 0
    for p in payloads:
        payload ^= p
    return Packet(
        constituents=tuple(constituents),
        payload=payload,
        payload_len=payload_lens[0],
        tx_node=tx_node,
    )


def mark_gratis(entry: PoolEntry, view: NeighborView) -> bool:
    """A packet this node was not elected to relay is worth keeping gratis
    when some current neighbour is not yet estimated to hold it."""
    return view.one_hop & ~receivers_of(entry, view) != 0
