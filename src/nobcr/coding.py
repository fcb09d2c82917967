"""XOR coding: packet pool, holder estimates, opportunity detection, encode/decode.

A coding plan is a set of buffered packets whose XOR every current neighbour
can decode, i.e. every neighbour already holds all constituents but at most
one.  Who holds a packet is estimated by a ``holders(pid, now)`` function.
The lightweight one (:func:`hop_estimate`) takes the neighbourhoods of the
hops heard transmitting the packet; the reception-table variant tracks
per-neighbour holdings explicitly from overheard traffic, in a
:class:`~nobcr.model.ReceptionTable` (re-exported here) whose ``holders``
method is the estimate.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from .model import ConstituentHeader, NeighborView, NodeSet, Packet, PacketId, ReceptionTable


@dataclass(slots=True)
class PoolEntry:
    pid: PacketId
    payload: int
    prev_hops: NodeSet  # every 1-hop node heard transmitting a copy
    first_hop: int | None  # hop of the first copy (None for own packets)
    origin_time: float


class PacketPool(dict[PacketId, PoolEntry]):
    """Recently received native payloads, kept ``lifetime`` seconds for
    decoding and duplicate-driven pruning: a dict from packet id to entry."""

    __slots__ = ("lifetime",)

    def __init__(self, lifetime: float):
        super().__init__()
        self.lifetime = lifetime

    def record_copy(
        self,
        pid: PacketId,
        prev_hop: int | None,
        payload: int | None = None,
        origin_time: float = 0.0,
    ) -> tuple[PoolEntry, bool]:
        """Record a received copy; first copy must carry the payload.

        Returns (entry, was_new).  Duplicates only grow the previous-hop set.
        """
        entry = self.get(pid)
        if entry is not None:
            if prev_hop is not None:
                entry.prev_hops |= 1 << prev_hop
            return entry, False
        if payload is None:
            raise ValueError("first copy of a packet must include its payload")
        hops = 0 if prev_hop is None else 1 << prev_hop
        entry = self[pid] = PoolEntry(pid, payload, hops, prev_hop, origin_time)
        return entry, True

    def item_count(self) -> int:
        """Detector storage: previous hops recorded over all pooled entries."""
        return sum(entry.prev_hops.bit_count() for entry in self.values())


def receivers_of(entry: PoolEntry, view: NeighborView) -> NodeSet:
    """Estimated holders of the packet: union of the advertised neighbourhoods
    of every hop heard transmitting it (unknown hops stand in for themselves)."""
    return view.union_of(entry.prev_hops)


def hop_estimate(pool: PacketPool, view: NeighborView) -> Callable[[PacketId, float], NodeSet]:
    """The lightweight estimate as ``holders(pid, now)``: :func:`receivers_of`
    the pooled entry, and nobody for a packet no longer pooled."""

    def holders(pid: PacketId, now: float) -> NodeSet:
        entry = pool.get(pid)
        return receivers_of(entry, view) if entry is not None else 0

    return holders


@dataclass(slots=True)
class OutEntry:
    """A packet to send by ``deadline``; a plan is a list of these.  Queued,
    it waits out its relay assessment delay."""

    pid: PacketId
    deadline: float
    gratis: bool


_BY_DEADLINE = attrgetter("deadline")


def detect_coding(
    seed: OutEntry,
    queue: Iterable[OutEntry],
    view: NeighborView,
    holders: Callable[[PacketId, float], NodeSet],
    now: float,
    allow_gratis_pair: bool = False,
) -> list[OutEntry]:
    """Greedy coding-plan growth seeded with one packet.

    A queued packet q is admitted when every neighbour currently missing some
    admitted constituent is estimated, by ``holders(pid, now)``, to hold q (so
    everyone stays at most one constituent short).  Native candidates are scanned first in ascending
    deadline order, ties in ``queue`` order (a node's queue is in buffering
    order); gratis candidates join only afterwards and only once the
    plan already has two members, unless ``allow_gratis_pair`` permits pairing
    directly with an expiring native seed.
    """
    one_hop = view.one_hop
    s = holders(seed.pid, now)  # neighbours holding everything admitted so far
    c = one_hop & ~s  # neighbours missing exactly one admitted constituent
    plan = [seed]
    ordered = sorted(queue, key=_BY_DEADLINE)

    for q in ordered:
        if q.gratis or q.pid == seed.pid:
            continue
        z = holders(q.pid, now)
        if c & ~z == 0:
            new_s = s & z
            assert new_s & ~s == 0 and c & ~(one_hop & ~new_s) == 0
            s = new_s
            c = one_hop & ~s
            plan.append(q)

    if len(plan) >= 2 or allow_gratis_pair:
        for q in ordered:
            if not q.gratis or q.pid == seed.pid:
                continue
            z = holders(q.pid, now)
            # A gratis constituent must still be useful: skip it once every
            # neighbour is estimated to hold it, as no delay gain is possible
            # and it would only put the encoding's decodability at risk.
            if one_hop & ~z == 0:
                continue
            if c & ~z == 0:
                s &= z
                c = one_hop & ~s
                plan.append(q)
    return plan


@dataclass(slots=True)
class DecodeResult:
    ok: bool
    recovered_pid: PacketId | None  # the one unknown constituent, if any
    recovered_payload: int
    missing: tuple[PacketId, ...]  # unknown constituents (>=2 on failure)


# every constituent already pooled: nothing to recover (shared, never mutated)
_ALL_KNOWN = DecodeResult(True, None, 0, ())


def decode(pkt: Packet, pool: PacketPool) -> DecodeResult:
    """Resolve an encoded reception against the pool.

    Succeeds when at most one constituent payload is unknown; the unknown one
    is recovered by XOR-ing the rest out.
    """
    missing = []
    payload = pkt.payload
    for c in pkt.constituents:
        entry = pool.get(c.pid)
        if entry is None:
            missing.append(c.pid)
        else:
            payload ^= entry.payload
    if not missing:
        return _ALL_KNOWN
    if len(missing) >= 2:
        return DecodeResult(False, None, 0, tuple(missing))
    return DecodeResult(True, missing[0], payload, ())


def encode(
    constituents: Sequence[ConstituentHeader],
    payloads: Sequence[int],
    payload_len: int,
    tx_node: int,
) -> Packet:
    """Build a (possibly single-constituent) transmission of payloads that
    all have ``payload_len`` bytes, so the XOR is well defined."""
    if not constituents:
        raise ValueError("cannot encode an empty plan")
    payload = 0
    for p in payloads:
        payload ^= p
    return Packet(
        constituents=tuple(constituents),
        payload=payload,
        payload_len=payload_len,
        tx_node=tx_node,
    )
