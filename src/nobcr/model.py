"""Core identifiers, packet structures and neighbourhood bookkeeping.

Node sets are plain ints used as bitmasks (bit i <=> node i is a member).
With at most a few hundred nodes per run this keeps the set algebra in the
protocol hot paths (union/intersection/difference per reception) cheap.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, NamedTuple

NodeSet = int  # bitmask over node ids

EMPTY: NodeSet = 0


def bit(node: int) -> NodeSet:
    return 1 << node


def from_ids(ids: Iterable[int]) -> NodeSet:
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def members(mask: NodeSet) -> Iterator[int]:
    """Yield node ids in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def full_set(n_nodes: int) -> NodeSet:
    return (1 << n_nodes) - 1


def card(mask: NodeSet) -> int:
    return mask.bit_count()


class PacketId(NamedTuple):
    source: int
    sn: int  # per-source sequence number, starts at 1


class TtlSet:
    """Set of keys with per-entry expiry: a key is present until ``ttl``
    seconds after it was last added.  :meth:`contains` only reads, so an
    expired entry reads as absent until :meth:`prune` deletes it."""

    __slots__ = ("ttl", "_deadlines")

    def __init__(self, ttl: float):
        self.ttl = ttl
        self._deadlines: dict[Hashable, float] = {}

    def add(self, key: Hashable, now: float) -> None:
        self._deadlines[key] = now + self.ttl

    def contains(self, key: Hashable, now: float) -> bool:
        deadline = self._deadlines.get(key)
        return deadline is not None and now <= deadline

    def prune(self, now: float) -> None:
        stale = [key for key, d in self._deadlines.items() if d < now]
        for key in stale:
            del self._deadlines[key]

    def __len__(self) -> int:
        return len(self._deadlines)


@dataclass(slots=True)
class ConstituentHeader:
    """Per-constituent wire header carried by every (possibly encoded) packet."""

    pid: PacketId
    forwarders: NodeSet  # nodes elected to relay this constituent; empty for gratis
    gratis: bool
    origin_time: float  # creation time at the source, drives the delay metric

    def __str__(self) -> str:
        """Event-log form: the packet id, starred when carried gratis."""
        return f"{self.pid}*" if self.gratis else str(self.pid)


@dataclass(slots=True)
class Packet:
    """A broadcast data transmission: one native constituent or an XOR of several."""

    constituents: tuple[ConstituentHeader, ...]
    payload: int  # XOR of the constituent payloads, as a big integer
    payload_len: int  # payload size in bytes, identical for all constituents
    tx_node: int

    @property
    def encoded(self) -> bool:
        return len(self.constituents) > 1


@dataclass(slots=True)
class NeighborView:
    """2-hop topology knowledge assembled from received hellos.

    ``neigh_of[u]`` is the 1-hop set advertised by neighbour u in its latest
    hello.  Entries expire ``horizon`` seconds after the last hello heard from
    that neighbour; expired entries are removed lazily via :meth:`prune`.
    """

    owner: int
    one_hop: NodeSet = 0
    neigh_of: dict[int, NodeSet] = field(default_factory=dict)
    last_heard: dict[int, float] = field(default_factory=dict)
    _next_expiry: float = float("inf")

    def note_hello(self, sender: int, advertised: NodeSet, now: float, horizon: float) -> None:
        self.one_hop |= bit(sender)
        self.neigh_of[sender] = advertised
        self.last_heard[sender] = now
        expiry = now + horizon
        if expiry < self._next_expiry:
            self._next_expiry = expiry

    def prune(self, now: float, horizon: float) -> None:
        """Drop neighbours not heard from within ``horizon`` seconds."""
        if now < self._next_expiry:
            return
        cutoff = now - horizon
        nxt = float("inf")
        for u in list(self.last_heard):
            heard = self.last_heard[u]
            if heard < cutoff:
                del self.last_heard[u]
                del self.neigh_of[u]
                self.one_hop &= ~bit(u)
            else:
                exp = heard + horizon
                if exp < nxt:
                    nxt = exp
        self._next_expiry = nxt

    def neighbors_of(self, u: int) -> NodeSet:
        """Advertised 1-hop set of u; unknown nodes contribute just themselves.

        The owner's own set is served from its live neighbour table, since a
        node never receives its own hello.
        """
        if u == self.owner:
            return self.one_hop | bit(u)
        return self.neigh_of.get(u, bit(u))


def two_hop_set(view: NeighborView) -> NodeSet:
    """Union of the 1-hop set and all advertised neighbour sets, minus the owner.

    This is the owner's known 2-hop coverage target space N(N(v)) (which by
    construction includes N(v) itself).
    """
    mask = view.one_hop
    for adv in view.neigh_of.values():
        mask |= adv
    return mask & ~bit(view.owner)
