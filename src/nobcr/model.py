"""Core identifiers, packet structures and neighbourhood bookkeeping.

Node sets are plain ints used as bitmasks (bit i <=> node i is a member).
With at most a few hundred nodes per run this keeps the set algebra in the
protocol hot paths (union/intersection/difference per reception) cheap.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

NodeSet = int  # bitmask over node ids


def bit(node: int) -> NodeSet:
    return 1 << node


def members(mask: NodeSet) -> Iterator[int]:
    """Yield node ids in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PacketId(NamedTuple):
    source: int
    sn: int  # per-source sequence number, starts at 1


class ReceptionTable:
    """Per-packet sets of nodes believed to hold the packet, each node with its
    own expiry: a node holds a packet until ``ttl`` seconds after it was last
    marked.  :meth:`holders` only reads, so an expired entry reads as absent
    until :meth:`prune` deletes it.

    Layout: per packet, a list of ``(deadline, mask)`` generations in
    ascending deadline order, and each node sits only in the newest
    generation that marked it.  A mark removes its nodes from the older
    generations, drops those it empties, and then ORs its nodes into the last
    generation when the deadlines are equal or appends a new one.  So the
    table stores no more (node, packet) entries than a per-node dict would,
    and every operation costs per generation, not per node.

    Precondition: each packet is marked at non-decreasing times (a node
    calls its table at its own event times), so deadlines only grow;
    :meth:`mark` raises ``ValueError`` on a deadline below the packet's last
    one.

    A node keeps one table, under reception-table coding or M/U termination
    or both.  It marks every constituent of an overheard transmission as held
    by the transmitter and by the current neighbours known to be in its
    range, and its own transmissions as held by every current neighbour.
    Two readers share it: under table coding :meth:`holders` is the node's
    one holder estimate, read by coding detection and by gratis marking
    alike; the M/U termination criterion relays while some current neighbour
    is unmarked.
    """

    __slots__ = ("ttl", "_gens")

    def __init__(self, ttl: float):
        self.ttl = ttl
        self._gens: dict[PacketId, list[tuple[float, NodeSet]]] = {}

    def mark(self, pid: PacketId, holders: NodeSet, now: float) -> None:
        deadline = now + self.ttl
        gens = self._gens.get(pid)
        if gens is None:
            self._gens[pid] = [(deadline, holders)]
            return
        last = gens[-1][0]
        if deadline < last:
            raise ValueError(
                f"mark of {pid} at {now}: deadline {deadline} precedes the last one, {last}"
            )
        others = ~holders
        kept = [(d, m & others) for d, m in gens if m & others]
        if kept and kept[-1][0] == deadline:
            holders |= kept.pop()[1]
        kept.append((deadline, holders))
        self._gens[pid] = kept

    def holders(self, pid: PacketId, now: float) -> NodeSet:
        mask = 0
        for deadline, gen in reversed(self._gens.get(pid, ())):
            if deadline < now:
                break
            mask |= gen
        return mask

    def prune(self, now: float) -> None:
        dead_pids = []
        for pid, gens in self._gens.items():
            if gens[-1][0] < now:
                dead_pids.append(pid)
            elif gens[0][0] < now:
                i = 1
                while gens[i][0] < now:
                    i += 1
                del gens[:i]
        for pid in dead_pids:
            del self._gens[pid]

    def item_count(self, now: float) -> int:
        self.prune(now)
        return sum(gen.bit_count() for gens in self._gens.values() for _, gen in gens)


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
    next_expiry: float = float("inf")  # no entry expires before this time

    def note_hello(self, sender: int, advertised: NodeSet, now: float, horizon: float) -> None:
        self.one_hop |= 1 << sender
        self.neigh_of[sender] = advertised
        self.last_heard[sender] = now
        expiry = now + horizon
        if expiry < self.next_expiry:
            self.next_expiry = expiry

    def prune(self, now: float, horizon: float) -> None:
        """Drop neighbours not heard from within ``horizon`` seconds."""
        if now < self.next_expiry:
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
        self.next_expiry = nxt

    def union_of(self, mask: NodeSet) -> NodeSet:
        """Union of the advertised 1-hop sets of the members of ``mask``: an
        unknown node counts as itself, and the owner, which never hears its
        own hello, as its live 1-hop set and itself."""
        z = 0
        own = 1 << self.owner
        if mask & own:
            z = self.one_hop | own
            mask ^= own
        neigh_of = self.neigh_of
        while mask:
            low = mask & -mask
            z |= neigh_of.get(low.bit_length() - 1, low)
            mask ^= low
        return z


def two_hop_set(view: NeighborView) -> NodeSet:
    """Union of the 1-hop set and all advertised neighbour sets, minus the owner.

    This is the owner's known 2-hop coverage target space N(N(v)) (which by
    construction includes N(v) itself).
    """
    mask = view.one_hop
    for adv in view.neigh_of.values():
        mask |= adv
    return mask & ~(1 << view.owner)
