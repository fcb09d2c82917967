"""Per-node protocol logic, kept free of event-loop concerns.

The engine feeds receptions, timer expiries and generation events into a
Node; the node answers with a list of what it created (:data:`Action`): a
``Packet`` to send now, an ``OutEntry`` whose RAD timer fires at its
deadline, a new ``PoolEntry`` to evict once the pool lifetime has passed.
Each timer hands its own entry back, and the handler acts only while that
entry is still the one queued or pooled for its packet.  All protocol state
lives here: neighbour view, termination state, packet pool, reception table
(under table coding or M/U termination), output queue, decode bank.  A node
keeps one holder estimate, :attr:`Node.holders`, fixed at construction by the
coding mode: coding detection and gratis marking both read it.  Under M/U the
termination criterion reads the same reception table.  A reception that
decodes, on arrival or later from the decode bank, takes one path
(:meth:`Node._take`): each constituent is pooled or credits its hop, then gets
the same relay decision.
"""
from __future__ import annotations

import hashlib
from typing import Callable

from . import coding
from .coding import OutEntry, PacketPool, PoolEntry, ReceptionTable
from .config import Coding, ScenarioConfig, Termination
from .forwarding import elect_forwarders, elect_source_forwarders
from .model import ConstituentHeader, NeighborView, NodeSet, Packet, PacketId
from .termination import DROP, TerminationState


Action = Packet | OutEntry | PoolEntry


def make_payload(pid: PacketId) -> int:
    digest = hashlib.sha256(f"payload:{pid.source}:{pid.sn}".encode()).digest()
    return int.from_bytes(digest, "big")


class Node:
    def __init__(
        self,
        node_id: int,
        config: ScenarioConfig,
        rad_delay: Callable[[PacketId], float],
        metrics,
        log=None,
    ):
        self.id = node_id
        self.config = config
        self.rad_delay = rad_delay
        self.metrics = metrics
        self.log = log
        self.view = NeighborView(owner=node_id)
        self.pool = PacketPool(config.pool_lifetime)
        table_coding = config.coding is Coding.TABLE
        mu = config.termination is Termination.MU
        # one reception table, read by table coding and by M/U termination
        self.table = ReceptionTable(config.table_expiry) if table_coding or mu else None
        # the one holder estimate, read by coding detection and gratis marking
        self.holders: Callable[[PacketId, float], NodeSet] = (
            self.table.holders if table_coding else coding.hop_estimate(self.pool, self.view)
        )
        self.term = TerminationState(
            config.termination, config.mcu_window, self.table if mu else None
        )
        self.queue: dict[PacketId, OutEntry] = {}
        # encoded receptions held back because >=2 constituents are unknown,
        # as (expiry, packet): the XOR payload stays useful for as long as the
        # decode context could still arrive, so a packet is retried whenever
        # the pool gains an entry and written off as a decode failure once
        # its expiry passes
        self.bank: list[tuple[float, Packet]] = []
        self._coding = config.coding is not Coding.NONE
        self._cr = config.coded_redundancy and self._coding
        self._gratis_rule = not config.gratis_rule_off
        self._hello_horizon = config.hello_interval * config.hello_expiry_factor

    # -- helpers -----------------------------------------------------------

    def _plan(self, seed: OutEntry, now: float, allow_gratis_pair: bool) -> list[OutEntry]:
        """What to send for ``seed``: the seed alone when coding is off or
        when it is gratis and no native is queued to carry it, else the plan
        coding detection grows from it."""
        if not self._coding:
            return [seed]
        if seed.gratis:
            for q in self.queue.values():
                if not q.gratis:
                    break
            else:
                return [seed]
        return coding.detect_coding(
            seed, self.queue.values(), self.view, self.holders, now, allow_gratis_pair
        )

    def _buffer(self, pid: PacketId, now: float, gratis: bool, actions: list[Action]) -> None:
        delay = self.rad_delay(pid)
        entry = OutEntry(pid, now + delay, gratis)
        # a promoted gratis entry moves to the back: queue order is buffering order
        self.queue.pop(pid, None)
        self.queue[pid] = entry
        actions.append(entry)
        if self.log is not None:
            kind = "buffer-gratis" if gratis else "buffer"
            self.log.add(now, self.id, kind, pid, "until", entry.deadline)

    def _transmit_plan(self, plan: list[OutEntry], now: float, actions: list[Action]) -> None:
        headers = []
        payloads = []
        any_gratis = False
        for item in plan:
            entry = self.pool.get(item.pid)
            assert entry is not None, "plan member must be pooled"
            # this node is now itself a previous hop of the packet, so its
            # own neighbourhood joins the holder estimate
            entry.prev_hops |= 1 << self.id
            if self.table is not None:
                # own transmission: every current neighbour is about to hold it
                self.table.mark(item.pid, self.view.one_hop, now)
            self.queue.pop(item.pid, None)
            if item.gratis:
                fwd = 0
                any_gratis = True
            else:
                if entry.first_hop is None:
                    fwd, _ = elect_source_forwarders(self.view)
                else:
                    fwd, _ = elect_forwarders(
                        self.view, entry.prev_hops, self.config.pruning, entry.first_hop
                    )
                self.term.note_forwarded(item.pid)
            headers.append(ConstituentHeader(item.pid, fwd, item.gratis, entry.origin_time))
            payloads.append(entry.payload)
        pkt = coding.encode(headers, payloads, self.config.pkt_size, self.id)
        self.metrics.on_data_tx(n_constituents=len(plan), with_gratis=any_gratis)
        if self.log is not None:
            self.log.add(now, self.id, "tx", *headers)
        actions.append(pkt)

    # -- events ------------------------------------------------------------

    def on_receive(self, pkt: Packet, now: float) -> list[Action]:
        actions: list[Action] = []
        view = self.view
        view.prune(now, self._hello_horizon)
        tx = pkt.tx_node
        cs = pkt.constituents
        if self.table is not None:
            holders = (view.neigh_of.get(tx, 0) & view.one_hop) | 1 << tx
            for c in cs:
                self.table.mark(c.pid, holders, now)
        pool = self.pool
        # banked packets can become decodable only when the pool gains an
        # entry; no eviction runs inside a reception, so the size tells
        pooled = len(pool)
        if len(cs) > 1:
            result = coding.decode(pkt, pool)
            if not result.ok:
                if self.log is not None:
                    self.log.add(now, self.id, "decode-defer", *result.missing)
                for c in cs:
                    entry = pool.get(c.pid)
                    if entry is not None:
                        entry.prev_hops |= 1 << tx
                self.bank.append((now + pool.lifetime, pkt))
                return actions
            payload = result.recovered_payload
        else:
            payload = pkt.payload
        self._take(pkt, payload, now, actions)
        if self.bank and len(pool) > pooled:
            self._resolve_bank(now, actions)
        return actions

    def _take(self, pkt: Packet, payload: int, now: float, actions: list[Action]) -> None:
        """Decide each constituent of a decodable reception, on arrival or
        late from the bank; ``payload`` is the one unknown constituent's, if
        any.  A new copy is pooled and delivered; a pooled one credits its
        hop.  Then the same decision: termination, then :meth:`_relay`.

        Gratis receiving rule: a gratis copy makes no termination check, so a
        later native copy still gets a fresh one; a first gratis copy goes on
        to the gratis tail, a pooled one stops.  With the rule off
        (comparison runs) a gratis copy is checked like a native one.  No
        once-only guard: MC/U, C/U and R/U state suppress re-relays, and under
        M/U the node's own send marks every neighbour.  The reception table
        M/U reads is marked by every copy, gratis or not, as it is for table
        coding; no variant pairs M/U with gratis coding.
        """
        tx = pkt.tx_node
        pool = self.pool
        for c in pkt.constituents:
            entry = pool.get(c.pid)
            if entry is not None:
                entry.prev_hops |= 1 << tx
            else:
                actions.append(pool.record_copy(c.pid, tx, payload, c.origin_time))
                if c.pid.source != self.id:
                    self.metrics.on_delivery(self.id, c.pid, now - c.origin_time)
            if c.gratis and self._gratis_rule:
                if entry is None:
                    self._relay(c, now, actions)
                elif self.log is not None:
                    self.log.add(now, self.id, "gratis-dup", c.pid)
            elif self.term.check(c.pid, now, self.view) is DROP:
                if self.log is not None:
                    self.log.add(now, self.id, "drop-term", c.pid)
            else:
                self._relay(c, now, actions)

    def _relay(self, c: ConstituentHeader, now: float, actions: list[Action]) -> None:
        """The tail of a copy termination lets through, new or not: relay it
        natively when elected, else consider it as a gratis candidate.  A
        gratis constituent elects no forwarders, so it always takes the
        gratis branch."""
        if (c.forwarders >> self.id) & 1:
            queued = self.queue.get(c.pid)
            if queued is not None and not queued.gratis:
                if self.log is not None:
                    self.log.add(now, self.id, "dup-queued", c.pid)
                return
            plan = self._plan(OutEntry(c.pid, now, False), now, allow_gratis_pair=False)
            if len(plan) >= 2:
                self._transmit_plan(plan, now, actions)
                return
            # buffer natively; an existing gratis entry is promoted
            self._buffer(c.pid, now, gratis=False, actions=actions)
            if queued is not None and self.log is not None:
                self.log.add(now, self.id, "promote", c.pid)
            return
        if not self._cr:
            if self.log is not None:
                rule_gratis = c.gratis and self._gratis_rule
                self.log.add(now, self.id, "gratis-ignored" if rule_gratis else "drop-notfwd", c.pid)
        elif c.pid in self.queue:
            if self.log is not None:
                self.log.add(now, self.id, "gratis-already-queued", c.pid)
        else:
            self._buffer_gratis(c.pid, now, actions)

    def _buffer_gratis(self, pid: PacketId, now: float, actions: list[Action]) -> None:
        """Buffer a packet this node was not elected to relay as a gratis
        candidate, if some neighbour is still estimated to miss it."""
        if self.view.one_hop & ~self.holders(pid, now):
            self.metrics.gratis_buffered += 1
            self._buffer(pid, now, gratis=True, actions=actions)
        elif self.log is not None:
            self.log.add(now, self.id, "gratis-nomark", pid)

    def _resolve_bank(self, now: float, actions: list[Action]) -> None:
        """Retry banked encoded packets against the current pool.

        A packet that decodes takes :meth:`_take`, as on arrival; it counts as
        a late decode when it recovers a constituent.  Two banked copies of
        one XOR resolve one after the other, so the second finds every
        constituent pooled and takes the duplicate decision for each.  A
        recovered constituent can unlock further banked packets, so the scan
        restarts after each success until no live entry decodes.
        """
        while True:
            for i, (expiry, pkt) in enumerate(self.bank):
                if expiry > now:
                    result = coding.decode(pkt, self.pool)
                    if result.ok:
                        break
            else:
                return
            del self.bank[i]
            if result.recovered_pid is not None:
                if self.log is not None:
                    self.log.add(now, self.id, "decode-late", result.recovered_pid)
                self.metrics.decode_late += 1
            self._take(pkt, result.recovered_payload, now, actions)

    def flush_bank(self, now: float) -> None:
        """Write off banked packets whose decode window has closed."""
        kept = []
        for expiry, pkt in self.bank:
            if expiry <= now:
                self.metrics.decode_failures += 1
                if self.log is not None:
                    self.log.add(now, self.id, "decode-fail", *(c.pid for c in pkt.constituents))
            else:
                kept.append((expiry, pkt))
        self.bank = kept

    def on_rad_expiry(self, entry: OutEntry, now: float) -> list[Action]:
        pid = entry.pid
        if self.queue.get(pid) is not entry:
            return []
        del self.queue[pid]
        actions: list[Action] = []
        if not entry.gratis and self.term.stale_at_expiry(pid, now, self.view):
            if self.log is not None:
                self.log.add(now, self.id, "drop-term-late", pid)
            return actions
        # A gratis packet goes out only coded with a native one.  Without
        # allow_gratis_pair, detection admits a gratis member only once a
        # native one has joined, so two members imply a native.
        plan = self._plan(entry, now, allow_gratis_pair=not entry.gratis)
        if entry.gratis and len(plan) < 2:
            self.metrics.gratis_dropped += 1
            if self.log is not None:
                self.log.add(now, self.id, "gratis-expire-drop", pid)
        else:
            self._transmit_plan(plan, now, actions)
        return actions

    def on_generate(self, sn: int, now: float) -> list[Action]:
        pid = PacketId(self.id, sn)
        actions: list[Action] = [self.pool.record_copy(pid, None, make_payload(pid), now)]
        self.term.check(pid, now, self.view)  # register own packet
        self.metrics.generated += 1
        if self.log is not None:
            self.log.add(now, self.id, "gen", pid)
        self._transmit_plan([OutEntry(pid, now, False)], now, actions)
        return actions

    def on_pool_evict(self, entry: PoolEntry, now: float) -> None:
        pid = entry.pid
        if self.pool.get(pid) is entry:
            del self.pool[pid]
            dropped = self.queue.pop(pid, None)
            if dropped is not None:
                if self.log is not None:
                    self.log.add(now, self.id, "evict-queued", pid)
                if dropped.gratis:
                    self.metrics.gratis_dropped += 1

    def on_hello(self, sender: int, advertised: int, now: float) -> None:
        self.view.note_hello(sender, advertised, now, self._hello_horizon)

    def periodic(self, now: float) -> None:
        """Housekeeping on a coarse timer: expire soft state."""
        self.view.prune(now, self._hello_horizon)
        self.flush_bank(now)
        if self.table is not None:
            self.table.prune(now)
