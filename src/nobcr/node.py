"""Per-node protocol logic, kept free of event-loop concerns.

The engine feeds receptions, timer expiries and generation events into a
Node; the node answers with a list of what it created (:data:`Action`): a
``Packet`` to send now, an ``OutEntry`` whose RAD timer fires at its
deadline, a new ``PoolEntry`` to evict once the pool lifetime has passed.
Each timer hands its own entry back, and the handler acts only while that
entry is still the one queued or pooled for its packet.  All protocol state
lives here: neighbour view, termination state, packet pool, reception table
(under table coding), output queue, decode bank.  A node keeps one holder
estimate, :attr:`Node.holders`, fixed at construction by the coding mode:
coding detection and gratis marking both read it.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from . import coding
from .coding import OutEntry, PacketPool, PlanItem, PoolEntry, ReceptionTable
from .config import Coding, ScenarioConfig
from .forwarding import elect_forwarders, elect_source_forwarders
from .model import ConstituentHeader, NeighborView, NodeSet, Packet, PacketId
from .termination import Decision, TerminationState


Action = Packet | OutEntry | PoolEntry


@dataclass(slots=True)
class BankedPacket:
    """An encoded reception held back because >=2 constituents are unknown.

    The XOR payload stays useful for as long as the decode context could
    still arrive, so the packet is retried whenever the pool gains an entry
    and only written off as a decode failure when this deadline passes.
    """

    packet: Packet
    expiry: float


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
        self.table = ReceptionTable(config.table_expiry) if config.coding is Coding.TABLE else None
        # the one holder estimate, read by coding detection and gratis marking
        self.holders: Callable[[PacketId, float], NodeSet] = (
            self.table.holders if self.table is not None else coding.hop_estimate(self.pool, self.view)
        )
        self.term = TerminationState(
            mode=config.termination,
            mcu_window=config.mcu_window,
            mark_expiry=config.mark_expiry,
        )
        self.queue: dict[PacketId, OutEntry] = {}
        self.bank: list[BankedPacket] = []
        self._next_token = 0
        self._cr = config.coded_redundancy and config.coding is not Coding.NONE
        self._hello_horizon = config.hello_interval * config.hello_expiry_factor

    # -- helpers -----------------------------------------------------------

    def _logev(self, now: float, kind: str, *parts) -> None:
        """Log an event when a log is attached.  The detail is formatted only
        then: ``parts`` joined by spaces, floats to the millisecond."""
        if self.log is not None:
            detail = " ".join(f"{p:.3f}" if isinstance(p, float) else str(p) for p in parts)
            self.log.add(now, self.id, kind, detail)

    def _detect(self, seed: PlanItem, now: float, allow_gratis_pair: bool) -> list[PlanItem]:
        return coding.detect_coding(
            seed,
            self.queue.values(),
            self.view,
            self.holders,
            now,
            allow_gratis_pair=allow_gratis_pair,
        )

    def _buffer(self, pid: PacketId, now: float, gratis: bool, actions: list[Action]) -> None:
        delay = self.rad_delay(pid)
        self._next_token += 1
        entry = OutEntry(pid, now + delay, gratis, self._next_token)
        self.queue[pid] = entry
        actions.append(entry)
        self._logev(now, "buffer-gratis" if gratis else "buffer", pid, "until", entry.deadline)

    def _transmit_plan(self, plan: list[PlanItem], now: float, actions: list[Action]) -> None:
        headers = []
        payloads = []
        any_gratis = False
        for item in plan:
            entry = self.pool.get(item.pid)
            assert entry is not None, "plan member must be pooled"
            # this node is now itself a previous hop of the packet, so its
            # own neighbourhood joins the holder estimate
            self.pool.record_copy(item.pid, self.id)
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
        if self.table is not None:
            # own transmission: every current neighbour is about to hold these
            for item in plan:
                self.table.mark(item.pid, self.view.one_hop, now)
        self.metrics.on_data_tx(n_constituents=len(plan), with_gratis=any_gratis)
        self._logev(now, "tx", *headers)
        actions.append(pkt)

    # -- events ------------------------------------------------------------

    def on_receive(self, pkt: Packet, now: float) -> list[Action]:
        actions: list[Action] = []
        self.view.prune(now, self._hello_horizon)
        tx = pkt.tx_node
        if self.table is not None:
            holders = (self.view.neighbors_of(tx) & self.view.one_hop) | (1 << tx)
            for c in pkt.constituents:
                self.table.mark(c.pid, holders, now)
        # banked packets can become decodable only when the pool gains an
        # entry; no eviction runs inside a reception, so the size tells
        pooled = len(self.pool)
        if pkt.encoded:
            result = coding.decode(pkt, self.pool)
            if not result.ok:
                self._logev(now, "decode-defer", *result.missing)
                for c in pkt.constituents:
                    if c.pid in self.pool:
                        self.pool.record_copy(c.pid, tx)
                        if not c.gratis:
                            self.term.observe_transmitter(tx, c.pid, now)
                self.bank.append(BankedPacket(pkt, now + self.pool.lifetime))
                return actions
            recovered, payload = result.recovered_pid, result.recovered_payload
        else:
            recovered, payload = pkt.constituents[0].pid, pkt.payload
        # every constituent but the recovered one is already pooled
        for c in pkt.constituents:
            self._process_constituent(c, payload if c.pid == recovered else None, tx, now, actions)
        if self.bank and len(self.pool) > pooled:
            self._resolve_bank(now, actions)
        return actions

    def _process_constituent(
        self,
        c: ConstituentHeader,
        payload: int | None,
        tx_node: int,
        now: float,
        actions: list[Action],
    ) -> None:
        entry, was_new = self.pool.record_copy(c.pid, tx_node, payload, c.origin_time)
        if was_new:
            actions.append(entry)
            if c.pid.source != self.id:
                self.metrics.on_delivery(self.id, c.pid, now - c.origin_time)
        if not c.gratis:
            self.term.observe_transmitter(tx_node, c.pid, now)

        if c.gratis and not self.config.gratis_rule_off:
            self._on_gratis_arrival(c.pid, was_new, now, actions)
            return

        # native handling (also applies to gratis arrivals when the receiving
        # rule is disabled for comparison runs; their empty forwarder set then
        # walks into the termination structures like any other copy)
        # No extra once-only guard here: MC/U, C/U and R/U state already
        # suppress re-relays.  M/U relays again whenever it is elected while
        # some current neighbour has not itself been heard sending the packet
        # (its own send marks nothing), long before any mark expires.
        decision = self.term.check(c.pid, now, self.view)
        if decision is Decision.DROP:
            self._logev(now, "drop-term", c.pid)
            return
        if (c.forwarders >> self.id) & 1:
            queued = self.queue.get(c.pid)
            if queued is not None and not queued.gratis:
                self._logev(now, "dup-queued", c.pid)
                return
            if self.config.coding is not Coding.NONE:
                plan = self._detect(PlanItem(c.pid, False), now, allow_gratis_pair=False)
                if len(plan) >= 2:
                    self._transmit_plan(plan, now, actions)
                    return
            # buffer natively; an existing gratis entry is promoted
            self._buffer(c.pid, now, gratis=False, actions=actions)
            if queued is not None:
                self._logev(now, "promote", c.pid)
        elif self._cr:
            if c.pid in self.queue:
                self._logev(now, "gratis-already-queued", c.pid)
                return
            self._buffer_gratis(c.pid, now, actions)
        else:
            self._logev(now, "drop-notfwd", c.pid)

    def _on_gratis_arrival(
        self, pid: PacketId, was_new: bool, now: float, actions: list[Action]
    ) -> None:
        """Gratis receiving rule: a gratis copy never touches termination
        state, so a later native copy still gets a fresh relay decision.  A
        copy of a packet still pooled is a duplicate."""
        if not was_new:
            self._logev(now, "gratis-dup", pid)
            return
        if not self._cr:
            self._logev(now, "gratis-ignored", pid)
            return
        if pid not in self.queue:
            self._buffer_gratis(pid, now, actions)

    def _buffer_gratis(self, pid: PacketId, now: float, actions: list[Action]) -> None:
        """Buffer a packet this node was not elected to relay as a gratis
        candidate, if some neighbour is still estimated to miss it."""
        if self.view.one_hop & ~self.holders(pid, now):
            self.metrics.gratis_buffered += 1
            self._buffer(pid, now, gratis=True, actions=actions)
        else:
            self._logev(now, "gratis-nomark", pid)

    def _resolve_bank(self, now: float, actions: list[Action]) -> None:
        """Retry banked encoded packets against the current pool.

        A successful retry feeds the recovered constituent through the normal
        reception pipeline, which can unlock further banked packets, so the
        scan restarts until no entry makes progress.
        """
        progress = True
        while progress:
            progress = False
            for i, banked in enumerate(self.bank):
                if banked.expiry <= now:
                    continue
                pkt = banked.packet
                result = coding.decode(pkt, self.pool)
                if not result.ok:
                    continue
                self.bank.pop(i)
                progress = True
                # constituents that arrived after the packet was banked still
                # owe its transmitter a previous-hop credit
                for c in pkt.constituents:
                    if c.pid in self.pool:
                        self.pool.record_copy(c.pid, pkt.tx_node)
                for c in pkt.constituents:
                    if c.pid == result.recovered_pid:
                        self._logev(now, "decode-late", c.pid)
                        self.metrics.decode_late += 1
                        self._process_constituent(
                            c, result.recovered_payload, pkt.tx_node, now, actions
                        )
                break

    def flush_bank(self, now: float) -> None:
        """Write off banked packets whose decode window has closed."""
        kept = []
        for banked in self.bank:
            if banked.expiry <= now:
                self.metrics.decode_failures += 1
                self._logev(now, "decode-fail", *(c.pid for c in banked.packet.constituents))
            else:
                kept.append(banked)
        self.bank = kept

    def on_rad_expiry(self, entry: OutEntry, now: float) -> list[Action]:
        pid = entry.pid
        if self.queue.get(pid) is not entry:
            return []
        del self.queue[pid]
        actions: list[Action] = []
        if entry.gratis:
            # A gratis packet goes out only coded with a native one: with no
            # native queued, detection could return nothing but the seed.
            # Without allow_gratis_pair, detection admits a gratis member only
            # once a native one has joined, so two members imply a native.
            plan = []
            for q in self.queue.values():
                if not q.gratis:
                    plan = self._detect(PlanItem(pid, True), now, allow_gratis_pair=False)
                    break
            if len(plan) >= 2:
                self._transmit_plan(plan, now, actions)
            else:
                self.metrics.gratis_dropped += 1
                self._logev(now, "gratis-expire-drop", pid)
            return actions
        if self.term.stale_at_expiry(pid, now, self.view):
            self._logev(now, "drop-term-late", pid)
            return actions
        if self.config.coding is Coding.NONE:
            plan = [PlanItem(pid, False)]
        else:
            plan = self._detect(PlanItem(pid, False), now, allow_gratis_pair=True)
        self._transmit_plan(plan, now, actions)
        return actions

    def on_generate(self, sn: int, now: float) -> list[Action]:
        pid = PacketId(self.id, sn)
        entry, was_new = self.pool.record_copy(pid, None, make_payload(pid), now)
        assert was_new, "source sequence numbers must not repeat"
        actions: list[Action] = [entry]
        self.term.check(pid, now, self.view)  # register own packet
        self.metrics.on_generated()
        self._logev(now, "gen", pid)
        self._transmit_plan([PlanItem(pid, False)], now, actions)
        return actions

    def on_pool_evict(self, entry: PoolEntry, now: float) -> None:
        pid = entry.pid
        if self.pool.get(pid) is entry:
            del self.pool[pid]
            dropped = self.queue.pop(pid, None)
            if dropped is not None:
                self._logev(now, "evict-queued", pid)
                if dropped.gratis:
                    self.metrics.gratis_dropped += 1

    def on_hello(self, sender: int, advertised: int, now: float) -> None:
        self.view.note_hello(sender, advertised, now, self._hello_horizon)

    def make_hello_size(self) -> int:
        return 8 + 4 * (1 + self.view.one_hop.bit_count())

    def periodic(self, now: float) -> None:
        """Housekeeping on a coarse timer: expire soft state."""
        self.view.prune(now, self._hello_horizon)
        self.flush_bank(now)
        if self.table is not None:
            self.table.prune(now)
        self.term.prune(now)
