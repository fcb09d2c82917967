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
termination criterion reads the same reception table.
"""
from __future__ import annotations

import hashlib
from typing import Callable

from . import coding
from .coding import OutEntry, PacketPool, PoolEntry, ReceptionTable
from .config import Coding, ScenarioConfig, Termination
from .forwarding import elect_forwarders, elect_source_forwarders
from .model import ConstituentHeader, NeighborView, NodeSet, Packet, PacketId
from .termination import Decision, TerminationState


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
        self._cr = config.coded_redundancy and config.coding is not Coding.NONE
        self._hello_horizon = config.hello_interval * config.hello_expiry_factor

    # -- helpers -----------------------------------------------------------

    def _logev(self, now: float, kind: str, *parts) -> None:
        """Log an event when a log is attached.  The detail is formatted only
        then: ``parts`` joined by spaces, floats to the millisecond."""
        if self.log is not None:
            detail = " ".join(f"{p:.3f}" if isinstance(p, float) else str(p) for p in parts)
            self.log.add(now, self.id, kind, detail)

    def _detect(self, seed: OutEntry, now: float, allow_gratis_pair: bool) -> list[OutEntry]:
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
        entry = OutEntry(pid, now + delay, gratis)
        # a promoted gratis entry moves to the back: queue order is buffering order
        self.queue.pop(pid, None)
        self.queue[pid] = entry
        actions.append(entry)
        self._logev(now, "buffer-gratis" if gratis else "buffer", pid, "until", entry.deadline)

    def _transmit_plan(self, plan: list[OutEntry], now: float, actions: list[Action]) -> None:
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
                self.bank.append((now + self.pool.lifetime, pkt))
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
        # Gratis receiving rule: a gratis copy makes no relay decision, so a
        # later native copy still gets a fresh one.  With the rule off
        # (comparison runs) a gratis copy is checked like a native one.  The
        # reception table M/U reads is marked by every copy, gratis or not,
        # as it is for table coding; no variant pairs M/U with gratis coding.
        rule_gratis = c.gratis and not self.config.gratis_rule_off
        if rule_gratis:
            if not was_new:
                self._logev(now, "gratis-dup", c.pid)
                return
        else:
            # No once-only guard: MC/U, C/U and R/U state suppress re-relays,
            # and under M/U the node's own send marks every neighbour.
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
                    plan = self._detect(OutEntry(c.pid, now, False), now, allow_gratis_pair=False)
                    if len(plan) >= 2:
                        self._transmit_plan(plan, now, actions)
                        return
                # buffer natively; an existing gratis entry is promoted
                self._buffer(c.pid, now, gratis=False, actions=actions)
                if queued is not None:
                    self._logev(now, "promote", c.pid)
                return
        # a copy this node does not relay natively: a gratis candidate at most
        if not self._cr:
            self._logev(now, "gratis-ignored" if rule_gratis else "drop-notfwd", c.pid)
        elif c.pid in self.queue:
            self._logev(now, "gratis-already-queued", c.pid)
        else:
            self._buffer_gratis(c.pid, now, actions)

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
            for i, (expiry, pkt) in enumerate(self.bank):
                if expiry <= now:
                    continue
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
        for expiry, pkt in self.bank:
            if expiry <= now:
                self.metrics.decode_failures += 1
                self._logev(now, "decode-fail", *(c.pid for c in pkt.constituents))
            else:
                kept.append((expiry, pkt))
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
                    plan = self._detect(entry, now, allow_gratis_pair=False)
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
            plan = [entry]
        else:
            plan = self._detect(entry, now, allow_gratis_pair=True)
        self._transmit_plan(plan, now, actions)
        return actions

    def on_generate(self, sn: int, now: float) -> list[Action]:
        pid = PacketId(self.id, sn)
        entry, was_new = self.pool.record_copy(pid, None, make_payload(pid), now)
        assert was_new, "source sequence numbers must not repeat"
        actions: list[Action] = [entry]
        self.term.check(pid, now, self.view)  # register own packet
        self.metrics.generated += 1
        self._logev(now, "gen", pid)
        self._transmit_plan([OutEntry(pid, now, False)], now, actions)
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

    def periodic(self, now: float) -> None:
        """Housekeeping on a coarse timer: expire soft state."""
        self.view.prune(now, self._hello_horizon)
        self.flush_bank(now)
        if self.table is not None:
            self.table.prune(now)
