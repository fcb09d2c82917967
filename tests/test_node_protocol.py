"""Node event handling: buffering, relaying, gratis rule, decode bank."""
import dataclasses

import pytest

from nobcr.coding import OutEntry, PoolEntry
from nobcr.config import Coding, Pruning, ScenarioConfig, Termination
from nobcr.metrics import Metrics, SimLog
from nobcr.model import ConstituentHeader, Packet, PacketId, bit
from nobcr.node import Node, make_payload

from oracles import from_ids


def make_config(**kw):
    base = dict(
        n_nodes=8,
        area_side=500.0,
        sim_duration=60.0,
        n_sources=4,
        termination=Termination.MCU,
        coding=Coding.LIGHTWEIGHT,
        pruning=Pruning.MULTIPREV,
        rad_max=0.1,
        pool_lifetime=2.0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def make_node(node_id=0, neighbors=(), log=None, **kw):
    """Node with a converged view; neighbors maps id -> advertised set."""
    cfg = make_config(**kw)
    node = Node(node_id, cfg, rad_delay=lambda pid: 0.1, metrics=Metrics(cfg.n_nodes), log=log)
    items = neighbors.items() if isinstance(neighbors, dict) else ((u, 0) for u in neighbors)
    for u, adv in items:
        node.view.note_hello(u, adv, now=0.0, horizon=1e9)
    return node


def native(pid, forwarders=0, payload=None, tx_node=1, origin=0.0):
    header = ConstituentHeader(pid, forwarders, gratis=False, origin_time=origin)
    pay = make_payload(pid) if payload is None else payload
    return Packet((header,), pay, payload_len=256, tx_node=tx_node)


def gratis_pkt(pid, tx_node=1, origin=0.0):
    header = ConstituentHeader(pid, 0, gratis=True, origin_time=origin)
    return Packet((header,), make_payload(pid), payload_len=256, tx_node=tx_node)


def xor_pkt(pids, forwarders_of=None, gratis=(), tx_node=1):
    headers = tuple(
        ConstituentHeader(
            p,
            (forwarders_of or {}).get(p, 0),
            gratis=p in gratis,
            origin_time=0.0,
        )
        for p in pids
    )
    payload = 0
    for p in pids:
        payload ^= make_payload(p)
    return Packet(headers, payload, payload_len=256, tx_node=tx_node)


def transmits(actions):
    return [a for a in actions if isinstance(a, Packet)]


def rads(actions):
    return [a for a in actions if isinstance(a, OutEntry)]


def evicts(actions):
    return [a for a in actions if isinstance(a, PoolEntry)]


# --------------------------------------------------------------------------
# Generation and plain relaying
# --------------------------------------------------------------------------


def test_generate_transmits_at_once():
    node = make_node(0, neighbors={1: from_ids({0, 2})})
    actions = node.on_generate(sn=1, now=5.0)
    (tx,) = transmits(actions)
    (c,) = tx.constituents
    assert c.pid == PacketId(0, 1)
    assert c.forwarders == bit(1)  # the only neighbour reaches node 2
    assert not tx.encoded
    assert node.metrics.generated == 1
    (evict,) = evicts(actions)
    assert evict is node.pool[PacketId(0, 1)]
    assert PacketId(0, 1) in node.pool


def test_forwarder_buffers_then_relays():
    node = make_node(2, neighbors={1: from_ids({0, 2}), 3: bit(2)}, coding=Coding.NONE)
    p = PacketId(0, 1)
    actions = node.on_receive(native(p, forwarders=bit(2), tx_node=1), now=1.0)
    assert not transmits(actions)
    (rad,) = rads(actions)
    assert rad.pid == p and rad.deadline == pytest.approx(1.1)
    assert node.metrics.deliveries == 1

    out = node.on_rad_expiry(rad, now=rad.deadline)
    (tx,) = transmits(out)
    assert [c.pid for c in tx.constituents] == [p]
    assert p not in node.queue


def test_rad_expiry_ignores_stale_entry():
    node = make_node(2, neighbors={1: 0}, coding=Coding.NONE)
    p = PacketId(0, 1)
    (rad,) = rads(node.on_receive(native(p, forwarders=bit(2)), now=1.0))
    stale = dataclasses.replace(rad)  # equal fields, but not the queued entry
    assert stale == rad and node.on_rad_expiry(stale, now=rad.deadline) == []
    assert node.queue[p] is rad


def test_non_forwarder_without_redundancy_drops():
    log = SimLog()
    node = make_node(2, neighbors={1: 0}, coded_redundancy=False, log=log)
    actions = node.on_receive(native(PacketId(0, 1), forwarders=bit(5)), now=1.0)
    assert not transmits(actions) and not rads(actions)
    assert node.metrics.deliveries == 1  # still delivered locally
    assert log.filter(kind="drop-notfwd")


def test_duplicate_relay_suppressed_by_window():
    node = make_node(2, neighbors={1: 0, 3: 0}, coding=Coding.NONE)
    p = PacketId(0, 1)
    (rad,) = rads(node.on_receive(native(p, forwarders=bit(2), tx_node=1), now=1.0))
    node.on_rad_expiry(rad, now=rad.deadline)
    again = node.on_receive(native(p, forwarders=bit(2), tx_node=3), now=2.0)
    assert not transmits(again) and not rads(again)


def test_own_packet_echo_not_recounted():
    node = make_node(0, neighbors={1: 0})
    node.on_generate(sn=1, now=0.0)
    echo = node.on_receive(native(PacketId(0, 1), forwarders=bit(0), tx_node=1), now=0.5)
    assert not transmits(echo) and not rads(echo)
    assert node.metrics.deliveries == 0  # source does not deliver to itself


def test_pool_evict_clears_pending_queue_entry():
    node = make_node(2, neighbors={1: 0}, coding=Coding.NONE)
    p = PacketId(0, 1)
    (evict,) = evicts(node.on_receive(native(p, forwarders=bit(2)), now=1.0))
    node.on_pool_evict(evict, now=3.0)
    assert p not in node.pool and p not in node.queue


def test_pool_evict_honours_entry():
    node = make_node(2, neighbors={1: 0}, coding=Coding.NONE)
    p = PacketId(0, 1)
    (entry,) = evicts(node.on_receive(native(p, forwarders=0), now=1.0))
    node.on_pool_evict(dataclasses.replace(entry), now=3.0)  # equal, not the same
    assert node.pool[p] is entry
    node.on_pool_evict(entry, now=3.0)
    assert p not in node.pool and node.pool.item_count() == 0
    node.on_pool_evict(entry, now=3.0)  # already gone
    assert p not in node.pool


def test_stale_evict_spares_a_repooled_packet():
    # R/U stores nothing until a forward, so the second copy is relayed
    node = make_node(2, neighbors={1: 0}, termination=Termination.RU, coding=Coding.NONE)
    p = PacketId(0, 1)
    (old,) = evicts(node.on_receive(native(p, forwarders=0), now=1.0))
    node.on_pool_evict(old, now=3.0)
    actions = node.on_receive(native(p, forwarders=bit(2)), now=3.0)
    (new,) = evicts(actions)
    (rad,) = rads(actions)
    node.on_pool_evict(old, now=3.0)
    assert node.pool[p] is new and node.queue[p] is rad
    node.on_pool_evict(new, now=5.0)
    assert p not in node.pool and p not in node.queue


# --------------------------------------------------------------------------
# Immediate coding at reception and at expiry
# --------------------------------------------------------------------------


def _two_flow_node():
    # node 0 bridges neighbours 1 and 2; each already holds what the other
    # is missing, so their packets form a codable pair at node 0
    return make_node(0, neighbors={1: from_ids({0, 2}), 2: from_ids({0, 1})})


def test_reception_codes_with_buffered_packet():
    node = _two_flow_node()
    p1, p2 = PacketId(1, 1), PacketId(2, 1)
    first = node.on_receive(native(p1, forwarders=bit(0), tx_node=1), now=1.0)
    assert rads(first) and not transmits(first)
    second = node.on_receive(native(p2, forwarders=bit(0), tx_node=2), now=1.05)
    (tx,) = transmits(second)
    assert tx.encoded
    assert {c.pid for c in tx.constituents} == {p1, p2}
    assert tx.payload == make_payload(p1) ^ make_payload(p2)
    assert not node.queue
    assert node.metrics.encoded_tx == 1


def test_expiry_reruns_detection():
    node = _two_flow_node()
    p1, p2 = PacketId(1, 1), PacketId(2, 1)
    (rad1,) = rads(node.on_receive(native(p1, forwarders=bit(0), tx_node=1), now=1.0))
    # second packet is NOT for us to forward, but it is gratis-markable:
    # neighbour 1 is not estimated to hold it
    gr = node.on_receive(native(p2, forwarders=bit(5), tx_node=2), now=1.02)
    assert rads(gr)
    assert node.queue[p2].gratis
    out = node.on_rad_expiry(rad1, now=rad1.deadline)
    (tx,) = transmits(out)
    assert tx.encoded
    flags = {c.pid: c.gratis for c in tx.constituents}
    assert flags == {p1: False, p2: True}
    assert node.metrics.encoded_tx_gratis == 1
    assert p2 not in node.queue  # the gratis ride cleared its timer too


def test_gratis_alone_expires_silently():
    node = make_node(0, neighbors={1: 0, 2: 0})
    p = PacketId(1, 1)
    (rad,) = rads(node.on_receive(native(p, forwarders=0, tx_node=1), now=1.0))
    assert node.queue[p].gratis
    out = node.on_rad_expiry(rad, now=rad.deadline)
    assert not transmits(out)
    assert node.metrics.gratis_dropped == 1


# --------------------------------------------------------------------------
# Gratis receiving rule
# --------------------------------------------------------------------------


def test_gratis_arrival_leaves_termination_untouched():
    node = make_node(0, neighbors={1: 0, 2: 0})
    p = PacketId(3, 1)
    digest0 = node.term.digest()
    node.on_receive(gratis_pkt(p, tx_node=1), now=1.0)
    assert node.term.digest() == digest0
    assert node.metrics.deliveries == 1
    # a native copy still gets its first real relay decision
    actions = node.on_receive(native(p, forwarders=bit(0), tx_node=2), now=1.5)
    assert rads(actions) and not node.queue[p].gratis


def test_gratis_arrival_rule_off_consumes_relay_decision():
    node = make_node(0, neighbors={1: 0, 2: 0}, gratis_rule_off=True)
    p = PacketId(3, 1)
    digest0 = node.term.digest()
    node.on_receive(gratis_pkt(p, tx_node=1), now=1.0)
    assert node.term.digest() != digest0
    actions = node.on_receive(native(p, forwarders=bit(0), tx_node=2), now=1.5)
    assert not rads(actions) and not transmits(actions)  # window already spent


def test_gratis_copy_rule_off_marks_the_mu_table():
    # M/U reads the node's reception table, which every copy marks, gratis
    # or not: the gratis sender counts as a holder, so the native copy that
    # marks the last neighbour ends the relay
    log = SimLog()
    node = make_node(0, neighbors={1: 0, 2: 0}, termination=Termination.MU,
                     gratis_rule_off=True, log=log)
    p = PacketId(3, 1)
    node.on_receive(gratis_pkt(p, tx_node=1), now=1.0)
    assert node.term.marks is node.table
    assert node.table.holders(p, 1.0) == bit(1)
    actions = node.on_receive(native(p, forwarders=bit(0), tx_node=2), now=1.5)
    assert node.table.holders(p, 1.5) == from_ids({1, 2})
    assert not rads(actions) and log.filter(kind="drop-term")


def test_repeat_gratis_copies_are_ignored():
    log = SimLog()
    node = make_node(0, neighbors={1: 0, 2: 0}, log=log)
    p = PacketId(3, 1)
    a1 = node.on_receive(gratis_pkt(p, tx_node=1), now=1.0)
    assert rads(a1)  # buffered gratis: neighbour 2 is not estimated to hold p
    a2 = node.on_receive(gratis_pkt(p, tx_node=2), now=1.1)
    assert not rads(a2)
    assert len(log.filter(kind="gratis-dup")) == 1
    # the pool entry is what makes a copy a repeat: once the first copy's
    # eviction has run, the next gratis copy is new again
    (evict,) = evicts(a1)
    (rad,) = rads(a1)
    node.on_rad_expiry(rad, now=rad.deadline)
    node.on_pool_evict(evict, now=3.0)
    a3 = node.on_receive(gratis_pkt(p, tx_node=2), now=3.0)
    assert rads(a3) and node.queue[p].gratis
    assert len(log.filter(kind="gratis-dup")) == 1


@pytest.mark.parametrize("gratis_rule_off", [False, True])
def test_no_gratis_entry_queued_without_coded_redundancy(gratis_rule_off):
    log = SimLog()
    node = make_node(
        0, neighbors={1: 0, 2: 0, 3: 0}, log=log,
        coded_redundancy=False, gratis_rule_off=gratis_rule_off,
    )
    p1, p2, p3, p4 = (PacketId(s, 1) for s in (4, 5, 6, 7))
    arrivals = [
        native(p1, forwarders=bit(0), tx_node=1),  # elected: queued natively
        native(p2, forwarders=bit(5), tx_node=1),  # not elected
        gratis_pkt(p3, tx_node=2),
        xor_pkt([p1, p4], gratis={p4}, tx_node=3),  # decodes p4 as gratis
    ]
    for i, pkt in enumerate(arrivals):
        node.on_receive(pkt, now=1.0 + 0.01 * i)
        assert not any(q.gratis for q in node.queue.values())
    assert set(node.queue) == {p1} and {p2, p3, p4} <= set(node.pool)
    kind = "drop-notfwd" if gratis_rule_off else "gratis-ignored"
    assert len(log.filter(kind=kind)) == (3 if gratis_rule_off else 2)
    (tx,) = transmits(node.on_rad_expiry(node.queue[p1], now=2.0))
    assert [(c.pid, c.gratis) for c in tx.constituents] == [(p1, False)]


def test_gratis_not_buffered_without_audience():
    # a hop never covers itself in the estimate, so the only arrival that
    # fails the mark outright is one with no known neighbours at all
    log = SimLog()
    node = make_node(0, neighbors={}, log=log)
    p = PacketId(3, 1)
    node.on_receive(gratis_pkt(p, tx_node=1), now=1.0)
    assert p not in node.queue
    assert log.filter(kind="gratis-nomark")


def test_gratis_marking_rules():
    # lightweight estimate: the advertised neighbourhoods of the hops heard
    # sending p.  Under R/U a copy this node was not elected for leaves the
    # relay decision open, so a second hop's copy is decided afresh.
    log = SimLog()
    node = make_node(
        0, neighbors={1: from_ids({0, 2}), 2: from_ids({0, 1})},
        termination=Termination.RU, log=log,
    )
    p = PacketId(3, 1)
    (rad,) = rads(node.on_receive(native(p, tx_node=1), now=1.0))
    assert rad.gratis  # node 1 advertises only {0, 2}: node 1 is not estimated
    node.on_rad_expiry(rad, now=rad.deadline)
    assert p not in node.queue
    # node 2's neighbourhood adds node 1: every neighbour now holds p
    assert not rads(node.on_receive(native(p, tx_node=2), now=1.5))
    assert len(log.filter(kind="buffer-gratis")) == 1
    assert len(log.filter(kind="gratis-nomark")) == 1


def test_gratis_marking_reads_the_reception_table():
    # neighbours 1 and 2 advertise only node 0.  Node 2's encoded p^q marks p
    # and q held by node 2; node 1's native p marks p held by node 1.  The
    # table, which detection also reads, then has every neighbour holding p,
    # while node 1's neighbourhood alone would leave node 2 missing it.
    log = SimLog()
    node = make_node(0, neighbors={1: bit(0), 2: bit(0)}, coding=Coding.TABLE, log=log)
    p, q = PacketId(3, 1), PacketId(4, 1)
    node.on_receive(xor_pkt([p, q], tx_node=2), now=1.0)
    assert log.filter(kind="decode-defer")
    node.on_receive(native(p, tx_node=1), now=1.1)
    assert [e[3] for e in log.filter(kind="gratis-nomark")] == [(p,)]
    assert set(node.queue) == {q}  # q, recovered from the bank, only node 2 holds
    assert node.table.holders(p, 1.1) == node.view.one_hop


def test_gratis_promotion_to_native():
    log = SimLog()
    node = make_node(0, neighbors={1: 0, 2: 0}, log=log)
    p = PacketId(3, 1)
    node.on_receive(gratis_pkt(p, tx_node=1), now=1.0)
    first = node.queue[p]
    assert first.gratis
    q = PacketId(4, 1)
    node.on_receive(native(q, forwarders=bit(0), tx_node=1), now=1.01)
    node.on_receive(native(p, forwarders=bit(0), tx_node=2), now=1.02)
    second = node.queue[p]
    assert not second.gratis and second is not first
    assert log.filter(kind="promote")
    assert list(node.queue) == [q, p]  # the promoted entry was buffered last
    assert node.on_rad_expiry(first, now=first.deadline) == []


# --------------------------------------------------------------------------
# Decode bank
# --------------------------------------------------------------------------


def test_undecodable_reception_waits_then_recovers():
    node = make_node(0, neighbors={1: 0, 2: 0})
    p1, p2 = PacketId(1, 1), PacketId(2, 1)
    a = node.on_receive(xor_pkt([p1, p2], tx_node=1), now=1.0)
    assert not transmits(a) and not rads(a)
    assert node.metrics.deliveries == 0 and len(node.bank) == 1

    b = node.on_receive(native(p1, forwarders=0, tx_node=2), now=1.5)
    assert node.metrics.decode_late == 1
    assert node.metrics.deliveries == 2  # p1 plus the recovered p2
    assert p2 in node.pool
    assert node.pool.get(p2).payload == make_payload(p2)
    assert not node.bank
    assert any(e is node.pool[p2] for e in evicts(b))


def test_bank_resolution_credits_the_encoder():
    node = make_node(0, neighbors={1: 0, 2: 0, 3: 0})
    p1, p2 = PacketId(1, 1), PacketId(2, 1)
    node.on_receive(xor_pkt([p1, p2], tx_node=3), now=1.0)
    node.on_receive(native(p1, forwarders=0, tx_node=2), now=1.5)
    # the encoder held both constituents; both entries owe it a hop credit
    assert node.pool.get(p1).prev_hops == from_ids({2, 3})
    assert node.pool.get(p2).prev_hops == bit(3)


def _codeb_node():
    return make_node(
        0, neighbors={1: 0, 2: 0, 3: 0}, termination=Termination.MU,
        coding=Coding.TABLE, coded_redundancy=False, pruning=Pruning.PDP,
    )


def test_immediate_decode_marks_the_encoder_under_mu():
    node = _codeb_node()
    p1, p2 = PacketId(1, 1), PacketId(2, 1)
    node.on_receive(native(p1, forwarders=0, tx_node=2), now=1.0)
    node.on_receive(xor_pkt([p1, p2], tx_node=3), now=1.5)
    assert node.pool[p1].prev_hops == from_ids({2, 3})
    assert node.term.marks.holders(p1, 1.5) == from_ids({2, 3})


def test_late_decode_marks_the_encoder_under_mu():
    # the same two receptions as above, in the other order
    node = _codeb_node()
    p1, p2 = PacketId(1, 1), PacketId(2, 1)
    node.on_receive(xor_pkt([p1, p2], tx_node=3), now=1.0)
    node.on_receive(native(p1, forwarders=0, tx_node=2), now=1.5)
    assert node.pool[p1].prev_hops == from_ids({2, 3})
    assert node.term.marks.holders(p1, 1.5) == from_ids({2, 3})


def test_bank_cascade_resolves_chains():
    node = make_node(0, neighbors={1: 0, 2: 0})
    p1, p2, p3 = PacketId(1, 1), PacketId(2, 1), PacketId(3, 1)
    node.on_receive(xor_pkt([p2, p3], tx_node=1), now=1.0)
    node.on_receive(xor_pkt([p1, p2], tx_node=2), now=1.1)
    assert len(node.bank) == 2
    node.on_receive(native(p1, forwarders=0, tx_node=1), now=1.5)
    assert not node.bank
    assert node.metrics.decode_late == 2
    assert p2 in node.pool and p3 in node.pool
    assert node.pool.get(p3).payload == make_payload(p3)


def test_late_decode_acts_on_an_election_for_a_held_constituent():
    # p^q elects node 0 for q, but both are unknown, so it is banked.  An
    # unelected native q arrives and decodes p late; the banked copy's
    # election for q, a packet node 1 still misses, must then be acted on.
    node = _codeb_node()
    p, q = PacketId(3, 1), PacketId(4, 1)
    node.on_receive(xor_pkt([p, q], forwarders_of={q: bit(0)}, tx_node=3), now=1.0)
    assert len(node.bank) == 1
    node.on_receive(native(q, forwarders=0, tx_node=2), now=1.5)
    assert node.metrics.decode_late == 1 and not node.bank
    assert not node.queue[q].gratis


def test_late_decode_is_the_first_native_decision_for_a_gratis_copy():
    # the pooled copy of q was gratis, so it made no termination check and
    # was buffered as a gratis candidate; the banked p^q electing node 0 for
    # q is the first native decision on q, and promotes it
    log = SimLog()
    node = make_node(0, neighbors={1: 0, 2: 0, 3: 0}, log=log)
    p, q = PacketId(3, 1), PacketId(4, 1)
    node.on_receive(xor_pkt([p, q], forwarders_of={q: bit(0)}, tx_node=3), now=1.0)
    node.on_receive(gratis_pkt(q, tx_node=1), now=1.5)
    assert node.metrics.decode_late == 1 and not node.bank
    assert not node.queue[q].gratis
    assert [e[3] for e in log.filter(kind="promote")] == [(q,)]


def test_two_banked_copies_of_one_xor_decode_late_once():
    # the first copy recovers q; the second then finds p and q both pooled
    # and takes the duplicate decision for each, with no second late decode
    log = SimLog()
    node = make_node(0, neighbors={1: 0, 2: 0, 3: 0}, coded_redundancy=False, log=log)
    p, q = PacketId(3, 1), PacketId(4, 1)
    node.on_receive(xor_pkt([p, q], tx_node=1), now=1.0)
    node.on_receive(xor_pkt([p, q], tx_node=2), now=1.1)
    assert len(node.bank) == 2
    node.on_receive(native(p, forwarders=0, tx_node=3), now=1.5)
    assert node.metrics.decode_late == 1 and not node.bank
    assert [e[3] for e in log.filter(kind="decode-late")] == [(q,)]
    # MC/U: each constituent's first check relays it, every later one drops
    assert [e[3] for e in log.filter(kind="drop-term")] == [(p,), (p,), (q,)]
    assert node.pool[p].prev_hops == from_ids({1, 2, 3})
    assert node.pool[q].prev_hops == from_ids({1, 2})


def test_bank_expiry_counts_decode_failure():
    node = make_node(0, neighbors={1: 0})
    p1, p2 = PacketId(1, 1), PacketId(2, 1)
    node.on_receive(xor_pkt([p1, p2], tx_node=1), now=1.0)
    node.flush_bank(now=2.9)
    assert node.metrics.decode_failures == 0  # lifetime is 2 s, still open
    node.flush_bank(now=3.0)
    assert node.metrics.decode_failures == 1
    assert not node.bank
    # late context can no longer resurrect it
    node.on_receive(native(p1, forwarders=0, tx_node=1), now=3.5)
    assert node.metrics.decode_late == 0


def test_known_encoded_reception_only_adds_hops():
    node = make_node(0, neighbors={1: 0, 2: 0})
    p1, p2 = PacketId(1, 1), PacketId(2, 1)
    node.on_receive(native(p1, forwarders=0, tx_node=1), now=0.5)
    node.on_receive(native(p2, forwarders=0, tx_node=1), now=0.6)
    deliveries = node.metrics.deliveries
    node.on_receive(xor_pkt([p1, p2], tx_node=2), now=1.0)
    assert node.metrics.deliveries == deliveries  # nothing new, no bank
    assert not node.bank
    assert node.pool.get(p1).prev_hops == from_ids({1, 2})


# --------------------------------------------------------------------------
# Late termination checks at RAD expiry
# --------------------------------------------------------------------------


def test_marks_accumulated_during_buffering_cancel_relay():
    log = SimLog()
    node = make_node(
        0,
        neighbors={1: 0, 2: 0},
        termination=Termination.MU,
        coding=Coding.NONE,
        log=log,
    )
    p = PacketId(3, 1)
    (rad,) = rads(node.on_receive(native(p, forwarders=bit(0), tx_node=1), now=1.0))
    # the other neighbour relays the same packet while we sit on it
    node.on_receive(native(p, forwarders=bit(0), tx_node=2), now=1.05)
    out = node.on_rad_expiry(rad, now=rad.deadline)
    assert not transmits(out)
    assert log.filter(kind="drop-term-late")


def test_newer_sequence_number_kills_buffered_packet():
    log = SimLog()
    node = make_node(
        0, neighbors={1: 0}, termination=Termination.CU, coding=Coding.NONE, log=log
    )
    old, new = PacketId(3, 1), PacketId(3, 2)
    (rad_old,) = rads(node.on_receive(native(old, forwarders=bit(0), tx_node=1), now=1.0))
    (rad_new,) = rads(node.on_receive(native(new, forwarders=bit(0), tx_node=1), now=1.02))
    assert not transmits(node.on_rad_expiry(rad_old, now=rad_old.deadline))
    assert log.filter(kind="drop-term-late")
    assert transmits(node.on_rad_expiry(rad_new, now=rad_new.deadline))


def test_window_keeps_buffered_packet_valid_across_reorder():
    node = make_node(0, neighbors={1: 0}, termination=Termination.MCU, coding=Coding.NONE)
    old, new = PacketId(3, 1), PacketId(3, 2)
    (rad_old,) = rads(node.on_receive(native(old, forwarders=bit(0), tx_node=1), now=1.0))
    (rad_new,) = rads(node.on_receive(native(new, forwarders=bit(0), tx_node=1), now=1.02))
    assert transmits(node.on_rad_expiry(rad_old, now=rad_old.deadline))
    assert transmits(node.on_rad_expiry(rad_new, now=rad_new.deadline))


def test_relay_echo_terminates_loop_at_source():
    cfg = dict(coding=Coding.NONE)
    # node 1 advertises a fringe node 2 so the source elects it as forwarder
    a = make_node(0, neighbors={1: from_ids({0, 2})}, **cfg)
    b = make_node(1, neighbors={0: from_ids({1})}, **cfg)
    (tx0,) = transmits(a.on_generate(sn=1, now=0.0))
    assert tx0.constituents[0].forwarders == bit(1)
    (rad_b,) = rads(b.on_receive(tx0, now=0.01))
    (tx1,) = transmits(b.on_rad_expiry(rad_b, now=rad_b.deadline))
    echo = a.on_receive(tx1, now=rad_b.deadline + 0.01)
    assert not transmits(echo) and not rads(echo)
