"""Packet pool accounting, holder estimation, XOR plan detection and codec."""
import copy
import dataclasses
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from nobcr.coding import (
    OutEntry,
    PacketPool,
    ReceptionTable,
    decode,
    detect_coding,
    encode,
    hop_estimate,
    receivers_of,
)
from nobcr.model import (
    ConstituentHeader,
    NeighborView,
    PacketId,
    bit,
    members,
)

from oracles import PairMarks, coding_plan_sets, from_ids, union_sets


def pid(sn, source=0):
    return PacketId(source, sn)


def header(p, forwarders=0, gratis=False):
    return ConstituentHeader(pid=p, forwarders=forwarders, gratis=gratis, origin_time=0.0)


def queued(p, deadline, gratis):
    return OutEntry(p, deadline, gratis)


# --------------------------------------------------------------------------
# PacketPool
# --------------------------------------------------------------------------


def test_record_copy_pools_only_a_first_copy():
    pool = PacketPool(lifetime=2.0)
    entry = pool.record_copy(pid(1), 3, payload=0xAB)
    assert entry.first_hop == 3 and entry.prev_hops == bit(3)
    assert pool[pid(1)] is entry and len(pool) == 1
    with pytest.raises(ValueError, match="already pooled"):
        pool.record_copy(pid(1), 5, payload=0xAB)
    assert pool[pid(1)] is entry and entry.prev_hops == bit(3)


def test_duplicates_grow_hop_set_once():
    pool = PacketPool(lifetime=2.0)
    entry = pool.record_copy(pid(1), 3, payload=1)
    entry.prev_hops |= bit(5)  # a later copy credits its hop, as a node does
    assert entry.prev_hops == from_ids({3, 5})
    assert pool.item_count() == 2
    entry.prev_hops |= bit(5)  # same hop again
    assert pool.item_count() == 2


def test_own_packet_has_no_hops():
    pool = PacketPool(lifetime=2.0)
    entry = pool.record_copy(pid(1), None, payload=9)
    assert entry.first_hop is None and entry.prev_hops == 0
    assert pool.item_count() == 0


def test_items_tracks_total_hop_count():
    rng = random.Random(4)
    pool = PacketPool(lifetime=2.0)
    hops: dict[PacketId, set[int]] = {}  # plain-set record of every copy kept
    for _ in range(3000):
        p = pid(rng.randint(1, 40), source=rng.randint(0, 3))
        if p in pool and rng.random() < 0.2:
            del pool[p]
            del hops[p]
        else:
            hop = rng.randint(0, 30)
            if p in pool:
                pool[p].prev_hops |= bit(hop)
            else:
                pool.record_copy(p, hop, payload=1)
            hops.setdefault(p, set()).add(hop)
        assert pool.item_count() == sum(len(h) for h in hops.values())


# --------------------------------------------------------------------------
# Holder estimation
# --------------------------------------------------------------------------


def test_receivers_union_advertised_neighbourhoods():
    v = NeighborView(owner=0)
    v.note_hello(1, from_ids({0, 2}), now=0.0, horizon=10.0)
    v.note_hello(3, from_ids({0, 4}), now=0.0, horizon=10.0)
    pool = PacketPool(lifetime=2.0)
    entry = pool.record_copy(pid(1), 1, payload=1)
    assert receivers_of(entry, v) == from_ids({0, 2})
    entry.prev_hops |= bit(3)
    assert receivers_of(entry, v) == from_ids({0, 2, 4})


def test_hop_estimate_reads_the_pooled_entry():
    v = NeighborView(owner=0)
    v.note_hello(1, from_ids({0, 2}), now=0.0, horizon=10.0)
    pool = PacketPool(lifetime=2.0)
    holders = hop_estimate(pool, v)
    assert holders(pid(1), 0.0) == 0  # not pooled: nobody is estimated
    entry = pool.record_copy(pid(1), 1, payload=1)
    assert holders(pid(1), 0.0) == receivers_of(entry, v) == from_ids({0, 2})
    del pool[pid(1)]
    assert holders(pid(1), 0.0) == 0


def test_unknown_hop_counts_only_itself():
    v = NeighborView(owner=0)
    pool = PacketPool(lifetime=2.0)
    entry = pool.record_copy(pid(1), 7, payload=1)
    assert receivers_of(entry, v) == bit(7)


def test_own_relay_adds_own_neighbourhood():
    # after this node itself relays a packet it becomes one of its hops, and
    # its estimate must then include its own current neighbour set
    v = NeighborView(owner=0)
    v.note_hello(1, 0, now=0.0, horizon=10.0)
    v.note_hello(2, 0, now=0.0, horizon=10.0)
    pool = PacketPool(lifetime=2.0)
    entry = pool.record_copy(pid(1), None, payload=1)
    entry.prev_hops |= bit(0)  # own transmission recorded as a hop
    assert receivers_of(entry, v) == from_ids({0, 1, 2})


@given(
    owner=st.integers(min_value=0, max_value=11),
    advertised=st.dictionaries(st.integers(min_value=0, max_value=11),
                               st.frozensets(st.integers(min_value=0, max_value=11))),
    hops=st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=6),
)
def test_receivers_of_is_the_union_over_prev_hops(owner, advertised, hops):
    v = NeighborView(owner=owner)
    neigh_of = {u: set(adv) for u, adv in advertised.items() if u != owner}
    for u, adv in neigh_of.items():
        v.note_hello(u, from_ids(adv), now=0.0, horizon=10.0)
    pool = PacketPool(lifetime=2.0)
    entry = pool.record_copy(pid(1), hops[0], payload=1)
    for hop in hops[1:]:
        entry.prev_hops |= bit(hop)
    union = 0
    for i in members(entry.prev_hops):
        union |= v.union_of(bit(i))
    assert receivers_of(entry, v) == union
    assert set(members(union)) == union_sets(owner, set(neigh_of), neigh_of, set(hops))


# --------------------------------------------------------------------------
# ReceptionTable
# --------------------------------------------------------------------------


def test_reception_table_expires_entries():
    t = ReceptionTable(ttl=2.0)
    t.mark(pid(1), bit(4), now=0.0)
    assert t.holders(pid(1), now=1.9) == bit(4)
    assert t.holders(pid(1), now=2.0) == bit(4)  # the deadline itself still holds
    assert t.holders(pid(1), now=2.1) == 0
    assert pid(1) in t._gens  # holders only reads
    t.prune(now=2.1)
    assert pid(1) not in t._gens  # prune drops expired entries


def test_reception_table_rejects_bare_membership():
    t = ReceptionTable(ttl=2.0)
    with pytest.raises(TypeError):
        pid(1) in t


def test_reception_table_marks_and_expires():
    t = ReceptionTable(ttl=5.0)
    t.mark(pid(1), from_ids({2, 3}), now=0.0)
    assert t.holders(pid(1), now=4.0) == from_ids({2, 3})
    t.mark(pid(1), bit(3), now=2.0)  # refresh one holder
    assert t.holders(pid(1), now=5.5) == bit(3)
    assert t.holders(pid(2), now=0.0) == 0
    assert t.item_count(now=5.5) == 1
    t.prune(now=7.5)
    assert t.item_count(now=7.5) == 0


def test_reception_table_rejects_marks_back_in_time():
    t = ReceptionTable(ttl=2.0)
    t.mark(pid(1), bit(1), now=1.0)
    t.mark(pid(1), bit(2), now=1.0)  # an equal deadline joins the last generation
    assert t._gens == {pid(1): [(3.0, from_ids({1, 2}))]}
    with pytest.raises(ValueError):
        t.mark(pid(1), bit(3), now=0.5)
    t.mark(pid(2), bit(3), now=0.5)  # the order is kept per packet
    assert t.holders(pid(1), now=3.0) == from_ids({1, 2})


# multiples of 1/8 add exactly, so steps land on deadlines as well as either side
_TABLE_STEPS = st.sampled_from([0.0, 0.0, 0.125, 0.25, 0.25])


@settings(deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(["mark", "mark", "mark", "prune", "count"]),
            _TABLE_STEPS,
            st.integers(1, 2),
            st.sets(st.integers(0, 5)),
        ),
        max_size=60,
    )
)
# three generations of one packet, pruned exactly at the middle one's deadline
@example(steps=[("mark", 0.0, 1, {1}), ("mark", 0.25, 1, {2}), ("mark", 0.25, 1, {3}),
                ("prune", 0.25, 1, set())])
# two live generations of one packet, counted
@example(steps=[("mark", 0.0, 1, {1}), ("mark", 0.25, 1, {2}), ("count", 0.0, 1, set())])
def test_reception_table_matches_pair_deadlines(steps):
    """Multi-node marks, reads and prunes at non-decreasing times, often at
    one instant, read as the plain (node, pid) -> deadline dict does; the
    holders of every packet are read after each step."""
    t = ReceptionTable(ttl=0.5)
    oracle = PairMarks(0.5)
    now = 0.0
    for op, dt, sn, nodes in steps:
        now += dt
        p = pid(sn)
        if op == "mark":
            t.mark(p, from_ids(nodes), now)
            for u in nodes:
                oracle.mark(u, p, now)
        else:
            oracle.prune(now)
            if op == "prune":
                t.prune(now)
                for gens in t._gens.values():  # live, and a node in one generation only
                    seen = 0
                    for d, mask in gens:
                        assert d >= now and not mask & seen
                        seen |= mask
            else:
                assert t.item_count(now) == len(oracle.deadlines)
        for q in (pid(1), pid(2)):
            assert t.holders(q, now) == from_ids(oracle.holders(q, now))


def test_holder_estimates_leave_their_inputs_unchanged():
    # a gratis RAD expiry with no native queued skips plan detection; that is
    # exact only because estimating holders writes to nothing it reads
    v = NeighborView(owner=0)
    v.note_hello(1, from_ids({0, 2}), now=0.0, horizon=10.0)
    v.note_hello(3, from_ids({0, 4}), now=0.0, horizon=10.0)
    pool = PacketPool(lifetime=2.0)
    entry = pool.record_copy(pid(1), 1, payload=1)
    entry.prev_hops |= bit(7)  # a hop the view does not know
    entry.prev_hops |= bit(0)  # the owner itself
    before = dataclasses.asdict(entry), dataclasses.asdict(v)
    assert receivers_of(entry, v) == from_ids({0, 1, 2, 3, 7})
    assert (dataclasses.asdict(entry), dataclasses.asdict(v)) == before

    t = ReceptionTable(ttl=5.0)
    t.mark(pid(1), from_ids({2, 3}), now=0.0)
    t.mark(pid(1), bit(4), now=3.0)
    t.mark(pid(2), bit(5), now=0.0)
    before = copy.deepcopy(t._gens)
    for now in (0.0, 4.0, 6.0, 9.0):  # before, between and after the expiries
        for p in (pid(1), pid(2), pid(3)):
            t.holders(p, now)
    assert t._gens == before


# --------------------------------------------------------------------------
# Codec
# --------------------------------------------------------------------------


def test_encode_validates_inputs():
    with pytest.raises(ValueError):
        encode([], [], 4, tx_node=0)


def test_encode_xors_payloads():
    pkt = encode([header(pid(1)), header(pid(2))], [0b1100, 0b1010], 4, tx_node=7)
    assert pkt.payload == 0b0110 and pkt.encoded and pkt.tx_node == 7


def test_decode_recovers_single_missing_constituent():
    rng = random.Random(8)
    for _ in range(200):
        k = rng.randint(1, 6)
        pids = [pid(i + 1, source=rng.randint(0, 2) * 3) for i in range(k)]
        payloads = [rng.getrandbits(128) for _ in range(k)]
        pkt = encode([header(p) for p in pids], payloads, 16, tx_node=0)
        missing_i = rng.randrange(k)
        pool = PacketPool(lifetime=5.0)
        for i, (p, pay) in enumerate(zip(pids, payloads)):
            if i != missing_i:
                pool.record_copy(p, 1, payload=pay)
        res = decode(pkt, pool)
        assert res.ok
        assert res.recovered_pid == pids[missing_i]
        assert res.recovered_payload == payloads[missing_i]


def test_decode_with_nothing_missing_is_trivial():
    pool = PacketPool(lifetime=5.0)
    pool.record_copy(pid(1), 1, payload=3)
    pkt = encode([header(pid(1))], [3], 4, tx_node=0)
    res = decode(pkt, pool)
    assert res.ok and res.recovered_pid is None


def test_decode_fails_with_two_unknowns():
    pool = PacketPool(lifetime=5.0)
    pool.record_copy(pid(1), 1, payload=3)
    pkt = encode(
        [header(pid(1)), header(pid(2)), header(pid(3))], [3, 5, 9], 4, tx_node=0
    )
    res = decode(pkt, pool)
    assert not res.ok
    assert set(res.missing) == {pid(2), pid(3)}


# --------------------------------------------------------------------------
# Opportunity detection
# --------------------------------------------------------------------------


def _detect(one_hop, known, seed_pid, queue, allow_pair=False):
    v = NeighborView(owner=99)
    for u in one_hop:
        v.note_hello(u, 0, now=0.0, horizon=10.0)
    return detect_coding(
        OutEntry(seed_pid, 0.0, False),
        queue,
        v,
        lambda p, now: known[p],
        0.0,
        allow_pair,
    )


def test_detect_admits_complementary_pair():
    known = {pid(1): bit(1), pid(2): bit(2)}
    queue = [queued(pid(2), deadline=1.0, gratis=False)]
    plan = _detect({1, 2}, known, pid(1), queue)
    assert [i.pid for i in plan] == [pid(1), pid(2)]
    assert plan[1] is queue[0]


def test_detect_rejects_when_someone_misses_two():
    known = {pid(1): bit(1), pid(2): bit(1)}  # node 2 misses both
    queue = [queued(pid(2), deadline=1.0, gratis=False)]
    plan = _detect({1, 2}, known, pid(1), queue)
    assert len(plan) == 1


def test_detect_scans_by_deadline_then_seq():
    # both candidates pair with the seed but not with each other; the one
    # expiring first must win the slot
    known = {pid(1): bit(1), pid(2): bit(2), pid(3): bit(2)}
    queue = [
        queued(pid(3), deadline=2.0, gratis=False),
        queued(pid(2), deadline=1.0, gratis=False),
    ]
    plan = _detect({1, 2}, known, pid(1), queue)
    assert [i.pid for i in plan] == [pid(1), pid(2)]
    # on equal deadlines the one buffered first, earlier in the queue, wins
    queue = [queued(pid(3), deadline=1.0, gratis=False), queued(pid(2), deadline=1.0, gratis=False)]
    plan = _detect({1, 2}, known, pid(1), queue)
    assert [i.pid for i in plan] == [pid(1), pid(3)]


def test_detect_skips_seed_duplicate_in_queue():
    known = {pid(1): bit(1)}
    queue = [queued(pid(1), deadline=1.0, gratis=False)]
    plan = _detect({1, 2}, known, pid(1), queue)
    assert len(plan) == 1


def test_gratis_joins_only_established_plans():
    known = {pid(1): bit(1), pid(2): bit(2)}
    queue = [queued(pid(2), deadline=1.0, gratis=True)]
    plan = _detect({1, 2}, known, pid(1), queue)
    assert len(plan) == 1  # a lone native cannot pair with gratis by default
    plan = _detect({1, 2}, known, pid(1), queue, allow_pair=True)
    assert [(i.pid, i.gratis) for i in plan] == [(pid(1), False), (pid(2), True)]


def test_gratis_skipped_once_everyone_holds_it():
    known = {pid(1): bit(1), pid(2): bit(2), pid(3): from_ids({1, 2})}
    queue = [
        queued(pid(2), deadline=1.0, gratis=False),
        queued(pid(3), deadline=2.0, gratis=True),
    ]
    plan = _detect({1, 2}, known, pid(1), queue)
    # pid(3) is estimated at every neighbour: coding it adds risk, no gain
    assert [i.pid for i in plan] == [pid(1), pid(2)]


def test_native_scan_runs_before_gratis_scan():
    known = {
        pid(1): from_ids({1, 3}),
        pid(2): from_ids({2, 3}),
        pid(3): from_ids({1, 2}),
        pid(4): bit(2),
    }
    queue = [
        queued(pid(4), deadline=0.5, gratis=True),
        queued(pid(2), deadline=1.0, gratis=False),
        queued(pid(3), deadline=2.0, gratis=True),
    ]
    plan = _detect({1, 2, 3}, known, pid(1), queue)
    # the native join happens first even though a gratis member expires
    # sooner, and that gratis member then no longer fits the grown plan
    assert [(i.pid, i.gratis) for i in plan] == [
        (pid(1), False),
        (pid(2), False),
        (pid(3), True),
    ]


def test_detected_plans_always_decodable_everywhere():
    """Whatever the queue looks like, an admitted plan leaves every current
    neighbour at most one constituent short."""
    rng = random.Random(21)
    for _ in range(2000):
        n_nbr = rng.randint(0, 6)
        one_hop = set(rng.sample(range(1, 9), n_nbr))
        n_pkts = rng.randint(1, 10)
        pids = [pid(i + 1, source=i % 3) for i in range(n_pkts)]
        known = {p: from_ids(s for s in one_hop if rng.random() < 0.6) for p in pids}
        queue = [
            queued(p, rng.uniform(0, 3), rng.random() < 0.3)
            for p in pids[1:]
        ]
        plan = _detect(one_hop, known, pids[0], queue, rng.random() < 0.5)
        assert plan[0].pid == pids[0]
        assert len({i.pid for i in plan}) == len(plan)
        for nbr in one_hop:
            short = sum(1 for i in plan if not known[i.pid] & bit(nbr))
            assert short <= 1


node_sets = st.frozensets(st.integers(min_value=1, max_value=8), max_size=8)


@given(
    one_hop=st.frozensets(st.integers(min_value=1, max_value=6), max_size=6),
    seed_holders=node_sets,
    seed_gratis=st.booleans(),
    # (deadline, gratis, holders) per queued packet; few deadlines, many ties
    entries=st.lists(st.tuples(st.integers(0, 3), st.booleans(), node_sets), max_size=8),
    seed_queued_at=st.none() | st.integers(min_value=0, max_value=8),
    allow_pair=st.booleans(),
)
@example(
    one_hop=frozenset({1, 2}), seed_holders=frozenset({1}), seed_gratis=False,
    entries=[(1, False, frozenset({2})), (1, False, frozenset({2}))],
    seed_queued_at=None, allow_pair=False,
)
def test_detect_coding_matches_the_set_oracle(
    one_hop, seed_holders, seed_gratis, entries, seed_queued_at, allow_pair
):
    seed = pid(1)
    known = {seed: seed_holders}
    queue = []
    for i, (deadline, gratis, held) in enumerate(entries):
        known[pid(i + 2)] = held
        queue.append(queued(pid(i + 2), float(deadline), gratis))
    if seed_queued_at is not None:  # a queue entry for the seed itself
        queue.insert(min(seed_queued_at, len(queue)), queued(seed, 1.0, seed_gratis))
    v = NeighborView(owner=0)
    for u in one_hop:
        v.note_hello(u, 0, now=0.0, horizon=10.0)
    plan = detect_coding(
        OutEntry(seed, 0.0, seed_gratis), queue, v, lambda p, now: from_ids(known[p]), 0.0,
        allow_pair,
    )
    expected = coding_plan_sets(
        seed, [(q.pid, q.deadline, q.gratis) for q in queue], set(one_hop), known, allow_pair
    )
    assert [q.pid for q in plan] == expected
