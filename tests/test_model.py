"""Bitmask set algebra and neighbour-view bookkeeping."""
import random

import pytest
from hypothesis import example, given, strategies as st

from nobcr.model import NeighborView, PacketId, bit, members, two_hop_set

from oracles import from_ids, union_sets

id_sets = st.frozensets(st.integers(min_value=0, max_value=300), max_size=40)


@given(id_sets)
def test_from_ids_members_round_trip(ids):
    mask = from_ids(ids)
    assert list(members(mask)) == sorted(ids)
    assert mask.bit_count() == len(ids)


@given(id_sets, id_sets)
def test_bitmask_ops_match_set_ops(a, b):
    ma, mb = from_ids(a), from_ids(b)
    assert set(members(ma | mb)) == a | b
    assert set(members(ma & mb)) == a & b
    assert set(members(ma & ~mb)) == a - b


def test_bit_and_empty_members():
    assert bit(0) == 1 and bit(7) == 128
    assert list(members(0)) == []


def test_packet_id_is_hashable_and_ordered_fields():
    p = PacketId(3, 17)
    assert p.source == 3 and p.sn == 17
    assert {p: "x"}[PacketId(3, 17)] == "x"
    assert PacketId(3, 17) != PacketId(17, 3)


# --------------------------------------------------------------------------
# NeighborView
# --------------------------------------------------------------------------


def test_note_hello_records_advertised_set():
    v = NeighborView(owner=0)
    v.note_hello(1, from_ids({0, 2, 5}), now=1.0, horizon=2.0)
    assert v.one_hop == bit(1)
    assert v.union_of(bit(1)) == from_ids({0, 2, 5})


def test_unknown_node_contributes_only_itself():
    v = NeighborView(owner=0)
    assert v.union_of(bit(9)) == bit(9)


def test_owner_set_served_from_live_table():
    # a node never hears its own hello, so its own advertised set must come
    # from the current neighbour table rather than neigh_of
    v = NeighborView(owner=4)
    v.note_hello(1, bit(4), now=0.0, horizon=2.0)
    v.note_hello(2, bit(4), now=0.0, horizon=2.0)
    assert v.union_of(bit(4)) == from_ids({1, 2, 4})


def test_prune_drops_stale_neighbours_only():
    v = NeighborView(owner=0)
    v.note_hello(1, bit(0), now=0.0, horizon=2.0)
    v.note_hello(2, bit(0), now=1.5, horizon=2.0)
    v.prune(now=2.1, horizon=2.0)
    assert v.one_hop == bit(2)
    assert 1 not in v.neigh_of and 1 not in v.last_heard


def test_prune_fast_path_skips_before_first_expiry():
    v = NeighborView(owner=0)
    v.note_hello(1, bit(0), now=0.0, horizon=5.0)
    v.prune(now=4.9, horizon=5.0)
    assert v.one_hop == bit(1)


def test_refresh_extends_expiry():
    v = NeighborView(owner=0)
    v.note_hello(1, bit(0), now=0.0, horizon=2.0)
    v.note_hello(1, bit(0), now=1.9, horizon=2.0)
    v.prune(now=3.0, horizon=2.0)
    assert v.one_hop == bit(1)
    v.prune(now=4.0, horizon=2.0)
    assert v.one_hop == 0


def test_two_hop_set_matches_set_arithmetic():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 25)
        owner = rng.randrange(n)
        v = NeighborView(owner=owner)
        advertised = {}
        for u in rng.sample(range(n), rng.randint(0, n - 1)):
            if u == owner:
                continue
            adv = set(rng.sample(range(n), rng.randint(0, n)))
            advertised[u] = adv
            v.note_hello(u, from_ids(adv), now=0.0, horizon=10.0)
        expect = set(advertised)
        for adv in advertised.values():
            expect |= adv
        expect.discard(owner)
        assert set(members(two_hop_set(v))) == expect


def test_two_hop_set_includes_one_hop_itself():
    v = NeighborView(owner=0)
    v.note_hello(3, 0, now=0.0, horizon=5.0)
    assert two_hop_set(v) == bit(3)


small_ids = st.frozensets(st.integers(min_value=0, max_value=11))


@given(
    owner=st.integers(min_value=0, max_value=11),
    one_hop=small_ids,
    advertised=st.dictionaries(st.integers(min_value=0, max_value=11), small_ids),
    mask=small_ids,
)
@example(owner=0, one_hop=frozenset({1}), advertised={1: frozenset({0, 2})}, mask=frozenset({0}))
@example(owner=0, one_hop=frozenset({1}), advertised={}, mask=frozenset({1, 5}))
@example(owner=3, one_hop=frozenset({1}), advertised={1: frozenset({3})}, mask=frozenset())
def test_union_of_matches_set_union(owner, one_hop, advertised, mask):
    # the owner's own set comes from its 1-hop table, unknown nodes stand in
    # for themselves, and the empty mask unions nothing
    one_hop = set(one_hop) - {owner}
    neigh_of = {u: set(adv) for u, adv in advertised.items() if u != owner}
    v = NeighborView(owner=owner, one_hop=from_ids(one_hop),
                     neigh_of={u: from_ids(adv) for u, adv in neigh_of.items()})
    assert set(members(v.union_of(from_ids(mask)))) == union_sets(owner, one_hop, neigh_of, mask)
