"""Termination criteria: window bitmap, classic per-source values, M/U reading
the node's reception table."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from nobcr.config import ScenarioConfig, Termination
from nobcr.engine import Simulation
from nobcr.metrics import SimLog
from nobcr.model import NeighborView, PacketId, ReceptionTable, bit, members
from nobcr.presets import VARIANTS
from nobcr.termination import Decision, TerminationState

from oracles import (
    FullHistoryDedup,
    PairMarks,
    from_ids,
    rebuild_window_bitmap,
    reordered_sn_stream,
)

RELAY = Decision.RELAY_ELIGIBLE
DROP = Decision.DROP


def pid(sn, source=0):
    return PacketId(source, sn)


# --------------------------------------------------------------------------
# Window bitmap, worked step by step (bit i stands for sn_last - i)
# --------------------------------------------------------------------------


def window(k=8, sn_last=0, bm=0):
    """An MC/U state, with source 0 at ``sn_last`` and window ``bm`` if given."""
    mcu = TerminationState(Termination.MCU, mcu_window=k)
    if sn_last:
        mcu.sn_last[0], mcu.windows[0] = sn_last, bm
    return mcu


def seen(mcu, sn):
    return mcu.check(pid(sn), 0.0, NeighborView(owner=9))


def state(mcu):
    return mcu.sn_last[0], mcu.windows[0]


def test_first_reception_lands_at_shifted_index():
    w = window()
    assert seen(w, 5) is RELAY
    assert state(w) == (5, 0b1)  # bit 0 always stands for sn_last


def test_in_window_reorder_then_duplicate():
    w = window()
    assert seen(w, 5) is RELAY
    assert seen(w, 4) is RELAY  # older but unseen
    assert state(w) == (5, 0b11)
    assert seen(w, 4) is DROP  # now a duplicate
    assert seen(w, 5) is DROP
    assert state(w) == (5, 0b11)


def test_advance_by_one_clears_nothing():
    w = window(sn_last=3, bm=0b111)
    assert seen(w, 4) is RELAY
    assert state(w) == (4, 0b1111)


def test_single_rollover_clears_both_wrapped_ranges():
    w = window(sn_last=6, bm=0b11111111)
    assert seen(w, 10) is RELAY
    # 7..9 were never received; 3..6 move up to bits 4..7; older ones leave
    assert state(w) == (10, 0b11110001)


def test_multi_rollover_wipes_window():
    w = window(sn_last=3, bm=0b11111111)
    assert seen(w, 20) is RELAY
    assert state(w) == (20, 0b1)


@pytest.mark.parametrize("k", [4, 64])
def test_huge_jump_keeps_bitmap_within_k(k):
    w = window(k)
    for sn in range(1, 2 * k):
        seen(w, sn)
    assert seen(w, w.sn_last[0] + 10**9) is RELAY
    assert w.windows[0] == 1 and w.windows[0].bit_length() <= k


def test_update_rejects_non_advance():
    w = window(sn_last=5, bm=0b1)
    assert seen(w, 5) is DROP  # the maximum itself is no advance
    assert state(w) == (5, 0b1)


def test_too_old_reception_drops_without_state_change():
    w = window()
    seen(w, 100)
    before = state(w)
    assert seen(w, 92) is DROP  # 92 == sn_last - k
    assert seen(w, 1) is DROP
    assert state(w) == before
    assert seen(w, 93) is RELAY  # oldest in-window slot
    assert state(w) == (100, 0b10000001)


# --------------------------------------------------------------------------
# Window decisions against the unbounded-memory detector
# --------------------------------------------------------------------------


@pytest.mark.parametrize("k", [4, 8, 32, 64])
def test_window_decisions_match_full_history(k):
    rng = random.Random(1000 + k)
    w = window(k)
    oracle = FullHistoryDedup(k)
    for sn in reordered_sn_stream(rng, 30_000, k):
        got = seen(w, sn)
        want = oracle.decide(sn)
        assert (got is RELAY) == (want == "relay"), (sn, w.sn_last[0])


def test_window_bitmap_rebuilds_from_history():
    """After any mix of updates and receptions the bitmap must equal one
    rebuilt from scratch out of the set of sequence numbers accepted."""
    rng = random.Random(77)
    for trial in range(300):
        k = rng.choice([4, 8, 16, 64])
        w = window(k)
        received = set()
        front = 0
        for _ in range(rng.randint(5, 60)):
            if rng.random() < 0.4 or front == 0:
                front += rng.choice([1, 2, 3, k - 1, k, 2 * k + 3])
                assert seen(w, front) is RELAY
                received.add(front)
            else:
                sn = max(1, front - rng.randrange(k + 8))
                if seen(w, sn) is RELAY:
                    received.add(sn)
            assert w.windows[0] == rebuild_window_bitmap(k, w.sn_last[0], received)


# --------------------------------------------------------------------------
# Classic criteria
# --------------------------------------------------------------------------


def test_cu_stores_every_larger_reception():
    st = TerminationState(mode=Termination.CU)
    v = NeighborView(owner=9)
    assert st.check(pid(3), 0.0, v) is RELAY
    assert st.sn_last[0] == 3
    assert st.check(pid(2), 0.0, v) is DROP  # reorder casualty
    assert st.check(pid(3), 0.0, v) is DROP
    assert st.check(pid(7), 0.0, v) is RELAY
    assert st.sn_last[0] == 7


def test_ru_stores_only_on_forward():
    st = TerminationState(mode=Termination.RU)
    v = NeighborView(owner=9)
    assert st.check(pid(3), 0.0, v) is RELAY
    assert 0 not in st.sn_last  # eligible but nothing forwarded yet
    assert st.check(pid(3), 0.0, v) is RELAY
    st.note_forwarded(pid(3))
    assert st.sn_last[0] == 3
    assert st.check(pid(2), 0.0, v) is DROP


def test_cu_decision_stream_matches_running_max():
    rng = random.Random(5)
    st = TerminationState(mode=Termination.CU)
    v = NeighborView(owner=9)
    best = 0
    for _ in range(20_000):
        sn = rng.randint(1, 500)
        got = st.check(pid(sn), 0.0, v)
        assert (got is RELAY) == (sn > best)
        best = max(best, sn)


_SOURCES = st.integers(0, 2)


@given(
    steps=st.lists(
        st.tuples(st.sampled_from(["heard", "forwarded"]), _SOURCES, st.integers(1, 200)),
        max_size=80,
    ),
    k=st.integers(1, 16),
)
def test_one_sn_store_for_mcu_cu_and_ru(steps, k):
    """MC/U and C/U store the largest SN heard, R/U the largest forwarded."""
    v = NeighborView(owner=9)
    mcu, cu, ru = (
        TerminationState(mode, mcu_window=k)
        for mode in (Termination.MCU, Termination.CU, Termination.RU)
    )
    heard: dict[int, int] = {}
    forwarded: dict[int, int] = {}
    for op, source, sn in steps:
        p = pid(sn, source)
        for criterion in (mcu, cu, ru):
            if op == "heard":
                criterion.check(p, 0.0, v)
            else:
                criterion.note_forwarded(p)
        best = heard if op == "heard" else forwarded
        best[source] = max(best.get(source, 0), sn)
    assert mcu.sn_last == cu.sn_last == heard
    assert ru.sn_last == forwarded


# --------------------------------------------------------------------------
# M/U: the criterion reads the node's reception table, which the node marks
# --------------------------------------------------------------------------


def mu_state(ttl=5.0):
    """An M/U state and the reception table it reads."""
    table = ReceptionTable(ttl)
    return TerminationState(Termination.MU, marks=table), table


def test_marks_expire_and_reenable_relay():
    mu, table = mu_state()
    v = _view(one_hop={1, 2})
    p = pid(1, source=9)
    assert mu.check(p, 0.0, v) is RELAY
    table.mark(p, bit(1), now=0.0)
    assert mu.check(p, 1.0, v) is RELAY  # 2 still unmarked
    table.mark(p, bit(2), now=1.0)
    assert mu.check(p, 2.0, v) is DROP
    assert mu.check(p, 5.0, v) is DROP  # node 1 mark lives to 5.0
    assert mu.check(p, 5.1, v) is RELAY  # ...then 1 counts as unmarked


def test_mu_new_neighbour_reopens_relay():
    mu, table = mu_state()
    p = pid(1)
    table.mark(p, bit(1), now=0.0)
    assert mu.check(p, 1.0, _view(one_hop={1})) is DROP
    assert mu.check(p, 1.0, _view(one_hop={1, 3})) is RELAY


def test_mu_with_no_neighbours_drops():
    mu, _ = mu_state()
    assert mu.check(pid(1), 0.0, _view()) is DROP


def test_mark_prune_removes_expired_only():
    # the node prunes its table; the criterion reads what is left
    mu, table = mu_state(ttl=2.0)
    table.mark(pid(1), from_ids({1, 3}), now=0.0)
    table.mark(pid(1), bit(2), now=3.0)
    table.prune(now=2.5)
    assert mu.marks._gens == {pid(1): [(5.0, bit(2))]}
    assert mu.check(pid(1), 4.0, _view(one_hop={2})) is DROP
    assert mu.check(pid(1), 4.0, _view(one_hop={1, 2})) is RELAY


# multiples of 1/8 sum exactly, so a step lands on a deadline, not an ulp off it
_TIME_STEPS = st.sampled_from([0.0, 0.125, 0.25, 0.375])


@settings(deadline=None)
@given(
    steps=st.lists(
        st.one_of(
            st.tuples(
                st.just("mark"), _TIME_STEPS, st.sets(st.integers(0, 4)), st.integers(1, 3)
            ),
            st.tuples(
                st.just("check"), _TIME_STEPS, st.sets(st.integers(0, 4)), st.integers(1, 3)
            ),
            st.tuples(st.just("prune"), _TIME_STEPS, st.just(0), st.just(0)),
        ),
        max_size=60,
    )
)
def test_mu_decisions_match_pair_marks(steps):
    """Node masks marked on the table, checks and prunes at non-decreasing
    times decide as the plain (node, packet) -> deadline dict does, marked
    one member at a time, and prune keeps exactly the marks the dict keeps."""
    ttl = 0.25  # the steps land on deadlines exactly as well as either side
    mu, table = mu_state(ttl)
    oracle = PairMarks(ttl)
    now = 0.0
    for op, dt, arg, sn in steps:
        now += dt
        p = pid(sn, source=7)
        if op == "mark":
            table.mark(p, from_ids(arg), now)
            for u in arg:
                oracle.mark(u, p, now)
        elif op == "check":
            v = _view(owner=9, one_hop=arg)
            want = RELAY if oracle.relay(arg, p, now) else DROP
            assert mu.check(p, now, v) is want
            assert mu.stale_at_expiry(p, now, v) is (want is DROP)
        else:
            table.prune(now)
            oracle.prune(now)
            # a node's deadline is that of the newest generation holding it
            kept = {
                (u, q): d
                for q, gens in mu.marks._gens.items()
                for d, mask in gens
                for u in members(mask)
            }
            assert kept == oracle.deadlines


def _ring_flood_under_mu(**kw):
    """Node 4's log kinds for one ``pdp-mu`` flood of (0, 1) on the ring
    0-1-4-3-2-0, where node 4 holds each packet it relays for 0.5 s and
    node 2 for 0.5006 s.  A native send lasts 1.088 ms."""
    ring = [bit(1) | bit(2), bit(0) | bit(4), bit(0) | bit(3), bit(2) | bit(4), bit(1) | bit(3)]
    config = ScenarioConfig(n_nodes=5, area_side=500.0, sim_duration=10.0, n_sources=1,
                            collisions=False, mac_jitter=0.0, hello_enabled=False, **kw)
    log = SimLog()
    hold = {2: 0.5006, 4: 0.5}
    sim = Simulation(VARIANTS["pdp-mu"].apply(config), adjacency=ring, injections=[(1.0, 0, 1)],
                     rad_override=lambda node, _: hold.get(node), log=log)
    sim.run()
    return [kind for _, node, kind, _ in log.entries if node == 4]


def test_mu_relays_again_once_a_neighbour_mark_lapses():
    # 0 elects 1 and 2.  1 relays at once and elects 4, which relays at
    # ~1.5022 s and marks both its neighbours, 1 and 3.  2 relays 0.6 ms
    # later and elects 3, which relays at once, before 4's copy reaches it,
    # so it elects 4 again.  That copy reaches 4 1.7 ms after 4's own send,
    # which relays again only if the marks of that send have lapsed.
    assert _ring_flood_under_mu(table_expiry=0.001) == ["buffer", "tx", "buffer", "tx"]
    assert _ring_flood_under_mu() == ["buffer", "tx", "drop-term"]


# --------------------------------------------------------------------------
# Per-node wrapper
# --------------------------------------------------------------------------


def _view(owner=0, one_hop=()):
    v = NeighborView(owner=owner)
    for u in one_hop:
        v.note_hello(u, 0, now=0.0, horizon=100.0)
    return v


def test_state_dispatch_creates_per_source_windows():
    st = TerminationState(Termination.MCU, mcu_window=8)
    v = _view()
    assert st.check(PacketId(1, 5), 0.0, v) is RELAY
    assert st.check(PacketId(2, 5), 0.0, v) is RELAY  # windows are independent per source
    assert st.check(PacketId(1, 5), 0.0, v) is DROP
    assert set(st.windows) == {1, 2}


def test_state_dispatch_classic_and_marks():
    cu = TerminationState(Termination.CU)
    v = _view(one_hop={1})
    assert cu.check(PacketId(0, 2), 0.0, v) is RELAY
    assert cu.check(PacketId(0, 1), 0.0, v) is DROP
    mu, table = mu_state()
    p = PacketId(0, 1)
    assert mu.check(p, 0.0, v) is RELAY
    table.mark(p, bit(1), 0.0)
    assert mu.check(p, 1.0, v) is DROP


def test_note_forwarded_feeds_ru_only():
    ru = TerminationState(Termination.RU)
    v = _view()
    p = PacketId(0, 4)
    assert ru.check(p, 0.0, v) is RELAY
    assert ru.check(p, 0.0, v) is RELAY  # nothing stored until a transmission
    ru.note_forwarded(p)
    assert ru.check(p, 0.0, v) is DROP
    ru.note_forwarded(PacketId(0, 2))  # stale report must not regress
    assert ru.sn_last[0] == 4

    cu = TerminationState(Termination.CU)
    cu.note_forwarded(p)
    assert 0 not in cu.sn_last


def test_buffered_packet_staleness_per_mode():
    # C/U: hearing a larger SN while a packet waits in the buffer overwrites
    # the stored value, so the buffered packet is stale at expiry
    cu = TerminationState(Termination.CU)
    v = _view()
    assert cu.check(PacketId(0, 1), 0.0, v) is RELAY
    assert not cu.stale_at_expiry(PacketId(0, 1), 0.2, v)
    assert cu.check(PacketId(0, 2), 0.1, v) is RELAY
    assert cu.stale_at_expiry(PacketId(0, 1), 0.2, v)
    assert not cu.stale_at_expiry(PacketId(0, 2), 0.2, v)

    # R/U: only an actual forward of a larger SN overwrites
    ru = TerminationState(Termination.RU)
    assert ru.check(PacketId(0, 1), 0.0, v) is RELAY
    assert ru.check(PacketId(0, 2), 0.1, v) is RELAY
    assert not ru.stale_at_expiry(PacketId(0, 1), 0.2, v)
    ru.note_forwarded(PacketId(0, 2))
    assert ru.stale_at_expiry(PacketId(0, 1), 0.2, v)

    # the window keeps per-SN state, so buffered packets never go stale
    mcu = TerminationState(Termination.MCU, mcu_window=8)
    assert mcu.check(PacketId(0, 1), 0.0, v) is RELAY
    assert mcu.check(PacketId(0, 2), 0.1, v) is RELAY
    assert not mcu.stale_at_expiry(PacketId(0, 1), 0.2, v)

    # M/U: marks heard while the packet waits make it stale at expiry
    mu, table = mu_state()
    v1 = _view(one_hop={1})
    assert mu.check(PacketId(0, 1), 0.0, v1) is RELAY
    assert not mu.stale_at_expiry(PacketId(0, 1), 0.1, v1)
    table.mark(PacketId(0, 1), bit(1), 0.1)
    assert mu.stale_at_expiry(PacketId(0, 1), 0.2, v1)


def test_digest_tracks_state_changes():
    st = TerminationState(Termination.MCU, mcu_window=8)
    v = _view()
    d0 = st.digest()
    assert st.digest() == d0
    st.check(PacketId(0, 1), 0.0, v)
    d1 = st.digest()
    assert d1 != d0
    st.check(PacketId(0, 1), 0.0, v)  # duplicate: no state change
    assert st.digest() == d1


@pytest.mark.parametrize("mode", [Termination.MU, Termination.RU])
def test_check_only_reads_under_mu_and_ru(mode):
    table = ReceptionTable(1.0)
    st = TerminationState(mode, marks=table if mode is Termination.MU else None)
    v = _view(one_hop={1, 2})
    rng = random.Random(3)
    now = 0.0
    for _ in range(200):
        now += rng.random()
        p = PacketId(rng.randrange(3), rng.randint(1, 20))
        table.mark(p, bit(rng.choice([1, 2])), now)
        st.note_forwarded(p)
        before = st.digest()
        for _ in range(5):
            q = PacketId(rng.randrange(3), rng.randint(1, 20))
            st.check(q, now + 2 * rng.random(), v)
            st.stale_at_expiry(q, now + 2 * rng.random(), v)
        assert st.digest() == before
