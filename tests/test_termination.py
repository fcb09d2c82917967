"""Termination criteria: window bitmap, classic per-source values, mark table."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from nobcr.config import Termination
from nobcr.model import NeighborView, PacketId, bit, members
from nobcr.termination import Decision, SourceWindow, TerminationState, mcu_relay_or_not

from oracles import FullHistoryDedup, PairMarks, rebuild_window_bitmap, reordered_sn_stream

RELAY = Decision.RELAY_ELIGIBLE
DROP = Decision.DROP


def pid(sn, source=0):
    return PacketId(source, sn)


# --------------------------------------------------------------------------
# Window bitmap, worked step by step (bit i stands for sn_max - i)
# --------------------------------------------------------------------------


def test_first_reception_lands_at_shifted_index():
    w = SourceWindow(k=8)
    assert mcu_relay_or_not(pid(5), w) is RELAY
    assert (w.sn_max, w.bm) == (5, 0b1)  # bit 0 always stands for sn_max


def test_in_window_reorder_then_duplicate():
    w = SourceWindow(k=8)
    assert mcu_relay_or_not(pid(5), w) is RELAY
    assert mcu_relay_or_not(pid(4), w) is RELAY  # older but unseen
    assert w.bm == 0b11
    assert mcu_relay_or_not(pid(4), w) is DROP  # now a duplicate
    assert mcu_relay_or_not(pid(5), w) is DROP
    assert w.bm == 0b11


def test_advance_by_one_clears_nothing():
    w = SourceWindow(k=8, bm=0b111, sn_max=3)
    assert mcu_relay_or_not(pid(4), w) is RELAY
    assert (w.sn_max, w.bm) == (4, 0b1111)


def test_single_rollover_clears_both_wrapped_ranges():
    w = SourceWindow(k=8, bm=0b11111111, sn_max=6)
    assert mcu_relay_or_not(pid(10), w) is RELAY
    # 7..9 were never received; 3..6 move up to bits 4..7; older ones leave
    assert (w.sn_max, w.bm) == (10, 0b11110001)


def test_multi_rollover_wipes_window():
    w = SourceWindow(k=8, bm=0b11111111, sn_max=3)
    assert mcu_relay_or_not(pid(20), w) is RELAY
    assert (w.sn_max, w.bm) == (20, 0b1)


@pytest.mark.parametrize("k", [4, 64])
def test_huge_jump_keeps_bitmap_within_k(k):
    w = SourceWindow(k)
    for sn in range(1, 2 * k):
        mcu_relay_or_not(pid(sn), w)
    assert mcu_relay_or_not(pid(w.sn_max + 10**9), w) is RELAY
    assert w.bm == 1 and w.bm.bit_length() <= k


def test_update_rejects_non_advance():
    w = SourceWindow(k=8, sn_max=5, bm=0b1)
    assert mcu_relay_or_not(pid(5), w) is DROP  # the maximum itself is no advance
    assert (w.sn_max, w.bm) == (5, 0b1)


def test_too_old_reception_drops_without_state_change():
    w = SourceWindow(k=8)
    mcu_relay_or_not(pid(100), w)
    before = (w.bm, w.sn_max)
    assert mcu_relay_or_not(pid(92), w) is DROP  # 92 == sn_max - k
    assert mcu_relay_or_not(pid(1), w) is DROP
    assert (w.bm, w.sn_max) == before
    assert mcu_relay_or_not(pid(93), w) is RELAY  # oldest in-window slot
    assert w.bm == 0b10000001


# --------------------------------------------------------------------------
# Window decisions against the unbounded-memory detector
# --------------------------------------------------------------------------


@pytest.mark.parametrize("k", [4, 8, 32, 64])
def test_window_decisions_match_full_history(k):
    rng = random.Random(1000 + k)
    w = SourceWindow(k)
    oracle = FullHistoryDedup(k)
    for sn in reordered_sn_stream(rng, 30_000, k):
        got = mcu_relay_or_not(pid(sn), w)
        want = oracle.decide(sn)
        assert (got is RELAY) == (want == "relay"), (sn, w.sn_max)


def test_window_bitmap_rebuilds_from_history():
    """After any mix of updates and receptions the bitmap must equal one
    rebuilt from scratch out of the set of sequence numbers accepted."""
    rng = random.Random(77)
    for trial in range(300):
        k = rng.choice([4, 8, 16, 64])
        w = SourceWindow(k)
        received = set()
        front = 0
        for _ in range(rng.randint(5, 60)):
            if rng.random() < 0.4 or front == 0:
                front += rng.choice([1, 2, 3, k - 1, k, 2 * k + 3])
                assert mcu_relay_or_not(pid(front), w) is RELAY
                received.add(front)
            else:
                sn = max(1, front - rng.randrange(k + 8))
                if mcu_relay_or_not(pid(sn), w) is RELAY:
                    received.add(sn)
            assert w.bm == rebuild_window_bitmap(k, w.sn_max, received)


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


# --------------------------------------------------------------------------
# M/U marks: a ReceptionTable of the transmitters heard sending each packet
# --------------------------------------------------------------------------


def test_marks_expire_and_reenable_relay():
    mu = TerminationState(Termination.MU, mark_expiry=5.0)
    v = _view(one_hop={1, 2})
    p = pid(1, source=9)
    assert mu.check(p, 0.0, v) is RELAY
    mu.observe_transmitter(1, p, now=0.0)
    assert mu.check(p, 1.0, v) is RELAY  # 2 still unmarked
    mu.observe_transmitter(2, p, now=1.0)
    assert mu.check(p, 2.0, v) is DROP
    assert mu.check(p, 5.0, v) is DROP  # node 1 mark lives to 5.0
    assert mu.check(p, 5.1, v) is RELAY  # ...then 1 counts as unmarked


def test_mu_new_neighbour_reopens_relay():
    mu = TerminationState(Termination.MU, mark_expiry=5.0)
    p = pid(1)
    mu.observe_transmitter(1, p, now=0.0)
    assert mu.check(p, 1.0, _view(one_hop={1})) is DROP
    assert mu.check(p, 1.0, _view(one_hop={1, 3})) is RELAY


def test_mu_with_no_neighbours_drops():
    mu = TerminationState(Termination.MU, mark_expiry=5.0)
    assert mu.check(pid(1), 0.0, _view()) is DROP


def test_mark_prune_removes_expired_only():
    mu = TerminationState(Termination.MU, mark_expiry=2.0)
    mu.observe_transmitter(1, pid(1), now=0.0)
    mu.observe_transmitter(2, pid(1), now=3.0)
    mu.prune(now=2.5)
    assert mu.marks._gens == {pid(1): [(5.0, bit(2))]}
    assert mu.marks.holders(pid(1), now=4.0) == bit(2)


# multiples of 1/8 sum exactly, so a step lands on a deadline, not an ulp off it
_TIME_STEPS = st.sampled_from([0.0, 0.125, 0.25, 0.375])


@settings(deadline=None)
@given(
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("mark"), _TIME_STEPS, st.integers(0, 4), st.integers(1, 3)),
            st.tuples(
                st.just("check"), _TIME_STEPS, st.sets(st.integers(0, 4)), st.integers(1, 3)
            ),
            st.tuples(st.just("prune"), _TIME_STEPS, st.just(0), st.just(0)),
        ),
        max_size=60,
    )
)
def test_mu_decisions_match_pair_marks(steps):
    """Marks, checks and prunes at non-decreasing times decide as the plain
    (neighbour, packet) -> deadline dict does, and prune keeps exactly the
    marks the dict keeps."""
    ttl = 0.25  # the steps land on deadlines exactly as well as either side
    mu = TerminationState(Termination.MU, mark_expiry=ttl)
    oracle = PairMarks(ttl)
    now = 0.0
    for op, dt, arg, sn in steps:
        now += dt
        p = pid(sn, source=7)
        if op == "mark":
            mu.observe_transmitter(arg, p, now)
            oracle.mark(arg, p, now)
        elif op == "check":
            v = _view(owner=9, one_hop=arg)
            want = RELAY if oracle.relay(arg, p, now) else DROP
            assert mu.check(p, now, v) is want
            assert mu.stale_at_expiry(p, now, v) is (want is DROP)
        else:
            mu.prune(now)
            oracle.prune(now)
            # a node's deadline is that of the newest generation holding it
            kept = {
                (u, q): d
                for q, gens in mu.marks._gens.items()
                for d, mask in gens
                for u in members(mask)
            }
            assert kept == oracle.deadlines


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
    mu = TerminationState(Termination.MU, mark_expiry=5.0)
    p = PacketId(0, 1)
    assert mu.check(p, 0.0, v) is RELAY
    mu.observe_transmitter(1, p, 0.0)
    assert mu.check(p, 1.0, v) is DROP


def test_observe_transmitter_ignored_outside_mu():
    st = TerminationState(Termination.CU)
    st.observe_transmitter(1, PacketId(0, 1), 0.0)
    assert st.marks is None


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
    mu = TerminationState(Termination.MU, mark_expiry=5.0)
    v1 = _view(one_hop={1})
    assert mu.check(PacketId(0, 1), 0.0, v1) is RELAY
    assert not mu.stale_at_expiry(PacketId(0, 1), 0.1, v1)
    mu.observe_transmitter(1, PacketId(0, 1), 0.1)
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
    st = TerminationState(mode, mark_expiry=1.0)
    v = _view(one_hop={1, 2})
    rng = random.Random(3)
    now = 0.0
    for _ in range(200):
        now += rng.random()
        p = PacketId(rng.randrange(3), rng.randint(1, 20))
        st.observe_transmitter(rng.choice([1, 2]), p, now)
        st.note_forwarded(p)
        before = st.digest()
        for _ in range(5):
            q = PacketId(rng.randrange(3), rng.randint(1, 20))
            st.check(q, now + 2 * rng.random(), v)
            st.stale_at_expiry(q, now + 2 * rng.random(), v)
        assert st.digest() == before
