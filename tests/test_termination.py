"""Termination criteria: window bitmap, classic per-source values, mark table."""
import random

import pytest

from nobcr.config import Termination
from nobcr.model import NeighborView, PacketId, from_ids
from nobcr.termination import (
    ClassicPerSource,
    Decision,
    MarkTable,
    SourceWindow,
    TerminationState,
    _clear_range,
    classic_check,
    mcu_relay_or_not,
    mcu_update,
    mu_check,
)

from oracles import FullHistoryDedup, rebuild_window_bitmap, reordered_sn_stream

RELAY = Decision.RELAY_ELIGIBLE
DROP = Decision.DROP


def pid(sn, source=0):
    return PacketId(source, sn)


# --------------------------------------------------------------------------
# Window bitmap, worked step by step
# --------------------------------------------------------------------------


def test_first_reception_lands_at_shifted_index():
    w = SourceWindow(k=8)
    assert mcu_relay_or_not(pid(5), w) is RELAY
    assert (w.sn_max, w.mindex, w.bm) == (5, 5, 0b00100000)


def test_in_window_reorder_then_duplicate():
    w = SourceWindow(k=8)
    assert mcu_relay_or_not(pid(5), w) is RELAY
    assert mcu_relay_or_not(pid(4), w) is RELAY  # older but unseen
    assert w.bm == 0b00110000
    assert mcu_relay_or_not(pid(4), w) is DROP  # now a duplicate
    assert mcu_relay_or_not(pid(5), w) is DROP
    assert w.bm == 0b00110000


def test_advance_by_one_clears_nothing():
    w = SourceWindow(k=8, bm=0b00001110, sn_max=3, mindex=3)
    mcu_update(pid(4), w)
    assert (w.sn_max, w.mindex) == (4, 4)
    assert w.bm == 0b00011110


def test_single_rollover_clears_both_wrapped_ranges():
    w = SourceWindow(k=8, bm=0b11111111, sn_max=6, mindex=6)
    mcu_update(pid(10), w)
    # positions 7 then 0..1 leave the window; position 2 is the new maximum
    assert (w.sn_max, w.mindex) == (10, 2)
    assert w.bm == 0b01111100


def test_multi_rollover_wipes_window():
    w = SourceWindow(k=8, bm=0b11111111, sn_max=3, mindex=3)
    mcu_update(pid(20), w)
    assert (w.sn_max, w.mindex) == (20, 4)
    assert w.bm == 0b00010000


def test_update_rejects_non_advance():
    w = SourceWindow(k=8, sn_max=5, mindex=5, bm=1 << 5)
    with pytest.raises(ValueError):
        mcu_update(pid(5), w)


def test_too_old_reception_drops_without_state_change():
    w = SourceWindow(k=8)
    mcu_relay_or_not(pid(100), w)
    before = (w.bm, w.sn_max, w.mindex)
    assert mcu_relay_or_not(pid(92), w) is DROP  # 92 == sn_max - k
    assert mcu_relay_or_not(pid(1), w) is DROP
    assert (w.bm, w.sn_max, w.mindex) == before
    assert mcu_relay_or_not(pid(93), w) is RELAY  # oldest in-window slot


def test_clear_range_noop_when_empty():
    assert _clear_range(0xFF, 5, 4) == 0xFF
    assert _clear_range(0xFF, 0, 7) == 0


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
                mcu_update(pid(front), w)
                received.add(front)
            else:
                sn = max(1, front - rng.randrange(k + 8))
                if mcu_relay_or_not(pid(sn), w) is RELAY:
                    received.add(sn)
            assert w.bm == rebuild_window_bitmap(k, w.sn_max, w.mindex, received)


# --------------------------------------------------------------------------
# Classic criteria
# --------------------------------------------------------------------------


def test_cu_stores_every_larger_reception():
    s = ClassicPerSource()
    assert classic_check(pid(3), s, Termination.CU) is RELAY
    assert s.sn_last == 3
    assert classic_check(pid(2), s, Termination.CU) is DROP  # reorder casualty
    assert classic_check(pid(3), s, Termination.CU) is DROP
    assert classic_check(pid(7), s, Termination.CU) is RELAY
    assert s.sn_last == 7


def test_ru_stores_only_on_forward():
    st = TerminationState(mode=Termination.RU)
    v = NeighborView(owner=9)
    assert st.check(pid(3), 0.0, v) is RELAY
    assert st.classic[0].sn_last == 0  # eligible but nothing forwarded yet
    assert st.check(pid(3), 0.0, v) is RELAY
    st.note_forwarded(pid(3))
    assert st.classic[0].sn_last == 3
    assert st.check(pid(2), 0.0, v) is DROP


def test_cu_decision_stream_matches_running_max():
    rng = random.Random(5)
    s = ClassicPerSource()
    best = 0
    for _ in range(20_000):
        sn = rng.randint(1, 500)
        got = classic_check(pid(sn), s, Termination.CU)
        assert (got is RELAY) == (sn > best)
        best = max(best, sn)


# --------------------------------------------------------------------------
# Mark table
# --------------------------------------------------------------------------


def test_marks_expire_and_reenable_relay():
    marks = MarkTable(expiry=5.0)
    nbrs = from_ids({1, 2})
    p = pid(1, source=9)
    assert mu_check(p, marks, nbrs, now=0.0) is RELAY
    marks.mark(1, p, now=0.0)
    assert mu_check(p, marks, nbrs, now=1.0) is RELAY  # 2 still unmarked
    marks.mark(2, p, now=1.0)
    assert mu_check(p, marks, nbrs, now=2.0) is DROP
    assert mu_check(p, marks, nbrs, now=5.0) is DROP  # node 1 mark lives to 5.0
    assert mu_check(p, marks, nbrs, now=5.1) is RELAY  # ...then 1 counts as unmarked


def test_mu_new_neighbour_reopens_relay():
    marks = MarkTable(expiry=5.0)
    p = pid(1)
    marks.mark(1, p, now=0.0)
    assert mu_check(p, marks, from_ids({1}), now=1.0) is DROP
    assert mu_check(p, marks, from_ids({1, 3}), now=1.0) is RELAY


def test_mu_with_no_neighbours_drops():
    marks = MarkTable(expiry=5.0)
    assert mu_check(pid(1), marks, 0, now=0.0) is DROP


def test_mark_prune_removes_expired_only():
    marks = MarkTable(expiry=2.0)
    marks.mark(1, pid(1), now=0.0)
    marks.mark(2, pid(1), now=3.0)
    marks.prune(now=2.5)
    assert len(marks) == 1
    assert marks.is_marked(2, pid(1), now=4.0)
    assert not marks.is_marked(1, pid(1), now=4.0)


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
    assert ru.classic[0].sn_last == 4

    cu = TerminationState(Termination.CU)
    cu.note_forwarded(p)
    assert 0 not in cu.classic


def test_buffered_packet_staleness_per_mode():
    # C/U: hearing a larger SN while a packet waits in the buffer overwrites
    # the stored value, so the buffered packet is stale at expiry
    cu = TerminationState(Termination.CU)
    v = _view()
    assert cu.check(PacketId(0, 1), 0.0, v) is RELAY
    assert not cu.stale_at_expiry(PacketId(0, 1))
    assert cu.check(PacketId(0, 2), 0.1, v) is RELAY
    assert cu.stale_at_expiry(PacketId(0, 1))
    assert not cu.stale_at_expiry(PacketId(0, 2))

    # R/U: only an actual forward of a larger SN overwrites
    ru = TerminationState(Termination.RU)
    assert ru.check(PacketId(0, 1), 0.0, v) is RELAY
    assert ru.check(PacketId(0, 2), 0.1, v) is RELAY
    assert not ru.stale_at_expiry(PacketId(0, 1))
    ru.note_forwarded(PacketId(0, 2))
    assert ru.stale_at_expiry(PacketId(0, 1))

    # the window keeps per-SN state, so buffered packets never go stale
    mcu = TerminationState(Termination.MCU, mcu_window=8)
    assert mcu.check(PacketId(0, 1), 0.0, v) is RELAY
    assert mcu.check(PacketId(0, 2), 0.1, v) is RELAY
    assert not mcu.stale_at_expiry(PacketId(0, 1))


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
