"""Termination criteria: when does a duplicate stop being worth relaying?

Four interchangeable criteria are provided.  MC/U keeps a k-bit sliding
window bitmap per source so out-of-order packets within the window are still
recognised individually.  The classic criteria (M/U, R/U, C/U) reproduce the
single-value bookkeeping whose failure modes MC/U was designed to avoid.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

from .config import Termination
from .model import NeighborView, NodeSet, PacketId, members


class Decision(Enum):
    RELAY_ELIGIBLE = "relay"
    DROP = "drop"


# --------------------------------------------------------------------------
# MC/U: per-source sliding window bitmap
# --------------------------------------------------------------------------


@dataclass(slots=True)
class SourceWindow:
    """Reception window for one source: k bits ending at the largest SN seen.

    ``mindex`` is the bit position of ``sn_max``; the bit for sequence number
    s (with sn_max-k < s <= sn_max) lives at (mindex + s - sn_max) mod k.
    ``sn_max == 0`` means nothing has been seen yet (SNs start at 1).
    """

    k: int
    bm: int = 0
    sn_max: int = 0
    mindex: int = 0


def _clear_range(bm: int, lo: int, hi: int) -> int:
    """Clear bits lo..hi inclusive; no-op when lo > hi."""
    if lo > hi:
        return bm
    span = ((1 << (hi - lo + 1)) - 1) << lo
    return bm & ~span


def mcu_update(p: PacketId, w: SourceWindow) -> None:
    """Advance the window to a new largest SN, clearing bits that now map to
    sequence numbers never received.

    Precondition: p.sn > w.sn_max.
    """
    if p.sn <= w.sn_max:
        raise ValueError("mcu_update requires p.sn > sn_max")
    k = w.k
    shifted = w.mindex + (p.sn - w.sn_max)
    new_mindex = shifted % k
    rollover = shifted // k
    if rollover == 0:
        w.bm = _clear_range(w.bm, w.mindex + 1, new_mindex - 1)
    elif rollover == 1:
        w.bm = _clear_range(w.bm, w.mindex + 1, k - 1)
        w.bm = _clear_range(w.bm, 0, new_mindex - 1)
    else:
        w.bm = 0
    w.mindex = new_mindex
    w.sn_max = p.sn
    w.bm |= 1 << new_mindex


def mcu_relay_or_not(p: PacketId, w: SourceWindow) -> Decision:
    """Single reception decision against the window; mutates w on first sight."""
    if p.sn > w.sn_max:
        mcu_update(p, w)
        return Decision.RELAY_ELIGIBLE
    if p.sn <= w.sn_max - w.k:
        return Decision.DROP  # too old: fell out of the window
    index = p.sn - w.sn_max + w.mindex
    if index < 0:
        index += w.k
    mask = 1 << index
    if w.bm & mask:
        return Decision.DROP
    w.bm |= mask
    return Decision.RELAY_ELIGIBLE


# --------------------------------------------------------------------------
# R/U and C/U: one sequence number per source
# --------------------------------------------------------------------------


@dataclass(slots=True)
class ClassicPerSource:
    sn_last: int = 0


def classic_check(p: PacketId, s: ClassicPerSource, mode: Termination) -> Decision:
    """Relay iff p.sn exceeds the stored value.

    C/U stores every larger reception immediately.  R/U stores only actual
    forwards, which the node reports via :meth:`TerminationState.note_forwarded`
    once the packet leaves its relay queue.
    """
    eligible = p.sn > s.sn_last
    if eligible and mode is Termination.CU:
        s.sn_last = p.sn
    return Decision.RELAY_ELIGIBLE if eligible else Decision.DROP


# --------------------------------------------------------------------------
# M/U: per-neighbour mark table with expiry
# --------------------------------------------------------------------------


class MarkTable:
    """Which packets each 1-hop neighbour has been overheard transmitting.

    A mark is only ever set for the transmitting neighbour itself; marks
    expire ``expiry`` seconds after they were (re-)set.
    """

    __slots__ = ("expiry", "_marks")

    def __init__(self, expiry: float):
        self.expiry = expiry
        self._marks: dict[tuple[int, PacketId], float] = {}

    def mark(self, neighbor: int, p: PacketId, now: float) -> None:
        self._marks[(neighbor, p)] = now + self.expiry

    def is_marked(self, neighbor: int, p: PacketId, now: float) -> bool:
        deadline = self._marks.get((neighbor, p))
        return deadline is not None and now <= deadline

    def prune(self, now: float) -> None:
        stale = [key for key, deadline in self._marks.items() if deadline < now]
        for key in stale:
            del self._marks[key]

    def __len__(self) -> int:
        return len(self._marks)


def mu_check(p: PacketId, marks: MarkTable, neighbors: NodeSet, now: float) -> Decision:
    """Relay while at least one current neighbour has no valid mark for p."""
    for n in members(neighbors):
        if not marks.is_marked(n, p, now):
            return Decision.RELAY_ELIGIBLE
    return Decision.DROP


# --------------------------------------------------------------------------
# Per-node wrapper used by the protocol layer
# --------------------------------------------------------------------------


@dataclass
class TerminationState:
    """Per-node termination bookkeeping for the configured criterion."""

    mode: Termination
    mcu_window: int = 64
    mark_expiry: float = 5.0
    windows: dict[int, SourceWindow] = field(default_factory=dict)
    classic: dict[int, ClassicPerSource] = field(default_factory=dict)
    marks: MarkTable | None = None

    def __post_init__(self) -> None:
        if self.mode is Termination.MU:
            self.marks = MarkTable(self.mark_expiry)

    def check(self, p: PacketId, now: float, view: NeighborView) -> Decision:
        if self.mode is Termination.MCU:
            w = self.windows.get(p.source)
            if w is None:
                w = self.windows[p.source] = SourceWindow(self.mcu_window)
            return mcu_relay_or_not(p, w)
        if self.mode is Termination.MU:
            assert self.marks is not None
            return mu_check(p, self.marks, view.one_hop, now)
        s = self.classic.get(p.source)
        if s is None:
            s = self.classic[p.source] = ClassicPerSource()
        return classic_check(p, s, self.mode)

    def stale_at_expiry(self, p: PacketId) -> bool:
        """Staleness of a buffered packet once its assessment delay runs out.

        The single-value criteria cannot tell a pending packet from an old
        one: any larger sequence number heard (C/U) or forwarded (R/U) while
        p sat in the buffer overwrites the stored value and kills p.  The
        window bitmap keeps per-SN state, so a buffered packet stays valid.
        """
        if self.mode in (Termination.CU, Termination.RU):
            s = self.classic.get(p.source)
            return s is not None and s.sn_last > p.sn
        return False

    def observe_transmitter(self, tx_node: int, p: PacketId, now: float) -> None:
        """M/U bookkeeping: the transmitting neighbour evidently holds p."""
        if self.marks is not None:
            self.marks.mark(tx_node, p, now)

    def note_forwarded(self, p: PacketId) -> None:
        """Report an actual transmission of p by this node (R/U semantics)."""
        if self.mode is Termination.RU:
            s = self.classic.get(p.source)
            if s is None:
                s = self.classic[p.source] = ClassicPerSource()
            if p.sn > s.sn_last:
                s.sn_last = p.sn

    def digest(self) -> str:
        """Stable hash of the criterion state; used to verify read-only paths."""
        h = hashlib.sha256()
        h.update(self.mode.value.encode())
        for src in sorted(self.windows):
            w = self.windows[src]
            h.update(f"w{src}:{w.bm}:{w.sn_max}:{w.mindex};".encode())
        for src in sorted(self.classic):
            h.update(f"c{src}:{self.classic[src].sn_last};".encode())
        if self.marks is not None:
            for key in sorted(self.marks._marks):
                h.update(f"m{key}:{self.marks._marks[key]};".encode())
        return h.hexdigest()
