"""Termination criteria: when does a duplicate stop being worth relaying?

Four interchangeable criteria are provided, and this module is the only one
that tells them apart.  MC/U keeps a k-bit sliding window bitmap per source so
out-of-order packets within the window are still recognised individually.  The
classic criteria (M/U, R/U, C/U) reproduce the single-value bookkeeping whose
failure modes MC/U was designed to avoid.

MC/U window layout: a shift register.  Bit i of ``SourceWindow.bm`` is set
when sequence number ``sn_max - i`` was received (0 <= i < k).  A new maximum
shifts the register left by the gap and sets bit 0; bits shifted past k - 1
have left the window.

The node calls the same hooks of :class:`TerminationState` whatever the
criterion; each criterion acts on the hooks it needs and ignores the rest:

=========  =================================  ==============================
criterion  state                              hooks that act
=========  =================================  ==============================
MC/U       ``windows``: one window a source   ``check`` records the SN
C/U        ``sn_last``: one SN a source       ``check`` stores a larger SN;
                                              ``stale_at_expiry``
R/U        ``sn_last``: one SN a source       ``check`` only reads;
                                              ``note_forwarded`` stores;
                                              ``stale_at_expiry``
M/U        ``marks``: a ``ReceptionTable``    ``check`` only reads;
           of transmitters heard, each with   ``observe_transmitter`` marks;
           its own expiry                     ``stale_at_expiry`` re-checks;
                                              ``prune`` expires marks
=========  =================================  ==============================
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

from .config import Termination
from .model import NeighborView, PacketId, ReceptionTable, bit


class Decision(Enum):
    RELAY_ELIGIBLE = "relay"
    DROP = "drop"


@dataclass(slots=True)
class SourceWindow:
    """Reception window for one source: k bits ending at the largest SN seen.

    Bit i of ``bm`` stands for sequence number ``sn_max - i``.
    ``sn_max == 0`` means nothing has been seen yet (SNs start at 1).
    """

    k: int
    bm: int = 0
    sn_max: int = 0


def mcu_relay_or_not(p: PacketId, w: SourceWindow) -> Decision:
    """Single reception decision against the window; mutates w on first sight."""
    gap = p.sn - w.sn_max
    if gap > 0:
        # a gap of k or more leaves nothing of the old window
        w.bm = ((w.bm << gap) | 1) & ((1 << w.k) - 1) if gap < w.k else 1
        w.sn_max = p.sn
        return Decision.RELAY_ELIGIBLE
    if -gap >= w.k:
        return Decision.DROP  # too old: fell out of the window
    mask = 1 << -gap
    if w.bm & mask:
        return Decision.DROP
    w.bm |= mask
    return Decision.RELAY_ELIGIBLE


@dataclass
class TerminationState:
    """Per-node termination bookkeeping for the configured criterion."""

    mode: Termination
    mcu_window: int = 64
    mark_expiry: float = 5.0
    windows: dict[int, SourceWindow] = field(default_factory=dict)
    sn_last: dict[int, int] = field(default_factory=dict)
    marks: ReceptionTable | None = None  # M/U only

    def __post_init__(self) -> None:
        if self.mode is Termination.MU:
            self.marks = ReceptionTable(self.mark_expiry)

    def check(self, p: PacketId, now: float, view: NeighborView) -> Decision:
        """Relay decision for a native copy of p, heard or generated here."""
        if self.mode is Termination.MCU:
            w = self.windows.get(p.source)
            if w is None:
                w = self.windows[p.source] = SourceWindow(self.mcu_window)
            return mcu_relay_or_not(p, w)
        if self.marks is not None:
            # relay while some current neighbour has no valid mark for p
            if view.one_hop & ~self.marks.holders(p, now):
                return Decision.RELAY_ELIGIBLE
            return Decision.DROP
        # C/U stores every larger reception; R/U stores only actual forwards,
        # which the node reports through note_forwarded
        if p.sn <= self.sn_last.get(p.source, 0):
            return Decision.DROP
        if self.mode is Termination.CU:
            self.sn_last[p.source] = p.sn
        return Decision.RELAY_ELIGIBLE

    def stale_at_expiry(self, p: PacketId, now: float, view: NeighborView) -> bool:
        """Staleness of a buffered packet once its assessment delay runs out.

        M/U re-checks, as marks may have accumulated while p sat in the
        buffer.  The single-value criteria cannot tell a pending packet from
        an old one: any larger sequence number heard (C/U) or forwarded (R/U)
        meanwhile overwrites the stored value and kills p.  The window bitmap
        keeps per-SN state, so a buffered packet stays valid.
        """
        if self.mode is Termination.MCU:
            return False
        if self.marks is not None:
            return self.check(p, now, view) is Decision.DROP
        return self.sn_last.get(p.source, 0) > p.sn

    def observe_transmitter(self, tx_node: int, p: PacketId, now: float) -> None:
        """M/U bookkeeping: the transmitting neighbour evidently holds p."""
        if self.marks is not None:
            self.marks.mark(p, bit(tx_node), now)

    def note_forwarded(self, p: PacketId) -> None:
        """Report an actual transmission of p by this node (R/U semantics)."""
        if self.mode is Termination.RU and p.sn > self.sn_last.get(p.source, 0):
            self.sn_last[p.source] = p.sn

    def prune(self, now: float) -> None:
        """Expire soft state (M/U marks)."""
        if self.marks is not None:
            self.marks.prune(now)

    def digest(self) -> str:
        """Stable hash of the criterion state; used to verify read-only paths."""
        h = hashlib.sha256()
        h.update(self.mode.value.encode())
        for src in sorted(self.windows):
            w = self.windows[src]
            h.update(f"w{src}:{w.bm}:{w.sn_max};".encode())
        for src in sorted(self.sn_last):
            h.update(f"c{src}:{self.sn_last[src]};".encode())
        if self.marks is not None:
            for pid, gens in sorted(self.marks._gens.items()):
                for deadline, mask in gens:
                    h.update(f"m{pid}:{deadline}:{mask};".encode())
        return h.hexdigest()
