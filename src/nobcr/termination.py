"""Termination criteria: when does a duplicate stop being worth relaying?

Four interchangeable criteria are provided, and this module is the only one
that tells them apart.  MC/U keeps a k-bit sliding window bitmap per source so
out-of-order packets within the window are still recognised individually.  The
classic criteria (M/U, R/U, C/U) reproduce the single-value bookkeeping whose
failure modes MC/U was designed to avoid.

MC/U, C/U and R/U share one SN store, ``sn_last``: one SN a source, the
largest heard (MC/U, C/U) or forwarded (R/U).  A larger SN is an advance:
it is eligible for relay, and only R/U leaves the store as it was.

MC/U window layout: a shift register below ``sn_last``.  Bit i of
``windows[s]`` is set when sequence number ``sn_last[s] - i`` was received
(0 <= i < k).  An advance shifts the register left by the gap and sets bit 0;
bits shifted past k - 1 have left the window.

M/U is the neighbour elimination rule of Stojmenovic, Seddigh and Zunic
(IEEE TPDS 2002): a packet is relayed while some current neighbour is not
known to hold it, and hearing a node send it covers that node's neighbours.
The node keeps that knowledge in its one reception table and marks it
itself: every overheard copy marks the transmitter and the neighbours known
to be in its range, gratis copies included, and an own send marks every
neighbour.  The criterion only reads the table, which the node also prunes.

The node calls the same hooks of :class:`TerminationState` whatever the
criterion; each criterion acts on the hooks it needs and ignores the rest:

=========  =================================  ==============================
criterion  state                              hooks that act
=========  =================================  ==============================
MC/U       ``sn_last`` and ``windows``: one   ``check`` records the SN
           SN and one window a source
C/U        ``sn_last``                        ``check`` stores a larger SN;
                                              ``stale_at_expiry``
R/U        ``sn_last``                        ``check`` only reads;
                                              ``note_forwarded`` stores;
                                              ``stale_at_expiry``
M/U        ``marks``: the node's reception    ``check`` reads;
           table                              ``stale_at_expiry`` re-checks
=========  =================================  ==============================
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

from .config import Termination
from .model import NeighborView, PacketId, ReceptionTable


class Decision(Enum):
    RELAY_ELIGIBLE = "relay"
    DROP = "drop"


@dataclass
class TerminationState:
    """Per-node termination bookkeeping for the configured criterion."""

    mode: Termination
    mcu_window: int = 64
    marks: ReceptionTable | None = None  # M/U only: the node's reception table
    windows: dict[int, int] = field(default_factory=dict)  # MC/U only
    sn_last: dict[int, int] = field(default_factory=dict)  # a missing source reads 0: SNs start at 1

    def check(self, p: PacketId, now: float, view: NeighborView) -> Decision:
        """Relay decision for a copy of p."""
        if self.marks is not None:
            # relay while some current neighbour has no valid mark for p
            if view.one_hop & ~self.marks.holders(p, now):
                return Decision.RELAY_ELIGIBLE
            return Decision.DROP
        src = p.source
        gap = p.sn - self.sn_last.get(src, 0)
        mode = self.mode
        if gap > 0:
            # R/U stores only actual forwards, which the node reports through
            # note_forwarded; a gap of k or more leaves nothing of a window
            if mode is not Termination.RU:
                self.sn_last[src] = p.sn
                if mode is Termination.MCU:
                    k = self.mcu_window
                    bm = self.windows.get(src, 0)
                    self.windows[src] = ((bm << gap) | 1) & ((1 << k) - 1) if gap < k else 1
            return Decision.RELAY_ELIGIBLE
        if mode is Termination.MCU and -gap < self.mcu_window:
            # an SN inside the window (SNs start at 1, so the source has
            # advanced before): relay it once
            bm = self.windows[src]
            mask = 1 << -gap
            if not bm & mask:
                self.windows[src] = bm | mask
                return Decision.RELAY_ELIGIBLE
        return Decision.DROP

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

    def note_forwarded(self, p: PacketId) -> None:
        """Report an actual transmission of p by this node (R/U semantics)."""
        if self.mode is Termination.RU and p.sn > self.sn_last.get(p.source, 0):
            self.sn_last[p.source] = p.sn

    def digest(self) -> str:
        """Stable hash of the criterion state; used to verify read-only paths."""
        h = hashlib.sha256()
        h.update(self.mode.value.encode())
        for src in sorted(self.windows):
            h.update(f"w{src}:{self.windows[src]};".encode())
        for src in sorted(self.sn_last):
            h.update(f"c{src}:{self.sn_last[src]};".encode())
        if self.marks is not None:
            for pid, gens in sorted(self.marks._gens.items()):
                for deadline, mask in gens:
                    h.update(f"m{pid}:{deadline}:{mask};".encode())
        return h.hexdigest()
