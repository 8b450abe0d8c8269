"""Host↔GPU state synchronization (§V-A, Fig. 9).

Two modes:

``"naive"``
    The host polls GPU-resident state words directly: every poll of every
    active slot is a small PCIe read transaction.  Polls congest the same
    link that carries query vectors and results — the I/O bottleneck the
    paper observes with many slots on low-dimensional datasets.

``"gdrcopy"``
    GDRCopy-style mapped *state mirrors* on both sides: polling reads the
    local mirror (no PCIe traffic at all); only an actual state *change*
    crosses the link, as a single small write to the remote mirror.
    Ownership is unambiguous (one side holds modification rights per state
    at any time, per the paper), so no consistency protocol is needed.

The channel only accounts *traffic and time*; the authoritative state lives
in the :class:`repro.core.slots.SlotBank` owned by the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpusim.pcie import PCIeLink

__all__ = ["StateChannel", "STATE_MODES", "STATE_WORD_BYTES"]

STATE_MODES = ("naive", "gdrcopy")

#: one CTA state word (an aligned 32-bit flag, the unit GDRCopy moves)
STATE_WORD_BYTES = 4


@dataclass
class StateChannel:
    """Prices state polls and state publications on a PCIe link."""

    link: PCIeLink
    mode: str = "gdrcopy"

    def __post_init__(self) -> None:
        if self.mode not in STATE_MODES:
            raise ValueError(f"mode must be one of {STATE_MODES}")

    def poll(self, now: float, n_slots: int, ctas_per_slot: int) -> float:
        """Host polls the states of ``n_slots`` slots; returns finish time.

        naive:   one read transaction per slot (the slot's CTA state words
                 are contiguous, so one read covers a slot).
        gdrcopy: local-memory reads — effectively free on the link.
        """
        if n_slots <= 0:
            return now
        if self.mode == "gdrcopy":
            return now  # local mirror; no PCIe involvement
        t = now
        for _ in range(n_slots):
            # Polling reads are *non-posted* (the host waits for the data),
            # so each poll pays a full round trip on top of bus occupancy.
            t = self.link.transfer(
                t, STATE_WORD_BYTES * ctas_per_slot, tag="state-poll"
            )
        return t

    def publish(self, now: float, n_words: int = 1) -> float:
        """One side changes state; the change is pushed to the remote copy.

        Both modes pay exactly one small write per change (in naive mode
        the write goes to the GPU-resident word; in gdrcopy mode to the
        remote mirror) — the saving of gdrcopy is entirely on the poll
        path.  Writes are *posted* MMIO stores: tiny bus occupancy.
        """
        link = self.link
        return link.transfer(
            now,
            STATE_WORD_BYTES * (n_words if n_words > 1 else 1),
            "state-publish",
            link.MMIO_OVERHEAD_US,
        )
