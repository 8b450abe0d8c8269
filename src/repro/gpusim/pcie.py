"""PCIe link model.

The state-optimization experiment (§V-A, Fig. 9/18) is about *transaction
counts*: naive host polling issues a small PCIe read per slot per poll,
congesting the link that also carries query vectors and results.  We model
the link as a serial FIFO resource: each transaction occupies the bus for
``tx_overhead + bytes/bandwidth`` and completes ``wire latency`` later.
Statistics (transaction count, bytes, busy time) feed the Fig. 18 analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .device import DeviceProperties

__all__ = ["PCIeLink", "PCIeStats"]


@dataclass
class PCIeStats:
    """Aggregate link statistics over a simulation."""

    transactions: int = 0
    bytes_moved: int = 0
    busy_us: float = 0.0
    #: transactions broken out by tag ("query", "result", "state", ...)
    by_tag: dict = field(default_factory=dict)
    #: time transactions spent waiting out injected stall windows (µs).
    stall_us: float = 0.0

    def utilization(self, horizon_us: float) -> float:
        """Fraction of the horizon the link was occupied."""
        if horizon_us <= 0:
            return 0.0
        return min(1.0, self.busy_us / horizon_us)


class PCIeLink:
    """Serial FIFO PCIe link with per-transaction overhead.

    ``transfer(now, nbytes)`` returns the transaction's *completion time*
    and advances the internal busy horizon; callers use the returned time
    to schedule downstream events.  Deterministic and allocation-free per
    call, so millions of small state transactions stay cheap to simulate.
    """

    def __init__(
        self,
        device: DeviceProperties,
        tx_overhead_us: float = 0.25,
    ):
        self.lat_us = device.pcie_lat_us
        self.bw_bytes_per_us = device.pcie_bw_gbps * 1e3
        self.tx_overhead_us = tx_overhead_us
        self.busy_until = 0.0
        self.stats = PCIeStats()
        #: fault-injection hook: sorted (start, end) windows during which
        #: the link admits no new transactions (set by the resilience
        #: layer; empty for a healthy link).
        self.stall_windows: tuple[tuple[float, float], ...] = ()

    #: bus occupancy of a posted MMIO store (a single small TLP) — far
    #: cheaper than a DMA transaction, which pays engine-setup overhead.
    MMIO_OVERHEAD_US = 0.02

    def occupancy_us(self, nbytes: int, overhead_us: float | None = None) -> float:
        """Bus-occupancy time of a transaction of ``nbytes``."""
        oh = self.tx_overhead_us if overhead_us is None else overhead_us
        return oh + nbytes / self.bw_bytes_per_us

    def transfer(
        self,
        now: float,
        nbytes: int,
        tag: str = "data",
        overhead_us: float | None = None,
    ) -> float:
        """Issue a transaction at ``now``; return its completion time.

        ``overhead_us`` overrides the per-transaction setup cost; state
        words use :data:`MMIO_OVERHEAD_US` (posted stores), bulk copies the
        default DMA overhead.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        # A scheduler's inner call: :meth:`occupancy_us` is written out
        # and the stats object looked up once.  Same float operations in
        # the same order as the method-per-step form.
        stats = self.stats
        start = now if now > self.busy_until else self.busy_until
        if self.stall_windows:
            start = self._stalled(start)
        occ = (
            self.tx_overhead_us if overhead_us is None else overhead_us
        ) + nbytes / self.bw_bytes_per_us
        done = self.busy_until = start + occ
        stats.transactions += 1
        stats.bytes_moved += nbytes
        stats.busy_us += occ
        by_tag = stats.by_tag
        by_tag[tag] = by_tag.get(tag, 0) + 1
        return done + self.lat_us

    def push_and_flag(
        self,
        now: float,
        nbytes: int,
        tag: str,
        overhead_us: float | None,
        flag_bytes: int,
    ) -> tuple[float, float]:
        """A push of ``nbytes`` then a ``flag_bytes`` "state-publish" MMIO
        store, both issued at ``now``; returns both completion times.

        The two :meth:`transfer` calls a CTA's FINISH makes (its result
        push, then the state flag PCIe orders behind it) as one call: the
        same float operations in the same order, so the busy horizon and
        every :class:`PCIeStats` field, float sums included, equal the two
        calls'.
        """
        if nbytes < 0 or flag_bytes < 0:
            raise ValueError("nbytes must be non-negative")
        busy, bw = self.busy_until, self.bw_bytes_per_us
        start = now if now > busy else busy
        if self.stall_windows:
            start = self._stalled(start)
        occ = (self.tx_overhead_us if overhead_us is None else overhead_us) + nbytes / bw
        pushed = start + occ
        start = now if now > pushed else pushed
        if self.stall_windows:
            start = self._stalled(start)
        flag_occ = self.MMIO_OVERHEAD_US + flag_bytes / bw
        flagged = self.busy_until = start + flag_occ
        stats = self.stats
        stats.transactions += 2
        stats.bytes_moved += nbytes + flag_bytes
        stats.busy_us = stats.busy_us + occ + flag_occ  # two adds, in order
        by_tag = stats.by_tag
        by_tag[tag] = by_tag.get(tag, 0) + 1
        by_tag["state-publish"] = by_tag.get("state-publish", 0) + 1
        lat = self.lat_us
        return pushed + lat, flagged + lat

    def _stalled(self, start: float) -> float:
        """``start`` moved past the stall windows it falls in."""
        stats = self.stats
        for w_start, w_end in self.stall_windows:
            if w_start <= start < w_end:
                stats.stall_us += w_end - start
                start = w_end
        return start

    def reset(self) -> None:
        """Clear the busy horizon and statistics."""
        self.busy_until = 0.0
        self.stats = PCIeStats()
