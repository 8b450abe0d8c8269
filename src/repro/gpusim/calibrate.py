"""Cost-model calibration against measured timings.

Users with access to a real GPU can calibrate the simulator: run a few
search configurations on hardware, record (trace, measured-microseconds)
pairs, and fit the per-op cycle constants so the priced traces match.

The model is linear in the five dominant cycle constants

    t(trace) ≈ Σ_ops  count_op(trace) · cycles_op / clock

so the fit is a non-negative least squares over the op-count matrix
(solved with projected ``numpy.linalg.lstsq`` — clip + refit, adequate for
this small well-conditioned system).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .costmodel import CostModel, CostParams, step_op_groups
from .device import DeviceProperties
from .trace import CTATrace, TraceBlock

__all__ = ["CalibrationResult", "op_count_features", "calibrate_cost_params"]

#: order of the fitted CostParams fields
_FIELDS = (
    "fma_iter_cycles",
    "shuffle_cycles",
    "cmpex_cycles",
    "scan_cycles",
    "bitmap_cycles",
)


def op_count_features(
    trace, threads: int = 32, params: CostParams | None = None
) -> np.ndarray:
    """Per-op *counts* (warp-wide groups) summed over each CTA row.

    ``trace`` is one :class:`CTATrace` (→ a ``(5,)`` vector) or a
    :class:`TraceBlock` / trace list (→ ``(rows, 5)``).  Columns follow
    ``_FIELDS``; multiplying by the matching cycle constants and the cycle
    time reproduces the part of :meth:`CostModel.cta_cost` those constants
    price.  The counts are :func:`~repro.gpusim.costmodel.step_op_groups`
    — the pricer's own — so int8 steps pack ``params.int8_mac_pack`` MACs
    per FMA group.
    """
    single = isinstance(trace, CTATrace)
    block = TraceBlock.from_traces([trace] if single else trace)
    pack = (params or CostParams()).int8_mac_pack
    g = step_op_groups(block, threads, pack)
    per_step = (
        g["fma"], g["shuffle"], g["cmpex_sort"] + g["cmpex_merge"],
        g["scan_iters"] * block.n_expanded, g["bitmap"],
    )
    feats = np.stack(
        [block.row_sums(col) for col in per_step], axis=1
    ).astype(np.float64)
    return feats[0] if single else feats


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted constants plus fit quality."""

    params: CostParams
    residual_us_rms: float
    r_squared: float


def calibrate_cost_params(
    device: DeviceProperties,
    traces: list[CTATrace],
    measured_us: list[float],
    base_params: CostParams | None = None,
    threads: int | None = None,
) -> CalibrationResult:
    """Fit per-op cycle constants to measured CTA timings.

    ``measured_us[i]`` is the observed execution time of ``traces[i]`` on
    real hardware.  Memory-latency/bandwidth terms (device properties) are
    subtracted before fitting; fitted constants are clipped non-negative
    with one refit pass over the surviving columns.
    """
    if len(traces) != len(measured_us):
        raise ValueError("one measurement per trace required")
    if len(traces) < len(_FIELDS):
        raise ValueError(f"need at least {len(_FIELDS)} measurements")
    base = base_params or CostParams()
    thr = threads or device.warp_size
    block = TraceBlock.from_traces(traces)
    X = op_count_features(block, thr, base)
    # fixed (non-fitted) component: memory + per-step overheads
    zeroed = replace(
        base,
        fma_iter_cycles=0.0, shuffle_cycles=0.0, cmpex_cycles=0.0,
        scan_cycles=0.0, bitmap_cycles=0.0,
    )
    fixed_model = CostModel(device, zeroed, threads_per_cta=thr)
    fixed = fixed_model.cta_durations_us(block)
    y = np.asarray(measured_us, dtype=np.float64) - fixed
    cycle_us = 1.0 / (device.clock_ghz * 1e3)
    A = X * cycle_us

    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    if (coef < 0).any():  # clip-and-refit non-negativity pass
        keep = coef > 0
        coef = np.zeros_like(coef)
        if keep.any():
            sub, *_ = np.linalg.lstsq(A[:, keep], y, rcond=None)
            coef[keep] = np.clip(sub, 0.0, None)
    fitted = replace(base, **dict(zip(_FIELDS, coef.tolist())))

    pred = A @ coef + fixed
    resid = np.asarray(measured_us) - pred
    ss_res = float((resid**2).sum())
    ss_tot = float(((np.asarray(measured_us) - np.mean(measured_us)) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return CalibrationResult(
        params=fitted,
        residual_us_rms=float(np.sqrt((resid**2).mean())),
        r_squared=r2,
    )
