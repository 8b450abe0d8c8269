"""Extension — graph construction time: GPU batched vs CPU incremental.

GANNS's construction claim, priced by the analytic build model at the
paper's 1M scale, plus empirical sanity anchors: ``build_nsw_fast``
(seed-batched) and ``build_nsw`` (lockstep wave builds) must both beat the
one-point-at-a-time incremental build (``tests/oracles.py``) in real
wall-clock at test scale.
"""

import time

from repro.analysis.report import format_table
from repro.data.synthetic import latent_mixture
from repro.graphs import build_nsw, build_nsw_fast
from repro.graphs.gpu_build import estimate_build_time
from repro.gpusim.device import RTX_A6000
from tests.oracles import scalar_build_nsw


def test_ext_build_time(benchmark, show):
    rows = []
    for builder in ("nsw-batch", "cagra", "nsw-incremental"):
        est = estimate_build_time(RTX_A6000, n=1_000_000, dim=128, builder=builder)
        rows.append((builder, est.total_s))
    show(
        "ext-build",
        format_table(
            ["builder", "modelled build time (s), 1M x 128d"],
            rows,
            title="Construction-time model (GANNS claim)",
            floatfmt=".2f",
        ),
    )
    modelled = dict(rows)
    assert modelled["nsw-batch"] < modelled["nsw-incremental"] / 5
    assert modelled["cagra"] < modelled["nsw-incremental"]

    # Empirical anchors at small scale: both batched builds beat the
    # scalar incremental one for real.
    pts = latent_mixture(1200, 32, intrinsic_dim=10, seed=0)
    t0 = time.perf_counter()
    scalar_build_nsw(pts, m=6, ef_construction=24, seed=0)
    incremental_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    build_nsw_fast(pts, m=6, seed=0)
    batched_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    build_nsw(pts, m=6, ef_construction=24, seed=0)
    wave_s = time.perf_counter() - t0
    assert batched_s < incremental_s
    assert wave_s < incremental_s

    benchmark(build_nsw, pts, 6)
