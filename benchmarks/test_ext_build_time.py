"""Extension — graph construction time: batched waves vs incremental.

GANNS's construction claim at test scale: ``build_nsw`` (lockstep wave
builds) must beat the one-point-at-a-time incremental build
(``tests/oracles.py``) in real wall-clock.
"""

import time

from repro.analysis.report import format_table
from repro.data.synthetic import latent_mixture
from repro.graphs import build_nsw
from tests.oracles import scalar_build_nsw


def test_ext_build_time(benchmark, show):
    pts = latent_mixture(1200, 32, intrinsic_dim=10, seed=0)
    t0 = time.perf_counter()
    scalar_build_nsw(pts, m=6, ef_construction=24, seed=0)
    incremental_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    build_nsw(pts, m=6, ef_construction=24, seed=0)
    wave_s = time.perf_counter() - t0
    show(
        "ext-build",
        format_table(
            ["builder", "build time (s), 1200 x 32d"],
            [("nsw-incremental", incremental_s), ("nsw-waves", wave_s)],
            title="NSW construction time (GANNS claim)",
            floatfmt=".3f",
        ),
    )
    assert wave_s < incremental_s

    benchmark(build_nsw, pts, 6)
