"""Declarative streaming-update workloads: seeded insert/delete waves.

:class:`UpdateStream` is the update-side mirror of the query-side
:class:`~repro.data.workload.ArrivalProcess` hierarchy (docs/load_testing.md):
a frozen, seeded, JSON-round-trippable description of *when the corpus
changes* — steady insert/delete rates discretized into waves, plus
deterministic :class:`UpdateStorm` bursts at fixed instants.  The
serve-while-update runner (:mod:`repro.streaming.runner`) materializes it
with :meth:`UpdateStream.waves` and interleaves the waves with a query
stream on the shared simulated clock.

Steady traffic is Poisson per wave window: a window of length ``wave_us``
at insert rate ``insert_qps`` contributes ``Poisson(insert_qps · wave_us ·
1e-6)`` inserts, applied as one vectorized wave at the window's end — the
batched-update discipline of FreshDiskANN-style systems, and exactly what
:meth:`~repro.graphs.dynamic.DynamicGraph.insert_batch` /
:meth:`~repro.graphs.dynamic.DynamicGraph.delete_batch` are built for.
Storms bypass the rate model entirely: each lands as its own wave with an
exact size at an exact time, so chaos experiments
(:class:`~repro.resilience.faults.UpdateFault` kind ``"storm"``) are
reproducible to the vertex.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["UpdateStorm", "UpdateWave", "UpdateStream"]


@dataclass(frozen=True)
class UpdateStorm:
    """A deterministic burst: exactly this many updates at exactly this time."""

    at_us: float
    n_inserts: int = 0
    n_deletes: int = 0

    def __post_init__(self) -> None:
        # A NaN fails every comparison, so this refuses it too: waves()
        # would drop a NaN storm without a word.
        if not 0.0 <= self.at_us < math.inf:
            raise ValueError("at_us must be finite and >= 0")
        if self.n_inserts < 0 or self.n_deletes < 0:
            raise ValueError("storm sizes must be >= 0")
        if self.n_inserts + self.n_deletes == 0:
            raise ValueError("a storm needs inserts or deletes")


@dataclass(frozen=True)
class UpdateWave:
    """One materialized wave: apply these updates at this simulated time."""

    at_us: float
    n_inserts: int = 0
    n_deletes: int = 0
    #: True when this wave came from an :class:`UpdateStorm` (chaos bursts
    #: are tagged so reports can attribute degradation to them).
    storm: bool = False


@dataclass(frozen=True)
class UpdateStream:
    """Seeded description of corpus churn: steady rates + storms.

    * ``insert_qps`` / ``delete_qps`` — long-run mean update rates
      (vectors per second of simulated time);
    * ``wave_us`` — batching window: steady updates accumulate for this
      long, then apply as one vectorized wave;
    * ``storms`` — deterministic bursts on top of the steady rates;
    * ``seed`` — fixes the Poisson wave sizes *and* every downstream
      choice the runner derives from the stream (insert vectors, delete
      victims), so one ``UpdateStream`` value fully determines the churn.
    """

    insert_qps: float = 0.0
    delete_qps: float = 0.0
    wave_us: float = 10_000.0
    storms: tuple[UpdateStorm, ...] = ()
    seed: int = 7

    def __post_init__(self) -> None:
        # A NaN fails every comparison, so these refuse it too: a NaN rate
        # or window would produce zero waves, an infinite rate die inside
        # the Poisson draw.
        for name in ("insert_qps", "delete_qps"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not 0.0 < self.wave_us < math.inf:
            raise ValueError("wave_us must be finite and positive")
        storms = tuple(
            s if isinstance(s, UpdateStorm) else UpdateStorm(**dict(s))
            for s in self.storms
        )
        object.__setattr__(self, "storms", storms)

    # ------------------------------------------------------------ derived
    @property
    def mean_updates_per_wave(self) -> float:
        return (self.insert_qps + self.delete_qps) * self.wave_us * 1e-6

    def with_storm(self, storm: UpdateStorm) -> "UpdateStream":
        """A copy with one more storm (how a chaos plan's ``storm``
        :class:`~repro.resilience.faults.UpdateFault` is merged in)."""
        return dataclasses.replace(
            self, storms=tuple(sorted(
                self.storms + (storm,), key=lambda s: s.at_us
            ))
        )

    # -------------------------------------------------------- materialize
    def waves(self, horizon_us: float, seed: int | None = None) -> list[UpdateWave]:
        """Materialize every wave with ``at_us <= horizon_us``, time-sorted
        (the final partial window's wave clamps to the horizon itself).

        Steady-rate windows draw Poisson sizes from ``seed`` (empty
        windows are skipped); storms are copied through verbatim.  Equal
        timestamps sort storms after steady waves, so a storm landing on a
        window boundary stacks on top of that window's steady wave.
        """
        if horizon_us < 0:
            raise ValueError("horizon_us must be >= 0")
        rng = np.random.default_rng(self.seed if seed is None else seed)
        out: list[UpdateWave] = []
        if self.insert_qps > 0 or self.delete_qps > 0:
            n_win = int(np.ceil(horizon_us / self.wave_us))
            mean_ins = self.insert_qps * self.wave_us * 1e-6
            mean_del = self.delete_qps * self.wave_us * 1e-6
            ins = rng.poisson(mean_ins, size=n_win) if mean_ins > 0 else np.zeros(n_win, np.int64)
            dels = rng.poisson(mean_del, size=n_win) if mean_del > 0 else np.zeros(n_win, np.int64)
            for w in range(n_win):
                if ins[w] or dels[w]:
                    at = min((w + 1) * self.wave_us, horizon_us)
                    out.append(UpdateWave(float(at), int(ins[w]), int(dels[w])))
        for s in self.storms:
            if s.at_us < horizon_us:
                out.append(
                    UpdateWave(s.at_us, s.n_inserts, s.n_deletes, storm=True)
                )
        out.sort(key=lambda w: (w.at_us, w.storm))
        return out

    # ---------------------------------------------------------- round-trip
    def to_dict(self) -> dict:
        return {
            "insert_qps": self.insert_qps,
            "delete_qps": self.delete_qps,
            "wave_us": self.wave_us,
            "storms": [dataclasses.asdict(s) for s in self.storms],
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(data: dict) -> "UpdateStream":
        data = dict(data)
        storms = tuple(UpdateStorm(**dict(s)) for s in data.pop("storms", ()))
        return UpdateStream(storms=storms, **data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str | bytes) -> "UpdateStream":
        return UpdateStream.from_dict(json.loads(text))
