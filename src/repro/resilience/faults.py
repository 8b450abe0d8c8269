"""Deterministic fault plans and their injector.

A :class:`FaultPlan` is a *seeded, declarative* description of everything
that will go wrong during a serve: slots that hang or corrupt their state
word, CTAs that straggle, PCIe stall windows, and shards/replicas that die
or slow down.  The plan is data (frozen dataclasses, JSON round-trippable);
the :class:`FaultInjector` turns it into per-dispatch decisions inside
:class:`~repro.core.dynamic_batcher.DynamicBatchEngine`.  Injection is
fully deterministic: the same plan over the same workload produces the
same failure timeline, so chaos experiments are reproducible and the
defenses (docs/robustness.md) can be regression-tested.

Fault taxonomy
--------------
``SlotFault``   per-slot, fires on that slot's *n*-th dispatch:
                ``hang`` (CTA 0 never publishes FINISH), ``corrupt``
                (CTA 0 writes an out-of-protocol state word instead of
                FINISH), ``straggle`` (CTA 0's duration × ``factor``).
``PCIeStall``   the link accepts no new transactions inside the window
                (queued transactions start when it reopens).
``ShardFault``  cluster-level: ``kill`` (no answers visible after
                ``at_us``) or ``slow`` (every CTA duration × ``factor``).
``UpdateFault`` streaming-update plane (consumed by the serve-while-update
                runner, :mod:`repro.streaming`, not by the engines):
                ``storm`` (a burst of inserts+deletes at ``at_us``),
                ``compaction_stall`` (compaction cycles take ``factor`` ×
                longer), ``codebook_drift`` (inserted points after
                ``at_us`` are shifted by ``magnitude``, aging the int8
                codebook until the re-train policy fires).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SlotFault",
    "PCIeStall",
    "ShardFault",
    "UpdateFault",
    "FaultPlan",
    "FaultInjector",
    "named_plan",
    "NAMED_PLANS",
]

_SLOT_KINDS = ("hang", "corrupt", "straggle")
_SHARD_KINDS = ("kill", "slow")
_UPDATE_KINDS = ("storm", "compaction_stall", "codebook_drift")


@dataclass(frozen=True)
class SlotFault:
    """A fault armed on one slot, firing on its ``on_dispatch``-th dispatch."""

    slot_id: int
    kind: str  # "hang" | "corrupt" | "straggle"
    on_dispatch: int = 1
    #: latency multiplier for ``straggle`` (ignored otherwise).
    factor: float = 4.0
    #: restrict to one shard/replica under cluster serving (None = every
    #: engine the plan reaches; standalone engines ignore this field).
    shard: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SLOT_KINDS:
            raise ValueError(f"unknown slot fault kind {self.kind!r}")
        if self.slot_id < 0 or self.on_dispatch < 1:
            raise ValueError("need slot_id >= 0 and on_dispatch >= 1")
        if self.kind == "straggle" and self.factor <= 1.0:
            raise ValueError("straggle factor must be > 1")


@dataclass(frozen=True)
class PCIeStall:
    """The PCIe link admits no new transactions in [start, start+duration)."""

    start_us: float
    duration_us: float
    shard: int | None = None

    def __post_init__(self) -> None:
        if self.start_us < 0 or self.duration_us <= 0:
            raise ValueError("need start_us >= 0 and duration_us > 0")

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


@dataclass(frozen=True)
class ShardFault:
    """Kill or slow an entire shard/replica."""

    shard: int
    kind: str  # "kill" | "slow"
    #: kill: answers completing after this sim time are lost.
    at_us: float = 0.0
    #: slow: CTA-duration multiplier for every query on the shard.
    factor: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in _SHARD_KINDS:
            raise ValueError(f"unknown shard fault kind {self.kind!r}")
        if self.shard < 0:
            raise ValueError("shard must be >= 0")
        if self.kind == "slow" and self.factor <= 1.0:
            raise ValueError("slow factor must be > 1")


@dataclass(frozen=True)
class UpdateFault:
    """A fault on the streaming-update plane (docs/robustness.md).

    * ``storm`` — a burst of ``n_inserts`` + ``n_deletes`` landing as one
      update wave at ``at_us``, on top of the stream's steady rates;
    * ``compaction_stall`` — every compaction cycle's (simulated) service
      time is stretched by ``factor``, holding the serve barrier longer;
    * ``codebook_drift`` — insert vectors arriving after ``at_us`` are
      shifted by ``magnitude`` (in units of per-dimension corpus spread),
      aging a frozen int8 codebook until the stale-codebook detector
      triggers a re-train.
    """

    kind: str  # "storm" | "compaction_stall" | "codebook_drift"
    at_us: float = 0.0
    n_inserts: int = 0
    n_deletes: int = 0
    factor: float = 4.0
    magnitude: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in _UPDATE_KINDS:
            raise ValueError(f"unknown update fault kind {self.kind!r}")
        if self.at_us < 0:
            raise ValueError("at_us must be >= 0")
        if self.n_inserts < 0 or self.n_deletes < 0:
            raise ValueError("storm sizes must be >= 0")
        if self.kind == "storm" and self.n_inserts + self.n_deletes == 0:
            raise ValueError("a storm needs inserts or deletes")
        if self.kind == "compaction_stall" and self.factor <= 1.0:
            raise ValueError("compaction_stall factor must be > 1")
        if self.kind == "codebook_drift" and self.magnitude <= 0:
            raise ValueError("codebook_drift magnitude must be > 0")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded chaos scenario (empty by default)."""

    seed: int = 0
    slot_faults: tuple[SlotFault, ...] = ()
    pcie_stalls: tuple[PCIeStall, ...] = ()
    shard_faults: tuple[ShardFault, ...] = ()
    update_faults: tuple[UpdateFault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "slot_faults", tuple(self.slot_faults))
        object.__setattr__(self, "pcie_stalls", tuple(self.pcie_stalls))
        object.__setattr__(self, "shard_faults", tuple(self.shard_faults))
        object.__setattr__(self, "update_faults", tuple(self.update_faults))
        seen = set()
        for f in self.slot_faults:
            key = (f.slot_id, f.on_dispatch, f.shard)
            if key in seen:
                raise ValueError(f"duplicate slot fault for {key}")
            seen.add(key)

    @property
    def empty(self) -> bool:
        return not (
            self.slot_faults
            or self.pcie_stalls
            or self.shard_faults
            or self.update_faults
        )

    def update_fault(self, kind: str) -> UpdateFault | None:
        """The first update fault of ``kind`` (None when unarmed)."""
        for f in self.update_faults:
            if f.kind == kind:
                return f
        return None

    # -------------------------------------------------------- cluster views
    def for_shard(self, shard: int) -> "FaultPlan":
        """The engine-level slice of the plan one shard/replica sees."""
        return FaultPlan(
            seed=self.seed,
            slot_faults=tuple(
                f for f in self.slot_faults if f.shard is None or f.shard == shard
            ),
            pcie_stalls=tuple(
                s for s in self.pcie_stalls if s.shard is None or s.shard == shard
            ),
        )

    def shard_fault(self, shard: int) -> ShardFault | None:
        """The kill/slow fault targeting ``shard`` (first match wins)."""
        for f in self.shard_faults:
            if f.shard == shard:
                return f
        return None

    # -------------------------------------------------------- construction
    @classmethod
    def random(
        cls,
        seed: int,
        n_slots: int,
        n_hangs: int = 0,
        n_corrupts: int = 0,
        n_straggles: int = 0,
        straggle_factor: float = 4.0,
        n_shards: int = 0,
        n_shard_kills: int = 0,
        kill_at_us: float = 500.0,
    ) -> "FaultPlan":
        """Sample a plan with the given fault census (deterministic in seed)."""
        n_faulty = n_hangs + n_corrupts + n_straggles
        if n_faulty > n_slots:
            raise ValueError("more slot faults than slots")
        if n_shard_kills > n_shards:
            raise ValueError("more shard kills than shards")
        rng = np.random.default_rng(seed)
        slots = rng.permutation(n_slots)[:n_faulty]
        kinds = ["hang"] * n_hangs + ["corrupt"] * n_corrupts + ["straggle"] * n_straggles
        slot_faults = tuple(
            SlotFault(int(s), kind, factor=straggle_factor)
            for s, kind in zip(slots, kinds)
        )
        shard_faults = ()
        if n_shard_kills:
            dead = rng.permutation(n_shards)[:n_shard_kills]
            shard_faults = tuple(
                ShardFault(int(g), "kill", at_us=kill_at_us) for g in dead
            )
        return cls(seed=seed, slot_faults=slot_faults, shard_faults=shard_faults)

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "slot_faults": [vars(f) for f in self.slot_faults],
            "pcie_stalls": [vars(s) for s in self.pcie_stalls],
            "shard_faults": [vars(f) for f in self.shard_faults],
            "update_faults": [vars(f) for f in self.update_faults],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            seed=data.get("seed", 0),
            slot_faults=tuple(SlotFault(**f) for f in data.get("slot_faults", [])),
            pcie_stalls=tuple(PCIeStall(**s) for s in data.get("pcie_stalls", [])),
            shard_faults=tuple(ShardFault(**f) for f in data.get("shard_faults", [])),
            update_faults=tuple(
                UpdateFault(**f) for f in data.get("update_faults", [])
            ),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


class FaultInjector:
    """Stateful per-serve view of a plan: answers "does this dispatch fault?".

    One injector per engine serve — it counts dispatches per slot, so the
    same plan replayed over the same workload fires identically.
    """

    def __init__(self, plan: FaultPlan | None):
        self.plan = plan or FaultPlan()
        self._dispatches: dict[int, int] = {}
        self._armed: dict[tuple[int, int], SlotFault] = {
            (f.slot_id, f.on_dispatch): f for f in self.plan.slot_faults
        }

    def on_dispatch(self, slot_id: int) -> SlotFault | None:
        """Called once per slot dispatch; returns the fault firing now."""
        n = self._dispatches.get(slot_id, 0) + 1
        self._dispatches[slot_id] = n
        return self._armed.pop((slot_id, n), None)

    @property
    def stall_windows(self) -> tuple[tuple[float, float], ...]:
        """Sorted (start, end) PCIe stall windows for the link model."""
        return tuple(
            sorted((s.start_us, s.end_us) for s in self.plan.pcie_stalls)
        )


# --------------------------------------------------------------- named plans
def _smoke_plan() -> FaultPlan:
    """The CI chaos scenario: 1 of 4 shards dies, 2 slots hang, one CTA
    straggles, and the link stalls — the acceptance plan of docs/robustness.md."""
    return FaultPlan(
        seed=7,
        slot_faults=(
            SlotFault(0, "hang", shard=0),
            SlotFault(1, "hang", shard=1),
            SlotFault(2, "corrupt", shard=1),
            SlotFault(0, "straggle", factor=6.0, shard=2),
        ),
        pcie_stalls=(PCIeStall(start_us=120.0, duration_us=60.0, shard=2),),
        shard_faults=(ShardFault(3, "kill", at_us=300.0),),
    )


NAMED_PLANS: dict[str, object] = {
    "none": FaultPlan,
    "smoke": _smoke_plan,
    "slot-hangs": lambda: FaultPlan(
        seed=1,
        slot_faults=(SlotFault(0, "hang"), SlotFault(1, "hang")),
    ),
    "shard-kill": lambda: FaultPlan(
        seed=2, shard_faults=(ShardFault(0, "kill", at_us=300.0),)
    ),
    "stragglers": lambda: FaultPlan(
        seed=3,
        slot_faults=(
            SlotFault(0, "straggle", factor=8.0),
            SlotFault(1, "straggle", factor=8.0, on_dispatch=2),
        ),
        pcie_stalls=(PCIeStall(start_us=50.0, duration_us=100.0),),
    ),
    # The streaming acceptance scenario: a 5k-insert / 1k-delete burst
    # lands mid-serve while compaction cycles run 6x slow (docs/
    # robustness.md "Streaming updates & update storms").
    "update-storm": lambda: FaultPlan(
        seed=11,
        update_faults=(
            UpdateFault("storm", at_us=30_000.0, n_inserts=5000, n_deletes=1000),
            UpdateFault("compaction_stall", factor=6.0),
        ),
    ),
}


def named_plan(name: str) -> FaultPlan:
    """Fetch a built-in plan by name (``NAMED_PLANS`` lists them)."""
    try:
        return NAMED_PLANS[name]()
    except KeyError:
        raise ValueError(
            f"unknown fault plan {name!r}; known: {sorted(NAMED_PLANS)}"
        ) from None
