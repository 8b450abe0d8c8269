"""Operation traces emitted by the search kernels.

The search algorithms in :mod:`repro.search` run *for real* on real vectors;
while running they record, per greedy-search step, exactly which operations a
CTA would issue (neighbour fetches, visited-bitmap probes, distance FMAs,
bitonic compare-exchanges, …).  The cost model then prices a trace without
re-running the search, which is what lets one set of traces be scheduled
under several batching disciplines for an apples-to-apples comparison.

Two forms of the same data live here:

* :class:`TraceBlock` — the **production form**: structure-of-arrays, one
  column per step field over every step of every CTA row of a query batch.
  The lockstep engine appends columns per round (:class:`TraceBuilder`)
  and the cost model prices a block in a handful of array expressions.
* :class:`StepRecord` / :class:`CTATrace` / :class:`QueryTrace` — the
  **row-object form**: what the scalar reference searchers emit and what a
  reader gets from ``block[i]`` / iteration.  :meth:`TraceBlock.from_traces`
  is the one adapter between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "PRECISION_TAGS",
    "precision_code",
    "StepRecord",
    "CTATrace",
    "QueryTrace",
    "TraceBlock",
    "TraceBuilder",
]

#: distance substrates a step can be tagged with; a block stores the index
PRECISION_TAGS = ("float32", "int8")


def precision_code(tag: str) -> int:
    """Column code of a precision tag; unknown tags fail loudly."""
    try:
        return PRECISION_TAGS.index(tag)
    except ValueError:
        raise ValueError(
            f"unknown trace precision {tag!r}; expected one of {PRECISION_TAGS}"
        ) from None


@dataclass(frozen=True)
class StepRecord:
    """Op counts for one greedy-search step (Alg. 1 lines 7–19).

    One *step* = select candidate(s) → fetch neighbours → filter via bitmap
    → compute distances → (maybe) sort-and-merge the candidate list.
    With beam extend a single step may expand several candidates and skip
    the sort; ``did_sort`` is False for the skipped iterations.
    """

    #: offset of the selected candidate within the candidate list (the beam
    #: phase trigger from §IV-C); for beam steps, offset of the first pick.
    select_offset: int
    #: how many candidates were expanded in this step (1 for pure greedy).
    n_expanded: int
    #: neighbour ids fetched from the adjacency lists (global memory reads).
    n_neighbors_fetched: int
    #: bitmap probes performed (== neighbours fetched).
    n_visited_checks: int
    #: neighbours that survived the filter → full distance computations.
    n_new_points: int
    #: vector dimensionality (per-distance FMA count is n_new · dim).
    dim: int
    #: elements participating in the bitonic sort+merge (0 if skipped).
    sort_size: int
    #: candidate-list length at this step (scanned during selection).
    cand_list_len: int
    #: whether the sort/merge maintenance ran this step.
    did_sort: bool
    #: best (smallest) distance in the candidate list after the step —
    #: recorded for the Fig. 7 convergence analysis.
    best_dist: float = float("nan")
    #: distance substrate of this step's scoring kernel: ``"float32"``
    #: (per-dimension FMAs) or ``"int8"`` (DP4A packed MACs over SQ8
    #: codes).  The cost model prices the distance phase per-substrate.
    precision: str = "float32"


@dataclass
class CTATrace:
    """Everything one CTA did while serving (its share of) one query."""

    steps: list[StepRecord] = field(default_factory=list)
    #: number of result slots this CTA writes back (its local TopK length).
    result_len: int = 0

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def n_sorts(self) -> int:
        return sum(1 for s in self.steps if s.did_sort)

    @property
    def n_distances(self) -> int:
        """Total full distance computations performed."""
        return sum(s.n_new_points for s in self.steps)

    @property
    def n_expanded(self) -> int:
        """Total candidates expanded (== sequential greedy iterations)."""
        return sum(s.n_expanded for s in self.steps)


@dataclass
class QueryTrace:
    """Traces of all CTAs cooperating on a single query.

    ``ctas[i]`` is the trace of the i-th CTA.  For single-CTA search the
    list has one element.  The merged result ids/distances live with the
    caller (search functions return them separately).
    """

    ctas: list[CTATrace] = field(default_factory=list)
    dim: int = 0
    k: int = 0

    @property
    def n_ctas(self) -> int:
        return len(self.ctas)

    @property
    def max_steps(self) -> int:
        return max((c.n_steps for c in self.ctas), default=0)

    @property
    def total_distances(self) -> int:
        return sum(c.n_distances for c in self.ctas)

    @property
    def total_sorts(self) -> int:
        return sum(c.n_sorts for c in self.ctas)


#: step columns of a block, in :class:`StepRecord` field order (the step's
#: ``dim`` is column ``step_dim``; ``block.dim`` is the query's).  Counts are
#: int32 (a step touches at most a few thousand items; IVF scans stay far
#: below 2^31); ``best_dist`` keeps ``float(float32)`` values exactly.
_STEP_COLUMNS = (
    ("select_offset", np.int32),
    ("n_expanded", np.int32),
    ("n_neighbors_fetched", np.int32),
    ("n_visited_checks", np.int32),
    ("n_new_points", np.int32),
    ("step_dim", np.int32),
    ("sort_size", np.int32),
    ("cand_list_len", np.int32),
    ("did_sort", np.bool_),
    ("best_dist", np.float64),
    ("precision", np.uint8),
)
_STEP_NAMES = tuple(name for name, _ in _STEP_COLUMNS)
_STEP_FIELDS = tuple(f.name for f in fields(StepRecord))
#: columns only a traversal round fills; seed and re-rank steps leave them 0
_TRAVERSAL_ONLY = ("select_offset", "n_expanded", "n_neighbors_fetched",
                   "n_visited_checks", "cand_list_len")
_NO_TRAVERSAL = dict.fromkeys(_TRAVERSAL_ONLY, 0)
_STEP_SET = frozenset(_STEP_NAMES)


class TraceBlock:
    """SoA op traces of a query batch: ``len(block)`` queries × ``n_ctas`` rows.

    Row ``q * n_ctas + c`` is CTA ``c`` of query ``q``.  ``lens[r]`` steps of
    row ``r`` sit contiguously, in execution order, at
    ``starts[r]:starts[r + 1]`` of every step column (the
    :class:`StepRecord` fields, ``precision`` as an index into
    :data:`PRECISION_TAGS`); ``result_len[r]`` is the row's written-back
    TopK length.  ``dim`` / ``k`` are the query's, as on
    :class:`QueryTrace` — a step's own ``dim`` differs inside quantized rows.

    ``block[i]`` and iteration materialize :class:`QueryTrace` row objects
    (readers, tests); ``block[a:b]`` is the sub-block of those queries.
    Equality is column equality (NaN ``best_dist`` entries compare equal).
    """

    __slots__ = ("n_ctas", "dim", "k", "lens", "result_len", "starts",
                 *_STEP_NAMES)

    def __init__(self, n_ctas: int, dim: int, k: int, lens, result_len,
                 **columns):
        if n_ctas <= 0:
            raise ValueError("n_ctas must be positive")
        self.n_ctas, self.dim, self.k = int(n_ctas), int(dim), int(k)
        self.lens = np.asarray(lens, dtype=np.int32)
        self.result_len = np.asarray(result_len, dtype=np.int32)
        if self.lens.ndim != 1 or self.lens.shape != self.result_len.shape:
            raise ValueError("lens and result_len must be equal-length vectors")
        if self.lens.size % self.n_ctas:
            raise ValueError(
                f"{self.lens.size} rows do not divide into {n_ctas}-CTA queries"
            )
        self.starts = np.zeros(self.lens.size + 1, dtype=np.int64)
        np.cumsum(self.lens, out=self.starts[1:])
        if set(columns) != set(_STEP_NAMES):
            raise ValueError(f"need exactly the step columns {_STEP_NAMES}")
        for name, dtype in _STEP_COLUMNS:
            col = np.asarray(columns[name], dtype=dtype)
            if col.shape != (self.n_steps,):
                raise ValueError(
                    f"column {name!r} has shape {col.shape}, "
                    f"lens sum to {self.n_steps}"
                )
            setattr(self, name, col)

    # ------------------------------------------------------------- adapters
    @classmethod
    def from_traces(cls, traces, dim: int | None = None,
                    k: int | None = None) -> "TraceBlock":
        """The row-object → block adapter (a block passes through).

        ``traces`` holds :class:`QueryTrace` objects (all with the same CTA
        count) or bare :class:`CTATrace` objects (one-CTA queries).
        ``dim`` / ``k`` default to the first query trace's.
        """
        if isinstance(traces, cls):
            return traces
        traces = list(traces)
        queries = [t.ctas if isinstance(t, QueryTrace) else [t] for t in traces]
        n_ctas = len(queries[0]) if queries else 1
        if any(len(q) != n_ctas for q in queries):
            raise ValueError("every query of a block needs the same CTA count")
        first = next((t for t in traces if isinstance(t, QueryTrace)), None)
        if dim is None:
            dim = first.dim if first else 0
        if k is None:
            k = first.k if first else 0
        ctas = [c for q in queries for c in q]
        steps = [s for c in ctas for s in c.steps]
        columns = {
            name: [getattr(s, attr) for s in steps]
            for name, attr in zip(_STEP_NAMES[:-1], _STEP_FIELDS)
        }
        columns["precision"] = [precision_code(s.precision) for s in steps]
        return cls(
            n_ctas, dim, k,
            lens=[len(c.steps) for c in ctas],
            result_len=[c.result_len for c in ctas],
            **columns,
        )

    def take(self, queries) -> "TraceBlock":
        """Sub-block of the given query indices, in the given order."""
        queries = np.asarray(queries, dtype=np.int64)
        rows = (queries[:, None] * self.n_ctas + np.arange(self.n_ctas)).ravel()
        lens = self.lens[rows]
        new_starts = np.cumsum(lens) - lens
        idx = (np.arange(int(lens.sum()))
               + np.repeat(self.starts[rows] - new_starts, lens))
        return TraceBlock(
            self.n_ctas, self.dim, self.k, lens, self.result_len[rows],
            **{name: getattr(self, name)[idx] for name in _STEP_NAMES},
        )

    @classmethod
    def concat(cls, blocks) -> "TraceBlock":
        """The blocks' queries one after another (the inverse of contiguous
        :meth:`take` slices); all must share ``n_ctas`` / ``dim`` / ``k``."""
        blocks = list(blocks)
        if not blocks:
            raise ValueError("need at least one block to concatenate")
        head = blocks[0]
        shape = (head.n_ctas, head.dim, head.k)
        for b in blocks[1:]:
            if (b.n_ctas, b.dim, b.k) != shape:
                raise ValueError(f"cannot concatenate a block of (n_ctas, dim, "
                                 f"k) = {(b.n_ctas, b.dim, b.k)} onto {shape}")
        return cls(
            *shape,
            lens=np.concatenate([b.lens for b in blocks]),
            result_len=np.concatenate([b.result_len for b in blocks]),
            **{name: np.concatenate([getattr(b, name) for b in blocks])
               for name in _STEP_NAMES},
        )

    # --------------------------------------------------------------- shape
    def __len__(self) -> int:
        return self.lens.size // self.n_ctas

    @property
    def n_rows(self) -> int:
        return int(self.lens.size)

    @property
    def n_steps(self) -> int:
        return int(self.starts[-1])

    @property
    def step_rows(self) -> np.ndarray:
        """Row index of every step (the key a per-row reduction groups by)."""
        return np.repeat(np.arange(self.n_rows), self.lens)

    def row_sums(self, column) -> np.ndarray:
        """Per-row integer sum of a count column, given by name (``did_sort``
        counts sorts) or as any per-step integer array."""
        if isinstance(column, str):
            column = getattr(self, column)
        return np.bincount(
            self.step_rows, weights=column, minlength=self.n_rows
        ).astype(np.int64)

    # ------------------------------------------------------------- readers
    def _materialize(self, q_lo: int, q_hi: int) -> list[QueryTrace]:
        r_lo, r_hi = q_lo * self.n_ctas, q_hi * self.n_ctas
        s_lo = int(self.starts[r_lo])
        cols = [getattr(self, name)[s_lo:int(self.starts[r_hi])].tolist()
                for name in _STEP_NAMES]
        cols[-1] = [PRECISION_TAGS[c] for c in cols[-1]]
        steps = [StepRecord(*vals) for vals in zip(*cols)]
        bounds = (self.starts[r_lo:r_hi + 1] - s_lo).tolist()
        result_len = self.result_len[r_lo:r_hi].tolist()
        ctas = [CTATrace(steps=steps[bounds[i]:bounds[i + 1]],
                         result_len=result_len[i])
                for i in range(r_hi - r_lo)]
        return [QueryTrace(ctas=ctas[i:i + self.n_ctas], dim=self.dim, k=self.k)
                for i in range(0, len(ctas), self.n_ctas)]

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self.take(np.arange(len(self))[key])
        q = range(len(self))[key]  # bounds check + negative indices
        return self._materialize(q, q + 1)[0]

    def __iter__(self):
        return iter(self._materialize(0, len(self)))

    def __eq__(self, other):
        if not isinstance(other, TraceBlock):
            return NotImplemented
        return (
            (self.n_ctas, self.dim, self.k) == (other.n_ctas, other.dim, other.k)
            and np.array_equal(self.lens, other.lens)
            and np.array_equal(self.result_len, other.result_len)
            and all(
                np.array_equal(getattr(self, name), getattr(other, name),
                               equal_nan=name == "best_dist")
                for name in _STEP_NAMES
            )
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (f"TraceBlock(queries={len(self)}, n_ctas={self.n_ctas}, "
                f"steps={self.n_steps}, dim={self.dim}, k={self.k})")


class TraceBuilder:
    """Collects lockstep rounds as column chunks; one stable sort at the end.

    Each :meth:`add` records one step for each of the given rows (a row
    appears at most once per call); values are arrays aligned with ``rows``
    or scalars shared by the whole round.  :meth:`build` concatenates the
    chunks and stable-sorts by row, so each row's steps stay in the order
    they were added.
    """

    def __init__(self, n_rows: int):
        self.n_rows = n_rows
        self._rows: list[np.ndarray] = []
        self._chunks: list[dict] = []

    def add(self, rows: np.ndarray, **columns) -> None:
        """One step per row; columns a seed / re-rank step has no value for
        (``select_offset``, fetch and probe counts, …) default to zero."""
        chunk = {**_NO_TRAVERSAL, **columns}
        if chunk.keys() != _STEP_SET:
            raise TypeError(f"a step needs exactly the columns {_STEP_NAMES}")
        self._rows.append(rows)
        self._chunks.append(chunk)

    def build(self, n_ctas: int, dim: int, k: int, result_len) -> TraceBlock:
        rows = (np.concatenate(self._rows) if self._rows
                else np.zeros(0, dtype=np.int64))
        order = np.argsort(rows, kind="stable")
        columns = {}
        for name, dtype in _STEP_COLUMNS:
            flat = np.empty(rows.size, dtype=dtype)
            at = 0
            for r, chunk in zip(self._rows, self._chunks):
                flat[at:at + r.size] = chunk[name]
                at += r.size
            columns[name] = flat[order]
        return TraceBlock(
            n_ctas, dim, k,
            lens=np.bincount(rows, minlength=self.n_rows),
            result_len=result_len, **columns,
        )
