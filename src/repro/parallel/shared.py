"""Zero-copy array sharing across worker processes.

The parallel substrate (docs/performance.md, "Multi-core execution") fans
serving work and sharded shard builds out over
:class:`~repro.parallel.pool.WorkerPool` workers.  Process workers cannot
see the parent's heap, and pickling a corpus per task would copy
gigabytes per serve — so arrays cross the process boundary as
:class:`ArrayRef` handles instead:

* ``"shm"`` — the array lives in a :mod:`multiprocessing.shared_memory`
  segment; workers map the same physical pages (attach is O(1), no copy);
* ``"mmap"`` — the array is already a file-backed ``np.memmap`` (the
  big-dataset caches of :mod:`repro.data.storage`); workers re-open the
  file read-only and the OS page cache is the shared copy;
* ``"inline"`` — the array itself, for inline pools where the "worker" is
  the parent and nothing is ever pickled.

A :class:`SharedArena` owns the segments it creates and is the *only*
place that unlinks them: workers attach but never own, so a worker crash
cannot leak a segment — the parent's ``close()`` (or its GC/interpreter-
exit finalizer) always reclaims.  On Python < 3.13 an attach spuriously
re-registers the segment with ``resource_tracker`` (there is no
``track=False``); the attach path unregisters it again so the tracker's
ledger stays consistent with the single-owner protocol and worker exit
never double-frees or warns.
"""

from __future__ import annotations

import atexit
import logging
import os
import uuid
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = ["ArrayRef", "SharedArena", "resolve_ref"]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ArrayRef:
    """Picklable handle to an array living in shared memory / a file / RAM."""

    kind: str  # "shm" | "mmap" | "inline"
    shape: tuple
    dtype: str
    name: str | None = None  # shm segment name
    path: str | None = None  # memmap file path
    offset: int = 0  # memmap byte offset of the data block
    array: object | None = None  # inline payload (same-process pools only)

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


def _segment_name() -> str:
    # Prefixed + random so the lifecycle test can positively identify our
    # segments in /dev/shm and the name never collides across processes.
    return f"repro_{os.getpid()}_{uuid.uuid4().hex[:12]}"


class SharedArena:
    """Owner of a set of shared-memory segments holding numpy arrays.

    ``share(arr)`` copies (or aliases, for memmaps) an array into a
    picklable :class:`ArrayRef`; workers map it read-only.

    With ``enabled=False`` (an inline pool) nothing is shared:
    refs are inline and carry the array itself.  ``close()`` unlinks every
    owned segment; it also runs via a GC finalizer and at interpreter
    exit, and is pid-guarded so a forked child inheriting the object can
    never unlink the parent's segments.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._segments: list[shared_memory.SharedMemory] = []
        self._names: list[str] = []
        self._owner_pid = os.getpid()
        # weakref.finalize also fires at interpreter exit, so segments are
        # reclaimed even when close() is never called explicitly.
        self._finalizer = weakref.finalize(
            self, SharedArena._cleanup, self._segments, self._owner_pid
        )

    # ------------------------------------------------------------- sharing
    def share(self, arr: np.ndarray) -> ArrayRef:
        """Return a picklable ref to ``arr`` without copying the vectors
        across the process boundary (one copy *into* shm for plain arrays;
        zero for memmaps and same-process pools)."""
        if not self.enabled:
            arr = np.asarray(arr)
            return ArrayRef("inline", arr.shape, arr.dtype.str, array=arr)
        if (
            isinstance(arr, np.memmap)
            and getattr(arr, "filename", None) is not None
            and arr.flags["C_CONTIGUOUS"]
        ):
            # np.asarray would strip the memmap subclass, so check first.
            return ArrayRef(
                "mmap", arr.shape, arr.dtype.str,
                path=os.fspath(arr.filename), offset=int(arr.offset),
            )
        arr = np.asarray(arr)
        seg = shared_memory.SharedMemory(
            create=True, size=max(arr.nbytes, 1), name=_segment_name()
        )
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
        view[...] = arr
        self._segments.append(seg)
        self._names.append(seg.name)
        _OWNED_NAMES.add(seg.name)
        return ArrayRef("shm", arr.shape, arr.dtype.str, name=seg.name)

    # ----------------------------------------------------------- lifecycle
    @property
    def segment_names(self) -> list[str]:
        return list(self._names)

    @staticmethod
    def _cleanup(segments: list, owner_pid: int) -> None:
        if os.getpid() != owner_pid:
            # A forked child inherited this arena; only the owner unlinks.
            return
        for seg in segments:
            # Unlink before close: close() raises BufferError while numpy
            # views of the segment are still alive, but the name must be
            # reclaimed regardless — the mapping itself is freed when the
            # last view dies.
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
            try:
                seg.close()
            except BufferError:
                pass
        segments.clear()

    def close(self) -> None:
        """Unlink every owned segment (idempotent; owner process only)."""
        if self._finalizer.alive:
            self._finalizer()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------- workers

#: pid that imported this module.  A fork child inherits the import (pid
#: differs) *and* the parent's resource_tracker pipe, whose registration
#: set already dedupes the attach-time re-register — unregistering there
#: would remove the owner's entry.  A spawn child imports fresh (pid
#: matches) and starts its *own* tracker, which must be told it does not
#: own the segment or it unlinks it (with a warning) when the child exits.
_IMPORT_PID = os.getpid()
#: segment names created by arenas in this process (the true owner side).
_OWNED_NAMES: set[str] = set()

#: per-process attachment cache: segment name -> (SharedMemory, ndarray).
#: Attachments persist for the worker's lifetime (pool workers are reused
#: across tasks) and are closed at process exit; they are never unlinked.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}
#: memmap re-open cache: (path, offset, shape, dtype) -> ndarray.
_MMAPPED: dict[tuple, np.ndarray] = {}


@atexit.register
def _close_attachments() -> None:  # pragma: no cover - exit path
    for seg, _ in _ATTACHED.values():
        try:
            seg.close()
        except BufferError:
            pass  # a cached ndarray view still pins the mapping; exit unmaps it
        except Exception as exc:
            _log.debug("closing attachment %s failed: %r", seg.name, exc,
                       exc_info=True)
    _ATTACHED.clear()


def _attach(ref: ArrayRef) -> np.ndarray:
    cached = _ATTACHED.get(ref.name)
    if cached is None:
        seg = shared_memory.SharedMemory(name=ref.name)
        if ref.name not in _OWNED_NAMES and os.getpid() == _IMPORT_PID:
            try:
                # Pre-3.13 attach registers with resource_tracker as if
                # this process owned the segment (no track=False yet).  In
                # a spawn-style worker, whose private tracker would unlink
                # (and warn about) the segment at exit, undo it — the
                # arena in the parent is the sole owner.  Fork workers
                # share the parent's tracker, whose registration set
                # already deduped the re-register; see _IMPORT_PID above.
                from multiprocessing import resource_tracker

                resource_tracker.unregister(seg._name, "shared_memory")
            except (AttributeError, OSError):
                pass  # no private ``_name`` on this Python / tracker pipe gone
            except Exception as exc:
                _log.debug("unregistering %s from the resource tracker "
                           "failed: %r", ref.name, exc, exc_info=True)
        arr = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=seg.buf)
        arr.setflags(write=False)
        _ATTACHED[ref.name] = (seg, arr)
        cached = (seg, arr)
    return cached[1]


def resolve_ref(ref: ArrayRef) -> np.ndarray:
    """Materialize an :class:`ArrayRef` in this process (cached, O(1) after
    the first touch of a segment/file)."""
    if ref.kind == "inline":
        return ref.array
    if ref.kind == "mmap":
        key = (ref.path, ref.offset, ref.shape, ref.dtype)
        arr = _MMAPPED.get(key)
        if arr is None:
            arr = np.memmap(
                ref.path, dtype=np.dtype(ref.dtype), mode="r",
                offset=ref.offset, shape=ref.shape,
            )
            _MMAPPED[key] = arr
        return arr
    if ref.kind == "shm":
        return _attach(ref)
    raise ValueError(f"unknown ArrayRef kind {ref.kind!r}")
