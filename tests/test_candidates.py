"""Unit tests for the candidate list."""

import numpy as np
import pytest

from .reference.candidates import CandidateList


def test_merge_keeps_sorted_and_truncates():
    cl = CandidateList(4)
    cl.merge(np.array([10, 11]), np.array([5.0, 1.0], dtype=np.float32))
    assert cl.ids[: cl.size].tolist() == [11, 10]
    cl.merge(np.array([12, 13, 14]), np.array([0.5, 3.0, 9.0], dtype=np.float32))
    assert cl.size == 4
    assert cl.dists[:4].tolist() == sorted(cl.dists[:4].tolist())
    assert 14 not in cl.ids[:4]  # worst dropped


def test_checked_flags_survive_merge():
    cl = CandidateList(4)
    cl.merge(np.array([1]), np.array([2.0], dtype=np.float32))
    cl.mark_checked(0)
    cl.merge(np.array([2]), np.array([1.0], dtype=np.float32))
    # id 1 moved to offset 1, still checked
    assert cl.ids[1] == 1 and cl.checked[1]
    assert not cl.checked[0]


def test_first_unchecked_and_exhaustion():
    cl = CandidateList(3)
    cl.merge(np.array([1, 2]), np.array([1.0, 2.0], dtype=np.float32))
    assert cl.first_unchecked() == 0
    cl.mark_checked(0)
    assert cl.first_unchecked() == 1
    cl.mark_checked(1)
    assert cl.is_exhausted


def test_unchecked_offsets_limit():
    cl = CandidateList(8)
    cl.merge(np.arange(5), np.arange(5, dtype=np.float32))
    cl.mark_checked(np.array([0, 2]))
    offs = cl.unchecked_offsets(2)
    assert offs.tolist() == [1, 3]
    assert cl.unchecked_offsets(0).size == 0


def test_topk_and_worst():
    cl = CandidateList(4)
    cl.merge(np.array([5, 6, 7]), np.array([3.0, 1.0, 2.0], dtype=np.float32))
    ids, d = cl.topk(2)
    assert ids.tolist() == [6, 7]
    assert cl.worst_dist == 3.0


def test_merge_returns_participant_count():
    cl = CandidateList(4)
    assert cl.merge(np.array([1]), np.array([1.0], dtype=np.float32)) == 1
    assert cl.merge(np.array([2, 3]), np.array([0.5, 2.0], dtype=np.float32)) == 3
    assert cl.merge(np.array([], dtype=np.int64), np.array([], dtype=np.float32)) == 0


def test_mark_checked_bounds():
    cl = CandidateList(4)
    cl.merge(np.array([1]), np.array([1.0], dtype=np.float32))
    with pytest.raises(IndexError):
        cl.mark_checked(1)


def test_merge_validates_shapes():
    cl = CandidateList(4)
    with pytest.raises(ValueError):
        cl.merge(np.array([1, 2]), np.array([1.0], dtype=np.float32))


def test_snapshot_copies():
    cl = CandidateList(4)
    cl.merge(np.array([1]), np.array([1.0], dtype=np.float32))
    ids, d, c = cl.snapshot()
    ids[0] = 99
    assert cl.ids[0] == 1


def test_capacity_validation():
    with pytest.raises(ValueError):
        CandidateList(0)
