"""Unit tests for the visited bitmap."""

import numpy as np
import pytest

from .reference.visited import VisitedBitmap


def test_test_and_set_basic():
    bm = VisitedBitmap(100)
    fresh = bm.test_and_set(np.array([1, 5, 64, 99]))
    assert fresh.all()
    again = bm.test_and_set(np.array([5, 64]))
    assert not again.any()
    assert bm.count() == 4


def test_intra_call_duplicates_first_wins():
    bm = VisitedBitmap(10)
    fresh = bm.test_and_set(np.array([3, 3, 3]))
    assert fresh.tolist() == [True, False, False]


def test_test_does_not_mutate():
    bm = VisitedBitmap(10)
    assert not bm.test(np.array([2])).any()
    assert not bm.test(np.array([2])).any()
    assert bm.count() == 0


def test_word_boundaries():
    bm = VisitedBitmap(130)
    ids = np.array([0, 63, 64, 127, 128, 129])
    assert bm.test_and_set(ids).all()
    assert bm.test(ids).all()
    assert bm.count() == 6


def test_probe_counters():
    bm = VisitedBitmap(10)
    bm.test_and_set(np.array([1, 2]))
    bm.test(np.array([1]))
    assert bm.probes == 3  # test_and_set probes once internally per call
    assert bm.sets == 2


def test_out_of_range():
    bm = VisitedBitmap(10)
    with pytest.raises(IndexError):
        bm.test(np.array([10]))
    with pytest.raises(IndexError):
        bm.test(np.array([-1]))


def test_reset():
    bm = VisitedBitmap(10)
    bm.test_and_set(np.array([1]))
    bm.reset()
    assert bm.count() == 0 and bm.probes == 0


def test_empty_call():
    bm = VisitedBitmap(10)
    assert bm.test_and_set(np.array([], dtype=np.int64)).size == 0


def test_invalid_size():
    with pytest.raises(ValueError):
        VisitedBitmap(0)
