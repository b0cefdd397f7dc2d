"""Batched transport posting: semantics identical to repeated post()."""

import numpy as np
import pytest

from repro.comm.transport import Transport


def test_post_batch_matches_sequential_posts():
    t1, t2 = Transport(4), Transport(4)
    posts = [(1, "a", 10), (2, "b", 20), (3, "c", 0)]
    for dst, payload, nb in posts:
        t1.post(0, dst, "tag", payload, nb)
    t2.post_batch(0, "tag", posts)
    assert np.array_equal(t1.bytes_matrix("tag"), t2.bytes_matrix("tag"))
    for dst in (1, 2, 3):
        assert t1.collect(dst, "tag") == t2.collect(dst, "tag")


def test_post_batch_empty_is_noop():
    t = Transport(2)
    t.post_batch(0, "tag", [])
    assert t.total_bytes() == 0
    assert t.pending_tags() == []


def test_post_batch_accumulates_bytes_per_pair():
    t = Transport(3)
    t.post_batch(0, "x", [(1, None, 5), (2, None, 7)])
    t.post_batch(1, "x", [(0, None, 11)])
    m = t.bytes_matrix("x")
    assert m[0, 1] == 5 and m[0, 2] == 7 and m[1, 0] == 11
    assert t.total_bytes() == 23


def test_post_batch_rejects_self_message():
    t = Transport(2)
    with pytest.raises(ValueError, match="themselves"):
        t.post_batch(0, "tag", [(0, None, 1)])


def test_post_batch_rejects_out_of_range_destination():
    t = Transport(2)
    with pytest.raises(ValueError, match="out of range"):
        t.post_batch(0, "tag", [(5, None, 1)])


def test_post_batch_rejects_negative_bytes():
    t = Transport(2)
    with pytest.raises(ValueError, match="non-negative"):
        t.post_batch(0, "tag", [(1, None, -1)])


def test_post_batch_rejects_duplicate_pair():
    t = Transport(3)
    t.post(0, 1, "tag", None, 1)
    with pytest.raises(RuntimeError, match="duplicate"):
        t.post_batch(0, "tag", [(2, None, 1), (1, None, 1)])
