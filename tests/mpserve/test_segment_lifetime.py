"""Shared-memory segment lifetimes: close and unlink leave nothing behind.

A ``SharedMemory`` refuses ``close()`` with ``BufferError`` while any
view of its mapping is alive.  The publisher's own seqlock header view
used to trip that on every ``close(unlink=True)``, leaking the header
segment; a warm-restarting writer's :func:`recover_target` tripped it
on the way out.  These tests pin the fixed lifetimes: closing raises
nothing and unlinked names cannot be attached again.
"""

from __future__ import annotations

import os

import pytest

from repro.mpserve.segments import (GenerationPublisher, GenerationReader,
                                    attach_segment, create_segment,
                                    purge_segments, recover_target,
                                    unlink_segment)
from repro.store import StoreSpec


@pytest.fixture
def base_name():
    name = "repro-lifetime-%d" % os.getpid()
    purge_segments(name)
    yield name
    purge_segments(name)


def small_store():
    store = StoreSpec(shards=2, m=4096, k=4).build()
    store.add_batch([b"member-%d" % i for i in range(50)])
    return store


def test_publisher_close_unlinks_every_segment(base_name):
    publisher = GenerationPublisher(base_name)
    publisher.publish(small_store())
    publisher.close(unlink=True)
    for name in ("%s-hdr" % base_name, "%s-g1" % base_name):
        with pytest.raises(FileNotFoundError):
            attach_segment(name)


def test_publisher_close_after_a_reader_came_and_went(base_name):
    publisher = GenerationPublisher(base_name)
    publisher.publish(small_store())
    reader = GenerationReader(base_name)
    reader.connect(timeout_s=1.0)
    assert reader.peek_generation() == 1
    reader.close()
    publisher.close(unlink=True)
    with pytest.raises(FileNotFoundError):
        attach_segment("%s-hdr" % base_name)


def test_recover_target_returns_the_published_generation(base_name):
    store = small_store()
    publisher = GenerationPublisher(base_name)
    publisher.publish(store)
    publisher.publish(store)
    generation, target = recover_target(base_name)
    assert generation == 2
    assert target.snapshot() == store.snapshot()
    publisher.close(unlink=True)
    assert recover_target(base_name) is None


def test_unlink_segment_unlinks_a_segment_with_a_live_view(base_name):
    seg = create_segment("%s-pinned" % base_name, 64)
    view = seg.buf[:8]
    unlink_segment(seg)
    with pytest.raises(FileNotFoundError):
        attach_segment("%s-pinned" % base_name)
    view.release()
    seg.close()
