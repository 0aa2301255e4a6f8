"""Shared-memory segment lifetimes: close and unlink leave nothing behind.

A ``SharedMemory`` refuses ``close()`` with ``BufferError`` while any
view of its mapping is alive.  The publisher's own seqlock header view
used to trip that on every ``close(unlink=True)``, leaking the header
segment; a warm-restarting writer's :func:`recover_target` tripped it
on the way out.  These tests pin the fixed lifetimes: closing raises
nothing and unlinked names cannot be attached again.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.mpserve.segments import (GenerationPublisher, GenerationReader,
                                    attach_segment, create_segment,
                                    purge_segments, recover_target,
                                    unlink_segment)
from repro.mpserve.worker import ReadWorkerService
from repro.store import StoreSpec
from repro.store import shm as store_shm


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


def test_attached_generation_close_unmaps_its_segment(base_name):
    # close() drops the attached target's views of the data segment
    # itself, so the mapping goes at once, not at garbage collection.
    store = small_store()
    publisher = GenerationPublisher(base_name)
    publisher.publish(store)
    reader = GenerationReader(base_name)
    reader.connect(timeout_s=1.0)
    attached = reader.attach()
    copy = store_shm.materialize(attached.target)
    segment = attached._segment
    attached.close()
    assert segment._mmap is None
    assert attached.target is None
    assert copy.snapshot() == store.snapshot()
    reader.close()
    publisher.close(unlink=True)


def test_worker_close_unmaps_its_generation(base_name):
    # The worker serves the attached target; closing the worker drops
    # that reference too, so the segment unmaps on close.
    publisher = GenerationPublisher(base_name)
    publisher.publish(small_store())
    reader = GenerationReader(base_name)
    reader.connect(timeout_s=1.0)
    attached = reader.attach()
    segment = attached._segment
    worker = ReadWorkerService(attached, reader, "127.0.0.1", 1)
    asyncio.run(worker.close())
    assert segment._mmap is None
    publisher.close(unlink=True)


def test_unlink_segment_unlinks_a_segment_with_a_live_view(base_name):
    seg = create_segment("%s-pinned" % base_name, 64)
    view = seg.buf[:8]
    unlink_segment(seg)
    with pytest.raises(FileNotFoundError):
        attach_segment("%s-pinned" % base_name)
    view.release()
    seg.close()
