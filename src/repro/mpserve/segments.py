"""Shared-memory generation segments: publish, attach, retire.

One **header** segment (``<base>-hdr``, :data:`~repro.mpserve.genheader.
HEADER_BYTES`) carries the seqlock announcement; each published
generation gets its own immutable **data** segment (``<base>-g<n>``)
holding::

    u32 meta_len | meta JSON (repro.store.shm.snapshot_meta + generation)
                 | concatenated raw BitArray buffers

The data segment is written *completely* before the header announces it
and never mutated afterwards, so readers only ever see finished bytes;
the seqlock only has to protect the tiny announcement, not the filters.

Lifecycle rules, learned the hard way:

* Python's ``multiprocessing.resource_tracker`` registers every
  ``SharedMemory`` — **including plain attaches** — and unlinks what it
  tracks when its process dies.  Left alone, a read worker exiting
  would tear the writer's segments out from under the fleet, and a
  killed writer would take the published generation with it.  Worse,
  the tracker daemon is *shared* by spawn children and its cache is a
  plain set, so register/unregister pairs from two processes touching
  the same name race into noisy ``KeyError`` tracebacks.  Segment
  calls here therefore run under :func:`_tracker_silenced`, which
  keeps the tracker from ever hearing about fleet segments; lifetime
  is owned explicitly by :class:`GenerationPublisher` (retire old
  generations, unlink on close) and the supervisor
  (:func:`purge_segments` on shutdown, which also sweeps leftovers of
  a previous SIGKILLed run).
* POSIX semantics make retirement safe: ``unlink`` removes the *name*;
  a worker still mapped to a retired generation keeps reading valid
  memory until it swaps and closes.  ``keep_generations`` bounds how
  briefly a name must stay resolvable for late attachers.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import struct
import time
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Optional, Tuple

from repro.errors import ConfigurationError, ProtocolError
from repro.mpserve.genheader import HEADER_BYTES, GenerationHeader
from repro.obs import names as metric_names
from repro.store import shm as store_shm

__all__ = [
    "AttachedGeneration",
    "GenerationPublisher",
    "GenerationReader",
    "attach_segment",
    "create_segment",
    "purge_segments",
    "recover_target",
    "unlink_segment",
]

_U32 = struct.Struct("<I")
_SHM_DIR = pathlib.Path("/dev/shm")


@contextlib.contextmanager
def _tracker_silenced():
    """Keep the resource tracker out of fleet segment lifetimes.

    ``shared_memory.SharedMemory`` registers on construct and
    unregisters inside ``unlink()``; both messages go to one tracker
    daemon shared by every spawn child.  Registering and then
    unregistering after the fact still leaves a window — and the
    daemon's cache is a set, so the second process to unregister a
    shared name trips a ``KeyError`` in the daemon.  Silencing both
    calls around our segment operations means the daemon never learns
    these names exist.  The patch is process-global for its (tiny)
    duration; all fleet segment work happens on the event-loop thread,
    so nothing else registers concurrently.
    """
    original_register = resource_tracker.register
    original_unregister = resource_tracker.unregister
    resource_tracker.register = lambda name, rtype: None
    resource_tracker.unregister = lambda name, rtype: None
    try:
        yield
    finally:
        resource_tracker.register = original_register
        resource_tracker.unregister = original_unregister


def create_segment(name: str, size: int) -> shared_memory.SharedMemory:
    """Create a segment whose lifetime is managed explicitly."""
    with _tracker_silenced():
        return shared_memory.SharedMemory(name=name, create=True, size=size)


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting its lifetime."""
    with _tracker_silenced():
        return shared_memory.SharedMemory(name=name)


def unlink_segment(seg: shared_memory.SharedMemory) -> None:
    """Close and remove a fleet segment without notifying the tracker.

    The name is unlinked even when ``close()`` raises ``BufferError``
    (a view of the mapping is still alive): the mapping then lives on
    until that view goes, but no later process can attach the name.
    """
    with _tracker_silenced():
        try:
            seg.close()
        except BufferError:
            pass
        try:
            seg.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - race
            pass


def purge_segments(base_name: str) -> int:
    """Unlink every segment of *base_name*; returns how many went.

    Sweeps ``/dev/shm`` (the only place CPython's POSIX segments live on
    Linux); a no-op elsewhere.  Safe against concurrent closes — a name
    that disappears mid-sweep is simply skipped.
    """
    removed = 0
    if not _SHM_DIR.is_dir():  # pragma: no cover - non-Linux
        return removed
    for path in _SHM_DIR.glob("%s-*" % base_name):
        try:
            seg = attach_segment(path.name)
        except (FileNotFoundError, OSError):
            continue
        unlink_segment(seg)
        removed += 1
    return removed


def _header_name(base_name: str) -> str:
    return "%s-hdr" % base_name


def _data_name(base_name: str, generation: int) -> str:
    return "%s-g%d" % (base_name, generation)


class GenerationPublisher:
    """Writer-side: export the target, announce it, retire old ones.

    Args:
        base_name: namespace for every segment of this fleet (the
            supervisor derives it from its token so two fleets on one
            box never collide).
        keep_generations: how many retired generations stay linked as a
            grace window for readers caught mid-attach.  Two is enough:
            an attach that loses the race re-reads the header and lands
            on the newer name.
        metrics: optional registry; publishes increment
            ``repro_mpserve_publishes_total``, set the
            ``repro_mpserve_generation`` gauge and observe
            ``repro_mpserve_publish_seconds``.
        start_generation: resume point after a writer restart (the
            recovered fleet keeps counting where the dead writer
            stopped, so workers see strictly increasing generations).
    """

    def __init__(self, base_name: str, keep_generations: int = 2,
                 metrics=None, start_generation: int = 0):
        if keep_generations < 1:
            raise ConfigurationError(
                "keep_generations must be >= 1 (the current generation "
                "must stay linked)")
        self.base_name = base_name
        self._keep = keep_generations
        self._generation = start_generation
        self._segments = {}
        try:
            self._header_seg = create_segment(
                _header_name(base_name), HEADER_BYTES)
        except FileExistsError:
            # A previous writer of this fleet died; adopt its header.
            self._header_seg = attach_segment(_header_name(base_name))
        self._header = GenerationHeader(self._header_seg.buf)
        self._m_publishes = None
        if metrics is not None and metrics.enabled:
            self._m_publishes = metrics.counter(
                metric_names.MPSERVE_PUBLISHES)
            self._m_latency = metrics.histogram(
                metric_names.MPSERVE_PUBLISH_SECONDS)
            metrics.gauge(metric_names.MPSERVE_GENERATION).set_fn(
                lambda: self._generation)

    @property
    def generation(self) -> int:
        """The last published generation (0 before the first)."""
        return self._generation

    def publish(self, target) -> int:
        """Publish a new immutable generation of *target*.

        Copies the buffers once (that copy *is* the snapshot — the
        writer keeps mutating its private store afterwards), announces
        through the seqlock header, then retires generations older than
        the grace window.
        """
        started = time.perf_counter()
        generation = self._generation + 1
        meta = dict(store_shm.snapshot_meta(target))
        meta["generation"] = generation
        meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
        data_bytes = store_shm.snapshot_nbytes(target)
        name = _data_name(self.base_name, generation)
        seg = create_segment(
            name, _U32.size + len(meta_bytes) + data_bytes)
        view = seg.buf
        _U32.pack_into(view, 0, len(meta_bytes))
        view[_U32.size:_U32.size + len(meta_bytes)] = meta_bytes
        store_shm.export_into(
            target, view[_U32.size + len(meta_bytes):])
        announcement = json.dumps(
            {"segment": name, "generation": generation},
            sort_keys=True).encode("utf-8")
        self._header.publish(generation, announcement)
        self._generation = generation
        self._segments[generation] = seg
        for old in sorted(self._segments):
            if old <= generation - self._keep:
                unlink_segment(self._segments.pop(old))
        if self._m_publishes is not None:
            self._m_publishes.inc()
            self._m_latency.observe(time.perf_counter() - started)
        return generation

    def close(self, unlink: bool = True) -> None:
        """Release segments; with *unlink*, remove them for good."""
        self._header.release()
        for seg in list(self._segments.values()) + [self._header_seg]:
            if unlink:
                unlink_segment(seg)
            else:
                try:
                    seg.close()
                except (BufferError, OSError):  # pragma: no cover
                    pass
        self._segments.clear()


class AttachedGeneration:
    """A zero-copy read-only view of one published generation.

    Keeps the underlying segment mapped for exactly as long as the
    attached target is served; :meth:`close` after swapping to a newer
    generation.
    """

    def __init__(self, generation: int, target, segment):
        self.generation = generation
        self.target = target
        self._segment = segment

    def close(self) -> None:
        """Drop the target's views of the segment, then unmap it.

        A view held elsewhere (a caller still serving the target) keeps
        the mapping alive until it is collected.
        """
        self.target = None
        try:
            self._segment.close()
        except (BufferError, OSError):  # pragma: no cover - late views
            pass


def _attach_generation(
    base_name: str, generation: int, announced_name: str
) -> AttachedGeneration:
    seg = attach_segment(announced_name)
    view = seg.buf
    meta_len = _U32.unpack_from(view, 0)[0]
    meta = json.loads(
        bytes(view[_U32.size:_U32.size + meta_len]).decode("utf-8"))
    if meta.get("generation") != generation:
        seg.close()
        raise ProtocolError(
            "generation segment %s carries generation %r but the "
            "header announced %d"
            % (announced_name, meta.get("generation"), generation))
    target = store_shm.attach_target(
        meta, view[_U32.size + meta_len:])
    return AttachedGeneration(generation, target, seg)


class GenerationReader:
    """Worker-side: poll the header, attach announced generations.

    Args:
        base_name: the fleet namespace (must match the publisher).
        metrics: optional registry; every torn/raced header read and
            every lost attach race bumps
            ``repro_mpserve_reader_retries_total``.
    """

    def __init__(self, base_name: str, metrics=None):
        self.base_name = base_name
        self._header_seg = None
        self._header = None
        self._on_retry = None
        if metrics is not None and metrics.enabled:
            self._on_retry = metrics.counter(
                metric_names.MPSERVE_READER_RETRIES).inc

    def connect(self, timeout_s: float = 10.0,
                poll_s: float = 0.02) -> None:
        """Wait for the header segment to exist, then map it."""
        deadline = time.monotonic() + timeout_s
        while self._header is None:
            try:
                self._header_seg = attach_segment(
                    _header_name(self.base_name))
            except FileNotFoundError:
                if time.monotonic() >= deadline:
                    raise ProtocolError(
                        "no generation header %r after %.1fs: writer "
                        "not started or already purged"
                        % (_header_name(self.base_name), timeout_s)
                    ) from None
                time.sleep(poll_s)
            else:
                self._header = GenerationHeader(self._header_seg.buf)

    def peek_generation(self) -> int:
        """Cheap newest-generation probe (one 8-byte read)."""
        if self._header is None:
            raise ProtocolError("reader is not connected")
        return self._header.peek_generation()

    def attach(self, retries: int = 200,
               delay_s: float = 0.005) -> AttachedGeneration:
        """Attach the latest announced generation, riding out races.

        Two races are absorbed by the retry loop, both counted on the
        retries metric: a torn header read (seqlock retry inside
        :meth:`GenerationHeader.read`) and an announcement whose
        segment was already retired by a faster sequence of publishes
        (``FileNotFoundError`` — re-read the header, land on the newer
        name).
        """
        if self._header is None:
            raise ProtocolError("reader is not connected")
        last_error: Optional[Exception] = None
        for _attempt in range(retries):
            generation, payload = self._header.read(
                retries=retries, on_retry=self._on_retry)
            announcement = json.loads(payload.decode("utf-8"))
            try:
                return _attach_generation(
                    self.base_name, generation,
                    announcement["segment"])
            except (FileNotFoundError, ProtocolError) as exc:
                last_error = exc
                if self._on_retry is not None:
                    self._on_retry()
                time.sleep(delay_s)
        raise ProtocolError(
            "could not attach a consistent generation after %d "
            "attempts: %s" % (retries, last_error))

    def close(self) -> None:
        if self._header is not None:
            self._header.release()
        if self._header_seg is not None:
            try:
                self._header_seg.close()
            except (BufferError, OSError):  # pragma: no cover
                pass
        self._header = None
        self._header_seg = None


def recover_target(base_name: str) -> Optional[Tuple[int, object]]:
    """Warm-restart hook: ``(generation, writable target)`` or ``None``.

    A restarted writer calls this before building a fresh empty store:
    if a previous writer of this fleet left a published generation
    behind, the new writer materialises it (a digest-checked deep copy)
    and resumes publishing from the next generation — losing only the
    writes that arrived after the last publish, a window bounded by the
    publish interval.
    """
    reader = GenerationReader(base_name)
    try:
        reader.connect(timeout_s=0.0)
    except ProtocolError:
        return None
    try:
        if reader.peek_generation() == 0:
            return None
        attached = reader.attach()
        try:
            return attached.generation, store_shm.materialize(
                attached.target)
        finally:
            attached.close()
    except ProtocolError:
        return None
    finally:
        reader.close()
