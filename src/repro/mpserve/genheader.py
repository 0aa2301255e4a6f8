"""The seqlock-style generation header: torn-publish-proof announcements.

The writer announces each published generation by updating a small
fixed-layout header segment that every read worker polls.  A reader must
never act on a *torn* announcement — half of generation ``g``, half of
``g+1`` — because the payload names the shared-memory segment to attach:
a torn read could splice the name of one generation with the byte length
of another.

The protocol is the classic double-stamp seqlock, specialised to a
monotonic generation counter (so no separate sequence word is needed —
the generation *is* the sequence).  The counter is written **twice**,
bracketing the payload:

===========  =======================  ============================
offset       field                    write order (reader order)
===========  =======================  ============================
``0:8``      ``gen_front`` (u64 LE)   written **last** (read first)
``8:12``     ``payload_len`` (u32)    written with the payload
``16:...``   payload bytes            written second
``-8:``      ``gen_back`` (u64 LE)    written **first** (read last)
===========  =======================  ============================

Writer: ``gen_back = g`` → payload → ``gen_front = g``.
Reader: ``f = gen_front`` → copy payload → ``b = gen_back``; the copy is
consistent iff ``f == b`` (and ``f > 0``; generation 0 means "never
published").  Proof sketch: observing ``gen_front == g`` means publish
``g`` completed before the payload copy began, and any later publish
``g' > g`` writes ``gen_back = g'`` *before* touching the payload — so a
copy overlapping it re-reads ``gen_back != f`` and retries.  A reader
can stall a retry loop but never return spliced bytes.

Assumptions, stated honestly: each stamp is one aligned 8-byte store
(``struct.pack_into`` → a single memcpy) and stores become visible in
program order (true on x86-TSO; CPython's eval loop adds full barriers
around every bytecode on other ISAs in practice — and the failure mode
under a hypothetically reordered stamp is a *spurious retry*, never a
silent tear, because acceptance still requires both stamps to agree).

``publish_steps`` exposes the write sequence as discrete atomic steps so
the property-based suite (``tests/mpserve/test_generation_protocol.py``)
can interleave reader attempts between *every* pair of writer stores —
including mid-payload, where the bytes really are torn — and prove the
reader rejects each such state.  ``publish`` just runs the steps.
"""

from __future__ import annotations

import struct
import time
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigurationError, ProtocolError

__all__ = ["HEADER_BYTES", "GenerationHeader"]

#: Total header segment size.  One page: the payload is a small JSON
#: object naming the generation's data segment, not the data itself.
HEADER_BYTES = 4096

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
_FRONT_OFF = 0
_LEN_OFF = 8
_PAYLOAD_OFF = 16
_BACK_SIZE = 8


class GenerationHeader:
    """Seqlock view over a writable (writer) or read-only (reader) buffer.

    Args:
        buffer: a buffer of at least :data:`HEADER_BYTES` bytes —
            typically ``SharedMemory.buf``.  Readers may pass a
            read-only view; calling :meth:`publish` then raises.
    """

    def __init__(self, buffer):
        view = memoryview(buffer)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
        if len(view) < HEADER_BYTES:
            raise ConfigurationError(
                "generation header needs %d bytes, got %d"
                % (HEADER_BYTES, len(view)))
        self._view = view
        self._back_off = HEADER_BYTES - _BACK_SIZE

    def release(self) -> None:
        """Drop this view of the buffer.

        A ``SharedMemory`` refuses ``close()`` while any view of its
        mapping is alive, so the owner of a header segment calls this
        before closing it.  The header is unusable afterwards.
        """
        self._view.release()

    @property
    def payload_capacity(self) -> int:
        """Largest payload :meth:`publish` accepts."""
        return self._back_off - _PAYLOAD_OFF

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------
    def publish_steps(
        self, generation: int, payload: bytes
    ) -> List[Tuple[str, Callable[[], None]]]:
        """The publish write sequence as labelled atomic steps.

        Returned in the order they must run; the payload is split into
        two stores on purpose — a memcpy is not atomic, and the torn
        state between the halves is exactly what the property suite
        interleaves readers into.
        """
        if generation <= 0:
            raise ConfigurationError(
                "generations are positive (0 means never published), "
                "got %d" % generation)
        if len(payload) > self.payload_capacity:
            raise ConfigurationError(
                "generation payload of %d bytes exceeds the header "
                "capacity of %d" % (len(payload), self.payload_capacity))
        view = self._view
        half = len(payload) // 2
        lo, hi = payload[:half], payload[half:]

        def write_back() -> None:
            _U64.pack_into(view, self._back_off, generation)

        def write_len() -> None:
            _U32.pack_into(view, _LEN_OFF, len(payload))

        def write_payload_lo() -> None:
            view[_PAYLOAD_OFF:_PAYLOAD_OFF + len(lo)] = lo

        def write_payload_hi() -> None:
            start = _PAYLOAD_OFF + len(lo)
            view[start:start + len(hi)] = hi

        def write_front() -> None:
            _U64.pack_into(view, _FRONT_OFF, generation)

        return [
            ("back", write_back),
            ("len", write_len),
            ("payload_lo", write_payload_lo),
            ("payload_hi", write_payload_hi),
            ("front", write_front),
        ]

    def publish(self, generation: int, payload: bytes) -> None:
        """Announce *generation* with *payload* (runs every step)."""
        for _label, step in self.publish_steps(generation, payload):
            step()

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------
    def peek_generation(self) -> int:
        """The front stamp alone — the cheap "did anything change?" poll.

        May be ahead of what :meth:`try_read` returns mid-publish; use
        it only to decide whether a full read is worth attempting.
        """
        return _U64.unpack_from(self._view, _FRONT_OFF)[0]

    def try_read(self) -> Optional[Tuple[int, bytes]]:
        """One read attempt: ``(generation, payload)`` or ``None``.

        ``None`` means the header was unpublished, mid-publish, or torn
        — never a spliced payload.  The payload is copied out *between*
        the two stamp reads, so the returned bytes are exactly what some
        single publish wrote.
        """
        view = self._view
        front = _U64.unpack_from(view, _FRONT_OFF)[0]
        if front == 0:
            return None
        length = _U32.unpack_from(view, _LEN_OFF)[0]
        if length > self.payload_capacity:
            return None  # torn length: next to a stamp mismatch anyway
        payload = bytes(view[_PAYLOAD_OFF:_PAYLOAD_OFF + length])
        back = _U64.unpack_from(view, self._back_off)[0]
        if back != front:
            return None
        return front, payload

    def read(
        self,
        retries: int = 200,
        delay_s: float = 0.0005,
        on_retry: Optional[Callable[[], None]] = None,
    ) -> Tuple[int, bytes]:
        """Read with retry: ``(generation, payload)`` of some publish.

        Retries up to *retries* times on torn/mid-publish states,
        calling *on_retry* each time (the workers hook their
        ``repro_mpserve_reader_retries_total`` counter here), and raises
        :class:`~repro.errors.ProtocolError` if the header never
        settles — a writer wedged mid-publish for ``retries * delay_s``
        is an operational fault, not something to spin on forever.
        """
        result = self.try_read()
        attempt = 0
        while result is None:
            attempt += 1
            if on_retry is not None:
                on_retry()
            if attempt > retries:
                raise ProtocolError(
                    "generation header did not settle after %d retries "
                    "(front=%d): writer dead mid-publish or never "
                    "started" % (retries, self.peek_generation()))
            if delay_s:
                time.sleep(delay_s)
            result = self.try_read()
        return result
